"""Exception types shared across the toolkit.

Every error raised on a violated operation contract derives from
``ToolkitError``. Input-shaped problems (bad config, bad files, bad label
vectors) further derive from ``ValidationError``, so callers (notably the
CLI) can tell them apart from genuine runtime failures.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ValidationError(ToolkitError):
    """The input was rejected before any computation could fail on it."""


# --- data loading / preprocessing -------------------------------------------

class MissingColumn(ValidationError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required column {name!r} not found in CSV header")


class NonNumericCell(ValidationError):
    def __init__(self, row: int, col: str):
        self.row = row
        self.col = col
        super().__init__(f"non-numeric cell at data row {row}, column {col!r}")


class EmptyFile(ValidationError):
    pass


class AllSamplesRemoved(ToolkitError):
    pass


class AllMissingFeature(ToolkitError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"feature {name!r} has no observed values to impute from")


class InsufficientClassSamples(ToolkitError):
    def __init__(self, cls: int, needed: int, available: int):
        self.cls = cls
        self.needed = needed
        self.available = available
        super().__init__(
            f"class {cls}: need {needed} samples but only {available} available"
        )


# --- numerics (clustering, autoencoder) --------------------------------------

class DegenerateInput(ToolkitError):
    pass


class DimensionMismatch(ToolkitError):
    pass


class SingularCovariance(ToolkitError):
    pass


class InvalidDimension(ToolkitError):
    pass


class StaleCache(ToolkitError):
    pass


class NonFiniteLoss(ToolkitError):
    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"loss or parameters became non-finite at epoch {epoch}")


# --- ensembles ----------------------------------------------------------------

class LengthMismatch(ValidationError):
    pass


class UnsupportedK(ValidationError):
    pass


class EmptyRuns(ValidationError):
    pass


class SweepRunFailed(ToolkitError, RuntimeError):
    """One embedding size of a dimension sweep failed; ``__cause__`` says why."""

    def __init__(self, embed_dim: int, cause: BaseException):
        self.embed_dim = embed_dim
        self.cause = cause
        super().__init__(
            f"dimension-sweep run failed at embed_dim={embed_dim}: "
            f"{type(cause).__name__}: {cause}"
        )


# --- metrics ------------------------------------------------------------------

class NonSquare(ValidationError):
    pass


class TooFewSamples(ToolkitError):
    pass


class IncompleteGrid(ToolkitError):
    def __init__(self, method: str, cell: str):
        self.method = method
        self.cell = cell
        super().__init__(f"method {method!r} has no score for cell {cell}")


# --- configuration ------------------------------------------------------------

class ConfigError(ValidationError):
    pass
