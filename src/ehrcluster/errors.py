"""Exception types shared across the toolkit.

Every error raised on a violated operation contract derives from
``ToolkitError``. Input-shaped problems (bad config, bad files, bad label
vectors, data a step cannot take) further derive from ``ValidationError``,
so callers (notably the CLI) can tell them apart from genuine runtime failures.
"""


def _restore(cls, args):
    """The error ``cls`` holding ``args`` as it was raised, without rerunning its ``__init__``."""
    return cls.__new__(cls, *args)


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors.

    A pickle round trip (as from a worker process) keeps the type, the message
    and every attribute, also of a subclass whose ``__init__`` formats the
    message from other arguments.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args), self.__dict__


class ValidationError(ToolkitError):
    """The input was rejected before any computation could fail on it."""


# --- data loading / preprocessing -------------------------------------------

class MissingColumn(ValidationError):
    def __init__(self, path, name: str):
        self.name = name
        super().__init__(f"{path}: required column {name!r} not found in the header")


class NonNumericCell(ValidationError):
    def __init__(self, path, row: int, col: str, expected: str = "a finite number"):
        self.row = row
        self.col = col
        super().__init__(f"{path}: data row {row}: column {col!r} is not {expected}")


class EmptyFile(ValidationError):
    pass


class AllSamplesRemoved(ValidationError):
    pass


class AllMissingFeature(ValidationError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"feature {name!r} has no observed values to impute from")


class InsufficientClassSamples(ValidationError):
    def __init__(self, cls: int, needed: int, available: int):
        self.cls = cls
        self.needed = needed
        self.available = available
        super().__init__(
            f"class {cls}: need {needed} samples but only {available} available"
        )


# --- numerics (clustering, autoencoder) --------------------------------------

class DegenerateInput(ValidationError):
    """Data or settings a fit refuses before computing: too few samples, k < 2, overflow."""


class DimensionMismatch(ToolkitError):
    pass


class SingularCovariance(ToolkitError):
    pass


class InvalidDimension(ValidationError):
    """A layer size, training setting or variant the caller or config chose is out of range."""


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


class IncompleteGrid(ValidationError):
    """Score reports that miss or repeat a (method, cohort) pair, so they cannot be ranked."""


# --- configuration ------------------------------------------------------------

class ConfigError(ValidationError):
    pass

