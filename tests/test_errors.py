"""Every toolkit error survives a pickle round trip, as it must to leave a pool worker."""
import inspect
import pickle

import pytest

from ehrcluster import errors

ERRORS = [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.ToolkitError)
]

# a value for each constructor argument any error class takes
SAMPLES = {
    "path": "cohort.csv", "name": "age", "row": 3, "col": "age", "expected": "an integer",
    "cls": 1, "needed": 5, "available": 2, "epoch": 3, "embed_dim": 2,
    "cause": errors.NonFiniteLoss(4),
}


def sample(cls):
    init = next(c for c in cls.__mro__ if "__init__" in vars(c))
    if not issubclass(init, errors.ToolkitError):
        return cls("a message")
    params = list(inspect.signature(init.__init__).parameters)[1:]
    return cls(*(SAMPLES[p] for p in params))


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_message_and_fields(cls):
    exc = sample(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert {k: repr(v) for k, v in vars(back).items()} == {k: repr(v) for k, v in vars(exc).items()}
