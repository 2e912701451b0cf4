"""Every error type survives a pickle round trip, which is how a batch
worker hands a failure back to the process that forked it."""

import inspect
import pickle

import pytest

from sparseview import errors

ERROR_TYPES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if cls.__module__ == errors.__name__ and issubclass(cls, (errors.SparseViewError, errors.InvariantViolation))
]

# a sample value per annotated parameter type; an unannotated one takes a list
SAMPLE_ARGS = {"int": 5, "str": "scene/matches.txt:3"}


def sample_error(cls):
    if not inspect.isfunction(cls.__init__):  # Exception's own (*args)
        return cls("a message")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]  # after self
    return cls(*(SAMPLE_ARGS.get(p.annotation, [3, 1]) for p in params))


def test_every_error_type_is_found():
    assert len(ERROR_TYPES) >= 20
    assert {errors.MalformedLine, errors.DisconnectedTerminals, errors.InvariantViolation} <= set(ERROR_TYPES)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    err = sample_error(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_custom_messages_come_back_whole():
    for err, message in [
        (errors.DisconnectedTerminals([3, 1]), "terminals not reachable: [1, 3]"),
        (errors.UnknownNode(5), "unknown node 5"),
        (errors.MalformedLine(3, "bad", "f.txt"), "f.txt:3: bad"),
    ]:
        assert str(pickle.loads(pickle.dumps(err))) == message
