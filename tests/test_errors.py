"""Package exceptions: every class survives a pickle round trip."""

import inspect
import pickle

import pytest

from sparsesde import errors

# constructor arguments of the classes whose __init__ takes more than a message
ARGS = {
    errors.SimulationDivergedError: (12, 3),
    errors.CsvParseError: (7, "expected 3 columns"),
    errors.SparseWindowError: (0.25, "2 points in the window"),
    errors.SparseQuadratureError: (0.5, 3),
}
CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.SparseSdeError)
]


def test_classes_found():
    assert len(CLASSES) >= 12 and set(ARGS) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("protocol", [0, pickle.DEFAULT_PROTOCOL])
def test_round_trip_keeps_type_message_and_attributes(cls, protocol):
    exc = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)

