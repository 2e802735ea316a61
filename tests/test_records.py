"""The five record types are immutable value classes: construction,
equality, hash, repr, immutability, pattern matching, pickling and
copying all follow their fields."""

import copy
import pickle

import pytest

from sortnet import (
    Connector,
    Counterexample,
    Network,
    NetworkStats,
    VerificationReport,
)
from sortnet.errors import InvalidConnector, WidthMismatch

LAYER = Connector(3, (1, 0, 2), (True, True, False))
CE = Counterexample((True, False), (False, True))

# Per type: the field names, the values of one record, the values of an
# unequal record of that type, and the repr of the first.
CASES = {
    Connector: (
        ("width", "link", "flip"),
        (3, (1, 0, 2), (True, True, False)),
        (3, (0, 2, 1), (False, False, False)),
        "Connector(width=3, link=(1, 0, 2), flip=(True, True, False))",
    ),
    Network: (
        ("width", "layers"),
        (3, (LAYER,)),
        (3, (LAYER, LAYER)),
        "Network(width=3, layers=(Connector(width=3, link=(1, 0, 2),"
        " flip=(True, True, False)),))",
    ),
    Counterexample: (
        ("input", "output"),
        ((True, False), (False, True)),
        ((True, False), (True, False)),
        "Counterexample(input=(True, False), output=(False, True))",
    ),
    VerificationReport: (
        ("width", "inputs_checked", "mode", "is_sorting", "counterexample",
         "seed", "trials"),
        (2, 2, "sampled", False, CE, 5, 10),
        (2, 2, "sampled", False, CE, 5, 11),
        "VerificationReport(width=2, inputs_checked=2, mode='sampled',"
        " is_sorting=False, counterexample=Counterexample(input=(True, False),"
        " output=(False, True)), seed=5, trials=10)",
    ),
    NetworkStats: (
        ("layers", "comparators"),
        (4, 6),
        (4, 5),
        "NetworkStats(layers=4, comparators=6)",
    ),
}

records = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@records
def test_positional_and_keyword_construction_agree(cls):
    names, values, _, _ = CASES[cls]
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values


def test_verification_report_defaults():
    report = VerificationReport(3, 8, "exhaustive", True)
    assert (report.counterexample, report.seed, report.trials) == (None, None, None)
    assert repr(report) == (
        "VerificationReport(width=3, inputs_checked=8, mode='exhaustive',"
        " is_sorting=True, counterexample=None, seed=None, trials=None)"
    )


@records
def test_equality_and_hash_follow_the_fields(cls):
    _, values, other, _ = CASES[cls]
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    assert record != cls(*other)
    assert hash(record) == hash(cls(*values)) == hash(values)


@records
def test_a_difference_in_any_one_field_makes_records_unequal(cls):
    # The variants skip the constructor, so a connector may differ in its
    # width alone; a fresh object equals nothing else.
    names, values, _, _ = CASES[cls]
    record = cls(*values)
    for name in names:
        variant = _forged(cls, **{**dict(zip(names, values)), name: object()})
        assert record != variant
        assert variant != record


@records
def test_records_of_another_class_never_compare_equal(cls):
    _, values, _, _ = CASES[cls]
    record = cls(*values)
    assert record != values
    for other_cls, (_, other_values, _, _) in CASES.items():
        if other_cls is not cls:
            assert record.__eq__(other_cls(*other_values)) is NotImplemented
            assert record != other_cls(*other_values)


@records
def test_repr(cls):
    _, values, _, text = CASES[cls]
    assert repr(cls(*values)) == text


@records
def test_records_are_immutable(cls):
    names, values, _, _ = CASES[cls]
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values)


@records
def test_match_args_name_the_fields(cls):
    names, values, _, _ = CASES[cls]
    assert cls.__match_args__ == names
    match cls(*values):
        case cls(a, b):
            assert (a, b) == values[:2]
        case _:
            pytest.fail(f"{cls.__name__} did not match its own class pattern")


@records
@pytest.mark.parametrize(
    "clone",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(cls, clone):
    _, values, _, _ = CASES[cls]
    record = cls(*values)
    twin = clone(record)
    assert type(twin) is cls
    assert twin == record
    assert hash(twin) == hash(record)


def _forged(cls, **fields):
    """An instance that skipped the constructor's check."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def test_loading_a_pickle_rechecks_the_record():
    bad_link = _forged(Connector, width=3, link=(1, 2, 0), flip=(False,) * 3)
    with pytest.raises(InvalidConnector):
        pickle.loads(pickle.dumps(bad_link))
    with pytest.raises(InvalidConnector):
        copy.deepcopy(bad_link)
    bad_width = _forged(Network, width=2, layers=(LAYER,))
    with pytest.raises(WidthMismatch):
        pickle.loads(pickle.dumps(bad_width))


def test_records_keep_tuples_of_what_they_checked():
    link, flip = [1, 0, 3, 2], [False] * 4
    layer = Connector(4, link, flip)
    twin = Connector(4, tuple(link), tuple(flip))
    assert layer == twin and hash(layer) == hash(twin)
    link[0] = 9
    flip[1] = True
    assert layer.link == (1, 0, 3, 2) and layer.flip == (False,) * 4
    joined = Network(4, [layer]) + Network(4, (layer,))
    assert joined.layers == (layer, layer)
    # A tuple is stored as given, so shared line numbers stay shared.
    assert Connector(4, twin.link, twin.flip).link is twin.link


class PlainConnector(Connector):
    """A record subclass that adds no field; module level, so it pickles."""

    __slots__ = ()


def test_a_subclass_that_adds_no_field_keeps_its_parents():
    record = PlainConnector(3, (1, 0, 2), (True, True, False))
    assert (record.width, record.link, record.flip) == CASES[Connector][1]
    assert repr(record) == CASES[Connector][3].replace("Connector", "PlainConnector")
    assert PlainConnector.__match_args__ == ("width", "link", "flip")
    with pytest.raises(InvalidConnector):
        PlainConnector(2, (1, 0), (True, False))
    assert record != LAYER and LAYER != record
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is PlainConnector and clone == record
