"""The immutable records: construction, repr, equality, immutability and validation."""

import copy
import pickle

import numpy as np
import pytest

from focklab import (
    BeamSplitterSpec,
    CHSHSetting,
    LHVObservable,
    Mode,
    Observable,
    OutcomeDistribution,
    Partition,
    ProcessResult,
    SSRReport,
    SectorDecomposition,
    SpinOps,
    WitnessVerdict,
    bosons,
    number_op,
    spectral,
)
from focklab.cli import run_experiment
from focklab.dynamics import PropagationReport
from focklab.fock import _Record
from focklab.ssr import Sector, SeparableSSRReport
from focklab.witnesses import GHZParityReport, spin_ops

_OBS = spectral(number_op(bosons(1, 2)))
_SPINS = spin_ops(bosons(2, 1), 0, 1)
_STATE = bosons(1, 1).vacuum()
_REPORT = SSRReport(0.0, True, 1e-10)
_SECTOR = Sector(1, 0.5, np.array([1, 2]), np.eye(2) / 2)

# (class, field names in order, one valid value per field)
RECORDS = [
    (Mode, ("label", "cutoff", "statistics"), ("a", 3, "fermi")),
    (Partition, ("subsystems",), ((("A", (0,)), ("B", (1, 2))),)),
    (Observable, ("operator", "eigenvalues", "blocks", "outcomes"),
     (_OBS.operator, _OBS.eigenvalues, _OBS.blocks, _OBS.outcomes)),
    (OutcomeDistribution, ("outcomes",), (((0.0, 0.25), (1.0, 0.75)),)),
    (SSRReport, ("residual", "compliant", "tol"), (0.5, False, 1e-10)),
    (Sector, ("total", "weight", "indices", "block"),
     (1, 0.5, np.array([1, 2]), np.eye(2) / 2)),
    (SectorDecomposition, ("sectors",), ((_SECTOR,),)),
    (SeparableSSRReport,
     ("local_reports", "all_local_compliant", "global_report", "fixed_probability_caveat"),
     (((0, "A", _REPORT),), True, _REPORT, False)),
    (SpinOps, ("sx", "sy", "sz"), (_SPINS.sx, _SPINS.sy, _SPINS.sz)),
    (CHSHSetting, ("a1", "a2", "b1", "b2"),
     ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, 0.0))),
    (WitnessVerdict, ("lhs", "rhs", "violated", "margin"), (1.0, 0.5, False, -0.5)),
    (GHZParityReport, ("residuals", "passed", "tol"), ({"xxx": 0.0}, True, 1e-12)),
    (BeamSplitterSpec, ("mode_pairs", "r", "t", "convention"),
     (((0, 2), (1, 3)), 0.6, 0.8, "minus_i")),
    (ProcessResult, ("stages", "final_state", "quantities"),
     ((("input", _STATE),), _STATE, {"p": 0.5})),
    (PropagationReport, ("conserving_residual", "all_local_compliant", "times",
                         "global_residuals", "compliant_at_all_times", "tol"),
     (0.0, True, (0.5, 1.0), (0.0, 0.0), True, 1e-10)),
    (LHVObservable, ("values", "pmf"), ((1.0, -1.0), np.array([[0.25, 0.75]]))),
]
IDENTITY = (Observable, Sector)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


def _holds(record, names, values):
    """Whether each field of ``record`` is its value; ``Partition`` keeps an equal copy."""
    return all(got is want or type(record) is Partition and got == want
               for got, want in zip(_fields(record, names), values))


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_a_record_is_built_by_position_or_by_keyword(cls, names, values):
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert type(record) is cls and _holds(record, names, values)


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_the_list_holds_every_record_class():
    # a record class left out of RECORDS would skip every test here
    loaded = {cls for cls in _subclasses(_Record) if cls.__module__.startswith("focklab.")}
    assert loaded == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_a_record_refuses_a_missing_unknown_repeated_or_surplus_field(cls, names, values):
    with pytest.raises(TypeError, match=f"missing .*{names[0]}"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=0)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="takes"):
        cls(*values, values[-1])


@pytest.mark.parametrize("cls", [cls for cls, _, _ in RECORDS if cls is not Partition],
                         ids=[i for i in IDS if i != "Partition"])
def test_only_the_base_binds_the_fields(cls):
    # by identity: a tracer that wraps and then restores ``Observable.__init__``
    # leaves the base's function in the class's own namespace
    assert cls.__init__ is _Record.__init__


def test_the_defaulted_fields_take_their_defaults():
    assert Mode("a", 3).statistics == "bose"
    assert Mode(label="a", cutoff=3) == Mode("a", 3, "bose")
    assert BeamSplitterSpec(((0, 1),), 0.6, 0.8).convention == "real-rotation"
    assert BeamSplitterSpec(mode_pairs=((0, 1),), r=0.6, t=0.8) == \
        BeamSplitterSpec(((0, 1),), 0.6, 0.8, "real-rotation")


def test_the_repr_names_each_field_in_order():
    assert repr(Mode("a", 3)) == "Mode(label='a', cutoff=3, statistics='bose')"
    assert repr(SSRReport(residual=0.0, compliant=True, tol=1e-10)) == \
        "SSRReport(residual=0.0, compliant=True, tol=1e-10)"
    assert repr(WitnessVerdict(1.0, 0.5, True, 0.5)) == \
        "WitnessVerdict(lhs=1.0, rhs=0.5, violated=True, margin=0.5)"


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_every_repr_is_the_class_and_its_fields(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, values", [r for r in RECORDS if r[0] not in IDENTITY],
                         ids=[i for r, i in zip(RECORDS, IDS) if r[0] not in IDENTITY])
def test_a_value_record_compares_and_hashes_by_its_fields(cls, names, values):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert a != values and a != object()
    if _hashable(values):
        assert hash(a) == hash(b)
    else:     # a dict or an array field, as for a frozen dataclass
        with pytest.raises(TypeError):
            hash(a)


def test_records_that_differ_in_one_field_are_unequal():
    assert Mode("a", 3) != Mode("a", 4)
    assert SSRReport(0.0, True, 1e-10) != SSRReport(0.0, True, 1e-9)
    assert WitnessVerdict(1.0, 0.5, True, 0.5) != WitnessVerdict(1.0, 0.5, False, 0.5)
    assert len({Mode("a", 3), Mode("a", 3), Mode("b", 3)}) == 2


@pytest.mark.parametrize("cls, names, values", [r for r in RECORDS if r[0] in IDENTITY],
                         ids=[c.__name__ for c in IDENTITY])
def test_an_array_record_compares_and_hashes_by_identity(cls, names, values):
    a, b = cls(*values), cls(*values)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_a_field_can_be_neither_assigned_nor_deleted(cls, names, values):
    record = cls(*values)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _holds(record, names, values) and not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_a_copied_or_pickled_record_keeps_its_fields(cls, names, values):
    # a copy is rebuilt from the same field objects; a pickle from copies of them
    record = cls(*values)
    assert _holds(copy.copy(record), names, values)
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


@pytest.mark.parametrize("build, message", [
    (lambda: CHSHSetting((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0), (1.0, 0.0, 0.0)),
     "b1 is not a unit 3-vector"),
    (lambda: CHSHSetting((1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
     "a1 is not a unit 3-vector"),
    (lambda: CHSHSetting((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                         (np.nan, 0.0, 0.0)), "b2 is not a unit 3-vector"),
    (lambda: BeamSplitterSpec(((0, 1),), 0.6, 0.6), "r\\^2 \\+ t\\^2 must equal 1"),
    (lambda: BeamSplitterSpec(((0, 0),), 0.6, 0.8), "two distinct mode indices"),
    (lambda: BeamSplitterSpec(((0, 1),), 0.6, 0.8, "other"), "unknown convention"),
    (lambda: OutcomeDistribution(((0.0, -0.5), (1.0, 1.5))), "negative outcome probability"),
    (lambda: OutcomeDistribution(((0.0, 0.5), (1.0, 0.25))), "do not sum to 1"),
    (lambda: OutcomeDistribution(((0.0, np.nan), (1.0, 1.0))), "do not sum to 1"),
    (lambda: Observable(_OBS.operator, _OBS.eigenvalues[:2], _OBS.blocks, _OBS.outcomes),
     "do not resolve 3 positions into 2 outcomes"),
    (lambda: Observable(_OBS.operator, (0.0, 1.0, 5.0), _OBS.blocks, _OBS.outcomes),
     "does not reconstruct the operator"),
])
def test_a_record_still_validates_its_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_check_is_the_dict_the_report_emits():
    check = run_experiment("ghz_parity")["checks"][0]
    assert type(check) is dict
    assert list(check) == ["name", "expected", "actual", "tolerance", "passed"]
