"""The immutable records: construction, repr, equality, immutability and validation."""

import copy
import pickle

import numpy as np
import pytest

from focklab import (
    BeamSplitterSpec,
    CHSHSetting,
    DensityOperator,
    DiscreteLHVModel,
    LHVObservable,
    Mode,
    ModeSystem,
    Observable,
    Operator,
    OutcomeDistribution,
    Partition,
    ProcessResult,
    PureState,
    SSRReport,
    SectorDecomposition,
    SeparableMixture,
    SpinOps,
    WitnessVerdict,
    atom_molecule_process,
    bosons,
    ghz,
    ghz_parity,
    lhv_joint,
    number_op,
    qubits,
    spectral,
)
from focklab import measurement
from focklab.cli import run_experiment
from focklab.dynamics import PropagationReport
from focklab.fock import _Record
from focklab.sampling import random_qubit_pair_mixture
from focklab.ssr import Sector, SeparableSSRReport
from focklab.witnesses import GHZParityReport, spin_ops

_OBS = spectral(number_op(bosons(1, 2)))
_SPINS = spin_ops(bosons(2, 1), 0, 1)
_STATE = bosons(1, 1).vacuum()
_REPORT = SSRReport(0.0, True, 1e-10)
_SECTOR = Sector(1, 0.5, np.array([1, 2]), np.eye(2) / 2)
_PAIR = Partition([("A", (0,)), ("B", (1,))])
_FACTORS = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
_LHV_A = LHVObservable((1.0, -1.0), np.array([[1.0, 0.0], [0.25, 0.75]]))

# (class, the constructor's arguments in order, one valid value per argument);
# each is a field, and an Observable's operator is its only argument
RECORDS = [
    (Mode, ("label", "cutoff", "statistics"), ("a", 3, "fermi")),
    (Partition, ("subsystems",), ((("A", (0,)), ("B", (1, 2))),)),
    (Observable, ("operator",), (_OBS.operator,)),
    (Operator, ("system", "matrix"), (_STATE.system, np.array([[0.0, 1.0], [1.0, 0.0]]))),
    (PureState, ("system", "amplitudes"), (_STATE.system, np.array([0.6, 0.8j]))),
    (DensityOperator, ("system", "matrix"), (_STATE.system, np.diag([0.25, 0.75]))),
    (SeparableMixture, ("system", "partition", "probabilities", "factors"),
     (qubits(2), _PAIR, np.array([0.5, 0.5]), {"A": _FACTORS, "B": _FACTORS[::-1]})),
    (DiscreteLHVModel, ("weights", "observables"), (np.array([0.5, 0.5]), {"A": _LHV_A})),
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
IDENTITY = (Observable, Sector, Operator, PureState, DensityOperator, SeparableMixture,
            DiscreteLHVModel)
# records whose own __init__ checks the defining input, then binds through the base
BUILT = (Partition, Observable, Operator, PureState, DensityOperator, SeparableMixture,
         DiscreteLHVModel)
# records that hold a checked or read-only copy of some of their input, not
# the input itself: every record holds a dict field as a read-only copy
COPIES = (Partition, Operator, PureState, DensityOperator, SeparableMixture, DiscreteLHVModel,
          GHZParityReport, ProcessResult)
# (class, field) of each record with a dict field
DICT_FIELDS = [(SeparableMixture, "factors"), (DiscreteLHVModel, "observables"),
               (GHZParityReport, "residuals"), (ProcessResult, "quantities")]
# records with a repr of their own (the operators' and states' dim), or, for an
# Observable, with fields that are not its constructor's arguments
OWN_REPR = (Observable, Operator, PureState, DensityOperator)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


def _same(got, want):
    """Whether a kept copy equals its input: arrays entry by entry, a dict entry by
    entry, and a record kept as a copy of its fields (a model's observable) field
    by field."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    if isinstance(want, _Record) and got is not want:
        return type(got) is type(want) and all(
            _same(getattr(got, name), getattr(want, name)) for name in want.__slots__)
    return got is want or got == want


def _holds(record, names, values):
    """Whether each field of ``record`` is its value, or an equal copy of it for a
    record that keeps copies."""
    return all(got is want or type(record) in COPIES and _same(got, want)
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


@pytest.mark.parametrize("cls", [cls for cls, _, _ in RECORDS if cls not in BUILT],
                         ids=[cls.__name__ for cls, _, _ in RECORDS if cls not in BUILT])
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


@pytest.mark.parametrize("cls, names, values", [r for r in RECORDS if r[0] not in OWN_REPR],
                         ids=[i for r, i in zip(RECORDS, IDS) if r[0] not in OWN_REPR])
def test_every_repr_is_the_class_and_its_fields(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_an_operator_or_a_state_shows_its_dim_and_an_observable_its_resolution():
    system = _STATE.system
    assert repr(Operator(system, np.eye(2))) == "Operator(dim=2)"
    assert repr(PureState(system, [1.0, 0.0])) == "PureState(dim=2)"
    assert repr(DensityOperator(system, np.diag([1.0, 0.0]))) == "DensityOperator(dim=2)"
    obs = Observable(_OBS.operator)
    assert repr(obs) == (f"Observable(operator=Operator(dim=3), eigenvalues=(0.0, 1.0, 2.0), "
                         f"blocks={obs.blocks!r}, outcomes={obs.outcomes!r})")


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


_PAIRS = r"^a partition is a sequence of \(name, indices\) pairs"


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
    (lambda: Observable(Operator(_STATE.system, [[0.0, 1.0], [0.0, 0.0]])),
     "not Hermitian within"),
    (lambda: Operator(_STATE.system, np.eye(3)), "does not match dim 2"),
    (lambda: PureState(_STATE.system, [1.0, 1.0]), "not normalised"),
    (lambda: DensityOperator(_STATE.system, np.eye(2)), "trace"),
    (lambda: SeparableMixture(qubits(2), _PAIR, [0.5, 0.6], {"A": _FACTORS, "B": _FACTORS}),
     "sum to 1"),
    (lambda: DiscreteLHVModel([0.5, 0.6], {"A": _LHV_A}), "must be a distribution"),
    # a mapping, or an entry that is not a (name, indices) pair, names the one form
    (lambda: Partition({"A": (0,), "B": (1,)}), _PAIRS + ", not a mapping"),
    (lambda: Partition({"AB": (0,), "CD": (1,)}), _PAIRS + ", not a mapping"),
    (lambda: Partition(["AB", ("C", (1,))]), _PAIRS + ", got the entry 'AB'$"),
    (lambda: Partition([("A", (0,), "B")]), _PAIRS + r", got the entry \('A', \(0,\), 'B'\)$"),
])
def test_a_record_still_validates_its_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_an_observable_still_refuses_a_resolution_that_does_not_reconstruct(monkeypatch):
    # the solve gives eigenvalues (0, 1, 5) for the number operator's (0, 1, 2)
    solve = measurement._hermitian_blocks

    def spoiled_solve(op):
        (idx, evals, vecs), = solve(op)
        return [(idx, evals + np.array([[0.0, 0.0, 3.0]]), vecs)]

    monkeypatch.setattr(measurement, "_hermitian_blocks", spoiled_solve)
    with pytest.raises(ValueError, match="does not reconstruct the operator"):
        Observable(_OBS.operator)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda obs: pickle.loads(pickle.dumps(obs))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_or_pickled_observable_resolves_its_operator_again(clone):
    obs = spectral(number_op(bosons(2, 7)))     # dim 64: 64 components of one position
    again = clone(obs)
    assert again is not obs and again.eigenvalues == obs.eigenvalues
    assert np.array_equal(again.operator.matrix, obs.operator.matrix)
    assert np.array_equal(again.outcomes, obs.outcomes)
    assert len(again.blocks) == len(obs.blocks)
    for triple, before in zip(again.blocks, obs.blocks):
        for arr, was in zip(triple, before):
            assert np.array_equal(arr, was) and not np.shares_memory(arr, was)
            assert not arr.flags.writeable


def _refuses_every_change(held):
    key = next(iter(held))
    before = dict(held)
    for change in (lambda: held.__setitem__(key, 0), lambda: held.__delitem__(key),
                   lambda: held.update(extra=0), lambda: held.pop(key), held.popitem,
                   held.clear, lambda: held.setdefault("extra", 0),
                   lambda: held.__ior__({"extra": 0})):
        with pytest.raises(TypeError, match="cannot change a record's dict: it is read-only"):
            change()
    return held == before


@pytest.mark.parametrize("cls, field", DICT_FIELDS, ids=[cls.__name__ for cls, _ in DICT_FIELDS])
def test_a_dict_field_is_a_read_only_copy_and_copies_and_pickles_alike(cls, field):
    (names, values), = [(names, values) for c, names, values in RECORDS if c is cls]
    given = dict(values[names.index(field)])
    record = cls(**{**dict(zip(names, values)), field: given})
    given["extra"] = 0     # the caller's dict stays the caller's
    assert "extra" not in getattr(record, field)
    assert _refuses_every_change(getattr(record, field))
    clones = (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)))
    for again in (clone(record) for clone in clones):
        assert type(again) is cls and repr(again) == repr(record)
        assert _refuses_every_change(getattr(again, field))


def test_the_dict_fields_that_focklab_builds_are_read_only():
    mix = random_qubit_pair_mixture(np.random.default_rng(0))
    with pytest.raises(TypeError, match="read-only"):
        mix.factors["A"] = np.zeros((4, 2, 2))
    assert mix.summed().matrix.trace() == pytest.approx(1.0)
    assert _refuses_every_change(ghz_parity(ghz()).residuals)
    assert _refuses_every_change(atom_molecule_process(1, 1.0, 0.0).quantities)


def test_a_model_holds_a_read_only_copy_of_its_weights():
    weights = np.array([0.5, 0.5])
    model = DiscreteLHVModel(weights, {"A": _LHV_A})
    weights[0] = 7.0
    assert model.weights.tolist() == [0.5, 0.5] and not model.weights.flags.writeable


def test_a_model_holds_read_only_float_copies_of_its_pmfs():
    rows = np.array([[1, 0], [0, 1]])
    obs = LHVObservable((1.0, -1.0), rows)
    model = DiscreteLHVModel(np.array([1.0, 0.0]), {"A": obs})
    obs.pmf[0, 0] = 7
    assert lhv_joint(model, [("A", 0)]) == 1.0
    held = model.observables["A"].pmf
    assert held.dtype == float and held.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="read-only"):
        held[0, 0] = 7.0


def test_a_rebound_value_is_refused():
    rho = bosons(2, 2).vacuum().density()
    with pytest.raises(AttributeError, match="DensityOperator is immutable"):
        rho.matrix = 5 * np.eye(9)
    with pytest.raises(AttributeError, match="ModeSystem is immutable"):
        bosons(1, 1).dim = 99
    assert rho.matrix.trace() == 1.0


def test_a_mode_system_can_be_neither_assigned_nor_deleted_and_copies_rebuild_it():
    system = bosons(2, 2, total=2)
    for name in ModeSystem.__slots__ + ("extra",):
        with pytest.raises(AttributeError, match="ModeSystem is immutable"):
            setattr(system, name, 0)
        with pytest.raises(AttributeError, match="ModeSystem is immutable"):
            delattr(system, name)
    assert system.dim == 3 and not hasattr(system, "__dict__")
    for again in (copy.copy(system), copy.deepcopy(system), pickle.loads(pickle.dumps(system))):
        assert again is not system and again == system and hash(again) == hash(system)
        assert repr(again) == repr(system) == "ModeSystem(m0:2, m1:2, N=2, dim=3)"
        assert np.array_equal(again.occupancies, system.occupancies)


def test_a_deep_copy_of_spin_operators_copies_the_system_of_each():
    spins = copy.deepcopy(_SPINS)
    for op, was in zip((spins.sx, spins.sy, spins.sz), (_SPINS.sx, _SPINS.sy, _SPINS.sz)):
        assert op.system is not was.system and op.system == was.system
        assert np.array_equal(op.matrix, was.matrix)


def test_a_check_is_the_dict_the_report_emits():
    check = run_experiment("ghz_parity")["checks"][0]
    assert type(check) is dict
    assert list(check) == ["name", "expected", "actual", "tolerance", "passed"]
