"""The memo of values that a ModeSystem and hashable parameters determine
(``fock._MEMO``): a repeated run solves nothing and reports the same bits, the
memo counts exactly the bytes of the arrays it holds and stays within its
budget, keeps nothing a producer raised on, and gives threads that produce one
value at once the same value; no Operator keeps anything.
"""

import collections
import copy
import gc
import json
import os
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from focklab import Observable, bosons, fermions, number_op, qubits, spectral
from focklab import fock
from focklab.fock import ladder_sum
from focklab.cli import run_experiment, run_scenario
from focklab.dynamics import BeamSplitterSpec, _atom_molecule_hamiltonian, _splitter_blocks
from focklab.witnesses import pauli_ops, spin_ops


def _solves(monkeypatch):
    """The ``vectors`` flag of every later ``eigh_blocks`` call: the physicality
    checks ask for eigenvalues alone, the solves of operators for eigenvectors."""
    calls = []
    solve = fock.eigh_blocks
    monkeypatch.setattr(fock, "eigh_blocks",
                        lambda m, vectors: calls.append(vectors) or solve(m, vectors))
    return calls


def _bits(report):
    return repr({k: v for k, v in report.items() if k != "wall_time_s"})


# extraction_experiment and beam_splitter (the interferometer's) use the kept
# splitter solve; the spin operators of spin_epr, the number operators of the
# measurement identities and the atom-molecule H are not kept, so their
# repeated run solves as often as the first
_UNKEPT = ("spin_epr_bound", "measurement_identities", "atom_molecule")

_SPEC = BeamSplitterSpec(mode_pairs=((0, 1),), r=0.6, t=0.8)


def _splitter_solve(n_modes, cutoff, labels=None):
    """The kept solve of the splitter Hamiltonian of modes 0 and 1 on
    ``bosons(n_modes, cutoff, labels)``."""
    return _splitter_blocks(bosons(n_modes, cutoff, labels), _SPEC)


def _splitter_h(n_modes, cutoff):
    """The splitter Hamiltonian of modes 0 and 1 on ``bosons(n_modes, cutoff)``,
    built here as the splitter builds it: an operator of the caller's own."""
    system = bosons(n_modes, cutoff)
    return 1j * ladder_sum(system, [(1, ((1, True), (0, False))), (-1, ((0, True), (1, False)))])


@pytest.mark.parametrize("name", ["spin_epr_bound", "extraction", "vacuum_interferometer",
                                  "measurement_identities", "atom_molecule"])
def test_a_repeated_run_solves_nothing_and_reports_the_same_bits(monkeypatch, name):
    fock._MEMO.clear()
    solves = _solves(monkeypatch)
    cold = run_experiment(name, seed=3)
    assert True in solves
    again = solves.count(True) if name in _UNKEPT else 0
    solves.clear()
    warm = run_experiment(name, seed=3)
    assert cold["overall_pass"] and solves.count(True) == again
    assert _bits(warm) == _bits(cold)


# one scenario per kept producer: the systems of qubits and bosons (the clock
# oracle's) and the splitter Hamiltonian
@pytest.mark.parametrize("name", ["chsh_separable_bound", "phase_clock", "extraction"])
def test_repeated_runs_of_a_kept_producers_scenario_build_and_solve_nothing(monkeypatch, name):
    fock._MEMO.clear()
    built = []
    init = fock.ModeSystem.__init__
    monkeypatch.setattr(fock.ModeSystem, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(self, *args,
                                                                                 **kwargs))
    solves = _solves(monkeypatch)
    run_experiment(name, seed=1)
    # the clock oracle's H = omega N is an operator of its own on every call
    fresh = solves.count(True) if name == "phase_clock" else 0
    for seed in (2, 3):
        built.clear()
        solves.clear()
        assert run_experiment(name, seed=seed)["overall_pass"]
        assert built == [] and solves.count(True) == fresh


def test_each_producer_keeps_one_value_per_key():
    fock._MEMO.clear()
    system = bosons(4, 1, labels=("a", "b", "c", "d"))
    assert bosons(4, 1, labels=["a", "b", "c", "d"]) is system
    assert qubits(3) is qubits(3) and fermions(2, total=1) is fermions(2, total=1)
    spec = BeamSplitterSpec(mode_pairs=[[0, 2], [1, 3]], r=0.6, t=0.8)
    assert _splitter_blocks(system, spec) is _splitter_blocks(
        system, BeamSplitterSpec(mode_pairs=((0, 2), (1, 3)), r=0.8, t=0.6))
    # the number, spin and Pauli operators and the atom-molecule H are not kept:
    # built on each call
    assert number_op(system) is not number_op(system)
    assert spin_ops(system, 0, 1).sx is not spin_ops(system, 0, 1).sx
    assert pauli_ops(system, 2)[2] is not pauli_ops(system, 2)[2]
    assert _atom_molecule_hamiltonian(2, 1.0)[1] is not _atom_molecule_hamiltonian(2, 1.0)[1]
    # no key holds a float, a bool, a numpy scalar, bytes or a list, also inside a tuple
    assert fock._key("k", 1, (2, "a"), None, system) == ("k", 1, (2, "a"), None, system)
    for part in (1.0, True, np.int64(1), b"", [1], (1, 2.0), ((1,), [2])):
        assert fock._key("k", part) is None
    # a numpy integer is not keyed: an equal system, built afresh
    assert bosons(np.int64(4), np.int64(1), labels="abcd") == system
    assert bosons(4, np.int64(1), labels="abcd") is not system


def test_spectral_resolves_every_operator_afresh():
    fock._MEMO.clear()
    blocks = _splitter_solve(2, 3)
    system = bosons(2, 3)
    ops = (_splitter_h(2, 3), number_op(system), spin_ops(system, 0, 1).sx,
           pauli_ops(qubits(2), 0)[0])
    for op in ops:
        obs = spectral(op)
        again = spectral(op)
        assert again is not obs and again.eigenvalues == obs.eigenvalues
        assert Observable(op) is not obs
        for triple, held in zip(again.blocks, obs.blocks):
            for arr, was in zip(triple, held):
                assert np.array_equal(arr, was) and not np.shares_memory(arr, was)
    # the splitter's Observable holds its own solve, not the one the memo keeps
    for triple, kept in zip(spectral(ops[0]).blocks, blocks):
        assert not any(np.shares_memory(arr, was) for arr, was in zip(triple, kept))
    assert _splitter_solve(2, 3) is blocks


def test_an_operator_the_memo_does_not_hold_solves_again_on_each_call(monkeypatch):
    fock._MEMO.clear()
    solves = _solves(monkeypatch)
    # the splitter's own H, two of unkept producers, and one of dim 324
    for op in (_splitter_h(2, 3), pauli_ops(qubits(2), 0)[0], number_op(bosons(2, 3)),
               _splitter_h(2, 17)):
        for call in (fock._hermitian_blocks, spectral):
            solves.clear()
            assert call(op) is not call(op)
            assert solves == [True, True]
    # the splitter's solve is kept: one solve for every later call
    solves.clear()
    blocks = _splitter_solve(2, 3)
    assert _splitter_solve(2, 3) is blocks and solves == [True]


def test_no_operator_carries_a_slot_beyond_its_fields():
    fock._MEMO.clear()
    blocks = _splitter_solve(2, 2)
    op = _splitter_h(2, 2)
    assert fock.Operator.__mro__ == (fock.Operator, fock._Record, object)
    assert fock.Operator.__slots__ == ("system", "matrix")
    for other in (op, copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
        assert other.matrix.tobytes() == op.matrix.tobytes()
        assert not hasattr(other, "_kept") and not hasattr(other, "__dict__")
        with pytest.raises(AttributeError):
            other._kept = {}
    # the record shows and rebuilds from its two fields alone
    assert op.__reduce__()[1] == (op.system, op.matrix) and repr(op) == "Operator(dim=9)"
    assert _splitter_solve(2, 2) is blocks


def _scenario_pass():
    """One run of each checked-in scenario, in process."""
    folder = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scenarios")
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name)) as fh:
            assert run_scenario(json.load(fh))["overall_pass"], name


def _numpy_bytes():
    """The bytes of numpy array memory that ``tracemalloc`` traces now."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_the_counted_bytes_bound_what_the_kept_solves_allocate():
    fock._MEMO.clear()
    _scenario_pass()     # fills every index cache, which a second pass only reads
    fock._MEMO.clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = _numpy_bytes()
        _scenario_pass()
        gc.collect()
        kept = _numpy_bytes() - base
    finally:
        tracemalloc.stop()
    # the systems and splitter solves a pass leaves, each array's memory once
    assert collections.Counter(key[0] for key in fock._MEMO._entries) == {"system": 13,
                                                                           "splitter": 4}
    assert 0 < kept <= fock._MEMO.nbytes and _accounted()


def test_a_warm_pass_of_the_scenarios_evicts_nothing():
    fock._MEMO.clear()
    _scenario_pass()
    kept = dict(fock._MEMO._entries)
    _scenario_pass()
    assert fock._MEMO._entries.keys() == kept.keys()
    assert all(fock._MEMO._entries[key][0] is value for key, (value, _) in kept.items())
    assert len(kept) == 17 and _accounted()


def _exact_bytes(entry):
    """The bytes of the memory that a memo entry's key and value reach, found by
    ``gc.get_referents`` (types aside) and each array's ``base``: every array that
    owns its memory counts its bytes once."""
    seen, owners, todo = set(), {}, [entry]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is None:
                owners[id(obj)] = obj.nbytes
            else:
                todo.append(obj.base)
        else:
            todo += gc.get_referents(obj)
    return sum(owners.values())


def _accounted():
    """Whether each entry counts exactly the array bytes its key and value hold, and
    the memo's byte count is their sum and within budget."""
    memo = fock._MEMO
    counts = [n for _, n in memo._entries.values()]
    exact = [_exact_bytes((key, value)) for key, (value, _) in memo._entries.items()]
    return counts == exact and memo.nbytes == sum(counts) <= fock._MEMO_BYTES


def test_filled_with_many_systems_the_memo_never_holds_more_than_its_budget():
    fock._MEMO.clear()
    first = _splitter_solve(2, 1)
    # dims 4 up to 1024, then eleven more systems of dim 1024, each with its
    # splitter solve: about 390 KiB an entry at dim 1024, far past the 4 MiB
    # budget, so early entries are evicted
    for cutoff in range(1, 32):
        _splitter_solve(2, cutoff)
        assert _accounted(), cutoff
    for i in range(11):
        _splitter_solve(2, 31, labels=(f"a{i}", f"b{i}"))
        assert _accounted(), i
    assert fock._MEMO.nbytes > fock._MEMO_BYTES // 2
    assert len(fock._MEMO._entries) < 2 * 42
    # the earliest solve was evicted: an equal one is solved afresh
    again = _splitter_solve(2, 1)
    assert again is not first and _accounted()
    for triple, was in zip(again, first):
        assert all(np.array_equal(arr, old) for arr, old in zip(triple, was))


def test_an_evicted_solve_is_freed_without_the_collector():
    fock._MEMO.clear()
    blocks = _splitter_solve(2, 9)
    vectors = weakref.ref(blocks[-1][2])
    gc.collect()
    gc.disable()
    try:
        # two arrays of half the budget each push the solve and its system out
        for i in range(2):
            fock._MEMO.get(("filler", i), np.zeros, fock._MEMO_BYTES // 16, complex)
        assert [key[0] for key in fock._MEMO._entries] == ["filler"] and _accounted()
        assert vectors() is not None     # this test still holds the solve
        del blocks
        # nothing refers back to an evicted solve: refcounts alone free its arrays
        assert vectors() is None
        kept = weakref.ref(_splitter_solve(2, 3)[-1][2])
        fock._MEMO.clear()
        assert kept() is None and fock._MEMO.nbytes == 0
    finally:
        gc.enable()


def test_a_value_larger_than_the_budget_is_returned_but_not_kept():
    fock._MEMO.clear()
    small = _splitter_solve(2, 3)
    # the budget, not the dim, decides: the dim-512 splitter's solve is kept
    big_dim = _splitter_solve(3, 7)
    assert bosons(3, 7).dim == 512 and _splitter_solve(3, 7) is big_dim
    # an array one entry past the budget is returned, each time afresh
    big = fock._MEMO.get(("big",), np.zeros, fock._MEMO_BYTES // 8 + 1)
    assert big.nbytes > fock._MEMO_BYTES and ("big",) not in fock._MEMO._entries
    assert fock._MEMO.get(("big",), np.zeros, fock._MEMO_BYTES // 8 + 1) is not big
    assert _splitter_solve(2, 3) is small and _accounted()


def _raises_and_stores_nothing(call, message):
    keys, nbytes = set(fock._MEMO._entries), fock._MEMO.nbytes
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            call()
    assert set(fock._MEMO._entries) == keys and fock._MEMO.nbytes == nbytes


@pytest.mark.parametrize("call, message", [
    (lambda: number_op(bosons(2, 2), [np.nan, 1.0]), "weights must be finite"),
    (lambda: number_op(bosons(2, 2), [1.0]), "one weight per mode required"),
    (lambda: bosons(2, 1, total=[1]), "total_number_restriction must be an integer"),
    # True hashes and compares as 1, whose system the memo holds
    (lambda: bosons(2, 1, total=True), "total_number_restriction must be an integer"),
    (lambda: bosons(2, True), "mode cutoff must be an integer"),
    (lambda: bosons(2, 1, total=5), "empty Hilbert space"),
    (lambda: fermions(2, labels=[0, 1]), "mode label must be a string"),
    (lambda: spin_ops(bosons(2, 1), 0, 2), "mode index 2 out of range"),
    (lambda: pauli_ops(bosons(1, 2), 0), "pauli_ops needs a cutoff-1 mode"),
    (lambda: _splitter_blocks(bosons(2, 1), BeamSplitterSpec(((0, 2),), 0.6, 0.8)),
     "outside a system of 2 modes"),
    # a mode count is an integer >= 1: True and 2.0 are refused, not read as 1 and 2
    (lambda: bosons(True, 1), "n_modes must be an integer >= 1, got True"),
    (lambda: fermions(True), "n_modes must be an integer >= 1, got True"),
    (lambda: bosons(2.5, 3), "n_modes must be an integer >= 1, got 2.5"),
    (lambda: qubits(2.0), "n_modes must be an integer >= 1, got 2.0"),
    (lambda: bosons(-1, 2), "n_modes must be an integer >= 1, got -1"),
])
def test_a_raising_producer_raises_the_same_error_twice_and_stores_nothing(call, message):
    fock._MEMO.clear()
    # the systems the calls build, and one that True must not reach
    bosons(1, 2), bosons(2, 1), bosons(2, 1, total=1), number_op(bosons(2, 2))
    _raises_and_stores_nothing(call, message)


def test_threads_that_call_one_producer_at_once_get_one_value():
    # more threads than cores, switching often; each round starts from a cleared
    # memo, so the threads produce the same values at once
    threads_n, rounds = 8, 20
    spec = BeamSplitterSpec(mode_pairs=((0, 2), (1, 3)), r=0.6, t=0.8)
    barrier = threading.Barrier(threads_n)
    results, errors = [[] for _ in range(rounds)], []

    def work():
        try:
            for r in range(rounds):
                barrier.wait(timeout=30)
                if threading.current_thread() is workers[0]:
                    fock._MEMO.clear()
                barrier.wait(timeout=30)
                system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
                results[r].append((system, _splitter_blocks(system, spec)))
        except Exception as exc:     # reported below, in the test's thread
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    for got in results:
        assert len(got) == threads_n
        # one object per value: what the first thread stored, every thread got
        assert all(len({id(v) for v in column}) == 1 for column in zip(*got))
    assert _accounted()
