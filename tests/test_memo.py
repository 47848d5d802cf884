"""The memo of values that a ModeSystem and hashable parameters determine
(``fock._MEMO``): a repeated run solves nothing and reports the same bits, the
memo stays within its byte budget, keeps nothing a producer raised on, and
gives threads that produce one value at once the same value.
"""

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
from focklab.cli import run_experiment, run_scenario
from focklab.dynamics import BeamSplitterSpec, _atom_molecule_hamiltonian, _splitter_hamiltonian
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


# extraction_experiment and beam_splitter (the interferometer's) solve the kept
# splitter Hamiltonian; the spin operators of spin_epr, the number operators of
# the measurement identities and the atom-molecule H are not kept, so their
# repeated run solves as often as the first
_UNKEPT = ("spin_epr_bound", "measurement_identities", "atom_molecule")


def _splitter_h(n_modes, cutoff):
    """The splitter Hamiltonian of modes 0 and 1 on ``bosons(n_modes, cutoff)``:
    an operator that the memo keeps."""
    return _splitter_hamiltonian(bosons(n_modes, cutoff),
                                 BeamSplitterSpec(mode_pairs=((0, 1),), r=0.6, t=0.8))


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
    assert _splitter_hamiltonian(system, spec) is _splitter_hamiltonian(
        system, BeamSplitterSpec(mode_pairs=((0, 2), (1, 3)), r=0.8, t=0.6))
    # the number, spin and Pauli operators and the atom-molecule H are not kept:
    # built on each call
    assert number_op(system) is not number_op(system)
    assert spin_ops(system, 0, 1).sx is not spin_ops(system, 0, 1).sx
    assert pauli_ops(system, 2)[2] is not pauli_ops(system, 2)[2]
    assert _atom_molecule_hamiltonian(2, 1.0)[1] is not _atom_molecule_hamiltonian(2, 1.0)[1]
    # no key holds a float, a bool, a numpy scalar or a list, also inside a tuple
    assert fock._key("k", 1, (2, "a"), None, system, b"") == ("k", 1, (2, "a"), None, system, b"")
    for part in (1.0, True, np.int64(1), [1], (1, 2.0), ((1,), [2])):
        assert fock._key("k", part) is None
    # a numpy integer is not keyed: an equal system, built afresh
    assert bosons(np.int64(4), np.int64(1), labels="abcd") == system
    assert bosons(4, np.int64(1), labels="abcd") is not system


def test_spectral_keeps_one_observable_per_held_operator_and_observable_resolves_afresh():
    fock._MEMO.clear()
    op = _splitter_h(2, 3)
    obs = spectral(op)
    assert spectral(op) is obs and spectral(_splitter_h(2, 3)) is obs
    again = Observable(op)
    assert again is not obs and again.eigenvalues == obs.eigenvalues
    for triple, held in zip(again.blocks, obs.blocks):
        for arr, was in zip(triple, held):
            assert np.array_equal(arr, was) and not np.shares_memory(arr, was)
    # the operator's kept solve is a result of its own, beside the observable
    blocks = fock._kept_blocks(op)
    assert isinstance(blocks, tuple) and fock._kept_blocks(op) is blocks
    assert spectral(op) is obs
    # an operator the memo does not hold is resolved on each call
    other = 1.0 * op
    assert spectral(other) is not spectral(other)


def test_an_operator_the_memo_does_not_hold_solves_again_on_each_call(monkeypatch):
    fock._MEMO.clear()
    held = _splitter_h(2, 3)
    solves = _solves(monkeypatch)
    # a caller's own, two of unkept producers, and one past the budget (dim 324)
    for op in (1.0 * held, pauli_ops(qubits(2), 0)[0], number_op(bosons(2, 3)), _splitter_h(2, 17)):
        for call in (fock._kept_blocks, spectral):
            solves.clear()
            assert call(op) is not call(op)
            assert solves == [True, True]
    # a held operator solves once for its blocks and once for its Observable
    solves.clear()
    results = [fock._kept_blocks(held), spectral(held)]
    assert [fock._kept_blocks(held), spectral(held)] == results and solves == [True, True]


def test_a_copy_or_a_pickle_of_a_held_operator_keeps_no_solve():
    fock._MEMO.clear()
    op = _splitter_h(2, 2)
    blocks, obs = fock._kept_blocks(op), spectral(op)
    for other in (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
        assert other is not op and other.matrix.tobytes() == op.matrix.tobytes()
        assert not hasattr(other, "_kept")
        assert fock._kept_blocks(other) is not blocks and spectral(other) is not obs
        assert spectral(other) is not spectral(other)
    # the slot is no field: the record shows and rebuilds from its two fields alone
    assert op.__reduce__()[1] == (op.system, op.matrix) and repr(op) == "Operator(dim=9)"
    assert fock._kept_blocks(op) is blocks and spectral(op) is obs


def _scenario_pass():
    """One run of each checked-in scenario, in process."""
    folder = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scenarios")
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name)) as fh:
            assert run_scenario(json.load(fh))["overall_pass"], name


def _held_operators():
    found = {}
    fock._held([value for value, *_ in fock._MEMO._entries.values()], found)
    return [op for op in found.values() if isinstance(op, fock.Operator)]


def test_the_counted_bytes_bound_what_the_held_operators_keep():
    fock._MEMO.clear()
    _scenario_pass()
    ops = _held_operators()
    bound = sum(2 * op.matrix.nbytes + 40 * op.system.dim for op in ops)
    for op in ops:
        op._kept.clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for op in ops:
            fock._kept_blocks(op), spectral(op)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(len(op._kept) == 2 for op in ops)
    # the solves and Observables of every held operator, Python objects and all
    assert 0 < kept <= bound


def test_a_warm_pass_of_the_scenarios_evicts_nothing():
    fock._MEMO.clear()
    _scenario_pass()
    kept = dict(fock._MEMO._entries)
    _scenario_pass()
    assert fock._MEMO._entries.keys() == kept.keys()
    assert all(fock._MEMO._entries[key][0] is value for key, (value, *_) in kept.items())
    assert _accounted()


def _accounted():
    """Whether the memo's byte count is the sum of its entries' and within budget,
    and each operator an entry holds is listed with it and has the slot that keeps
    what it derives."""
    memo = fock._MEMO
    found = {}
    fock._held([value for value, *_ in memo._entries.values()], found)
    ops = [op for op in found.values() if isinstance(op, fock.Operator)]
    listed = sorted(map(id, ops)) == sorted(id(op) for *_, kept in memo._entries.values()
                                            for op in kept)
    marked = all(type(op._kept) is dict for op in ops)
    return (memo.nbytes == sum(n for _, n, _ in memo._entries.values()) <= fock._MEMO_BYTES
            and listed and marked)


def test_filled_with_many_systems_the_memo_never_holds_more_than_its_budget():
    fock._MEMO.clear()
    first = _splitter_h(2, 1)
    # dims 1024 down to 4, each with its splitter Hamiltonian and its observable:
    # counted with what each operator may keep, far past the 4 MiB budget, so
    # early entries are evicted and the operators above dim 295 are never kept
    for cutoff in range(31, 0, -1):
        op = _splitter_h(2, cutoff)
        if cutoff < 24:
            spectral(op)
        assert _accounted(), cutoff
    assert fock._MEMO.nbytes > fock._MEMO_BYTES // 2
    assert len(fock._MEMO._entries) < 2 * 31
    # the earliest operator was evicted: an equal one is built afresh
    assert _splitter_h(2, 1) is not first and _accounted()


def test_an_evicted_operator_drops_what_it_kept_and_is_freed_without_the_collector():
    fock._MEMO.clear()
    op = _splitter_h(2, 9)
    blocks, obs = fock._kept_blocks(op), spectral(op)
    assert op._kept and obs.operator is op
    matrix, vectors = weakref.ref(op.matrix), weakref.ref(blocks[0][2])
    gc.collect()
    gc.disable()
    try:
        # dims 256 down to 4: their bounds pass the budget, so the first entry goes
        for cutoff in range(15, 0, -1):
            spectral(_splitter_h(2, cutoff))
        assert op._kept is None and _accounted()
        # a caller that still holds it solves it afresh, and keeps nothing on it
        assert spectral(op) is not obs and spectral(op) is not spectral(op)
        assert op._kept is None
        del op, blocks, obs
        # no cycle through a kept Observable: refcounts alone free the arrays
        assert matrix() is None and vectors() is None
        held = spectral(_splitter_h(2, 3))
        kept = weakref.ref(held.operator.matrix)
        fock._MEMO.clear()
        del held
        assert kept() is None and fock._MEMO.nbytes == 0
    finally:
        gc.enable()


def test_a_value_larger_than_the_budget_is_returned_but_not_kept():
    fock._MEMO.clear()
    small = _splitter_h(2, 3)
    big = _splitter_h(3, 7)     # dim 512: a 4 MiB matrix, past the budget with its system
    assert big.matrix.nbytes == fock._MEMO_BYTES
    again = _splitter_h(3, 7)
    assert again is not big and again.matrix.tobytes() == big.matrix.tobytes()
    assert _splitter_h(2, 3) is small and _accounted()


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
    (lambda: _splitter_hamiltonian(bosons(2, 1), BeamSplitterSpec(((0, 2),), 0.6, 0.8)),
     "outside a system of 2 modes"),
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
                h = _splitter_hamiltonian(system, spec)
                results[r].append((system, h, spectral(h), fock._kept_blocks(h)))
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
