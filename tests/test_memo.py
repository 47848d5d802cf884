"""The memo of values that a ModeSystem and hashable parameters determine
(``fock._MEMO``): a repeated run solves nothing and reports the same bits, the
memo stays within its byte budget, keeps nothing a producer raised on, and
gives threads that produce one value at once the same value.
"""

import sys
import threading

import numpy as np
import pytest

from focklab import Observable, bosons, fermions, number_op, qubits, spectral
from focklab import fock
from focklab.cli import run_experiment
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


# spin_epr, extraction_experiment, beam_splitter (the interferometer's), the
# measurement identities and the atom-molecule sequence
@pytest.mark.parametrize("name", ["spin_epr_bound", "extraction", "vacuum_interferometer",
                                  "measurement_identities", "atom_molecule"])
def test_a_repeated_run_solves_nothing_and_reports_the_same_bits(monkeypatch, name):
    fock._MEMO.clear()
    solves = _solves(monkeypatch)
    cold = run_experiment(name, seed=3)
    assert True in solves
    solves.clear()
    warm = run_experiment(name, seed=3)
    assert cold["overall_pass"] and True not in solves
    assert _bits(warm) == _bits(cold)


def test_each_producer_keeps_one_value_per_key():
    fock._MEMO.clear()
    system = bosons(4, 1, labels=("a", "b", "c", "d"))
    assert bosons(4, 1, labels=["a", "b", "c", "d"]) is system
    assert qubits(3) is qubits(3) and fermions(2, total=1) is fermions(2, total=1)
    assert number_op(system) is number_op(system, [1, 1, 1, 1])
    assert number_op(system, [1, 0, 0, 0]) is not number_op(system, [0, 1, 0, 0])
    assert spin_ops(system, 0, 1) is spin_ops(system, 0, 1)
    assert pauli_ops(system, 2) is pauli_ops(system, 2)
    spec = BeamSplitterSpec(mode_pairs=[[0, 2], [1, 3]], r=0.6, t=0.8)
    assert _splitter_hamiltonian(system, spec) is _splitter_hamiltonian(
        system, BeamSplitterSpec(mode_pairs=((0, 2), (1, 3)), r=0.8, t=0.6))
    assert _atom_molecule_hamiltonian(2, 1.0) is _atom_molecule_hamiltonian(2, 1.0)
    assert _atom_molecule_hamiltonian(2, 1.0) is not _atom_molecule_hamiltonian(2, 1)
    # a numpy integer is not keyed: an equal system, built afresh
    assert bosons(np.int64(4), np.int64(1), labels="abcd") == system
    assert bosons(4, np.int64(1), labels="abcd") is not system


def test_spectral_keeps_one_observable_per_held_operator_and_observable_resolves_afresh():
    fock._MEMO.clear()
    op = number_op(bosons(2, 3))
    obs = spectral(op)
    assert spectral(op) is obs and spectral(number_op(bosons(2, 3))) is obs
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


def _accounted():
    """Whether the memo's byte count is the sum of its entries' and within budget,
    and each operator it indexes is held by a live entry."""
    memo = fock._MEMO
    entries = memo._entries
    owners_live = all(key in entries and any(op is held for held in entries[key].operators)
                      for op, key in memo._owners.values())
    return (memo.nbytes == sum(e.nbytes for e in entries.values()) <= fock._MEMO_BYTES
            and owners_live)


def test_filled_with_many_systems_the_memo_never_holds_more_than_its_budget():
    fock._MEMO.clear()
    first = number_op(bosons(2, 1))
    # dims 4 to 1024, each with its number operator and its observable: about
    # 45 MiB in all, past the 4 MiB budget, so early entries are evicted and
    # the operators above dim 512 are never kept
    for cutoff in range(1, 32):
        op = number_op(bosons(2, cutoff))
        if cutoff < 24:
            spectral(op)
        assert _accounted(), cutoff
    assert fock._MEMO.nbytes > fock._MEMO_BYTES // 2
    assert len(fock._MEMO._entries) < 2 * 31
    # the earliest operator was evicted: an equal one is built afresh
    assert number_op(bosons(2, 1)) is not first and _accounted()


def test_a_value_larger_than_the_budget_is_returned_but_not_kept():
    fock._MEMO.clear()
    small = number_op(bosons(2, 3))
    big = number_op(bosons(3, 7))     # dim 512: a 4 MiB matrix, past the budget with its system
    assert big.matrix.nbytes == fock._MEMO_BYTES
    again = number_op(bosons(3, 7))
    assert again is not big and again.matrix.tobytes() == big.matrix.tobytes()
    assert number_op(bosons(2, 3)) is small and _accounted()


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
                sx = spin_ops(system, 0, 1).sx
                results[r].append((system, sx, spectral(sx), number_op(system)))
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
