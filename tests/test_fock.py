import ast
import itertools
import pathlib
import re
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import focklab
from focklab import (
    ModeSystem,
    Operator,
    Partition,
    DensityOperator,
    PureState,
    annihilation,
    bosons,
    creation,
    expectation,
    fermions,
    number_op,
    partial_trace,
    spectral,
    tensor_embed,
    unitary_evolve,
)
from focklab.fock import (
    MAX_DIM,
    PAIR_CHUNK,
    Mode,
    _density_matrices,
    _expectations,
    _hermitian_blocks,
    _hermitian_residuals,
    _ladder_entries,
    _rotate,
    _sub_codes,
    apply_unitary,
    evolution_operator,
    ladder_product,
    sub_system,
)
from focklab.states import bell_one_boson, coherent, dissociation_state
from focklab.sampling import random_density, random_pure


def test_two_bose_modes_cutoff_one_basis():
    system = bosons(2, 1)
    assert system.dim == 4
    assert system.occupancies.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_four_fermi_modes_dimension():
    assert fermions(4).dim == 16


def test_number_restricted_basis():
    system = bosons(2, 3, total=3)
    assert system.dim == 4
    assert system.occupancies.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]


def test_empty_restricted_space_raises():
    with pytest.raises(ValueError, match="empty Hilbert space"):
        bosons(2, 1, total=5)
    with pytest.raises(ValueError, match="empty Hilbert space"):
        bosons(2, 1, total=-1)
    for total in (1.5, True, np.True_, "1", [1]):
        with pytest.raises(ValueError, match="integer"):
            bosons(2, 1, total=total)


@pytest.mark.parametrize("modes,total", [
    ([("a", 2), ("b", 3), ("c", 1)], 3),
    ([("a", 1, "fermi"), ("b", 4), ("c", 1, "fermi")], 2),
    ([("a", 0), ("b", 2)], 0),
    ([("a", 3)], 2),
])
def test_restricted_basis_equals_filtered_product(modes, total):
    system = ModeSystem(modes, total_number_restriction=total)
    product = [list(occ) for occ in itertools.product(*(range(m[1] + 1) for m in modes))
               if sum(occ) == total]
    assert system.occupancies.tolist() == product


def test_fixed_number_basis_skips_the_full_product():
    # the full product of 8 modes at cutoff 8 has 9**8 = 43M rows
    start = time.perf_counter()
    assert bosons(8, 8, total=2).dim == 36
    assert time.perf_counter() - start < 1.0


def test_basis_codes_must_fit_int64():
    with pytest.raises(ValueError, match="overflow"):
        fermions(64, total=2)


def test_dimension_budget():
    assert bosons(1, MAX_DIM - 1).dim == MAX_DIM
    with pytest.raises(ValueError, match="MAX_DIM"):
        bosons(1, MAX_DIM)
    # restricted: 5456 rows of a 31**4 product
    with pytest.raises(ValueError, match="MAX_DIM"):
        bosons(4, 30, total=30)


def test_unrestricted_budget_is_checked_before_enumerating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_DIM"):
            bosons(2, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # enumerating would take 10**12 rows; the check itself allocates nothing sizeable
    assert peak < 100_000


def test_restricted_budget_is_checked_while_enumerating():
    tracemalloc.start()
    try:
        # 20301 rows; expanding the two-mode prefixes by the third radix
        # before checking the budget would hold about 4M candidate rows
        with pytest.raises(ValueError, match="MAX_DIM"):
            bosons(3, 200, total=200)
        # dim 6: expanding the 6 one-mode prefixes by the full radix would
        # hold 6M candidate rows
        assert bosons(2, 10 ** 6, total=5).dim == 6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    # 10201 two-mode prefixes, but only the 66 that can still reach 290 are built
    assert bosons(3, 100, total=290).dim == 66


@pytest.mark.parametrize("system,occ", [
    (bosons(2, 2), (0, 3)),            # code 3 aliases (1, 0)
    (bosons(2, 2), (1, -1)),           # code 2 aliases (0, 2)
    (bosons(2, 2), (0, 1, 0)),
    (bosons(2, 2), (1,)),
    (bosons(3, 2, total=2), (0, 1, 0)),
])
def test_index_of_rejects_occupancies_outside_the_basis(system, occ):
    with pytest.raises(KeyError, match="not in basis"):
        system.index_of(occ)


def test_fermi_cutoff_must_be_one():
    with pytest.raises(ValueError):
        ModeSystem([("c", 2, "fermi")])
    # and any cutoff must be an integer >= 0, not a float, bool or string
    for cutoff in (-1, 1.5, 2.0, True, np.True_, "2", None):
        with pytest.raises(ValueError, match="cutoff must be an integer >= 0"):
            ModeSystem([("a", cutoff)])
    # a mode is a Mode or a (str label, cutoff[, statistics]) tuple
    for mode in (("a",), ("a", 1, "bose", "x"), 3, ["a", 1]):
        with pytest.raises(ValueError, match="a mode is a Mode or a"):
            ModeSystem([mode])
    for mode in ((["a"], 1), Mode(["a"], 1), (3, 1)):
        with pytest.raises(ValueError, match="mode label must be a string"):
            ModeSystem([mode])


def test_a_numpy_integer_cutoff_and_total_are_integers():
    system = ModeSystem([("a", np.int64(2)), ("b", np.int32(1))],
                        total_number_restriction=np.int16(2))
    assert system == ModeSystem([("a", 2), ("b", 1)], total_number_restriction=2)


def test_annihilation_single_quantum():
    system = ModeSystem([("a", 3)])
    a = annihilation(system, 0)
    out = a.matrix @ system.basis_state((1,)).amplitudes
    assert abs(out[system.index_of((0,))] - 1.0) < 1e-15


def test_annihilation_ladder_factor():
    system = ModeSystem([("a", 3)])
    a = annihilation(system, 0)
    out = a.matrix @ system.basis_state((3,)).amplitudes
    assert abs(out[system.index_of((2,))] - np.sqrt(3)) < 1e-15


def test_annihilation_is_the_scatter_of_its_ladder_entries():
    # bit for bit the dense matrix of the one mode's (rows, cols, values)
    for system in (ModeSystem([("a", 3)]), bosons(2, 3), fermions(3),
                   ModeSystem([("a", 2), ("f", 1, "fermi"), ("b", 1)])):
        for mode in range(system.n_modes):
            rows, cols, values = _ladder_entries(system, mode)
            want = np.zeros((system.dim, system.dim), dtype=complex)
            want[rows, cols] = values
            for key in (mode, system.modes[mode].label):
                assert np.array_equal(annihilation(system, key).matrix, want)
    with pytest.raises(ValueError, match="mode index 2 out of range"):
        annihilation(bosons(2, 1), 2)


def test_fermionic_sign_second_mode():
    # antisymmetrised two-particle expansion: c2 |1,1,0,0> = -|1,0,0,0>
    system = fermions(4)
    c2 = annihilation(system, 1)
    out = c2.matrix @ system.basis_state((1, 1, 0, 0)).amplitudes
    assert abs(out[system.index_of((1, 0, 0, 0))] + 1.0) < 1e-15
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_ladder_on_restricted_space_rejected():
    system = bosons(2, 3, total=3)
    with pytest.raises(ValueError, match="restricted"):
        annihilation(system, 0)


def test_bose_commutator_below_cutoff():
    system = ModeSystem([("a", 6)])
    a = annihilation(system, 0)
    comm = (a @ a.dag() - a.dag() @ a).matrix
    # exact on the sub-block that cannot see the truncation edge
    safe = np.arange(6)
    block = comm[np.ix_(safe, safe)]
    assert np.linalg.norm(block - np.eye(6)) < 1e-14


def test_fermi_anticommutation_exact():
    system = fermions(3)
    for i in range(3):
        for j in range(3):
            ci = annihilation(system, i)
            cj = creation(system, j)
            anti = ci.matrix @ cj.matrix + cj.matrix @ ci.matrix
            target = np.eye(system.dim) if i == j else np.zeros((system.dim,) * 2)
            assert np.linalg.norm(anti - target) < 1e-14


def test_number_op_weights():
    system = bosons(2, 2)
    n = number_op(system)
    vec = system.basis_state((1, 2))
    assert expectation(vec, n) == pytest.approx(3.0)
    n_first = number_op(system, [1, 0])
    assert expectation(vec, n_first) == pytest.approx(1.0)


def test_ndpa_weighted_quanta_number():
    # weights (1, 1, 2) count |n, n, N-n> as 2N quanta
    n_total = 4
    system = ModeSystem([("a", n_total), ("b", n_total), ("c", n_total)])
    n_w = number_op(system, [1, 1, 2])
    for n in range(n_total + 1):
        vec = system.basis_state((n, n, n_total - n))
        assert expectation(vec, n_w) == pytest.approx(2 * n_total)


def test_a_density_stack_is_read_only_and_a_stack_of_one_copies_nothing():
    rhos = [bosons(2, 2).vacuum().density(), bosons(2, 2).basis_state((1, 1)).density()]
    system, one, alone = _density_matrices(rhos[:1])
    assert system == rhos[0].system and one.shape == (1, 9, 9) and not alone
    assert np.shares_memory(one, rhos[0].matrix) and not one.flags.writeable
    # a lone state is a stack of one that says so
    system, lone, alone = _density_matrices(rhos[0])
    assert alone and lone.shape == (1, 9, 9) and np.shares_memory(lone, rhos[0].matrix)
    _, both, alone = _density_matrices(rhos)
    assert both.tobytes() == np.stack([rho.matrix for rho in rhos]).tobytes()
    assert not both.flags.writeable and not alone


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(7)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    rho_a = random_density(sub_a, rng)
    rho_b = random_density(sub_b, rng)
    full = DensityOperator(system, np.kron(rho_a.matrix, rho_b.matrix))
    reduced = partial_trace(full, part, "A")
    assert np.abs(reduced.matrix - rho_a.matrix).max() < 1e-14


def test_partial_trace_bell_state():
    psi = bell_one_boson("psi+")
    part = Partition([("A", (0,)), ("B", (1,))])
    reduced = partial_trace(psi, part, "A")
    assert np.abs(reduced.matrix - 0.5 * np.eye(2)).max() < 1e-14


def test_partial_trace_dissociation_state():
    amps = np.array([0.5, 0.5, 0.5, 0.5])
    psi = dissociation_state(3, amps)
    part = Partition([("mol", (0,)), ("atom", (1,))])
    rho_atom = partial_trace(psi, part, "atom").matrix
    expected = np.zeros_like(rho_atom)
    for m, c in enumerate(amps):
        i = 2 * m
        expected[i, i] = abs(c) ** 2
    assert np.abs(rho_atom - expected).max() < 1e-14


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    system = bosons(3, 1)
    part = Partition([("A", (0, 2)), ("B", (1,))])
    for _ in range(5):
        rho = random_density(system, rng)
        reduced = partial_trace(rho, part, "A")
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12


def test_tensor_embed_matches_kron():
    rng = np.random.default_rng(11)
    system = bosons(2, 2)
    sub_b = ModeSystem([system.modes[1]])
    op_b = number_op(sub_b)
    embedded = tensor_embed(op_b, system, (1,))
    expected = np.kron(np.eye(3), op_b.matrix)
    assert np.abs(embedded.matrix - expected).max() < 1e-14
    # expectation against a random state agrees with the reduced-state route
    rho = random_density(system, rng)
    part = Partition([("A", (0,)), ("B", (1,))])
    lhs = expectation(rho, embedded)
    rhs = expectation(partial_trace(rho, part, "B"), op_b)
    assert abs(lhs - rhs) < 1e-12


def test_evolution_eigenstate_is_stationary():
    system = bosons(2, 2)
    h = number_op(system)
    rho = system.basis_state((2, 1)).density()
    evolved = unitary_evolve(h, 0.73, rho)
    assert np.abs(evolved.matrix - rho.matrix).max() < 1e-12


def test_evolution_roundtrip_identity():
    system = bosons(2, 1)
    a = annihilation(system, 0)
    b = annihilation(system, 1)
    h = a.dag() @ b + b.dag() @ a
    u_fwd = evolution_operator(h, 1.3)
    u_bwd = evolution_operator(h, -1.3)
    assert np.linalg.norm((u_fwd @ u_bwd).matrix - np.eye(system.dim)) < 1e-12


def test_evolution_preserves_spectrum():
    rng = np.random.default_rng(5)
    system = bosons(2, 1)
    a = annihilation(system, 0)
    b = annihilation(system, 1)
    h = a.dag() @ b + b.dag() @ a
    rho = random_density(system, rng)
    evolved = unitary_evolve(h, 0.9, rho)
    before = np.sort(np.linalg.eigvalsh(rho.matrix))
    after = np.sort(np.linalg.eigvalsh(evolved.matrix))
    assert np.abs(before - after).max() < 1e-10


@pytest.mark.parametrize("other", [
    ModeSystem([("x", 8)]),     # same dim as bosons(2, 2), another system
    bosons(2, 1),               # another dim
])
@pytest.mark.parametrize("density", [False, True])
def test_apply_unitary_rejects_a_unitary_of_another_system(other, density):
    state = bosons(2, 2).vacuum()
    if density:
        state = state.density()
    u = evolution_operator(number_op(other), 0.3)
    with pytest.raises(ValueError, match="different systems"):
        apply_unitary(u, state)


def test_evolution_rejects_non_hermitian():
    system = bosons(1, 2, labels=["a"])
    a = annihilation(system, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        unitary_evolve(a, 1.0, system.vacuum())
    # before it looks at the state or the times
    with pytest.raises(ValueError, match="Hermitian"):
        unitary_evolve(a, [], "vacuum")


@pytest.mark.parametrize("state", ["vacuum", None, np.eye(9)])
def test_evolution_of_something_that_is_not_a_state_is_a_type_error(state):
    h = number_op(bosons(2, 2))
    with pytest.raises(TypeError, match="^expected PureState or DensityOperator$"):
        unitary_evolve(h, 0.3, state)
    with pytest.raises(TypeError, match="^expected PureState or DensityOperator$"):
        apply_unitary(evolution_operator(h, 0.3), state)


@pytest.mark.parametrize("times", [[], (), np.array([]), [[0.1, 0.2]]])
def test_evolution_to_an_empty_or_nested_sequence_of_times_is_named(times):
    system = bosons(2, 2)
    for state in (system.vacuum(), system.vacuum().density()):
        with pytest.raises(ValueError, match="^unitary_evolve takes one time or a "
                                             "non-empty sequence of times$"):
            unitary_evolve(number_op(system), times, state)
    with pytest.raises(ValueError, match="^evolution_operator takes one time or a "
                                         "non-empty sequence of times$"):
        evolution_operator(number_op(system), times)


@pytest.mark.parametrize("system", [bosons(1, 4), bosons(2, 3), bosons(2, 7)],
                         ids=["dim5", "dim16", "dim64-blocks"])
def test_a_sequence_of_times_gives_the_unitary_of_each_time_alone_bit_for_bit(system):
    # the hopping conserves the total number, so from dim 48 on H is solved per block
    hop = creation(system, 0) @ annihilation(system, system.n_modes - 1)
    h = 0.3 * number_op(system) + hop + hop.dag()
    times = np.random.default_rng(system.dim).uniform(-5.0, 5.0, 6)
    for given in (list(times), times, tuple(times[:1])):
        many = evolution_operator(h, given)
        assert isinstance(many, list) and len(many) == len(given)
        for u, t in zip(many, given):
            assert u.matrix.tobytes() == evolution_operator(h, t).matrix.tobytes()


def test_a_time_past_int64_is_taken_as_its_float():
    h = number_op(bosons(1, 3))
    for t in (10 ** 20, [10 ** 20, 1]):
        want = evolution_operator(h, np.array(t, dtype=float))
        got = evolution_operator(h, t)
        assert [u.matrix.tobytes() for u in np.atleast_1d(got)] == \
            [u.matrix.tobytes() for u in np.atleast_1d(want)]


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_evolution_to_a_time_that_is_not_finite_is_named(t):
    system = bosons(1, 3)
    h = number_op(system)
    for times in (t, [0.1, t]):
        with pytest.raises(ValueError, match="evolution times .* are not all finite"):
            evolution_operator(h, times)
    for state in (system.vacuum(), system.vacuum().density()):
        for times in (t, [0.1, t]):
            with pytest.raises(ValueError, match="evolution times .* are not all finite"):
                unitary_evolve(h, times, state)
    # a Hamiltonian that is not Hermitian is still named first
    with pytest.raises(ValueError, match="Hermitian"):
        unitary_evolve(annihilation(system, 0), t, system.vacuum())


@pytest.mark.parametrize("t", [1j, 0.5 + 0j, True, np.True_, "1", None, [0.1, 1j],
                               [0.1, True], ["1"], np.array([True]), np.array([0.5 + 0j])])
def test_evolution_to_a_time_that_is_not_real_is_named(t):
    # a complex time gave exp(-iHt) with a real exponent, not unitary, and True was time 1
    system = bosons(1, 3)
    h = number_op(system)
    with pytest.raises(ValueError, match=re.escape(
            "evolution_operator takes one time or a non-empty sequence of times, each a "
            f"real number: got {t!r}")):
        evolution_operator(h, t)
    for state in (system.vacuum(), system.vacuum().density()):
        with pytest.raises(ValueError, match="^unitary_evolve takes one time or a non-empty "
                                             "sequence of times, each a real number: got "):
            unitary_evolve(h, t, state)


def test_evolution_rejects_a_state_of_another_system():
    h = number_op(bosons(2, 2))
    for state in (ModeSystem([("x", 8)]).vacuum(), bosons(2, 1).vacuum().density()):
        with pytest.raises(ValueError, match="different systems"):
            unitary_evolve(h, [0.3, 0.4], state)


def test_the_eigenvector_kernel_holds_chunks_not_matrices():
    # dim 1024, one d x d complex matrix is 16 MiB; the hopping conserves the
    # total number, so H splits into number blocks of at most 32
    system = bosons(2, 31)
    h = 0.3 * number_op(system) + creation(system, 0) @ annihilation(system, 1)
    h = h + h.dag()
    blocks = _hermitian_blocks(h)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((system.dim, 3)) + 1j * rng.standard_normal((system.dim, 3))
    v = np.zeros((system.dim,) * 2, dtype=complex)
    for idx, _, vecs in blocks:
        v[idx[:, :, None], idx[:, None, :]] = vecs
    assert np.abs(_rotate(blocks, x.copy()) - v @ x).max() <= 1e-12
    assert np.abs(_rotate(blocks, x.copy(), adjoint=True) - v.conj().T @ x).max() <= 1e-12
    rho = DensityOperator(system, np.diag(rng.dirichlet(np.ones(system.dim))))
    square = 16 * system.dim ** 2
    x = rng.standard_normal((system.dim,) * 2) + 0j
    tracemalloc.start()
    try:
        # in place, from copies of at most PAIR_CHUNK entries and their products
        assert _rotate(blocks, x, adjoint=True) is x
        in_place = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # the rows for every time, one time's copy and product, and no unitary
        unitary_evolve(h, 0.4, rho)
        evolve = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert in_place < 2 * 16 * PAIR_CHUNK + square / 16
    assert evolve < 3.5 * square


@pytest.mark.parametrize("states,k", [(1, 1024), (512, 64)])
def test_the_eigenvector_kernel_forms_at_most_pair_chunk_entries_at_a_time(states, k):
    # one k x k component over every row: 1024 columns of one matrix are cut
    # into column chunks, and 512 matrices of 64 x 64 into chunks of matrices
    rng = np.random.default_rng(6)
    blocks = [(np.arange(k)[None], np.zeros((1, k)), rng.standard_normal((1, k, k)) + 0j)]
    x = rng.standard_normal((states, k, k)) + 1j * rng.standard_normal((states, k, k))
    expected = blocks[0][2] @ x
    tracemalloc.start()
    try:
        _rotate(blocks, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * PAIR_CHUNK + 100_000
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


def test_a_density_is_evolved_without_a_dense_unitary(monkeypatch):
    from focklab import fock

    def forbidden(*args):
        raise AssertionError("a dense unitary was built or applied")

    monkeypatch.setattr(fock, "evolution_operator", forbidden)
    monkeypatch.setattr(fock, "apply_unitary", forbidden)
    system = bosons(2, 7)      # dim 64: number blocks, solved block by block
    rho = random_density(system, np.random.default_rng(4))
    h = 0.3 * number_op(system) + creation(system, 0) @ annihilation(system, 1)
    h = h + h.dag()
    evolved = unitary_evolve(h, [0.2, 0.9], rho)
    assert [type(state) for state in evolved] == [DensityOperator] * 2
    assert isinstance(unitary_evolve(h, 0.2, rho), DensityOperator)


def test_coherent_mean_occupancy():
    state = coherent(np.sqrt(2.0), 30)
    n = number_op(state.system)
    assert abs(expectation(state, n) - 2.0) < 1e-10


def test_density_operator_validation():
    system = bosons(1, 1, labels=["a"])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(system, np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(system, np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        DensityOperator(system, np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("matrix", [[[np.nan, 0], [0, 1]],
                                    [[1, np.nan], [np.nan, 0]],
                                    [[0.5, 0], [0, 0.5 + 1j * np.nan]],
                                    [[np.inf, 0], [0, 1]]])
def test_density_operator_rejects_nan(matrix):
    with pytest.raises(ValueError):
        DensityOperator(bosons(1, 1), matrix)


@pytest.mark.parametrize("amplitudes", [[np.nan, 0], [1, np.nan], [np.inf, 0]])
def test_pure_state_rejects_non_finite_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="norm"):
        PureState(bosons(1, 1), amplitudes)


def test_random_states_pass_physicality():
    rng = np.random.default_rng(0)
    system = bosons(2, 2)
    for _ in range(20):
        rho = random_density(system, rng)
        assert rho.purity() <= 1.0 + 1e-12
        psi = random_pure(system, rng)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_partition_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        Partition([("A", (0, 1)), ("B", (1, 2))])
    # mode indices are integers, never read through int()
    for idx in ((0.5,), (True,), ("1",), "1", 0, (np.float64(1.0),)):
        with pytest.raises(ValueError, match="must be a sequence of integers"):
            Partition([("A", idx)])
    assert Partition([("A", (np.int64(1), 0))]).modes_of("A") == (1, 0)
    part = Partition([("A", (0,)), ("B", (1,))])
    with pytest.raises(KeyError):
        part.modes_of("C")


def test_partition_rejects_repeated_names():
    # modes_of would find only the first of two subsystems named "A"
    with pytest.raises(ValueError, match="names repeat"):
        Partition([("A", (0,)), ("A", (1,))])


def test_a_label_list_needs_one_distinct_label_per_mode():
    with pytest.raises(ValueError, match="1 labels given for 3 modes"):
        bosons(3, 1, labels=["a"])
    with pytest.raises(ValueError, match="3 labels given for 2 modes"):
        fermions(2, labels=["a", "b", "c"])
    # mode_index would find only the first of two modes labelled "x"
    with pytest.raises(ValueError, match="mode labels repeat"):
        ModeSystem([("x", 1), ("y", 1), ("x", 2)])
    assert [m.label for m in bosons(2, 1, labels=("a", "b")).modes] == ["a", "b"]


@pytest.mark.parametrize("indices, message", [
    ([5], "mode index 5 is not an integer in 0..1"),
    ([-1], "mode index -1 is not"),
    ([1.0], "mode index 1.0 is not"),
    ([True], "mode index True is not"),
    ([0, 0], "mode index 0 repeats"),
])
def test_sub_system_and_tensor_embed_refuse_a_bad_mode_index(indices, message):
    system = bosons(2, 1)
    op = annihilation(sub_system(system, [1]), 0)
    sub_system(system, [1])     # a cached lookup of mode 1 must not answer for 1.0 or True
    with pytest.raises(ValueError, match=message):
        sub_system(system, indices)
    with pytest.raises(ValueError, match=message):
        tensor_embed(op, system, indices)
    # a numpy index is an integer
    assert np.array_equal(tensor_embed(op, system, np.array([1])).matrix,
                          annihilation(system, 1).matrix)


def test_number_op_refuses_a_weight_that_is_not_finite():
    system = bosons(2, 1)
    for weights in ([np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="weights must be finite"):
            number_op(system, weights)


def test_tensor_embed_rejects_mismatched_modes():
    system = bosons(2, 2)
    other = ModeSystem([("x", 1)])
    with pytest.raises(ValueError, match="match"):
        tensor_embed(number_op(other), system, (0,))
    # the right modes, but a number-restricted operator system
    full = bosons(3, 2)
    restricted = ModeSystem(full.modes[:2], total_number_restriction=1)
    with pytest.raises(ValueError, match="match"):
        tensor_embed(restricted.identity(), full, (0, 1))


def test_second_ladder_and_sub_system_lookup_do_no_search(monkeypatch):
    searches = []
    search = ModeSystem.indices_of

    def counted(self, occ_rows):
        searches.append(self)
        return search(self, occ_rows)

    monkeypatch.setattr(ModeSystem, "indices_of", counted)
    part = Partition([("A", (1,)), ("B", (0, 2))])
    for _ in range(2):
        system = bosons(3, 2)        # equal to, but not, the last one built
        vacuum = system.vacuum()
        searches.clear()
        annihilation(system, 1)
        creation(system, "m2")
        tensor_embed(number_op(bosons(1, 2, labels=["m1"])), system, (1,))
        partial_trace(vacuum, part, "A")
    assert searches == []


def test_a_system_hashes_its_modes_once(monkeypatch):
    a, b, c, d = bosons(3, 2), bosons(3, 2), bosons(3, 2, total=2), bosons(3, 1)
    hashed = []
    mode_hash = Mode.__hash__
    monkeypatch.setattr(Mode, "__hash__", lambda self: hashed.append(self) or mode_hash(self))
    for _ in range(3):
        assert hash(a) == hash(b)
    assert a == a and a == b and a != c and a != d
    assert hashed == []


def test_cached_index_arrays_are_read_only():
    system = bosons(3, 2)
    sub, index, rest = _sub_codes(system, (2, 0))
    for arr in _ladder_entries(system, 1) + ladder_product(system, ((1, True),)) + (index, rest):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert sub == ModeSystem([system.modes[2], system.modes[0]])


def test_ladder_and_embedding_are_thread_safe():
    def build():
        system = bosons(3, 3)
        n_b = number_op(bosons(2, 3, labels=["m2", "m0"]))
        word = ((2, True), (0, False), (1, True), (1, False))
        return [annihilation(system, m).matrix for m in range(3)] + [
            tensor_embed(n_b, system, (2, 0)).matrix] + list(ladder_product(system, word))

    serial = build()
    _ladder_entries.cache_clear()
    _sub_codes.cache_clear()
    ladder_product.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(build) for _ in range(16)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(np.array_equal(g, s) for g, s in zip(got, serial, strict=True))


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def _eigensolver_uses(tree):
    """(enclosing function, solver name) of each eigensolver a module names."""
    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            uses.append((func, node.attr))
        if isinstance(node, ast.ImportFrom):
            uses.extend((func, a.name) for a in node.names if a.name in EIGENSOLVERS)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return uses


def test_eigh_blocks_is_the_only_eigensolver():
    src = pathlib.Path(focklab.__file__).parent
    found = {path.name: _eigensolver_uses(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    found = {name: uses for name, uses in found.items() if uses}
    assert found == {"fock.py": [("eigh_blocks", "eigh"), ("eigh_blocks", "eigvalsh")]}



@pytest.mark.parametrize("dim", [2, 3, 4, 7, 16, 25, 64, 100, 255, 361])
def test_the_trace_contraction_has_the_bits_of_each_einsum_it_replaces(dim):
    rng = np.random.default_rng(dim)

    def complex_stack(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    stack, matrices = complex_stack(3, dim, dim), complex_stack(4, dim, dim)
    out = _expectations(stack, matrices)
    assert out.shape == (3, 4)
    assert np.array_equal(out, np.einsum("kij,nji->nk", matrices, stack))
    for k, x in enumerate(matrices):
        column = _expectations(stack, x[None])[:, 0]
        assert np.array_equal(column, np.einsum("ij,nji->n", x, stack))
        for n, rho in enumerate(stack):
            assert _expectations(rho[None], x[None])[0, 0] == np.einsum("ij,ji->", x, rho)


@pytest.mark.parametrize("chunk", [1, 7, 40, 1 << 18])
def test_the_hermitian_residual_in_row_blocks_is_the_whole_matrix_norm(chunk, monkeypatch):
    from focklab import fock
    system = bosons(2, 3)
    rng = np.random.default_rng(chunk)
    # a stack over two leading axes, and one matrix of it
    shape = (2, 3, system.dim, system.dim)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    whole = np.linalg.norm(x - x.conj().swapaxes(-1, -2), axis=(-2, -1))
    monkeypatch.setattr(fock, "PAIR_CHUNK", chunk)
    assert np.abs(_hermitian_residuals(x) - whole).max() <= 1e-12
    assert abs(_hermitian_residuals(x[1, 2]) - whole[1, 2]) <= 1e-12
    # both checks that read it keep their tolerances: an entry pair a i, a i has
    # the residual 2 sqrt(2) a
    rho = random_density(system, rng)
    for a, ok in [(0.3e-12, True), (0.4e-12, False)]:
        noisy = rho.matrix.copy()
        noisy[[0, 1], [1, 0]] += 1j * a
        if ok:
            DensityOperator(system, noisy)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityOperator(system, noisy)
    for a, ok in [(0.3e-10, True), (0.4e-10, False)]:
        noisy = rho.matrix.copy()
        noisy[[2, 5], [5, 2]] += 1j * a
        assert Operator(system, noisy).is_hermitian() == ok


@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (3, 3)])
def test_an_operator_with_an_infinite_entry_is_not_hermitian_and_warns_nothing(entry):
    system = bosons(1, 3)
    mat = number_op(system).matrix.copy()
    mat[entry] = np.inf
    h = Operator(system, mat)
    calls = (spectral, lambda h: evolution_operator(h, 0.5),
             lambda h: unitary_evolve(h, 0.5, system.vacuum()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not h.is_hermitian()
        for call in calls:
            with pytest.raises(ValueError, match="^operator is not Hermitian within 1e-10$"):
                call(h)


def test_validation_and_the_hermitian_check_hold_row_blocks_not_matrices():
    # dim 1024: one d x d complex matrix is 16 MiB
    system = bosons(2, 31)
    square = 16 * system.dim ** 2
    matrix = system.superposition([(1, 2), (2, 1)], [0.6, 0.8j]).density().matrix
    h = 0.3 * number_op(system) + creation(system, 0) @ annihilation(system, 1)
    h = h + h.dag()
    tracemalloc.start()
    try:
        # the checked copy of the input, and the residual's rows
        DensityOperator(system, matrix)
        validation = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert h.is_hermitian()
        hermitian = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert validation < 2 * square
    assert hermitian < square


def test_validation_at_dim_361_holds_its_copy_and_one_row_block_of_residual():
    # bosons(2, 18), the coherent mixture's system: its whole residual, formed
    # at once, was 4.1 MiB
    system = bosons(2, 18)
    dim = system.dim
    matrix = system.superposition([(1, 2), (2, 1)], [0.6, 0.8j]).density().matrix
    DensityOperator(system, matrix)
    tracemalloc.start()
    try:
        DensityOperator(system, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk of complex entries is at most 256 KiB; the peak is the checked copy
    # of the input, two chunks of residual rows and the two boolean patterns
    # the block search reads
    assert 16 * PAIR_CHUNK <= 256 * 2 ** 10
    assert peak <= 16 * dim ** 2 + 2 * 16 * PAIR_CHUNK + 2 * dim ** 2
