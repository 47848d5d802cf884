"""Property tests of the basis bookkeeping, the trace contractions and the
measurement algebra over random small mode systems."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab import (
    DensityOperator,
    ModeSystem,
    Operator,
    Partition,
    annihilation,
    apply_unitary,
    as_density,
    bosons,
    creation,
    expectation,
    extraction_experiment,
    fermions,
    joint_prob,
    number_op,
    evolution_operator,
    partial_trace,
    particle_entanglement,
    prob,
    qcf,
    ramsey_vacuum_superposition,
    sector_decompose,
    separable_ssr_theorem_check,
    spectral,
    tensor_embed,
    twirl,
    unitary_evolve,
)
from focklab import fock
from focklab.fock import (
    BLOCK_MIN_DIM,
    FERMI,
    eigh_blocks,
    eigvalsh_blocks,
    ladder_product,
    sector_blocks,
    sub_system,
)
from focklab.measurement import (
    MERGE_TOL,
    PROB_FLOOR,
    PROJ_ATOL,
    cond_mean,
    cond_variance,
    outcome_distribution,
    unrecorded_conditioned_variance,
    unrecorded_state,
)
from focklab.ssr import _commutator_residuals, _diagonal_of, ssr_check
from focklab.lhv import integral_inequality_oracle, sum_inequality_oracle
from focklab.sampling import (
    random_density,
    random_global_ssr_state,
    random_number_diagonal_mixture,
    random_one_boson_pair_mixture,
    random_pure,
    random_qubit_pair_mixture,
)

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=50)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def mode_lists(draw, min_modes=1, max_modes=3):
    modes = []
    for i in range(draw(st.integers(min_modes, max_modes))):
        if draw(st.booleans()):
            modes.append((f"f{i}", 1, FERMI))
        else:
            modes.append((f"b{i}", draw(st.integers(0, 3))))
    return modes


@st.composite
def systems(draw, restricted=True, min_modes=1):
    modes = draw(mode_lists(min_modes=min_modes))
    system = ModeSystem(modes)
    if restricted and draw(st.booleans()):
        totals = sorted(set(system.occupancies.sum(axis=1).tolist()))
        system = ModeSystem(modes, total_number_restriction=draw(st.sampled_from(totals)))
    return system


@st.composite
def systems_with_kept_modes(draw):
    """A system, an ordered non-empty subset of its modes, and a partition
    that names that subset "A"."""
    system = draw(systems())
    order = draw(st.permutations(range(system.n_modes)))
    k = draw(st.integers(1, system.n_modes))
    keep, rest = tuple(order[:k]), tuple(order[k:])
    partition = Partition([("A", keep)] + ([("B", rest)] if rest else []))
    return system, keep, partition


@st.composite
def bipartitions(draw):
    """A system of two or more modes and a partition of them into "A" and "B"."""
    system = draw(systems(min_modes=2))
    order = draw(st.permutations(range(system.n_modes)))
    k = draw(st.integers(1, system.n_modes - 1))
    return system, Partition([("A", tuple(order[:k])), ("B", tuple(order[k:]))])


def padded(dim, indices, block):
    """``block`` at rows and columns ``indices`` of an otherwise zero dim x dim matrix."""
    out = np.zeros((dim, dim), dtype=complex)
    out[np.ix_(indices, indices)] = block
    return out


def _reference_reduced(system, rows, block, keep):
    """The reduced matrix as a loop over the codes of the other modes."""
    sub, index, rest = fock._sub_codes(system, tuple(keep))
    sub_codes, rest = index[rows], rest[rows]
    out = np.zeros((sub.dim, sub.dim), dtype=complex)
    for code in np.unique(rest):
        sel = np.nonzero(rest == code)[0]
        subs = sub_codes[sel]
        out[np.ix_(subs, subs)] += block[np.ix_(sel, sel)]
    return out


def _reference_sectors(rho, labels):
    """The number sectors one label at a time, each block checked on its own."""
    out = []
    for label, sel in fock.sector_blocks(labels):
        block = rho.matrix[np.ix_(sel, sel)]
        weight = float(np.real(np.trace(block)))
        if weight >= fock.SECTOR_FLOOR:
            fock._check_physical(block / weight)
            out.append((label, weight, sel, block / weight))
    return out


def _sector_tuples(rho, weights):
    """(label, weight, basis indices, block) of each sector of ``sector_decompose``
    by the number operator with these mode weights, whose labels are
    ``occupancies @ weights``."""
    return [(s.total, s.weight, s.indices, s.block)
            for s in sector_decompose(rho, number_op(rho.system, weights)).sectors]


def _reference_particle_entanglement(rho, partition):
    """E_P one sector at a time, each reduced state checked on its own."""
    system = rho.system
    occ = system.occupancies
    idx_a, idx_b = (partition.modes_of(name) for name in partition.names)
    num_a, num_b = occ[:, idx_a].sum(axis=1), occ[:, idx_b].sum(axis=1)
    ep = 0.0
    for _, weight, sel, block in _reference_sectors(rho, num_a * (num_b.max() + 1) + num_b):
        evals = fock._check_physical(_reference_reduced(system, sel, block, idx_a))
        evals = evals[evals > 1e-15]
        ep += weight * float(-(evals * np.log(evals)).sum())
    return ep


@SETTINGS
@given(systems_with_kept_modes(), seeds)
def test_partial_trace_equals_the_per_code_loop_bit_for_bit(case, seed):
    system, keep, partition = case
    rho = random_density(system, np.random.default_rng(seed))
    expected = _reference_reduced(system, np.arange(system.dim), rho.matrix, keep)
    assert partial_trace(rho, partition, "A").matrix.tobytes() == expected.tobytes()


@SETTINGS
@given(bipartitions(), seeds)
def test_stacked_sectors_and_entanglement_equal_the_per_sector_loop(case, seed):
    system, partition = case
    rho = random_density(system, np.random.default_rng(seed))
    weights = np.arange(1, system.n_modes + 1)
    labels = system.occupancies @ weights
    got = _sector_tuples(rho, weights)
    expected = _reference_sectors(rho, labels)
    assert [(label, weight) for label, weight, _, _ in got] == \
        [(label, weight) for label, weight, _, _ in expected]
    for (_, _, sel, block), (_, _, ref_sel, ref_block) in zip(got, expected):
        assert np.array_equal(sel, ref_sel) and block.tobytes() == ref_block.tobytes()
        assert not sel.flags.writeable and not block.flags.writeable
    assert particle_entanglement(rho, partition) == \
        _reference_particle_entanglement(rho, partition)


@pytest.mark.parametrize("seed", range(8))
def test_entanglement_adds_the_sectors_of_all_sizes_in_label_order(seed):
    # sectors of sizes 1, 2 and 4 whose entropies interleave in label order
    system = bosons(4, 1, labels=["a1", "a2", "b1", "b2"])
    partition = Partition([("A", (0, 1)), ("B", (2, 3))])
    rho = random_density(system, np.random.default_rng(seed))
    assert particle_entanglement(rho, partition) == \
        _reference_particle_entanglement(rho, partition)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_partial_trace_in_small_chunks_equals_the_per_code_loop(chunk, monkeypatch):
    monkeypatch.setattr(fock, "PAIR_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for system, keep in [(bosons(3, 2), (1,)), (bosons(3, 2, total=3), (0, 2)),
                         (ModeSystem([("a", 1), ("b", 3), ("c", 2)]), (2, 0))]:
        rho = random_density(system, rng)
        partition = Partition([("A", keep)])
        expected = _reference_reduced(system, np.arange(system.dim), rho.matrix, keep)
        assert partial_trace(rho, partition, "A").matrix.tobytes() == expected.tobytes()


def test_large_sectors_and_reduced_states_equal_the_per_sector_loop():
    # reduced states of dim 50, at least BLOCK_MIN_DIM
    system = ModeSystem([("a", 49), ("b", 1)])
    partition = Partition([("A", (0,)), ("B", (1,))])
    rho = random_density(system, np.random.default_rng(3))
    assert particle_entanglement(rho, partition) == \
        _reference_particle_entanglement(rho, partition)
    # two sectors of size 64, number-diagonal within, so each is solved by blocks
    system = ModeSystem([("a", 1), ("b", 7), ("c", 7)])
    part = Partition([("A", (0,)), ("B", (1, 2))])
    rho = random_number_diagonal_mixture(system, part, np.random.default_rng(4)).summed()
    labels = system.occupancies[:, 0]
    got, expected = _sector_tuples(rho, [1, 0, 0]), _reference_sectors(rho, labels)
    assert [len(sel) for _, _, sel, _ in got] == [64, 64]
    assert [(label, weight, sel.tobytes(), block.tobytes()) for label, weight, sel, block in got] \
        == [(label, weight, sel.tobytes(), block.tobytes())
            for label, weight, sel, block in expected]


def _unique_blocks(labels):
    """``sector_blocks`` as it was written with np.unique, the reference."""
    labels = np.asarray(labels)
    return [(int(v), np.nonzero(labels == v)[0]) for v in np.unique(labels)]


@SETTINGS
@given(st.one_of(st.lists(st.integers(-3, 3), max_size=40),
                 st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=8),
                 st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.4, 0.5, 7.0]), max_size=40),
                 st.lists(st.floats(-1e6, 1e6), max_size=8)),
       st.booleans())
def test_sector_blocks_equal_the_np_unique_reference(labels, as_array):
    # distinct labels by a sort: the same blocks, and no numpy.ma import
    labels = np.array(labels) if as_array else labels
    got, want = sector_blocks(labels), _unique_blocks(labels)
    assert [label for label, _ in got] == [label for label, _ in want]
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


def test_sector_blocks_of_no_labels_are_empty():
    assert sector_blocks([]) == _unique_blocks([]) == []
    assert sector_blocks(np.zeros(0, dtype=int)) == []


@SETTINGS
@given(systems())
def test_indices_of_the_basis_is_arange(system):
    assert np.array_equal(system.indices_of(system.occupancies), np.arange(system.dim))


@SETTINGS
@given(systems(), seeds)
def test_superposition_equals_a_scatter_of_each_row(system, seed):
    rng = np.random.default_rng(seed)
    picked = rng.choice(system.dim, size=int(rng.integers(1, system.dim + 1)), replace=False)
    rows = system.occupancies[picked]
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    amps /= np.linalg.norm(amps)
    reference = np.zeros(system.dim, dtype=complex)
    for row, amp in zip(rows, amps):
        reference[np.flatnonzero((system.occupancies == row).all(axis=1))[0]] = amp
    assert system.superposition(rows, amps).amplitudes.tobytes() == reference.tobytes()
    unit = np.zeros(system.dim, dtype=complex)
    unit[picked[0]] = 1.0
    assert system.basis_state(rows[0]).amplitudes.tobytes() == unit.tobytes()
    # a row outside the basis raises the KeyError of indices_of
    outside = rows.copy()
    outside[-1, 0] = system.modes[0].cutoff + 1
    with pytest.raises(KeyError) as expected:
        system.indices_of(outside)
    with pytest.raises(KeyError) as got:
        system.superposition(outside, amps)
    assert got.value.args == expected.value.args


@SETTINGS
@given(systems(), seeds, st.booleans())
def test_number_diagonal_is_the_diagonal_of_number_op(system, seed, weighted):
    weights = np.random.default_rng(seed).uniform(-3.0, 3.0, system.n_modes) if weighted else None
    diag = fock.number_diagonal(system, weights)
    assert diag.tobytes() == number_op(system, weights).matrix.diagonal().real.tobytes()
    for bad in (np.ones(system.n_modes + 1), np.ones((1, system.n_modes))):
        for build in (fock.number_diagonal, number_op):
            with pytest.raises(ValueError, match="one weight per mode required"):
                build(system, bad)


@SETTINGS
@given(systems_with_kept_modes(), seeds)
def test_partial_trace_preserves_trace_and_hermiticity(case, seed):
    system, _, partition = case
    reduced = partial_trace(random_density(system, np.random.default_rng(seed)),
                            partition, "A")
    assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12
    assert np.linalg.norm(reduced.matrix - reduced.matrix.conj().T) <= 1e-12


@SETTINGS
@given(systems_with_kept_modes(), seeds)
def test_tensor_embed_is_adjoint_to_partial_trace(case, seed):
    system, keep, partition = case
    rng = np.random.default_rng(seed)
    rho = random_density(system, rng)
    sub = sub_system(system, keep)
    x = Operator(sub, rng.standard_normal((sub.dim, sub.dim))
                 + 1j * rng.standard_normal((sub.dim, sub.dim)))
    lhs = np.trace(tensor_embed(x, system, keep).matrix @ rho.matrix)
    rhs = np.trace(x.matrix @ partial_trace(rho, partition, "A").matrix)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(x.matrix))


@SETTINGS
@given(systems(), seeds, st.booleans())
def test_expectation_and_purity_match_the_trace_reference(system, seed, hermitian):
    rng = np.random.default_rng(seed)
    rho = random_density(system, rng)
    g = rng.standard_normal((system.dim, system.dim)) \
        + 1j * rng.standard_normal((system.dim, system.dim))
    x = Operator(system, g + g.conj().T if hermitian else g)
    assert abs(expectation(rho, x) - np.trace(x.matrix @ rho.matrix)) <= 1e-12
    assert abs(rho.purity() - np.trace(rho.matrix @ rho.matrix)) <= 1e-12


@SETTINGS
@given(systems(), seeds)
def test_twirl_is_idempotent_and_sector_weights_sum_to_one(system, seed):
    rho = random_density(system, np.random.default_rng(seed))
    n_op = number_op(system)
    tw = twirl(rho, n_op)
    assert np.array_equal(twirl(tw, n_op).matrix, tw.matrix)
    sectors = sector_decompose(rho, n_op).sectors
    assert abs(sum(s.weight for s in sectors) - 1.0) <= 1e-12
    rebuilt = sum(s.weight * padded(system.dim, s.indices, s.block) for s in sectors)
    assert np.abs(rebuilt - tw.matrix).max() <= 1e-12


@SETTINGS
@given(systems(), seeds, st.booleans(), st.integers(1, 3))
def test_commutator_residuals_equal_the_dense_commutator_norm(system, seed, weighted, n):
    rng = np.random.default_rng(seed)
    n_op = number_op(system, rng.uniform(-3.0, 3.0, system.n_modes) if weighted else None)
    n_diag = _diagonal_of(n_op)
    shape = (n, system.dim, system.dim)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def dense(x):
        return np.linalg.norm(n_op.matrix @ x - x @ n_op.matrix)

    residuals = _commutator_residuals(n_diag, stack)
    assert residuals.shape == (n,)
    for x, residual in zip(stack, residuals):
        assert abs(residual - dense(x)) <= 1e-12 * (1.0 + np.linalg.norm(x))
    single = _commutator_residuals(n_diag, stack[0])
    assert isinstance(single, float)
    assert abs(single - dense(stack[0])) <= 1e-12 * (1.0 + np.linalg.norm(stack[0]))
    rho = random_density(system, rng)
    assert abs(ssr_check(rho, n_op).residual - dense(rho.matrix)) <= 1e-12 * (
        1.0 + np.linalg.norm(rho.matrix))


@SETTINGS
@given(bipartitions(), seeds)
def test_particle_entanglement_equals_the_padded_sector_reference(case, seed):
    # E_P from zero-padded d x d sector states, reduced by partial_trace
    system, partition = case
    rho = random_density(system, np.random.default_rng(seed))
    occ = system.occupancies
    n_a = occ[:, partition.modes_of("A")].sum(axis=1)
    n_b = occ[:, partition.modes_of("B")].sum(axis=1)
    reference = 0.0
    for key in sorted(set(zip(n_a.tolist(), n_b.tolist()))):
        sel = np.nonzero((n_a == key[0]) & (n_b == key[1]))[0]
        block = rho.matrix[np.ix_(sel, sel)]
        weight = np.trace(block).real
        if weight < 1e-14:
            continue
        sector = DensityOperator(system, padded(system.dim, sel, block / weight))
        evals = np.linalg.eigvalsh(partial_trace(sector, partition, "A").matrix)
        evals = evals[evals > 1e-15]
        reference -= weight * (evals * np.log(evals)).sum()
    assert abs(particle_entanglement(rho, partition) - reference) <= 1e-12


@SETTINGS
@given(systems(restricted=False))
def test_annihilation_matches_its_defining_elements(system):
    for mode in range(system.n_modes):
        expected = np.zeros((system.dim, system.dim), dtype=complex)
        for col, occ in enumerate(system.occupancies):
            n = int(occ[mode])
            if n == 0:
                continue
            lowered = tuple(int(v) for v in occ[:mode]) + (n - 1,) \
                + tuple(int(v) for v in occ[mode + 1:])
            if system.modes[mode].statistics == FERMI:
                value = (-1.0) ** int(occ[:mode].sum())
            else:
                value = np.sqrt(n)
            expected[system.index_of(lowered), col] = value
        assert np.array_equal(annihilation(system, mode).matrix, expected)


@st.composite
def ladder_words(draw):
    """An unrestricted system and a word of 0-5 (mode, dagger) factors, leftmost
    first.  Cutoffs of 0-3 make raising past a cutoff, and a repeated fermionic
    raise or lower, common."""
    system = draw(systems(restricted=False))
    factor = st.tuples(st.integers(0, system.n_modes - 1), st.booleans())
    return system, tuple(draw(st.lists(factor, max_size=5)))


@SETTINGS
@given(ladder_words())
def test_ladder_product_entries_match_the_dense_product(case):
    system, word = case
    rows, cols, values = ladder_product(system, word)
    assert not any(arr.flags.writeable for arr in (rows, cols, values))
    scattered = np.zeros((system.dim, system.dim))
    scattered[rows, cols] = values
    dense = np.eye(system.dim)
    for mode, dagger in reversed(word):
        dense = (creation if dagger else annihilation)(system, mode).matrix @ dense
    assert np.count_nonzero(dense) == len(values)
    assert np.abs(scattered - dense).max() <= 1e-15


@SETTINGS
@given(systems(restricted=False, min_modes=2), seeds, st.tuples(*[st.integers(0, 2)] * 4))
def test_qcf_matches_the_dense_monomial_reference(system, seed, powers):
    n, m, l, k = powers
    rho = random_density(system, np.random.default_rng(seed))
    a, b = annihilation(system, 0).matrix, annihilation(system, 1).matrix
    power = np.linalg.matrix_power
    op = power(a.conj().T, n) @ power(a, m) @ power(b.conj().T, l) @ power(b, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # saturation is expected here
        value = qcf(rho, [(n, m, l, k)])[0]
    assert abs(value - expectation(rho, Operator(system, op))) <= 1e-12


@SETTINGS
@given(st.integers(1, 4))
def test_fermionic_anticommutation(n_modes):
    system = fermions(n_modes)
    eye = np.eye(system.dim)
    for i in range(n_modes):
        ci = annihilation(system, i).matrix
        for j in range(n_modes):
            cj = annihilation(system, j).matrix
            cj_dag = creation(system, j).matrix
            assert np.linalg.norm(ci @ cj_dag + cj_dag @ ci - (i == j) * eye) <= 1e-14
            assert np.linalg.norm(ci @ cj + cj @ ci) <= 1e-14


@SETTINGS
@given(mode_lists(min_modes=2, max_modes=2), st.booleans(), seeds)
def test_particle_entanglement_vanishes_on_number_diagonal_mixtures(modes, swap, seed):
    # single-mode subsystems: each (N_A, N_B) sector is one basis state
    system = ModeSystem(modes)
    a, b = ((1,), (0,)) if swap else ((0,), (1,))
    partition = Partition([("A", a), ("B", b)])
    mixture = random_number_diagonal_mixture(system, partition, np.random.default_rng(seed))
    assert abs(particle_entanglement(mixture.summed(), partition)) <= 1e-12


@st.composite
def commuting_observables(draw):
    """A system and two commuting Hermitian operators with degenerate spectra:
    the number operator of some modes and the total number operator; or
    U diag(a) U^H and U diag(b) U^H for small integer vectors a and b, with U
    one dense unitary or, on a system of dim >= BLOCK_MIN_DIM, one unitary per
    total-number sector, so that the operators conserve the total number and
    split into number blocks."""
    kind = draw(st.sampled_from(["number", "dense", "sectors"]))
    if kind == "number":
        system, keep, _ = draw(systems_with_kept_modes())
        n_kept = tensor_embed(number_op(sub_system(system, keep)), system, keep)
        return system, n_kept, number_op(system)
    system = draw(systems()) if kind == "dense" else bosons(2, draw(st.integers(6, 8)))
    labels = fock.number_diagonal(system) if kind == "sectors" else np.zeros(system.dim)
    rng = np.random.default_rng(draw(seeds))
    u = np.zeros((system.dim, system.dim), dtype=complex)
    for _, sel in sector_blocks(labels):
        g = rng.standard_normal((len(sel),) * 2) + 1j * rng.standard_normal((len(sel),) * 2)
        u[np.ix_(sel, sel)] = np.linalg.qr(g)[0]
    ops = []
    for _ in range(2):
        diag = draw(st.lists(st.integers(-2, 2), min_size=system.dim, max_size=system.dim))
        h = (u * np.array(diag, dtype=float)) @ u.conj().T
        ops.append(Operator(system, 0.5 * (h + h.conj().T)))
    return system, ops[0], ops[1]


def dense_projectors(observable):
    """Each outcome's projector from one dense ``eigh`` of the observable's
    operator, its eigenvectors grouped by their nearest outcome eigenvalue."""
    evals, vecs = np.linalg.eigh(observable.operator.matrix)
    near = np.abs(evals[:, None] - np.array(observable.eigenvalues)).argmin(axis=1)
    return [vecs[:, near == j] @ vecs[:, near == j].conj().T
            for j in range(len(observable.eigenvalues))]


def reference_moments(rho, target, projs, given):
    """Conditional mean and variance of ``target`` from explicit d x d projectors."""
    p_given = np.trace(given @ rho).real
    pmf = [np.trace(p @ given @ rho).real / p_given for p in projs]
    mean = sum(mu * c for mu, c in zip(target.eigenvalues, pmf))
    return mean, sum((mu - mean) ** 2 * c for mu, c in zip(target.eigenvalues, pmf))


@SETTINGS
@given(commuting_observables(), seeds)
def test_block_measurement_matches_the_explicit_projector_reference(case, seed):
    system, op_x, op_y = case
    rho = random_density(system, np.random.default_rng(seed))
    r = rho.matrix
    for target, given_obs in ((spectral(op_x), spectral(op_y)),
                              (spectral(op_y), spectral(op_x))):
        projs = dense_projectors(target)
        assert np.abs(sum(mu * p for mu, p in zip(target.eigenvalues, projs))
                      - target.operator.matrix).max() <= 1e-12
        for p, ref in zip(target.projectors, projs):
            assert np.abs(p.matrix - ref).max() <= 1e-12
            assert np.linalg.norm(p.matrix - p.matrix.conj().T) <= PROJ_ATOL
            assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= PROJ_ATOL

        probs = [p for _, p in outcome_distribution(rho, target).outcomes]
        assert np.allclose(probs, [np.trace(p @ r).real for p in projs], rtol=0, atol=1e-12)
        after = unrecorded_state(rho, target).matrix
        assert np.abs(after - sum(p @ r @ p for p in projs)).max() <= 1e-12

        given_projs = dense_projectors(given_obs)
        weights = [np.trace(p @ r).real for p in given_projs]
        given = given_projs[int(np.argmax(weights))]
        mean, var = reference_moments(r, target, projs, given)
        assert abs(cond_mean(rho, target, Operator(system, given)) - mean) <= 1e-12
        assert abs(cond_variance(rho, target, Operator(system, given)) - var) <= 1e-12

        kept = [(w, p) for w, p in zip(weights, given_projs) if w > PROB_FLOOR]
        expected = sum(w * reference_moments(r, target, projs, p)[1] for w, p in kept) \
            / sum(w for w, _ in kept)
        assert abs(unrecorded_conditioned_variance(rho, target, given_obs) - expected) <= 1e-12


@st.composite
def block_spectra(draw):
    """Component sizes, a seed and whether the spectrum is degenerate.  Sizes are
    many small blocks (1 x 1 ones among them) or one dense component, with
    totals on both sides of ``BLOCK_MIN_DIM``."""
    sizes = draw(st.one_of(
        st.lists(st.integers(1, 8), min_size=1, max_size=20),
        st.lists(st.integers(2, BLOCK_MIN_DIM + 24), min_size=1, max_size=1)))
    return sizes, draw(seeds), draw(st.booleans())


def permuted_blocks(sizes, eigenvalues, rng):
    """Hermitian matrix whose components, under a random basis permutation, are
    dense blocks of ``sizes`` with the consecutive runs of ``eigenvalues``."""
    dim = sum(sizes)
    mat = np.zeros((dim, dim), dtype=complex)
    start = 0
    for k in sizes:
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q = np.linalg.qr(g)[0]
        block = (q * eigenvalues[start:start + k]) @ q.conj().T
        mat[start:start + k, start:start + k] = 0.5 * (block + block.conj().T)
        start += k
    perm = rng.permutation(dim)
    return mat[np.ix_(perm, perm)]


def block_eigenvalues(sizes, rng, degenerate):
    # a degenerate spectrum repeats small integers across and within blocks;
    # otherwise the eigenvalues are distinct, at least 0.25 apart
    dim = sum(sizes)
    if degenerate:
        return rng.integers(-2, 3, size=dim).astype(float)
    return 0.25 * rng.permutation(dim) - 0.125 * dim


@SETTINGS
@given(block_spectra())
def test_block_solver_matches_the_dense_solve(case):
    sizes, seed, degenerate = case
    rng = np.random.default_rng(seed)
    mat = permuted_blocks(sizes, block_eigenvalues(sizes, rng, degenerate), rng)
    dim = len(mat)
    evals, vecs = np.linalg.eigh(mat)

    assert np.abs(np.sort(eigvalsh_blocks(mat)) - evals).max() <= 1e-12
    recon = np.zeros_like(mat)
    for idx, w, v in eigh_blocks(mat, True):
        assert idx.shape == w.shape and v.shape == idx.shape + idx.shape[-1:]
        if dim >= BLOCK_MIN_DIM and len(sizes) > 1:
            assert idx.shape[1] <= max(sizes)
        recon[idx[:, :, None], idx[:, None, :]] = \
            (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    assert np.abs(recon - mat).max() <= 1e-12

    op = Operator(bosons(1, dim - 1), mat)
    u = (vecs * np.exp(-0.7j * evals)) @ vecs.conj().T
    assert np.abs(evolution_operator(op, 0.7).matrix - u).max() <= 1e-12

    # the dense reference of spectral: the same merge rule on the sorted eigenvalues
    cuts = np.nonzero(np.diff(evals) > MERGE_TOL * max(evals[-1] - evals[0], 1.0))[0] + 1
    observable = spectral(op)
    assert len(observable.eigenvalues) == len(cuts) + 1
    for mu, proj, grp, ref in zip(observable.eigenvalues, observable.projectors,
                                  np.split(evals, cuts), np.split(vecs, cuts, axis=1)):
        assert abs(mu - grp.mean()) <= 1e-12
        assert np.abs(proj.matrix - ref @ ref.conj().T).max() <= 1e-12


@SETTINGS
@given(block_spectra())
def test_block_solver_finds_chained_components(case):
    # each component is a path, in a random order, so that one sweep of label
    # propagation cannot settle it
    sizes, seed, _ = case
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    mat = np.diag(rng.standard_normal(dim)).astype(complex)
    for c in range(len(sizes)):
        path = rng.permutation(np.nonzero(owner == c)[0])
        links = len(path) - 1
        coupling = rng.uniform(0.5, 1.5, links) * np.exp(2j * np.pi * rng.random(links))
        mat[path[1:], path[:-1]] = coupling
        mat[path[:-1], path[1:]] = coupling.conj()
    evals, vecs = np.linalg.eigh(mat)

    blocks = eigh_blocks(mat, True)
    if dim >= BLOCK_MIN_DIM:
        assert sorted(tuple(row) for idx, _, _ in blocks for row in idx) == \
            sorted(tuple(np.nonzero(owner == c)[0]) for c in range(len(sizes)))
    assert np.abs(np.sort(eigvalsh_blocks(mat)) - evals).max() <= 1e-12
    u = (vecs * np.exp(-0.7j * evals)) @ vecs.conj().T
    got = evolution_operator(Operator(bosons(1, dim - 1), mat), 0.7).matrix
    assert np.abs(got - u).max() <= 1e-12


@pytest.mark.parametrize("layout", ["descending", "random", "interleaved"])
def test_component_finder_settles_paths_in_logarithmic_sweeps(layout, monkeypatch):
    # laid out 0, d-1, d-2, ..., 1, a path hands the smallest label on one index
    # per sweep under propagation alone; hooking roots must not need that many
    dim = 300
    rng = np.random.default_rng(11)
    if layout == "descending":
        paths = [np.r_[0, dim - 1:0:-1]]
    elif layout == "random":
        paths = [rng.permutation(dim)]
    else:               # three paths, each in descending order, on interleaved indices
        paths = [np.r_[c, np.arange(c, dim, 3)[:0:-1]] for c in range(3)]
    mat = np.zeros((dim, dim))
    for path in paths:
        mat[path[1:], path[:-1]] = mat[path[:-1], path[1:]] = 1.0
    sweeps = []
    sweep = fock._label_sweep
    monkeypatch.setattr(fock, "_label_sweep", lambda *a: sweeps.append(1) or sweep(*a))

    labels = fock._component_labels(mat)
    for path in paths:
        assert (labels[path] == path.min()).all()
    assert len(sweeps) <= 2 * int(np.ceil(np.log2(dim)))


@SETTINGS
@given(block_spectra())
def test_density_check_rejects_a_negative_eigenvalue_in_one_block(case):
    sizes, seed, _ = case
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    if dim < 2:
        return
    system = bosons(1, dim - 1)
    lam = rng.uniform(0.0, 1.0, size=dim)
    low, other = rng.choice(dim, size=2, replace=False)
    lam[low] = 0.0
    lam /= lam.sum()
    state = rng.bit_generator.state
    DensityOperator(system, permuted_blocks(sizes, lam, rng))
    # the same blocks and permutation with one eigenvalue at -1e-9, trace kept at 1
    lam[low] -= 1e-9
    lam[other] += 1e-9
    rng.bit_generator.state = state
    with pytest.raises(ValueError, match="not positive semidefinite"):
        DensityOperator(system, permuted_blocks(sizes, lam, rng))


def _density_draws(rng, n, d):
    """n random d x d densities of random rank as one (n, d, d) stack."""
    stack = np.empty((n, d, d), dtype=complex)
    for i in range(n):
        g = rng.standard_normal((d, rng.integers(1, d + 1)))
        g = g + 1j * rng.standard_normal(g.shape)
        stack[i] = g @ g.conj().T
        stack[i] /= np.real(np.trace(stack[i]))
    return stack


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 9), seeds)
def test_a_stacked_check_gives_each_matrix_its_own_spectrum(d, n, seed):
    stack = _density_draws(np.random.default_rng(seed), n, d)
    spectra = fock._check_physical(stack)
    assert spectra.shape == (n, d)
    for mat, spectrum in zip(stack, spectra):
        assert spectrum.tobytes() == fock._check_physical(mat).tobytes()
    system = bosons(1, d - 1)
    rhos = fock._density_stack(system, stack)
    assert [rho.matrix.tobytes() for rho in rhos] == [mat.tobytes() for mat in stack]
    assert all(rho.system == system and not rho.matrix.flags.writeable for rho in rhos)


@pytest.mark.parametrize("seed", range(3))
def test_a_stack_at_the_block_size_keeps_each_matrix_block_solve(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    stack, largest = [], 0
    for _ in range(4):
        sizes = rng.multinomial(64 - 8, np.ones(8) / 8) + 1
        largest = max(largest, sizes.max())
        lam = rng.random(64)
        stack.append(permuted_blocks(sizes, lam / lam.sum(), rng))
    stack = np.stack(stack)
    assert stack.shape == (4, BLOCK_MIN_DIM + 16, BLOCK_MIN_DIM + 16)
    alone = [fock._check_physical(mat) for mat in stack]
    solved = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, solve=solve: solved.append(m.shape) or solve(m))
    spectra = fock._check_physical(stack)
    assert spectra.tobytes() == np.stack(alone).tobytes()
    # block by block, as each matrix alone: no dense solve of a whole matrix
    assert solved and max(shape[-1] for shape in solved) == largest < 64


def _anti_hermitian_noise(mat, rng):
    a = rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape)
    return mat + 1e-9 * (a - a.conj().T)


def _negative_eigenvalue(mat, rng):
    # the smallest eigenvalue moved to -1e-9, its weight to another: trace kept at 1
    lam, vecs = np.linalg.eigh(mat)
    lam[1] += lam[0] + 1e-9
    lam[0] = -1e-9
    out = (vecs * lam) @ vecs.conj().T
    return (out + out.conj().T) / 2


def _purity_above_one(mat, rng):
    # eigenvalues -5e-11, inside the PSD slack, and 1 + 5e-11, the rest 0:
    # trace 1, purity 1 + 1e-10
    lam, vecs = np.linalg.eigh(mat)
    lam[:] = 0.0
    lam[0], lam[-1] = -5e-11, 1.0 + 5e-11
    out = (vecs * lam) @ vecs.conj().T
    return (out + out.conj().T) / 2


def _nan_entry(mat, rng):
    out = mat.copy()
    out[tuple(rng.integers(len(mat), size=2))] = np.nan
    return out


SPOILERS = {
    "anti-Hermitian noise": (_anti_hermitian_noise, "not Hermitian"),
    "trace 1 + 1e-9": (lambda mat, rng: mat * (1 + 1e-9), "trace"),
    "eigenvalue -1e-9": (_negative_eigenvalue, "not positive semidefinite"),
    "purity 1 + 1e-10": (_purity_above_one, "purity"),
    "NaN entry": (_nan_entry, "not Hermitian"),
}


@pytest.mark.parametrize("kind", sorted(SPOILERS))
@SETTINGS
@given(st.integers(2, 6), st.integers(1, 9), seeds)
def test_one_bad_matrix_fails_the_stack_by_its_index(kind, d, n, seed):
    spoil, message = SPOILERS[kind]
    rng = np.random.default_rng(seed)
    stack = _density_draws(rng, n, d)
    pos = int(rng.integers(n))
    stack[pos] = spoil(stack[pos], rng)
    with pytest.raises(ValueError, match=f"^{message}"):
        fock._check_physical(stack[pos])
    with pytest.raises(ValueError, match=f"^stack matrix {pos}: {message}"):
        fock._check_physical(stack)
    with pytest.raises(ValueError, match=f"^stack matrix {pos}: {message}"):
        fock._density_stack(bosons(1, d - 1), stack)


@st.composite
def oracle_samples(draw):
    """Ragged oracle samples: one (lambda, P, C, D) row of 1 to 6 points each,
    lambda ascending, P with zeros, and D equal to C in some rows (equality)."""
    rng = np.random.default_rng(draw(seeds))
    rows = []
    for size in draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)):
        lam = np.sort(rng.random(size) * 4)
        p = rng.random(size) * (rng.random(size) < 0.8)
        c = rng.random(size) * 10
        d = c.copy() if rng.random() < 0.3 else rng.random(size) * 10
        rows.append((lam, p, c, d))
    return rows, rng


def padded_stack(rows):
    """The rows as (lambda, P, C, D) stacks, padded with P = C = D = 0 and a
    repeated last lambda."""
    width = max(len(row[0]) for row in rows)
    lam, p, c, d = np.zeros((4, len(rows), width))
    for i, (lam_i, p_i, c_i, d_i) in enumerate(rows):
        k = len(lam_i)
        lam[i, :k], lam[i, k:] = lam_i, lam_i[-1]
        p[i, :k], c[i, :k], d[i, :k] = p_i, c_i, d_i
    return lam, p, c, d


def oracle_verdicts(rows):
    """(sum, integral) verdicts of the rows stacked, and of each row alone."""
    lam, p, c, d = padded_stack(rows)
    stacked = (sum_inequality_oracle(p, c, d), integral_inequality_oracle(lam, p, c, d))
    alone = (all(sum_inequality_oracle(*row[1:]) for row in rows),
             all(integral_inequality_oracle(*row) for row in rows))
    return stacked, alone


@SETTINGS
@given(oracle_samples())
def test_stacked_oracles_hold_when_every_row_holds(case):
    rows, rng = case
    stacked, alone = oracle_verdicts(rows)
    assert stacked == alone == (True, True)
    # rows of one length stack with no padding
    k = min(len(row[0]) for row in rows)
    cut = [tuple(a[:k] for a in row) for row in rows]
    lam, p, c, d = (np.stack(a) for a in zip(*cut))
    assert sum_inequality_oracle(p, c, d) == all(sum_inequality_oracle(*r[1:]) for r in cut)
    assert integral_inequality_oracle(lam, p, c, d) == all(
        integral_inequality_oracle(*r) for r in cut)


@SETTINGS
@given(oracle_samples())
def test_one_failing_row_fails_the_stack(case):
    rows, rng = case
    # an overflowing row: its lhs and rhs are both inf, and inf - inf is NaN
    big = np.full(2, 1e200)
    bad = (np.array([0.0, 1.0]), np.ones(2), big, big)
    rows.insert(int(rng.integers(len(rows) + 1)), bad)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not sum_inequality_oracle(*bad[1:])
        assert not integral_inequality_oracle(*bad)
        assert oracle_verdicts(rows) == ((False, False), (False, False))


@SETTINGS
@given(oracle_samples(), st.sampled_from([-1e-300, -0.5, np.nan]))
def test_a_negative_or_nan_entry_in_any_row_is_rejected(case, bad):
    rows, rng = case
    i = int(rng.integers(len(rows)))
    j = int(rng.integers(len(rows[i][0])))
    which = int(rng.integers(1, 4))     # P, C or D
    rows[i][which][j] = bad
    lam, p, c, d = padded_stack(rows)
    with pytest.raises(ValueError, match="nonnegative"):
        sum_inequality_oracle(p, c, d)
    # the integral oracle checks w P, and a negative P may meet a zero
    # trapezoid weight (a one-point grid, or a repeated lambda)
    if which > 1 or np.isnan(bad):
        with pytest.raises(ValueError, match="nonnegative"):
            integral_inequality_oracle(lam, p, c, d)


# Reference single draws: the per-draw code the stacked samplers replace, in
# the stream order they keep.

def _reference_density(system, rng):
    dim = system.dim
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / np.real(np.trace(mat))


def _reference_global_ssr_state(system, rng):
    blocks = sector_blocks(system.occupancies.sum(axis=1))
    weights = rng.dirichlet(np.ones(len(blocks)))
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    for w, (_, sel) in zip(weights, blocks):
        k = len(sel)
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        block = g @ g.conj().T
        block *= w / np.real(np.trace(block))
        mat[np.ix_(sel, sel)] = block
    return mat


@SETTINGS
@given(systems(), seeds)
def test_single_state_draws_keep_the_per_draw_stream_and_bits(system, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for draw, reference in ((random_density, _reference_density),
                            (random_global_ssr_state, _reference_global_ssr_state)):
        rho = draw(system, rng)
        assert rho.matrix.tobytes() == reference(system, ref).tobytes()
        assert not rho.matrix.flags.writeable
    assert rng.random() == ref.random()


def _draw_bytes(draw):
    """A state's matrix, or a mixture's probabilities and factor matrices, as bytes."""
    if isinstance(draw, DensityOperator):
        assert not draw.matrix.flags.writeable
        return draw.matrix.tobytes()
    assert not draw.probabilities.flags.writeable
    out = [draw.probabilities.tobytes()]
    for name, stack in draw.factors.items():
        assert not stack.flags.writeable
        out += [name.encode(), stack.tobytes()]
    return b"|".join(out)


@SETTINGS
@given(systems(restricted=False, min_modes=2), st.data(), seeds, st.integers(1, 12))
def test_each_plural_sampler_draws_n_single_draws_bit_for_bit(system, data, seed, n):
    order = data.draw(st.permutations(range(system.n_modes)))
    k = data.draw(st.integers(1, system.n_modes - 1))
    part = Partition([("A", tuple(order[:k])), ("B", tuple(order[k:]))])
    samplers = [
        lambda rng, n: random_density(system, rng, n),
        lambda rng, n: random_global_ssr_state(system, rng, n),
        lambda rng, n: random_number_diagonal_mixture(system, part, rng, n),
        random_qubit_pair_mixture,
        random_one_boson_pair_mixture,
    ]
    for sample in samplers:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        many = sample(rng, n)
        assert len(many) == n
        assert [_draw_bytes(d) for d in many] == [_draw_bytes(sample(ref, None))
                                                  for _ in range(n)]
        assert rng.random() == ref.random()     # the generator is left in the same state


def _qcf_states(system, seed, n_random):
    """The vacuum, then ``n_random`` Ginibre states and as many number-block states."""
    rng = np.random.default_rng(seed)
    states = [system.vacuum()]
    if n_random:
        states += random_density(system, rng, n_random)
        states += random_global_ssr_state(system, rng, n_random)
    return states


powers_lists = st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=12)


@SETTINGS
@given(systems(restricted=False, min_modes=2), seeds, st.integers(0, 4), powers_lists)
def test_a_qcf_table_equals_the_loop_of_qcf_calls(system, seed, n_random, powers):
    states = _qcf_states(system, seed, n_random)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = qcf(states, powers)
        loop = np.array([[qcf(state, [p])[0] for p in powers] for state in states])
    assert table.shape == (len(states), len(powers)) and table.dtype == complex
    assert table.tobytes() == loop.tobytes()
    # the forbidden functions vanish exactly on the number-block states
    forbidden = [j for j, (n, m, l, k) in enumerate(powers) if n + l != m + k]
    assert not table[1 + n_random:, forbidden].any()


def _reference_qcf(state, n, m, l, k):
    """The per-call ``qcf`` of the one-state implementation: one complex dot
    of the monomial's values with the gathered entries."""
    rho = as_density(state)
    rows, cols, values = ladder_product(
        rho.system, ((0, True),) * n + ((0, False),) * m + ((1, True),) * l + ((1, False),) * k)
    return complex(values @ rho.matrix[cols, rows]), np.abs(values).sum()


@SETTINGS
@given(systems(restricted=False, min_modes=2), seeds, st.integers(1, 4), powers_lists)
def test_qcf_equals_the_one_dot_per_call_up_to_rounding(system, seed, n_random, powers):
    # the table sums each entry's terms in order, the dot in blocks: the
    # results may differ in the last bits, never by more than rounding
    states = _qcf_states(system, seed, n_random)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for state in states:
            for p in powers:
                expected, scale = _reference_qcf(state, *p)
                assert abs(qcf(state, [p])[0] - expected) <= 1e-13 * (1.0 + scale)


def _runtime_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


@SETTINGS
@given(systems(restricted=False, min_modes=2), seeds, st.integers(0, 2), powers_lists)
def test_a_qcf_table_warns_once_exactly_when_some_pair_saturates(system, seed, n_random,
                                                                  powers):
    states = _qcf_states(system, seed, n_random)
    single = [len(_runtime_warnings(lambda: qcf(state, [p])))
              for state in states for p in powers]
    assert set(single) <= {0, 1}
    assert len(_runtime_warnings(lambda: qcf(states, powers))) == max(single)


def _random_hermitian(system, rng, conserving=False):
    """A Gaussian Hermitian operator; ``conserving`` zeroes its entries between
    different total numbers, so that it commutes with the total number."""
    g = rng.standard_normal((system.dim,) * 2) + 1j * rng.standard_normal((system.dim,) * 2)
    h = 0.5 * (g + g.conj().T)
    if conserving:
        totals = fock.number_diagonal(system)
        h *= totals[:, None] == totals[None, :]
    return Operator(system, h)


@SETTINGS
@given(systems(), seeds, st.floats(-3.0, 3.0))
def test_evolution_is_unitary_and_keeps_the_trace_under_a_conserving_hamiltonian(system, seed,
                                                                                 t):
    rng = np.random.default_rng(seed)
    h = _random_hermitian(system, rng, conserving=True)
    u = evolution_operator(h, t)
    eye = np.eye(system.dim)
    assert np.linalg.norm(u.matrix.conj().T @ u.matrix - eye) <= 1e-12
    assert np.linalg.norm(u.matrix @ u.matrix.conj().T - eye) <= 1e-12
    for evolved in (apply_unitary(u, random_density(system, rng)),
                    unitary_evolve(h, t, random_density(system, rng))):
        assert abs(np.trace(evolved.matrix) - 1.0) <= 1e-12
    # a pure state is evolved per component, with no unitary formed
    psi = random_pure(system, rng)
    pure = unitary_evolve(h, t, psi)
    assert abs(np.linalg.norm(pure.amplitudes) - 1.0) <= 1e-12
    assert np.abs(pure.amplitudes - u.matrix @ psi.amplitudes).max() <= 1e-12
    times = [t, -0.5 * t, 0.0]
    many = unitary_evolve(h, times, psi)
    assert [state.amplitudes.tobytes() for state in many] == \
        [unitary_evolve(h, s, psi).amplitudes.tobytes() for s in times]
    assert np.abs(many[2].amplitudes - psi.amplitudes).max() <= 1e-12


@SETTINGS
@given(st.one_of(systems(), st.builds(bosons, st.just(2), st.integers(6, 12))), seeds,
       st.floats(-3.0, 3.0))
def test_a_density_evolves_block_by_block_as_the_dense_unitary_does(system, seed, t):
    # bosons(2, 6..12) runs from dim 49 to 169, so a conserving H there
    # splits into number blocks above BLOCK_MIN_DIM
    rng = np.random.default_rng(seed)
    h = _random_hermitian(system, rng, conserving=True)
    rho = random_density(system, rng)
    evals, vecs = np.linalg.eigh(h.matrix)
    u = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
    evolved = unitary_evolve(h, t, rho)
    assert np.abs(evolved.matrix - u @ rho.matrix @ u.conj().T).max() <= 1e-12
    times = [t, 0.0, -2.0 * t]
    many = unitary_evolve(h, times, rho)
    assert [state.matrix.tobytes() for state in many] == \
        [unitary_evolve(h, s, rho).matrix.tobytes() for s in times]
    assert many[0].matrix.tobytes() == evolved.matrix.tobytes()


def _per_outcome_unrecorded_variance(states, target, given_obs):
    """unrecorded_conditioned_variance one conditioning outcome at a time, as the
    reference: P(i) = Tr(P_i rho), then the target's pmf from the diagonal of
    V^H (P_i rho) V by ``_block_probs``, per outcome."""
    from focklab.measurement import _block_probs
    stack = np.array([as_density(state).matrix for state in states])
    total = weight = np.zeros(len(stack))
    for proj in given_obs.projectors:
        p_i = np.einsum("ij,nji->n", proj.matrix, stack).real
        kept = p_i > PROB_FLOOR
        if not kept.any():
            continue
        pmf = (_block_probs(proj.matrix @ stack, target) / np.where(kept, p_i, 1.0)[:, None]).T
        mean = sum(mu * c for mu, c in zip(target.eigenvalues, pmf))
        var = sum((mu - mean) ** 2 * c for mu, c in zip(target.eigenvalues, pmf))
        total = total + np.where(kept, p_i * var, 0.0)
        weight = weight + np.where(kept, p_i, 0.0)
    return total / weight


@SETTINGS
@given(commuting_observables(), seeds, st.integers(1, 4))
def test_the_unrecorded_variance_matches_the_per_outcome_reference(case, seed, n):
    system, op_x, op_y = case
    rng = np.random.default_rng(seed)
    states = list(random_density(system, rng, n)) + [random_pure(system, rng)]
    for target, given_obs in ((spectral(op_x), spectral(op_y)),
                              (spectral(op_y), spectral(op_x))):
        with warnings.catch_warnings():
            # a state may skip an outcome below the floor and renormalise
            warnings.simplefilter("ignore", RuntimeWarning)
            got = unrecorded_conditioned_variance(states, target, given_obs)
            want = _per_outcome_unrecorded_variance(states, target, given_obs)
        assert np.abs(got - want).max() <= 1e-12


@SETTINGS
@given(commuting_observables(), seeds, st.integers(1, 4))
def test_unrecorded_state_keeps_the_trace_and_the_measured_populations(case, seed, n):
    system, op_x, op_y = case
    rng = np.random.default_rng(seed)
    states = list(random_density(system, rng, n)) + [random_pure(system, rng)]
    for obs in (spectral(op_x), spectral(op_y)):
        after = unrecorded_state(states, obs)
        for state, out in zip(states, after):
            assert out.matrix.tobytes() == unrecorded_state(state, obs).matrix.tobytes()
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
            before = [p for _, p in outcome_distribution(state, obs).outcomes]
            kept = [p for _, p in outcome_distribution(out, obs).outcomes]
            assert np.abs(np.subtract(before, kept)).max() <= 1e-12


@SETTINGS
@given(systems(), seeds)
def test_outcome_distribution_of_a_random_hermitian_observable_sums_to_one(system, seed):
    rng = np.random.default_rng(seed)
    obs = spectral(_random_hermitian(system, rng))
    for state in (random_density(system, rng), random_pure(system, rng)):
        probs = np.array([p for _, p in outcome_distribution(state, obs).outcomes])
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs.min() >= -PROB_FLOOR


@SETTINGS
@given(commuting_observables(), seeds, st.integers(1, 5))
def test_stacked_measurements_equal_the_loop_of_single_calls_bit_for_bit(case, seed, n):
    system, op_x, op_y = case
    rng = np.random.default_rng(seed)
    states = list(random_density(system, rng, n)) + [random_pure(system, rng)]
    target, given_obs = spectral(op_x), spectral(op_y)
    for proj in given_obs.projectors:
        assert prob(states, proj).tobytes() == \
            np.array([prob(state, proj) for state in states]).tobytes()
    pair = [target.projectors[0], given_obs.projectors[-1]]
    assert joint_prob(states, pair).tobytes() == \
        np.array([joint_prob(state, pair) for state in states]).tobytes()
    assert [rho.matrix.tobytes() for rho in unrecorded_state(states, target)] == \
        [unrecorded_state(state, target).matrix.tobytes() for state in states]
    with warnings.catch_warnings():
        # a state may skip an outcome below the floor and renormalise
        warnings.simplefilter("ignore", RuntimeWarning)
        stacked = unrecorded_conditioned_variance(states, target, given_obs)
        alone = [unrecorded_conditioned_variance(state, target, given_obs) for state in states]
    assert stacked.tobytes() == np.array(alone).tobytes()


@SETTINGS
@given(bipartitions(), seeds, st.integers(1, 4))
def test_stacked_entanglement_and_partial_traces_equal_the_loop_of_single_calls(case, seed, n):
    system, partition = case
    rng = np.random.default_rng(seed)
    states = list(random_density(system, rng, n)) + list(random_global_ssr_state(system, rng, n))
    # repr shows every bit of a float, and the sign of a zero
    assert [repr(ep) for ep in particle_entanglement(states, partition)] == \
        [repr(particle_entanglement(state, partition)) for state in states]
    for keep in partition.names:
        assert [rho.matrix.tobytes() for rho in partial_trace(states, partition, keep)] == \
            [partial_trace(state, partition, keep).matrix.tobytes() for state in states]


@SETTINGS
@given(systems(restricted=False, min_modes=2), st.data(), seeds, st.integers(1, 5))
def test_stacked_separability_checks_equal_the_loop_of_single_calls(system, data, seed, n):
    order = data.draw(st.permutations(range(system.n_modes)))
    k = data.draw(st.integers(1, system.n_modes - 1))
    part = Partition([("A", tuple(order[:k])), ("B", tuple(order[k:]))])
    rng = np.random.default_rng(seed)
    # locally compliant factors, then generic qubit factors that are not
    for mixtures in (random_number_diagonal_mixture(system, part, rng, n),
                     random_qubit_pair_mixture(rng, n)):
        assert separable_ssr_theorem_check(mixtures) == \
            [separable_ssr_theorem_check(mixture) for mixture in mixtures]


@SETTINGS
@given(seeds, st.integers(1, 6))
def test_stacked_interferometer_and_extraction_equal_the_loop_of_single_calls(seed, n):
    rng = np.random.default_rng(seed)
    w, phase_a, phase_b, delta, tau = rng.random((n, 5)).T
    alphas, betas = np.sqrt(1.0 - w) * np.exp(2j * np.pi * phase_a), np.sqrt(w) * np.exp(
        2j * np.pi * phase_b)
    delta, tau = 0.1 + 2.9 * delta, 0.1 + 2.9 * tau
    p10, p01 = ramsey_vacuum_superposition(alphas, betas, delta, tau)
    alone = np.array([ramsey_vacuum_superposition(*args)
                      for args in zip(alphas, betas, delta, tau)])
    assert p10.tobytes() == alone[:, 0].tobytes() and p01.tobytes() == alone[:, 1].tobytes()
    r_values = rng.uniform(0.1, 0.9, n)
    t_values = np.sqrt(1.0 - r_values ** 2)
    for case in ("two_boson", "three_boson", "two_fermion"):
        for result, r, t in zip(extraction_experiment(case, r_values, t_values),
                                r_values, t_values):
            single = extraction_experiment(case, r, t)
            assert [state.amplitudes.tobytes() for _, state in result.stages] == \
                [state.amplitudes.tobytes() for _, state in single.stages]
            assert result.quantities == single.quantities
