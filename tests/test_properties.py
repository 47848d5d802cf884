"""Property tests of the basis bookkeeping, the trace contractions and the
measurement algebra over random small mode systems."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from focklab import (
    DensityOperator,
    ModeSystem,
    Operator,
    Partition,
    annihilation,
    creation,
    expectation,
    fermions,
    number_op,
    partial_trace,
    particle_entanglement,
    qcf,
    sector_decompose,
    spectral,
    tensor_embed,
    twirl,
)
from focklab.fock import FERMI, ladder_product, sub_system
from focklab.measurement import (
    PROB_FLOOR,
    PROJ_ATOL,
    cond_mean,
    cond_variance,
    outcome_distribution,
    unrecorded_conditioned_variance,
    unrecorded_state,
)
from focklab.sampling import random_density, random_number_diagonal_mixture

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


@SETTINGS
@given(systems())
def test_indices_of_the_basis_is_arange(system):
    assert np.array_equal(system.indices_of(system.occupancies), np.arange(system.dim))


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
        value = qcf(rho, n, m, l, k)
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
    U diag(a) U^H and U diag(b) U^H for small integer vectors a and b, or the
    number operator of some modes and the total number operator."""
    if draw(st.booleans()):
        system, keep, _ = draw(systems_with_kept_modes())
        n_kept = tensor_embed(number_op(sub_system(system, keep)), system, keep)
        return system, n_kept, number_op(system)
    system = draw(systems())
    rng = np.random.default_rng(draw(seeds))
    g = rng.standard_normal((system.dim, system.dim)) \
        + 1j * rng.standard_normal((system.dim, system.dim))
    u = np.linalg.qr(g)[0]
    ops = []
    for _ in range(2):
        diag = draw(st.lists(st.integers(-2, 2), min_size=system.dim, max_size=system.dim))
        h = (u * np.array(diag, dtype=float)) @ u.conj().T
        ops.append(Operator(system, 0.5 * (h + h.conj().T)))
    return system, ops[0], ops[1]


def reference_moments(rho, target, given):
    """Conditional mean and variance of ``target`` from explicit d x d projectors."""
    p_given = np.trace(given @ rho).real
    pmf = [np.trace(b @ b.conj().T @ given @ rho).real / p_given for b in target.blocks]
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
        projs = [b @ b.conj().T for b in target.blocks]
        for p in target.projectors:
            assert np.linalg.norm(p.matrix - p.matrix.conj().T) <= PROJ_ATOL
            assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= PROJ_ATOL

        probs = [p for _, p in outcome_distribution(rho, target).outcomes]
        assert np.allclose(probs, [np.trace(p @ r).real for p in projs], rtol=0, atol=1e-12)
        after = unrecorded_state(rho, target).matrix
        assert np.abs(after - sum(p @ r @ p for p in projs)).max() <= 1e-12

        given_projs = [b @ b.conj().T for b in given_obs.blocks]
        weights = [np.trace(p @ r).real for p in given_projs]
        given = given_projs[int(np.argmax(weights))]
        mean, var = reference_moments(r, target, given)
        assert abs(cond_mean(rho, target, Operator(system, given)) - mean) <= 1e-12
        assert abs(cond_variance(rho, target, Operator(system, given)) - var) <= 1e-12

        kept = [(w, p) for w, p in zip(weights, given_projs) if w > PROB_FLOOR]
        expected = sum(w * reference_moments(r, target, p)[1] for w, p in kept) \
            / sum(w for w, _ in kept)
        assert abs(unrecorded_conditioned_variance(rho, target, given_obs) - expected) <= 1e-12
