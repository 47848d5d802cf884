"""Property tests of the basis bookkeeping over random small mode systems."""

import numpy as np
from hypothesis import given, settings, strategies as st

from focklab import (
    ModeSystem,
    Operator,
    Partition,
    annihilation,
    creation,
    fermions,
    number_op,
    partial_trace,
    particle_entanglement,
    sector_decompose,
    tensor_embed,
    twirl,
)
from focklab.fock import FERMI, sub_system
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
def systems(draw, restricted=True):
    modes = draw(mode_lists())
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
@given(systems(), seeds)
def test_twirl_is_idempotent_and_sector_weights_sum_to_one(system, seed):
    rho = random_density(system, np.random.default_rng(seed))
    n_op = number_op(system)
    tw = twirl(rho, n_op)
    assert np.array_equal(twirl(tw, n_op).matrix, tw.matrix)
    sectors = sector_decompose(rho, n_op).sectors
    assert abs(sum(s.weight for s in sectors) - 1.0) <= 1e-12
    rebuilt = sum(s.weight * s.state.matrix for s in sectors)
    assert np.abs(rebuilt - tw.matrix).max() <= 1e-12


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
