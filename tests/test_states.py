import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson, unitary_group

from focklab import (
    DensityOperator,
    ModeSystem,
    Partition,
    bosons,
    expectation,
    number_op,
    partial_trace,
    ssr_check,
)
from focklab.states import (
    SeparableMixture,
    bell_one_boson,
    binomial_state,
    coherent,
    _mean_within_cutoff,
    coherent_amplitudes,
    dissociation_state,
    mixture_stack,
    ghz,
    mixed_N_boson,
    poisson_pmf,
    rotated_mode_annihilation,
    singlet_spin,
    summed_stack,
    two_mode_N_boson,
    two_mode_coherent_mixture,
    verstraete_state,
    werner_qudit,
)
from focklab.fock import _sub_codes, qubits, sub_system
from focklab.sampling import (
    _flat_dirichlet,
    random_density,
    random_global_ssr_state,
    random_number_diagonal_mixture,
    random_one_boson_pair_mixture,
    random_qubit_pair_mixture,
)


@pytest.mark.parametrize("mu", [0.0, 0.5, 2.0, 50.0, 250.0])
def test_poisson_pmf_matches_scipy(mu):
    n = np.arange(1001)
    got = poisson_pmf(n, mu)
    ref = poisson.pmf(n, mu)
    assert np.all(np.abs(got - ref) <= np.maximum(1e-15, 1e-12 * ref))
    assert poisson_pmf(0, mu) == pytest.approx(np.exp(-mu), rel=1e-15)


def test_poisson_pmf_over_a_column_of_means_equals_each_mean_alone():
    # np.log and math.log differ in the last bit of about 1 mean in 3000
    mu = np.concatenate([[0.0], np.random.default_rng(0).random(20000) * 50.0])
    n = np.arange(6)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    want = np.array([(n == 0).astype(float) if m == 0
                     else np.exp(n * math.log(m) - m - log_fact) for m in mu])
    assert poisson_pmf(n, mu[:, None]).tobytes() == want.tobytes()
    assert poisson_pmf(n, 0.0).tobytes() == (n == 0).astype(float).tobytes()


def test_stacked_means_equal_each_scalar_square():
    # the array square a * a and the scalar power differ in about 1 in 1000
    mags = np.random.default_rng(1).random(20000) * 3.0
    want = np.array([np.float64(a) ** 2 for a in mags.tolist()])
    assert _mean_within_cutoff(mags, 40).tobytes() == want.tobytes()
    assert _mean_within_cutoff(mags[7], 40) == want[7]


def test_coherent_zero_is_vacuum():
    state = coherent(0.0, 5)
    assert state.amplitude((0,)) == pytest.approx(1.0)
    assert np.linalg.norm(state.amplitudes[1:]) == 0.0


def test_coherent_amplitude_closed_form():
    state = coherent(np.sqrt(2.0), 30)
    expected = np.exp(-1.0) * 2.0 / np.sqrt(2.0)
    assert abs(state.amplitude((2,))) == pytest.approx(expected, abs=1e-12)


def test_coherent_requires_enough_cutoff():
    with pytest.raises(ValueError, match="insufficient cutoff"):
        coherent(3.0, 10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [np.nan, np.inf, complex(0.5, np.nan)])
def test_coherent_rejects_non_finite_amplitude(beta):
    with pytest.raises(ValueError, match="not finite"):
        coherent(beta, 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [coherent, two_mode_coherent_mixture])
def test_huge_amplitude_needs_more_cutoff(make):
    # |1e200|^2 overflows a float; the cutoff check rejects it all the same
    with pytest.raises(ValueError, match="insufficient cutoff"):
        make(1e200, 5)


def _reference_tail(amplitude, cutoff):
    """The mean and Poisson tail of one coherent mode, as the per-state check had them."""
    with np.errstate(over="ignore", invalid="ignore"):
        nbar = np.float64(amplitude) ** 2
        n = np.arange(cutoff + 1)
        if nbar == 0:
            pmf = (n == 0).astype(float)
        else:
            log_fact = np.array([math.lgamma(k + 1.0) for k in n])
            pmf = np.exp(n * math.log(nbar) - nbar - log_fact)
        return float(nbar), 1.0 - pmf.sum()


def _reference_coherent(beta, cutoff):
    """One coherent state's amplitudes by the scalar recurrence, state by state."""
    beta = complex(beta)
    nbar, tail = _reference_tail(abs(beta), cutoff)
    assert tail <= 1e-10
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for k in range(1, cutoff + 1):
        amps[k] = amps[k - 1] * beta / np.sqrt(k)
    amps *= np.exp(-nbar / 2.0)
    amps /= np.linalg.norm(amps)
    return amps


@functools.cache
def _tail_limit(cutoff):
    """(largest passing, smallest failing) |beta| at ``cutoff``, adjacent floats."""
    lo, hi = 0.0, 2.0 * math.sqrt(cutoff + 1.0) + 2.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if _reference_tail(mid, cutoff)[1] <= 1e-10 else (lo, mid)
    return lo, hi


@st.composite
def coherent_stacks(draw):
    """A cutoff and 1-8 amplitudes: zero, anywhere below the tail limit, or
    within a few ulps of it on either side, each at a random phase."""
    cutoff = draw(st.integers(0, 25))
    lo, hi = _tail_limit(cutoff)
    betas = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["zero", "below", "limit"]))
        if kind == "zero":
            betas.append(complex(draw(st.sampled_from([0.0, -0.0])), 0.0))
            continue
        mag = (lo * draw(st.floats(0.0, 1.0)) if kind == "below"
               else draw(st.sampled_from([lo, hi])) * (1.0 + 2.0 ** -52 * draw(st.integers(-4, 4))))
        phase = draw(st.floats(-np.pi, np.pi))
        betas.append(mag * complex(math.cos(phase), math.sin(phase)))
    return cutoff, betas


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(coherent_stacks())
def test_each_row_of_the_stack_is_the_state_built_alone(case):
    cutoff, betas = case
    # the rounded tail is not monotone in |beta| within a few ulps of the
    # limit, so which rows fail is read off the per-state check
    tails = [_reference_tail(abs(complex(b)), cutoff)[1] for b in betas]
    failing = [i for i, tail in enumerate(tails) if not tail <= 1e-10]
    if failing:
        i = failing[0]
        with pytest.raises(ValueError, match=re.escape(
                f"insufficient cutoff: Poisson tail {tails[i]:.3e} (row {i})")):
            coherent_amplitudes(betas, cutoff)
        return
    amps = coherent_amplitudes(betas, cutoff)
    assert amps.shape == (len(betas), cutoff + 1)
    assert not amps.flags.writeable
    for row, beta in zip(amps, betas):
        assert row.tobytes() == _reference_coherent(beta, cutoff).tobytes()
    assert coherent(betas[0], cutoff).amplitudes.tobytes() == amps[0].tobytes()


@pytest.mark.parametrize("bad", ["nan", "inf", "tail"])
@pytest.mark.parametrize("seed", range(3))
def test_one_bad_row_fails_the_stack_with_the_single_state_message(bad, seed):
    rng = np.random.default_rng(seed)
    cutoff = 12
    betas = list(_tail_limit(cutoff)[0] * rng.random(6) * np.exp(2j * np.pi * rng.random(6)))
    i = int(rng.integers(len(betas) + 1))
    if bad == "tail":
        beta = complex(1.01 * _tail_limit(cutoff)[1] * np.exp(2j * np.pi * rng.random()))
        message = f"insufficient cutoff: Poisson tail {_reference_tail(abs(beta), cutoff)[1]:.3e}"
    else:
        beta = complex(float(bad), 0.3)
        message = f"coherent amplitude {beta} is not finite"
    betas.insert(i, beta)
    with pytest.raises(ValueError, match=re.escape(f"{message} (row {i})")):
        coherent_amplitudes(betas, cutoff)
    with pytest.raises(ValueError, match=re.escape(message)):
        coherent(beta, cutoff)


def test_bell_states():
    psi_minus = bell_one_boson("psi-")
    assert psi_minus.amplitude((0, 1)) == pytest.approx(1 / np.sqrt(2))
    assert psi_minus.amplitude((1, 0)) == pytest.approx(-1 / np.sqrt(2))
    with pytest.raises(ValueError):
        bell_one_boson("sigma+")


def test_phi_bell_combinations_are_fock_states():
    phi_p = bell_one_boson("phi+").amplitudes
    phi_m = bell_one_boson("phi-").amplitudes
    system = bell_one_boson("phi+").system
    vac = (phi_p + phi_m) / np.sqrt(2.0)
    two = (phi_p - phi_m) / np.sqrt(2.0)
    expected_vac = system.basis_state((0, 0)).amplitudes
    expected_two = system.basis_state((1, 1)).amplitudes
    assert np.abs(vac - expected_vac).max() < 1e-12
    assert np.abs(two - expected_two).max() < 1e-12


def test_binomial_state_limits():
    all_a = binomial_state(0.0, 0.0, 3)
    assert abs(all_a.amplitude((3, 0))) == pytest.approx(1.0)
    one = binomial_state(np.pi / 4, 0.0, 1)
    assert one.amplitude((1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert one.amplitude((0, 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_binomial_state_amplitudes_explicit():
    theta, chi, n = 0.7, 0.9, 4
    state = binomial_state(theta, chi, n)
    from math import comb
    for k in range(n + 1):
        expected = (np.sqrt(comb(n, k)) * np.cos(theta) ** k
                    * np.sin(theta) ** (n - k) * np.exp(1j * (n - 2 * k) * chi / 2))
        assert state.amplitude((k, n - k)) == pytest.approx(expected, abs=1e-12)


def test_binomial_state_matches_rotated_mode_construction():
    # independent route: apply the rotated-mode creation operator N times
    theta, chi, n = 1.1, -0.6, 3
    state = binomial_state(theta, chi, n)
    system = state.system
    c_dag = rotated_mode_annihilation(system, theta, chi).dag()
    vec = system.vacuum().amplitudes
    for _ in range(n):
        vec = c_dag.matrix @ vec
    vec = vec / np.linalg.norm(vec)
    overlap = abs(np.vdot(vec, state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    # and the phases agree, not just the modulus
    assert np.abs(vec - state.amplitudes).max() < 1e-12


def test_werner_trace_and_physicality():
    for d in (2, 3):
        for phi in (-0.5, 0.0, 0.7, 1.0):
            rho = werner_qudit(d, phi)
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-14


def test_werner_phi_one_symmetric_form():
    rho = werner_qudit(2, 1.0)
    system = rho.system
    flip = np.zeros((4, 4), dtype=complex)
    for r in range(2):
        for s in range(2):
            flip[system.index_of((r, s)), system.index_of((s, r))] = 1.0
    expected = (np.eye(4) + flip) / 6.0
    assert np.abs(rho.matrix - expected).max() < 1e-14


def test_werner_uxu_invariance():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        rho = werner_qudit(d, 0.4)
        for _ in range(20):
            u = unitary_group.rvs(d, random_state=rng)
            uu = np.kron(u, u)
            rotated = uu @ rho.matrix @ uu.conj().T
            assert np.abs(rotated - rho.matrix).max() < 1e-10


def test_werner_rejects_unphysical_phi():
    # far outside the PSD range the construction must refuse
    with pytest.raises(ValueError, match="positive"):
        werner_qudit(2, 5.0)


def test_verstraete_forms_agree():
    rho_mix, mixture = verstraete_state("mixture")
    rho_sec = verstraete_state("sectorized")
    assert np.abs(rho_mix.matrix - rho_sec.matrix).max() < 1e-14
    assert mixture.probabilities.shape == (4,)
    assert [stack.shape for stack in mixture.factors.values()] == [(4, 2, 2)] * 2


def test_verstraete_component_local_ssr_fails():
    _, mixture = verstraete_state("mixture")
    for name, stack in mixture.factors.items():
        sub = sub_system(mixture.system, mixture.partition.modes_of(name))
        for factor in stack:
            rep = ssr_check(DensityOperator(sub, factor), number_op(sub))
            assert not rep.compliant


def test_verstraete_global_ssr_holds():
    rho, _ = verstraete_state("mixture")
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
    assert ssr_check(rho, number_op(rho.system), tol=1e-12).compliant


def test_two_mode_coherent_mixture_selection_rule():
    rho = two_mode_coherent_mixture(1.0, 15)
    occ = rho.system.occupancies
    totals = occ.sum(axis=1)
    off_sector = rho.matrix[totals[:, None] != totals[None, :]]
    assert np.abs(off_sector).max() == 0.0


def test_two_mode_coherent_mixture_reduced_poisson():
    alpha = 1.0
    rho = two_mode_coherent_mixture(alpha, 15)
    part = Partition([("A", (0,)), ("B", (1,))])
    for name in ("A", "B"):
        reduced = partial_trace(rho, part, name)
        off = reduced.matrix - np.diag(np.diag(reduced.matrix))
        assert np.abs(off).max() < 1e-14
        target = poisson.pmf(np.arange(16), alpha ** 2)
        target /= target.sum()
        assert np.abs(reduced.diagonal() - target).max() < 1e-10


def test_two_mode_coherent_mixture_matches_quadrature():
    alpha, cutoff, n_phases = 1.0, 15, 256
    rho = two_mode_coherent_mixture(alpha, cutoff)
    quad = np.zeros_like(rho.matrix)
    for theta in 2.0 * np.pi * np.arange(n_phases) / n_phases:
        single = coherent(alpha * np.exp(-1j * theta), cutoff).amplitudes
        vec = np.kron(single, single)
        quad += np.outer(vec, vec.conj()) / n_phases
    assert np.abs(rho.matrix - quad).max() < 1e-10


def test_dissociation_single_component_is_product():
    psi = dissociation_state(2, [0.0, 1.0, 0.0])
    part = Partition([("mol", (0,)), ("atom", (1,))])
    reduced = partial_trace(psi, part, "atom")
    evals = np.linalg.eigvalsh(reduced.matrix)
    assert evals.max() == pytest.approx(1.0, abs=1e-12)


def test_two_mode_N_boson_fixed_total():
    n = 4
    psi = two_mode_N_boson(np.ones(n + 1) / np.sqrt(n + 1))
    rep = ssr_check(psi, number_op(psi.system), tol=1e-12)
    assert rep.compliant
    assert expectation(psi, number_op(psi.system)) == pytest.approx(n)


def test_mixed_N_boson_diagonal_and_compliant():
    probs = np.array([0.2, 0.3, 0.5])
    rho = mixed_N_boson(probs)
    assert ssr_check(rho, number_op(rho.system), tol=1e-12).compliant
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.abs(off).max() == 0.0


def test_separable_mixture_summed_matches_direct_sum():
    rng = np.random.default_rng(1)
    system = bosons(2, 1)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    factors = {"A": [], "B": []}
    expected = np.zeros((4, 4), dtype=complex)
    probs = rng.dirichlet(np.ones(3))
    for p in probs:
        fa = random_density(sub_a, rng)
        fb = random_density(sub_b, rng)
        factors["A"].append(fa.matrix)
        factors["B"].append(fb.matrix)
        expected += p * np.kron(fa.matrix, fb.matrix)
    mix = SeparableMixture(system, part, probs,
                           {name: np.array(mats) for name, mats in factors.items()})
    assert np.abs(mix.summed().matrix - expected).max() < 1e-13


def test_separable_mixture_interleaved_partition():
    # subsystem modes need not be contiguous: A = modes (0, 2), B = mode 1
    rng = np.random.default_rng(2)
    system = bosons(3, 1)
    part = Partition([("A", (0, 2)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0], system.modes[2]])
    sub_b = ModeSystem([system.modes[1]])
    fa = random_density(sub_a, rng)
    fb = random_density(sub_b, rng)
    mix = SeparableMixture(system, part, [1.0], {"A": fa.matrix[None], "B": fb.matrix[None]})
    rho = mix.summed()
    assert np.abs(partial_trace(rho, part, "A").matrix - fa.matrix).max() < 1e-12
    assert np.abs(partial_trace(rho, part, "B").matrix - fb.matrix).max() < 1e-12


# Reference samplers: one draw and one checked DensityOperator per factor, in
# the stream order the stacked samplers keep.  Each returns (system, partition,
# [(probability, {name: factor matrix})]).

def _reference_gram(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / np.real(np.trace(mat))


def _reference_qubit_pair(rng):
    system = qubits(2)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a, sub_b = sub_system(system, (0,)), sub_system(system, (1,))
    probs = rng.dirichlet(np.ones(4))
    return system, part, [
        (p, {"A": DensityOperator(sub_a, _reference_gram(rng, 2)).matrix,
             "B": DensityOperator(sub_b, _reference_gram(rng, 2)).matrix})
        for p in probs]


def _reference_number_diagonal(system, part, rng):
    probs = rng.dirichlet(np.ones(3))
    comps = []
    for p in probs:
        factors = {}
        for name in part.names:
            sub = sub_system(system, part.modes_of(name))
            diag = rng.dirichlet(np.ones(sub.dim))
            factors[name] = DensityOperator(sub, np.diag(diag.astype(complex))).matrix
        comps.append((p, factors))
    return system, part, comps


def _reference_one_boson_pair(rng):
    system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
    part = Partition([("one", (0, 1)), ("two", (2, 3))])
    probs = rng.dirichlet(np.ones(3))
    comps = []
    for p in probs:
        factors = {}
        for name in part.names:
            sub = sub_system(system, part.modes_of(name))
            sel = sub.indices_of([(0, 1), (1, 0)])
            mat = np.zeros((sub.dim, sub.dim), dtype=complex)
            mat[np.ix_(sel, sel)] = _reference_gram(rng, 2)
            factors[name] = DensityOperator(sub, mat).matrix
        comps.append((p, factors))
    return system, part, comps


# (sampler, reference) pairs; the number-diagonal ones on equal subsystems, on
# subsystems of dims 2 and 3, and on three subsystems listed out of mode order
SAMPLERS = [
    (random_qubit_pair_mixture, _reference_qubit_pair),
    (random_one_boson_pair_mixture, _reference_one_boson_pair),
] + [
    (lambda rng, s=system, p=part: random_number_diagonal_mixture(s, p, rng),
     lambda rng, s=system, p=part: _reference_number_diagonal(s, p, rng))
    for system, part in [
        (bosons(2, 2), Partition([("A", (0,)), ("B", (1,))])),
        (ModeSystem([("a", 1), ("b", 2)]), Partition([("A", (0,)), ("B", (1,))])),
        (bosons(4, 1), Partition([("C", (3,)), ("A", (0, 2)), ("B", (1,))])),
    ]
]


@pytest.mark.parametrize("sampler, reference", SAMPLERS)
@pytest.mark.parametrize("seed", range(6))
def test_stacked_samplers_equal_the_per_factor_draws(sampler, reference, seed):
    mix = sampler(np.random.default_rng(seed))
    system, part, comps = reference(np.random.default_rng(seed))
    assert mix.system == system and mix.partition == part
    assert mix.probabilities.tobytes() == np.array([p for p, _ in comps]).tobytes()
    assert not mix.probabilities.flags.writeable
    assert list(mix.factors) == list(part.names)
    for name, stack in mix.factors.items():
        k = sub_system(system, part.modes_of(name)).dim
        assert stack.shape == (len(comps), k, k)
        assert stack.tobytes() == np.array([factors[name] for _, factors in comps]).tobytes()
        assert not stack.flags.writeable


@pytest.mark.parametrize("seed", range(20))
def test_flat_dirichlet_rows_are_numpys_flat_dirichlet_bit_for_bit(seed):
    # np.sum adds pairwise from 8 entries on; k runs well past that
    for k in range(1, 41):
        rng, ref = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
        exps = rng.standard_exponential(k)
        padded = np.zeros(k + 3)
        padded[:k] = exps
        row = _flat_dirichlet(exps)
        expected = ref.dirichlet(np.ones(k))
        assert row.tobytes() == expected.tobytes()
        assert rng.random() == ref.random()
        # 0.0 padding adds +0.0 to the total and stays 0.0
        assert _flat_dirichlet(padded).tobytes() == np.concatenate(
            [expected, np.zeros(3)]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 25])
def test_a_stacked_exponential_draw_is_n_single_dirichlet_draws(k):
    # numpy fills an (n, k) draw row after row with the stream of n single
    # draws, which the stacked samplers rely on
    for seed in range(8):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = _flat_dirichlet(rng.standard_exponential((13, k)))
        assert stack.tobytes() == np.array([ref.dirichlet(np.ones(k))
                                            for _ in range(13)]).tobytes()
        assert rng.random() == ref.random()


def _reference_summed(mix):
    """Today's term-by-term sum: one term per component, in component order."""
    dim = mix.system.dim
    out = np.zeros((dim, dim), dtype=complex)
    for r, p in enumerate(mix.probabilities):
        term = np.full((dim, dim), p, dtype=complex)
        for name, stack in mix.factors.items():
            codes = _sub_codes(mix.system, mix.partition.modes_of(name))[1]
            term *= stack[r][np.ix_(codes, codes)]
        out += term
    return out


@pytest.mark.parametrize("sampler", [s for s, _ in SAMPLERS])
@pytest.mark.parametrize("seed", range(6))
def test_summed_equals_the_term_by_term_sum_bit_for_bit(sampler, seed):
    mix = sampler(np.random.default_rng(seed))
    assert mix.summed().matrix.tobytes() == _reference_summed(mix).tobytes()


def test_summed_of_the_verstraete_mixture_equals_the_term_by_term_sum():
    _, mix = verstraete_state("mixture")
    assert mix.summed().matrix.tobytes() == _reference_summed(mix).tobytes()


@pytest.mark.parametrize("sampler", [s for s, _ in SAMPLERS])
@pytest.mark.parametrize("seed", range(3))
def test_a_summed_stack_equals_each_term_by_term_sum_bit_for_bit(sampler, seed):
    rng = np.random.default_rng(seed)
    mixtures = [sampler(rng) for _ in range(int(rng.integers(1, 9)))]
    summed = summed_stack(mixtures)
    assert len(summed) == len(mixtures)
    for rho, mix in zip(summed, mixtures):
        assert isinstance(rho, DensityOperator) and rho.system == mix.system
        assert not rho.matrix.flags.writeable
        assert rho.matrix.tobytes() == _reference_summed(mix).tobytes()


def _with_factor_scaled(mix, name, scale):
    """``mix`` with the ``name`` factor of its first component scaled, unchecked."""
    stack = mix.factors[name].copy()
    stack[0] *= scale
    bad = object.__new__(SeparableMixture)
    bad.system, bad.partition, bad.probabilities = mix.system, mix.partition, mix.probabilities
    bad.factors = dict(mix.factors, **{name: stack})
    return bad


@pytest.mark.parametrize("pos", [0, 3, 6])
def test_one_unphysical_sum_fails_the_stack_by_its_index(pos):
    rng = np.random.default_rng(pos)
    mixtures = [random_qubit_pair_mixture(rng) for _ in range(7)]
    mixtures[pos] = _with_factor_scaled(mixtures[pos], "A", 2.0)
    with pytest.raises(ValueError, match=f"^stack matrix {pos}: trace"):
        summed_stack(mixtures)
    with pytest.raises(ValueError, match="^stack matrix 0: trace"):
        mixtures[pos].summed()


def test_a_summed_stack_needs_one_system_partition_and_size():
    rng = np.random.default_rng(0)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    mix = random_number_diagonal_mixture(system, part, rng)
    other_part = Partition([("B", (1,)), ("A", (0,))])
    _, verstraete = verstraete_state("mixture")
    for other in (random_number_diagonal_mixture(system, other_part, rng), verstraete,
                  SeparableMixture(system, part, [1.0],
                                   {name: stack[:1] for name, stack in mix.factors.items()})):
        with pytest.raises(ValueError, match="one system, partition and number"):
            summed_stack([mix, other])


def test_an_empty_stack_or_sweep_is_rejected():
    with pytest.raises(ValueError, match="empty stack"):
        summed_stack([])
    rng = np.random.default_rng(0)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    sweeps = [lambda n: random_density(system, rng, n),
              lambda n: random_global_ssr_state(system, rng, n),
              lambda n: random_number_diagonal_mixture(system, part, rng, n),
              lambda n: random_qubit_pair_mixture(rng, n),
              lambda n: random_one_boson_pair_mixture(rng, n)]
    state = rng.bit_generator.state
    for sweep in sweeps:
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one draw, got n = "):
                sweep(n)
    assert rng.bit_generator.state == state     # nothing was drawn


@pytest.mark.parametrize("n", [True, False, np.True_, 2.5, 3.0, "3", 0, -2, [3]])
def test_a_sampler_count_is_none_or_an_integer_at_least_one(n):
    rng = np.random.default_rng(0)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    samplers = [lambda n: random_density(system, rng, n),
                lambda n: random_global_ssr_state(system, rng, n),
                lambda n: random_number_diagonal_mixture(system, part, rng, n),
                lambda n: random_qubit_pair_mixture(rng, n),
                lambda n: random_one_boson_pair_mixture(rng, n)]
    state = rng.bit_generator.state
    for sampler in samplers:
        with pytest.raises(ValueError, match=f"got n = {re.escape(repr(n))}$"):
            sampler(n)
    assert rng.bit_generator.state == state     # nothing was drawn
    for sampler in samplers:
        # None is one draw given alone, a numpy integer a list of draws
        assert not isinstance(sampler(None), list)
        assert len(sampler(np.int64(2))) == 2


def _vacuum_pair():
    """Two one-mode subsystems and their vacuum factors as (1, 2, 2) stacks, and
    the same factors for two components."""
    system = bosons(2, 1)
    part = Partition([("A", (0,)), ("B", (1,))])
    one = {"A": ModeSystem([system.modes[0]]).vacuum().density().matrix[None],
           "B": ModeSystem([system.modes[1]]).vacuum().density().matrix[None]}
    two = {name: np.concatenate([stack, stack]) for name, stack in one.items()}
    return system, part, one, two


def _rejects(system, part, probabilities, factors, match):
    """Both constructors refuse one mixture: alone and as a stack of one."""
    with pytest.raises(ValueError, match=match):
        SeparableMixture(system, part, probabilities, factors)
    with pytest.raises(ValueError, match=match):
        mixture_stack(system, part, [probabilities],
                      {name: np.asarray(stack)[None] for name, stack in factors.items()})


def test_mixture_probability_validation():
    system, part, f, two = _vacuum_pair()
    for probabilities, factors, match in [
            ([0.7], f, r"probabilities \[0.7\] must be >= 0 and sum to 1"),
            ([-0.5, 1.5], two, r"probabilities \[-0.5 +1.5\] must be"),
            ([True], f, "array of reals"),
            ([0.0, True], two, "array of reals"),
            (np.array([True]), f, "array of reals"),
            (np.array([0.0, True], dtype=object), two, "array of reals"),
            ([np.True_], f, "array of reals"),
            (["1"], f, "array of reals"),
            (np.array(["1"]), f, "array of reals"),
            ([1 + 0j], f, "array of reals"),
            (np.array([1.0 + 0j]), f, "array of reals"),
            (1.0, f, "rank"),
            ([[1.0]], f, "rank"),
            ([1.0], {"A": f["A"]}, "each subsystem"),
            ([1.0], dict(f, C=f["A"]), "each subsystem"),
            ([1.0], dict(f, A=f["A"][0]), "shape"),
            ([1.0], two, "shape"),
            ([1.0], dict(f, B=2 * f["B"]), "^stack matrix 1: trace")]:
        _rejects(system, part, probabilities, factors, match)
    # a stack names its failing mixture, and its failing factor by stack index
    pairs = {name: stack[None].repeat(2, axis=0) for name, stack in f.items()}
    with pytest.raises(ValueError, match=r"^mixture 1: probabilities \[0.7\]"):
        mixture_stack(system, part, [[1.0], [0.7]], pairs)
    scaled = pairs["B"].copy()
    scaled[1] *= 2.0
    with pytest.raises(ValueError, match="^stack matrix 3: trace"):
        mixture_stack(system, part, [[1.0], [1.0]], dict(pairs, B=scaled))
    with pytest.raises(ValueError, match="at least one mixture"):
        mixture_stack(system, part, np.ones((0, 1)),
                      {name: stack[:0] for name, stack in pairs.items()})


def test_mixture_rejects_nan_probability():
    system, part, f, two = _vacuum_pair()
    for probabilities, factors in [([np.nan], f), ([np.nan, 1.0], two),
                                   ([0.5, np.nan], two), ([np.inf, -np.inf], two)]:
        _rejects(system, part, probabilities, factors, "sum")


def test_ghz_and_singlet_shapes():
    assert ghz().system.dim == 8
    assert singlet_spin().system.dim == 16
    rep = ssr_check(singlet_spin(), number_op(singlet_spin().system), tol=1e-12)
    assert rep.compliant


@pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-9, np.nan, np.inf])
def test_the_three_amplitude_constructors_reject_an_unnormalised_vector(scale):
    from focklab.ssr import internalise
    amps = scale * np.array([0.6, -0.8])
    for build in (lambda: dissociation_state(1, amps), lambda: two_mode_N_boson(amps),
                  lambda: internalise(amps, 3)):
        with pytest.raises(ValueError, match="state vector is not normalised"):
            build()
    # and take the normalised vector
    for state in (dissociation_state(1, [0.6, 0.8j]), two_mode_N_boson([0.6, 0.8j]),
                  internalise([0.6, 0.8j], 3)):
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_normalisation_errors():
    with pytest.raises(ValueError, match="normalised"):
        dissociation_state(2, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="normalised"):
        two_mode_N_boson([1.0, 1.0])
    with pytest.raises(ValueError, match="sum to 1"):
        mixed_N_boson([0.4, 0.4])
