import numpy as np
import pytest
from scipy.stats import poisson, unitary_group

from focklab import (
    ModeSystem,
    Partition,
    bosons,
    expectation,
    number_op,
    partial_trace,
    ssr_check,
)
from focklab.states import (
    MixtureComponent,
    SeparableMixture,
    bell_one_boson,
    binomial_state,
    catalog,
    coherent,
    dissociation_state,
    ghz,
    mixed_N_boson,
    poisson_pmf,
    rotated_mode_annihilation,
    singlet_spin,
    two_mode_N_boson,
    two_mode_coherent_mixture,
    verstraete_state,
    werner_qudit,
)
from focklab.sampling import random_density


@pytest.mark.parametrize("mu", [0.0, 0.5, 2.0, 50.0, 250.0])
def test_poisson_pmf_matches_scipy(mu):
    n = np.arange(1001)
    got = poisson_pmf(n, mu)
    ref = poisson.pmf(n, mu)
    assert np.all(np.abs(got - ref) <= np.maximum(1e-15, 1e-12 * ref))
    assert poisson_pmf(0, mu) == pytest.approx(np.exp(-mu), rel=1e-15)


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
    assert len(mixture.components) == 4


def test_verstraete_component_local_ssr_fails():
    _, mixture = verstraete_state("mixture")
    for comp in mixture.components:
        for factor in comp.factors.values():
            rep = ssr_check(factor, number_op(factor.system))
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
    comps = []
    expected = np.zeros((4, 4), dtype=complex)
    probs = rng.dirichlet(np.ones(3))
    for p in probs:
        fa = random_density(sub_a, rng)
        fb = random_density(sub_b, rng)
        comps.append(MixtureComponent(p, {"A": fa, "B": fb}))
        expected += p * np.kron(fa.matrix, fb.matrix)
    mix = SeparableMixture(system, part, comps)
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
    mix = SeparableMixture(system, part, [MixtureComponent(1.0, {"A": fa, "B": fb})])
    rho = mix.summed()
    assert np.abs(partial_trace(rho, part, "A").matrix - fa.matrix).max() < 1e-12
    assert np.abs(partial_trace(rho, part, "B").matrix - fb.matrix).max() < 1e-12


def test_mixture_probability_validation():
    system = bosons(2, 1)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    f = {"A": sub_a.vacuum().density(), "B": sub_b.vacuum().density()}
    with pytest.raises(ValueError, match="sum"):
        SeparableMixture(system, part, [MixtureComponent(0.7, f)])


def test_mixture_rejects_nan_probability():
    system = bosons(2, 1)
    part = Partition([("A", (0,)), ("B", (1,))])
    f = {"A": ModeSystem([system.modes[0]]).vacuum().density(),
         "B": ModeSystem([system.modes[1]]).vacuum().density()}
    with pytest.raises(ValueError, match="sum"):
        SeparableMixture(system, part, [MixtureComponent(np.nan, f)])


def test_ghz_and_singlet_shapes():
    assert ghz().system.dim == 8
    assert singlet_spin().system.dim == 16
    rep = ssr_check(singlet_spin(), number_op(singlet_spin().system), tol=1e-12)
    assert rep.compliant


def test_catalog_states_are_physical():
    for entry in catalog().values():
        # construction already ran the physicality checks; spot the labels
        assert entry.label
        assert entry.note


def test_normalisation_errors():
    with pytest.raises(ValueError, match="normalised"):
        dissociation_state(2, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="normalised"):
        two_mode_N_boson([1.0, 1.0])
    with pytest.raises(ValueError, match="sum to 1"):
        mixed_N_boson([0.4, 0.4])
