import warnings

import numpy as np
import pytest
from scipy.stats import poisson

from focklab import (
    ModeSystem,
    Partition,
    bosons,
    number_op,
    partial_trace,
    qcf,
    sector_decompose,
    separable_ssr_theorem_check,
    ssr_check,
    twirl,
)
from focklab.ssr import (
    clock_prob,
    clock_prob_by_evolution,
    externalise,
    internalise,
    phase_state,
)
from focklab.states import (
    MixtureComponent,
    SeparableMixture,
    bell_one_boson,
    coherent,
    two_mode_N_boson,
    verstraete_state,
)
from focklab.sampling import (
    random_density,
    random_global_ssr_state,
    random_number_diagonal_mixture,
)


def test_fock_diagonal_mixture_compliant():
    system = bosons(2, 2)
    mat = np.diag(np.array([0.25, 0.25, 0.25, 0.0, 0.0, 0.25, 0, 0, 0], dtype=complex))
    from focklab import DensityOperator
    rho = DensityOperator(system, mat)
    rep = ssr_check(rho, number_op(system))
    assert rep.compliant and rep.residual == 0.0


def test_coherent_state_not_compliant():
    state = coherent(1.0, 20)
    rep = ssr_check(state, number_op(state.system))
    assert not rep.compliant
    # frozen from sum (n-m)^2 p_n p_m = 2 var(N) for a Poisson(1) projector
    assert rep.residual == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_bell_psi_state_compliant():
    psi = bell_one_boson("psi+")
    rep = ssr_check(psi, number_op(psi.system))
    assert rep.compliant and rep.residual == 0.0


def test_bell_phi_state_not_compliant():
    phi = bell_one_boson("phi+")
    rep = ssr_check(phi, number_op(phi.system))
    assert not rep.compliant


def test_twirl_coherent_gives_poisson():
    nbar = 2.0
    state = coherent(np.sqrt(nbar), 30)
    tw = twirl(state, number_op(state.system))
    target = poisson.pmf(np.arange(31), nbar)
    assert np.abs(tw.diagonal() - target).max() < 1e-10
    off = tw.matrix - np.diag(np.diag(tw.matrix))
    assert np.abs(off).max() < 1e-14


def test_twirl_fixes_fock_states():
    system = bosons(2, 2)
    rho = system.basis_state((2, 1)).density()
    tw = twirl(rho, number_op(system))
    assert np.abs(tw.matrix - rho.matrix).max() == 0.0


def test_twirl_fixes_one_boson_bell_state():
    psi = bell_one_boson("psi+").density()
    tw = twirl(psi, number_op(psi.system))
    assert np.abs(tw.matrix - psi.matrix).max() == 0.0


def test_twirl_idempotent_and_compliant():
    rng = np.random.default_rng(0)
    system = bosons(2, 2)
    n = number_op(system)
    for _ in range(20):
        rho = random_density(system, rng)
        tw = twirl(rho, n)
        again = twirl(tw, n)
        assert np.abs(again.matrix - tw.matrix).max() < 1e-12
        assert ssr_check(tw, n, tol=1e-12).compliant


def test_qcf_single_ladder_on_compliant_state():
    rng = np.random.default_rng(1)
    system = bosons(2, 3)
    rho = random_global_ssr_state(system, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert abs(qcf(rho, 1, 0, 0, 0)) < 1e-12


def test_qcf_bell_state_hopping():
    psi = bell_one_boson("psi+")
    with warnings.catch_warnings():
        # the saturation warning is conservative; <adag b> is exact here
        warnings.simplefilter("ignore", RuntimeWarning)
        assert qcf(psi, 1, 0, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_qcf_vacuum_lowering_zero():
    system = bosons(2, 2)
    vac = system.vacuum()
    assert abs(qcf(vac, 0, 2, 0, 0)) == 0.0
    assert abs(qcf(vac, 0, 1, 0, 1)) == 0.0


def test_qcf_theorem_sweep():
    # every index combination with n + l != m + k vanishes on compliant states
    rng = np.random.default_rng(2)
    system = bosons(2, 3)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(25):
            rho = random_global_ssr_state(system, rng)
            for n in range(3):
                for m in range(3):
                    for l in range(3):
                        for k in range(3):
                            if n + l != m + k:
                                worst = max(worst, abs(qcf(rho, n, m, l, k)))
    assert worst < 1e-10


def test_qcf_twirl_invariance_general_states():
    # balanced index combinations see only the sector-diagonal part
    rng = np.random.default_rng(3)
    system = bosons(2, 3)
    n_op = number_op(system)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(25):
            rho = random_density(system, rng)       # generally non-compliant
            tw = twirl(rho, n_op)
            for n in range(3):
                for m in range(3):
                    for l in range(3):
                        for k in range(3):
                            if n + l == m + k:
                                diff = qcf(rho, n, m, l, k) - qcf(tw, n, m, l, k)
                                worst = max(worst, abs(diff))
    assert worst < 1e-10


def test_qcf_truncation_warning():
    system = bosons(2, 2)
    rho = system.basis_state((2, 0)).density()
    with pytest.warns(RuntimeWarning, match="cutoff"):
        qcf(rho, 1, 0, 0, 0)


def test_sector_decompose_verstraete():
    rho = verstraete_state("sectorized")
    decomp = sector_decompose(rho, number_op(rho.system))
    assert decomp.weight_of(0) == pytest.approx(0.25, abs=1e-12)
    assert decomp.weight_of(1) == pytest.approx(0.50, abs=1e-12)
    assert decomp.weight_of(2) == pytest.approx(0.25, abs=1e-12)


def test_sector_decompose_pure_fixed_number():
    psi = two_mode_N_boson(np.ones(4) / 2.0)
    decomp = sector_decompose(psi, number_op(psi.system))
    assert len(decomp.sectors) == 1
    assert decomp.sectors[0].total == 3
    assert decomp.sectors[0].weight == pytest.approx(1.0, abs=1e-12)


def test_sector_weights_twirled_coherent_poisson():
    nbar = 2.0
    state = coherent(np.sqrt(nbar), 30)
    n_op = number_op(state.system)
    decomp = sector_decompose(twirl(state, n_op), n_op)
    assert decomp.weight_of(2) == pytest.approx(np.exp(-2.0) * 2.0, rel=1e-10)
    for sector in decomp.sectors:
        target = poisson.pmf(sector.total, nbar)
        if target > 1e-12:
            assert sector.weight == pytest.approx(target, rel=1e-10)


def test_sector_reassembly_equals_twirl():
    rng = np.random.default_rng(4)
    system = bosons(2, 2)
    n_op = number_op(system)
    rho = random_density(system, rng)
    decomp = sector_decompose(rho, n_op)
    rebuilt = np.zeros((system.dim, system.dim), dtype=complex)
    for s in decomp.sectors:
        assert not (s.indices.flags.writeable or s.block.flags.writeable)
        rebuilt[np.ix_(s.indices, s.indices)] += s.weight * s.block
    assert np.abs(rebuilt - twirl(rho, n_op).matrix).max() < 1e-12
    assert isinstance(hash(decomp), int)     # sectors compare by identity


def test_separable_theorem_fock_diagonal_components():
    rng = np.random.default_rng(5)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    mix = random_number_diagonal_mixture(system, part, rng)
    rep = separable_ssr_theorem_check(mix)
    assert rep.all_local_compliant
    assert rep.global_report.compliant
    assert not rep.fixed_probability_caveat


def test_separable_theorem_verstraete_caveat():
    _, mix = verstraete_state("mixture")
    rep = separable_ssr_theorem_check(mix)
    assert not rep.all_local_compliant
    assert all(not r.compliant for _, _, r in rep.local_reports)
    assert rep.global_report.compliant
    assert rep.fixed_probability_caveat


def test_separable_theorem_coherent_component_fails_globally():
    cutoff = 12
    system = bosons(2, cutoff)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    coh = coherent(0.8, cutoff)
    coh_factor = type(coh)(sub_a, coh.amplitudes).density()
    vac_a = sub_a.basis_state((0,)).density()
    vac_b = sub_b.basis_state((0,)).density()
    mix = SeparableMixture(system, part, [
        MixtureComponent(0.5, {"A": coh_factor, "B": vac_b}),
        MixtureComponent(0.5, {"A": vac_a, "B": vac_b}),
    ])
    rep = separable_ssr_theorem_check(mix)
    assert not rep.all_local_compliant
    assert not rep.global_report.compliant
    assert rep.global_report.residual > 0.1


def test_phase_states_orthonormal():
    n_max = 7
    states = [phase_state(n_max, p) for p in range(n_max + 1)]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            target = 1.0 if i == j else 0.0
            assert abs(si.overlap(sj)) == pytest.approx(target, abs=1e-12)


def test_clock_steps_backwards():
    n_max = 8
    omega = 1.0
    dt = 2.0 * np.pi / (n_max + 1) / omega
    for p in range(1, n_max + 1):
        assert clock_prob(p, p - 1, omega, dt, n_max) == pytest.approx(1.0, abs=1e-12)
    # and the state really lands on the neighbouring phase state
    from focklab.fock import evolution_operator, ModeSystem
    sys1 = ModeSystem([("osc", n_max)])
    u = evolution_operator(omega * number_op(sys1), dt)
    evolved = u.matrix @ phase_state(n_max, 3).amplitudes
    overlap = np.vdot(phase_state(n_max, 2).amplitudes, evolved)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_clock_formula_matches_evolution():
    worst = 0.0
    for n_max in (4, 16):
        for p in range(n_max + 1):
            for q in range(n_max + 1):
                for w_dt in (0.0, 0.37, 2 * np.pi / (n_max + 1), 2.4):
                    direct = clock_prob_by_evolution(p, q, 1.0, w_dt, n_max)
                    closed = clock_prob(p, q, 1.0, w_dt, n_max)
                    worst = max(worst, abs(direct - closed))
    assert worst < 1e-12


def test_internalise_one_boson_superposition():
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi = internalise(amps, 1)
    assert psi.amplitude((0, 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert psi.amplitude((1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_internalise_reduced_state_is_number_diagonal():
    rng = np.random.default_rng(6)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    psi = internalise(amps, 6)
    part = Partition([("S", (0,)), ("R", (1,))])
    reduced = partial_trace(psi, part, "S")
    assert np.abs(reduced.matrix - np.diag(np.abs(amps) ** 2)).max() < 1e-12
    rep = ssr_check(reduced, number_op(reduced.system), tol=1e-12)
    assert rep.compliant


def test_internalise_single_amplitude_product():
    amps = np.array([0.0, 0.0, 1.0])
    psi = internalise(amps, 4)
    part = Partition([("S", (0,)), ("R", (1,))])
    reduced = partial_trace(psi, part, "S")
    evals = np.linalg.eigvalsh(reduced.matrix)
    evals = evals[evals > 1e-14]
    entropy = float(-(evals * np.log(evals)).sum())
    assert entropy == pytest.approx(0.0, abs=1e-12)


def test_externalise_inverts_internalise():
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    amps /= np.linalg.norm(amps)
    recovered = externalise(internalise(amps, 8))
    assert np.abs(recovered - amps).max() < 1e-12


def test_internalise_requires_enough_reference_bosons():
    with pytest.raises(ValueError, match="m_max"):
        internalise(np.ones(4) / 2.0, 2)


def test_sector_weights_sum_to_one():
    rng = np.random.default_rng(8)
    system = bosons(2, 2)
    rho = random_density(system, rng)
    decomp = sector_decompose(rho, number_op(system))
    assert sum(s.weight for s in decomp.sectors) == pytest.approx(1.0, abs=1e-10)
    assert all(s.weight >= -1e-12 for s in decomp.sectors)


def test_twirl_matches_phase_quadrature():
    # independent route: discrete phase average, exact once the number of
    # phases exceeds the largest sector difference
    rng = np.random.default_rng(9)
    system = bosons(2, 3)
    n_op = number_op(system)
    n_diag = np.real(np.diag(n_op.matrix))
    rho = random_density(system, rng)
    n_phases = 64
    avg = np.zeros_like(rho.matrix)
    for theta in 2.0 * np.pi * np.arange(n_phases) / n_phases:
        u = np.exp(-1j * n_diag * theta)
        avg += (u[:, None] * rho.matrix * u.conj()[None, :]) / n_phases
    assert np.abs(avg - twirl(rho, n_op).matrix).max() < 1e-12
