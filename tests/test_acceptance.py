"""Acceptance suite: one test per gated criterion, each printing a pass/fail
line with the measured figure and its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import numpy as np
import pytest
from scipy.stats import poisson

from focklab import (
    CHSHSetting,
    ModeSystem,
    Partition,
    atom_molecule_process,
    bosons,
    chsh,
    cond_prob,
    extraction_experiment,
    ghz,
    ghz_assignment_search,
    ghz_parity,
    integral_inequality_oracle,
    number_op,
    particle_entanglement,
    partial_trace,
    prob,
    ramsey_vacuum_superposition,
    spectral,
    sum_inequality_oracle,
    tensor_embed,
    twirl,
    unrecorded_state,
    two_mode_coherent_mixture,
)
from focklab.cli import run_experiment
from focklab.fock import PureState
from focklab.ssr import clock_prob, clock_prob_by_evolution
from focklab.states import bell_one_boson, coherent
from focklab.witnesses import chsh_correlation_tensor
from focklab.sampling import random_chsh_setting, random_density


def _actual(report, check):
    """The measured figure of one check of a ``run_experiment`` report."""
    return next(c["actual"] for c in report["checks"] if c["name"] == check)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {detail} -> {status}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_twirl_poisson():
    state = coherent(np.sqrt(2.0), 30)
    tw = twirl(state, number_op(state.system))
    target = poisson.pmf(np.arange(31), 2.0)
    diag_err = float(np.abs(tw.diagonal() - target).max())
    off = tw.matrix - np.diag(np.diag(tw.matrix))
    off_max = float(np.abs(off).max())
    _report(1, "twirl-poisson",
            diag_err <= 1e-10 and off_max <= 1e-14,
            f"diag_err={diag_err:.2e} (tol 1e-10), offdiag={off_max:.2e} (tol 1e-14)")


def test_criterion_02_qcf_theorem():
    report = run_experiment("qcf_theorem", params={"n_states": 100}, seed=202)
    worst_forbidden = _actual(report, "forbidden_qcf_max")
    worst_invariance = _actual(report, "twirl_invariance_max")
    _report(2, "qcf-theorem",
            worst_forbidden <= 1e-10 and worst_invariance <= 1e-10,
            f"forbidden_max={worst_forbidden:.2e}, "
            f"twirl_invariance={worst_invariance:.2e} (tol 1e-10)")


def test_criterion_03_chsh():
    rng = np.random.default_rng(303)
    singlet = bell_one_boson("psi-")
    t = chsh_correlation_tensor(singlet)
    worst_corr = 0.0
    for _ in range(20):
        setting = random_chsh_setting(rng)
        a, b = np.asarray(setting.a1), np.asarray(setting.b1)
        worst_corr = max(worst_corr, abs(float(a @ t @ b) + float(a @ b)))
    s = 1 / np.sqrt(2)
    optimal = CHSHSetting(a1=(s, s, 0.0), a2=(s, -s, 0.0),
                          b1=(1.0, 0.0, 0.0), b2=(0.0, 1.0, 0.0))
    opt_err = abs(abs(chsh(singlet, optimal)) - 2.0 * np.sqrt(2.0))
    report = run_experiment("chsh_separable_bound",
                            params={"n_mixtures": 1000, "n_settings": 1000}, seed=303)
    sep_max = _actual(report, "separable_max_abs_S")
    _report(3, "chsh",
            worst_corr <= 1e-12 and opt_err <= 1e-12 and sep_max <= 2.0 + 1e-10,
            f"E_vs_-ab={worst_corr:.2e} (tol 1e-12), |S|_opt_err={opt_err:.2e} "
            f"(tol 1e-12), separable_max={sep_max:.12f} (bound 2+1e-10)")


def test_criterion_04_ghz():
    report = ghz_parity(ghz(), tol=1e-12)
    count = ghz_assignment_search()
    worst = max(report.residuals.values())
    _report(4, "ghz",
            report.passed and count == 0,
            f"max_residual={worst:.2e} (tol 1e-12), "
            f"lhv_assignments={count}/512 (expect 0)")


def test_criterion_05_extraction():
    targets = {
        "three_boson": (((2, 0, 0, 1), 1 / np.sqrt(3)),
                        ((1, 1, 1, 0), np.sqrt(2.0 / 3.0))),
        "two_boson": (((1, 0, 0, 1), 1 / np.sqrt(2)),
                      ((0, 1, 1, 0), 1 / np.sqrt(2))),
        "two_fermion": (((1, 0, 0, 1), 1 / np.sqrt(2)),
                        ((0, 1, 1, 0), -1 / np.sqrt(2))),
    }
    worst = 0.0
    for case, pairs in targets.items():
        for r in (0.35, 0.6, 0.85):
            t = np.sqrt(1.0 - r * r)
            state = extraction_experiment(case, r=r, t=t).final_state
            for occ, expected in pairs:
                worst = max(worst, abs(state.amplitude(occ) - expected))
    _report(5, "extraction-protocols", worst <= 1e-12,
            f"amplitude_max_err={worst:.2e} (tol 1e-12, 3 cases x 3 splittings)")


def test_criterion_06_atom_molecule():
    worst_pop = 0.0
    worst_coh = 0.0
    for n in (1, 5, 20):
        for phi in (0.0, np.pi / 3, np.pi / 2, np.pi):
            res = atom_molecule_process(n, 1.0, phi)
            worst_pop = max(worst_pop,
                            abs(res.quantities["p_atom"] - np.sin(phi / 2) ** 2),
                            abs(res.quantities["p_molecule"] - np.cos(phi / 2) ** 2))
            worst_coh = max(worst_coh, abs(res.quantities["coherence"]))
    phi = np.pi / 3
    res = atom_molecule_process(30.0, 1.0, phi, initial="poisson")
    poisson_err = max(abs(res.quantities["p_atom"] - np.sin(phi / 2) ** 2),
                      abs(res.quantities["p_molecule"] - np.cos(phi / 2) ** 2),
                      abs(res.quantities["coherence"]))
    _report(6, "atom-molecule-ramsey",
            worst_pop <= 1e-10 and worst_coh <= 1e-10 and poisson_err <= 1e-10,
            f"pop_err={worst_pop:.2e}, coherence={worst_coh:.2e}, "
            f"poisson_err={poisson_err:.2e} (tol 1e-10)")


def test_criterion_07_vacuum_interferometer():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        w = rng.random()
        alpha = np.sqrt(1.0 - w) * np.exp(2j * np.pi * rng.random())
        beta = np.sqrt(w) * np.exp(2j * np.pi * rng.random())
        delta = rng.uniform(0.05, 3.0)
        tau = rng.uniform(0.05, 3.0)
        # ramsey_vacuum_superposition verifies pure-vs-mixed at 1e-12 itself
        p10, p01 = ramsey_vacuum_superposition(alpha, beta, delta, tau)
        worst = max(worst,
                    abs(p10 - w * np.sin(delta * tau / 2) ** 2),
                    abs(p01 - w * np.cos(delta * tau / 2) ** 2))
    _report(7, "vacuum-interferometer", worst <= 1e-12,
            f"formula_max_err={worst:.2e} (tol 1e-12, 50 draws, "
            "pure-vs-mixed checked internally)")


def test_criterion_08_verstraete():
    report = run_experiment("verstraete")
    form_diff = _actual(report, "mixture_vs_sectorized")
    weight_err = max(abs(_actual(report, f"weight_N{n}") - w)
                     for n, w in ((0, 0.25), (1, 0.50), (2, 0.25)))
    local_fail = _actual(report, "every_component_locally_noncompliant")
    global_ok = _actual(report, "global_compliant")
    _report(8, "verstraete",
            form_diff <= 1e-14 and weight_err <= 1e-12 and local_fail and global_ok,
            f"form_diff={form_diff:.2e} (tol 1e-14), weight_err={weight_err:.2e}, "
            f"local_all_fail={local_fail}, global_ok={global_ok}")


def test_criterion_09_two_mode_coherent_mixture():
    alpha, cutoff, n_phases = 1.0, 18, 256
    rho = two_mode_coherent_mixture(alpha, cutoff)
    quad = np.zeros_like(rho.matrix)
    for theta in 2.0 * np.pi * np.arange(n_phases) / n_phases:
        single = coherent(alpha * np.exp(-1j * theta), cutoff).amplitudes
        vec = np.kron(single, single)
        quad += np.outer(vec, vec.conj()) / n_phases
    quad_err = float(np.abs(rho.matrix - quad).max())
    totals = rho.system.occupancies.sum(axis=1)
    selection = float(np.abs(
        rho.matrix[totals[:, None] != totals[None, :]]).max())
    part = Partition([("A", (0,)), ("B", (1,))])
    reduced_off = 0.0
    for name in ("A", "B"):
        red = partial_trace(rho, part, name).matrix
        reduced_off = max(reduced_off,
                          float(np.abs(red - np.diag(np.diag(red))).max()))
    _report(9, "two-mode-coherent-mixture",
            quad_err <= 1e-10 and selection == 0.0 and reduced_off <= 1e-14,
            f"quadrature_err={quad_err:.2e} (tol 1e-10), "
            f"selection_rule={selection:.1e} (exact), "
            f"reduced_offdiag={reduced_off:.2e}")


def test_criterion_10_measurement_identities():
    rng = np.random.default_rng(1010)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    obs_a = spectral(tensor_embed(number_op(sub_a), system, (0,)))
    obs_b = spectral(tensor_embed(number_op(sub_b), system, (1,)))
    proj_a, proj_b = obs_a.projectors, obs_b.projectors
    worst_bayes = worst_nosig = worst_reduced = 0.0
    for _ in range(100):
        rho = random_density(system, rng)
        for pa in proj_a:
            total = sum(cond_prob(rho, pa, pb) * prob(rho, pb)
                        for pb in proj_b if prob(rho, pb) > 1e-12)
            worst_bayes = max(worst_bayes, abs(total - prob(rho, pa)))
        after = unrecorded_state(rho, obs_b)
        for pa in proj_a:
            worst_nosig = max(worst_nosig, abs(prob(after, pa) - prob(rho, pa)))
        worst_reduced = max(worst_reduced, float(np.abs(
            partial_trace(after, part, "A").matrix
            - partial_trace(rho, part, "A").matrix).max()))
    worst = max(worst_bayes, worst_nosig, worst_reduced)
    _report(10, "measurement-identities", worst <= 1e-10,
            f"bayes={worst_bayes:.2e}, no_signalling={worst_nosig:.2e}, "
            f"reduced={worst_reduced:.2e} (tol 1e-10, 100 states)")


def test_criterion_11_separability_ssr_theorem():
    report = run_experiment("separability_ssr", params={"n_mixtures": 100}, seed=1111)
    sufficiency = _actual(report, "sufficiency_direction_holds")
    caveat = _actual(report, "verstraete_caveat")
    _report(11, "separability-ssr-theorem",
            sufficiency and caveat,
            f"sufficiency_100_mixtures={sufficiency}, "
            f"verstraete_global_ok_local_fail={caveat}")


def test_criterion_12_particle_entanglement():
    report = run_experiment("particle_entanglement", params={"n_mixtures": 100}, seed=1212)
    worst_sep = _actual(report, "separable_EP_max")
    sys11 = bosons(2, 1)
    ep_prod = particle_entanglement(
        sys11.basis_state((1, 1)), Partition([("A", (0,)), ("B", (1,))]))
    sys4 = bosons(4, 1, labels=["a1", "a2", "b1", "b2"])
    part4 = Partition([("A", (0, 1)), ("B", (2, 3))])
    vec = np.zeros(sys4.dim, dtype=complex)
    vec[sys4.index_of((1, 0, 0, 1))] = 1 / np.sqrt(2)
    vec[sys4.index_of((0, 1, 1, 0))] = 1 / np.sqrt(2)
    ln2_err = abs(particle_entanglement(PureState(sys4, vec), part4) - np.log(2.0))
    _report(12, "particle-entanglement",
            worst_sep <= 1e-10 and ep_prod <= 1e-10 and ln2_err <= 1e-10,
            f"separable_max={worst_sep:.2e}, product={ep_prod:.2e}, "
            f"ln2_err={ln2_err:.2e} (tol 1e-10)")


def test_criterion_13_spin_epr_bound():
    report = run_experiment("spin_epr_bound", params={"n_mixtures": 1000}, seed=1313)
    worst_margin = _actual(report, "separable_epr_margin_max")
    _report(13, "spin-epr-separable-bound", worst_margin <= 1e-10,
            f"max_violation_margin={worst_margin:.2e} (tol 1e-10, "
            "1000 mixtures; no golden violating instance exists)")


def test_criterion_14_appendix_inequalities():
    rng = np.random.default_rng(1414)
    holds = True
    for _ in range(10000):
        size = int(rng.integers(1, 9))
        p = rng.random(size)
        c = rng.random(size) * 10
        d = rng.random(size) * 10
        holds = holds and sum_inequality_oracle(p, c, d)
        lam = np.sort(rng.random(size) * 3) if size > 1 else np.array([0.0])
        if size > 1:
            holds = holds and integral_inequality_oracle(lam, p, c, d)
    p = rng.dirichlet(np.ones(7))
    c = rng.random(7) * 4
    eq_err = abs(float(np.sum(p * c) ** 2)
                 - float(np.sum(p * np.sqrt(c * c)) ** 2))
    _report(14, "appendix-inequalities", holds and eq_err <= 1e-12,
            f"all_hold={holds} (10^4 draws), equality_err={eq_err:.2e} (tol 1e-12)")


def test_criterion_15_phase_clock():
    worst = 0.0
    for n_max in (4, 16, 64):
        step = max(1, n_max // 4)
        for p in range(0, n_max + 1, step):
            for q in range(0, n_max + 1, step):
                for w_dt in (0.0, 0.37, 2 * np.pi / (n_max + 1), 1.9):
                    direct = clock_prob_by_evolution(p, q, 1.0, w_dt, n_max)
                    closed = clock_prob(p, q, 1.0, w_dt, n_max)
                    worst = max(worst, abs(direct - closed))
    _report(15, "phase-clock", worst <= 1e-12,
            f"formula_vs_evolution_max_err={worst:.2e} "
            "(tol 1e-12, n_max in {4,16,64})")
