"""Scenario runner: execute named experiments from JSON files and emit reports.

A scenario file looks like::

    {"schema_version": 1, "experiment": "ghz_parity", "params": {},
     "tolerances": {}, "seed": 0}

Every field but ``schema_version`` and ``experiment`` may be left out; any
other field, and any tolerance but ``global``, is an error.  Exit status: 0
when every check passes, 1 on check failure, 2 on usage, parse, input or
I/O errors.  Reports are deterministic for a fixed (scenario, seed) pair
up to the wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import dynamics, fock, lhv, measurement, sampling, ssr, states, witnesses

# fock.MAX_DIM, held apart so that a sweep's work budget, MAX_DIM**2, can be
# shrunk without shrinking the largest ModeSystem
MAX_DIM = 4096

SCHEMA_VERSION = 1
SCENARIO_FIELDS = frozenset(
    {"schema_version", "experiment", "params", "tolerances", "seed"})


def _plain(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _check(name, expected, actual, tolerance):
    expected = _plain(expected)
    actual = _plain(actual)
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
            and not isinstance(expected, bool):
        ok = bool(abs(actual - expected) <= tolerance)
    else:
        ok = bool(actual == expected)
    return _check_entry(name, expected, actual, tolerance, ok)


def _check_entry(name, expected, actual, tolerance, passed):
    """One check as the report holds it."""
    return {"name": name, "expected": expected, "actual": actual,
            "tolerance": float(tolerance), "passed": passed}


def _tol(tol, default):
    """The global tolerance override, or this check's default when unset."""
    return default if tol is None else tol


def _check_budget(count, entries, what="array entries"):
    """Before any draw, reject a sweep whose largest array, or whose chunked
    loop, of ``entries`` counted as ``count`` (array entries, samples, phases or
    settings), exceeds the largest dense matrix of a system."""
    if entries > MAX_DIM ** 2:
        raise ValueError(f"{count} = {entries} {what} exceed the budget "
                         f"MAX_DIM**2 = {MAX_DIM ** 2}")


def _check_below(name, actual, bound):
    actual = float(actual)
    return _check_entry(name, f"<= {bound}", actual, bound, bool(actual <= bound))


# ---------------------------------------------------------------------------
# experiment implementations; each takes the merged params, the global
# tolerance and the seed, and returns a list of check dicts.  Only an
# experiment that draws builds a generator, so the others never import
# numpy.random


def _exp_ghz_parity(params, tol, seed):
    report = witnesses.ghz_parity(states.ghz(), tol=_tol(tol, 1e-12))
    return [_check_below(f"parity_residual_{k}", v, report.tol)
            for k, v in sorted(report.residuals.items())]


def _exp_twirl_coherent(params, tol, seed):
    nbar = params["nbar"]
    cutoff = params["cutoff"]
    state = states.coherent(np.sqrt(nbar), cutoff)
    n_op = fock.number_op(state.system)
    tw = ssr.twirl(state, n_op)
    target = states.poisson_pmf(np.arange(cutoff + 1), nbar)
    diag_err = float(np.abs(tw.diagonal() - target).max())
    off = tw.matrix - np.diag(np.diag(tw.matrix))
    checks = [
        _check_below("poisson_diag_max_err", diag_err, _tol(tol, 1e-10)),
        _check_below("offdiag_max", float(np.abs(off).max()), 1e-14),
        _check_below("idempotence", float(np.linalg.norm(
            ssr.twirl(tw, n_op).matrix - tw.matrix)), 1e-12),
    ]
    return checks


def _exp_qcf_theorem(params, tol, seed):
    n_states = params["n_states"]
    cutoff = params["cutoff"]
    max_order = params["max_order"]
    # one table entry per state and power tuple, held at once
    _check_budget("n_states * (max_order + 1)**4", n_states * (max_order + 1) ** 4,
                  "table entries")
    system = fock.bosons(2, cutoff)
    powers = [(n, m, l, k)
              for n in range(max_order + 1) for m in range(max_order + 1)
              for l in range(max_order + 1) for k in range(max_order + 1)]
    balanced = np.array([n + l == m + k for n, m, l, k in powers])
    sweep = sampling.random_global_ssr_state(system, np.random.default_rng(seed), n_states)
    twirled = ssr.twirl(sweep, fock.number_op(system))
    import warnings
    with warnings.catch_warnings():
        # the sweep states carry weight at the cutoff; the vanishing theorem
        # is exact under truncation, so the saturation warning is noise here
        warnings.simplefilter("ignore", RuntimeWarning)
        table = ssr.qcf(sweep, powers)
        twirled_table = ssr.qcf(twirled, [p for p, b in zip(powers, balanced) if b])
    worst_forbidden = np.abs(table[:, ~balanced]).max(initial=0.0)
    worst_invariance = np.abs(table[:, balanced] - twirled_table).max()
    return [
        _check_below("forbidden_qcf_max", worst_forbidden, _tol(tol, 1e-10)),
        _check_below("twirl_invariance_max", worst_invariance, _tol(tol, 1e-10)),
    ]


def _chsh_directions(rng, rows):
    """``rows`` settings as one (rows, 4, 3) array of the unit rows a1, a2, b1,
    b2: the stream of one ``random_chsh_setting`` per setting."""
    vecs = rng.standard_normal((rows, 4, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return vecs


def _exp_chsh_singlet(params, tol, seed):
    n_settings = params["n_settings"]
    _check_budget("n_settings", n_settings, "settings")
    singlet = states.bell_one_boson("psi-")
    t = witnesses.chsh_correlation_tensor(singlet)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n_settings, fock.CHUNK_ROWS):
        settings = _chsh_directions(rng, min(fock.CHUNK_ROWS, n_settings - start))
        a, b = settings[:, 0], settings[:, 2]
        # a.T.b - (-a.b), one row per setting
        worst = max(worst, float(np.abs(np.einsum("si,ij,sj->s", a, t, b)
                                        + np.einsum("si,si->s", a, b)).max()))
    s = 1 / np.sqrt(2)
    optimal = witnesses.CHSHSetting(a1=(s, s, 0.0), a2=(s, -s, 0.0),
                                    b1=(1.0, 0.0, 0.0), b2=(0.0, 1.0, 0.0))
    s_opt = abs(witnesses.chsh(singlet, optimal))
    return [
        _check_below("correlation_vs_minus_ab", worst, _tol(tol, 1e-12)),
        _check("optimal_abs_S", 2.0 * np.sqrt(2.0), s_opt, _tol(tol, 1e-12)),
    ]


def _exp_chsh_separable_bound(params, tol, seed):
    n_mix = params["n_mixtures"]
    n_settings = params["n_settings"]
    # the summed states, then the (4, n_settings, 3) directions and |S| per pair
    _check_budget("n_mixtures * 4**2", n_mix * 4 ** 2)
    _check_budget("max(n_mixtures, 12) * n_settings", max(n_mix, 12) * n_settings)
    rng = np.random.default_rng(seed)
    tensors = witnesses.chsh_correlation_tensor(
        states.summed_stack(sampling.random_qubit_pair_mixture(rng, n_mix)))
    a1, a2, b1, b2 = sampling.random_chsh_directions(rng, n_settings)
    s_abs = witnesses.chsh_batch(tensors, a1, a2, b1, b2)
    return [_check_below("separable_max_abs_S", float(s_abs.max()),
                         2.0 + _tol(tol, 1e-10))]


def _exp_lhv_ghz_search(params, tol, seed):
    return [
        _check("satisfying_assignments", 0, lhv.ghz_assignment_search(), 0),
        _check("without_xxx_constraint", 64, lhv.ghz_assignment_search(xxx_target=None), 0),
        _check("flipped_xxx_target", 64, lhv.ghz_assignment_search(xxx_target=-1), 0),
    ]


def _exp_lhv_chsh_bound(params, tol, seed):
    n_models, n_settings = params["n_models"], params["n_settings"]
    _check_budget("n_models * n_settings", n_models * n_settings, "settings")
    best = lhv.lhv_chsh_bound_sweep(n_models, n_settings, seed)
    return [_check_below("lhv_max_abs_S", best, 2.0 + _tol(tol, 1e-12))]


def _exp_extraction(params, tol, seed):
    checks = []
    t_ = _tol(tol, 1e-12)
    targets = {
        "two_boson": (((1, 0, 0, 1), 1 / np.sqrt(2)), ((0, 1, 1, 0), 1 / np.sqrt(2))),
        "three_boson": (((2, 0, 0, 1), 1 / np.sqrt(3)), ((1, 1, 1, 0), np.sqrt(2 / 3))),
        "two_fermion": (((1, 0, 0, 1), 1 / np.sqrt(2)), ((0, 1, 1, 0), -1 / np.sqrt(2))),
    }
    r_values = params["r_values"]
    t_values = [np.sqrt(1.0 - r * r) for r in r_values]
    for case, pairs in targets.items():
        try:
            results = dynamics.extraction_experiment(case, r_values, t_values)
        except measurement.ZeroProbabilityError as exc:
            # near r = 0 or 1 the particles do not split: nothing the checks can resolve
            raise ValueError(f"parameter 'r_values' of extraction leaves the {case} split "
                             f"with no weight its checks can resolve ({exc})") from exc
        for r, result in zip(r_values, results):
            for occ, amp in pairs:
                got = result.final_state.amplitude(occ)
                checks.append(_check(f"{case}_r{r}_amp{occ}", float(amp),
                                     float(got.real), t_))
                checks.append(_check_below(f"{case}_r{r}_imag{occ}",
                                           abs(got.imag), t_))
    return checks


def _exp_atom_molecule(params, tol, seed):
    t_ = _tol(tol, 1e-10)
    kappa = params["kappa"]
    if 0.5 * kappa == 0:     # also when the coupling kappa/2 underflows
        raise ValueError(f"parameter 'kappa' of atom_molecule must be nonzero: no pulse "
                         f"transfers population without coupling, got {kappa!r}")
    checks = []
    for n in params["n_values"]:
        # one system, solve and calibration per N, for every phase
        results = dynamics.atom_molecule_process(n, kappa, params["phi_values"])
        for phi, res in zip(params["phi_values"], results):
            checks.append(_check(f"p_atom_N{n}_phi{phi:.3f}",
                                 float(np.sin(phi / 2) ** 2),
                                 res.quantities["p_atom"], t_))
            checks.append(_check(f"p_mol_N{n}_phi{phi:.3f}",
                                 float(np.cos(phi / 2) ** 2),
                                 res.quantities["p_molecule"], t_))
            checks.append(_check_below(f"coherence_N{n}_phi{phi:.3f}",
                                       abs(res.quantities["coherence"]), t_))
    nbar = params.get("poisson_nbar")
    if nbar:
        phi = params["phi_values"][0]
        res = dynamics.atom_molecule_process(nbar, kappa, phi, initial="poisson")
        # the N = 0 component has no partner atom and stays atomic
        w0 = float(states.poisson_pmf(0, nbar))
        checks.append(_check(f"poisson_p_atom_phi{phi:.3f}",
                             w0 + (1.0 - w0) * float(np.sin(phi / 2) ** 2),
                             res.quantities["p_atom"], t_))
    return checks


def _exp_vacuum_interferometer(params, tol, seed):
    t_ = _tol(tol, 1e-12)
    _check_budget("n_draws * 4**2", params["n_draws"] * 4 ** 2)
    # per draw: w, the two phases, then delta and tau from uniform(0.1, 3.0),
    # which is 0.1 + (3.0 - 0.1) u: the stream of five single draws
    w, phase_a, phase_b, delta, tau = np.random.default_rng(seed).random((params["n_draws"], 5)).T
    phase_a, phase_b = np.exp(2j * np.pi * np.stack([phase_a, phase_b]))
    delta, tau = 0.1 + (3.0 - 0.1) * delta, 0.1 + (3.0 - 0.1) * tau
    p10, p01 = dynamics.ramsey_vacuum_superposition(np.sqrt(1.0 - w) * phase_a,
                                                    np.sqrt(w) * phase_b, delta, tau)
    # float_power squares by pow, as a scalar ** 2 does
    worst10 = float(np.abs(p10 - w * np.float_power(np.sin(delta * tau / 2), 2)).max())
    worst01 = float(np.abs(p01 - w * np.float_power(np.cos(delta * tau / 2), 2)).max())
    return [
        _check_below("p10_formula_max_err", worst10, t_),
        _check_below("p01_formula_max_err", worst01, t_),
    ]


def _exp_verstraete(params, tol, seed):
    rho_mix, mixture = states.verstraete_state("mixture")
    rho_sec = states.verstraete_state("sectorized")
    diff = float(np.abs(rho_mix.matrix - rho_sec.matrix).max())
    decomp = ssr.sector_decompose(rho_mix, fock.number_op(rho_mix.system))
    rep = ssr.separable_ssr_theorem_check(mixture)
    return [
        _check_below("mixture_vs_sectorized", diff, 1e-14),
        _check("weight_N0", 0.25, decomp.weight_of(0), _tol(tol, 1e-12)),
        _check("weight_N1", 0.50, decomp.weight_of(1), _tol(tol, 1e-12)),
        _check("weight_N2", 0.25, decomp.weight_of(2), _tol(tol, 1e-12)),
        _check("every_component_locally_noncompliant", True,
               all(not r.compliant for _, _, r in rep.local_reports), 0),
        _check("global_compliant", True, rep.global_report.compliant, 0),
        _check("fixed_probability_caveat", True, rep.fixed_probability_caveat, 0),
    ]


def _phase_averaged_rows(alpha, system, n_phases):
    """The rows of (1/N) sum_t |b_t, b_t><b_t, b_t| on the two-mode ``system``, with
    b_t = alpha e^{-i theta_t} and theta_t = 2 pi t / N for t < N = ``n_phases``,
    one block of ``fock._row_slices`` at a time: per block ``(s, diff, quad)``,
    with ``diff`` the number differences N_i - N_j and ``quad`` the entries of
    rows ``s``.

    Amplitude (n, p) of |b_t, b_t> is c_n c_p e^{-i(n + p) theta_t}, with c the
    amplitudes of |alpha>, so entry (i, j) is v_i v_j^* S(N_i - N_j) for the
    two-mode vector v of |alpha, alpha> and the total numbers N of the rows:
    one phase sum S(D) = (1/N) sum_t e^{-i D theta_t} per number difference,
    taken CHUNK_ROWS phases at a time."""
    cutoff = system.modes[0].cutoff
    amps = states.coherent_amplitudes([alpha], cutoff)[0]
    occ = system.occupancies
    vec = amps[occ[:, 0]] * amps[occ[:, 1]]
    conj = vec.conj()
    totals = occ.sum(axis=1)
    diffs = np.arange(-2 * cutoff, 2 * cutoff + 1)
    sums = np.zeros(len(diffs), dtype=complex)
    for start in range(0, n_phases, fock.CHUNK_ROWS):
        stop = min(start + fock.CHUNK_ROWS, n_phases)
        theta = 2.0 * np.pi * np.arange(start, stop) / n_phases
        sums += np.exp(-1j * np.outer(diffs, theta)).sum(axis=1)
    sums /= n_phases
    for s in fock._row_slices(system.dim, system.dim):
        diff = totals[s, None] - totals
        quad = np.outer(vec[s], conj)
        quad *= sums[diff + 2 * cutoff]
        yield s, diff, quad


def _exp_two_mode_coherent_mixture(params, tol, seed):
    alpha = params["alpha"]
    cutoff = params["cutoff"]
    n_phases = params["n_phases"]
    _check_budget("n_phases", n_phases, "phases")
    # |N - M| <= 2 cutoff, so an n-point phase average cancels every
    # off-sector term exactly only when n > 2 cutoff
    if n_phases <= 2 * cutoff:
        raise ValueError(f"n_phases must exceed 2 * cutoff = {2 * cutoff}, got {n_phases}")
    rho = states.two_mode_coherent_mixture(alpha, cutoff)
    # both full-matrix checks a row block at a time; np.maximum keeps a NaN
    quad_err = offsector = 0.0
    for s, diff, quad in _phase_averaged_rows(alpha, rho.system, n_phases):
        rows = rho.matrix[s]
        quad_err = np.maximum(quad_err, np.abs(np.subtract(rows, quad, out=quad)).max())
        offsector = np.maximum(offsector, np.abs(rows[diff != 0]).max(initial=0.0))
    part = fock.Partition([("A", (0,)), ("B", (1,))])
    ra = fock.partial_trace(rho, part, "A")
    off_a = ra.matrix - np.diag(np.diag(ra.matrix))
    pois = states.poisson_pmf(np.arange(cutoff + 1), alpha ** 2)
    pois /= pois.sum()
    return [
        _check_below("analytic_vs_quadrature", quad_err, _tol(tol, 1e-10)),
        _check_below("selection_rule_offsector_max", offsector, 0.0),
        _check_below("reduced_A_offdiag", float(np.abs(off_a).max()), 1e-12),
        _check_below("reduced_A_poisson_err",
                     float(np.abs(ra.diagonal() - pois).max()), _tol(tol, 1e-10)),
    ]


def _exp_measurement_identities(params, tol, seed):
    t_ = _tol(tol, 1e-10)
    system = fock.bosons(2, 2)
    _check_budget("n_states * 9**2", params["n_states"] * 9 ** 2)
    part = fock.Partition([("A", (0,)), ("B", (1,))])
    obs_a = measurement.spectral(fock.number_op(system, [1, 0]))
    obs_b = measurement.spectral(fock.number_op(system, [0, 1]))
    proj_a, proj_b = obs_a.projectors, obs_b.projectors
    rhos = sampling.random_density(system, np.random.default_rng(seed), params["n_states"])
    after = measurement.unrecorded_state(rhos, obs_b)
    worst_bayes = worst_nosig = 0.0
    for pa in proj_a:
        before = measurement.prob(rhos, pa)
        total = sum(measurement.joint_prob(rhos, [pa, pb]) for pb in proj_b)
        worst_bayes = max(worst_bayes, float(np.abs(total - before).max()))
        worst_nosig = max(worst_nosig, float(np.abs(measurement.prob(after, pa) - before).max()))
    # one call per stack, so no stack holds more than the n_states the budget counts
    unrecorded, direct = (np.array([rho.matrix for rho in fock.partial_trace(stack, part, "A")])
                          for stack in (after, rhos))
    worst_reduced = float(np.abs(unrecorded - direct).max())
    return [
        _check_below("bayes_max_err", worst_bayes, t_),
        _check_below("no_signalling_max_err", worst_nosig, t_),
        _check_below("reduced_operator_max_err", worst_reduced, t_),
    ]


def _exp_separability_ssr(params, tol, seed):
    system = fock.bosons(2, 2)
    _check_budget("n_mixtures * 9**2", params["n_mixtures"] * 9 ** 2)
    part = fock.Partition([("A", (0,)), ("B", (1,))])
    mixtures = sampling.random_number_diagonal_mixture(
        system, part, np.random.default_rng(seed), params["n_mixtures"])
    ok = all(rep.all_local_compliant and rep.global_report.compliant
             for rep in ssr.separable_ssr_theorem_check(mixtures))
    _, verstraete_mix = states.verstraete_state("mixture")
    caveat = ssr.separable_ssr_theorem_check(verstraete_mix)
    return [
        _check("sufficiency_direction_holds", True, ok, 0),
        _check("verstraete_caveat", True, caveat.fixed_probability_caveat, 0),
    ]


def _exp_particle_entanglement(params, tol, seed):
    t_ = _tol(tol, 1e-10)
    system = fock.bosons(2, 2)
    _check_budget("n_mixtures * 9**2", params["n_mixtures"] * 9 ** 2)
    part = fock.Partition([("A", (0,)), ("B", (1,))])
    summed = states.summed_stack(sampling.random_number_diagonal_mixture(
        system, part, np.random.default_rng(seed), params["n_mixtures"]))
    worst = max([0.0] + witnesses.particle_entanglement(summed, part))
    one_one = system.basis_state((1, 1))
    ep_prod = witnesses.particle_entanglement(one_one, part)
    sys4 = fock.bosons(4, 1, labels=["a1", "a2", "b1", "b2"])
    part4 = fock.Partition([("A", (0, 1)), ("B", (2, 3))])
    ep_ln2 = witnesses.particle_entanglement(
        sys4.superposition([(1, 0, 0, 1), (0, 1, 1, 0)], [1 / np.sqrt(2)] * 2), part4)
    return [
        _check_below("separable_EP_max", worst, t_),
        _check_below("product_EP", ep_prod, t_),
        _check("four_mode_EP", float(np.log(2.0)), ep_ln2, t_),
    ]


def _exp_spin_epr_bound(params, tol, seed):
    t_ = _tol(tol, 1e-10)
    _check_budget("n_mixtures * 16**2", params["n_mixtures"] * 16 ** 2)
    part = fock.Partition([("one", (0, 1)), ("two", (2, 3))])
    summed = states.summed_stack(sampling.random_one_boson_pair_mixture(
        np.random.default_rng(seed), params["n_mixtures"]))
    # margin > 0 would be a violation
    worst = max([0.0] + [v.margin for v in witnesses.spin_epr(summed, part)])
    return [_check_below("separable_epr_margin_max", worst, t_)]


def _appendix_chunk(size_rng, exp_rng, unif_rng, rows):
    """Whether the sum and the integral inequality hold for each of ``rows``
    samples, as two booleans.

    A sample takes its size, an integer in [2, 8), from ``size_rng``, 7
    standard exponentials from ``exp_rng`` and 21 uniforms, its c, d and
    lambda side by side, from ``unif_rng``.  The first ``size`` entries of
    each are the sample; the rest pad it with P = C = D = 0 and a repeated
    last lambda, which add exactly 0.0 to every oracle sum.  So a chunk is
    the per-sample draws of each generator, whatever its size.  No array of
    the chunk outlives the call, so a sweep holds one chunk at a time.
    """
    low, high = 2, 8     # sample sizes drawn from [low, high)
    sizes = size_rng.integers(low, high, rows)
    padding = np.arange(high - 1) >= sizes[:, None]
    p = exp_rng.standard_exponential((rows, high - 1))
    p[padding] = 0.0
    # the weights of rng.dirichlet(np.ones(size)) of the first size exponentials
    sampling._flat_dirichlet(p)
    c, d, lam = unif_rng.random((rows, 3, high - 1)).transpose(1, 0, 2)
    c, d = (np.where(padding, 0.0, x * 10) for x in (c, d))
    # sorting with +inf in the padding leaves it last; it then repeats the largest lambda
    lam = np.where(padding, np.inf, lam)
    lam.sort(axis=1)
    lam = np.where(padding, lam[np.arange(rows), sizes - 1][:, None], lam)
    return lhv.sum_inequality_oracle(p, c, d), lhv.integral_inequality_oracle(lam, p, c, d)


def _exp_appendix_inequalities(params, tol, seed):
    n = params["n_samples"]
    _check_budget("n_samples", n, "samples")
    rng = np.random.default_rng(seed)
    # one child per distribution of the samples; spawning leaves rng's own
    # stream, which the equality case draws, where it was
    children = rng.spawn(3)
    ok_sum = ok_int = True
    for start in range(0, n, fock.CHUNK_ROWS):
        chunk_sum, chunk_int = _appendix_chunk(*children, min(fock.CHUNK_ROWS, n - start))
        ok_sum, ok_int = ok_sum and chunk_sum, ok_int and chunk_int
    p = sampling._flat_dirichlet(rng.standard_exponential(5))
    c = rng.random(5) * 3
    lhs = float(np.sum(p * c) ** 2)
    rhs = float(np.sum(p * np.sqrt(c * c)) ** 2)
    return [
        _check("sum_inequality_holds", True, ok_sum, 0),
        _check("integral_inequality_holds", True, ok_int, 0),
        _check("equality_case", lhs, rhs, _tol(tol, 1e-12)),
    ]


def _exp_phase_clock(params, tol, seed):
    t_ = _tol(tol, 1e-12)
    worst = 0.0
    for n_max in params["n_max_values"]:
        phases = range(0, n_max + 1, max(1, n_max // 4))
        omega_dts = (0.0, 0.3, 2 * np.pi / (n_max + 1), 1.7)
        # one oracle call, one solve and one closed-form call per n_max, with a
        # (omega dt, p, q) table from each
        direct = ssr.clock_prob_by_evolution(phases, phases, 1.0, omega_dts, n_max)
        closed = ssr.clock_prob(phases, phases, 1.0, omega_dts, n_max)
        worst = max(worst, float(np.abs(direct - closed).max()))
    return [_check_below("clock_formula_max_err", worst, t_)]


EXPERIMENTS = {
    "ghz_parity": (_exp_ghz_parity, {}),
    "twirl_coherent": (_exp_twirl_coherent, {"nbar": 2.0, "cutoff": 30}),
    "qcf_theorem": (_exp_qcf_theorem,
                    {"n_states": 20, "cutoff": 4, "max_order": 2}),
    "chsh_singlet": (_exp_chsh_singlet, {"n_settings": 20}),
    "chsh_separable_bound": (_exp_chsh_separable_bound,
                             {"n_mixtures": 100, "n_settings": 100}),
    "lhv_ghz_search": (_exp_lhv_ghz_search, {}),
    "lhv_chsh_bound": (_exp_lhv_chsh_bound, {"n_models": 50, "n_settings": 20}),
    "extraction": (_exp_extraction, {"r_values": [0.3, 0.6, 0.8]}),
    "atom_molecule": (_exp_atom_molecule,
                      {"n_values": [1, 5], "phi_values": [0.0, np.pi / 2],
                       "kappa": 1.0, "poisson_nbar": 0.0}),
    "vacuum_interferometer": (_exp_vacuum_interferometer, {"n_draws": 50}),
    "verstraete": (_exp_verstraete, {}),
    "two_mode_coherent_mixture": (_exp_two_mode_coherent_mixture,
                                  {"alpha": 1.0, "cutoff": 18, "n_phases": 256}),
    "measurement_identities": (_exp_measurement_identities, {"n_states": 30}),
    "separability_ssr": (_exp_separability_ssr, {"n_mixtures": 30}),
    "particle_entanglement": (_exp_particle_entanglement, {"n_mixtures": 30}),
    "spin_epr_bound": (_exp_spin_epr_bound, {"n_mixtures": 50}),
    "appendix_inequalities": (_exp_appendix_inequalities, {"n_samples": 1000}),
    "phase_clock": (_exp_phase_clock, {"n_max_values": [4, 16]}),
}


def _is_finite(value):
    # a real number, not a bool; NaN, infinities and ints too large for a
    # float all fail the bound
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# closed domains of the real params that have one; the others need only be finite
_REAL_DOMAINS = {"nbar": (0.0, math.inf), "poisson_nbar": (0.0, math.inf),
                 "r_values": (0.0, 1.0)}


def _domain(key, default):
    """(test, description) of one valid scalar for a param with this default."""
    if fock._is_integer(default):
        low = 1 if key.startswith("n_") else 0
        return (lambda v: fock._is_integer(v) and v >= low), f"an integer >= {low}"
    low, high = _REAL_DOMAINS.get(key, (-math.inf, math.inf))
    text = "a finite number" + (f" in [{low}, {high}]" if key in _REAL_DOMAINS else "")
    return (lambda v: _is_finite(v) and low <= v <= high), text


def _check_param(name, key, value, default):
    """Raise ValueError unless ``value`` has its default's kind and range.

    Integer defaults take only integers: counts named ``n_*`` at least 1,
    the others (cutoffs, orders) at least 0.  Real defaults take only finite
    numbers, within ``_REAL_DOMAINS`` where the param has a domain.  Lists
    must be non-empty, and each entry obeys the rule of the default's entries.
    """
    if isinstance(default, list):
        valid, text = _domain(key, default[0])
        ok = isinstance(value, list) and value and all(valid(v) for v in value)
        text = f"a non-empty list, each entry {text}"
    else:
        valid, text = _domain(key, default)
        ok = valid(value)
    if not ok:
        raise ValueError(f"parameter {key!r} of {name} must be {text}, got {value!r}")


def run_experiment(name, params=None, tolerance=None, seed=0):
    """Run one registered experiment and return the report dict.

    ``seed`` is a Python or numpy integer >= 0 (not a bool); the report holds
    it as an int.  The experiment gets it as an int, and one that draws builds
    ``np.random.default_rng(seed)`` inside the timed ``wall_time_s``."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    if not (fock._is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    seed = int(seed)
    func, defaults = EXPERIMENTS[name]
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    for key, value in params.items():
        _check_param(name, key, value, defaults[key])
    merged = dict(defaults)
    merged.update(params)
    start = time.perf_counter()
    checks = sorted(func(merged, tolerance, seed), key=lambda c: c["name"])
    elapsed = time.perf_counter() - start
    passed = sum(1 for c in checks if c["passed"])
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "seed": seed,
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed,
                    "failed": len(checks) - passed},
        "overall_pass": passed == len(checks),
        "wall_time_s": elapsed,
    }


def _field(scenario, key, default):
    """A scenario field, or ``default`` when it is left out or null."""
    value = scenario.get(key)
    return default if value is None else value


def run_scenario(scenario, tolerance=None, seed=None):
    """Run a parsed scenario dict.

    ``tolerance`` and ``seed``, when given, override the scenario's global
    tolerance and seed.  Only a field left out or null takes its default.
    """
    if not isinstance(scenario, dict):
        raise ValueError("a scenario must be a JSON object")
    version = scenario.get("schema_version")
    if not (fock._is_integer(version) and version == SCHEMA_VERSION):
        raise ValueError(f"unsupported schema_version {version!r}")
    unknown = set(scenario) - SCENARIO_FIELDS
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    name = scenario.get("experiment")
    if not isinstance(name, str):
        raise ValueError("scenario needs an 'experiment' name")
    tolerances = _field(scenario, "tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValueError("'tolerances' must be an object")
    unknown = set(tolerances) - {"global"}
    if unknown:
        raise ValueError(f"unknown tolerances: {sorted(unknown)}")
    if tolerance is None:
        tolerance = tolerances.get("global")
    if tolerance is not None and not (_is_finite(tolerance) and tolerance >= 0):
        raise ValueError(f"global tolerance must be a finite number >= 0, got {tolerance!r}")
    if seed is None:
        seed = _field(scenario, "seed", 0)
    return run_experiment(name, params=scenario.get("params"),
                          tolerance=tolerance, seed=seed)


def emit(report, fmt="structured"):
    """Render a report as bytes, either machine JSON or a human table."""
    if fmt == "structured":
        return (json.dumps(report, indent=2, sort_keys=True)
                + "\n").encode()
    if fmt == "table":
        lines = [f"experiment: {report['experiment']}   seed: {report['seed']}"]
        for c in report["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            lines.append(f"  [{mark}] {c['name']}: actual={c['actual']} "
                         f"expected={c['expected']} tol={c['tolerance']}")
        s = report["summary"]
        lines.append(f"passed {s['passed']}/{s['total']} checks "
                     f"({s['failed']} failed)")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def list_experiments():
    """Experiment names with their parameter schemas (defaults)."""
    lines = []
    for name in sorted(EXPERIMENTS):
        _, defaults = EXPERIMENTS[name]
        schema = ", ".join(f"{k}={v!r}" for k, v in sorted(defaults.items()))
        lines.append(f"{name}({schema})")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Run a scenario file of entanglement/SSR checks.")
    parser.add_argument("scenario", nargs="?", help="path to a JSON scenario file")
    parser.add_argument("--list", action="store_true",
                        help="list registered experiments and exit")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--format", choices=["structured", "table"],
                        default="structured")
    parser.add_argument("--tol", type=float, default=None,
                        help="global tolerance override")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    args = parser.parse_args(argv)

    if args.list:
        sys.stdout.write(list_experiments() + "\n")
        return 0
    if not args.scenario:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: cannot read scenario: {exc}\n")
        return 2
    try:
        report = run_scenario(scenario, tolerance=args.tol, seed=args.seed)
    except (KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    payload = emit(report, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report: {exc}\n")
            return 2
    else:
        sys.stdout.buffer.write(payload)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
