"""Dynamical protocols: beam splitters, sector-projected entanglement
extraction, the atom-molecule Ramsey sequence, the vacuum-superposition
interferometer, and number-SSR propagation under conserving Hamiltonians.
"""

from __future__ import annotations

import math

import numpy as np

from . import measurement, ssr, states
from .fock import (
    MAX_DIM,
    NORM_ATOL,
    ModeSystem,
    Operator,
    PureState,
    Partition,
    _MEMO,
    _Record,
    _abs_squared,
    _check_physical,
    _density_stack,
    _eigenvalues,
    _evolve,
    _hermitian_blocks,
    _is_integer,
    _key,
    _one_or_many,
    _rotate,
    _unitaries,
    bosons,
    evolution_operator,
    fermions,
    ladder_sum,
    number_diagonal,
    partial_trace,
    unitary_evolve,
)

REAL_ROTATION = "real-rotation"
MINUS_I = "minus_i"

# least sector probability P of an extraction split: the projected state is the
# evolved one divided by sqrt(P), so its amplitudes carry rounding of about
# 2 eps / sqrt(P) (at most 4.7e-16 / sqrt(P) over every case and r), within
# 4.7e-13 from this floor on, under half the 1e-12 of the extraction checks
SPLIT_FLOOR = 1e-6


class BeamSplitterSpec(_Record):
    """Mode pairs coupled with common reflectivity r and transmissivity t."""

    __slots__ = ("mode_pairs", "r", "t", "convention")
    _defaults = {"convention": REAL_ROTATION}

    def _check(self):
        for pair in self.mode_pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(_is_integer(m) and m >= 0 for m in pair) and pair[0] != pair[1]):
                raise ValueError(f"a mode pair is two distinct mode indices, got {pair!r}")
        with np.errstate(over="ignore"):    # a huge r or t squares to inf, which fails
            norm2 = np.float64(self.r) ** 2 + np.float64(self.t) ** 2
        if not abs(norm2 - 1.0) <= NORM_ATOL:   # NaN fails too
            raise ValueError("r^2 + t^2 must equal 1")
        if self.convention not in (REAL_ROTATION, MINUS_I):
            raise ValueError(f"unknown convention {self.convention!r}")


class ProcessResult(_Record):
    """Stagewise states plus derived scalar quantities of one protocol run."""

    __slots__ = ("stages", "final_state", "quantities")

    def stage(self, label):
        for name, state in self.stages:
            if name == label:
                return state
        raise KeyError(f"no stage {label!r}")


def beam_splitter(system, spec):
    """Unitary coupling each (a_k, b_k) pair.

    real-rotation: U = exp(theta (bdag a - adag b)) per pair with t = cos
    theta, r = sin theta, conjugating creation operators to
    U adag U^-1 = r bdag + t adag and U bdag U^-1 = t bdag - r adag.
    minus_i (resonant microwave pulse): U = exp(-i phi (adag b + bdag a))
    with phi = atan2(r, t); at phi = pi/4 a single boson splits into
    (|1,0> - i|0,1>)/sqrt(2).
    """
    return _unitaries(system, _splitter_blocks(system, spec), math.atan2(spec.r, spec.t))


def _splitter_blocks(system, spec):
    """The ``_hermitian_blocks`` solve of the Hermitian H with ``beam_splitter`` =
    exp(-i H atan2(r, t)).  H does not depend on r and t, so its solve is kept in
    ``_MEMO`` under the system, the mode pairs and the convention, and counted at
    its arrays' bytes: O(sum k^2) for its number-sector components of size k, so
    splitters well past dim 512 fit the budget."""
    pairs = tuple(tuple(pair) for pair in spec.mode_pairs)
    return _MEMO.get(_key("splitter", system, pairs, spec.convention),
                     _solve_splitter, system, pairs, spec.convention)


def _solve_splitter(system, mode_pairs, convention):
    terms = []
    for ma, mb in mode_pairs:
        if max(ma, mb) >= system.n_modes:
            raise ValueError(f"mode pair {(ma, mb)} outside a system of {system.n_modes} modes")
        if system.modes[ma].statistics != system.modes[mb].statistics:
            raise ValueError("paired modes must share statistics")
        if system.modes[ma].cutoff != system.modes[mb].cutoff:
            raise ValueError("paired modes must share cutoffs")
        b_dag_a, a_dag_b = ((mb, True), (ma, False)), ((ma, True), (mb, False))
        if convention == REAL_ROTATION:
            terms += [(1, b_dag_a), (-1, a_dag_b)]
        else:
            terms += [(-1j, a_dag_b), (-1j, b_dag_a)]
    # gen is anti-Hermitian in both conventions: exp(angle gen) = exp(-i (i gen) angle)
    return _hermitian_blocks(Operator(system, 1j * ladder_sum(system, terms).matrix))


def expm(gen):
    """exp(gen) for an anti-Hermitian matrix ``gen``, through ``evolution_operator``.

    Nothing in focklab calls this.  It keeps the name
    ``focklab.dynamics.expm`` bound, because bench/tracer.py wraps that name
    as its ``linalg.expm`` kernel; it can go when the benchmark drops that
    entry.
    """
    carrier = bosons(1, gen.shape[0] - 1)
    return evolution_operator(Operator(carrier, 1j * gen), 1.0).matrix


def extraction_experiment(case, r, t):
    """Beam-splitter extraction of symmetrisation entanglement.

    Prepares all particles on the A side, applies the real-rotation beam
    splitter to every (a_k, b_k) pair, and projects onto a fixed particle
    split (N_A, N_B).  Cases: ``two_boson`` (one boson in each of a0, a1,
    project (1,1)), ``three_boson`` (two in a0, one in a1, project (2,1)),
    ``two_fermion`` (modes c0, c1 occupied, project (1,1); the output keeps
    the anticommutation minus sign).

    Scalar ``r`` and ``t`` give one result; two sequences give the list of
    results at each (r, t) pair.  Only the splitter angle atan2(r, t) depends
    on the pair, so the input is evolved to every angle by one ``_evolve`` of the
    splitter's solve (``_splitter_blocks``) and no unitary is formed.  The system
    and that solve are kept in ``_MEMO``, so a repeated case solves nothing.

    The projected state is divided by the root of its sector probability P, which
    scales its rounding by 1/sqrt(P): a P below ``SPLIT_FLOOR`` (r below 5.8e-4 to
    7.1e-4 by case, or above 1 - 2.9e-4 for ``three_boson``) raises
    ``ZeroProbabilityError`` naming P and the floor.
    """
    one = np.ndim(r) == 0 and np.ndim(t) == 0
    r_values, t_values = ([r], [t]) if one else (r, t)
    if case == "two_boson":
        system = bosons(4, 2, labels=["a0", "a1", "b0", "b1"])
        initial = system.basis_state((1, 1, 0, 0))
        sector = (1, 1)
    elif case == "three_boson":
        system = bosons(4, 3, labels=["a0", "a1", "b0", "b1"])
        initial = system.basis_state((2, 1, 0, 0))
        sector = (2, 1)
    elif case == "two_fermion":
        system = fermions(4, labels=["c0", "c1", "d0", "d1"])
        initial = system.basis_state((1, 1, 0, 0))
        sector = (1, 1)
    else:
        raise ValueError(f"unknown case {case!r}")
    if np.ndim(r_values) != 1 or np.ndim(t_values) != 1 \
            or len(r_values) != len(t_values) or not len(r_values):
        raise ValueError("extraction needs a scalar r and t, or as many t values as "
                         "r values, at least one")
    specs = []
    for i, (r, t) in enumerate(zip(r_values, t_values)):
        try:
            specs.append(BeamSplitterSpec(mode_pairs=((0, 2), (1, 3)), r=r, t=t))
        except ValueError as exc:
            raise ValueError(f"pair {i}: {exc}") from None
    outs = [PureState(system, psi) for psi in _evolve(
        _splitter_blocks(system, specs[0]), [math.atan2(spec.r, spec.t) for spec in specs],
        initial.amplitudes)]

    in_sector = ((number_diagonal(system, [1, 1, 0, 0]) == sector[0])
                 & (number_diagonal(system, [0, 0, 1, 1]) == sector[1]))
    results = []
    for i, (spec, out) in enumerate(zip(specs, outs)):
        projected = np.where(in_sector, out.amplitudes, 0.0)
        p_sector = float(np.linalg.norm(projected) ** 2)
        if not p_sector >= SPLIT_FLOOR:
            raise measurement.ZeroProbabilityError(
                f"pair {i}: sector probability {p_sector} below SPLIT_FLOOR = "
                f"{SPLIT_FLOOR} at r = {spec.r!r}")
        projected_state = PureState(system, projected / np.sqrt(p_sector))
        # by position: stages, final_state, quantities
        results.append(ProcessResult(
            (("input", initial), ("after_splitter", out), ("projected", projected_state)),
            projected_state, {"sector": sector, "sector_probability": p_sector}))
    return results[0] if one else results


def _atom_molecule_hamiltonian(n_bec, kappa):
    """Coupling (kappa/2)(bM^dag bA b2 + h.c.) on (atom, molecule, BEC) modes, as
    ``(system, H)``.

    Mode frequencies are dropped: the resonant pulses have zero detuning and
    the free stage is applied as an explicit phase, so only the coupling
    matters.  The conserved combination is n_A + 2 n_M + n_2.
    """
    system = ModeSystem([("atom", 1), ("mol", 1), ("bec", n_bec)])
    half = 0.5 * kappa
    return system, ladder_sum(system, [
        (half, ((1, True), (0, False), (2, False))),
        (np.conj(half), ((2, True), (0, True), (1, False)))])


def _calibrate_half_transfer(system, h, blocks, n_bec):
    """First pulse duration with molecule population exactly 1/2.

    Found numerically by root finding on the exact evolution, through the
    eigenpairs of the ``eigh_blocks`` of H: <target|V and V^H|start> are read
    once by ``_rotate``, rather than trusting any closed-form duration.  The
    transfer is evaluated on a vector of times per ``_bisect`` step.
    """
    start, target = system.indices_of([(1, 0, n_bec), (0, 1, n_bec - 1)])
    # bracket around the quarter-Rabi estimate set by the coupling element
    rabi = float(abs(h.matrix[target, start]))
    if rabi == 0:
        raise ValueError("no atom-molecule coupling on this space")
    guess = math.pi / (4.0 * rabi)
    if not 1.9 * guess < math.inf:
        raise ValueError(f"atom-molecule coupling {rabi!r} is too weak: its pulse time "
                         "passes the float range")
    units = np.zeros((system.dim, 2), dtype=complex)
    units[[target, start], [0, 1]] = 1.0
    bra, col = _rotate(blocks, units, adjoint=True).T
    weights, rates = bra.conj() * col, -1j * _eigenvalues(blocks)

    def transfer(times):
        # one row per time, each summed alone, as a vector of its own would be
        terms = np.exp(np.multiply.outer(times, rates))
        terms *= weights
        return _abs_squared(np.add.reduce(terms, axis=1)) - 0.5

    return _bisect(transfer, 0.1 * guess, 1.9 * guess)


def _bisect(f, lo, hi):
    """Root of ``f`` in [lo, hi], halving until the midpoint equals an endpoint:
    the bracket is then two adjacent floats, whatever the scale of the root.

    ``f`` maps a 1-D array of points to their values.  Each call takes the 7
    midpoints that the next 3 halvings could meet, and the halvings then walk
    them, so the result is that of halving one point at a time.
    """
    levels = 3     # of 2 to 5 levels per call, 3 took the least time
    f_lo, f_hi = f(np.array([lo, hi])).tolist()
    if f_lo * f_hi > 0:
        raise ValueError("f(lo) and f(hi) must have different signs")
    if f_lo == 0 or f_hi == 0:
        return lo if f_lo == 0 else hi
    while True:
        # heap order: node i halves its bracket at mids[i - 1]; 2i and 2i + 1 take
        # the lower and the upper half, one level after another
        brackets, mids = [(lo, hi)], []
        for _ in range(levels):
            # the sum of the halves, which cannot overflow: 0.5 * (a + b) to the bit
            halves = [0.5 * a + 0.5 * b for a, b in brackets]
            brackets = [pair for (a, b), m in zip(brackets, halves) for pair in ((a, m), (m, b))]
            mids += halves
        values = f(np.array(mids)).tolist()
        node = 1
        for _ in range(levels):
            mid, f_mid = mids[node - 1], values[node - 1]
            if mid in (lo, hi) or f_mid == 0:
                return mid
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo, node = mid, f_mid, 2 * node + 1
            else:
                hi, node = mid, 2 * node


def _run_atom_molecule_fock(n_bec, kappa, phi):
    """Three-stage pulse/phase/pulse sequence from |one atom> |N in the BEC>, for one
    phase ``phi`` or each of a 1-D sequence of them: one ProcessResult or the list.

    The system, H and its solve, the pulse calibration and the first pulse are
    built once per call; each phase takes its own free stage and second pulse,
    and the final states are reduced by one ``partial_trace`` of their stack.
    """
    system, h = _atom_molecule_hamiltonian(n_bec, kappa)
    blocks = _hermitian_blocks(h)
    t_pulse = _calibrate_half_transfer(system, h, blocks, n_bec)
    initial = system.basis_state((1, 0, n_bec))
    after_pulse1 = PureState(system, _evolve(blocks, [t_pulse], initial.amplitudes)[0])
    runs = []
    for p in [phi] if np.ndim(phi) == 0 else phi:
        # free stage at large detuning: phase p accumulated by the molecule
        after_free = PureState(system, np.exp(-1j * p * system.occupancies[:, 1])
                               * after_pulse1.amplitudes)
        final = PureState(system, _evolve(blocks, [t_pulse], after_free.amplitudes)[0])
        runs.append((("initial", initial), ("after_pulse1", after_pulse1),
                     ("after_free", after_free), ("final", final)))
    partition = Partition([("am", (0, 1)), ("bec", (2,))])
    rdos = partial_trace([stages[-1][1] for stages in runs], partition, "am")
    out = [ProcessResult(stages, stages[-1][1], _am_quantities(rdo))
           for stages, rdo in zip(runs, rdos)]
    return out[0] if np.ndim(phi) == 0 else out


def _am_quantities(rdo):
    i_atom, i_mol = rdo.system.indices_of([(1, 0), (0, 1)])
    return {
        "atom_molecule_rdo": rdo,
        "p_atom": float(np.real(rdo.matrix[i_atom, i_atom])),
        "p_molecule": float(np.real(rdo.matrix[i_mol, i_mol])),
        "coherence": complex(rdo.matrix[i_atom, i_mol]),
    }


def atom_molecule_process(n_bec, kappa, phi, initial="fock"):
    """Ramsey-type atom/molecule interconversion against a BEC reservoir.

    Resonant pulse (calibrated to half population transfer), free evolution
    contributing phase ``phi`` on the molecule amplitude, resonant pulse.
    The final reduced atom-molecule operator is diagonal with populations
    (sin^2(phi/2), cos^2(phi/2)) and no coherences.

    ``initial="fock"`` starts from a BEC Fock state with ``n_bec`` bosons
    (``n_bec >= 1``); ``initial="poisson"`` starts from the Poisson mixture
    with mean ``n_bec``, evolving each Fock component with its own calibrated
    pulses.  The N = 0 component has no partner atom to convert and stays
    atomic.

    ``phi`` is one finite phase, giving one ProcessResult, or a non-empty 1-D
    sequence of them, giving the list of results at each phase, each with the
    bits of its call alone: a system is built, solved and calibrated once per
    BEC number, for every phase.
    """
    phases, one = _one_or_many(
        phi, "atom_molecule_process takes one phase or a non-empty sequence of phases")
    if not np.isfinite(phases).all():
        raise ValueError(f"phases {phases} are not all finite")
    if initial == "fock":
        if not _is_integer(n_bec) or n_bec < 1:
            raise ValueError(f"n_bec of a Fock initial state must be an integer >= 1, "
                             f"got {n_bec!r}")
        return _run_atom_molecule_fock(int(n_bec), kappa, phi)
    if initial != "poisson":
        raise ValueError(f"unknown initial {initial!r}")

    nbar = float(n_bec)
    top = MAX_DIM // 4 - 1     # the largest BEC number of an (atom, mol, bec) system
    # past the mean the weights fall, so the grid stops at top + 1: a kept count
    # above top shows there, before any component is built
    n_max = min(int(nbar + 20.0 * math.sqrt(max(nbar, 1.0)) + 20), top + 1)
    weights = states.poisson_pmf(np.arange(n_max + 1), nbar)
    if nbar > top or (weights[top + 1:] > 1e-15).any():
        raise ValueError(f"a Poisson mean of {nbar!r} keeps BEC numbers above {top}, the "
                         f"largest of a system within MAX_DIM = {MAX_DIM}")
    keep = np.nonzero(weights > 1e-15)[0]
    weights = weights[keep] / weights[keep].sum()

    sys_am = ModeSystem([("atom", 1), ("mol", 1)])
    rdo_mats = np.zeros((len(phases), sys_am.dim, sys_am.dim), dtype=complex)
    i_atom = sys_am.index_of((1, 0))
    for w, n in zip(weights, keep):
        if n == 0:
            rdo_mats[:, i_atom, i_atom] += w
            continue
        components = _run_atom_molecule_fock(int(n), kappa, phi)
        for mat, component in zip(rdo_mats, [components] if one else components):
            mat += w * component.quantities["atom_molecule_rdo"].matrix
    out = [ProcessResult((), rdo, _am_quantities(rdo))
           for rdo in _density_stack(sys_am, rdo_mats)]
    return out[0] if one else out


def ramsey_vacuum_superposition(alpha, beta, delta, tau):
    """Interferometry on (alpha|0> + beta|1>)_A |0>_B: pulse, drift, pulse.

    Gives (P10, P01), the probabilities of finding the boson in mode A or
    mode B: two floats for scalar arguments, two (n,) arrays for n draws.
    Both equal |beta|^2 sin^2/cos^2 of (delta tau / 2); the same
    probabilities result from the phase-insensitive mixed initial state,
    which is verified on every call.  The 50/50 splitter is built once; the
    mixed initial states and their evolved forms are each checked as one
    stack, and the pure and mixed probabilities must agree within 1e-12 for
    every draw, whose index a disagreement names.
    """
    one = all(np.ndim(x) == 0 for x in (alpha, beta, delta, tau))
    alphas, betas = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (alpha, beta))
    deltas, taus = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (delta, tau))
    if not alphas.size:
        raise ValueError("the interferometer needs at least one draw")
    with np.errstate(over="ignore"):    # a huge amplitude squares to inf, which fails
        norm2 = _abs_squared(alphas) + _abs_squared(betas)
    bad = ~(abs(norm2 - 1.0) <= NORM_ATOL)
    if bad.any():
        raise ValueError(f"draw {int(np.argmax(bad))}: |alpha|^2 + |beta|^2 must equal 1")
    system = bosons(2, 1, labels=["A", "B"])
    s = 1.0 / math.sqrt(2.0)
    bs = beam_splitter(system, BeamSplitterSpec(
        mode_pairs=((0, 1),), r=s, t=s, convention=MINUS_I)).matrix
    diag = np.arange(system.dim)
    free = np.zeros((len(deltas), system.dim, system.dim), dtype=complex)
    free[:, diag, diag] = np.exp(-1j * deltas[:, None] * taus[:, None]
                                 * system.occupancies[:, 1])
    u_total = bs @ free @ bs

    i00, i10, i01 = system.indices_of([(0, 0), (1, 0), (0, 1)])
    vecs = np.zeros((len(deltas), system.dim), dtype=complex)
    vecs[:, i00] = alphas
    vecs[:, i10] = betas
    final = (u_total @ vecs[:, :, None])[..., 0]
    p10 = _abs_squared(final[:, i10])
    p01 = _abs_squared(final[:, i01])

    mixed = np.zeros_like(free)
    mixed[:, i00, i00] = _abs_squared(alphas)
    mixed[:, i10, i10] = _abs_squared(betas)
    _check_physical(mixed)
    mixed_final = u_total @ mixed @ u_total.conj().swapaxes(-1, -2)
    _check_physical(mixed_final)
    disagree = (abs(p10 - mixed_final[:, i10, i10].real) > 1e-12) \
        | (abs(p01 - mixed_final[:, i01, i01].real) > 1e-12)
    if disagree.any():
        raise AssertionError(f"draw {int(np.argmax(disagree))}: "
                             "pure and mixed initial states disagree")
    return (float(p10[0]), float(p01[0])) if one else (p10, p01)


PROPAGATION_TIMES = (0.5, 1.0, 2.0)


class PropagationReport(_Record):
    """SSR residuals of an evolving separable state under a conserving H."""

    __slots__ = ("conserving_residual", "all_local_compliant", "times", "global_residuals",
                 "compliant_at_all_times", "tol")


def ssr_propagation_check(mixture, h, weights=None):
    """Evolve a separable mixture under a number-conserving Hamiltonian.

    Requires [N_w, H] = 0 within 1e-10 (raises with the residual otherwise).
    Locally compliant components guarantee the evolved state stays globally
    N_w-compliant; a non-compliant component shows up as a nonzero residual
    at one of the ``PROPAGATION_TIMES``.
    """
    n_diag = number_diagonal(h.system, weights)
    conserving = ssr._commutator_residuals(n_diag, h.matrix)
    if not conserving <= 1e-10:     # NaN fails too
        raise ValueError(f"Hamiltonian does not conserve the weighted number "
                         f"(residual {conserving})")
    local_ok = all(rep.compliant for _, _, rep in ssr._local_reports([mixture], weights)[0])
    residuals = tuple(ssr._commutator_residuals(n_diag, rho.matrix)
                      for rho in unitary_evolve(h, PROPAGATION_TIMES, mixture.summed()))
    return PropagationReport(
        conserving_residual=conserving,
        all_local_compliant=local_ok,
        times=PROPAGATION_TIMES,
        global_residuals=residuals,
        compliant_at_all_times=all(r <= ssr.SSR_TOL for r in residuals),
        tol=ssr.SSR_TOL,
    )
