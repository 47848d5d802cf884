"""Dynamical protocols: beam splitters, sector-projected entanglement
extraction, the atom-molecule Ramsey sequence, the vacuum-superposition
interferometer, and number-SSR propagation under conserving Hamiltonians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    NORM_ATOL,
    ModeSystem,
    Operator,
    DensityOperator,
    PureState,
    Partition,
    annihilation,
    apply_unitary,
    bosons,
    evolution_operator,
    fermions,
    number_op,
    partial_trace,
    unitary_evolve,
)
from .ssr import SSR_TOL, ssr_check
from .states import poisson_pmf
from .measurement import PROB_FLOOR, ZeroProbabilityError

REAL_ROTATION = "real-rotation"
MINUS_I = "minus_i"


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Mode pairs coupled with common reflectivity r and transmissivity t."""

    mode_pairs: tuple
    r: float
    t: float
    convention: str = REAL_ROTATION

    def __post_init__(self):
        with np.errstate(over="ignore"):    # a huge r or t squares to inf, which fails
            norm2 = np.float64(self.r) ** 2 + np.float64(self.t) ** 2
        if not abs(norm2 - 1.0) <= NORM_ATOL:   # NaN fails too
            raise ValueError("r^2 + t^2 must equal 1")
        if self.convention not in (REAL_ROTATION, MINUS_I):
            raise ValueError(f"unknown convention {self.convention!r}")


@dataclass(frozen=True)
class ProcessResult:
    """Stagewise states plus derived scalar quantities of one protocol run."""

    stages: tuple
    final_state: object
    quantities: dict = field(default_factory=dict)

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
    gen = np.zeros((system.dim, system.dim), dtype=complex)
    for ma, mb in spec.mode_pairs:
        if system.modes[ma].statistics != system.modes[mb].statistics:
            raise ValueError("paired modes must share statistics")
        if system.modes[ma].cutoff != system.modes[mb].cutoff:
            raise ValueError("paired modes must share cutoffs")
        a = annihilation(system, ma).matrix
        b = annihilation(system, mb).matrix
        if spec.convention == REAL_ROTATION:
            gen += b.conj().T @ a - a.conj().T @ b
        else:
            gen += -1j * (a.conj().T @ b + b.conj().T @ a)
    angle = math.atan2(spec.r, spec.t)
    # gen is anti-Hermitian in both conventions: exp(angle gen) = exp(-i (i gen) angle)
    return evolution_operator(Operator(system, 1j * gen), angle)


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
    """
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

    spec = BeamSplitterSpec(mode_pairs=((0, 2), (1, 3)), r=r, t=t)
    u = beam_splitter(system, spec)
    out = apply_unitary(u, initial)

    na, nb = sector
    occ = system.occupancies
    in_sector = (occ[:, :2].sum(axis=1) == na) & (occ[:, 2:].sum(axis=1) == nb)
    projected = np.where(in_sector, out.amplitudes, 0.0)
    p_sector = float(np.linalg.norm(projected) ** 2)
    if p_sector <= PROB_FLOOR:
        raise ZeroProbabilityError(f"sector probability {p_sector} below floor")
    projected_state = PureState(system, projected / np.sqrt(p_sector))
    return ProcessResult(
        stages=(("input", initial), ("after_splitter", out),
                ("projected", projected_state)),
        final_state=projected_state,
        quantities={"sector": sector, "sector_probability": p_sector},
    )


def _atom_molecule_hamiltonian(n_bec, kappa):
    """Coupling (kappa/2)(bM^dag bA b2 + h.c.) on (atom, molecule, BEC) modes.

    Mode frequencies are dropped: the resonant pulses have zero detuning and
    the free stage is applied as an explicit phase, so only the coupling
    matters.  The conserved combination is n_A + 2 n_M + n_2.
    """
    system = ModeSystem([("atom", 1), ("mol", 1), ("bec", n_bec)])
    b_a = annihilation(system, 0).matrix
    b_m = annihilation(system, 1).matrix
    b_2 = annihilation(system, 2).matrix
    coupling = 0.5 * kappa * (b_m.conj().T @ b_a @ b_2)
    h = coupling + coupling.conj().T
    return system, Operator(system, h)


def _calibrate_half_transfer(system, h, evals, vecs, n_bec):
    """First pulse duration with molecule population exactly 1/2.

    Found numerically by root finding on the full-matrix evolution rather
    than trusting any closed-form duration.
    """
    start = system.index_of((1, 0, n_bec))
    target = system.index_of((0, 1, n_bec - 1))
    row = vecs[target, :]
    col = vecs[start, :].conj()

    def transfer(t):
        amp = np.sum(row * col * np.exp(-1j * evals * t))
        return float(abs(amp) ** 2) - 0.5

    # bracket around the quarter-Rabi estimate set by the coupling element
    rabi = abs(h.matrix[target, start])
    if rabi == 0:
        raise ValueError("no atom-molecule coupling on this space")
    guess = math.pi / (4.0 * rabi)
    return _bisect(transfer, 0.1 * guess, 1.9 * guess)


def _bisect(f, lo, hi):
    """Root of ``f`` in [lo, hi], halving until hi - lo <= 1e-14 + 1e-15 |x|.

    The relative term exceeds four machine epsilons, so the interval can
    always shrink to the stopping width.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi > 0:
        raise ValueError("f(lo) and f(hi) must have different signs")
    if f_lo == 0 or f_hi == 0:
        return lo if f_lo == 0 else hi
    while hi - lo > 1e-14 + 1e-15 * abs(0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _am_reduced_system():
    return ModeSystem([("atom", 1), ("mol", 1)])


def _run_atom_molecule_fock(n_bec, kappa, phi):
    """Three-stage pulse/phase/pulse sequence from |one atom> |N in the BEC>."""
    system, h = _atom_molecule_hamiltonian(n_bec, kappa)
    evals, vecs = np.linalg.eigh(h.matrix)
    t_pulse = _calibrate_half_transfer(system, h, evals, vecs, n_bec)
    pulse = Operator(system, (vecs * np.exp(-1j * evals * t_pulse)) @ vecs.conj().T)
    initial = system.basis_state((1, 0, n_bec))
    after_pulse1 = apply_unitary(pulse, initial)
    # free stage at large detuning: phase phi accumulated by the molecule
    phase = Operator(system, np.diag(
        np.exp(-1j * phi * system.occupancies[:, 1]).astype(complex)))
    after_free = apply_unitary(phase, after_pulse1)
    final = apply_unitary(pulse, after_free)
    partition = Partition([("am", (0, 1)), ("bec", (2,))])
    rdo = partial_trace(final, partition, "am")
    return ProcessResult(
        stages=(("initial", initial), ("after_pulse1", after_pulse1),
                ("after_free", after_free), ("final", final)),
        final_state=final,
        quantities=_am_quantities(rdo),
    )


def _am_quantities(rdo):
    sys_am = rdo.system
    i_atom = sys_am.index_of((1, 0))
    i_mol = sys_am.index_of((0, 1))
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
    """
    if initial == "fock":
        if n_bec < 1:
            raise ValueError("need at least one BEC boson")
        return _run_atom_molecule_fock(int(n_bec), kappa, phi)
    if initial != "poisson":
        raise ValueError(f"unknown initial {initial!r}")

    nbar = float(n_bec)
    n_max = int(nbar + 20.0 * math.sqrt(max(nbar, 1.0)) + 20)
    weights = poisson_pmf(np.arange(n_max + 1), nbar)
    keep = np.nonzero(weights > 1e-15)[0]
    weights = weights[keep] / weights[keep].sum()

    sys_am = _am_reduced_system()
    rdo_mat = np.zeros((sys_am.dim, sys_am.dim), dtype=complex)
    i_atom = sys_am.index_of((1, 0))
    for w, n in zip(weights, keep):
        if n == 0:
            rdo_mat[i_atom, i_atom] += w
            continue
        component = _run_atom_molecule_fock(int(n), kappa, phi)
        rdo_mat += w * component.quantities["atom_molecule_rdo"].matrix
    rdo = DensityOperator(sys_am, rdo_mat)
    return ProcessResult(stages=(), final_state=rdo, quantities=_am_quantities(rdo))


def ramsey_vacuum_superposition(alpha, beta, delta, tau):
    """Interferometry on (alpha|0> + beta|1>)_A |0>_B: pulse, drift, pulse.

    Returns (P10, P01), the probabilities of finding the boson in mode A or
    mode B.  Both equal |beta|^2 sin^2/cos^2 of (delta tau / 2); the same
    probabilities result from the phase-insensitive mixed initial state,
    which is verified on every call.
    """
    alpha, beta = complex(alpha), complex(beta)
    with np.errstate(over="ignore"):    # a huge amplitude squares to inf, which fails
        norm2 = np.float64(abs(alpha)) ** 2 + np.float64(abs(beta)) ** 2
    if not abs(norm2 - 1.0) <= NORM_ATOL:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    system = bosons(2, 1, labels=["A", "B"])
    s = 1.0 / math.sqrt(2.0)
    bs = beam_splitter(system, BeamSplitterSpec(
        mode_pairs=((0, 1),), r=s, t=s, convention=MINUS_I))
    free = Operator(system, np.diag(
        np.exp(-1j * delta * tau * system.occupancies[:, 1]).astype(complex)))
    u_total = bs @ free @ bs

    i00, i10, i01 = system.indices_of([(0, 0), (1, 0), (0, 1)])
    vec = np.zeros(system.dim, dtype=complex)
    vec[i00] = alpha
    vec[i10] = beta
    final = u_total.matrix @ vec
    p10 = float(abs(final[i10]) ** 2)
    p01 = float(abs(final[i01]) ** 2)

    mixed = np.zeros((system.dim, system.dim), dtype=complex)
    mixed[i00, i00] = abs(alpha) ** 2
    mixed[i10, i10] = abs(beta) ** 2
    mixed_final = apply_unitary(u_total, DensityOperator(system, mixed)).matrix
    p10_mixed = float(np.real(mixed_final[i10, i10]))
    p01_mixed = float(np.real(mixed_final[i01, i01]))
    if abs(p10 - p10_mixed) > 1e-12 or abs(p01 - p01_mixed) > 1e-12:
        raise AssertionError("pure and mixed initial states disagree")
    return p10, p01


@dataclass(frozen=True)
class PropagationReport:
    """SSR residuals of an evolving separable state under a conserving H."""

    conserving_residual: float
    all_local_compliant: bool
    times: tuple
    global_residuals: tuple
    compliant_at_all_times: bool
    tol: float


def ssr_propagation_check(mixture, h, weights=None, times=(0.5, 1.0, 2.0)):
    """Evolve a separable mixture under a number-conserving Hamiltonian.

    Requires [N_w, H] = 0 within 1e-10 (raises with the residual otherwise).
    Locally compliant components guarantee the evolved state stays globally
    N_w-compliant; a non-compliant component shows up as a nonzero residual.
    """
    system = h.system
    n_w = number_op(system, weights)
    comm = n_w.matrix @ h.matrix - h.matrix @ n_w.matrix
    conserving = float(np.linalg.norm(comm))
    if conserving > 1e-10:
        raise ValueError(f"Hamiltonian does not conserve the weighted number "
                         f"(residual {conserving})")
    local_ok = True
    for comp in mixture.components:
        for name, factor in comp.factors.items():
            idx = mixture.partition.modes_of(name)
            w_local = None if weights is None else \
                np.asarray(weights, dtype=float)[list(idx)]
            rep = ssr_check(factor, number_op(factor.system, w_local))
            local_ok = local_ok and rep.compliant
    rho0 = mixture.summed()
    residuals = []
    for t in times:
        rho_t = unitary_evolve(h, t, rho0)
        residuals.append(ssr_check(rho_t, n_w).residual)
    residuals = tuple(residuals)
    return PropagationReport(
        conserving_residual=conserving,
        all_local_compliant=local_ok,
        times=tuple(times),
        global_residuals=residuals,
        compliant_at_all_times=all(r <= SSR_TOL for r in residuals),
        tol=SSR_TOL,
    )
