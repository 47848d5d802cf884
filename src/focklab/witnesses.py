"""Entanglement tests: CHSH, correlation inequality, GHZ parity, spin EPR
conditional variances, and the sector-projected particle entanglement measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    NORM_ATOL,
    Operator,
    PureState,
    _abs_squared,
    _check_physical,
    _density_matrices,
    _expectations,
    _reduced_matrices,
    _sector_stacks,
    annihilation,
    as_density,
    expectation,
    ladder_sum,
)
from .measurement import _unrecorded_variances, spectral

DECISION_TOL = 1e-9
GHZ_TOL = 1e-12


@dataclass(frozen=True)
class SpinOps:
    """Schwinger spin operators of one two-mode subsystem."""

    sx: Operator
    sy: Operator
    sz: Operator


def spin_ops(system, mode_a, mode_b):
    """S_x = (bdag a + adag b)/2, S_y = (bdag a - adag b)/2i, S_z = (nb - na)/2."""
    b_dag_a = ((mode_b, True), (mode_a, False))
    a_dag_b = ((mode_a, True), (mode_b, False))
    n_a = ((mode_a, True), (mode_a, False))
    n_b = ((mode_b, True), (mode_b, False))
    return SpinOps(sx=ladder_sum(system, [(0.5, b_dag_a), (0.5, a_dag_b)]),
                   sy=ladder_sum(system, [(-0.5j, b_dag_a), (0.5j, a_dag_b)]),
                   sz=ladder_sum(system, [(0.5, n_b), (-0.5, n_a)]))


def pauli_ops(system, mode):
    """Pauli matrices on a cutoff-1 mode, spin-up mapped to the occupied state."""
    if system.modes[mode].cutoff != 1:
        raise ValueError("pauli_ops needs a cutoff-1 mode")
    a = annihilation(system, mode)
    adag = a.dag()
    sigma_x = a + adag
    sigma_y = 1j * (a - adag)
    n = ladder_sum(system, [(1, ((mode, True), (mode, False)))])
    sigma_z = 2.0 * n - system.identity()
    return sigma_x, sigma_y, sigma_z


@dataclass(frozen=True)
class CHSHSetting:
    """Unit measurement directions a1, a2 for one side and b1, b2 for the other."""

    a1: tuple
    a2: tuple
    b1: tuple
    b2: tuple

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or not abs(np.linalg.norm(v) - 1.0) <= NORM_ATOL:
                raise ValueError(f"{name} is not a unit 3-vector")


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of a witness evaluation.

    ``margin`` is the amount by which the violating side exceeds the bound,
    so ``violated`` is always ``margin > DECISION_TOL``.
    """

    lhs: float
    rhs: float
    violated: bool
    margin: float


def chsh_correlation_tensor(states):
    """T_ij = <sigma_i x sigma_j> on a two-qubit (two cutoff-1 mode) state, as a
    (3, 3) array, or the (n, 3, 3) tensors of n two-qubit states on one system.

    The nine products sigma_i x sigma_j are built once and contracted with
    the (n, 4, 4) stack of densities by one ``fock._expectations``.
    """
    system, stack, one = _density_matrices(states)
    if system.dim != 4:
        raise ValueError("CHSH needs a two-qubit state (dimension 4)")
    paulis_b = pauli_ops(system, 1)
    products = np.stack([(sa @ sb).matrix for sa in pauli_ops(system, 0) for sb in paulis_b])
    out = _expectations(stack, products).real.reshape(-1, 3, 3)
    return out[0] if one else out


def chsh(state, setting):
    """S = E(A1 B1) + E(A1 B2) + E(A2 B1) - E(A2 B2) with E = a.T T b."""
    t = chsh_correlation_tensor(state)
    a1, a2 = np.asarray(setting.a1), np.asarray(setting.a2)
    b1, b2 = np.asarray(setting.b1), np.asarray(setting.b2)
    return float(a1 @ t @ b1 + a1 @ t @ b2 + a2 @ t @ b1 - a2 @ t @ b2)


def chsh_batch(tensors, a1, a2, b1, b2):
    """Vectorised |S| over stacked correlation tensors and settings."""
    s = (np.einsum("mij,si,sj->ms", tensors, a1, b1)
         + np.einsum("mij,si,sj->ms", tensors, a1, b2)
         + np.einsum("mij,si,sj->ms", tensors, a2, b1)
         - np.einsum("mij,si,sj->ms", tensors, a2, b2))
    return np.abs(s)


def correlation_test(state, omega_a, omega_b):
    """Correlation inequality |<Oa^dag Ob>|^2 <= <Oa^dag Oa Ob^dag Ob>.

    ``omega_a`` and ``omega_b`` are full-space operators supported on disjoint
    subsystems (so they commute).  A violation certifies entanglement.
    """
    rho = as_density(state)
    lhs = abs(expectation(rho, omega_a.dag() @ omega_b)) ** 2
    rhs = expectation(rho, omega_a.dag() @ omega_a @ omega_b.dag() @ omega_b).real
    margin = lhs - rhs
    return WitnessVerdict(lhs=float(lhs), rhs=rhs,
                          violated=margin > DECISION_TOL, margin=float(margin))


@dataclass(frozen=True)
class GHZParityReport:
    residuals: dict
    passed: bool
    tol: float


def ghz_parity(state, tol=GHZ_TOL):
    """Check the four GHZ parity eigenvalue identities.

    sigma_x sigma_y sigma_y (and cyclic) must have eigenvalue -1 and
    sigma_x sigma_x sigma_x eigenvalue +1, each as || O|psi> -+ |psi> ||.
    """
    if not isinstance(state, PureState):
        raise TypeError("ghz_parity expects a pure state")
    system = state.system
    if system.dim != 8:
        raise ValueError("GHZ parity needs a three-qubit state (dimension 8)")
    paulis = [pauli_ops(system, k) for k in range(3)]

    def triple(axes):
        op = paulis[0][axes[0]] @ paulis[1][axes[1]] @ paulis[2][axes[2]]
        return op.matrix @ state.amplitudes

    x, y = 0, 1
    residuals = {
        "xyy": float(np.linalg.norm(triple((x, y, y)) + state.amplitudes)),
        "yxy": float(np.linalg.norm(triple((y, x, y)) + state.amplitudes)),
        "yyx": float(np.linalg.norm(triple((y, y, x)) + state.amplitudes)),
        "xxx": float(np.linalg.norm(triple((x, x, x)) - state.amplitudes)),
    }
    return GHZParityReport(residuals=residuals,
                           passed=all(r <= tol for r in residuals.values()),
                           tol=tol)


def spin_epr(states, partition):
    """Spin EPR test on two two-mode subsystems: the verdict of one state, or
    the list of verdicts of a non-empty sequence of states on one system.

    lhs is the product of the unrecorded-conditioned variances
    <dS_x1^2>_{S_x2} <dS_y1^2>_{S_y2}; rhs is |<S_z1>|^2 / 4.  A violation
    (lhs below rhs) certifies entanglement; separable states always satisfy
    the inequality.  The spins are built and resolved by ``spectral`` once
    per call, and the conditioned variances and <S_z1> are evaluated over
    the whole stack; each state's verdict does not depend on the others.
    """
    system, stack, one = _density_matrices(states)
    names = partition.names
    if len(names) != 2:
        raise ValueError("spin EPR needs a two-subsystem partition")
    m1 = partition.modes_of(names[0])
    m2 = partition.modes_of(names[1])
    if len(m1) != 2 or len(m2) != 2:
        raise ValueError("each subsystem must hold two modes")
    spins1, spins2 = spin_ops(system, *m1), spin_ops(system, *m2)
    sx1, sx2, sy1, sy2 = (spectral(op) for op in (spins1.sx, spins2.sx, spins1.sy, spins2.sy))
    lhs = _unrecorded_variances(stack, sx1, sx2) * _unrecorded_variances(stack, sy1, sy2)
    rhs = 0.25 * _abs_squared(_expectations(stack, spins1.sz.matrix[None])[:, 0])
    margin = rhs - lhs
    out = [WitnessVerdict(lhs=left, rhs=right, violated=m > DECISION_TOL, margin=m)
           for left, right, m in zip(lhs.tolist(), rhs.tolist(), margin.tolist())]
    return out[0] if one else out


def particle_entanglement(states, partition):
    """Number-sector-projected mode-entanglement entropy E_P of one state, as a
    float, or of each of a non-empty sequence of states on one system, as a
    list of floats.

    E_P = sum_{nA,nB} P_{nA nB} E_M(sector state), where the sector state is
    the (nA, nB) joint-number projection of rho (normalised) and E_M is the
    von Neumann entropy (natural log) of its reduced operator on the first
    subsystem.  Zero on separable states for single-mode subsystems, where
    the joint-number projectors are rank one.

    The sectors of every state are joined by block size: per size, one
    ``_reduced_matrices`` call, whose reduced states take one
    ``_check_physical``, which gives their spectra.  Each state's terms are
    added in ascending label order, from 0.0, as for the state alone.
    """
    system, stack, one = _density_matrices(states)
    names = partition.names
    if len(names) != 2:
        raise ValueError("particle entanglement needs a bipartite partition")
    partition.validate(system)
    idx_a = partition.modes_of(names[0])
    idx_b = partition.modes_of(names[1])
    occ = system.occupancies
    num_a = occ[:, idx_a].sum(axis=1)
    num_b = occ[:, idx_b].sum(axis=1)
    keys = num_a * (int(num_b.max()) + 1) + num_b   # unique (nA, nB) encoding
    terms = []
    for source, labels, weights, rows, blocks in _sector_stacks(stack, keys):
        _, reduced = _reduced_matrices(system, rows, blocks, idx_a)
        evals = _check_physical(reduced)
        # an eigenvalue at or below 1e-15 becomes 1, whose 1 log 1 adds exactly 0.0
        evals = np.where(evals > 1e-15, evals, 1.0)
        entropies = -(evals * np.log(evals)).sum(axis=-1)
        terms += zip(source.tolist(), labels, (np.array(weights) * entropies).tolist())
    ep = [0.0] * len(stack)
    for i, _, term in sorted(terms):
        ep[i] += term
    return ep[0] if one else ep


def casimir_residual(state, spins, n_pair):
    """|| <sum_a S_a^2> - <(N/2)(N/2+1)> || as an expectation residual."""
    s2 = spins.sx @ spins.sx + spins.sy @ spins.sy + spins.sz @ spins.sz
    half = 0.5 * n_pair
    target = half @ half + half
    return abs(expectation(state, s2 - target))
