"""Constructors for the named states and separable forms used throughout.

Mixtures keep their components explicit: local SSR diagnostics quantify over
the factors, and summing to a single matrix would destroy that information.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    NORM_ATOL,
    ModeSystem,
    DensityOperator,
    PureState,
    Partition,
    annihilation,
    bosons,
    qubits,
    sub_system,
)

TAIL_TOL = 1e-10


@dataclass(frozen=True)
class MixtureComponent:
    probability: float
    factors: dict    # subsystem name -> DensityOperator on that subsystem


class SeparableMixture:
    """Werner-form mixture sum_R P_R rho_R^A x rho_R^B x ... with components kept."""

    def __init__(self, system, partition, components):
        partition.validate(system)
        if not partition.covers(system):
            raise ValueError("partition must cover every mode of the system")
        total = sum(c.probability for c in components)
        if not abs(total - 1.0) <= NORM_ATOL:
            raise ValueError(f"component probabilities sum to {total}, not 1")
        for c in components:
            if c.probability < 0:
                raise ValueError("negative component probability")
            if set(c.factors) != set(partition.names):
                raise ValueError("each component needs one factor per subsystem")
            for name, factor in c.factors.items():
                expected = tuple(system.modes[i] for i in partition.modes_of(name))
                if factor.system.modes != expected:
                    raise ValueError(f"factor for {name!r} lives on the wrong modes")
        self.system = system
        self.partition = partition
        self.components = tuple(components)

    def summed(self):
        """The mixture as a single density operator on the full system."""
        sub_codes = {}
        for name in self.partition.names:
            idx = self.partition.modes_of(name)
            sub_codes[name] = sub_system(self.system, idx).indices_of(
                self.system.occupancies[:, idx])
        out = np.zeros((self.system.dim, self.system.dim), dtype=complex)
        for comp in self.components:
            term = np.full((self.system.dim, self.system.dim), comp.probability,
                           dtype=complex)
            for name, factor in comp.factors.items():
                codes = sub_codes[name]
                term *= factor.matrix[np.ix_(codes, codes)]
            out += term
        return DensityOperator(self.system, out)


@dataclass(frozen=True)
class NamedState:
    """Catalog entry: a state plus a short description of what it is."""

    label: str
    state: object            # PureState or DensityOperator
    system: ModeSystem
    note: str = ""


def poisson_pmf(n, mu):
    """Poisson probabilities e^{-mu} mu^n / n! at integer counts ``n >= 0``.

    Evaluated as exp(n ln mu - mu - ln n!), which stays finite for large n
    and mu; at mu = 0 all weight sits on n = 0.
    """
    n = np.asarray(n)
    if mu == 0:
        return (n == 0).astype(float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n.ravel()]).reshape(n.shape)
    return np.exp(n * math.log(mu) - mu - log_fact)


def _mean_within_cutoff(amplitude, cutoff):
    """Mean occupancy ``amplitude**2`` of a coherent mode truncated at ``cutoff``.

    Raises when the Poisson weight beyond the cutoff exceeds TAIL_TOL.  An
    amplitude too large to square gives an infinite mean and a NaN tail,
    which fail the same check, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nbar = np.float64(amplitude) ** 2
        tail = 1.0 - poisson_pmf(np.arange(cutoff + 1), nbar).sum()
    if not tail <= TAIL_TOL:
        raise ValueError(f"insufficient cutoff: Poisson tail {tail:.3e}")
    return float(nbar)


def coherent(beta, cutoff):
    """Truncated coherent state with amplitudes e^{-|b|^2/2} b^n / sqrt(n!).

    Raises when the Poisson weight beyond the cutoff exceeds TAIL_TOL; the
    kept amplitudes are renormalised.
    """
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValueError(f"coherent amplitude {beta} is not finite")
    nbar = _mean_within_cutoff(abs(beta), cutoff)
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for k in range(1, cutoff + 1):
        amps[k] = amps[k - 1] * beta / np.sqrt(k)
    amps *= np.exp(-nbar / 2.0)
    amps /= np.linalg.norm(amps)
    system = ModeSystem([("a", cutoff)])
    return PureState(system, amps)


def bell_one_boson(kind):
    """One-boson Bell states on two modes.

    psi+/psi- share one boson between the modes and commute with the total
    number; phi+/phi- superpose the vacuum with a two-boson state and violate
    the global number SSR.
    """
    system = bosons(2, 1, labels=["A", "B"])
    vec = np.zeros(system.dim, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    if kind in ("psi+", "psi-"):
        sign = 1.0 if kind == "psi+" else -1.0
        vec[system.index_of((0, 1))] = s
        vec[system.index_of((1, 0))] = sign * s
    elif kind in ("phi+", "phi-"):
        sign = 1.0 if kind == "phi+" else -1.0
        vec[system.index_of((0, 0))] = s
        vec[system.index_of((1, 1))] = sign * s
    else:
        raise ValueError(f"unknown Bell state {kind!r}")
    return PureState(system, vec)


def ghz():
    """GHZ state of three qubits, (|+1,+1,+1> + |-1,-1,-1>)/sqrt(2).

    Qubits are cutoff-1 modes with spin-up mapped to the occupied state.
    """
    system = qubits(3)
    vec = np.zeros(system.dim, dtype=complex)
    vec[system.index_of((1, 1, 1))] = 1.0 / math.sqrt(2.0)
    vec[system.index_of((0, 0, 0))] = 1.0 / math.sqrt(2.0)
    return PureState(system, vec)


def singlet_spin():
    """Two-subsystem spin singlet, one boson in each two-mode subsystem.

    Modes are ordered (a1, b1, a2, b2); S_z eigenstates are |+-1/2> = |0,1>
    and |1,0> within each pair.  The state is rotation invariant, so it has
    the same form in the x, y and z spin bases.
    """
    system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
    vec = np.zeros(system.dim, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    vec[system.index_of((0, 1, 1, 0))] = s      # |+>_1 |->_2
    vec[system.index_of((1, 0, 0, 1))] = -s     # |->_1 |+>_2
    return PureState(system, vec)


def binomial_state(theta, chi, n_total, cutoff=None):
    """N bosons shared between two modes through a rotated creation operator.

    Amplitude of |k, N-k> is sqrt(C(N,k)) cos^k(theta) sin^{N-k}(theta)
    e^{i(N-2k) chi/2}, the expansion of the N-th power of the rotated-mode
    creation operator applied to the vacuum.
    """
    if cutoff is None:
        cutoff = n_total
    if cutoff < n_total:
        raise ValueError("cutoff must be at least the boson number")
    system = bosons(2, cutoff, labels=["a", "b"])
    vec = np.zeros(system.dim, dtype=complex)
    for k in range(n_total + 1):
        amp = (math.sqrt(math.comb(n_total, k))
               * math.cos(theta) ** k * math.sin(theta) ** (n_total - k)
               * np.exp(1j * (n_total - 2 * k) * chi / 2.0))
        vec[system.index_of((k, n_total - k))] = amp
    return PureState(system, vec)


def rotated_mode_annihilation(system, theta, chi):
    """c = cos(theta) e^{i chi/2} a + sin(theta) e^{-i chi/2} b on two modes."""
    a = annihilation(system, 0)
    b = annihilation(system, 1)
    return (math.cos(theta) * np.exp(1j * chi / 2.0)) * a \
        + (math.sin(theta) * np.exp(-1j * chi / 2.0)) * b


def werner_qudit(d, phi):
    """Two-qudit state (d^3-d)^{-1} [(d-phi) 1 + (d phi - 1) V] with V the flip.

    Invariant under U x U; positivity is validated numerically after
    construction since the admissible phi range is not derived analytically.
    """
    if d < 2:
        raise ValueError("qudit dimension must be at least 2")
    system = bosons(2, d - 1, labels=["A", "B"])
    eye = np.eye(d * d, dtype=complex)
    flip = np.zeros((d * d, d * d), dtype=complex)
    for r in range(d):
        for s in range(d):
            flip[system.index_of((r, s)), system.index_of((s, r))] = 1.0
    mat = ((d - phi) * eye + (d * phi - 1.0) * flip) / (d ** 3 - d)
    return DensityOperator(system, mat)     # PSD check runs at construction


def _zero_one_superposition(omega, label):
    system = ModeSystem([(label, 1)])
    return PureState(system, np.array([1.0, omega], dtype=complex) / math.sqrt(2.0))


def verstraete_state(form="mixture"):
    """Two-mode state that obeys the global number SSR but not the local one.

    form="mixture": equal-weight mixture of |psi_w>|psi_w> with
    |psi_w> = (|0> + w|1>)/sqrt(2), w in {1, i, -1, -i}; returns the summed
    density operator together with the explicit SeparableMixture.
    form="sectorized": the same matrix assembled as the N = 0, 1, 2 number
    sectors (1/4, 1/2, 1/4) with the one-boson part maximally entangled.
    """
    system = bosons(2, 1, labels=["A", "B"])
    if form == "mixture":
        partition = Partition([("A", (0,)), ("B", (1,))])
        components = []
        for omega in (1.0, 1.0j, -1.0, -1.0j):
            factors = {lab: _zero_one_superposition(omega, lab).density()
                       for lab in ("A", "B")}
            components.append(MixtureComponent(0.25, factors))
        mixture = SeparableMixture(system, partition, components)
        return mixture.summed(), mixture
    if form == "sectorized":
        mat = np.zeros((4, 4), dtype=complex)
        i00 = system.index_of((0, 0))
        i11 = system.index_of((1, 1))
        i01 = system.index_of((0, 1))
        i10 = system.index_of((1, 0))
        mat[i00, i00] = 0.25
        mat[i11, i11] = 0.25
        for i in (i01, i10):
            for j in (i01, i10):
                mat[i, j] += 0.25
        return DensityOperator(system, mat)
    raise ValueError(f"unknown form {form!r}")


def two_mode_coherent_mixture(alpha_abs, cutoff):
    """Phase-averaged mixture of two-mode coherent states |a e^{-it}, a e^{-it}>.

    Built analytically: element (n,p|rho|m,q) = e^{-2|a|^2} |a|^{n+m+p+q}
    delta_{n+p, m+q} / sqrt(n! m! p! q!), then trace-normalised on the
    truncated space.  The delta selection rule is exact by construction.
    """
    alpha_abs = abs(alpha_abs)
    nbar = _mean_within_cutoff(alpha_abs, cutoff)
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1)))))
    system = bosons(2, cutoff, labels=["A", "B"])
    occ = system.occupancies
    # amplitude factor |a|^n / sqrt(n!) per single-mode occupancy
    single = alpha_abs ** n / np.sqrt(np.exp(log_fact))
    weight = single[occ[:, 0]] * single[occ[:, 1]]
    totals = occ.sum(axis=1)
    mat = np.outer(weight, weight) * (totals[:, None] == totals[None, :])
    mat *= np.exp(-2.0 * nbar)
    mat /= np.real(np.trace(mat))
    return DensityOperator(system, mat)


def dissociation_state(m_molecules, amplitudes):
    """Entangled molecule-atom state sum_m C_m |M-m>_mol |2m>_atom."""
    amps = np.asarray(amplitudes, dtype=complex)
    if len(amps) != m_molecules + 1:
        raise ValueError("need M+1 amplitudes")
    if not abs(np.linalg.norm(amps) - 1.0) <= NORM_ATOL:
        raise ValueError("amplitudes are not normalised")
    system = ModeSystem([("mol", m_molecules), ("atom", 2 * m_molecules)])
    vec = np.zeros(system.dim, dtype=complex)
    for m, c in enumerate(amps):
        vec[system.index_of((m_molecules - m, 2 * m))] = c
    return PureState(system, vec)


def two_mode_N_boson(amplitudes):
    """Pure state sum_k C_k |k>_A |N-k>_B with N fixed by len(amplitudes)-1."""
    amps = np.asarray(amplitudes, dtype=complex)
    n_total = len(amps) - 1
    if not abs(np.linalg.norm(amps) - 1.0) <= NORM_ATOL:
        raise ValueError("amplitudes are not normalised")
    system = bosons(2, n_total, labels=["A", "B"])
    vec = np.zeros(system.dim, dtype=complex)
    for k, c in enumerate(amps):
        vec[system.index_of((k, n_total - k))] = c
    return PureState(system, vec)


def mixed_N_boson(probabilities):
    """Statistical mixture sum_k P_k |k, N-k><k, N-k| (separable, SSR compliant)."""
    probs = np.asarray(probabilities, dtype=float)
    if not abs(probs.sum() - 1.0) <= NORM_ATOL or probs.min() < 0:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    n_total = len(probs) - 1
    system = bosons(2, n_total, labels=["A", "B"])
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    for k, p in enumerate(probs):
        i = system.index_of((k, n_total - k))
        mat[i, i] = p
    return DensityOperator(system, mat)


def catalog():
    """The parameterless named states, for listing and scenario tooling."""
    entries = [
        NamedState("bell_psi_plus", bell_one_boson("psi+"), bell_one_boson("psi+").system,
                   "one-boson Bell state, global number-SSR compliant"),
        NamedState("bell_psi_minus", bell_one_boson("psi-"), bell_one_boson("psi-").system,
                   "one-boson Bell state, global number-SSR compliant"),
        NamedState("bell_phi_plus", bell_one_boson("phi+"), bell_one_boson("phi+").system,
                   "vacuum/two-boson Bell state, violates the global number SSR"),
        NamedState("bell_phi_minus", bell_one_boson("phi-"), bell_one_boson("phi-").system,
                   "vacuum/two-boson Bell state, violates the global number SSR"),
        NamedState("ghz", ghz(), ghz().system,
                   "three-qubit parity-contradiction state"),
        NamedState("singlet", singlet_spin(), singlet_spin().system,
                   "two-subsystem spin singlet, one boson per two-mode pair"),
    ]
    rho = verstraete_state("sectorized")
    entries.append(NamedState(
        "verstraete", rho, rho.system,
        "equal mixture of four zero/one-boson superposition products; "
        "global number SSR holds, local fails per component"))
    return {e.label: e for e in entries}
