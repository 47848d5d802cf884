"""Constructors for the named states and separable forms used throughout.

Mixtures keep their components explicit: local SSR diagnostics quantify over
the factors, and summing to a single matrix would destroy that information.
"""

from __future__ import annotations

import math

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
    _check_physical,
    _density_stack,
    _sub_codes,
    number_diagonal,
    sector_blocks,
    sub_system,
)

TAIL_TOL = 1e-10


class SeparableMixture:
    """Werner-form mixture sum_R P_R rho_R^A x rho_R^B x ...: the read-only (R,)
    ``probabilities`` and, per subsystem name in partition order, the read-only
    (R, k, k) stack of ``factors`` on ``sub_system(system, modes)``.  It is
    checked as a stack of one of ``mixture_stack``."""

    __slots__ = ("system", "partition", "probabilities", "factors")

    def __init__(self, system, partition, probabilities, factors):
        (one,) = mixture_stack(system, partition, _real_array(probabilities, 1)[None],
                               {name: np.asarray(factors[name])[None] for name in factors})
        self.system, self.partition = system, partition
        self.probabilities, self.factors = one.probabilities, one.factors

    def summed(self):
        """The mixture as a single density operator on the full system: a
        stack of one of ``summed_stack``."""
        return summed_stack([self])[0]


def _real_array(values, rank):
    """``values`` as a new float array; raises ValueError unless it has rank
    ``rank`` and every entry is a real number, not a bool, string or complex.
    An array is judged by its dtype, anything else entry by entry."""
    entries = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    real = entries.dtype.kind in "iuf" or entries.dtype == object and all(
        isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        for v in entries.flat)
    if entries.ndim != rank or not real:
        raise ValueError(f"probabilities must be a rank-{rank} array of reals, got {values!r}")
    return entries.astype(float)


def mixture_stack(system, partition, probabilities, factors):
    """n mixtures on one system and partition from the (n, R) ``probabilities``
    and, per subsystem name, the (n, R, k, k) ``factors``: mixture i holds
    read-only views of row i of copies of each.

    Raises ValueError unless every probability is a real number >= 0, each row
    sums to 1 within NORM_ATOL, the factors name each subsystem once with a
    stack of that shape, and every factor passes ``_check_physical``: one stack
    per dimension, subsystem after subsystem in partition order, whose failure
    names its index."""
    partition.validate(system)
    if not partition.covers(system):
        raise ValueError("partition must cover every mode of the system")
    probs = _real_array(probabilities, 2)
    if not len(probs):
        raise ValueError("a mixture stack needs at least one mixture")
    with np.errstate(invalid="ignore"):     # an infinite entry gives inf - inf = NaN
        ok = (abs(probs.sum(axis=1) - 1.0) <= NORM_ATOL) & (probs >= 0).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"mixture {i}: probabilities {probs[i]} must be >= 0 and sum to 1")
    names = partition.names
    if set(factors) != set(names):
        raise ValueError(f"factors must name each subsystem {names} once, got {tuple(factors)}")
    stacks = {name: np.asarray(factors[name], dtype=complex) for name in names}
    for name, modes in partition.subsystems:
        shape = probs.shape + (sub_system(system, modes).dim,) * 2
        if stacks[name].shape != shape:
            raise ValueError(f"factors of {name!r} have shape {stacks[name].shape}, not {shape}")
    for k, sel in sector_blocks([stack.shape[-1] for stack in stacks.values()]):
        checked = np.concatenate([stacks[names[j]] for j in sel])
        _check_physical(checked.reshape(-1, k, k))
        checked.setflags(write=False)
        stacks.update(zip([names[j] for j in sel], np.split(checked, len(sel))))
    probs.setflags(write=False)
    mixtures = [object.__new__(SeparableMixture) for _ in probs]
    for i, mix in enumerate(mixtures):
        mix.system, mix.partition, mix.probabilities = system, partition, probs[i]
        mix.factors = {name: stacks[name][i] for name in names}
    return mixtures


def summed_stack(mixtures):
    """Each of n mixtures on one system and partition, with one number of
    components, as a single density operator: one read-only (n, d, d) stack,
    checked once by ``_density_stack``.

    The stack adds one component index at a time, over all mixtures at once:
    the term P_R rho_R^A x rho_R^B x ... multiplies the probabilities by each
    subsystem's factors, gathered onto the full basis by ``_sub_codes``, in
    partition order, and is added to the sum, which starts at zero.  Every
    entry so has the bits of a term-by-term sum, and a stack of one holds
    three d x d arrays at its peak, whatever the number of components.
    """
    if not mixtures:
        raise ValueError("summed_stack needs at least one mixture, got an empty stack")
    first = mixtures[0]
    system, partition = first.system, first.partition
    for i, m in enumerate(mixtures):
        if m.system != system or m.partition != partition \
                or len(m.probabilities) != len(first.probabilities):
            raise ValueError(f"mixture {i}: a stack of mixtures needs one system, partition "
                             "and number of components")
    probs = np.array([m.probabilities for m in mixtures], dtype=complex)
    # per subsystem: its codes and its (n, R, k, k) factors
    factors = [(_sub_codes(system, partition.modes_of(name))[1],
                np.array([m.factors[name] for m in mixtures]))
               for name in partition.names]
    out = np.zeros((len(mixtures), system.dim, system.dim), dtype=complex)
    for r in range(probs.shape[1]):
        term = np.empty_like(out)
        term[:] = probs[:, r, None, None]
        for codes, stack in factors:
            term *= stack[:, r][:, codes[:, None], codes]
        out += term
        del term    # before the next term is allocated
    return _density_stack(system, out)


def poisson_pmf(n, mu):
    """Poisson probabilities e^{-mu} mu^n / n! at integer counts ``n >= 0``.

    Evaluated as exp(n ln mu - mu - ln n!), which stays finite for large n
    and mu; at mu = 0 all weight sits on n = 0.  ``mu`` may be an array that
    broadcasts against ``n``, such as a column of means against a row of
    counts; ln n! is tabulated once per call.
    """
    n = np.asarray(n)
    mu = np.asarray(mu, dtype=float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n.ravel()]).reshape(n.shape)
    # math.log per mean: np.log differs from it in the last bit of some means
    log_mu = np.array([math.log(m) if m else 0.0 for m in mu.ravel()]).reshape(mu.shape)
    return np.where(mu == 0, n == 0, np.exp(n * log_mu - mu - log_fact))


def _mean_within_cutoff(amplitudes, cutoff):
    """Mean occupancies ``amplitudes**2`` of coherent modes truncated at ``cutoff``.

    ``amplitudes`` is one magnitude or an array of them.  Raises when the
    Poisson weight beyond the cutoff exceeds TAIL_TOL, naming the first
    failing entry of an array.  An amplitude too large to square gives an
    infinite mean and a NaN tail, which fail the same check, without a
    warning.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # each square as the scalar power np.float64(a) ** 2 (libm pow), whose
        # last bit the array square a * a does not always reproduce
        nbar = np.array([a ** 2 for a in amplitudes.ravel()]).reshape(amplitudes.shape)
        tail = 1.0 - poisson_pmf(np.arange(cutoff + 1), nbar[..., None]).sum(axis=-1)
    ok = tail <= TAIL_TOL
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        where = f" (row {i})" if tail.ndim else ""
        raise ValueError(f"insufficient cutoff: Poisson tail {tail.ravel()[i]:.3e}{where}")
    return nbar


def coherent_amplitudes(betas, cutoff):
    """Read-only (n, cutoff+1) amplitudes e^{-|b|^2/2} b^k / sqrt(k!) of the
    truncated coherent states of the n amplitudes ``betas``, each row
    renormalised.

    Raises when an amplitude is not finite, or when the Poisson weight beyond
    the cutoff exceeds TAIL_TOL, naming the first failing row.  Each row has
    the bits of the state built on its own: |b| is a hypot, the complex
    product of the recurrence is written out in real arithmetic and each
    row's norm is its own ``np.linalg.norm``.
    """
    betas = np.asarray(betas, dtype=complex).reshape(-1)
    finite = np.isfinite(betas)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"coherent amplitude {complex(betas[i])} is not finite (row {i})")
    br, bi = betas.real, betas.imag
    nbar = _mean_within_cutoff(np.hypot(br, bi), cutoff)
    amps = np.zeros((len(betas), cutoff + 1), dtype=complex)
    amps[:, 0] = 1.0
    re, im = amps.real, amps.imag
    roots = np.sqrt(np.arange(cutoff + 1))
    for k in range(1, cutoff + 1):
        re[:, k] = re[:, k - 1] * br - im[:, k - 1] * bi
        im[:, k] = re[:, k - 1] * bi + im[:, k - 1] * br
        amps[:, k] /= roots[k]
    amps *= np.exp(-nbar / 2.0)[:, None]
    amps /= np.array([np.linalg.norm(row) for row in amps])[:, None]
    amps.setflags(write=False)
    return amps


def coherent(beta, cutoff):
    """Truncated coherent state with amplitudes e^{-|b|^2/2} b^n / sqrt(n!).

    Raises when the Poisson weight beyond the cutoff exceeds TAIL_TOL; the
    kept amplitudes are renormalised.  It is one row of ``coherent_amplitudes``.
    """
    system = ModeSystem([("a", cutoff)])
    return PureState(system, coherent_amplitudes([beta], cutoff)[0])


def bell_one_boson(kind):
    """One-boson Bell states on two modes.

    psi+/psi- share one boson between the modes and commute with the total
    number; phi+/phi- superpose the vacuum with a two-boson state and violate
    the global number SSR.
    """
    if kind not in ("psi+", "psi-", "phi+", "phi-"):
        raise ValueError(f"unknown Bell state {kind!r}")
    rows = [(0, 1), (1, 0)] if kind.startswith("psi") else [(0, 0), (1, 1)]
    s = 1.0 / math.sqrt(2.0)
    sign = 1.0 if kind.endswith("+") else -1.0
    return bosons(2, 1, labels=["A", "B"]).superposition(rows, [s, sign * s])


def ghz():
    """GHZ state of three qubits, (|+1,+1,+1> + |-1,-1,-1>)/sqrt(2).

    Qubits are cutoff-1 modes with spin-up mapped to the occupied state.
    """
    return qubits(3).superposition([(1, 1, 1), (0, 0, 0)], [1.0 / math.sqrt(2.0)] * 2)


def singlet_spin():
    """Two-subsystem spin singlet, one boson in each two-mode subsystem.

    Modes are ordered (a1, b1, a2, b2); S_z eigenstates are |+-1/2> = |0,1>
    and |1,0> within each pair.  The state is rotation invariant, so it has
    the same form in the x, y and z spin bases.
    """
    s = 1.0 / math.sqrt(2.0)
    # |+>_1 |->_2 and |->_1 |+>_2
    return bosons(4, 1, labels=["a1", "b1", "a2", "b2"]).superposition(
        [(0, 1, 1, 0), (1, 0, 0, 1)], [s, -s])


def _two_mode_rows(n_total):
    """The occupancy rows (k, N - k), k = 0..N, of N bosons in two modes."""
    k = np.arange(n_total + 1)
    return np.stack([k, n_total - k], axis=1)


def binomial_state(theta, chi, n_total):
    """N bosons shared between two modes through a rotated creation operator.

    Each mode has cutoff N.  Amplitude of |k, N-k> is sqrt(C(N,k)) cos^k(theta)
    sin^{N-k}(theta) e^{i(N-2k) chi/2}, the expansion of the N-th power of the
    rotated-mode creation operator applied to the vacuum.
    """
    amps = [math.sqrt(math.comb(n_total, k))
            * math.cos(theta) ** k * math.sin(theta) ** (n_total - k)
            * np.exp(1j * (n_total - 2 * k) * chi / 2.0) for k in range(n_total + 1)]
    return bosons(2, n_total, labels=["a", "b"]).superposition(_two_mode_rows(n_total), amps)


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
    # V |r, s> = |s, r>: row i of the basis meets the row with its occupancies swapped
    flip = np.zeros((d * d, d * d), dtype=complex)
    flip[np.arange(d * d), system.indices_of(system.occupancies[:, ::-1])] = 1.0
    mat = ((d - phi) * eye + (d * phi - 1.0) * flip) / (d ** 3 - d)
    return DensityOperator(system, mat)     # PSD check runs at construction


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
        vecs = np.array([[1, w] for w in (1, 1j, -1, -1j)], dtype=complex) / math.sqrt(2.0)
        factor = vecs[:, :, None] * vecs[:, None, :].conj()     # |psi_w><psi_w|
        mixture = SeparableMixture(system, partition, np.full(4, 0.25), {"A": factor, "B": factor})
        return mixture.summed(), mixture
    if form == "sectorized":
        mat = np.zeros((4, 4), dtype=complex)
        idx = system.indices_of([(0, 0), (1, 1), (0, 1), (1, 0)])
        mat[idx[:2], idx[:2]] = 0.25                  # N = 0 and N = 2
        mat[np.ix_(idx[2:], idx[2:])] = 0.25          # N = 1, maximally entangled
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
    totals = number_diagonal(system)
    mat = np.outer(weight, weight) * (totals[:, None] == totals[None, :])
    mat *= np.exp(-2.0 * nbar)
    mat /= np.real(np.trace(mat))
    return DensityOperator(system, mat)


def dissociation_state(m_molecules, amplitudes):
    """Entangled molecule-atom state sum_m C_m |M-m>_mol |2m>_atom; the
    ``PureState`` it builds checks the norm."""
    amps = np.asarray(amplitudes, dtype=complex)
    if len(amps) != m_molecules + 1:
        raise ValueError("need M+1 amplitudes")
    m = np.arange(m_molecules + 1)
    return ModeSystem([("mol", m_molecules), ("atom", 2 * m_molecules)]).superposition(
        np.stack([m_molecules - m, 2 * m], axis=1), amps)


def two_mode_N_boson(amplitudes):
    """Pure state sum_k C_k |k>_A |N-k>_B with N fixed by len(amplitudes)-1; the
    ``PureState`` it builds checks the norm."""
    amps = np.asarray(amplitudes, dtype=complex)
    n_total = len(amps) - 1
    return bosons(2, n_total, labels=["A", "B"]).superposition(_two_mode_rows(n_total), amps)


def mixed_N_boson(probabilities):
    """Statistical mixture sum_k P_k |k, N-k><k, N-k| (separable, SSR compliant)."""
    probs = np.asarray(probabilities, dtype=float)
    if not abs(probs.sum() - 1.0) <= NORM_ATOL or probs.min() < 0:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    n_total = len(probs) - 1
    system = bosons(2, n_total, labels=["A", "B"])
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    idx = system.indices_of(_two_mode_rows(n_total))
    mat[idx, idx] = probs
    return DensityOperator(system, mat)
