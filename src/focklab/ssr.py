"""Particle-number super-selection diagnostics and phase-reference machinery.

Global/local SSR compliance checks, exact U(1) twirling (sector projection),
quantum correlation functions, number-sector decomposition, phase states as
a clock, and the internalisation/externalisation maps between a coherent
superposition and its number-entangled two-mode representation.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import states
from .fock import (
    ModeSystem,
    PureState,
    _Record,
    _density_matrices,
    _on_system,
    _density_stack,
    _is_integer,
    _one_or_many,
    _real_entries,
    _residual_norms,
    _sector_stacks,
    apply_unitary,
    as_density,
    bosons,
    number_diagonal,
    number_op,
    evolution_operator,
    ladder_product,
    sub_system,
)

SSR_TOL = 1e-10


class SSRReport(_Record):
    __slots__ = ("residual", "compliant", "tol")


class Sector(_Record):
    """Weight, basis indices and normalised block (read-only) of number sector ``total``."""

    __slots__ = ("total", "weight", "indices", "block")
    # arrays compare elementwise, so by identity
    __eq__, __hash__ = object.__eq__, object.__hash__


class SectorDecomposition(_Record):
    __slots__ = ("sectors",)

    def weights(self):
        return {s.total: s.weight for s in self.sectors}

    def weight_of(self, total):
        for s in self.sectors:
            if s.total == total:
                return s.weight
        return 0.0


def _diagonal_of(n_op):
    """Real diagonal of a number operator handed in by a caller, whose
    off-diagonal Frobenius norm must be <= 1e-12: an O(d^2) scan that copies
    nothing.  A diagonal known from the occupancies is ``number_diagonal``."""
    # entries 1.. of the flat matrix, in rows of d + 1 that each end on the diagonal
    off = n_op.matrix.reshape(-1)[1:].reshape(-1, len(n_op.matrix) + 1)[:, :-1].view(float)
    if not np.sqrt(np.einsum("ij,ij->", off, off)) <= 1e-12:     # NaN fails too
        raise ValueError("number operator is not diagonal in the occupation basis")
    return n_op.matrix.diagonal().real


def _diagonal_sector_ids(n_op):
    """Integer sector labels from a diagonal number operator."""
    diag = _diagonal_of(n_op)
    ids = np.rint(diag)
    if not (np.isfinite(diag).all() and np.max(np.abs(diag - ids)) <= 1e-9):
        raise ValueError("number operator spectrum is not integer")
    return ids.astype(int)


def _commutator_residuals(n_diag, x):
    """||[N, X]||_F = ||(n_i - n_j) X_ij||_F of the N with diagonal ``n_diag``: a
    float of a d x d ``x``, an array of one per matrix of an (m, d, d) stack, by
    ``fock._residual_norms``."""
    norms = _residual_norms(x, lambda s: (n_diag[s, None] - n_diag) * x[..., s, :])
    return float(norms) if x.ndim == 2 else norms


def _ssr_report(residual, tol=SSR_TOL):
    return SSRReport(residual, residual <= tol, tol)     # by position: no keywords to bind


def ssr_check(state, n_op, tol=SSR_TOL):
    """Frobenius norm of [N, rho] for a diagonal N, and whether it sits below ``tol``."""
    rho = as_density(_on_system(state, n_op))
    return _ssr_report(_commutator_residuals(_diagonal_of(n_op), rho.matrix), tol)


def twirl(states, n_op):
    """Phase-average one state, or each of a non-empty sequence of states on one
    system, over the U(1) group generated by ``n_op``.

    The integral (1/2pi) int dtheta e^{-iN theta} rho e^{+iN theta} is
    analytically the projection onto number-sector block-diagonal form, so it
    is evaluated exactly by zeroing coherences between distinct sectors: one
    sector mask for the whole stack, whose twirled matrices are checked as one
    stack by ``_density_stack``.
    """
    _, stack, one = _density_matrices(states, n_op)
    ids = _diagonal_sector_ids(n_op)
    out = _density_stack(n_op.system, stack * (ids[:, None] == ids[None, :]))
    return out[0] if one else out


def _qcf_word(powers):
    """The ``ladder_product`` factors of adag^n a^m bdag^l b^k, after checking
    that the powers are four integers >= 0."""
    if not np.iterable(powers) or len(powers := tuple(powers)) != 4 \
            or not all(_is_integer(p) for p in powers):
        raise ValueError(f"qcf powers must be four integers >= 0, got {powers!r}")
    n, m, l, k = powers
    if min(powers) < 0:
        raise ValueError(f"qcf powers must be >= 0, got {powers!r}")
    return ((0, True),) * n + ((0, False),) * m + ((1, True),) * l + ((1, False),) * k


def qcf(states, powers):
    """Correlation functions <adag^n a^m bdag^l b^k> of modes a = 0 and b = 1
    for each ``(n, m, l, k)`` of ``powers``: of one state as an (n_powers,)
    complex row, of a non-empty sequence of states on one system as an
    (n_states, n_powers) complex table.

    Every power tuple is checked before any state is read.  The ``ladder_product``
    entries of all monomials are concatenated and gathered from each state in
    one step; each entry of the table sums its monomial's O(d) terms on its
    own, so it does not depend on the other states or powers.  Warns once
    when some state carries weight close enough to a cutoff for the truncated
    raising ladder of some monomial to have dropped support.
    """
    words = [_qcf_word(p) for p in powers]
    if not words:
        raise ValueError("qcf needs at least one power tuple")
    system, stack, one = _density_matrices(states)
    if system.n_modes < 2:
        raise ValueError("qcf needs modes 0 and 1")
    entries = [ladder_product(system, word) for word in words]
    lengths = np.array([len(values) for _, _, values in entries])
    rows, cols, values = (np.concatenate(arrays) for arrays in zip(*entries))
    # one (n_states, n_terms) array, gathered from the stack and scaled in place
    terms = stack[:, cols, rows]
    terms *= values
    table = np.zeros((len(stack), len(words)), dtype=complex)
    kept = lengths > 0
    if kept.any():
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        table[:, kept] = np.add.reduceat(terms, starts[kept], axis=1)
    _warn_on_saturation(system, stack, powers)
    return table[0] if one else table


def _warn_on_saturation(system, stack, powers):
    """One warning naming each mode at whose cutoff a net raise of some
    monomial meets more than 1e-12 of the weight of some state of the
    (n, d, d) ``stack``."""
    occ = system.occupancies
    pops = stack.diagonal(axis1=1, axis2=2).real
    # raising acts after lowering and no occupancy exceeds the cutoff, so only
    # a net raise can reach past it; its reach depends on the mode and the net
    raises = {(mode, raise_by - lower_by)
              for n, m, l, k in powers
              for mode, raise_by, lower_by in ((0, n, m), (1, l, k)) if raise_by > lower_by}
    modes = sorted({mode for mode, net in raises
                    if (pops[:, occ[:, mode] + net > system.modes[mode].cutoff].sum(axis=1)
                        > 1e-12).any()})
    if modes:
        warnings.warn(
            "state has weight near the cutoff of "
            + " and ".join(f"mode {mode}" for mode in modes)
            + "; raising operators are truncated there", RuntimeWarning)


def sector_decompose(state, n_op):
    """Weights, basis indices and normalised blocks of the number sectors of ``rho``."""
    rho = as_density(_on_system(state, n_op))
    stacks = _sector_stacks(rho.matrix[None], _diagonal_sector_ids(n_op))
    return SectorDecomposition(tuple(sorted(
        (Sector(*sector) for stack in stacks for sector in zip(*stack[1:])),
        key=lambda sector: sector.total)))


class SeparableSSRReport(_Record):
    """Local SSR compliance per mixture component plus the global verdict;
    ``local_reports`` holds (component index, subsystem name, SSRReport) triples."""

    __slots__ = ("local_reports", "all_local_compliant", "global_report",
                 "fixed_probability_caveat")


def _local_reports(mixtures, weights=None):
    """Per mixture of a stack on one system and partition with one number of
    components, ``(component, subsystem, SSRReport)`` of every factor,
    components outer and subsystems in partition order, against each
    subsystem's number operator with its modes' ``weights``: one residual array
    per subsystem, over the factors of every mixture."""
    first = mixtures[0]
    n, r = len(mixtures), len(first.probabilities)
    residuals = []
    for name, modes in first.partition.subsystems:
        w = None if weights is None else np.asarray(weights, dtype=float)[list(modes)]
        n_diag = number_diagonal(sub_system(first.system, modes), w)
        factors = np.array([m.factors[name] for m in mixtures])
        residuals.append((name, _commutator_residuals(
            n_diag, factors.reshape(n * r, *factors.shape[2:])).reshape(n, r).tolist()))
    return [tuple((c, name, _ssr_report(res[i][c]))
                  for c in range(r) for name, res in residuals)
            for i in range(n)]


def separable_ssr_theorem_check(mixtures):
    """Check the separability/SSR criterion on one explicit mixture, or on each of
    a non-empty sequence of mixtures on one system and partition with one
    number of components.

    Reports (a) local number-SSR compliance of every component factor and
    (b) global compliance of the summed state, flagging the caveat case
    where (b) holds although (a) fails (possible only at fixed component
    probabilities).  A sequence takes one ``summed_stack`` and one residual
    array per subsystem and for the sums.
    """
    one = isinstance(mixtures, states.SeparableMixture)
    if one:
        mixtures = [mixtures]
    summed = states.summed_stack(mixtures)
    global_residuals = _commutator_residuals(number_diagonal(summed[0].system),
                                             np.array([rho.matrix for rho in summed]))
    reports = []
    for local_reports, residual in zip(_local_reports(mixtures), global_residuals.tolist()):
        all_local = all(rep.compliant for _, _, rep in local_reports)
        global_report = _ssr_report(residual)
        # by position: local_reports, all_local_compliant, global_report,
        # fixed_probability_caveat
        reports.append(SeparableSSRReport(local_reports, all_local, global_report,
                                          global_report.compliant and not all_local))
    return reports[0] if one else reports


def phase_state(n_max, p):
    """Orthonormal phase eigenstate |theta_p> of a single truncated mode."""
    amps = _phase_amplitudes(n_max, p)
    return PureState(ModeSystem([("osc", n_max)]), amps)


def _phase_amplitudes(n_max, p):
    """The amplitudes of ``phase_state(n_max, p)``, once ``p`` is a phase index."""
    if not _is_integer(p) or not 0 <= p <= n_max:
        raise ValueError(f"phase index p must be an integer in 0..{n_max}, got {p!r}")
    n = np.arange(n_max + 1)
    theta = 2.0 * np.pi * p / (n_max + 1)
    return np.exp(1j * n * theta) / np.sqrt(n_max + 1)


def _clock_args(p, q, omega, dt, n_max):
    """The phase indices of ``p`` and ``q`` as lists, each one index or a 1-D sequence;
    ``dt``, one time or a non-empty 1-D sequence, as a 1-D array; and omega * dt of
    each time.  Raises ValueError, before any state is built, naming the first of
    these that is not valid: ``dt``, ``omega`` (one real number), a product
    omega * dt that is not finite, or the phase indices, integers in 0..n_max."""
    times, _ = _one_or_many(dt, "the clock takes one time dt or a non-empty sequence of them")
    if np.ndim(omega) != 0 or not _real_entries(omega):
        raise ValueError(f"omega must be one real number, got {omega!r}")
    with np.errstate(over="ignore", invalid="ignore"):     # not finite, which fails
        omega_dt = omega * times
    bad = ~np.isfinite(omega_dt)
    if bad.any():
        raise ValueError(f"omega * dt = {float(omega_dt[bad][0])!r} is not finite")
    rows = [p] if np.ndim(p) == 0 else list(p)
    cols = [q] if np.ndim(q) == 0 else list(q)
    if not (_is_integer(n_max) and all(_is_integer(i) and 0 <= i <= n_max
                                       for i in rows + cols)):
        raise ValueError(f"phase indices p = {p!r} and q = {q!r} must be integers in "
                         f"0..n_max, with n_max = {n_max!r} an integer")
    return rows, cols, times, omega_dt


def _clock_result(table, p, q, dt):
    """A (times, len p, len q) table as a clock's result: one table per time for a
    sequence of times, else the time's table alone; and for two phase indices one
    probability per time, or a float for one time."""
    if np.ndim(p) == 0 and np.ndim(q) == 0:
        table = table[:, 0, 0]
    if np.ndim(dt) != 0:
        return table
    return float(table[0]) if table.ndim == 1 else table[0]


def clock_prob(p, q, omega, dt, n_max):
    """Probability that a clock at phase theta_p reads theta_q after dt.

    Closed form sin^2((n_max+1) Delta/2) / ((n_max+1)^2 sin^2(Delta/2)) with
    Delta = theta_p - theta_q - omega dt, where omega dt enters as the angle of
    e^{-i omega dt}, reduced as the oracle's phases are, so the accuracy holds
    at any |omega dt|; the removable singularity at Delta = 2 pi m is evaluated
    by its limit, 1.  ``p``, ``q`` and ``dt`` may each be one item or a 1-D
    sequence, as for ``clock_prob_by_evolution``: the result is a float for two
    indices and one time, else the (len p, len q) table, one per time for a
    sequence of times, each entry with the bits of its own scalar call
    (``np.float_power`` squares as a numpy scalar's ``** 2`` does).  An ``omega``
    that is not one real number, a non-finite omega * dt, or a phase index that is
    not an integer in 0..n_max raises ValueError naming it.
    """
    rows, cols, _, omega_dt = _clock_args(p, q, omega, dt, n_max)
    m = n_max + 1
    theta = 2.0 * np.pi * np.array(rows + cols, dtype=float) / m
    # -omega dt reduced as the oracle's phases are, by libm's cosine and sine,
    # per time: a rounded 2 pi multiple would lose |omega dt| * 2.4e-16
    turn = np.array([math.atan2(-math.sin(x), math.cos(x)) for x in omega_dt])
    delta = theta[:len(rows), None] - theta[None, len(rows):] + turn[:, None, None]
    # reduce to the principal branch: the squared ratio is 2pi-periodic, and
    # evaluating both sines at the reduced angle avoids the cancellation that
    # otherwise wrecks the removable singularities at delta = 2 pi m
    delta -= 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
    s = np.sin(delta / 2.0)
    table = np.divide(np.float_power(np.sin(m * delta / 2.0), 2), m ** 2 * np.float_power(s, 2),
                      out=np.ones_like(s), where=s != 0.0)
    return _clock_result(table, p, q, dt)


def clock_prob_by_evolution(p, q, omega, dt, n_max):
    """Oracle for clock_prob: evolve |theta_p> under omega*N and project.

    ``p`` and ``q`` may also be 1-D sequences of phase indices; the result is
    then the (len p, len q) table of the same probabilities.  ``dt`` may also be
    a non-empty 1-D sequence of times; the result then holds one float or table
    per time, each entry with the bits of its call alone.  The system comes from
    ``bosons``, one per n_max; H, its solve and each phase state are built once
    per call, and ``evolution_operator`` gives one propagator per time.  Its
    arguments are checked as ``clock_prob``'s are, before any state is built.
    """
    rows, cols, times, _ = _clock_args(p, q, omega, dt, n_max)
    sys1 = bosons(1, n_max, labels=["osc"])
    kets = {i: PureState(sys1, _phase_amplitudes(n_max, i)) for i in set(rows + cols)}
    table = np.empty((len(times), len(rows), len(cols)))
    for u, plane in zip(evolution_operator(omega * number_op(sys1), times), table):
        for r, i in enumerate(rows):
            evolved = apply_unitary(u, kets[i])
            for c, j in enumerate(cols):
                plane[r, c] = np.abs(np.vdot(kets[j].amplitudes, evolved.amplitudes)) ** 2
    return _clock_result(table, p, q, dt)


def internalise(amplitudes, n_ref):
    """Map a number superposition onto a system+reference entangled state.

    sum_m C_m |m>_S  ->  sum_m C_m |m>_S |n_ref - m>_R, which is compliant
    with the number SSR on the combined space; the ``PureState`` it builds
    checks the norm.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    m_max = len(amps) - 1
    if n_ref < m_max:
        raise ValueError("reference occupancy must be at least m_max")
    m = np.arange(m_max + 1)
    return ModeSystem([("S", m_max), ("R", n_ref)]).superposition(
        np.stack([m, n_ref - m], axis=1), amps)


def externalise(state):
    """Inverse of internalise: recover the C_m from the entangled form of a PureState."""
    if not isinstance(state, PureState):
        raise TypeError(f"externalise expects a PureState, got {type(state).__name__}")
    system = state.system
    if system.n_modes != 2:
        raise ValueError("expected a two-mode system+reference state")
    occ = system.occupancies
    support = np.nonzero(np.abs(state.amplitudes) > 1e-10)[0]
    if len(support) == 0:
        raise ValueError("state has no support")
    totals = occ[support].sum(axis=1)
    if totals.max() != totals.min():
        raise ValueError("state is not of the internalised fixed-total form")
    n_ref = int(totals[0])
    m = np.arange(system.modes[0].cutoff + 1)
    m = m[(n_ref - m >= 0) & (n_ref - m <= system.modes[1].cutoff)]
    amps = np.zeros(system.modes[0].cutoff + 1, dtype=complex)
    amps[m] = state.amplitudes[system.indices_of(np.stack([m, n_ref - m], axis=1))]
    return amps
