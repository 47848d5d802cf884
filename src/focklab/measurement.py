"""Projective (von Neumann) measurement algebra.

Probabilities, conditioned states, conditional means/variances and the
unrecorded-measurement map, all for Hermitian observables resolved into
eigenvalues and orthonormal eigenvector blocks.
"""

from __future__ import annotations

import warnings
from functools import reduce
from operator import matmul

import numpy as np

from .fock import (
    Operator,
    DensityOperator,
    _Record,
    _density_matrices,
    _on_system,
    _density_stack,
    _conjugate,
    _eigenvalues,
    _expectations,
    _hermitian_blocks,
    _residual_norms,
    _rotate,
    as_density,
)

PROB_FLOOR = 1e-12
MERGE_TOL = 1e-8        # relative to the spectral range
PROJ_ATOL = 1e-10
IMAG_ATOL = 1e-10


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of probability below the floor."""


class Observable(_Record):
    """Hermitian operator together with its spectral resolution, built from the
    operator alone.

    The eigenvalues of every ``eigh_blocks`` component, one per position, are
    sorted together (stable).  Eigenvalues closer than ``MERGE_TOL`` times the
    spectral range are then merged into a single degenerate outcome, which
    keeps the resolution robust after floating-point eigensolves.  ``blocks``
    are the components as returned, read-only, which hold the eigenvector
    matrix V (``fock._rotate``), and ``outcomes[r]`` is the index into
    ``eigenvalues`` of the eigenvector at position r.  The projector V D_j V^H
    of outcome j, D_j the 0/1 diagonal of its positions, is not stored.  Each
    residual check is written so that NaN fails it; a copy or a pickle
    resolves its operator again.
    """

    __slots__ = ("operator", "eigenvalues", "blocks", "outcomes")
    # arrays are unhashable: compare by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, operator):
        blocks = _hermitian_blocks(_of_kind(operator, Operator))
        evals = _eigenvalues(blocks)
        order = np.argsort(evals, kind="stable")
        evals = evals[order]
        gap = MERGE_TOL * max(float(evals[-1] - evals[0]), 1.0)
        cuts = np.nonzero(np.diff(evals) > gap)[0] + 1
        eigenvalues = tuple(float(np.mean(grp)) for grp in np.split(evals, cuts))
        outcomes = np.searchsorted(cuts, np.argsort(order), side="right")     # by rank
        outcomes.setflags(write=False)
        super().__init__(operator, eigenvalues, tuple(blocks), outcomes)

    def _check(self):
        operator, eigenvalues, blocks, outcomes = self._values(self)
        dim = operator.system.dim
        v = _rotate(blocks, np.eye(dim, dtype=complex))
        lam = np.asarray(eigenvalues)[outcomes, None]
        recon = _rotate(blocks, lam * v.conj().T)     # V Lambda V^H
        gram = _rotate(blocks, v, adjoint=True)     # V^H V, in place of V
        pos = np.arange(dim)     # row s of the identity is pos[s] == pos
        if not _residual_norms(gram, lambda s: gram[s] - (pos[s, None] == pos)) <= PROJ_ATOL:
            raise ValueError("projectors do not resolve the identity")
        if not _residual_norms(recon, lambda s: recon[s] - operator.matrix[s]) <= PROJ_ATOL:
            raise ValueError("spectral resolution does not reconstruct the operator")
        for j in range(len(eigenvalues)):
            # ||P^2 - P||_F = sqrt Tr((M G)^2) = ||M G||_F, with M = B^H B and
            # G = M - I for the eigenvectors B of outcome j: P^2 - P = B G B^H,
            # and M G = M^2 - M is Hermitian
            cols = np.flatnonzero(outcomes == j)
            m = gram[cols[:, None], cols]
            if not np.linalg.norm(m @ (m - np.eye(len(m)))) <= PROJ_ATOL:
                raise ValueError("projector is not idempotent")

    def __reduce__(self):     # a copy or a pickle resolves the operator again
        return Observable, (self.operator,)

    @property
    def system(self):
        return self.operator.system

    @property
    def projectors(self):
        """The outcome projectors V D_j V^H as d x d Operators, built on each access."""
        return tuple(self._projectors())

    def _projectors(self):
        """The outcome projectors, built one at a time, each from its own D_j."""
        for j in range(len(self.eigenvalues)):
            yield Operator(self.system, _conjugate(self.blocks, np.diag(
                (self.outcomes == j).astype(complex))))


def _of_kind(value, kind):
    """``value``, once it is a ``kind``; raises TypeError naming the expected type."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


class OutcomeDistribution(_Record):
    """Eigenvalue/probability pairs for measuring one observable."""

    __slots__ = ("outcomes",)

    def _check(self):
        probs = np.array([p for _, p in self.outcomes])
        if probs.min() < -PROB_FLOOR:
            raise ValueError("negative outcome probability")
        if not abs(probs.sum() - 1.0) <= 1e-10:    # written so that NaN fails too
            raise ValueError("outcome probabilities do not sum to 1")


def spectral(op):
    """The spectral resolution of a Hermitian operator: ``Observable(op)``, resolved on
    each call; no operator keeps one."""
    return Observable(op)


def _real_probs(values):
    """The real parts of a complex array of probabilities, one row per state;
    raises naming the first state with an entry that is not finite or whose
    imaginary part exceeds IMAG_ATOL."""
    finite = np.isfinite(values)
    bad = ~finite | (np.abs(values.imag) > IMAG_ATOL)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        problem = (f"has imaginary part {values.imag[first]}" if finite[first]
                   else f"{values[first]} is not finite")
        raise ValueError(f"state {first[0]}: probability {problem}")
    return values.real.copy()


def prob(states, projector):
    """P = Tr(Pi rho) of one state, as a float, or of each of a non-empty
    sequence of states on one system, as an (n,) array."""
    _, stack, one = _density_matrices(states, _of_kind(projector, Operator))
    probs = _real_probs(_expectations(stack, projector.matrix[None])[:, 0])
    return float(probs[0]) if one else probs


def joint_prob(states, projectors):
    """Joint probability Tr(Pi_A Pi_B ... rho) for commuting full-space
    projectors, of one state or of a sequence, as ``prob`` gives it; the
    projectors are multiplied once."""
    if not projectors:
        raise ValueError("joint_prob needs at least one projector")
    return prob(states, reduce(matmul, projectors))


def _given_prob(rho, given):
    """Tr(Pi rho) of the conditioning outcome ``given``; raises at or below PROB_FLOOR."""
    p = prob(rho, given)
    if p <= PROB_FLOOR:
        raise ZeroProbabilityError(f"zero-probability conditioning (P = {p})")
    return p


def conditioned_state(state, projector):
    """Post-measurement state Pi rho Pi / Tr(Pi rho)."""
    rho = as_density(state)
    p = _given_prob(rho, projector)
    mat = projector.matrix @ rho.matrix @ projector.matrix / p
    # symmetrise away the last bits of roundoff before validation
    mat = 0.5 * (mat + mat.conj().T)
    return DensityOperator(rho.system, mat)


def cond_prob(state, proj_a, proj_b):
    """P(A=i | B=j) = Tr(Pi_A Pi_B rho) / Tr(Pi_B rho)."""
    rho = as_density(state)
    return joint_prob(rho, [proj_a, proj_b]) / _given_prob(rho, proj_b)


def unrecorded_state(states, observable):
    """State after an unrecorded measurement, V (M o V^H rho V) V^H with M zero
    between positions of distinct outcomes, of one state, or the list of them of
    a non-empty sequence of states on one system, checked as one stack."""
    system, stack, one = _density_matrices(states, _of_kind(observable, Observable))
    mat = _eigenbasis(stack, observable)
    mat[:, observable.outcomes[:, None] != observable.outcomes] = 0
    mat = _conjugate(observable.blocks, mat)
    mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
    out = _density_stack(system, mat)
    return out[0] if one else out


def _block_probs(x, observable):
    """Tr(P_j X) for each outcome j of ``observable`` and each matrix X of an (n, d, d)
    stack, as an (n, outcomes) array: the diagonal of V^H X V, formed component by
    component from the diagonal blocks of X, then ``_outcome_sums``."""
    diag = np.empty(x.shape[:2], dtype=complex)
    for idx, evals, vecs in _of_kind(observable, Observable).blocks:
        # each component's k x k diagonal block of X (X itself when one component
        # holds every row), and of the identity, one block after another:
        # (V^H X V)_pp = sum_b (V^H X)_pb conj((V^H)_pb)
        own = [(np.arange(idx.size).reshape(idx.shape), evals, vecs)]
        x_cc = x.copy() if idx.shape[1] == x.shape[1] else \
            x[:, idx[:, :, None], idx[:, None, :]].reshape(len(x), idx.size, -1)
        v_h = _rotate(own, np.tile(np.eye(idx.shape[1], dtype=complex), (len(idx), 1)), True)
        diag[:, idx.ravel()] = np.einsum("spb,pb->sp", _rotate(own, x_cc, True), v_h.conj())
    return _outcome_sums(diag, observable)


def _outcome_sums(diag, observable):
    """The (n, d) values of each position of ``observable``'s eigenvectors added per
    outcome, as (n, outcomes) probabilities: in position order by one
    ``np.add.reduceat``, whose sums do not go through BLAS, then ``_real_probs``."""
    order = np.argsort(observable.outcomes, kind="stable")
    starts = np.searchsorted(observable.outcomes[order], np.arange(len(observable.eigenvalues)))
    return _real_probs(np.add.reduceat(diag[:, order], starts, axis=1))


def outcome_distribution(state, observable):
    """Eigenvalue/probability pairs P_j = Tr(P_j rho)."""
    rho = as_density(_on_system(state, observable))
    probs = _block_probs(rho.matrix[None], observable)[0]
    return OutcomeDistribution(tuple(zip(observable.eigenvalues, probs.tolist())))


def _eigenbasis(stack, observable):
    """V^H rho V of each matrix rho of an (n, d, d) stack, V the eigenvectors of
    ``observable``: a new complex stack, rotated by one ``_conjugate``."""
    return _conjugate(observable.blocks, stack.astype(complex), adjoint=True)


def _joint_terms(rotated, target, given):
    """(V^H Pi V V^H rho V)_pp = sum_q (V^H Pi V)_pq (V^H rho V)_qp at each position p
    of ``target``'s eigenvectors V, for the projector Pi ``given`` and each matrix of
    ``rotated``, the ``_eigenbasis`` stack of ``target``: an (n, d) complex array, by
    one einsum.  Its ``_outcome_sums`` are Tr(Xi_j Pi rho), and its row sums Tr(Pi rho)."""
    return np.einsum("pq,nqp->np", _eigenbasis(given.matrix[None], target)[0], rotated)


def _conditional_moments(terms, target, given, p_given):
    """Mean and variance of ``target`` under P(j|i) = Tr(Xi_j Pi_i rho) / P(i), as two
    (n,) arrays from the (n, d) ``_joint_terms`` of ``given`` and the (n,) P(i), once
    ``target`` commutes with ``given``: ||XP - PX||_F <= ``PROJ_ATOL``."""
    x, y = target.operator.matrix, given.matrix
    if not _residual_norms(x, lambda s: x[s] @ y - y[s] @ x) <= PROJ_ATOL:     # NaN fails too
        raise ValueError("target and conditioning projector do not commute")
    pmf = (_outcome_sums(terms, target) / p_given[:, None]).T
    mean = sum(mu * c for mu, c in zip(target.eigenvalues, pmf))
    # float_power is the scalar pow of a state alone, which an array square is not always
    return mean, sum(np.float_power(mu - mean, 2) * c for mu, c in zip(target.eigenvalues, pmf))


def _conditioned(state, target, given):
    """The conditional mean and variance of ``target`` given the projector ``given``
    in one state, as two (1,) arrays."""
    rho = as_density(_on_system(state, _of_kind(target, Observable), given))
    p = _given_prob(rho, given)
    terms = _joint_terms(_eigenbasis(rho.matrix[None], target), target, given)
    return _conditional_moments(terms, target, given, np.array([p]))


def cond_mean(state, target, given):
    """Conditioned mean sum_j mu_j P(j|i) of ``target`` given outcome projector ``given``."""
    return float(_conditioned(state, target, given)[0][0])


def cond_variance(state, target, given):
    """Conditioned variance sum_j (mu_j - mean)^2 P(j|i)."""
    return float(_conditioned(state, target, given)[1][0])


def unrecorded_conditioned_variance(states, target, given_observable):
    """Outcome-probability-weighted conditional variance.

    sum_i P(i) Var(target | given = i) over the outcomes of the conditioning
    observable, of one state as a float, or of each of a non-empty sequence of
    states on one system as an (n,) array.  Outcomes below the probability
    floor are skipped and the remaining weights renormalised.
    """
    _, stack, one = _density_matrices(states, _of_kind(target, Observable),
                                      _of_kind(given_observable, Observable))
    rotated = _eigenbasis(stack, target)
    del stack     # so that one stack of states is held, the rotated one
    out = _unrecorded_variances(rotated, target, given_observable)
    return float(out[0]) if one else out


def _unrecorded_variances(rotated, target, given_observable):
    """``unrecorded_conditioned_variance`` of each state of ``rotated``, its (n, d, d)
    ``_eigenbasis`` stack of ``target``.

    Each outcome's projector is built once for the stack, and its
    ``_joint_terms`` give both P(i), their row sums, and the conditional moments.
    It is checked to commute with the target once when some state keeps the
    outcome; a state adds exactly 0.0 for an outcome it skips.  Warns once when
    the outcomes some state skipped held more than 1e-9 of its weight.
    """
    total = weight = np.zeros(len(rotated))
    for p_proj in given_observable._projectors():
        terms = _joint_terms(rotated, target, p_proj)
        p_i = _real_probs(terms.sum(axis=1))
        kept = p_i > PROB_FLOOR
        if not kept.any():
            continue
        var = _conditional_moments(terms, target, p_proj, np.where(kept, p_i, 1.0))[1]
        total = total + np.where(kept, p_i * var, 0.0)
        weight = weight + np.where(kept, p_i, 0.0)
    if (weight < 1.0 - 1e-9).any():
        warnings.warn("skipped zero-probability conditioning sectors; "
                      "weights renormalised", RuntimeWarning)
    return total / weight
