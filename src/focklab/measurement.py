"""Projective (von Neumann) measurement algebra.

Probabilities, conditioned states, conditional means/variances and the
unrecorded-measurement map, all for Hermitian observables resolved into
eigenvalues and orthonormal eigenvector blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import matmul

import numpy as np

from .fock import (
    Operator,
    DensityOperator,
    _density_matrices,
    _on_system,
    _density_stack,
    _conjugate,
    _eigenvalues,
    _expectations,
    _hermitian_blocks,
    _rotate,
    as_density,
)

PROB_FLOOR = 1e-12
MERGE_TOL = 1e-8        # relative to the spectral range
PROJ_ATOL = 1e-10
IMAG_ATOL = 1e-10


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of probability below the floor."""


@dataclass(frozen=True, eq=False)     # arrays are unhashable: compare by identity
class Observable:
    """Hermitian operator together with its spectral resolution.

    ``blocks`` are the operator's ``eigh_blocks`` triples, which hold its
    eigenvector matrix V (``fock._rotate``), and ``outcomes[r]`` is the index
    into ``eigenvalues`` of the eigenvector at position r.  The projector
    V D_j V^H of outcome j, D_j the 0/1 diagonal of its positions, is not stored.
    """

    operator: Operator
    eigenvalues: tuple
    blocks: tuple
    outcomes: np.ndarray

    def __post_init__(self):
        dim = self.system.dim
        _check_resolution(self.blocks, self.outcomes, dim, len(self.eigenvalues))
        v = _rotate(self.blocks, np.eye(dim, dtype=complex))
        lam = np.asarray(self.eigenvalues)[self.outcomes, None]
        recon = _rotate(self.blocks, lam * v.conj().T)     # V Lambda V^H
        gram = _rotate(self.blocks, v, adjoint=True)     # V^H V, in place of V
        if np.linalg.norm(gram - np.eye(dim)) > PROJ_ATOL:
            raise ValueError("projectors do not resolve the identity")
        if np.linalg.norm(recon - self.operator.matrix) > PROJ_ATOL:
            raise ValueError("spectral resolution does not reconstruct the operator")
        for j in range(len(self.eigenvalues)):
            # ||P^2 - P||_F = sqrt Tr((M G)^2) = ||M G||_F, with M = B^H B and
            # G = M - I for the eigenvectors B of outcome j: P^2 - P = B G B^H,
            # and M G = M^2 - M is Hermitian
            cols = np.flatnonzero(self.outcomes == j)
            m = gram[cols[:, None], cols]
            if np.linalg.norm(m @ (m - np.eye(len(m)))) > PROJ_ATOL:
                raise ValueError("projector is not idempotent")

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


def _check_resolution(blocks, outcomes, dim, count):
    """Raise ValueError unless ``blocks`` are ``eigh_blocks`` triples, each with
    (n, k) integer indices, ascending within a component, and (n, k, k)
    eigenvectors, whose indices partition 0..d-1, and ``outcomes`` is a (d,)
    integer array that holds each of 0..count-1.  A triple of any other form is
    left out of the partition, which then fails."""
    try:
        rows = np.concatenate([np.ravel(i) for i, _, v in blocks if np.ndim(i) == 2
                               and np.shape(v) == np.shape(i) + np.shape(i)[1:]
                               and (i[:, 1:] > i[:, :-1]).all()])
        outcomes = np.asarray(outcomes)
        used = np.bincount(outcomes, minlength=count)      # raises below 0, or for a float
        ok = (rows.dtype.kind in "iu" and len(rows) == dim
              and (np.bincount(rows, minlength=dim) == 1).all()
              and outcomes.dtype.kind in "iu" and outcomes.shape == (dim,)
              and len(used) == count and used.all())
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"blocks and outcomes do not resolve {dim} positions into {count} "
                         "outcomes")


def _of_kind(value, kind):
    """``value``, once it is a ``kind``; raises TypeError naming the expected type."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class OutcomeDistribution:
    """Eigenvalue/probability pairs for measuring one observable."""

    outcomes: tuple

    def __post_init__(self):
        probs = np.array([p for _, p in self.outcomes])
        if probs.min() < -PROB_FLOOR:
            raise ValueError("negative outcome probability")
        if not abs(probs.sum() - 1.0) <= 1e-10:    # written so that NaN fails too
            raise ValueError("outcome probabilities do not sum to 1")


def spectral(op):
    """Spectral resolution of a Hermitian operator.

    The eigenvalues of every ``eigh_blocks`` component, one per position, are
    sorted together (stable).  Eigenvalues closer than ``MERGE_TOL`` times the
    spectral range are then merged into a single degenerate outcome, which
    keeps the resolution robust after floating-point eigensolves.  The
    components are kept as returned, with each position's read-only outcome
    index, so no d x d eigenvector matrix is built.
    """
    blocks = _hermitian_blocks(op)
    evals = _eigenvalues(blocks)
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    gap = MERGE_TOL * max(float(evals[-1] - evals[0]), 1.0)
    cuts = np.nonzero(np.diff(evals) > gap)[0] + 1
    eigenvalues = tuple(float(np.mean(grp)) for grp in np.split(evals, cuts))
    outcomes = np.searchsorted(cuts, np.argsort(order), side="right")     # by rank
    outcomes.setflags(write=False)
    return Observable(op, eigenvalues, blocks, outcomes)


def _real_probs(values):
    """The real parts of a complex array of probabilities, one row per state;
    raises naming the first state with an entry whose imaginary part exceeds
    IMAG_ATOL."""
    bad = np.abs(values.imag) > IMAG_ATOL
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise ValueError(f"state {first[0]}: probability has imaginary part {values.imag[first]}")
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
    mat = _conjugate(observable.blocks, stack.astype(complex), adjoint=True)
    mat[:, observable.outcomes[:, None] != observable.outcomes] = 0
    mat = _conjugate(observable.blocks, mat)
    mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
    out = _density_stack(system, mat)
    return out[0] if one else out


def _block_probs(x, observable):
    """Tr(P_j X) for each outcome j of ``observable`` and each matrix X of an (n, d, d)
    stack, as an (n, outcomes) array: the diagonal of V^H X V, formed component by
    component from the diagonal blocks of X, then added per outcome in position
    order by one ``np.add.reduceat``, whose sums do not go through BLAS."""
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
    order = np.argsort(observable.outcomes, kind="stable")
    starts = np.searchsorted(observable.outcomes[order], np.arange(len(observable.eigenvalues)))
    return _real_probs(np.add.reduceat(diag[:, order], starts, axis=1))


def outcome_distribution(state, observable):
    """Eigenvalue/probability pairs P_j = Tr(P_j rho)."""
    rho = as_density(_on_system(state, observable))
    probs = _block_probs(rho.matrix[None], observable)[0]
    return OutcomeDistribution(tuple(zip(observable.eigenvalues, probs.tolist())))


def _check_commuting(observable, projector):
    x, y = observable.operator.matrix, projector.matrix
    if np.linalg.norm(x @ y - y @ x) > PROJ_ATOL:
        raise ValueError("target and conditioning projector do not commute")


def _conditional_moments(stack, target, given, p_given):
    """Mean and variance of ``target`` under P(j|i) = Tr(Xi_j Pi_i rho) / P(i), as
    two (n,) arrays for an (n, d, d) stack and its (n,) P(i)."""
    _check_commuting(target, given)
    pmf = (_block_probs(given.matrix @ stack, target) / p_given[:, None]).T
    mean = sum(mu * c for mu, c in zip(target.eigenvalues, pmf))
    # float_power is the scalar pow of a state alone, which an array square is not always
    return mean, sum(np.float_power(mu - mean, 2) * c for mu, c in zip(target.eigenvalues, pmf))


def cond_mean(state, target, given):
    """Conditioned mean sum_j mu_j P(j|i) of ``target`` given outcome projector ``given``."""
    rho = as_density(_on_system(state, _of_kind(target, Observable), given))
    p = _given_prob(rho, given)
    return float(_conditional_moments(rho.matrix[None], target, given, np.array([p]))[0][0])


def cond_variance(state, target, given):
    """Conditioned variance sum_j (mu_j - mean)^2 P(j|i)."""
    rho = as_density(_on_system(state, _of_kind(target, Observable), given))
    p = _given_prob(rho, given)
    return float(_conditional_moments(rho.matrix[None], target, given, np.array([p]))[1][0])


def unrecorded_conditioned_variance(states, target, given_observable):
    """Outcome-probability-weighted conditional variance.

    sum_i P(i) Var(target | given = i) over the outcomes of the conditioning
    observable, of one state as a float, or of each of a non-empty sequence of
    states on one system as an (n,) array.  Outcomes below the probability
    floor are skipped and the remaining weights renormalised.
    """
    _, stack, one = _density_matrices(states, _of_kind(target, Observable),
                                      _of_kind(given_observable, Observable))
    out = _unrecorded_variances(stack, target, given_observable)
    return float(out[0]) if one else out


def _unrecorded_variances(stack, target, given_observable):
    """``unrecorded_conditioned_variance`` of each matrix of an (n, d, d) stack.

    Each outcome's projector is built once for the stack, and checked to
    commute with the target once when some state keeps the outcome; a state
    adds exactly 0.0 for an outcome it skips.  Warns once when the outcomes
    some state skipped held more than 1e-9 of its weight.
    """
    total = weight = np.zeros(len(stack))
    for p_proj in given_observable._projectors():
        p_i = _real_probs(_expectations(stack, p_proj.matrix[None])[:, 0])
        kept = p_i > PROB_FLOOR
        if not kept.any():
            continue
        var = _conditional_moments(stack, target, p_proj, np.where(kept, p_i, 1.0))[1]
        total = total + np.where(kept, p_i * var, 0.0)
        weight = weight + np.where(kept, p_i, 0.0)
    if (weight < 1.0 - 1e-9).any():
        warnings.warn("skipped zero-probability conditioning sectors; "
                      "weights renormalised", RuntimeWarning)
    return total / weight
