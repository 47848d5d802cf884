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
    as_density,
    eigh_blocks,
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

    ``blocks[j]`` is a d x k_j matrix B_j whose orthonormal columns span the
    eigenspace of ``eigenvalues[j]``; its projector B_j B_j^H is not stored.
    """

    operator: Operator
    eigenvalues: tuple
    blocks: tuple

    def __post_init__(self):
        dim = self.operator.system.dim
        vecs = np.hstack(self.blocks)
        # with V square, ||sum_j P_j - I||_F = ||V^H V - I||_F
        if vecs.shape != (dim, dim) \
                or np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) > PROJ_ATOL:
            raise ValueError("projectors do not resolve the identity")
        lam = np.repeat(self.eigenvalues, [b.shape[1] for b in self.blocks])
        recon = (vecs * lam) @ vecs.conj().T
        if np.linalg.norm(recon - self.operator.matrix) > PROJ_ATOL:
            raise ValueError("spectral resolution does not reconstruct the operator")
        for b in self.blocks:
            # ||P^2 - P||_F = sqrt Tr((M G)^2) = ||M G||_F, with M = B^H B and
            # G = M - I: P^2 - P = B G B^H, and M G = M^2 - M is Hermitian
            m = b.conj().T @ b
            if np.linalg.norm(m @ (m - np.eye(len(m)))) > PROJ_ATOL:
                raise ValueError("projector is not idempotent")

    @property
    def system(self):
        return self.operator.system

    @property
    def projectors(self):
        """The outcome projectors B_j B_j^H as d x d Operators, built on each access."""
        return tuple(_projector(self.system, b) for b in self.blocks)


def _projector(system, block):
    return Operator(system, block @ block.conj().T)


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

    The eigenpairs of every ``eigh_blocks`` component are sorted together
    (stable) by eigenvalue.  Eigenvalues closer than ``MERGE_TOL`` times the
    spectral range are then merged into a single degenerate outcome, which
    keeps the resolution robust after floating-point eigensolves.  The blocks
    are read-only column slices of the one eigenvector matrix.
    """
    if not op.is_hermitian():
        raise ValueError("operator is not Hermitian")
    dim = op.system.dim
    evals = np.empty(dim)
    vecs = np.zeros((dim, dim), dtype=complex)
    start = 0
    for idx, values, blocks in eigh_blocks(op.matrix, True):
        cols = start + np.arange(values.size).reshape(values.shape)
        evals[cols] = values
        vecs[idx[:, :, None], cols[:, None, :]] = blocks
        start += values.size
    order = np.argsort(evals, kind="stable")
    evals, vecs = evals[order], vecs[:, order]
    vecs.setflags(write=False)
    spread = float(evals[-1] - evals[0])
    gap = MERGE_TOL * max(spread, 1.0)
    cuts = np.nonzero(np.diff(evals) > gap)[0] + 1
    eigenvalues = tuple(float(np.mean(grp)) for grp in np.split(evals, cuts))
    return Observable(op, eigenvalues, tuple(np.split(vecs, cuts, axis=1)))


def _real_probs(values):
    """The real parts of a complex array of probabilities, one row per state;
    raises naming the first state with an entry whose imaginary part exceeds
    IMAG_ATOL."""
    bad = np.abs(values.imag) > IMAG_ATOL
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise ValueError(f"state {first[0]}: probability has imaginary part {values.imag[first]}")
    return values.real.copy()


def _probs(stack, matrix):
    """Tr(M rho) of each matrix of an (n, d, d) stack: one einsum, whose sums
    have the bits of one ``expectation`` per state."""
    return _real_probs(np.einsum("ij,nji->n", matrix, stack))


def prob(states, projector):
    """P = Tr(Pi rho) of one state, as a float, or of each of a non-empty
    sequence of states on one system, as an (n,) array."""
    _, stack, one = _density_matrices(states, projector)
    probs = _probs(stack, projector.matrix)
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
    """State after an unrecorded measurement, sum_j B_j (B_j^H rho B_j) B_j^H, of
    one state, or the list of them of a non-empty sequence of states on one
    system, checked as one stack."""
    system, stack, one = _density_matrices(states, observable)
    mat = np.zeros_like(stack)
    for b in observable.blocks:
        bh = b.conj().T
        mat += b @ (bh @ stack @ b) @ bh
    mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
    out = _density_stack(system, mat)
    return out[0] if one else out


def _block_probs(x, observable):
    """Tr(B_j B_j^H X) = vdot(B_j, X B_j) for each block of ``observable`` and each
    matrix X of an (n, d, d) stack, as an (n, blocks) array: one einsum per block."""
    return _real_probs(np.stack([np.einsum("ij,nij->n", b.conj(), x @ b)
                                 for b in observable.blocks], axis=1))


def outcome_distribution(state, observable):
    """Eigenvalue/probability pairs P_j = Tr(B_j B_j^H rho)."""
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
    rho = as_density(_on_system(state, target, given))
    p = _given_prob(rho, given)
    return float(_conditional_moments(rho.matrix[None], target, given, np.array([p]))[0][0])


def cond_variance(state, target, given):
    """Conditioned variance sum_j (mu_j - mean)^2 P(j|i)."""
    rho = as_density(_on_system(state, target, given))
    p = _given_prob(rho, given)
    return float(_conditional_moments(rho.matrix[None], target, given, np.array([p]))[1][0])


def unrecorded_conditioned_variance(states, target, given_observable):
    """Outcome-probability-weighted conditional variance.

    sum_i P(i) Var(target | given = i) over the outcomes of the conditioning
    observable, of one state as a float, or of each of a non-empty sequence of
    states on one system as an (n,) array.  Outcomes below the probability
    floor are skipped and the remaining weights renormalised.
    """
    _, stack, one = _density_matrices(states, target, given_observable)
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
    for b in given_observable.blocks:
        p_proj = _projector(given_observable.system, b)
        p_i = _probs(stack, p_proj.matrix)
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
