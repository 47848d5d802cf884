"""Projective (von Neumann) measurement algebra.

Probabilities, conditioned states, conditional means/variances and the
unrecorded-measurement map, all for Hermitian observables resolved into
eigenvalue/projector pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import matmul

import numpy as np

from .fock import Operator, DensityOperator, as_density, expectation

PROB_FLOOR = 1e-12
MERGE_TOL = 1e-8        # relative to the spectral range
PROJ_ATOL = 1e-10
IMAG_ATOL = 1e-10


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of probability below the floor."""


@dataclass(frozen=True)
class Observable:
    """Hermitian operator together with its spectral resolution."""

    operator: Operator
    eigenvalues: tuple
    projectors: tuple

    def __post_init__(self):
        dim = self.operator.system.dim
        ident = np.eye(dim)
        total = sum(p.matrix for p in self.projectors)
        if np.linalg.norm(total - ident) > PROJ_ATOL:
            raise ValueError("projectors do not resolve the identity")
        recon = sum(lam * p.matrix for lam, p in zip(self.eigenvalues, self.projectors))
        if np.linalg.norm(recon - self.operator.matrix) > PROJ_ATOL:
            raise ValueError("spectral resolution does not reconstruct the operator")
        for p in self.projectors:
            if np.linalg.norm(p.matrix @ p.matrix - p.matrix) > PROJ_ATOL:
                raise ValueError("projector is not idempotent")
            if np.linalg.norm(p.matrix - p.matrix.conj().T) > PROJ_ATOL:
                raise ValueError("projector is not Hermitian")

    @property
    def system(self):
        return self.operator.system


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

    Eigenvalues closer than ``MERGE_TOL`` times the spectral range are merged
    into a single degenerate projector, which keeps projectors robust after
    floating-point eigensolves.
    """
    if not op.is_hermitian():
        raise ValueError("operator is not Hermitian")
    evals, vecs = np.linalg.eigh(op.matrix)
    spread = float(evals[-1] - evals[0])
    gap = MERGE_TOL * max(spread, 1.0)
    cuts = np.nonzero(np.diff(evals) > gap)[0] + 1
    eigenvalues = []
    projectors = []
    for grp in np.split(np.arange(len(evals)), cuts):
        block = vecs[:, grp]
        eigenvalues.append(float(np.mean(evals[grp])))
        projectors.append(Operator(op.system, block @ block.conj().T))
    return Observable(op, tuple(eigenvalues), tuple(projectors))


def _real_prob(value):
    if abs(value.imag) > IMAG_ATOL:
        raise ValueError(f"probability has imaginary part {value.imag}")
    return float(value.real)


def prob(state, projector):
    """P = Tr(Pi rho)."""
    return _real_prob(expectation(state, projector))


def joint_prob(state, projectors):
    """Joint probability Tr(Pi_A Pi_B ... rho) for commuting full-space projectors."""
    return _real_prob(expectation(state, reduce(matmul, projectors)))


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


def unrecorded_state(state, observable):
    """State after an unrecorded measurement: sum_j Pi_j rho Pi_j."""
    rho = as_density(state)
    mat = np.zeros_like(rho.matrix)
    for p in observable.projectors:
        mat += p.matrix @ rho.matrix @ p.matrix
    mat = 0.5 * (mat + mat.conj().T)
    return DensityOperator(rho.system, mat)


def outcome_distribution(state, observable):
    probs = [prob(state, p) for p in observable.projectors]
    return OutcomeDistribution(tuple(zip(observable.eigenvalues, probs)))


def _check_commuting(observable, projector):
    comm = observable.operator.matrix @ projector.matrix \
        - projector.matrix @ observable.operator.matrix
    if np.linalg.norm(comm) > PROJ_ATOL:
        raise ValueError("target and conditioning projector do not commute")


def _conditional_moments(rho, target, given, p_given):
    """Mean and variance of ``target`` under P(j|i) = Tr(Xi_j Pi_i rho) / P(i)."""
    _check_commuting(target, given)
    pmf = [joint_prob(rho, [xi, given]) / p_given for xi in target.projectors]
    mean = sum(mu * c for mu, c in zip(target.eigenvalues, pmf))
    return mean, sum((mu - mean) ** 2 * c for mu, c in zip(target.eigenvalues, pmf))


def cond_mean(state, target, given):
    """Conditioned mean sum_j mu_j P(j|i) of ``target`` given outcome projector ``given``."""
    rho = as_density(state)
    return _conditional_moments(rho, target, given, _given_prob(rho, given))[0]


def cond_variance(state, target, given):
    """Conditioned variance sum_j (mu_j - mean)^2 P(j|i)."""
    rho = as_density(state)
    return _conditional_moments(rho, target, given, _given_prob(rho, given))[1]


def unrecorded_conditioned_variance(state, target, given_observable):
    """Outcome-probability-weighted conditional variance.

    sum_i P(i) Var(target | given = i) over the outcomes of the conditioning
    observable.  Outcomes below the probability floor are skipped and the
    remaining weights renormalised.
    """
    rho = as_density(state)
    total = 0.0
    weight = 0.0
    for p_proj in given_observable.projectors:
        p_i = prob(rho, p_proj)
        if p_i <= PROB_FLOOR:
            continue
        total += p_i * _conditional_moments(rho, target, p_proj, p_i)[1]
        weight += p_i
    if weight < 1.0 - 1e-9:
        warnings.warn("skipped zero-probability conditioning sectors; "
                      "weights renormalised", RuntimeWarning)
    return total / weight
