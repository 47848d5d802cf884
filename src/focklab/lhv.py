"""Discrete local-hidden-variable models and the classical inequality oracles.

A model is a probability distribution over hidden values together with one
outcome pmf per observable per hidden value.  Joint probabilities factorise
over observables at fixed hidden value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fock import NORM_ATOL
from .measurement import outcome_distribution

ORACLE_RTOL = 1e-12     # slack of the inequality oracles, relative to max(1, |lhs|)


@dataclass(frozen=True)
class LHVObservable:
    """Possible outcome values plus one pmf row per hidden value."""

    values: tuple          # outcome values, length n
    pmf: np.ndarray        # shape (n_hidden, n), rows sum to 1


class DiscreteLHVModel:
    """Hidden-value distribution plus per-observable outcome pmfs."""

    def __init__(self, weights, observables):
        weights = np.asarray(weights, dtype=float)
        if weights.min() < 0 or not abs(weights.sum() - 1.0) <= NORM_ATOL:
            raise ValueError("hidden-value probabilities must be a distribution")
        n_hidden = len(weights)
        for name, obs in observables.items():
            pmf = np.asarray(obs.pmf, dtype=float)
            if pmf.shape != (n_hidden, len(obs.values)):
                raise ValueError(f"pmf shape mismatch for observable {name!r}")
            if pmf.min() < 0 or not np.max(np.abs(pmf.sum(axis=1) - 1.0)) <= NORM_ATOL:
                raise ValueError(f"pmf rows for {name!r} are not distributions")
        self.weights = weights
        self.observables = dict(observables)


def lhv_joint(model, assignments):
    """Joint probability of named outcomes: sum_xi P(xi) prod_K P_K(i_K, xi).

    ``assignments`` is a list of (observable name, outcome index) pairs.
    """
    acc = model.weights.copy()
    for name, outcome in assignments:
        acc = acc * model.observables[name].pmf[:, outcome]
    return float(acc.sum())


def lhv_mean_product(model, names):
    """Mean of the product of observables: sum_xi P(xi) prod_K <O_K(xi)>."""
    acc = model.weights.copy()
    for name in names:
        obs = model.observables[name]
        acc = acc * (obs.pmf @ np.asarray(obs.values, dtype=float))
    return float(acc.sum())


def lhv_from_separable(mixture, subsystem_observables):
    """The classical model matching a separable mixture's joint probabilities.

    Hidden values are the mixture components; the pmf of observable K at
    hidden value R is the outcome distribution of the component factor.
    ``subsystem_observables`` maps subsystem name -> Observable on that
    subsystem's factor space.
    """
    weights = [c.probability for c in mixture.components]
    observables = {}
    for name, obs in subsystem_observables.items():
        rows = [[p for _, p in outcome_distribution(comp.factors[name], obs).outcomes]
                for comp in mixture.components]
        observables[name] = LHVObservable(tuple(obs.eigenvalues), np.array(rows))
    return DiscreteLHVModel(np.array(weights), observables)


def chsh_mean(model):
    """S = <A1 B1> + <A1 B2> + <A2 B1> - <A2 B2> for a four-observable model."""
    return (lhv_mean_product(model, ["A1", "B1"])
            + lhv_mean_product(model, ["A1", "B2"])
            + lhv_mean_product(model, ["A2", "B1"])
            - lhv_mean_product(model, ["A2", "B2"]))


def lhv_chsh_bound_sweep(n_models, n_settings, rng):
    """Max |S| over random discrete models with +/-1 observables.

    Sweeps ``n_models`` random hidden-value distributions, each combined with
    ``n_settings`` random outcome-pmf assignments for the four observables,
    drawn from ``rng`` (a numpy Generator or a seed).  The classical bound
    keeps every value at or below 2.
    """
    rng = np.random.default_rng(rng)
    best = 0.0
    values = (1.0, -1.0)
    for _ in range(n_models):
        n_hidden = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(n_hidden))
        for _ in range(n_settings):
            observables = {}
            for name in ("A1", "A2", "B1", "B2"):
                p_up = rng.random(n_hidden)
                pmf = np.column_stack([p_up, 1.0 - p_up])
                observables[name] = LHVObservable(values, pmf)
            model = DiscreteLHVModel(weights, observables)
            best = max(best, abs(chsh_mean(model)))
    return best


def deterministic_chsh_corners():
    """|S| over the 16 deterministic +/-1 strategies (all equal 2)."""
    out = []
    for a1, a2, b1, b2 in itertools.product((1.0, -1.0), repeat=4):
        out.append(abs(a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2))
    return out


def ghz_assignment_search(xxx_target=1):
    """Count deterministic +/-1 assignments satisfying the GHZ parity constraints.

    Assignments run over all nine values M_alpha^K (alpha in x, y, z and
    K in A, B, C; the z values are unconstrained).  Constraints are the three
    cyclic products M_x M_y M_y = -1 plus M_x M_x M_x = ``xxx_target``; pass
    ``xxx_target=None`` to drop the last constraint.  Quantum mechanics makes
    all four hold at once, which no assignment reproduces: the count is 0.
    """
    count = 0
    for values in itertools.product((1, -1), repeat=9):
        (xa, ya, za, xb, yb, zb, xc, yc, zc) = values
        if xa * yb * yc != -1:
            continue
        if ya * xb * yc != -1:
            continue
        if ya * yb * xc != -1:
            continue
        if xxx_target is not None and xa * xb * xc != xxx_target:
            continue
        count += 1
    return count


def sum_inequality_oracle(p, c, d):
    """Check sum(PC) sum(PD) >= (sum(P sqrt(CD)))^2 for nonnegative inputs."""
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if not (p.min() >= 0 and c.min() >= 0 and d.min() >= 0):   # NaN fails too
        raise ValueError("inputs must be nonnegative")
    lhs = float(np.sum(p * c) * np.sum(p * d))
    rhs = float(np.sum(p * np.sqrt(c * d)) ** 2)
    return lhs >= rhs - ORACLE_RTOL * max(1.0, abs(lhs))


def integral_inequality_oracle(lam, p, c, d):
    """Quadrature analogue of the sum inequality on a lambda grid.

    With trapezoidal weights w_i, w_i P_i in place of P_R is exactly the
    discrete inequality, so it holds whenever every w_i P_i, C and D is
    nonnegative; other inputs raise ValueError.  A grid that steps down gives
    negative weights, so positive samples on it are rejected.
    """
    lam = np.asarray(lam, dtype=float)
    w = np.zeros_like(lam)
    dl = np.diff(lam)
    w[:-1] += 0.5 * dl
    w[1:] += 0.5 * dl
    return sum_inequality_oracle(w * np.asarray(p, dtype=float), c, d)
