"""Discrete local-hidden-variable models and the classical inequality oracles.

A model is a probability distribution over hidden values together with one
outcome pmf per observable per hidden value.  Joint probabilities factorise
over observables at fixed hidden value.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import measurement, sampling
from .fock import CHUNK_ROWS, NORM_ATOL, _Record, _is_integer, sub_system

ORACLE_RTOL = 1e-12     # slack of the inequality oracles, relative to max(1, |lhs|)


class LHVObservable(_Record):
    """Possible outcome values plus one pmf row per hidden value: ``values``
    holds the n outcome values, and ``pmf``, of shape (n_hidden, n), rows that
    sum to 1."""

    __slots__ = ("values", "pmf")


def _are_distributions(rows):
    """Whether every row along the last axis is a distribution: nonnegative,
    summing to 1 within ``NORM_ATOL``.  NaN and an empty array fail."""
    return bool(rows.size and rows.min() >= 0
                and np.max(np.abs(rows.sum(axis=-1) - 1.0)) <= NORM_ATOL)


def _check_distributions(rows, message):
    """Raise ValueError(message) unless ``_are_distributions(rows)``."""
    if not _are_distributions(rows):
        raise ValueError(message)


class DiscreteLHVModel(_Record):
    """Hidden-value distribution plus per-observable outcome pmfs, held as
    read-only float copies: of ``weights``, and of each observable as an
    ``LHVObservable`` of its values and its pmf."""

    __slots__ = ("weights", "observables")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, weights, observables):
        weights = np.array(weights, dtype=float)
        _check_distributions(weights, "hidden-value probabilities must be a distribution")
        n_hidden = len(weights)
        held = {}
        for name, obs in observables.items():
            pmf = np.array(obs.pmf, dtype=float)
            if pmf.shape != (n_hidden, len(obs.values)):
                raise ValueError(f"pmf shape mismatch for observable {name!r}")
            _check_distributions(pmf, f"pmf rows for {name!r} are not distributions")
            pmf.setflags(write=False)
            held[name] = LHVObservable(obs.values, pmf)
        weights.setflags(write=False)
        super().__init__(weights, held)


def lhv_joint(model, assignments):
    """Joint probability of named outcomes: sum_xi P(xi) prod_K P_K(i_K, xi).

    ``assignments`` is a list of (observable name, outcome index) pairs; an
    index must be an integer in 0..n-1 for an observable of n outcomes.
    """
    acc = model.weights.copy()
    for name, outcome in assignments:
        pmf = model.observables[name].pmf
        n = pmf.shape[1]
        if not _is_integer(outcome) or not 0 <= outcome < n:
            raise ValueError(f"outcome index of {name!r} must be an integer in "
                             f"0..{n - 1}, got {outcome!r}")
        acc = acc * pmf[:, outcome]
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
    hidden value R is the outcome distribution of the component factor, whose
    roundoff entries in [-PROB_FLOOR, 0), which ``OutcomeDistribution`` allows,
    are set to 0.  ``subsystem_observables`` maps subsystem name -> Observable on
    that subsystem's factor space.
    """
    observables = {}
    for name, obs in subsystem_observables.items():
        if obs.system != sub_system(mixture.system, mixture.partition.modes_of(name)):
            raise ValueError("operator and state live on different systems")
        pmf = measurement._block_probs(mixture.factors[name], obs)
        observables[name] = LHVObservable(tuple(obs.eigenvalues), np.where(
            pmf < -measurement.PROB_FLOOR, pmf, np.maximum(pmf, 0.0)))
    return DiscreteLHVModel(mixture.probabilities, observables)


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

    Each distribution is drawn from its own child of ``rng`` (``spawn(3)``),
    one fixed-width row per unit.  A model takes its number of hidden values,
    an integer in [1, 6), from the first child and 5 standard exponentials
    from the second: flat Dirichlet weights, with zero weight past that
    number.  A setting takes a (4, 5) row of P(+1) of A1, A2, B1, B2 from the
    third.  One array step holds at most ``CHUNK_ROWS`` (model, setting)
    pairs: whole models, or one model's settings ``CHUNK_ROWS`` at a time, so
    the result does not depend on ``CHUNK_ROWS``.  The weights and pmf rows
    pass ``DiscreteLHVModel``'s checks, S is summed in ``chsh_mean``'s order
    and a zero weight adds exactly 0.0, so the result is that of one model
    per setting, drawn unit by unit from the three children, bit for bit.
    """
    for name, count in (("n_models", n_models), ("n_settings", n_settings)):
        if not _is_integer(count) or count < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {count!r}")
    size_rng, weight_rng, p_rng = np.random.default_rng(rng).spawn(3)
    if not n_settings:     # no (model, setting) pair to evaluate
        return 0.0
    low, high = 1, 6     # numbers of hidden values drawn from [low, high)
    per_step = max(1, CHUNK_ROWS // n_settings)     # whole models per array step
    best = 0.0
    for start in range(0, n_models, per_step):
        models = min(per_step, n_models - start)
        weights = weight_rng.standard_exponential((models, high - 1))
        weights[np.arange(high - 1) >= size_rng.integers(low, high, (models, 1))] = 0.0
        _check_distributions(sampling._flat_dirichlet(weights),
                             "hidden-value probabilities must be a distribution")
        weights = weights[:, None]     # over the settings
        for first in range(0, n_settings, CHUNK_ROWS):
            # (model, setting, observable, hidden value)
            p_up = p_rng.random((models, min(CHUNK_ROWS, n_settings - first), 4, high - 1))
            pmf = np.stack([p_up, 1.0 - p_up], axis=-1)
            # the whole step at once; the failing observable is looked for
            # only when it fails
            if not _are_distributions(pmf):
                for k, name in enumerate(("A1", "A2", "B1", "B2")):
                    _check_distributions(pmf[:, :, k],
                                         f"pmf rows for {name!r} are not distributions")
            # pmf @ (1, -1): both products are exact, so one rounding either way
            a1, a2, b1, b2 = (pmf[:, :, k, :, 0] - pmf[:, :, k, :, 1] for k in range(4))
            s = (np.sum(weights * a1 * b1, axis=-1) + np.sum(weights * a1 * b2, axis=-1)
                 + np.sum(weights * a2 * b1, axis=-1) - np.sum(weights * a2 * b2, axis=-1))
            best = max(best, float(np.abs(s).max()))
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
    if xxx_target is not None and not (_is_integer(xxx_target) and xxx_target in (1, -1)):
        raise ValueError(f"xxx_target must be 1, -1 or None, got {xxx_target!r}")
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
    """Check sum(PC) sum(PD) >= (sum(P sqrt(CD)))^2 for nonnegative inputs.

    The sums run along the last axis, so a stack of rows (the inputs
    broadcast together) holds only when every row holds; 1-D inputs are one
    row.  A negative or NaN entry in any row raises ValueError.  A zero P
    entry adds exactly 0.0 to every sum, so ragged rows may be padded with
    P = 0 and any nonnegative C and D.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if not (p.min() >= 0 and c.min() >= 0 and d.min() >= 0):   # NaN fails too
        raise ValueError("inputs must be nonnegative")
    lhs = np.sum(p * c, axis=-1) * np.sum(p * d, axis=-1)
    rhs = np.sum(p * np.sqrt(c * d), axis=-1) ** 2
    return bool(np.all(lhs >= rhs - ORACLE_RTOL * np.maximum(1.0, np.abs(lhs))))


def integral_inequality_oracle(lam, p, c, d):
    """Quadrature analogue of the sum inequality on a lambda grid.

    With trapezoidal weights w_i, w_i P_i in place of P_R is exactly the
    discrete inequality, so it holds whenever every w_i P_i, C and D is
    nonnegative; other inputs raise ValueError.  A grid that steps down gives
    negative weights, so positive samples on it are rejected.  As for
    ``sum_inequality_oracle``, each row along the last axis is one grid and
    a stack holds only when every row holds.  A row padded by repeating its
    last lambda, with P = 0, gets zero weight there and the same verdict.
    """
    lam = np.asarray(lam, dtype=float)
    w = np.zeros_like(lam)
    dl = np.diff(lam, axis=-1)
    w[..., :-1] += 0.5 * dl
    w[..., 1:] += 0.5 * dl
    return sum_inequality_oracle(w * np.asarray(p, dtype=float), c, d)
