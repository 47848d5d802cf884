import tracemalloc

import numpy as np
import pytest

from focklab import (
    ModeSystem,
    bosons,
    ghz_assignment_search,
    integral_inequality_oracle,
    joint_prob,
    lhv_chsh_bound_sweep,
    lhv_from_separable,
    lhv_joint,
    lhv_mean_product,
    number_op,
    spectral,
    sum_inequality_oracle,
    tensor_embed,
)
from focklab import lhv
from focklab.cli import run_experiment
from focklab.fock import Partition
from focklab.lhv import (
    DiscreteLHVModel,
    LHVObservable,
    chsh_mean,
    deterministic_chsh_corners,
)
from focklab.states import SeparableMixture


def _pm_observable(p_up_per_hidden):
    p = np.asarray(p_up_per_hidden, dtype=float)
    return LHVObservable((1.0, -1.0), np.column_stack([p, 1.0 - p]))


def test_single_hidden_value_factorises():
    model = DiscreteLHVModel(
        np.array([1.0]),
        {"A": _pm_observable([0.3]), "B": _pm_observable([0.8])})
    joint = lhv_joint(model, [("A", 0), ("B", 0)])
    assert joint == pytest.approx(0.3 * 0.8)


def test_joint_marginals_consistent():
    rng = np.random.default_rng(0)
    weights = rng.dirichlet(np.ones(4))
    model = DiscreteLHVModel(
        weights,
        {"A": _pm_observable(rng.random(4)), "B": _pm_observable(rng.random(4))})
    for i in (0, 1):
        marginal = sum(lhv_joint(model, [("A", i), ("B", j)]) for j in (0, 1))
        direct = float(np.dot(weights, model.observables["A"].pmf[:, i]))
        assert marginal == pytest.approx(direct, abs=1e-14)


def test_uniform_pmf_mean_product_zero():
    model = DiscreteLHVModel(
        np.array([0.5, 0.5]),
        {"A": _pm_observable([0.5, 0.5]), "B": _pm_observable([0.9, 0.1])})
    assert lhv_mean_product(model, ["A", "B"]) == pytest.approx(0.0, abs=1e-14)


def test_mean_products_bounded():
    rng = np.random.default_rng(1)
    for _ in range(100):
        h = int(rng.integers(1, 5))
        model = DiscreteLHVModel(
            rng.dirichlet(np.ones(h)),
            {"A": _pm_observable(rng.random(h)),
             "B": _pm_observable(rng.random(h))})
        val = lhv_mean_product(model, ["A", "B"])
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_deterministic_corners_saturate_bound():
    corners = deterministic_chsh_corners()
    assert len(corners) == 16
    assert all(c == pytest.approx(2.0) for c in corners)


def test_random_models_respect_bound():
    best = lhv_chsh_bound_sweep(200, 50, rng=2)
    assert best <= 2.0 + 1e-12


def _object_per_draw_sweep(n_models, n_settings, rng):
    """The sweep as one DiscreteLHVModel per setting, with chsh_mean."""
    rng = np.random.default_rng(rng)
    best = 0.0
    for _ in range(n_models):
        n_hidden = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(n_hidden))
        for _ in range(n_settings):
            observables = {name: _pm_observable(rng.random(n_hidden))
                           for name in ("A1", "A2", "B1", "B2")}
            best = max(best, abs(chsh_mean(DiscreteLHVModel(weights, observables))))
    return best


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_sweep_equals_the_object_per_draw_reference_bit_for_bit(chunk, monkeypatch):
    monkeypatch.setattr(lhv, "CHUNK_ROWS", chunk)
    for seed in range(6):
        # one setting per model: the result is that setting's |S| itself
        assert lhv_chsh_bound_sweep(1, 1, seed) == _object_per_draw_sweep(1, 1, seed)
        for n_models, n_settings in ((3, 2), (2, 3), (2, 4), (3, 7), (1, 10)):
            got = lhv_chsh_bound_sweep(n_models, n_settings, seed)
            assert got == _object_per_draw_sweep(n_models, n_settings, seed)
            assert type(got) is float
    # one setting past a chunk, and a second model drawn after it
    n_settings = lhv.CHUNK_ROWS + 1
    assert lhv_chsh_bound_sweep(2, n_settings, 7) == _object_per_draw_sweep(2, n_settings, 7)


class _SpoiledDraws(np.random.Generator):
    """Draws P(+1) with the given observables' rows spoiled by ``value``."""

    def __init__(self, seed, spoiled, value):
        super().__init__(np.random.PCG64(seed))
        self.spoiled, self.value = spoiled, value

    def random(self, size=None):
        out = super().random(size)
        if isinstance(size, tuple) and len(size) == 3:
            out[:, list(self.spoiled), :] = self.value
        return out


@pytest.mark.parametrize("value", [1.5, -1e-9, np.nan])
@pytest.mark.parametrize("spoiled", [(0,), (1,), (2, 3), (3,)])
def test_a_spoiled_pmf_row_names_the_first_failing_observable(spoiled, value):
    name = ("A1", "A2", "B1", "B2")[spoiled[0]]
    with pytest.raises(ValueError, match=f"pmf rows for '{name}' are not distributions"):
        lhv_chsh_bound_sweep(2, 3, _SpoiledDraws(0, spoiled, value))


def test_sweep_with_no_draws_is_zero():
    assert lhv_chsh_bound_sweep(0, 20, 0) == 0.0
    assert lhv_chsh_bound_sweep(5, 0, 0) == 0.0
    # a count is an integer >= 0
    for n_models, n_settings in ((2.5, 3), (True, 3), (2, 3.0), (-1, 3), (2, "3")):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            lhv_chsh_bound_sweep(n_models, n_settings, 0)


def _peak_bytes(func):
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_paths_hold_one_chunk_at_a_time(monkeypatch):
    # one draw array of 200_000 settings x 4 observables x up to 5 hidden
    # values would alone be 32 MB
    assert _peak_bytes(lambda: lhv_chsh_bound_sweep(1, 200_000, 0)) < 8 * 2 ** 20
    # the appendix stacks: with 64-row chunks, 64 and 640 samples peak alike
    monkeypatch.setattr(lhv, "CHUNK_ROWS", 64)
    monkeypatch.setattr("focklab.cli.CHUNK_ROWS", 64)
    peaks = [_peak_bytes(lambda: run_experiment("appendix_inequalities",
                                                {"n_samples": n}))
             for n in (64, 640)]
    assert peaks[1] < peaks[0] + 16 * 2 ** 10


def test_all_four_sign_placements_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = int(rng.integers(1, 5))
        model = DiscreteLHVModel(
            rng.dirichlet(np.ones(h)),
            {name: _pm_observable(rng.random(h))
             for name in ("A1", "A2", "B1", "B2")})
        e = {(i, j): lhv_mean_product(model, [f"A{i}", f"B{j}"])
             for i in (1, 2) for j in (1, 2)}
        combos = (
            +e[1, 1] + e[1, 2] + e[2, 1] - e[2, 2],
            +e[1, 1] + e[1, 2] - e[2, 1] + e[2, 2],
            +e[1, 1] - e[1, 2] + e[2, 1] + e[2, 2],
            -e[1, 1] + e[1, 2] + e[2, 1] + e[2, 2],
        )
        assert max(abs(c) for c in combos) <= 2.0 + 1e-12


def test_deterministic_model_matches_separable_mixture():
    # map xi -> R: deterministic +/-1 outcomes become number-state factors
    rng = np.random.default_rng(4)
    system = bosons(2, 1)
    partition = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    weights = rng.dirichlet(np.ones(4))
    outcomes = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    factors_a, factors_b = [], []
    rows_a, rows_b = [], []
    for (oa, ob), w in zip(outcomes, weights):
        fa = sub_a.basis_state((1,) if oa == 1 else (0,)).density()
        fb = sub_b.basis_state((1,) if ob == 1 else (0,)).density()
        factors_a.append(fa.matrix)
        factors_b.append(fb.matrix)
        rows_a.append([1.0, 0.0] if oa == 1 else [0.0, 1.0])
        rows_b.append([1.0, 0.0] if ob == 1 else [0.0, 1.0])
    mixture = SeparableMixture(system, partition, weights,
                               {"A": np.array(factors_a), "B": np.array(factors_b)})
    model = DiscreteLHVModel(weights, {
        "A": LHVObservable((1.0, -1.0), np.array(rows_a)),
        "B": LHVObservable((1.0, -1.0), np.array(rows_b))})
    rho = mixture.summed()
    # sigma_z projectors: occupied = +1
    from focklab.witnesses import pauli_ops
    proj = {}
    for name, mode in (("A", 0), ("B", 1)):
        obs = spectral(pauli_ops(system, mode)[2])
        order = np.argsort(obs.eigenvalues)[::-1]   # +1 first to match values
        proj[name] = [obs.projectors[i] for i in order]
    for i in (0, 1):
        for j in (0, 1):
            quantum = joint_prob(rho, [proj["A"][i], proj["B"][j]])
            classical = lhv_joint(model, [("A", i), ("B", j)])
            assert quantum == pytest.approx(classical, abs=1e-12)


def test_general_separable_mixture_has_matching_model():
    rng = np.random.default_rng(5)
    system = bosons(2, 2)
    partition = Partition([("A", (0,)), ("B", (1,))])
    for _ in range(20):
        from focklab.sampling import random_number_diagonal_mixture
        mixture = random_number_diagonal_mixture(system, partition, rng)
        sub_a = ModeSystem([system.modes[0]])
        sub_b = ModeSystem([system.modes[1]])
        observables = {"A": spectral(number_op(sub_a)),
                       "B": spectral(number_op(sub_b))}
        model = lhv_from_separable(mixture, observables)
        rho = mixture.summed()
        emb = {"A": spectral(tensor_embed(number_op(sub_a), system, (0,))),
               "B": spectral(tensor_embed(number_op(sub_b), system, (1,)))}
        for i in range(3):
            for j in range(3):
                quantum = joint_prob(rho, [emb["A"].projectors[i],
                                           emb["B"].projectors[j]])
                classical = lhv_joint(model, [("A", i), ("B", j)])
                assert quantum == pytest.approx(classical, abs=1e-12)
    # an observable of the other subsystem, of the same dimension, is refused
    with pytest.raises(ValueError, match="different systems"):
        lhv_from_separable(mixture, {"A": observables["B"], "B": observables["A"]})


def test_separable_model_takes_a_roundoff_negative_probability_as_zero():
    # a factor that is an eigenstate of its own observable has a zero-probability
    # outcome, which often comes out a few 1e-17 below zero
    from focklab.fock import qubits, sub_system
    from focklab.measurement import PROB_FLOOR, _block_probs
    from focklab.witnesses import pauli_ops
    rng = np.random.default_rng(1)
    system = qubits(2)
    partition = Partition([("A", (0,)), ("B", (1,))])
    subs = {name: sub_system(system, (mode,)) for name, mode in (("A", 0), ("B", 1))}
    negative = 0
    for _ in range(200):
        observables, factors = {}, {}
        for name, sub in subs.items():
            n = rng.standard_normal(3)
            sx, sy, sz = pauli_ops(sub, 0)
            n /= np.linalg.norm(n)
            observables[name] = spectral(n[0] * sx + n[1] * sy + n[2] * sz)
            factors[name] = observables[name].projectors[int(rng.integers(2))].matrix[None]
        mixture = SeparableMixture(system, partition, [1.0], factors)
        raw = {name: _block_probs(mixture.factors[name], obs) for name, obs in observables.items()}
        negative += sum(int((pmf < 0).any()) for pmf in raw.values())
        model = lhv_from_separable(mixture, observables)
        for name, pmf in raw.items():
            got = model.observables[name].pmf
            assert got.min() >= 0.0
            assert np.array_equal(got, np.where(pmf < 0.0, 0.0, pmf))
            assert pmf.min() >= -PROB_FLOOR
    assert negative > 0
    # a probability of -1.5e-12, below -PROB_FLOOR but within the PSD slack of a
    # factor of trace 1 - 8e-13, is not roundoff, and the model still refuses it,
    # though as 0.0 its row would sum to 1 within NORM_ATOL
    system = bosons(2, 2)
    factor = np.diag([0.5, 0.5 + 0.7e-12, -1.5e-12]).astype(complex)[None]
    mixture = SeparableMixture(system, partition, [1.0], {"A": factor, "B": factor})
    sub = ModeSystem([system.modes[0]])
    with pytest.raises(ValueError, match="pmf rows for 'A' are not distributions"):
        lhv_from_separable(mixture, {"A": spectral(number_op(sub))})


def test_ghz_search_counts():
    assert ghz_assignment_search() == 0
    assert ghz_assignment_search(xxx_target=None) == 64
    assert ghz_assignment_search(xxx_target=-1) == 64
    for target in (5, 0, True, 1.0, "1"):
        with pytest.raises(ValueError, match="xxx_target must be 1, -1 or None"):
            ghz_assignment_search(target)


def test_sum_inequality_random_sweep():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        p = rng.dirichlet(np.ones(size)) if size > 1 else np.array([1.0])
        c = rng.random(size) * 10
        d = rng.random(size) * 10
        assert sum_inequality_oracle(p, c, d)


def test_sum_inequality_equality_cases():
    rng = np.random.default_rng(7)
    p = rng.dirichlet(np.ones(6))
    c = rng.random(6) * 5
    lhs = float(np.sum(p * c) * np.sum(p * c))
    rhs = float(np.sum(p * np.sqrt(c * c)) ** 2)
    assert abs(lhs - rhs) < 1e-12
    # single-support distribution also saturates
    p1 = np.zeros(4)
    p1[2] = 1.0
    d = rng.random(4)
    lhs1 = float(np.sum(p1 * c[:4]) * np.sum(p1 * d))
    rhs1 = float(np.sum(p1 * np.sqrt(c[:4] * d)) ** 2)
    assert abs(lhs1 - rhs1) < 1e-12
    assert sum_inequality_oracle(p1, c[:4], d)


def test_integral_inequality_random_sweep():
    rng = np.random.default_rng(8)
    for _ in range(500):
        size = int(rng.integers(3, 12))
        lam = np.sort(rng.random(size) * 4)
        p = rng.random(size)
        c = rng.random(size) * 10
        d = rng.random(size) * 10
        assert integral_inequality_oracle(lam, p, c, d)


def test_oracles_reject_negative_inputs():
    with pytest.raises(ValueError, match="nonnegative"):
        sum_inequality_oracle([0.5, 0.5], [1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        integral_inequality_oracle([0, 1], [1, 1], [1, 1], [-2, 1])
    # NaN is not nonnegative either
    for p, c, d in (([0.5, 0.5], [1.0, np.nan], [1.0, 1.0]),
                    ([np.nan, 0.5], [1.0, 1.0], [1.0, 1.0]),
                    ([0.5, 0.5], [1.0, 1.0], [np.nan, 1.0])):
        with pytest.raises(ValueError, match="nonnegative"):
            sum_inequality_oracle(p, c, d)
        with pytest.raises(ValueError, match="nonnegative"):
            integral_inequality_oracle([0.0, 1.0], p, c, d)
    # a grid that steps down gives negative trapezoid weights
    with pytest.raises(ValueError, match="nonnegative"):
        integral_inequality_oracle([1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    # also when it steps down only into its last point, in any row of a stack
    lam = [[0.0, 1.0, 2.0], [0.0, 1.0, 0.5]]
    with pytest.raises(ValueError, match="nonnegative"):
        integral_inequality_oracle(lam, [[1.0, 0.0, 1.0]] * 2, np.ones((2, 3)), np.ones(3))


def test_model_rejects_nan():
    with pytest.raises(ValueError, match="distribution"):
        DiscreteLHVModel([np.nan, 0.5], {})
    with pytest.raises(ValueError, match="rows"):
        DiscreteLHVModel(np.array([1.0]),
                         {"A": LHVObservable((1.0, -1.0), np.array([[np.nan, 0.5]]))})


def test_model_validation():
    with pytest.raises(ValueError, match="distribution"):
        DiscreteLHVModel(np.array([0.7, 0.7]), {})
    with pytest.raises(ValueError, match="must be a distribution"):
        DiscreteLHVModel([], {})
    with pytest.raises(ValueError, match="rows"):
        DiscreteLHVModel(np.array([1.0]), {"A": LHVObservable((), np.zeros((1, 0)))})
    with pytest.raises(ValueError, match="rows"):
        DiscreteLHVModel(np.array([1.0]),
                         {"A": LHVObservable((1.0, -1.0), np.array([[0.5, 0.4]]))})


@pytest.mark.parametrize("outcome", [-1, 2, 1.0, True, np.float64(0.0), "0"])
def test_joint_rejects_an_outcome_index_out_of_range_or_not_integer(outcome):
    model = DiscreteLHVModel(np.array([1.0]), {"A": _pm_observable([0.85])})
    with pytest.raises(ValueError, match="outcome index of 'A'"):
        lhv_joint(model, [("A", outcome)])
    assert lhv_joint(model, [("A", np.int64(1))]) == pytest.approx(0.15)
