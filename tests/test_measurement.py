import numpy as np
import pytest

from focklab import (
    ModeSystem,
    OutcomeDistribution,
    Partition,
    ZeroProbabilityError,
    bosons,
    cond_mean,
    cond_prob,
    cond_variance,
    conditioned_state,
    expectation,
    joint_prob,
    number_op,
    outcome_distribution,
    partial_trace,
    prob,
    qubits,
    spectral,
    tensor_embed,
    unrecorded_state,
)
from focklab.measurement import unrecorded_conditioned_variance
from focklab.states import bell_one_boson, ghz, singlet_spin
from focklab.witnesses import pauli_ops, spin_ops
from focklab.sampling import random_density


def _qubit_observables(system):
    sub0 = ModeSystem([system.modes[0]])
    sub1 = ModeSystem([system.modes[1]])
    obs_a = spectral(tensor_embed(number_op(sub0), system, (0,)))
    obs_b = spectral(tensor_embed(number_op(sub1), system, (1,)))
    return obs_a, obs_b


def test_spectral_pauli_z():
    system = qubits(1)
    _, _, sz = pauli_ops(system, 0)
    obs = spectral(sz)
    assert sorted(obs.eigenvalues) == pytest.approx([-1.0, 1.0])
    for p in obs.projectors:
        assert abs(np.trace(p.matrix) - 1.0) < 1e-12


def test_spectral_identity_single_projector():
    system = qubits(1)
    obs = spectral(system.identity())
    assert len(obs.projectors) == 1
    assert obs.eigenvalues[0] == pytest.approx(1.0)
    assert np.abs(obs.projectors[0].matrix - np.eye(2)).max() < 1e-12


def test_spectral_number_op_degeneracies():
    system = bosons(2, 2)
    obs = spectral(number_op(system))
    degs = {round(lam): int(round(np.real(np.trace(p.matrix))))
            for lam, p in zip(obs.eigenvalues, obs.projectors)}
    assert degs == {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}


def test_spectral_projectors_orthogonal():
    system = bosons(2, 2)
    obs = spectral(number_op(system))
    for i, pi in enumerate(obs.projectors):
        for j, pj in enumerate(obs.projectors):
            if i != j:
                assert np.abs((pi @ pj).matrix).max() < 1e-10


def test_spectral_rejects_non_hermitian():
    from focklab import annihilation
    system = bosons(1, 2, labels=["a"])
    with pytest.raises(ValueError, match="Hermitian"):
        spectral(annihilation(system, 0))


def test_joint_prob_bell_state():
    psi = bell_one_boson("psi+")
    system = psi.system
    obs_a, obs_b = _qubit_observables(system)
    # projector |0><0|_A is the eigenvalue-0 branch of n_A, |1><1|_B of n_B
    p0a = obs_a.projectors[np.argmin(np.abs(np.array(obs_a.eigenvalues) - 0))]
    p1b = obs_b.projectors[np.argmin(np.abs(np.array(obs_b.eigenvalues) - 1))]
    assert joint_prob(psi, [p0a, p1b]) == pytest.approx(0.5, abs=1e-12)


def test_identity_projector_prob_one():
    rng = np.random.default_rng(1)
    system = bosons(2, 1)
    rho = random_density(system, rng)
    assert prob(rho, system.identity()) == pytest.approx(1.0, abs=1e-12)


def test_ghz_all_up_probability():
    state = ghz()
    system = state.system
    projs = []
    for k in range(3):
        _, _, sz = pauli_ops(system, k)
        obs = spectral(sz)
        projs.append(obs.projectors[np.argmax(obs.eigenvalues)])
    assert joint_prob(state, projs) == pytest.approx(0.5, abs=1e-12)


def test_conditioning_on_eigenstate_is_identity():
    system = bosons(2, 1)
    rho = system.basis_state((1, 0)).density()
    obs_a, _ = _qubit_observables(system)
    p1a = obs_a.projectors[np.argmax(obs_a.eigenvalues)]
    cond = conditioned_state(rho, p1a)
    assert np.abs(cond.matrix - rho.matrix).max() < 1e-12


def test_conditioned_bell_state_collapses():
    psi = bell_one_boson("psi+")
    obs_a, _ = _qubit_observables(psi.system)
    p1a = obs_a.projectors[np.argmax(obs_a.eigenvalues)]
    cond = conditioned_state(psi, p1a)
    target = psi.system.basis_state((1, 0)).density()
    assert np.abs(cond.matrix - target.matrix).max() < 1e-12


def test_repeated_measurement_certain():
    rng = np.random.default_rng(2)
    system = bosons(2, 1)
    rho = random_density(system, rng)
    obs_a, _ = _qubit_observables(system)
    p = obs_a.projectors[0]
    cond = conditioned_state(rho, p)
    assert prob(cond, p) == pytest.approx(1.0, abs=1e-10)


def test_zero_probability_conditioning_raises():
    system = bosons(2, 1)
    rho = system.basis_state((0, 0)).density()
    obs_a, obs_b = _qubit_observables(system)
    p1a = obs_a.projectors[np.argmax(obs_a.eigenvalues)]
    for condition in (lambda: conditioned_state(rho, p1a),
                      lambda: cond_prob(rho, obs_b.projectors[0], p1a),
                      lambda: cond_mean(rho, obs_b, p1a),
                      lambda: cond_variance(rho, obs_b, p1a)):
        with pytest.raises(ZeroProbabilityError, match="zero-probability"):
            condition()


def test_product_state_cond_prob_independent_of_b():
    rng = np.random.default_rng(3)
    system = bosons(2, 2)
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    rho_a = random_density(sub_a, rng)
    rho_b = random_density(sub_b, rng)
    from focklab import DensityOperator
    rho = DensityOperator(system, np.kron(rho_a.matrix, rho_b.matrix))
    obs_a, obs_b = _qubit_observables(system)
    pa = obs_a.projectors[1]
    reference = prob(rho_a, spectral(number_op(sub_a)).projectors[1])
    for pb in obs_b.projectors:
        if prob(rho, pb) > 1e-12:
            assert cond_prob(rho, pa, pb) == pytest.approx(reference, abs=1e-10)


def test_bayes_identity_random_states():
    rng = np.random.default_rng(4)
    system = bosons(2, 2)
    obs_a, obs_b = _qubit_observables(system)
    for _ in range(20):
        rho = random_density(system, rng)
        for pa in obs_a.projectors:
            total = sum(cond_prob(rho, pa, pb) * prob(rho, pb)
                        for pb in obs_b.projectors if prob(rho, pb) > 1e-12)
            assert total == pytest.approx(prob(rho, pa), abs=1e-10)


def test_no_signalling():
    rng = np.random.default_rng(5)
    system = bosons(2, 2)
    obs_a, obs_b = _qubit_observables(system)
    for _ in range(20):
        rho = random_density(system, rng)
        after = unrecorded_state(rho, obs_b)
        for pa in obs_a.projectors:
            assert prob(after, pa) == pytest.approx(prob(rho, pa), abs=1e-10)


def test_unrecorded_state_reduced_operator():
    rng = np.random.default_rng(6)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    _, obs_b = _qubit_observables(system)
    for _ in range(10):
        rho = random_density(system, rng)
        after = unrecorded_state(rho, obs_b)
        lhs = partial_trace(after, part, "A").matrix
        rhs = partial_trace(rho, part, "A").matrix
        assert np.abs(lhs - rhs).max() < 1e-12


def test_unrecorded_state_is_physical():
    rng = np.random.default_rng(7)
    system = bosons(2, 2)
    _, obs_b = _qubit_observables(system)
    rho = random_density(system, rng)
    unrecorded_state(rho, obs_b)   # construction runs the physicality checks


def test_cond_variance_of_eigenstate_is_zero():
    system = bosons(2, 2)
    rho = system.basis_state((1, 2)).density()
    obs_a, obs_b = _qubit_observables(system)
    for pb in obs_b.projectors:
        if prob(rho, pb) > 1e-12:
            assert cond_variance(rho, obs_a, pb) == pytest.approx(0.0, abs=1e-12)


def test_singlet_conditional_variance_vanishes():
    # perfect x-x correlation: conditioning on S_x2 = -1/2 pins S_x1
    state = singlet_spin().density()
    system = state.system
    spins1 = spin_ops(system, 0, 1)
    spins2 = spin_ops(system, 2, 3)
    obs_x2 = spectral(spins2.sx)
    proj_minus = obs_x2.projectors[int(np.argmin(obs_x2.eigenvalues))]
    assert obs_x2.eigenvalues[int(np.argmin(obs_x2.eigenvalues))] == pytest.approx(-0.5)
    var = cond_variance(state, spectral(spins1.sx), proj_minus)
    assert var == pytest.approx(0.0, abs=1e-12)
    mean = cond_mean(state, spectral(spins1.sx), proj_minus)
    assert mean == pytest.approx(0.5, abs=1e-12)


def test_unrecorded_mean_equals_mean():
    rng = np.random.default_rng(8)
    system = bosons(2, 2)
    obs_a, obs_b = _qubit_observables(system)
    for _ in range(10):
        rho = random_density(system, rng)
        acc = 0.0
        for pb, lam in zip(obs_b.projectors, obs_b.eigenvalues):
            p = prob(rho, pb)
            if p > 1e-12:
                acc += cond_mean(rho, obs_a, pb) * p
        assert acc == pytest.approx(expectation(rho, obs_a.operator).real, abs=1e-10)


def test_unrecorded_variance_never_exceeds_variance():
    # law of total variance: averaging conditional variances can only shrink
    rng = np.random.default_rng(9)
    system = bosons(2, 2)
    obs_a, obs_b = _qubit_observables(system)
    for _ in range(20):
        rho = random_density(system, rng)
        mean = expectation(rho, obs_a.operator).real
        var = expectation(rho, obs_a.operator @ obs_a.operator).real - mean ** 2
        unrec = unrecorded_conditioned_variance(rho, obs_a, obs_b)
        assert unrec <= var + 1e-10


def test_outcome_distribution_sums_to_one():
    rng = np.random.default_rng(10)
    system = bosons(2, 1)
    obs_a, _ = _qubit_observables(system)
    dist = outcome_distribution(random_density(system, rng), obs_a)
    assert sum(p for _, p in dist.outcomes) == pytest.approx(1.0, abs=1e-10)


def test_outcome_distribution_rejects_nan():
    with pytest.raises(ValueError, match="sum to 1"):
        OutcomeDistribution(((0.0, np.nan),))


def test_joint_prob_order_independent():
    rng = np.random.default_rng(11)
    system = bosons(2, 2)
    obs_a, obs_b = _qubit_observables(system)
    rho = random_density(system, rng)
    for pa in obs_a.projectors:
        for pb in obs_b.projectors:
            assert joint_prob(rho, [pa, pb]) == pytest.approx(
                joint_prob(rho, [pb, pa]), abs=1e-14)


def test_spectral_merges_near_degenerate_eigenvalues():
    from focklab import Operator
    system = bosons(1, 2, labels=["a"])
    op = Operator(system, np.diag([0.0, 1e-12, 1.0]).astype(complex))
    obs = spectral(op)
    assert len(obs.projectors) == 2
    degs = sorted(int(round(np.real(np.trace(p.matrix)))) for p in obs.projectors)
    assert degs == [1, 2]
