import tracemalloc

import numpy as np
import pytest

from focklab import (
    DensityOperator,
    ModeSystem,
    Observable,
    Operator,
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


def test_spectral_stores_no_projector_matrices():
    # dim 256, 31 outcomes: one d x d projector per outcome would hold 32 MB
    op = number_op(bosons(2, 15))
    tracemalloc.start()
    try:
        obs = spectral(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(obs.blocks) == 31
    assert peak < 8_000_000


@pytest.mark.parametrize("change,message", [
    # a non-orthonormal block, a missing outcome, a wrong eigenvalue
    (lambda vals, blocks: (vals, (blocks[0], 2.0 * blocks[1], blocks[2])),
     "do not resolve the identity"),
    (lambda vals, blocks: (vals[:2], blocks[:2]), "do not resolve the identity"),
    (lambda vals, blocks: ((vals[0], vals[1] + 0.5, vals[2]), blocks), "does not reconstruct"),
])
def test_observable_rejects_a_bad_resolution(change, message):
    n_op = number_op(bosons(1, 2))
    obs = spectral(n_op)
    eigenvalues, blocks = change(obs.eigenvalues, obs.blocks)
    with pytest.raises(ValueError, match=message):
        Observable(n_op, eigenvalues, blocks)


def test_block_consumers_reject_an_observable_on_another_system():
    # same dim 4, different mode labels
    rho = bosons(2, 1).basis_state((1, 0)).density()
    obs = spectral(number_op(qubits(2)))
    own = spectral(number_op(rho.system))
    with pytest.raises(ValueError, match="different systems"):
        outcome_distribution(rho, obs)
    with pytest.raises(ValueError, match="different systems"):
        cond_mean(rho, obs, rho.system.identity())
    # and of another dim, where a product would fail in numpy instead
    for other in (obs, spectral(number_op(qubits(3)))):
        with pytest.raises(ValueError, match="operator and state live on different systems"):
            unrecorded_state(rho, other)
        for target, given in ((other, own), (own, other)):
            with pytest.raises(ValueError,
                               match="operator and state live on different systems"):
                unrecorded_conditioned_variance(rho, target, given)


def test_joint_prob_needs_a_projector():
    with pytest.raises(ValueError, match="at least one projector"):
        joint_prob(qubits(1).basis_state((0,)), [])


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


def test_a_stack_with_one_bad_state_fails_naming_its_index():
    system = bosons(2, 2)
    rng = np.random.default_rng(0)
    states = list(random_density(system, rng, 4))
    obs = spectral(number_op(system, [1, 0]))
    proj = obs.projectors[1]
    part = Partition([("A", (0,)), ("B", (1,))])
    calls = [lambda s: prob(s, proj), lambda s: joint_prob(s, [proj, proj]),
             lambda s: unrecorded_state(s, obs),
             lambda s: unrecorded_conditioned_variance(s, obs, obs),
             lambda s: partial_trace(s, part, "A")]
    # same dimension, another system
    elsewhere = states[:2] + [random_density(bosons(2, 2, labels=["x", "y"]), rng)] + states[3:]
    not_a_state = states[:3] + [proj]
    for call in calls:
        with pytest.raises(ValueError, match="^state 2: .*different systems"):
            call(elsewhere)
        with pytest.raises(TypeError, match="^state 3: expected PureState"):
            call(not_a_state)
        with pytest.raises(ValueError, match="at least one state"):
            call([])
    # Tr(i |00><00| rho) is imaginary exactly for the state with weight on |00>
    vacuum = system.vacuum()
    occupied = system.basis_state((1, 1))
    tilted = Operator(system, 1j * vacuum.density().matrix)
    with pytest.raises(ValueError, match="^state 2: probability has imaginary part 1.0"):
        prob([occupied, occupied, vacuum], tilted)
    with pytest.raises(ValueError, match="^state 0: probability has imaginary part"):
        prob(vacuum, tilted)


def test_block_probabilities_name_the_state_not_the_block():
    from focklab.measurement import _block_probs
    system = bosons(1, 2)
    obs = spectral(number_op(system))
    # state 1's only imaginary entry sits on the last block
    stack = np.array([np.eye(3) / 3, np.diag([0.5, 0.5, 1j])])
    with pytest.raises(ValueError, match="^state 1: probability has imaginary part 1.0"):
        _block_probs(stack, obs)


def test_an_outcome_no_state_can_take_is_skipped_unchecked():
    # the target swaps |1> and |2>: it commutes with the projector on |0>, not
    # with those on |1> or |2>, on which the states have no weight
    system = bosons(1, 2)
    swap = np.eye(3)[[0, 2, 1]]
    target = spectral(Operator(system, swap))
    given = spectral(number_op(system))
    vacuum = system.vacuum()
    assert unrecorded_conditioned_variance(vacuum, target, given) == 0.0
    assert unrecorded_conditioned_variance([vacuum, vacuum], target, given).tolist() == \
        [0.0, 0.0]
    with pytest.raises(ValueError, match="do not commute"):
        unrecorded_conditioned_variance(system.basis_state((1,)), target, given)


def test_an_outcome_at_or_below_the_floor_adds_exactly_nothing():
    # 1e-13 of the weight sits in the N = 1 sector, where n_A has variance 1/4;
    # the vacuum sector has none, so the skipped sector must leave exactly 0.0
    system = bosons(2, 1)
    i00, i10, i01 = system.indices_of([(0, 0), (1, 0), (0, 1)])
    mat = np.zeros((4, 4), dtype=complex)
    mat[i00, i00] = 1.0 - 1e-13
    mat[np.ix_([i10, i01], [i10, i01])] = 0.5e-13
    rho = DensityOperator(system, mat)
    target, given = spectral(number_op(system, [1, 0])), spectral(number_op(system))
    assert unrecorded_conditioned_variance(rho, target, given) == 0.0
    assert unrecorded_conditioned_variance([system.basis_state((1, 0)), rho], target,
                                           given).tolist() == [0.0, 0.0]
