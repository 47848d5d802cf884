import numpy as np
import pytest

from focklab import (
    CHSHSetting,
    Partition,
    annihilation,
    bosons,
    chsh,
    correlation_test,
    expectation,
    ghz,
    ghz_parity,
    number_op,
    particle_entanglement,
    qubits,
    sector_decompose,
    spin_epr,
    spin_ops,
)
from focklab import fock, measurement, witnesses
from focklab.fock import PureState
from focklab.witnesses import (
    casimir_residual,
    chsh_batch,
    chsh_correlation_tensor,
    pauli_ops,
)
from focklab.states import (
    bell_one_boson,
    mixed_N_boson,
    singlet_spin,
)
from focklab.sampling import (
    random_chsh_directions,
    random_chsh_setting,
    random_density,
    random_number_diagonal_mixture,
    random_one_boson_pair_mixture,
    random_qubit_pair_mixture,
)


def test_pauli_algebra():
    system = qubits(1)
    sx, sy, sz = pauli_ops(system, 0)
    assert np.abs((sx @ sy).matrix - 1j * sz.matrix).max() < 1e-14
    assert np.abs((sx @ sx).matrix - np.eye(2)).max() < 1e-14
    up = system.basis_state((1,))
    assert expectation(up, sz) == pytest.approx(1.0)


def test_spin_commutation_relations():
    system = bosons(2, 3)
    spins = spin_ops(system, 0, 1)
    # exact on the total-occupancy sectors that cannot touch the cutoff
    totals = system.occupancies.sum(axis=1)
    safe = np.nonzero(totals <= 3)[0]
    comm = (spins.sx @ spins.sy - spins.sy @ spins.sx).matrix - 1j * spins.sz.matrix
    assert np.abs(comm[np.ix_(safe, safe)]).max() < 1e-12


def test_spin_casimir_identity():
    system = bosons(2, 3)
    spins = spin_ops(system, 0, 1)
    n_pair = number_op(system)
    for occ in ((0, 0), (1, 0), (1, 1), (2, 1), (3, 0)):
        state = system.basis_state(occ)
        assert casimir_residual(state, spins, n_pair) < 1e-10


def test_singlet_correlations_minus_a_dot_b():
    rng = np.random.default_rng(0)
    singlet = bell_one_boson("psi-")
    t = chsh_correlation_tensor(singlet)
    for _ in range(20):
        setting = random_chsh_setting(rng)
        a = np.asarray(setting.a1)
        b = np.asarray(setting.b1)
        assert float(a @ t @ b) == pytest.approx(-float(a @ b), abs=1e-12)


def test_chsh_optimal_setting():
    s = 1 / np.sqrt(2)
    setting = CHSHSetting(a1=(s, s, 0.0), a2=(s, -s, 0.0),
                          b1=(1.0, 0.0, 0.0), b2=(0.0, 1.0, 0.0))
    value = chsh(bell_one_boson("psi-"), setting)
    assert abs(value) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_chsh_separable_bound_sweep():
    rng = np.random.default_rng(1)
    tensors = np.stack([
        chsh_correlation_tensor(random_qubit_pair_mixture(rng).summed())
        for _ in range(100)])
    a1, a2, b1, b2 = random_chsh_directions(rng, 1000)
    s_abs = chsh_batch(tensors, a1, a2, b1, b2)
    assert float(s_abs.max()) <= 2.0 + 1e-10


def _reference_tensor(rho):
    """The correlation tensor as one ``expectation`` per entry."""
    t = np.empty((3, 3))
    for i, sa in enumerate(pauli_ops(rho.system, 0)):
        for j, sb in enumerate(pauli_ops(rho.system, 1)):
            t[i, j] = expectation(rho, sa @ sb).real
    return t


@pytest.mark.parametrize("seed", range(4))
def test_stacked_tensors_equal_the_per_state_tensors_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    system = qubits(2)
    states = [random_qubit_pair_mixture(rng).summed() if rng.random() < 0.5
              else random_density(system, rng) for _ in range(40)]
    tensors = chsh_correlation_tensor(states)
    assert tensors.shape == (40, 3, 3)
    assert tensors.tobytes() == np.stack([_reference_tensor(s) for s in states]).tobytes()
    assert chsh_correlation_tensor(states[7]).tobytes() == tensors[7].tobytes()


def test_stacked_tensors_need_one_two_qubit_system():
    rho = qubits(2).vacuum().density()
    # the stack check names the state that fails it
    with pytest.raises(ValueError, match="^state 1: .*different systems"):
        chsh_correlation_tensor([rho, bell_one_boson("psi-")])
    with pytest.raises(ValueError, match="^state 1: .*different systems"):
        chsh_correlation_tensor([rho, bosons(2, 2).vacuum()])
    with pytest.raises(ValueError, match="^a stack needs at least one state$"):
        chsh_correlation_tensor([])
    with pytest.raises(ValueError, match="two-qubit"):
        chsh_correlation_tensor([bosons(2, 2).vacuum(), bosons(2, 2).vacuum()])


def test_chsh_rejects_wrong_dimension():
    system = bosons(2, 2)
    with pytest.raises(ValueError, match="two-qubit"):
        chsh_correlation_tensor(system.vacuum())


def test_correlation_test_bell_state_violates():
    psi = bell_one_boson("psi+")
    system = psi.system
    verdict = correlation_test(psi, annihilation(system, 0), annihilation(system, 1))
    assert verdict.lhs == pytest.approx(0.25, abs=1e-12)
    assert verdict.rhs == pytest.approx(0.0, abs=1e-12)
    assert verdict.violated


def test_correlation_test_vacuum_not_violated():
    system = bosons(2, 1)
    vac = system.vacuum()
    verdict = correlation_test(vac, annihilation(system, 0), annihilation(system, 1))
    assert not verdict.violated
    assert verdict.lhs == pytest.approx(0.0, abs=1e-12)


def test_correlation_test_separable_compliant_sweep():
    rng = np.random.default_rng(2)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    a = annihilation(system, 0)
    b = annihilation(system, 1)
    n_a = a.dag() @ a
    n_b = b.dag() @ b
    for _ in range(200):
        mix = random_number_diagonal_mixture(system, part, rng)
        rho = mix.summed()
        for oa, ob in ((a, b), (a @ a, b), (n_a, n_b)):
            assert not correlation_test(rho, oa, ob).violated


def test_ghz_parity_identities():
    report = ghz_parity(ghz())
    assert report.passed
    assert max(report.residuals.values()) < 1e-12


def test_ghz_parity_x_product_state():
    # |+>_x on all three qubits: the xxx identity holds, the cyclic ones fail
    system = qubits(3)
    plus = np.ones(8, dtype=complex) / np.sqrt(8.0)
    report = ghz_parity(PureState(system, plus))
    assert report.residuals["xxx"] < 1e-12
    assert report.residuals["xyy"] > 0.5
    assert report.residuals["yxy"] > 0.5
    assert report.residuals["yyx"] > 0.5
    assert not report.passed


def test_ghz_parity_sign_flip():
    system = qubits(3)
    vec = np.zeros(8, dtype=complex)
    vec[system.index_of((1, 1, 1))] = 1 / np.sqrt(2)
    vec[system.index_of((0, 0, 0))] = -1 / np.sqrt(2)
    flipped = PureState(system, vec)
    report = ghz_parity(flipped)
    # now an eigenstate of xxx with eigenvalue -1: the +1 check misses by 2
    assert report.residuals["xxx"] == pytest.approx(2.0, abs=1e-12)
    sx = [pauli_ops(system, k)[0] for k in range(3)]
    op = sx[0] @ sx[1] @ sx[2]
    assert np.abs(op.matrix @ vec + vec).max() < 1e-12


def test_ghz_parity_wrong_dimension():
    with pytest.raises(ValueError, match="three-qubit"):
        ghz_parity(qubits(2).vacuum())


def test_spin_epr_singlet_boundary():
    part = Partition([("one", (0, 1)), ("two", (2, 3))])
    verdict = spin_epr(singlet_spin(), part)
    assert verdict.lhs == pytest.approx(0.0, abs=1e-12)
    assert verdict.rhs == pytest.approx(0.0, abs=1e-12)
    assert not verdict.violated


def test_spin_epr_product_spin_coherent():
    # product of spin-coherent states: the bound holds with slack
    system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
    part = Partition([("one", (0, 1)), ("two", (2, 3))])
    vec = np.zeros(system.dim, dtype=complex)
    for occ1, amp1 in (((0, 1), 1 / np.sqrt(2)), ((1, 0), 1 / np.sqrt(2))):
        for occ2, amp2 in (((0, 1), 1 / np.sqrt(2)), ((1, 0), 1 / np.sqrt(2))):
            vec[system.index_of(occ1 + occ2)] = amp1 * amp2
    verdict = spin_epr(PureState(system, vec), part)
    assert not verdict.violated
    assert verdict.lhs >= verdict.rhs - 1e-10


def test_spin_epr_separable_sweep():
    rng = np.random.default_rng(3)
    part = Partition([("one", (0, 1)), ("two", (2, 3))])
    for _ in range(100):
        mix = random_one_boson_pair_mixture(rng)
        verdict = spin_epr(mix.summed(), part)
        assert verdict.margin <= 1e-10


@pytest.mark.parametrize("n_states", [1, 5, 20])
def test_spin_epr_stack_resolves_the_spins_once_and_equals_each_state_alone(
        n_states, monkeypatch):
    rng = np.random.default_rng(n_states)
    part = Partition([("one", (0, 1)), ("two", (2, 3))])
    states = [singlet_spin()] + [random_one_boson_pair_mixture(rng).summed()
                                 for _ in range(n_states - 1)]
    alone = [repr(spin_epr(state, part)) for state in states]
    calls = []
    spectral = measurement.spectral
    monkeypatch.setattr(measurement, "spectral", lambda op: calls.append(op) or spectral(op))
    stacked = spin_epr(states, part)
    assert len(calls) == 4
    # repr shows every bit of each float, and the sign of a zero
    assert [repr(verdict) for verdict in stacked] == alone


def test_spin_epr_stack_needs_states_on_one_system():
    part = Partition([("one", (0, 1)), ("two", (2, 3))])
    with pytest.raises(ValueError, match="at least one state"):
        spin_epr([], part)
    other = bosons(4, 1, labels=["p", "q", "r", "s"]).vacuum()
    with pytest.raises(ValueError, match="different systems"):
        spin_epr([singlet_spin(), other], part)


def test_particle_entanglement_separable_zero():
    rng = np.random.default_rng(4)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    for _ in range(50):
        mix = random_number_diagonal_mixture(system, part, rng)
        assert particle_entanglement(mix.summed(), part) <= 1e-10
    rho = mixed_N_boson([0.3, 0.3, 0.4])
    part2 = Partition([("A", (0,)), ("B", (1,))])
    assert particle_entanglement(rho, part2) <= 1e-10


def test_particle_entanglement_checks_each_sector_size_twice(monkeypatch):
    # once for the stack of sector blocks of one size, once for the stack of
    # their reduced states, whose checks also give the entropies
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    rho = random_number_diagonal_mixture(system, part, np.random.default_rng(0)).summed()
    # the sectors of keys 3 n_0 + n_1
    sizes = {len(s.indices) for s in sector_decompose(rho, number_op(system, [3, 1])).sectors}
    stacks = []
    check = fock._check_physical
    for module in (fock, witnesses):
        monkeypatch.setattr(module, "_check_physical",
                            lambda m: stacks.append(m.shape) or check(m))
    particle_entanglement(rho, part)
    assert sizes == {1}
    assert stacks == [(9, 1, 1), (9, 3, 3)]
    # the four-mode state has sectors of sizes 1, 2 and 4: at most two checks each
    sys4 = bosons(4, 1, labels=["a1", "a2", "b1", "b2"])
    part4 = Partition([("A", (0, 1)), ("B", (2, 3))])
    rho4 = random_density(sys4, np.random.default_rng(1))
    # the sectors of keys 3 (n_a1 + n_a2) + n_b1 + n_b2
    sectors4 = sector_decompose(rho4, number_op(sys4, [3, 3, 1, 1])).sectors
    sizes4 = {len(s.indices) for s in sectors4}
    stacks.clear()
    particle_entanglement(rho4, part4)
    assert sizes4 == {1, 2, 4}
    assert len(stacks) == 2 * len(sizes4)


def test_particle_entanglement_product_one_one():
    system = bosons(2, 1)
    part = Partition([("A", (0,)), ("B", (1,))])
    assert particle_entanglement(system.basis_state((1, 1)), part) <= 1e-12


def test_particle_entanglement_four_mode_ln2():
    system = bosons(4, 1, labels=["a1", "a2", "b1", "b2"])
    part = Partition([("A", (0, 1)), ("B", (2, 3))])
    vec = np.zeros(system.dim, dtype=complex)
    vec[system.index_of((1, 0, 0, 1))] = 1 / np.sqrt(2)
    vec[system.index_of((0, 1, 1, 0))] = 1 / np.sqrt(2)
    ep = particle_entanglement(PureState(system, vec), part)
    assert ep == pytest.approx(np.log(2.0), abs=1e-10)


def test_particle_entanglement_invariant_under_sector_projection():
    # projecting onto joint-number sectors first changes nothing
    rng = np.random.default_rng(5)
    from focklab.sampling import random_density
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    occ = system.occupancies
    for _ in range(10):
        rho = random_density(system, rng)
        keys = occ[:, 0] * 10 + occ[:, 1]
        projected = np.where(keys[:, None] == keys[None, :], rho.matrix, 0.0)
        from focklab import DensityOperator
        rho_proj = DensityOperator(system, projected)
        assert abs(particle_entanglement(rho, part)
                   - particle_entanglement(rho_proj, part)) < 1e-12


def test_chsh_setting_validation():
    with pytest.raises(ValueError, match="unit"):
        CHSHSetting(a1=(1.0, 1.0, 0.0), a2=(1, 0, 0), b1=(1, 0, 0), b2=(0, 1, 0))


def test_chsh_setting_rejects_nan():
    with pytest.raises(ValueError, match="unit"):
        CHSHSetting(a1=(np.nan, 0, 0), a2=(1, 0, 0), b1=(1, 0, 0), b2=(0, 1, 0))


def test_an_entanglement_stack_with_one_bad_state_fails_naming_its_index():
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    states = [system.vacuum(), system.basis_state((1, 1)), bosons(2, 2, labels=["x", "y"]).vacuum()]
    for call in (particle_entanglement, spin_epr):
        with pytest.raises(ValueError, match="^state 2: .*different systems"):
            call(states, part)
    with pytest.raises(ValueError, match="at least one state"):
        particle_entanglement([], part)
