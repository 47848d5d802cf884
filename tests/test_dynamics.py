import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from focklab import (
    BeamSplitterSpec,
    DensityOperator,
    ModeSystem,
    Operator,
    Partition,
    annihilation,
    atom_molecule_process,
    beam_splitter,
    bosons,
    extraction_experiment,
    fermions,
    number_op,
    ramsey_vacuum_superposition,
    ssr_propagation_check,
)
from focklab import dynamics
from focklab.dynamics import (
    MINUS_I,
    REAL_ROTATION,
    _bisect,
)
from focklab.measurement import ZeroProbabilityError
from focklab.states import SeparableMixture, coherent, poisson_pmf
from focklab.sampling import random_number_diagonal_mixture


def test_minus_i_convention_half_splitter():
    system = bosons(2, 1)
    s = 1 / np.sqrt(2)
    u = beam_splitter(system, BeamSplitterSpec(((0, 1),), r=s, t=s, convention=MINUS_I))
    out = u.matrix @ system.basis_state((1, 0)).amplitudes
    assert out[system.index_of((1, 0))] == pytest.approx(s, abs=1e-12)
    assert out[system.index_of((0, 1))] == pytest.approx(-1j * s, abs=1e-12)
    vac = u.matrix @ system.vacuum().amplitudes
    assert vac[system.index_of((0, 0))] == pytest.approx(1.0, abs=1e-12)


def test_zero_reflectivity_is_identity():
    system = bosons(2, 2)
    u = beam_splitter(system, BeamSplitterSpec(((0, 1),), r=0.0, t=1.0))
    assert np.abs(u.matrix - np.eye(system.dim)).max() < 1e-12


def test_beam_splitter_unitary():
    system = bosons(2, 3)
    for conv in (REAL_ROTATION, MINUS_I):
        u = beam_splitter(system, BeamSplitterSpec(((0, 1),), r=0.6, t=0.8,
                                                   convention=conv))
        assert np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(system.dim)) < 1e-10


@pytest.mark.parametrize("system,pairs", [
    (bosons(2, 3), ((0, 1),)),
    (bosons(4, 2), ((0, 2), (1, 3))),
    (fermions(4), ((0, 2), (1, 3))),
], ids=["bose-1pair", "bose-2pairs", "fermi-2pairs"])
@pytest.mark.parametrize("conv", [REAL_ROTATION, MINUS_I])
def test_beam_splitter_matches_matrix_exponential(system, pairs, conv):
    r, t = 0.6, 0.8
    gen = np.zeros((system.dim, system.dim), dtype=complex)
    for ma, mb in pairs:
        a = annihilation(system, ma).matrix
        b = annihilation(system, mb).matrix
        if conv == REAL_ROTATION:
            gen += b.conj().T @ a - a.conj().T @ b
        else:
            gen += -1j * (a.conj().T @ b + b.conj().T @ a)
    reference = expm(np.arctan2(r, t) * gen)
    u = beam_splitter(system, BeamSplitterSpec(pairs, r=r, t=t, convention=conv)).matrix
    assert np.abs(u - reference).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(system.dim)).max() < 1e-12
    assert np.abs(dynamics.expm(np.arctan2(r, t) * gen) - reference).max() < 1e-12


def test_beam_splitter_solves_number_blocks_not_the_whole_space(monkeypatch):
    # the pairs conserve n_a0 + n_b0 and n_a1 + n_b1: 49 blocks of at most 4 x 4
    shapes = []
    eigh = np.linalg.eigh

    def recording(matrix):
        shapes.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    beam_splitter(bosons(4, 3), BeamSplitterSpec(((0, 2), (1, 3)), r=0.6, t=0.8))
    assert shapes and max(shape[-1] for shape in shapes) <= 16


def test_bisect_needs_a_sign_change():
    assert _bisect(lambda x: x - 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-14)
    with pytest.raises(ValueError, match="signs"):
        _bisect(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e12, 1e300])
def test_bisect_halves_to_adjacent_floats_at_any_scale(scale):
    root = 0.3 * scale
    assert abs(_bisect(lambda t: t - root, 0.0, scale) - root) <= np.spacing(root)
    assert _bisect(lambda t: root - t, 0.0, scale) == pytest.approx(root, rel=1e-15)
    # an exact zero at an endpoint or a midpoint is returned as it is met
    assert _bisect(lambda t: t, 0.0, scale) == 0.0
    assert _bisect(lambda t: t - 0.5 * scale, 0.0, scale) == 0.5 * scale


def test_bisect_near_the_largest_float_meets_no_infinite_midpoint():
    # the two ends of the upper brackets sum past the largest float
    top = 1.7e308
    root = 0.95 * top
    points = []
    found = _bisect(lambda t: points.append(t) or t - root, 0.0, top)
    assert abs(found - root) <= np.spacing(root)
    assert np.isfinite(np.concatenate(points)).all()


def test_creation_operator_conjugation():
    # U adag U^-1 = r bdag + t adag on columns that cannot see the cutoff
    system = bosons(2, 3)
    r, t = 0.6, 0.8
    u = beam_splitter(system, BeamSplitterSpec(((0, 1),), r=r, t=t))
    a_dag = annihilation(system, 0).dag().matrix
    b_dag = annihilation(system, 1).dag().matrix
    conjugated = u.matrix @ a_dag @ u.matrix.conj().T
    expected = r * b_dag + t * a_dag
    totals = system.occupancies.sum(axis=1)
    safe = np.nonzero(totals <= 2)[0]
    assert np.abs((conjugated - expected)[:, safe]).max() < 1e-10


def test_beam_splitter_rejects_mismatched_pairs():
    system = ModeSystem([("a", 2), ("b", 3)])
    with pytest.raises(ValueError, match="cutoff"):
        beam_splitter(system, BeamSplitterSpec(((0, 1),), r=0.6, t=0.8))
    with pytest.raises(ValueError):
        BeamSplitterSpec(((0, 1),), r=0.9, t=0.9)
    # a pair is two distinct integer mode indices, within the system
    for pair in ((0, 0), (0, 1.0), (True, 1), (0, -1), (0, 1, 2), 1):
        with pytest.raises(ValueError, match="a mode pair is two distinct mode indices"):
            BeamSplitterSpec((pair,), r=0.6, t=0.8)
    with pytest.raises(ValueError, match="outside a system of 2 modes"):
        beam_splitter(system, BeamSplitterSpec(((0, 2),), r=0.6, t=0.8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r,t", [(1.5, np.nan), (np.nan, 0.0), (np.nan, np.nan),
                                 (1e200, 0.0)])
def test_beam_splitter_spec_rejects_nan(r, t):
    with pytest.raises(ValueError, match="r\\^2"):
        BeamSplitterSpec(((0, 1),), r=r, t=t)


@pytest.mark.parametrize("r", [0.3, 0.6, 0.8])
def test_extraction_three_boson(r):
    t = np.sqrt(1 - r * r)
    result = extraction_experiment("three_boson", r=r, t=t)
    state = result.final_state
    assert state.amplitude((2, 0, 0, 1)) == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert state.amplitude((1, 1, 1, 0)) == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
    # sector probability for the (2,1) split is 3 r^2 t^4
    assert result.quantities["sector_probability"] == pytest.approx(
        3 * r ** 2 * t ** 4, abs=1e-10)


@pytest.mark.parametrize("r", [0.3, 0.6, 0.8])
def test_extraction_two_boson(r):
    t = np.sqrt(1 - r * r)
    state = extraction_experiment("two_boson", r=r, t=t).final_state
    assert state.amplitude((1, 0, 0, 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert state.amplitude((0, 1, 1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("r", [0.3, 0.6, 0.8])
def test_extraction_two_fermion_minus_sign(r):
    t = np.sqrt(1 - r * r)
    state = extraction_experiment("two_fermion", r=r, t=t).final_state
    assert state.amplitude((1, 0, 0, 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert state.amplitude((0, 1, 1, 0)) == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


def test_extraction_output_normalised():
    out = extraction_experiment("three_boson", r=0.5, t=np.sqrt(0.75)).stage(
        "after_splitter")
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_extraction_empty_sector_rejected():
    with pytest.raises(ZeroProbabilityError):
        extraction_experiment("two_boson", r=0.0, t=1.0)


def test_atom_molecule_phase_pi_gives_atom():
    res = atom_molecule_process(3, 1.0, np.pi)
    assert res.quantities["p_atom"] == pytest.approx(1.0, abs=1e-10)
    assert res.quantities["p_molecule"] == pytest.approx(0.0, abs=1e-10)


def test_atom_molecule_phase_zero_gives_molecule():
    res = atom_molecule_process(3, 1.0, 0.0)
    assert res.quantities["p_molecule"] == pytest.approx(1.0, abs=1e-10)


def test_atom_molecule_ramsey_fringes():
    for n in (1, 5, 20):
        for phi in (0.0, np.pi / 3, np.pi / 2, np.pi):
            res = atom_molecule_process(n, 1.0, phi)
            assert res.quantities["p_atom"] == pytest.approx(
                np.sin(phi / 2) ** 2, abs=1e-10)
            assert res.quantities["p_molecule"] == pytest.approx(
                np.cos(phi / 2) ** 2, abs=1e-10)
            assert abs(res.quantities["coherence"]) < 1e-12


def test_the_atom_molecule_free_stage_puts_its_phase_on_the_molecule():
    result = atom_molecule_process(3, 1.0, 0.9)
    before, after = result.stage("after_pulse1"), result.stage("after_free")
    for occ, phase in (((0, 1, 2), np.exp(-0.9j)), ((1, 0, 3), 1.0)):
        assert abs(after.amplitude(occ) / before.amplitude(occ) - phase) <= 1e-12


@pytest.mark.parametrize("n_bec", [1, 5, 50])
def test_atom_molecule_first_pulse_transfers_half(n_bec):
    state = atom_molecule_process(n_bec, 1.0, 0.3).stage("after_pulse1")
    p_mol = abs(state.amplitude((0, 1, n_bec - 1))) ** 2
    assert p_mol == pytest.approx(0.5, abs=1e-12)


def test_atom_molecule_independent_of_kappa():
    a = atom_molecule_process(4, 1.0, 1.1).quantities["p_atom"]
    b = atom_molecule_process(4, 2.5, 1.1).quantities["p_atom"]
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("kappa", [1e-300, 1e-8, 1e8, 1e10, 1e12, -1e12, 1e14, 1e300])
def test_atom_molecule_calibrates_its_pulse_at_any_coupling_scale(kappa):
    for phi in (0.0, np.pi / 2, 2.0):
        q = atom_molecule_process(5, kappa, phi).quantities
        assert q["p_atom"] == pytest.approx(np.sin(phi / 2) ** 2, abs=1e-10)
        assert q["p_molecule"] == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-10)
        assert abs(q["coherence"]) <= 1e-10


def _atomic_component(kept):
    """A stand-in for one Fock component's run that records its BEC number and
    leaves the atom atomic."""
    def run(n, kappa, phi):
        kept.append(n)
        return SimpleNamespace(quantities={"atom_molecule_rdo": DensityOperator(
            bosons(2, 1), np.diag([0.0, 0.0, 1.0, 0.0]))})
    return run


@pytest.mark.parametrize("nbar", [900.0, 1023, 1e12, 1e300])
def test_a_poisson_mean_past_the_largest_system_is_refused_before_any_component(
        nbar, monkeypatch):
    kept = []
    monkeypatch.setattr(dynamics, "_run_atom_molecule_fock", _atomic_component(kept))
    message = (f"a Poisson mean of {float(nbar)!r} keeps BEC numbers above 1023, the "
               "largest of a system within MAX_DIM = 4096")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        atom_molecule_process(nbar, 1.0, 0.3, initial="poisson")
    assert kept == []


@pytest.mark.parametrize("nbar", [0.5, 30.0, 700.0, 780.0])
def test_a_poisson_mean_below_the_limit_keeps_its_components(nbar, monkeypatch):
    # the grid of counts the mixture was built from before it stopped at 1024
    n_max = int(nbar + 20.0 * np.sqrt(max(nbar, 1.0)) + 20)
    weights = poisson_pmf(np.arange(n_max + 1), nbar)
    expected = [n for n in np.nonzero(weights > 1e-15)[0] if n > 0]
    kept = []
    monkeypatch.setattr(dynamics, "_run_atom_molecule_fock", _atomic_component(kept))
    res = atom_molecule_process(nbar, 1.0, 0.3, initial="poisson")
    assert kept == expected
    assert res.quantities["p_atom"] == pytest.approx(1.0, abs=1e-12)


def test_atom_molecule_poisson_matches_fock():
    phi = np.pi / 3
    res = atom_molecule_process(30.0, 1.0, phi, initial="poisson")
    assert res.quantities["p_atom"] == pytest.approx(np.sin(phi / 2) ** 2, abs=1e-10)
    assert res.quantities["p_molecule"] == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-10)
    assert abs(res.quantities["coherence"]) < 1e-12


def _process_bits(result):
    """Every bit of an atom-molecule result: its stages' amplitudes, its final
    state and reduced operator, and its quantities."""
    final, q = result.final_state, result.quantities     # a PureState, or a Poisson mixture
    return ([(name, state.amplitudes.tobytes()) for name, state in result.stages],
            (final.matrix if isinstance(final, DensityOperator) else final.amplitudes).tobytes(),
            q["atom_molecule_rdo"].matrix.tobytes(),
            repr((q["p_atom"], q["p_molecule"], q["coherence"])))


@pytest.mark.parametrize("n_bec, initial", [(1, "fock"), (5, "fock"), (20, "fock"),
                                            (3.0, "poisson")])
def test_a_sequence_of_phases_equals_the_per_phase_calls_bit_for_bit(n_bec, initial):
    # N = 20 has dim 84, where H is solved per block
    phis = [0.0, np.pi / 2, 2.0, -1.3]
    for given in (phis, np.array(phis), tuple(phis[:1])):
        results = atom_molecule_process(n_bec, 1.0, given, initial=initial)
        assert isinstance(results, list) and len(results) == len(given)
        for result, phi in zip(results, given):
            assert _process_bits(result) == \
                _process_bits(atom_molecule_process(n_bec, 1.0, phi, initial=initial))


def test_a_phase_past_int64_is_taken_as_its_float():
    # the CLI takes any integer phase up to the float range
    assert _process_bits(atom_molecule_process(2, 1.0, 10 ** 20)) == \
        _process_bits(atom_molecule_process(2, 1.0, 1e20))
    assert [_process_bits(r) for r in atom_molecule_process(2, 1.0, [10 ** 20, 1])] == \
        [_process_bits(r) for r in atom_molecule_process(2, 1.0, [1e20, 1.0])]


_PHASE_COUNT = "^atom_molecule_process takes one phase or a non-empty sequence of phases$"
_NOT_FINITE = "^phases .* are not all finite$"
_NOT_REAL = ("^atom_molecule_process takes one phase or a non-empty sequence of phases, "
             "each a real number: got ")


@pytest.mark.parametrize("phi, message", [([], _PHASE_COUNT), ((), _PHASE_COUNT),
                                          (np.array([]), _PHASE_COUNT),
                                          ([[0.1, 0.2]], _PHASE_COUNT), (np.nan, _NOT_FINITE),
                                          ([0.1, np.inf], _NOT_FINITE),
                                          ([-np.inf], _NOT_FINITE), (1j, _NOT_REAL),
                                          (True, _NOT_REAL), ([0.1, "1"], _NOT_REAL)])
def test_atom_molecule_rejects_an_empty_nested_or_non_finite_phase(phi, message):
    for initial in ("fock", "poisson"):
        with pytest.raises(ValueError, match=message):
            atom_molecule_process(3, 1.0, phi, initial=initial)


def test_atom_molecule_requires_boson():
    for n_bec in (0, 2.5, True, 1.0):
        with pytest.raises(ValueError, match="n_bec of a Fock initial state"):
            atom_molecule_process(n_bec, 1.0, 0.5)


def test_ramsey_vacuum_in_vacuum_out():
    p10, p01 = ramsey_vacuum_superposition(1.0, 0.0, 1.0, 1.0)
    assert p10 == pytest.approx(0.0, abs=1e-14)
    assert p01 == pytest.approx(0.0, abs=1e-14)


def test_ramsey_full_boson_pi_phase():
    p10, p01 = ramsey_vacuum_superposition(0.0, 1.0, 1.0, np.pi)
    assert p10 == pytest.approx(1.0, abs=1e-12)
    assert p01 == pytest.approx(0.0, abs=1e-12)


def test_ramsey_formula_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.random()
        alpha = np.sqrt(1 - w) * np.exp(2j * np.pi * rng.random())
        beta = np.sqrt(w) * np.exp(2j * np.pi * rng.random())
        delta = rng.uniform(0.1, 3.0)
        tau = rng.uniform(0.1, 3.0)
        p10, p01 = ramsey_vacuum_superposition(alpha, beta, delta, tau)
        assert p10 == pytest.approx(w * np.sin(delta * tau / 2) ** 2, abs=1e-12)
        assert p01 == pytest.approx(w * np.cos(delta * tau / 2) ** 2, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_ramsey_normalisation_enforced():
    with pytest.raises(ValueError, match="equal 1"):
        ramsey_vacuum_superposition(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="equal 1"):
        ramsey_vacuum_superposition(1e200, 0.0, 1.0, 1.0)


def _hopping_hamiltonian(system, strength=0.7):
    a = annihilation(system, 0)
    b = annihilation(system, 1)
    return strength * (a.dag() @ b + b.dag() @ a)


def test_propagation_fock_diagonal_stays_compliant():
    rng = np.random.default_rng(1)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    mix = random_number_diagonal_mixture(system, part, rng)
    report = ssr_propagation_check(mix, _hopping_hamiltonian(system))
    assert report.all_local_compliant
    assert report.compliant_at_all_times
    assert report.conserving_residual < 1e-12


def test_propagation_ndpa_weighted_number():
    system = ModeSystem([("a", 2), ("b", 2), ("c", 2)])
    a = annihilation(system, 0)
    b = annihilation(system, 1)
    c = annihilation(system, 2)
    h = 0.4 * (c @ a.dag() @ b.dag()) + 0.4 * (c.dag() @ a @ b)
    n_w = number_op(system, [1, 1, 2])
    comm = n_w.matrix @ h.matrix - h.matrix @ n_w.matrix
    assert np.linalg.norm(comm) < 1e-12
    part = Partition([("A", (0,)), ("B", (1,)), ("C", (2,))])
    rng = np.random.default_rng(2)
    mix = random_number_diagonal_mixture(system, part, rng)
    report = ssr_propagation_check(mix, h, weights=[1, 1, 2])
    assert report.all_local_compliant
    assert report.compliant_at_all_times


def test_propagation_coherent_component_breaks_compliance():
    cutoff = 10
    system = bosons(2, cutoff)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    coh = coherent(0.7, cutoff)
    from focklab.fock import PureState
    factor_a = PureState(sub_a, coh.amplitudes).density()
    vac_a, vac_b = sub_a.vacuum().density().matrix, sub_b.vacuum().density().matrix
    mix = SeparableMixture(system, part, [1.0], {"A": factor_a.matrix[None], "B": vac_b[None]})
    report = ssr_propagation_check(mix, _hopping_hamiltonian(system))
    assert not report.all_local_compliant
    assert not report.compliant_at_all_times
    assert min(report.global_residuals) > 0.1
    # a coherent factor in a later component is found too
    mix = SeparableMixture(system, part, [0.5, 0.5], {"A": np.array([vac_a, factor_a.matrix]),
                                                      "B": np.array([vac_b, vac_b])})
    assert not ssr_propagation_check(mix, _hopping_hamiltonian(system)).all_local_compliant


def test_propagation_judges_each_factor_by_the_weighted_number():
    # (|1,0> + |0,1>)/sqrt 2 on modes (a, b) keeps n_a + n_b but not n_a + 2 n_b
    system = bosons(3, 1, labels=["a", "b", "c"])
    part = Partition([("AB", (0, 1)), ("C", (2,))])
    sub_ab = ModeSystem(system.modes[:2])
    vec = np.zeros(sub_ab.dim, dtype=complex)
    vec[sub_ab.indices_of([(1, 0), (0, 1)])] = 1 / np.sqrt(2)
    vac_c = ModeSystem(system.modes[2:]).vacuum().density().matrix
    mix = SeparableMixture(system, part, [1.0],
                           {"AB": np.outer(vec, vec.conj())[None], "C": vac_c[None]})
    h = number_op(system)     # diagonal, so it conserves every weighted number
    assert ssr_propagation_check(mix, h).all_local_compliant
    assert not ssr_propagation_check(mix, h, weights=[1, 2, 1]).all_local_compliant


def test_propagation_solves_the_hamiltonian_once(monkeypatch):
    from focklab import fock
    calls = []
    solve = fock._hermitian_blocks
    monkeypatch.setattr(fock, "_hermitian_blocks", lambda h: calls.append(h) or solve(h))
    system = bosons(2, 2)
    mix = random_number_diagonal_mixture(
        system, Partition([("A", (0,)), ("B", (1,))]), np.random.default_rng(1))
    report = ssr_propagation_check(mix, _hopping_hamiltonian(system))
    assert len(calls) == 1
    assert len(report.global_residuals) == len(report.times) == 3


def test_propagation_rejects_nonconserving_hamiltonian():
    system = bosons(2, 2)
    a = annihilation(system, 0)
    h = a + a.dag()   # pumps bosons in and out
    part = Partition([("A", (0,)), ("B", (1,))])
    rng = np.random.default_rng(3)
    mix = random_number_diagonal_mixture(system, part, rng)
    with pytest.raises(ValueError, match="conserve"):
        ssr_propagation_check(mix, h)


def test_propagation_refuses_a_nan_weight_or_hamiltonian_entry():
    system = bosons(2, 2)
    a = annihilation(system, 0)
    mix = random_number_diagonal_mixture(system, Partition([("A", (0,)), ("B", (1,))]),
                                         np.random.default_rng(3))
    with pytest.raises(ValueError, match="weights must be finite"):
        ssr_propagation_check(mix, a + a.dag(), weights=[np.nan, 1])
    h = _hopping_hamiltonian(system).matrix.copy()
    h[0, 1] = np.nan
    with pytest.raises(ValueError, match="conserve"):
        ssr_propagation_check(mix, Operator(system, h))


def test_a_sweep_with_one_bad_draw_fails_naming_its_index():
    s = 1 / np.sqrt(2)
    with pytest.raises(ValueError, match=r"^draw 1: \|alpha\|\^2 \+ \|beta\|\^2 must equal 1"):
        ramsey_vacuum_superposition([1.0, 1.0, s], [0.0, 1.0, s], [1.0] * 3, [1.0] * 3)
    with pytest.raises(ValueError, match=r"^pair 1: r\^2 \+ t\^2 must equal 1"):
        extraction_experiment("two_boson", [0.6, 0.6], [0.8, 0.6])
    with pytest.raises(ZeroProbabilityError, match="^pair 2: sector probability .* at r = 0.0"):
        extraction_experiment("two_fermion", [0.6, 0.8, 0.0], [0.8, 0.6, 1.0])
    with pytest.raises(ValueError, match="as many t values as r values"):
        extraction_experiment("two_boson", [0.6], [0.8, 0.6])


def test_the_interferometer_checks_its_mixed_states_as_two_stacks(monkeypatch):
    shapes = []
    check = dynamics._check_physical
    monkeypatch.setattr(dynamics, "_check_physical", lambda m: shapes.append(m.shape) or check(m))
    s = 1 / np.sqrt(2)
    ramsey_vacuum_superposition([1.0, s, 0.0], [0.0, s, 1.0], [0.3, 1.0, 2.0], [1.0] * 3)
    assert shapes == [(3, 4, 4), (3, 4, 4)]
