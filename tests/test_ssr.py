import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import poisson

from focklab import (
    ModeSystem,
    Operator,
    Partition,
    PureState,
    bosons,
    number_op,
    partial_trace,
    qcf,
    sector_decompose,
    separable_ssr_theorem_check,
    ssr_check,
    twirl,
)
from focklab.fock import number_diagonal
from focklab.ssr import (
    _diagonal_of,
    clock_prob,
    clock_prob_by_evolution,
    externalise,
    internalise,
    phase_state,
)
from focklab.states import (
    SeparableMixture,
    bell_one_boson,
    coherent,
    two_mode_N_boson,
    verstraete_state,
)
from focklab.sampling import (
    random_density,
    random_global_ssr_state,
    random_number_diagonal_mixture,
)


def test_fock_diagonal_mixture_compliant():
    system = bosons(2, 2)
    mat = np.diag(np.array([0.25, 0.25, 0.25, 0.0, 0.0, 0.25, 0, 0, 0], dtype=complex))
    from focklab import DensityOperator
    rho = DensityOperator(system, mat)
    rep = ssr_check(rho, number_op(system))
    assert rep.compliant and rep.residual == 0.0


def test_coherent_state_not_compliant():
    state = coherent(1.0, 20)
    rep = ssr_check(state, number_op(state.system))
    assert not rep.compliant
    # frozen from sum (n-m)^2 p_n p_m = 2 var(N) for a Poisson(1) projector
    assert rep.residual == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_bell_psi_state_compliant():
    psi = bell_one_boson("psi+")
    rep = ssr_check(psi, number_op(psi.system))
    assert rep.compliant and rep.residual == 0.0


def test_bell_phi_state_not_compliant():
    phi = bell_one_boson("phi+")
    rep = ssr_check(phi, number_op(phi.system))
    assert not rep.compliant


def test_twirl_coherent_gives_poisson():
    nbar = 2.0
    state = coherent(np.sqrt(nbar), 30)
    tw = twirl(state, number_op(state.system))
    target = poisson.pmf(np.arange(31), nbar)
    assert np.abs(tw.diagonal() - target).max() < 1e-10
    off = tw.matrix - np.diag(np.diag(tw.matrix))
    assert np.abs(off).max() < 1e-14


def test_twirl_fixes_fock_states():
    system = bosons(2, 2)
    rho = system.basis_state((2, 1)).density()
    tw = twirl(rho, number_op(system))
    assert np.abs(tw.matrix - rho.matrix).max() == 0.0


def test_twirl_fixes_one_boson_bell_state():
    psi = bell_one_boson("psi+").density()
    tw = twirl(psi, number_op(psi.system))
    assert np.abs(tw.matrix - psi.matrix).max() == 0.0


def test_twirl_idempotent_and_compliant():
    rng = np.random.default_rng(0)
    system = bosons(2, 2)
    n = number_op(system)
    for _ in range(20):
        rho = random_density(system, rng)
        tw = twirl(rho, n)
        again = twirl(tw, n)
        assert np.abs(again.matrix - tw.matrix).max() < 1e-12
        assert ssr_check(tw, n, tol=1e-12).compliant


def test_qcf_single_ladder_on_compliant_state():
    rng = np.random.default_rng(1)
    system = bosons(2, 3)
    rho = random_global_ssr_state(system, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert abs(qcf(rho, [(1, 0, 0, 0)])[0]) < 1e-12


def test_qcf_bell_state_hopping():
    psi = bell_one_boson("psi+")
    with warnings.catch_warnings():
        # the saturation warning is conservative; <adag b> is exact here
        warnings.simplefilter("ignore", RuntimeWarning)
        assert qcf(psi, [(1, 0, 0, 1)])[0] == pytest.approx(0.5, abs=1e-12)


def test_qcf_vacuum_lowering_zero():
    system = bosons(2, 2)
    vac = system.vacuum()
    assert abs(qcf(vac, [(0, 2, 0, 0)])[0]) == 0.0
    assert abs(qcf(vac, [(0, 1, 0, 1)])[0]) == 0.0


def test_qcf_theorem_sweep():
    # every index combination with n + l != m + k vanishes on compliant states
    rng = np.random.default_rng(2)
    system = bosons(2, 3)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(25):
            rho = random_global_ssr_state(system, rng)
            for n in range(3):
                for m in range(3):
                    for l in range(3):
                        for k in range(3):
                            if n + l != m + k:
                                worst = max(worst, abs(qcf(rho, [(n, m, l, k)])[0]))
    assert worst < 1e-10


def test_qcf_twirl_invariance_general_states():
    # balanced index combinations see only the sector-diagonal part
    rng = np.random.default_rng(3)
    system = bosons(2, 3)
    n_op = number_op(system)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(25):
            rho = random_density(system, rng)       # generally non-compliant
            tw = twirl(rho, n_op)
            for n in range(3):
                for m in range(3):
                    for l in range(3):
                        for k in range(3):
                            if n + l == m + k:
                                diff = qcf(rho, [(n, m, l, k)]) - qcf(tw, [(n, m, l, k)])
                                worst = max(worst, abs(diff[0]))
    assert worst < 1e-10


def test_qcf_truncation_warning():
    system = bosons(2, 2)
    rho = system.basis_state((2, 0)).density()
    with pytest.warns(RuntimeWarning, match="cutoff"):
        qcf(rho, [(1, 0, 0, 0)])


def test_qcf_warns_only_for_a_net_raise_at_the_cutoff():
    # all weight at the cutoff of both modes: net-zero and net-lowering powers
    # never leave the truncated space, a net raise of either mode does
    rho = bosons(2, 2).basis_state((2, 2)).density()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for powers in [(2, 2, 1, 1), (1, 1, 2, 2), (1, 2, 0, 1), (0, 0, 0, 0)]:
            qcf(rho, [powers])
    for powers, mode in [((2, 1, 1, 1), 0), ((1, 1, 1, 0), 1), ((3, 0, 0, 2), 0)]:
        with pytest.warns(RuntimeWarning, match=f"cutoff of mode {mode}"):
            qcf(rho, [powers])


def test_qcf_rejects_negative_powers_and_a_single_mode():
    with pytest.raises(ValueError, match=">= 0"):
        qcf(bosons(2, 2).vacuum(), [(0, 0, -1, 0)])
    for power in (1.5, 1.0, np.float64(2.0), True, None):
        with pytest.raises(ValueError, match="integers >= 0"):
            qcf(bosons(2, 2).vacuum(), [(power, 0, 0, 0)])
    with pytest.raises(ValueError, match="modes 0 and 1"):
        qcf(bosons(1, 2).vacuum(), [(1, 1, 0, 0)])


def test_qcf_table_checks_every_power_before_reading_a_state():
    vac = bosons(2, 2).vacuum()
    # the bad power comes last and the state is no state: the power is reported
    with pytest.raises(ValueError, match="integers >= 0"):
        qcf(["not a state"], [(1, 0, 0, 0), (0, 1.5, 0, 0)])
    for powers in ([(1, 0, 0)], [1, 1, 1, 1]):     # a flat list holds no power tuple
        with pytest.raises(ValueError, match="four integers"):
            qcf([vac], powers)
    with pytest.raises(ValueError, match="^qcf needs at least one power tuple$"):
        qcf([vac], [])
    with pytest.raises(ValueError, match="^a stack needs at least one state$"):
        qcf([], [(1, 0, 0, 0)])
    # the stack check names the state that fails it
    with pytest.raises(ValueError, match="^state 1: .*different systems"):
        qcf([vac, bosons(2, 3).vacuum()], [(1, 0, 0, 0)])
    with pytest.raises(TypeError, match="^state 1: expected PureState"):
        qcf([vac, "not a state"], [(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="modes 0 and 1"):
        qcf([bosons(1, 2).vacuum()], [(1, 1, 0, 0)])


def _near_cutoff(weight):
    # weight on |2, 0> of bosons(2, 2), at the cutoff of mode 0; the rest on the vacuum
    system = bosons(2, 2)
    diag = np.zeros(system.dim)
    diag[system.index_of((2, 0))] = weight
    diag[system.index_of((0, 0))] = 1.0 - weight
    from focklab import DensityOperator
    return DensityOperator(system, np.diag(diag))


def test_qcf_table_warns_once_per_call_at_the_per_state_threshold():
    raises = [(1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # 1.2e-12 at the cutoff over both states, but no more than 1e-12 in either
        qcf([_near_cutoff(0.6e-12), _near_cutoff(0.6e-12), _near_cutoff(1e-12)],
                  raises)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        qcf([_near_cutoff(0.0), _near_cutoff(2e-12), _near_cutoff(0.5)], raises)
    assert [str(w.message) for w in caught] == [
        "state has weight near the cutoff of mode 0; raising operators are truncated there"]
    full = bosons(2, 2).basis_state((2, 2)).density()
    with pytest.warns(RuntimeWarning, match="cutoff of mode 0 and mode 1") as caught:
        qcf([full], [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert len(caught) == 1


def test_twirl_stack_zeroes_each_cross_sector_entry_and_checks_once(monkeypatch):
    from focklab import fock
    system = bosons(2, 3)
    n_op = number_op(system)
    states = random_density(system, np.random.default_rng(4), 5)
    totals = system.occupancies.sum(axis=1)
    shapes = []
    check = fock._check_physical
    monkeypatch.setattr(fock, "_check_physical", lambda m: shapes.append(m.shape) or check(m))
    twirled = twirl(states, n_op)
    assert shapes == [(5, system.dim, system.dim)]
    for tw, rho in zip(twirled, states):
        assert tw.matrix.tobytes() == (rho.matrix * (totals[:, None] == totals)).tobytes()
        assert tw.matrix.tobytes() == twirl(rho, n_op).matrix.tobytes()
        assert not tw.matrix.flags.writeable
    with pytest.raises(ValueError, match="at least one state"):
        twirl([], n_op)
    with pytest.raises(ValueError, match="different systems"):
        twirl([states[0], bosons(2, 2).vacuum()], n_op)


def test_qcf_builds_no_dense_operator():
    # dim 1024: one d x d complex matrix is 16 MB
    system = bosons(2, 31)
    vec = np.zeros(system.dim, dtype=complex)
    vec[system.indices_of([(2, 3), (3, 2)])] = np.sqrt(0.5)
    rho = PureState(system, vec).density()
    tracemalloc.start()
    try:
        value = qcf(rho, [(2, 1, 1, 2)])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # <3,2| adag^2 a bdag b^2 |2,3> = sqrt(2 * 6) * sqrt(6 * 2) = 12, times rho = 1/2
    assert value == pytest.approx(6.0, abs=1e-12)
    assert peak < 4_000_000


def _ssr_check_peak(cutoff):
    system = bosons(2, cutoff)
    rho = system.basis_state((1, 2)).density()
    n_op = number_op(system)
    tracemalloc.start()
    try:
        report = ssr_check(rho, n_op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.compliant
    return peak


def test_ssr_check_memory_does_not_grow_with_the_dimension():
    # dims 1024 and 2025: a d x d complex temporary would be 16 and 65 MB
    assert abs(_ssr_check_peak(31) - _ssr_check_peak(44)) < 1_000_000


@pytest.mark.parametrize("chunk", [1, 7, 16, 100, 1 << 18])
def test_commutator_residuals_in_row_blocks_are_the_whole_matrix_norms(chunk, monkeypatch):
    from focklab import fock, ssr
    system = bosons(2, 3)
    rng = np.random.default_rng(chunk)
    shape = (3, system.dim, system.dim)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    n_diag = number_diagonal(system, [1.0, 2.5])
    whole = [np.linalg.norm((n_diag[:, None] - n_diag) * x) for x in stack]
    monkeypatch.setattr(fock, "PAIR_CHUNK", chunk)
    assert np.abs(ssr._commutator_residuals(n_diag, stack) - whole).max() <= 1e-12
    assert abs(ssr._commutator_residuals(n_diag, stack[1]) - whole[1]) <= 1e-12


@pytest.mark.parametrize("system", [bosons(1, 0), bosons(1, 1), bosons(2, 2)])
def test_the_off_diagonal_scan_reads_every_off_diagonal_entry_and_no_diagonal_one(system):
    n_op = number_op(system)
    assert _diagonal_of(n_op).tobytes() == number_diagonal(system).tobytes()
    for i, j in np.ndindex(n_op.matrix.shape):
        mat = n_op.matrix.copy()
        mat[i, j] += 5.0 if i == j else 2e-12
        if i == j:
            assert _diagonal_of(Operator(system, mat))[i] == n_op.matrix[i, i].real + 5.0
        else:
            with pytest.raises(ValueError, match="not diagonal"):
                _diagonal_of(Operator(system, mat))


def test_sector_decompose_verstraete():
    rho = verstraete_state("sectorized")
    decomp = sector_decompose(rho, number_op(rho.system))
    assert decomp.weight_of(0) == pytest.approx(0.25, abs=1e-12)
    assert decomp.weight_of(1) == pytest.approx(0.50, abs=1e-12)
    assert decomp.weight_of(2) == pytest.approx(0.25, abs=1e-12)


def test_sector_decompose_pure_fixed_number():
    psi = two_mode_N_boson(np.ones(4) / 2.0)
    decomp = sector_decompose(psi, number_op(psi.system))
    assert len(decomp.sectors) == 1
    assert decomp.sectors[0].total == 3
    assert decomp.sectors[0].weight == pytest.approx(1.0, abs=1e-12)


def test_sector_weights_twirled_coherent_poisson():
    nbar = 2.0
    state = coherent(np.sqrt(nbar), 30)
    n_op = number_op(state.system)
    decomp = sector_decompose(twirl(state, n_op), n_op)
    assert decomp.weight_of(2) == pytest.approx(np.exp(-2.0) * 2.0, rel=1e-10)
    for sector in decomp.sectors:
        target = poisson.pmf(sector.total, nbar)
        if target > 1e-12:
            assert sector.weight == pytest.approx(target, rel=1e-10)


def test_sector_reassembly_equals_twirl():
    rng = np.random.default_rng(4)
    system = bosons(2, 2)
    n_op = number_op(system)
    rho = random_density(system, rng)
    decomp = sector_decompose(rho, n_op)
    rebuilt = np.zeros((system.dim, system.dim), dtype=complex)
    for s in decomp.sectors:
        assert not (s.indices.flags.writeable or s.block.flags.writeable)
        rebuilt[np.ix_(s.indices, s.indices)] += s.weight * s.block
    assert np.abs(rebuilt - twirl(rho, n_op).matrix).max() < 1e-12
    assert isinstance(hash(decomp), int)     # sectors compare by identity


def test_separable_theorem_fock_diagonal_components():
    rng = np.random.default_rng(5)
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    mix = random_number_diagonal_mixture(system, part, rng)
    rep = separable_ssr_theorem_check(mix)
    assert rep.all_local_compliant
    assert rep.global_report.compliant
    assert not rep.fixed_probability_caveat


def test_separable_theorem_verstraete_caveat():
    _, mix = verstraete_state("mixture")
    rep = separable_ssr_theorem_check(mix)
    assert not rep.all_local_compliant
    assert all(not r.compliant for _, _, r in rep.local_reports)
    # component by component, each subsystem in partition order; each factor
    # (|0> + w|1>)/sqrt(2) has ||[n, rho]||_F = sqrt(2 |rho_01|^2) = sqrt(1/2)
    assert [(r, name) for r, name, _ in rep.local_reports] == [
        (r, name) for r in range(4) for name in ("A", "B")]
    assert all(r.residual == pytest.approx(np.sqrt(0.5), abs=1e-15)
               for _, _, r in rep.local_reports)
    assert rep.global_report.compliant
    assert rep.fixed_probability_caveat


def test_separable_theorem_coherent_component_fails_globally():
    cutoff = 12
    system = bosons(2, cutoff)
    part = Partition([("A", (0,)), ("B", (1,))])
    sub_a = ModeSystem([system.modes[0]])
    sub_b = ModeSystem([system.modes[1]])
    coh = coherent(0.8, cutoff)
    coh_factor = type(coh)(sub_a, coh.amplitudes).density()
    vac_a = sub_a.basis_state((0,)).density()
    vac_b = sub_b.basis_state((0,)).density()
    mix = SeparableMixture(system, part, [0.5, 0.5], {
        "A": np.array([coh_factor.matrix, vac_a.matrix]),
        "B": np.array([vac_b.matrix, vac_b.matrix])})
    rep = separable_ssr_theorem_check(mix)
    assert not rep.all_local_compliant
    assert not rep.global_report.compliant
    assert rep.global_report.residual > 0.1


def test_phase_states_orthonormal():
    n_max = 7
    states = [phase_state(n_max, p) for p in range(n_max + 1)]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            target = 1.0 if i == j else 0.0
            assert abs(si.overlap(sj)) == pytest.approx(target, abs=1e-12)


def test_clock_steps_backwards():
    n_max = 8
    omega = 1.0
    dt = 2.0 * np.pi / (n_max + 1) / omega
    for p in range(1, n_max + 1):
        assert clock_prob(p, p - 1, omega, dt, n_max) == pytest.approx(1.0, abs=1e-12)
    # and the state really lands on the neighbouring phase state
    from focklab.fock import evolution_operator, ModeSystem
    sys1 = ModeSystem([("osc", n_max)])
    u = evolution_operator(omega * number_op(sys1), dt)
    evolved = u.matrix @ phase_state(n_max, 3).amplitudes
    overlap = np.vdot(phase_state(n_max, 2).amplitudes, evolved)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_clock_formula_matches_evolution():
    worst = 0.0
    for n_max in (4, 16):
        for p in range(n_max + 1):
            for q in range(n_max + 1):
                for w_dt in (0.0, 0.37, 2 * np.pi / (n_max + 1), 2.4):
                    direct = clock_prob_by_evolution(p, q, 1.0, w_dt, n_max)
                    closed = clock_prob(p, q, 1.0, w_dt, n_max)
                    worst = max(worst, abs(direct - closed))
    assert worst < 1e-12


def test_the_clock_oracle_builds_one_mode_system_per_call(monkeypatch):
    # its system comes from ``bosons``: the first call per n_max builds it, and
    # a repeated call builds none
    from focklab import fock
    built = []
    init = fock.ModeSystem.__init__
    monkeypatch.setattr(fock.ModeSystem, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(self, *args,
                                                                                 **kwargs))
    fock._MEMO.clear()
    for n_max in (4, 9):
        phases = range(0, n_max + 1, 2)
        first = True
        for p, q in ((phases, phases), (1, 3)):
            for dt in (0.3, [0.3, 1.1, 2.0]):
                built.clear()
                clock_prob_by_evolution(p, q, 1.0, dt, n_max)
                assert built == ([([("osc", n_max, "bose")], None)] if first else [])
                first = False


@pytest.mark.parametrize("omega_dt", [1e6, 1e10])
def test_the_clock_formula_holds_at_a_large_omega_dt(omega_dt):
    # the oracle's phases n omega dt are exact for an integral omega dt, so both
    # sides reduce the same angles
    for n_max in (4, 9):
        phases = range(n_max + 1)
        for omega, dt in ((1.0, omega_dt), (-1.0, omega_dt)):
            table = clock_prob(phases, phases, omega, dt, n_max)
            oracle = clock_prob_by_evolution(phases, phases, omega, dt, n_max)
            assert np.abs(table - oracle).max() <= 1e-12


def _per_pair_clock(p, q, omega, dt, n_max):
    """clock_prob_by_evolution as one evolution per (p, q) pair."""
    from focklab.fock import evolution_operator
    u = evolution_operator(omega * number_op(ModeSystem([("osc", n_max)])), dt)
    evolved = u.matrix @ phase_state(n_max, p).amplitudes
    target = phase_state(n_max, q).amplitudes
    return float(np.abs(np.vdot(target, evolved)) ** 2)


@pytest.mark.parametrize("n_max", range(1, 21))
def test_clock_table_equals_the_per_pair_probabilities_bit_for_bit(n_max):
    rng = np.random.default_rng(n_max)
    # all phases in order, and a random selection with repeats, as a list or an array
    for rows, cols in ((range(n_max + 1), range(n_max + 1)),
                       (list(rng.integers(0, n_max + 1, 5)), rng.integers(0, n_max + 1, 3))):
        omega, dt = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 10.0)
        table = clock_prob_by_evolution(rows, cols, omega, dt, n_max)
        assert table.shape == (len(rows), len(cols))
        for i, p in enumerate(rows):
            for j, q in enumerate(cols):
                want = _per_pair_clock(p, q, omega, dt, n_max)
                assert table[i, j] == want
        p, q = int(rows[0]), int(cols[-1])
        single = clock_prob_by_evolution(p, q, omega, dt, n_max)
        assert type(single) is float
        assert single == table[0, len(cols) - 1]
        # a sequence of times: one table per time, each that time's call alone
        dts = np.random.default_rng(1000 + n_max).uniform(0.0, 10.0, 3)
        for times in (list(dts), dts):
            tables = clock_prob_by_evolution(rows, cols, omega, times, n_max)
            assert tables.shape == (3, len(rows), len(cols))
            pairs = clock_prob_by_evolution(p, q, omega, times, n_max)
            assert pairs.shape == (3,)
            for k, t in enumerate(times):
                assert tables[k].tobytes() == \
                    clock_prob_by_evolution(rows, cols, omega, t, n_max).tobytes()
                assert pairs[k] == clock_prob_by_evolution(p, q, omega, t, n_max)


def _scalar_clock(p, q, omega, dt, n_max):
    """The closed form on numpy scalars, one (p, q) pair at a time: the reference
    whose bits every entry of a ``clock_prob`` table keeps."""
    m = n_max + 1
    turn = math.atan2(-math.sin(omega * dt), math.cos(omega * dt))
    delta = 2.0 * np.pi * p / m - 2.0 * np.pi * q / m + turn
    delta -= 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
    s = np.sin(delta / 2.0)
    return 1.0 if s == 0.0 else float(np.sin(m * delta / 2.0) ** 2 / (m ** 2 * s ** 2))


@pytest.mark.parametrize("n_max", range(1, 21))
def test_closed_form_clock_table_equals_its_scalar_calls_bit_for_bit(n_max):
    rng = np.random.default_rng(100 + n_max)
    # all phases in order, and a random selection with repeats, as a list or an array;
    # omega dt = 2 pi / (n_max + 1) lands on the removable singularities
    for rows, cols in ((range(n_max + 1), range(n_max + 1)),
                       (list(rng.integers(0, n_max + 1, 5)), rng.integers(0, n_max + 1, 3))):
        for omega, dt in ((rng.uniform(-3.0, 3.0), rng.uniform(0.0, 10.0)),
                          (1.0, 2 * np.pi / (n_max + 1)), (0.0, 1.0)):
            table = clock_prob(rows, cols, omega, dt, n_max)
            assert table.shape == (len(rows), len(cols))
            for i, p in enumerate(rows):
                for j, q in enumerate(cols):
                    single = clock_prob(p, q, omega, dt, n_max)
                    assert type(single) is float
                    assert table[i, j] == single == _scalar_clock(p, q, omega, dt, n_max)
            # one sequence and one index give a one-row or one-column table
            assert np.array_equal(clock_prob(rows[0], cols, omega, dt, n_max), table[:1])
            assert np.array_equal(clock_prob(rows, cols[0], omega, dt, n_max), table[:, :1])
            # a sequence of times gives one table per time
            tables = clock_prob(rows, cols, omega, [dt, 0.5 * dt], n_max)
            assert tables.tobytes() == np.stack(
                [table, clock_prob(rows, cols, omega, 0.5 * dt, n_max)]).tobytes()
    # a numpy scalar's ** 2 is a libm pow, which an array's square does not always match
    for omega_dt in rng.uniform(-20.0, 20.0, 10):
        want = [[_scalar_clock(p, q, 1.0, omega_dt, n_max) for q in range(n_max + 1)]
                for p in range(n_max + 1)]
        assert np.array_equal(clock_prob(range(n_max + 1), range(n_max + 1), 1.0, omega_dt,
                                         n_max), want)


@pytest.mark.parametrize("omega, dt", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.5),
                                       (0.0, np.inf), (1e200, 1e200)])
def test_clock_rejects_an_omega_dt_that_is_not_finite(omega, dt):
    for clock in (clock_prob, clock_prob_by_evolution):
        for p, q in ((0, 0), ([0, 1], [2, 3])):
            # alone, and as the one bad product of a sequence
            for times in (dt, [0.5, dt, 1.0]):
                with pytest.raises(ValueError, match=r"omega \* dt = .* is not finite"):
                    clock(p, q, omega, times, 4)


@pytest.mark.parametrize("times", [[], (), np.array([]), [[0.1, 0.2]]])
def test_the_clock_rejects_an_empty_or_nested_sequence_of_times(times):
    for clock in (clock_prob, clock_prob_by_evolution):
        with pytest.raises(ValueError, match="^the clock takes one time dt or a non-empty "
                                             "sequence of them$"):
            clock([0, 1], 2, 1.0, times, 4)


@pytest.mark.parametrize("dt", [1j, True, "1", [0.5, 1j], [0.5, True]])
def test_the_clock_rejects_a_time_that_is_not_real(dt):
    for clock in (clock_prob, clock_prob_by_evolution):
        with pytest.raises(ValueError, match="^the clock takes one time dt or a non-empty "
                                             "sequence of them, each a real number: got "):
            clock([0, 1], 2, 1.0, dt, 4)


@pytest.mark.parametrize("omega", [1j, 1 + 1j, [1.0, 2.0], np.array([1.0]), True, "1", None])
def test_the_clock_rejects_an_omega_that_is_not_one_real_number(omega):
    for clock in (clock_prob, clock_prob_by_evolution):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^omega must be one real number, got "):
                clock(0, 1, omega, 0.3, 4)


@pytest.mark.parametrize("p, q", [([[0, 1]], [0]), ([0], [[1]]), (["1"], 0), (None, 0)])
def test_both_clocks_refuse_phase_indices_that_are_not_integers(p, q):
    # the oracle checks them before it builds a state, as the closed form does
    for clock in (clock_prob, clock_prob_by_evolution):
        with pytest.raises(ValueError, match="^phase indices p = .* must be integers in 0..n_max"):
            clock(p, q, 1.0, 0.3, 4)


@pytest.mark.parametrize("state", [bosons(2, 2).vacuum().density(), np.ones(9), None])
def test_externalise_of_anything_but_a_pure_state_is_a_type_error(state):
    with pytest.raises(TypeError, match="externalise expects a PureState"):
        externalise(state)


def test_clock_table_rejects_a_phase_index_out_of_range():
    with pytest.raises(ValueError, match=r"phase indices p = \[0, 1\] and q = \[0, 5\] must"):
        clock_prob_by_evolution([0, 1], [0, 5], 1.0, 0.3, 4)
    # a phase index is an integer, not a float or a bool
    for p in (1.5, True):
        with pytest.raises(ValueError, match="phase index p must be an integer"):
            phase_state(4, p)
    for p, q, n_max in ((1.5, 0, 4), (1, True, 4), (5, 0, 4), (1, 0, 4.5), (0, 0, -1)):
        with pytest.raises(ValueError, match="phase indices p = .* must be integers"):
            clock_prob(p, q, 1.0, 0.3, n_max)


def test_internalise_one_boson_superposition():
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi = internalise(amps, 1)
    assert psi.amplitude((0, 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert psi.amplitude((1, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_internalise_reduced_state_is_number_diagonal():
    rng = np.random.default_rng(6)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    psi = internalise(amps, 6)
    part = Partition([("S", (0,)), ("R", (1,))])
    reduced = partial_trace(psi, part, "S")
    assert np.abs(reduced.matrix - np.diag(np.abs(amps) ** 2)).max() < 1e-12
    rep = ssr_check(reduced, number_op(reduced.system), tol=1e-12)
    assert rep.compliant


def test_internalise_single_amplitude_product():
    amps = np.array([0.0, 0.0, 1.0])
    psi = internalise(amps, 4)
    part = Partition([("S", (0,)), ("R", (1,))])
    reduced = partial_trace(psi, part, "S")
    evals = np.linalg.eigvalsh(reduced.matrix)
    evals = evals[evals > 1e-14]
    entropy = float(-(evals * np.log(evals)).sum())
    assert entropy == pytest.approx(0.0, abs=1e-12)


def test_externalise_inverts_internalise():
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    amps /= np.linalg.norm(amps)
    recovered = externalise(internalise(amps, 8))
    assert np.abs(recovered - amps).max() < 1e-12
    # a reference of cutoff 1 holds no row (0, 2) of total 2: C_0 is read as 0
    system = ModeSystem([("S", 2), ("R", 1)])
    state = system.superposition([(1, 1), (2, 0)], [0.6, 0.8j])
    assert np.array_equal(externalise(state), [0.0, 0.6, 0.8j])


def test_internalise_requires_enough_reference_bosons():
    with pytest.raises(ValueError, match="m_max"):
        internalise(np.ones(4) / 2.0, 2)


def test_sector_weights_sum_to_one():
    rng = np.random.default_rng(8)
    system = bosons(2, 2)
    rho = random_density(system, rng)
    decomp = sector_decompose(rho, number_op(system))
    assert sum(s.weight for s in decomp.sectors) == pytest.approx(1.0, abs=1e-10)
    assert all(s.weight >= -1e-12 for s in decomp.sectors)


def test_twirl_matches_phase_quadrature():
    # independent route: discrete phase average, exact once the number of
    # phases exceeds the largest sector difference
    rng = np.random.default_rng(9)
    system = bosons(2, 3)
    n_op = number_op(system)
    n_diag = np.real(np.diag(n_op.matrix))
    rho = random_density(system, rng)
    n_phases = 64
    avg = np.zeros_like(rho.matrix)
    for theta in 2.0 * np.pi * np.arange(n_phases) / n_phases:
        u = np.exp(-1j * n_diag * theta)
        avg += (u[:, None] * rho.matrix * u.conj()[None, :]) / n_phases
    assert np.abs(avg - twirl(rho, n_op).matrix).max() < 1e-12


@pytest.mark.parametrize("check", [ssr_check, twirl, sector_decompose])
def test_ssr_functions_reject_a_number_operator_of_another_system(check):
    rho = random_density(bosons(2, 2), np.random.default_rng(10))
    same_dim = number_op(ModeSystem([("x", 8)]))     # dim 9 as well, other modes
    other_dim = number_op(bosons(1, 2))
    for n_op in (same_dim, other_dim):
        with pytest.raises(ValueError, match="different systems"):
            check(rho, n_op)


def _with_off_diagonal(n_op, entry):
    """``n_op`` plus the Hermitian off-diagonal pair ``entry`` at (0, 1) and (1, 0)."""
    mat = n_op.matrix.copy()
    mat[0, 1] = mat[1, 0] = entry
    return Operator(n_op.system, mat)


@pytest.mark.parametrize("check", [ssr_check, twirl, sector_decompose,
                                   lambda rho, n_op: twirl([rho], n_op)])
def test_ssr_functions_reject_a_number_operator_that_is_not_diagonal(check):
    system = bosons(2, 2)
    rho = random_density(system, np.random.default_rng(11))
    n_op = number_op(system)
    # off-diagonal Frobenius norm 1e-12 passes the bound; 2e-12 and NaN do not
    check(rho, _with_off_diagonal(n_op, 1e-12 / np.sqrt(2)))
    for entry in (2e-12 / np.sqrt(2), np.nan):
        with pytest.raises(ValueError, match="not diagonal in the occupation basis"):
            check(rho, _with_off_diagonal(n_op, entry))


@pytest.mark.parametrize("check", [twirl, sector_decompose])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_sector_labels_reject_a_diagonal_entry_that_is_not_finite(check, entry):
    system = bosons(2, 2)
    rho = random_density(system, np.random.default_rng(11))
    mat = number_op(system).matrix.copy()
    mat[1, 1] = entry
    with pytest.raises(ValueError, match="spectrum is not integer"):
        check(rho, Operator(system, mat))


def test_a_stack_of_mixtures_with_one_bad_mixture_fails_naming_its_index():
    from focklab.sampling import random_number_diagonal_mixture
    system = bosons(2, 2)
    rng = np.random.default_rng(0)
    mixtures = random_number_diagonal_mixture(
        system, Partition([("A", (0,)), ("B", (1,))]), rng, 3)
    swapped = random_number_diagonal_mixture(
        system, Partition([("A", (1,)), ("B", (0,))]), rng, 1)
    with pytest.raises(ValueError, match="^mixture 3: a stack of mixtures needs one system, "
                                         "partition and number of components"):
        separable_ssr_theorem_check(mixtures + swapped)
    with pytest.raises(ValueError, match="at least one mixture"):
        separable_ssr_theorem_check([])
