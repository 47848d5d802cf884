import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab.cli import (
    _REAL_DOMAINS, EXPERIMENTS, _domain, emit, main, run_experiment, run_scenario,
)
from focklab.fock import _is_integer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_registry_size():
    assert len(EXPERIMENTS) >= 12


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "ghz_parity" in out
    assert "twirl_coherent" in out
    assert out.count("\n") >= 12


def test_passing_scenario_exit_zero(tmp_path, capsys):
    path = _write_scenario(tmp_path, {
        "schema_version": 1, "experiment": "ghz_parity", "seed": 0})
    assert main([path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall_pass"] is True
    assert report["summary"]["total"] == 4


def test_failing_check_exit_one(tmp_path, capsys):
    path = _write_scenario(tmp_path, {
        "schema_version": 1, "experiment": "twirl_coherent",
        "params": {"nbar": 2.0, "cutoff": 30},
        "tolerances": {"global": 1e-30}})
    assert main([path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["failed"] >= 1


def test_malformed_file_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main([str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_experiment_exit_two(tmp_path, capsys):
    path = _write_scenario(tmp_path, {
        "schema_version": 1, "experiment": "definitely_not_registered"})
    assert main([path]) == 2


def test_unknown_parameter_exit_two(tmp_path):
    path = _write_scenario(tmp_path, {
        "schema_version": 1, "experiment": "ghz_parity",
        "params": {"bogus": 3}})
    assert main([path]) == 2


def test_wrong_schema_version_exit_two(tmp_path):
    path = _write_scenario(tmp_path, {"schema_version": 99,
                                      "experiment": "ghz_parity"})
    assert main([path]) == 2


def test_missing_scenario_exit_two(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("n_phases,code", [(18, 2), (36, 2), (37, 0)])
def test_quadrature_must_resolve_every_number_difference(tmp_path, capsys, n_phases, code):
    # |N - M| <= 2 cutoff, so the phase average cancels every off-sector term
    # only with more than 2 cutoff points; a coarser one is a param error
    path = _write_scenario(tmp_path, {
        "schema_version": 1, "experiment": "two_mode_coherent_mixture",
        "params": {"cutoff": 18, "n_phases": n_phases}})
    assert main([path]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else
                   f"error: n_phases must exceed 2 * cutoff = 36, got {n_phases}\n")


def _peak_bytes(func):
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_holds_one_chunk_of_phases_at_a_time():
    from focklab.fock import CHUNK_ROWS
    peaks = []
    # the first run fills the per-system memos
    for n_phases in (CHUNK_ROWS, 2 * CHUNK_ROWS, 8 * CHUNK_ROWS):
        params = {"alpha": 0.01, "cutoff": 7, "n_phases": n_phases}
        report = {}
        peaks.append(_peak_bytes(lambda: report.update(
            run_experiment("two_mode_coherent_mixture", params))))
        assert report["overall_pass"]
    # held at once, the six further chunks' two-mode vectors (dim 64) would
    # add 6 MB, and their phases 48 kB
    assert peaks[2] < peaks[1] + 16 * 2 ** 10


def _vector_quadrature(alpha, cutoff, n_phases):
    """The phase average as sum_t |b_t, b_t><b_t, b_t| / N over the stacked
    two-mode vectors of b_t = alpha e^{-i theta_t}, CHUNK_ROWS phases at a time."""
    from focklab.fock import CHUNK_ROWS
    from focklab.states import coherent_amplitudes
    quad = 0.0
    for start in range(0, n_phases, CHUNK_ROWS):
        theta = 2.0 * np.pi * np.arange(start, min(start + CHUNK_ROWS, n_phases)) / n_phases
        amps = coherent_amplitudes(alpha * np.exp(-1j * theta), cutoff)
        vecs = (amps[:, :, None] * amps[:, None, :]).reshape(len(amps), -1)
        quad = quad + vecs.T @ vecs.conj()
    return quad / n_phases


def _dense_quadrature(alpha, system, n_phases):
    """The phase average as one d x d formula: v_i v_j^* S(N_i - N_j) over the
    whole matrix, with the same phase sums as the row blocks."""
    from focklab.fock import CHUNK_ROWS
    from focklab.states import coherent_amplitudes
    cutoff = system.modes[0].cutoff
    amps = coherent_amplitudes([alpha], cutoff)[0]
    occ = system.occupancies
    vec = amps[occ[:, 0]] * amps[occ[:, 1]]
    totals = occ.sum(axis=1)
    diffs = np.arange(-2 * cutoff, 2 * cutoff + 1)
    sums = np.zeros(len(diffs), dtype=complex)
    for start in range(0, n_phases, CHUNK_ROWS):
        theta = 2.0 * np.pi * np.arange(start, min(start + CHUNK_ROWS, n_phases)) / n_phases
        sums += np.exp(-1j * np.outer(diffs, theta)).sum(axis=1)
    sums /= n_phases
    return np.outer(vec, vec.conj()) * sums[totals[:, None] - totals[None, :] + 2 * cutoff]


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("alpha, cutoff", [(0.01, 3), (0.2, 5), (-0.3, 8), (0.5, 10)])
def test_the_factored_quadrature_is_the_sum_over_two_mode_vectors(alpha, cutoff, chunk,
                                                                  monkeypatch):
    from focklab import bosons, fock
    from focklab.cli import _phase_averaged_rows
    from focklab.fock import CHUNK_ROWS
    from focklab.states import coherent_amplitudes
    if chunk is not None:
        monkeypatch.setattr(fock, "PAIR_CHUNK", chunk)
    system = bosons(2, cutoff, labels=["A", "B"])
    dim = system.dim
    totals = system.occupancies.sum(axis=1)
    on = totals[:, None] == totals[None, :]
    amps = coherent_amplitudes([alpha], cutoff)[0]
    pair = np.outer(np.kron(amps, amps), np.kron(amps, amps).conj())
    # the smallest resolving grid, and one of three chunks, the last partial
    for n_phases in (2 * cutoff + 1, 2 * CHUNK_ROWS + 7):
        quad = np.full((dim, dim), np.nan, dtype=complex)
        step = max(1, fock.PAIR_CHUNK // dim)
        for k, (s, diff, rows) in enumerate(_phase_averaged_rows(alpha, system, n_phases)):
            # the blocks of fock._row_slices, in order, each with its number differences
            assert s == slice(k * step, k * step + step)
            assert rows.shape == (len(range(dim)[s]), dim)
            assert np.array_equal(diff, totals[s, None] - totals)
            quad[s] = rows
        # the assembled rows have the bits of the dense formula
        assert np.array_equal(quad.view(np.int64), _dense_quadrature(alpha, system, n_phases)
                              .view(np.int64))
        # the phase sum of a zero number difference is exactly 1
        assert np.array_equal(quad[on], pair[on])
        err = np.abs(quad - _vector_quadrature(alpha, cutoff, n_phases))
        assert err[~on].max() <= 1e-15
        # in the sectors, the reference adds n_phases rounded terms per entry
        assert err[on].max() <= 1e-15 * np.sqrt(n_phases)


def test_every_scenario_peaks_under_4_mib_once_warm():
    # whole-matrix temporaries peaked at 8.9 MiB in two_mode_coherent_mixture
    # (dim 361) and 3.2 MiB in extraction (dims up to 256)
    folder = os.path.join(ROOT, "scenarios")
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name)) as fh:
            scenario = json.load(fh)
        run_scenario(scenario)     # fills the per-system memos
        assert _peak_bytes(lambda: run_scenario(scenario)) < 4 * 2 ** 20, name


def test_summed_holds_at_most_four_matrices_whatever_its_components():
    from focklab import Partition, bosons
    from focklab.sampling import random_number_diagonal_mixture
    system = bosons(2, 15)
    part = Partition([("A", (0,)), ("B", (1,))])
    mix = random_number_diagonal_mixture(system, part, np.random.default_rng(0))
    mix.summed()    # fills the per-system memos
    matrix_bytes = system.dim ** 2 * np.dtype(complex).itemsize
    assert mix.probabilities.shape == (3,)
    assert _peak_bytes(mix.summed) <= 4 * matrix_bytes


def test_a_mixture_sweep_holds_each_draw_in_at_most_2_kb():
    # about 3.4 kB per draw, when each component and factor was an object
    from focklab.sampling import random_qubit_pair_mixture
    random_qubit_pair_mixture(np.random.default_rng(0), 100)    # fills the memos
    tracemalloc.start()
    try:
        draws = random_qubit_pair_mixture(np.random.default_rng(1), 100)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(draws) == 100
    assert held <= 100 * 2000


def _count_calls(monkeypatch, module, name):
    calls = []
    func = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or func(*a, **k))
    return calls


def test_reference_sweeps_build_their_fixed_parts_once(monkeypatch):
    from focklab import ssr, states
    # one solve per n_max, for its four omega dt: two calls of four times each
    propagators = _count_calls(monkeypatch, ssr, "evolution_operator")
    assert run_experiment("phase_clock")["overall_pass"]
    assert [len(times) for _, times in propagators] == [4, 4]
    # the coherent quadrature is one stack of amplitudes, not one state per phase
    singles = _count_calls(monkeypatch, states, "coherent")
    stacks = _count_calls(monkeypatch, states, "coherent_amplitudes")
    assert run_experiment("two_mode_coherent_mixture")["overall_pass"]
    assert (len(singles), len(stacks)) == (0, 1)


def test_atom_molecule_solves_and_calibrates_once_per_bec_number(monkeypatch):
    from focklab import dynamics, fock
    # the default run has two BEC numbers, 1 and 5, and two phases each.  Each
    # Hamiltonian (dim 8 and 24) takes one eigensolve and one calibration per
    # run, for both phases; the memo does not keep them, so a repeated run
    # solves again
    fock._MEMO.clear()
    solves = _count_calls(monkeypatch, fock, "eigh_blocks")
    calibrations = _count_calls(monkeypatch, dynamics, "_calibrate_half_transfer")
    for runs in (1, 2):
        assert run_experiment("atom_molecule")["overall_pass"]
        # eigenvectors are asked for only by the solves; the checks take eigenvalues
        assert [m.shape for m, vectors in solves if vectors] == [(8, 8), (24, 24)] * runs
        assert len(calibrations) == 2 * runs


def test_structured_report_roundtrip():
    report = run_experiment("verstraete", seed=0)
    payload = emit(report, "structured")
    parsed = json.loads(payload)
    assert emit(parsed, "structured") == payload


def test_report_deterministic_given_seed():
    a = run_experiment("chsh_separable_bound",
                       params={"n_mixtures": 20, "n_settings": 20}, seed=7)
    b = run_experiment("chsh_separable_bound",
                       params={"n_mixtures": 20, "n_settings": 20}, seed=7)
    a_bytes = emit(a, "structured").decode().splitlines()
    b_bytes = emit(b, "structured").decode().splitlines()
    a_lines = [l for l in a_bytes if "wall_time_s" not in l]
    b_lines = [l for l in b_bytes if "wall_time_s" not in l]
    assert a_lines == b_lines
    c = run_experiment("chsh_separable_bound",
                       params={"n_mixtures": 20, "n_settings": 20}, seed=8)
    c_lines = [l for l in emit(c, "structured").decode().splitlines()
               if "wall_time_s" not in l]
    assert c_lines != a_lines


_ACTUALS = """
import json, os, sys
from focklab.cli import run_scenario
folder = sys.argv[1]
for name in sorted(os.listdir(folder)):
    with open(os.path.join(folder, name)) as fh:
        report = run_scenario(json.load(fh), seed=0)
    for check in report["checks"]:
        print(report["experiment"], check["name"], repr(check["actual"]))
"""


def _child_env(**variables):
    """The environment with ``variables`` set and this focklab first on PYTHONPATH."""
    import focklab
    src = os.path.dirname(os.path.dirname(os.path.abspath(focklab.__file__)))
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_reports_do_not_depend_on_the_blas_thread_count():
    folder = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scenarios")
    outputs = []
    for threads in ("1", "2"):
        env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                         MKL_NUM_THREADS=threads)
        outputs.append(subprocess.run([sys.executable, "-c", _ACTUALS, folder], env=env,
                                      check=True, capture_output=True, text=True).stdout)
    assert outputs[0].count("\n") >= 90
    assert outputs[0] == outputs[1]


# the experiments that draw random numbers; the other eight draw nothing
DRAWING = {"appendix_inequalities", "chsh_separable_bound", "chsh_singlet", "lhv_chsh_bound",
           "measurement_identities", "particle_entanglement", "qcf_theorem",
           "separability_ssr", "spin_epr_bound", "vacuum_interferometer"}

_LOADED = """
import json, os, sys
import focklab.cli
from focklab.cli import run_scenario


def loaded():
    print(sorted(m for m in ("dataclasses", "numpy.ma", "numpy.random") if m in sys.modules))


loaded()
folder, drawing = sys.argv[1], set(sys.argv[2:])
scenarios = []
for name in sorted(os.listdir(folder)):
    with open(os.path.join(folder, name)) as fh:
        scenarios.append(json.load(fh))
for draws in (False, True):
    for scenario in scenarios:
        if (scenario["experiment"] in drawing) == draws:
            assert run_scenario(scenario)["overall_pass"], scenario
    loaded()
"""


def test_a_cli_process_loads_no_module_its_experiments_do_not_use():
    # importing the CLI builds no dataclass; an experiment that draws nothing
    # imports no numpy.random, and no experiment imports numpy.ma
    assert set(EXPERIMENTS) > DRAWING and len(DRAWING) == 10
    out = subprocess.run([sys.executable, "-c", _LOADED, os.path.join(ROOT, "scenarios"),
                          *sorted(DRAWING)], env=_child_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]", "['numpy.random']"]
    # the CLI's own work runs none of focklab's layers
    out = subprocess.run([sys.executable, "-c", _LAYERS_RUN, "--list", "--help", "",
                          "--format=yaml"], env=_child_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[0, 0, 2, 2]", "[]"]


# the layers besides fock, which every experiment calls, that each experiment calls
LAYERS_CALLED = {
    "phase_clock": ["ssr"],
    "two_mode_coherent_mixture": ["states"],
    "lhv_ghz_search": ["lhv"],
    "atom_molecule": ["dynamics"],
    "extraction": ["dynamics"],
    "vacuum_interferometer": ["dynamics"],
    "twirl_coherent": ["ssr", "states"],
    "verstraete": ["ssr", "states"],
    "ghz_parity": ["states", "witnesses"],
    "chsh_singlet": ["states", "witnesses"],
    "appendix_inequalities": ["lhv", "sampling"],
    "lhv_chsh_bound": ["lhv", "sampling"],
    "measurement_identities": ["measurement", "sampling"],
    "qcf_theorem": ["sampling", "ssr"],
    "separability_ssr": ["sampling", "ssr", "states"],
    "chsh_separable_bound": ["sampling", "states", "witnesses"],
    "particle_entanglement": ["sampling", "states", "witnesses"],
    "spin_epr_bound": ["measurement", "sampling", "states", "witnesses"],
}

# runs `focklab ARG` for each argument ("" for none), or the scenario file after
# --scenario, then prints the focklab layers whose source has run
_LAYERS_RUN = """
import contextlib, io, json, sys, types
import focklab.cli

if sys.argv[1] == "--scenario":
    with open(sys.argv[2]) as fh:
        assert focklab.cli.run_scenario(json.load(fh))["overall_pass"]
else:
    codes = []
    for arg in sys.argv[1:]:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                codes.append(focklab.cli.main([arg] if arg else []))
            except SystemExit as exc:
                codes.append(exc.code)
    print(codes)
print(sorted(name[len("focklab."):] for name, module in sys.modules.items()
             if name.startswith("focklab.") and name != "focklab.cli"
             and type(module) is types.ModuleType))
"""


@pytest.mark.parametrize("name", sorted(LAYERS_CALLED))
def test_a_cli_process_runs_only_the_layers_its_experiment_calls(name):
    # each layer's source compiles on first use: a fresh process runs fock and
    # the layers its experiment calls, and no other
    assert sorted(LAYERS_CALLED) == sorted(EXPERIMENTS)
    out = subprocess.run([sys.executable, "-c", _LAYERS_RUN, "--scenario",
                          os.path.join(ROOT, "scenarios", f"{name}.json")],
                         env=_child_env(), check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == [str(sorted(["fock"] + LAYERS_CALLED[name]))]


def test_table_format_has_summary_line(tmp_path, capsys):
    path = _write_scenario(tmp_path, {
        "schema_version": 1, "experiment": "ghz_parity"})
    assert main([path, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "passed 4/4 checks" in out


def test_out_flag_writes_file(tmp_path):
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": "lhv_ghz_search"})
    out_path = tmp_path / "report.json"
    assert main([path, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["experiment"] == "lhv_ghz_search"


def test_seed_flag_overrides(tmp_path, capsys):
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": "ghz_parity", "seed": 3})
    assert main([path, "--seed", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 11


def test_emit_rejects_unknown_format():
    report = run_experiment("ghz_parity")
    with pytest.raises(ValueError, match="format"):
        emit(report, "yaml")


def test_every_registered_experiment_passes_defaults():
    for name in sorted(EXPERIMENTS):
        report = run_experiment(name, seed=0)
        assert report["overall_pass"], (name, report["checks"])


def test_run_from_path(tmp_path, capsys):
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": "verstraete"})
    assert main([path]) == 0
    assert json.loads(capsys.readouterr().out)["overall_pass"] is True


def test_atom_molecule_poisson_keeps_the_empty_component_atomic():
    # N = 0 has no partner atom: at phi = 0 it is the whole atomic population
    report = run_experiment("atom_molecule", params={"poisson_nbar": 2})
    assert report["overall_pass"], report["checks"]
    check = next(c for c in report["checks"]
                 if c["name"] == "poisson_p_atom_phi0.000")
    assert check["expected"] == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_zero_tolerance_is_honoured(tmp_path, capsys):
    report = run_experiment("twirl_coherent", tolerance=0.0)
    assert {c["tolerance"] for c in report["checks"]
            if c["name"] == "poisson_diag_max_err"} == {0.0}
    for payload, argv in (
            ({"tolerances": {"global": 0}}, []),
            ({"tolerances": {"global": 1e-3}}, ["--tol", "0"])):
        path = _write_scenario(tmp_path, {"schema_version": 1,
                                          "experiment": "extraction", **payload})
        main([path] + argv)
        report = json.loads(capsys.readouterr().out)
        assert {c["tolerance"] for c in report["checks"]} == {0.0}


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("argv", [[], ["--tol", "0"], ["--seed", "1"]])
def test_non_object_scenario_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main([str(path)] + argv) == 2
    _assert_one_error_line(capsys)
    with pytest.raises(ValueError, match="object"):
        run_scenario([1, 2])


@pytest.mark.parametrize("experiment,params", [
    ("twirl_coherent", {"cutoff": "x"}),
    ("twirl_coherent", {"nbar": True}),
    ("twirl_coherent", {"nbar": [2.0]}),
    ("extraction", {"r_values": 0.3}),
    ("ghz_parity", [1]),
    ("qcf_theorem", {"n_states": 2.5}),
    ("qcf_theorem", {"cutoff": 1.5}),
    ("qcf_theorem", {"max_order": -1}),
    ("qcf_theorem", {"n_states": -1}),
    ("particle_entanglement", {"n_mixtures": 0}),
    ("twirl_coherent", {"cutoff": True}),
    ("atom_molecule", {"n_values": [0]}),
    ("atom_molecule", {"n_values": [2.5]}),
    ("phase_clock", {"n_max_values": [True]}),
    ("extraction", {"r_values": []}),
    ("extraction", {"r_values": [1.5]}),
    ("twirl_coherent", {"nbar": -1.0}),
    ("atom_molecule", {"poisson_nbar": -2.0}),
    ("twirl_coherent", {"nbar": float("nan")}),
    ("two_mode_coherent_mixture", {"alpha": float("inf")}),
    ("atom_molecule", {"kappa": float("-inf")}),
    ("atom_molecule", {"phi_values": [0.0, float("nan")]}),
    ("extraction", {"r_values": ["x"]}),
    ("twirl_coherent", {"nbar": 10 ** 400}),
    ("two_mode_coherent_mixture", {"alpha": 1e200}),
    # dim 10**6 > MAX_DIM; the quadrature resolves every sector
    ("two_mode_coherent_mixture", {"cutoff": 1000, "n_phases": 2001}),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wrongly_typed_params_exit_two(tmp_path, capsys, experiment, params):
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": experiment, "params": params})
    assert main([path]) == 2
    _assert_one_error_line(capsys)
    with pytest.raises(ValueError):
        run_experiment(experiment, params=params)


EDGE_VALUES = (0, 1, 2, 1e-300, -1e-300, 1e300, -1, 0.5, 3.0)
EDGE_CASES = [(name, key) for name in sorted(EXPERIMENTS) for key in EXPERIMENTS[name][1]]
# every other count is 2, so one run takes milliseconds; the two experiments
# that build a dim-100 to dim-361 space at their defaults hold the rest of their
# params at small valid values: one N and one phase, a cutoff-3 space
EDGE_BASE = {"atom_molecule": {"n_values": [1], "phi_values": [0.0]},
             "two_mode_coherent_mixture": {"alpha": 0.01, "cutoff": 3, "n_phases": 7}}


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.sampled_from(EDGE_CASES), st.sampled_from(EDGE_VALUES))
def test_an_edge_value_of_any_param_passes_or_is_a_param_error(case, value):
    name, key = case
    defaults = EXPERIMENTS[name][1]
    params = {k: 2 for k, v in defaults.items()
              if k.startswith("n_") and not isinstance(v, list)}
    params.update(EDGE_BASE.get(name, {}))
    params[key] = [value] if isinstance(defaults[key], list) else value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = run_experiment(name, params=params)
        except ValueError:
            return
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert not failed, (params, failed)
    assert not caught, (params, [str(w.message) for w in caught])


# the integer params that size a basis; every other integer param is the count of a sweep
BASIS_SIZES = ("cutoff", "max_order", "n_values", "n_max_values")


def _is_count(key, default):
    return _is_integer(default) and key not in BASIS_SIZES


def _huge_value_cases():
    """(experiment, param, value) for every real param and basis size at +-1e12
    and +-1e300 (as integers for an integer param), where its domain holds it, and
    for every count at 10**12 and 10**300."""
    cases = []
    for name in sorted(EXPERIMENTS):
        for key, default in EXPERIMENTS[name][1].items():
            entry = default[0] if isinstance(default, list) else default
            if isinstance(entry, float):
                values = (1e12, -1e12, 1e300, -1e300)
            elif key in BASIS_SIZES:
                values = (10 ** 12, -10 ** 12, 10 ** 300, -10 ** 300)
            else:
                values = (10 ** 12, 10 ** 300)
            valid, _ = _domain(key, entry)
            cases += [(name, key, value) for value in values if valid(value)]
    return cases


@pytest.mark.parametrize("name, key, value", _huge_value_cases())
def test_a_huge_value_of_a_param_passes_or_exits_2(tmp_path, capsys, name, key, value):
    defaults = EXPERIMENTS[name][1]
    params = {k: 2 for k, v in defaults.items()
              if k.startswith("n_") and not isinstance(v, list)}
    params.update(EDGE_BASE.get(name, {}))
    params[key] = [value] if isinstance(defaults[key], list) else value
    path = _write_scenario(tmp_path, {"schema_version": 1, "experiment": name,
                                      "params": params})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([path])
    # exit 1 would be a failed physics check, and any other error a traceback
    out, err = capsys.readouterr()
    assert code in (0, 2), (params, out)
    if _is_count(key, defaults[key]):
        # a count past the work budget is refused before any draw, not run for days
        assert code == 2 and err.endswith(" exceed the budget MAX_DIM**2 = 16777216\n"), err


# the messages of the param errors an experiment may raise for a param inside its domain
PARAM_ERRORS = ("parameter ", "n_phases must exceed ", "insufficient cutoff")


@st.composite
def experiment_draws(draw):
    """An experiment, a seed and a value for each of its params inside the
    param's documented domain: counts (``n_*``) 1-6, cutoffs 0-10, orders 0-4
    and reals within ``_REAL_DOMAINS`` cut to [-10, 10]; a list holds one to
    three such values.  An order of 10 alone makes 11**4 qcf monomials."""
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    params = {}
    for key, default in EXPERIMENTS[name][1].items():
        entry = default[0] if isinstance(default, list) else default
        if isinstance(entry, int):
            value = st.integers(1, 6) if key.startswith("n_") \
                else st.integers(0, 4 if key == "max_order" else 10)
        else:
            low, high = _REAL_DOMAINS.get(key, (-10.0, 10.0))
            value = st.floats(max(low, -10.0), min(high, 10.0))
        params[key] = draw(st.lists(value, min_size=1, max_size=3)
                           if isinstance(default, list) else value)
    return name, params, draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(experiment_draws())
def test_any_params_in_their_domains_pass_or_are_a_param_error(case):
    name, params, seed = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = run_experiment(name, params=params, seed=seed)
        except ValueError as exc:
            assert str(exc).startswith(PARAM_ERRORS), (name, params, seed, str(exc))
            return
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert not failed, (name, params, seed, failed)


@pytest.mark.parametrize("experiment,params", [
    ("extraction", {"r_values": [0.0]}),
    ("extraction", {"r_values": [0.5, 1.0]}),
    ("atom_molecule", {"kappa": 0.0}),
    ("atom_molecule", {"kappa": 5e-324}),     # kappa / 2 underflows to 0
])
def test_params_that_leave_nothing_to_measure_are_param_errors(experiment, params):
    with pytest.raises(ValueError, match=f"^parameter '{next(iter(params))}' of {experiment}"):
        run_experiment(experiment, params=params)


@pytest.mark.parametrize("r", [0.0, 1.0] + [10.0 ** -k for k in range(1, 9)]
                         + [1 - 10.0 ** -k for k in range(1, 9)])
def test_an_extraction_r_computes_or_exits_2_naming_the_split_floor(tmp_path, capsys, r):
    # the projected state is divided by the root of its sector probability, so a
    # split with too little weight would fail its own 1e-12 checks (exit 1): it is
    # refused (exit 2) instead, naming the probability and the floor
    path = _write_scenario(tmp_path, {"schema_version": 1, "experiment": "extraction",
                                      "params": {"r_values": [r]}})
    code = main([path])
    err = capsys.readouterr().err
    if 1e-3 <= r <= 1 - 1e-3:
        assert code == 0, (r, err)
    else:
        assert code == 2 and re.search(r"sector probability \S+ below SPLIT_FLOOR = 1e-06 "
                                       r"at r = ", err), (r, code, err)


def test_scenario_check_names_match_the_benchmark_record():
    # the benchmark fails every op whose check names differ from this record,
    # which it reads and never writes
    with open(os.path.join(ROOT, "bench", "expected_checks.json")) as fh:
        expected = json.load(fh)["scenarios"]
    folder = os.path.join(ROOT, "scenarios")
    seen = set()
    for file in sorted(os.listdir(folder)):
        with open(os.path.join(folder, file)) as fh:
            report = run_scenario(json.load(fh), seed=0)
        seen.add(report["experiment"])
        assert sorted(c["name"] for c in report["checks"]) == \
            sorted(expected[report["experiment"]]), file
    assert seen == set(expected)


@pytest.mark.parametrize("field", [{"tolerances": [1e-3]},
                                   {"tolerances": {"global": "tight"}},
                                   {"seed": [1]},
                                   {"tolerances": {"global": float("nan")}},
                                   {"tolerances": {"global": -1e-3}},
                                   {"tolerances": {"global": float("inf")}},
                                   {"seed": float("inf")},
                                   {"seed": 1.5},
                                   {"seed": 1.0},
                                   {"seed": "3"},
                                   {"seed": True},
                                   {"sead": 3},
                                   {"tolerances": {"globl": 1e-3}},
                                   {"schema_version": True},
                                   {"schema_version": 1.0},
                                   {"params": False},
                                   {"params": 0},
                                   {"params": ""},
                                   {"params": []},
                                   {"tolerances": []},
                                   {"tolerances": False}])
def test_malformed_scenario_fields_exit_two(tmp_path, capsys, field):
    # only a field left out or null takes its default: a false or empty one does not
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": "ghz_parity", **field})
    assert main([path]) == 2
    err = _assert_one_error_line(capsys)
    # the line names the field, or the tolerance key at fault
    (key, value), = field.items()
    assert key in err or any(name in err for name in getattr(value, "keys", list)())


def test_a_null_scenario_field_takes_its_default(tmp_path, capsys):
    path = _write_scenario(tmp_path, {"schema_version": 1, "experiment": "ghz_parity",
                                      "params": None, "tolerances": None, "seed": None})
    assert main([path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 0 and report["overall_pass"]


def test_unwritable_out_exit_two(tmp_path, capsys):
    path = _write_scenario(tmp_path, {"schema_version": 1, "experiment": "ghz_parity"})
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main([path, "--out", str(out)]) == 2
        _assert_one_error_line(capsys)


def test_non_utf8_scenario_exit_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"experiment": "\xe9"}'.encode("latin-1"))
    assert main([str(path)]) == 2
    _assert_one_error_line(capsys)


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it costs about 1 s per CLI run
    env = _child_env()
    code = ("import sys, focklab, focklab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name, dim, n, pure_checks", [
    ("chsh_separable_bound", 4, 100, 0),
    ("particle_entanglement", 9, 30, 1),     # the product state's density
    ("spin_epr_bound", 16, 50, 0),
])
def test_mixture_sweeps_check_their_summed_states_once(monkeypatch, name, dim, n,
                                                        pure_checks):
    from focklab import fock, witnesses
    shapes = []
    check = fock._check_physical
    for module in (fock, witnesses):
        monkeypatch.setattr(module, "_check_physical",
                            lambda m: shapes.append(m.shape) or check(m))
    assert run_experiment(name)["overall_pass"]
    full = [shape for shape in shapes if shape[-1] == dim]
    assert full.count((dim, dim)) == pure_checks
    assert [shape for shape in full if len(shape) == 3] == [(n, dim, dim)]


@pytest.mark.parametrize("name, key", [("qcf_theorem", "n_states"),
                                       ("chsh_separable_bound", "n_mixtures"),
                                       ("spin_epr_bound", "n_mixtures"),
                                       ("measurement_identities", "n_states"),
                                       ("vacuum_interferometer", "n_draws"),
                                       ("separability_ssr", "n_mixtures"),
                                       ("particle_entanglement", "n_mixtures")])
def test_sampled_sweeps_check_their_states_as_stacks(monkeypatch, name, key):
    # the number of physicality checks does not grow with the sweep
    from focklab import dynamics, fock, states, witnesses
    calls = []
    check = fock._check_physical
    for module in (dynamics, fock, states, witnesses):
        monkeypatch.setattr(module, "_check_physical",
                            lambda m: calls.append(m.shape) or check(m))
    counts = []
    for n in (5, 50):
        calls.clear()
        assert run_experiment(name, params={key: n})["overall_pass"]
        assert any(shape[0] == n for shape in calls if len(shape) == 3)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _measurement_identities_per_state(rng, n_states):
    """The ``measurement_identities`` actuals, one state and one call at a time."""
    from focklab import Partition, bosons, joint_prob, number_op, partial_trace, prob, spectral
    from focklab import unrecorded_state
    from focklab.sampling import random_density
    system = bosons(2, 2)
    part = Partition([("A", (0,)), ("B", (1,))])
    obs_b = spectral(number_op(system, [0, 1]))
    proj_a, proj_b = spectral(number_op(system, [1, 0])).projectors, obs_b.projectors
    bayes = nosig = reduced = 0.0
    for rho in random_density(system, rng, n_states):
        after = unrecorded_state(rho, obs_b)
        for pa in proj_a:
            total = sum(joint_prob(rho, [pa, pb]) for pb in proj_b)
            bayes = max(bayes, abs(total - prob(rho, pa)))
            nosig = max(nosig, abs(prob(after, pa) - prob(rho, pa)))
        reduced = max(reduced, float(np.abs(partial_trace(after, part, "A").matrix
                                            - partial_trace(rho, part, "A").matrix).max()))
    return {"bayes_max_err": bayes, "no_signalling_max_err": nosig,
            "reduced_operator_max_err": reduced}


def _vacuum_interferometer_per_draw(rng, n_draws):
    """The ``vacuum_interferometer`` actuals, one draw and one call at a time."""
    from focklab import ramsey_vacuum_superposition
    worst10 = worst01 = 0.0
    for _ in range(n_draws):
        w = rng.random()
        phase_a, phase_b = np.exp(2j * np.pi * rng.random(2))
        delta, tau = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        p10, p01 = ramsey_vacuum_superposition(np.sqrt(1.0 - w) * phase_a, np.sqrt(w) * phase_b,
                                               delta, tau)
        worst10 = max(worst10, abs(p10 - w * np.sin(delta * tau / 2) ** 2))
        worst01 = max(worst01, abs(p01 - w * np.cos(delta * tau / 2) ** 2))
    return {"p10_formula_max_err": worst10, "p01_formula_max_err": worst01}


def _particle_entanglement_per_state(rng, n_mixtures):
    """The sampled ``particle_entanglement`` actual, one state at a time."""
    from focklab import Partition, bosons, particle_entanglement
    from focklab.sampling import random_number_diagonal_mixture
    part = Partition([("A", (0,)), ("B", (1,))])
    mixtures = random_number_diagonal_mixture(bosons(2, 2), part, rng, n_mixtures)
    return {"separable_EP_max": max([0.0] + [particle_entanglement(m.summed(), part)
                                             for m in mixtures])}


@pytest.mark.parametrize("name, key, per_state", [
    ("measurement_identities", "n_states", _measurement_identities_per_state),
    ("vacuum_interferometer", "n_draws", _vacuum_interferometer_per_draw),
    ("particle_entanglement", "n_mixtures", _particle_entanglement_per_state),
])
@pytest.mark.parametrize("seed", [0, 3])
def test_a_stacked_sweep_reports_the_bits_of_its_per_state_loop(name, key, per_state, seed):
    # the sweep draws the same stream and keeps every bit of every actual
    report = run_experiment(name, seed=seed)
    expected = per_state(np.random.default_rng(seed), EXPERIMENTS[name][1][key])
    actuals = {c["name"]: c["actual"] for c in report["checks"] if c["name"] in expected}
    assert {k: repr(v) for k, v in actuals.items()} == {k: repr(float(v))
                                                        for k, v in expected.items()}


def test_the_extraction_sweep_solves_each_case_once(monkeypatch):
    # on a cleared memo, one eigh_blocks per case and no physicality check,
    # whatever the number of r; a repeated sweep, at any r, solves nothing
    from focklab import dynamics, fock
    calls = []
    check, solve = fock._check_physical, fock.eigh_blocks
    for module in (dynamics, fock):
        monkeypatch.setattr(module, "_check_physical",
                            lambda m: calls.append("check") or check(m))
    monkeypatch.setattr(fock, "eigh_blocks",
                        lambda m, vectors: calls.append(m.shape) or solve(m, vectors))
    fock._MEMO.clear()
    counts = []
    for n in (5, 50):
        calls.clear()
        r_values = np.linspace(0.1, 0.9, n).tolist()
        assert run_experiment("extraction", params={"r_values": r_values})["overall_pass"]
        counts.append(sorted(calls))
    assert counts == [[(16, 16), (81, 81), (256, 256)], []]


@pytest.mark.parametrize("params", [{"max_order": 10 ** 5}, {"max_order": 64, "n_states": 1},
                                    {"n_states": 207_127}])
def test_a_qcf_table_over_the_budget_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                             params):
    # n_states * (max_order + 1)**4 entries; MAX_DIM**2 = 16_777_216 allows
    # 20 states up to order 29, and one state up to order 63
    from focklab import fock

    def no_work(*args):
        raise AssertionError("the scenario built a system")

    monkeypatch.setattr(fock, "bosons", no_work)
    path = _write_scenario(tmp_path, {"schema_version": 1, "experiment": "qcf_theorem",
                                      "params": params})
    assert main([path]) == 2
    merged = {**EXPERIMENTS["qcf_theorem"][1], **params}
    entries = merged["n_states"] * (merged["max_order"] + 1) ** 4
    assert capsys.readouterr().err == (
        f"error: n_states * (max_order + 1)**4 = {entries} table entries exceed "
        "the budget MAX_DIM**2 = 16777216\n")


def test_the_work_budget_is_the_square_of_the_largest_system():
    # the CLI holds its own copy, which the budget tests below shrink
    from focklab import cli, fock
    assert cli.MAX_DIM == fock.MAX_DIM


def test_a_qcf_table_at_the_budget_runs(monkeypatch):
    from focklab import cli
    # a budget of 81 entries: one state at max_order 2, but not two
    monkeypatch.setattr(cli, "MAX_DIM", 9)
    assert run_experiment("qcf_theorem", {"n_states": 1})["overall_pass"]
    with pytest.raises(ValueError, match="= 162 table entries exceed the budget MAX_DIM"):
        run_experiment("qcf_theorem", {"n_states": 2})


# (experiment, oversized params, the count the error names)
OVERSIZED_SWEEPS = [
    ("vacuum_interferometer", {"n_draws": 10 ** 9}, "n_draws * 4**2"),
    ("measurement_identities", {"n_states": 10 ** 8}, "n_states * 9**2"),
    ("separability_ssr", {"n_mixtures": 10 ** 8}, "n_mixtures * 9**2"),
    ("particle_entanglement", {"n_mixtures": 10 ** 8}, "n_mixtures * 9**2"),
    ("chsh_separable_bound", {"n_settings": 10 ** 9}, "max(n_mixtures, 12) * n_settings"),
    ("chsh_separable_bound", {"n_mixtures": 10 ** 9}, "n_mixtures * 4**2"),
    ("spin_epr_bound", {"n_mixtures": 10 ** 8}, "n_mixtures * 16**2"),
]


def _capped_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9, 3 * 10 ** 9))


@pytest.mark.parametrize("name, params, count", OVERSIZED_SWEEPS)
def test_an_oversized_sweep_exits_2_naming_the_budget(tmp_path, name, params, count):
    # in a child process whose address space is capped at 3 GB: a sweep that
    # drew first would die there with a MemoryError traceback and exit 1
    path = _write_scenario(tmp_path, {"schema_version": 1, "experiment": name,
                                      "params": params})
    proc = subprocess.run([sys.executable, "-m", "focklab.cli", path], env=_child_env(),
                          capture_output=True, text=True, preexec_fn=_capped_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {count} = ")
    assert proc.stderr.endswith(" array entries exceed the budget MAX_DIM**2 = 16777216\n")


@pytest.mark.parametrize("name, max_dim, edge, over", [
    ("vacuum_interferometer", 8, {"n_draws": 4}, [{"n_draws": 5}]),
    ("measurement_identities", 18, {"n_states": 4}, [{"n_states": 5}]),
    ("separability_ssr", 18, {"n_mixtures": 4}, [{"n_mixtures": 5}]),
    ("particle_entanglement", 18, {"n_mixtures": 4}, [{"n_mixtures": 5}]),
    ("spin_epr_bound", 32, {"n_mixtures": 4}, [{"n_mixtures": 5}]),
    ("chsh_separable_bound", 12, {"n_mixtures": 9, "n_settings": 12},
     [{"n_mixtures": 10, "n_settings": 12}, {"n_mixtures": 9, "n_settings": 13}]),
])
def test_a_sweep_at_the_budget_runs(monkeypatch, name, max_dim, edge, over):
    from focklab import cli
    # the largest array of the edge params holds max_dim**2 entries exactly
    monkeypatch.setattr(cli, "MAX_DIM", max_dim)
    assert run_experiment(name, edge)["overall_pass"]
    for params in over:
        with pytest.raises(ValueError,
                           match=rf"array entries exceed the budget MAX_DIM\*\*2 = {max_dim ** 2}$"):
            run_experiment(name, params)


@pytest.mark.parametrize("name, max_dim, edge, over, message", [
    ("appendix_inequalities", 4, {"n_samples": 16}, {"n_samples": 17}, "n_samples = 17 samples"),
    ("two_mode_coherent_mixture", 7, {"n_phases": 49}, {"n_phases": 50},
     "n_phases = 50 phases"),
    ("lhv_chsh_bound", 6, {"n_models": 4, "n_settings": 9}, {"n_models": 4, "n_settings": 10},
     "n_models * n_settings = 40 settings"),
    ("chsh_singlet", 5, {"n_settings": 25}, {"n_settings": 26}, "n_settings = 26 settings"),
])
def test_a_chunked_loop_at_the_work_budget_runs(monkeypatch, name, max_dim, edge, over, message):
    from focklab import cli
    # the loop of the edge params takes max_dim**2 steps exactly
    monkeypatch.setattr(cli, "MAX_DIM", max_dim)
    assert run_experiment(name, edge)["overall_pass"]
    with pytest.raises(ValueError, match=re.escape(
            f"{message} exceed the budget MAX_DIM**2 = {max_dim ** 2}")):
        run_experiment(name, over)


def _appendix_reference(seed, n_samples):
    """The (p, c, d, lambda) rows of ``n_samples`` appendix samples and the
    ``equality_case`` actual, drawn one sample at a time: each sample's size
    from the first of three children of the seed's generator, 7 exponentials
    from the second, of which the first size give ``rng.dirichlet``'s
    weights, and 21 uniforms from the third; the equality case from the
    generator itself."""
    rng = np.random.default_rng(seed)
    size_rng, exp_rng, unif_rng = rng.spawn(3)
    rows = []
    for _ in range(n_samples):
        size = int(size_rng.integers(2, 8))
        pad = 7 - size
        state = exp_rng.bit_generator.state
        p = np.pad(exp_rng.dirichlet(np.ones(size)), (0, pad))
        exp_rng.bit_generator.state = state
        exp_rng.standard_exponential(7)
        c, d, lam = unif_rng.random((3, 7))[:, :size]
        rows.append((p, np.pad(c * 10, (0, pad)), np.pad(d * 10, (0, pad)),
                     np.pad(np.sort(lam), (0, pad), mode="edge")))
    p = rng.dirichlet(np.ones(5))
    c = rng.random(5) * 3
    return rows, float(np.sum(p * np.sqrt(c * c)) ** 2)


def _appendix_oracle_inputs(monkeypatch, n_samples, seed):
    """The ``appendix_inequalities`` report, and the (p, c, d) and lambda of
    each oracle call it makes, in order."""
    from focklab import lhv
    seen = []
    monkeypatch.setattr(lhv, "sum_inequality_oracle",
                        lambda p, c, d: seen.append((p.copy(), c.copy(), d.copy())) or True)
    monkeypatch.setattr(lhv, "integral_inequality_oracle",
                        lambda lam, p, c, d: seen.append(lam.copy()) or True)
    return run_experiment("appendix_inequalities", {"n_samples": n_samples}, seed=seed), seen


@pytest.mark.parametrize("seed", [0, 3, 77])
def test_the_appendix_sweep_keeps_the_stream_of_numpys_dirichlet(monkeypatch, seed):
    # every sample's oracle inputs, and the equality case from the seed's own generator
    for n_samples in (1, 7, 1000):
        report, seen = _appendix_oracle_inputs(monkeypatch, n_samples, seed)
        rows, equality = _appendix_reference(seed, n_samples)
        actual = {c["name"]: c["actual"] for c in report["checks"]}["equality_case"]
        assert repr(actual) == repr(equality)
        assert len(seen) == 2     # one chunk
        for got, want in zip(seen[0] + (seen[1],), zip(*rows)):
            assert np.array_equal(got, np.array(want))


def test_the_appendix_oracles_see_each_samples_own_draws(monkeypatch):
    # chunks of 1, 4 (the last partial) and the default 1024 rows see the same samples
    from focklab import fock
    rows, _ = _appendix_reference(5, 10)
    for chunk in (1, 4, fock.CHUNK_ROWS):
        monkeypatch.setattr(fock, "CHUNK_ROWS", chunk)
        report, seen = _appendix_oracle_inputs(monkeypatch, 10, 5)
        assert report["overall_pass"]
        starts = range(0, 10, chunk)
        assert len(seen) == 2 * len(starts)
        for k, start in enumerate(starts):
            for got, want in zip(seen[2 * k] + (seen[2 * k + 1],),
                                 zip(*rows[start:start + chunk])):
                assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("seed", [0, 3, 77])
def test_the_singlet_sweep_draws_one_random_chsh_setting_per_setting(seed):
    from focklab.cli import _chsh_directions
    from focklab.sampling import random_chsh_setting
    for rows in (1, 20):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _chsh_directions(rng, rows)
        settings = [random_chsh_setting(reference) for _ in range(rows)]
        want = np.array([[s.a1, s.a2, s.b1, s.b2] for s in settings])
        # the same normals: each unit row within a few ulps of its own
        # normalisation, and both generators left at one point of the stream
        assert got.shape == (rows, 4, 3)
        assert np.allclose(got, want, rtol=0, atol=4e-16)
        assert rng.bit_generator.state == reference.bit_generator.state


def test_run_experiment_takes_a_numpy_integer_seed_and_reports_an_int():
    report = run_experiment("ghz_parity", seed=np.int64(1))
    assert report["seed"] == 1 and type(report["seed"]) is int
    assert json.loads(emit(report))["seed"] == 1
    assert run_experiment("vacuum_interferometer", seed=np.int64(7))["checks"] == \
        run_experiment("vacuum_interferometer", seed=7)["checks"]


@pytest.mark.parametrize("seed", [1.5, True, -1, "1", None])
def test_run_experiment_rejects_a_seed_that_is_not_an_integer_at_least_zero(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
        run_experiment("ghz_parity", seed=seed)


def test_a_negative_seed_on_the_command_line_exits_2(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"schema_version": 1, "experiment": "ghz_parity"}))
    assert main([str(path), "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
