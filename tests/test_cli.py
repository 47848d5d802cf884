import json
import os
import subprocess
import sys

import numpy as np
import pytest

from focklab.cli import EXPERIMENTS, emit, main, run_experiment, run_scenario


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


def test_run_from_path(tmp_path):
    from focklab.cli import run
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": "verstraete"})
    report = run(path)
    assert report["overall_pass"] is True


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
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wrongly_typed_params_exit_two(tmp_path, capsys, experiment, params):
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": experiment, "params": params})
    assert main([path]) == 2
    _assert_one_error_line(capsys)
    with pytest.raises(ValueError):
        run_experiment(experiment, params=params)


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
                                   {"seed": True}])
def test_malformed_scenario_fields_exit_two(tmp_path, capsys, field):
    path = _write_scenario(tmp_path, {"schema_version": 1,
                                      "experiment": "ghz_parity", **field})
    assert main([path]) == 2
    _assert_one_error_line(capsys)


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it costs about 1 s per CLI run
    import focklab
    src = os.path.dirname(os.path.dirname(os.path.abspath(focklab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, focklab, focklab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
