"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench -q
"""

import numpy as np
import pytest

import focklab
import focklab.cli
import focklab.fock
import run
from tracer import Tracer, aggregate, import_times, self_times
from workloads import run_pass, scenario_op


def test_self_times_of_nested_spans():
    # op [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [("op.x", 0.0, 10.0, -1), ("f.a", 1.0, 4.0, 0),
             ("f.b", 2.0, 3.0, 1), ("f.c", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    spans.append(("f.b", 9.5, 9.75, 0))
    agg = aggregate(spans)
    assert agg["f.b"] == {"calls": 2, "self_s": 1.25}
    assert agg["op.x"]["self_s"] == 2.75


def test_tracer_records_only_inside_ops_with_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("f.inner", lambda x: x + 1)
    outer = tracer.wrap("f.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4                       # outside an op: no span
    assert tracer.spans() == []
    assert tracer.run_op("task", 7, outer, 1) == 4
    names = [(s[0], s[3], s[4]) for s in tracer.spans()]
    assert names == [("op.task", -1, 7), ("f.outer", 0, 7), ("f.inner", 1, 7)]
    assert all(s[2] > s[1] for s in tracer.spans())


def test_installed_wrappers_return_the_unwrapped_results():
    system = focklab.bosons(2, 2)
    original = focklab.fock.annihilation
    expected = original(system, 1).matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert focklab.annihilation is not original
        got = tracer.run_op("t", 0, lambda: focklab.annihilation(system, 1))
        np.testing.assert_array_equal(got.matrix, expected)
        rho = tracer.run_op("t", 1, lambda: focklab.coherent(0.5, 12).density())
        assert isinstance(rho, focklab.DensityOperator)
        assert tracer.run_op("t", 2, np.linalg.eigvalsh, np.eye(3)).tolist() == [1, 1, 1]
    finally:
        tracer.uninstall()
    assert focklab.annihilation is original
    assert focklab.fock.annihilation is original
    calls = aggregate(tracer.spans())
    assert calls["fock.annihilation"]["calls"] == 1
    assert calls["fock.DensityOperator"]["calls"] == 1
    assert calls["linalg.eigvalsh"]["calls"] == 2          # the state's check and ours
    assert tracer.distinct_counts()["fock.annihilation"] == 1
    assert tracer.max_dim == 13


def test_unknown_experiment_counts_as_failed_and_the_pass_goes_on():
    ok_scenario = {"schema_version": 1, "experiment": "ghz_parity", "seed": 0}
    names = [c["name"] for c in focklab.cli.run_scenario(ok_scenario)["checks"]]
    ops = [scenario_op("scenario.nope", {"schema_version": 1, "experiment": "nope"},
                       None),
           scenario_op("scenario.ghz_parity", ok_scenario, names),
           scenario_op("scenario.ghz_renamed", ok_scenario, names[:-1])]
    records = run_pass(ops, {})
    assert [r["ok"] for r in records] == [False, True, False]
    assert "KeyError" in records[0]["problems"][0]
    assert "check names differ" in records[2]["problems"][0]


def test_import_times_takes_outermost_entries_of_each_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |         20 |         scipy",
        "import time:        30 |         50 |       scipy.linalg",
        "import time:        10 |        210 |     focklab.dynamics",
        "import time:         5 |        365 |   focklab",
    ])
    got = import_times(stderr)
    assert got == pytest.approx({"focklab": 365e-6, "scipy": 50e-6, "numpy": 150e-6})


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(99))) is None
    name, value = run.tail_percentile([float(i) for i in range(100)])
    assert name == "op_p90_s" and 89.0 <= value <= 90.0
