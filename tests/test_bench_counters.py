"""The per-layer call counters that BENCHMARK.json names count something.

The benchmark's tracer (``bench/tracer.py``) wraps focklab's public functions
by name, so a counter reads 0 when its function is renamed, or when the
scenarios call some other name for the same work.
"""

import importlib.util
import json
import os

import focklab.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the work every warm pass of the scenarios does under these names
MUST_COUNT = ("measurement.prob", "measurement.joint_prob", "measurement.unrecorded_state",
              "ssr.qcf", "witnesses.spin_epr")


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "focklab_bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_per_layer_call_counter_names_a_wrapped_function_and_the_sweeps_count():
    module = _tracer_module()
    wrapped = set()

    class RecordingTracer(module.Tracer):
        def wrap(self, name, func, observe=None):
            wrapped.add(name)
            return super().wrap(name, func, observe)

    tracer = RecordingTracer()
    tracer.install()
    try:
        folder = os.path.join(ROOT, "scenarios")
        for op_id, fname in enumerate(sorted(os.listdir(folder))):
            with open(os.path.join(folder, fname)) as fh:
                scenario = json.load(fh)
            report = tracer.run_op(fname, op_id, focklab.cli.run_scenario, scenario)
            assert report["overall_pass"], fname
    finally:
        tracer.uninstall()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    # "<layer>.<name>.calls"; "<layer>.calls" counts the whole layer
    named = {m[:-len(".calls")] for m in metrics if m.endswith(".calls") and m.count(".") > 1}
    assert set(MUST_COUNT) <= named
    assert sorted(named - wrapped) == []
    # a name is aggregated once it has made a call
    calls = module.aggregate(tracer.spans())
    assert [name for name in MUST_COUNT if name not in calls] == []
