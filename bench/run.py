"""focklab benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a focklab checkout.  The workload runs in a fresh
worker process (``worker.py``) with BLAS/OpenMP threads pinned to 1, against
the sources in ``src/``.  Two more workers only set up, so that ``setup_s``
is a median of three.  End-to-end times are scaled to a reference host speed
by a probe timed between operations (README.md says why and how).  The
second-to-last line of stdout is a detail record
(environment, failures, per-op and per-function figures); the last line is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS, import_times  # noqa: E402
from workloads import PROBE_REF_S, WORKLOADS  # noqa: E402

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
OUT_DIR = ".bench_out"


def spawn_worker(args, env, deadline, setup_only=False, importtime=False):
    """Run one worker to completion; return (record, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker passed the benchmark deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1]), err


def environment(env):
    """Where the numbers were measured."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: env[k] for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def tail_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    best = None
    for tenths, label in ((900, "90"), (990, "99"), (999, "999")):
        if len(values) * (1000 - tenths) >= 10_000:
            best = (f"op_p{label}_s", statistics.quantiles(values, n=1000)[tenths - 1])
    return best


def end_to_end(record, setups):
    """End-to-end metrics, with times scaled to the reference host speed."""
    passes = record["passes"]
    walls = [r["wall_s"] for p in passes for r in p]
    raw = {"wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
           "op_p50_s": statistics.median(walls)}
    scale = PROBE_REF_S / record["probe_s"]
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (record["peak_rss_mb"], "MB")
    # the set-up workers ran just before this one, at the same host speed
    raw["setup_s"] = statistics.median(setups)
    metrics["setup_s"] = (raw["setup_s"] * scale, "s")
    by_op = {}
    for r in (r for p in passes for r in p):
        by_op.setdefault(r["op"], []).append(r["wall_s"])
    detail = {"unscaled": raw, "probe_s": record["probe_s"], "probes": record["probes"],
              "scale": scale,
              "op_samples": len(walls), "passes": len(passes),
              "op_medians_s": {op: statistics.median(v) for op, v in by_op.items()}}
    tail = tail_percentile(walls)
    if tail:
        detail[tail[0]] = tail[1]
    return metrics, detail


def per_layer(record, imports):
    """Per-layer metrics from the traced pass, plus the CLI split of the
    untraced passes.  Self times are summed over the one traced pass."""
    layers = record["layers"]
    metrics = {}
    for name, entry in layers.items():
        if name.startswith("op."):
            continue
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    for layer in LAYERS + ("linalg",):
        members = [e for n, e in layers.items() if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = (sum(e["calls"] for e in members), "count")
        metrics[f"{layer}.self_s"] = (sum(e["self_s"] for e in members), "s")
    for name in ("fock.annihilation", "measurement.spectral"):
        calls = layers.get(name, {}).get("calls", 0)
        metrics[f"{name}.distinct_ratio"] = (
            record["distinct"].get(name, 0) / calls if calls else 0.0, "1")
    for pkg, seconds in imports.items():
        metrics[f"import.{pkg}_s"] = (seconds, "s")

    scenario_passes = [[r for r in p if r["report_wall_s"] is not None]
                       for p in record["passes"]]
    metrics["cli.startup_s"] = (statistics.median(
        sum(r["wall_s"] - r["report_wall_s"] for r in p) for p in scenario_passes), "s")
    metrics["cli.compute_s"] = (statistics.median(
        sum(r["report_wall_s"] for r in p) for p in scenario_passes), "s")
    metrics["cli.checks_run"] = (sum(r["checks_run"] for r in record["traced_pass"]),
                                 "count")
    metrics["linalg.max_dim"] = (record["max_dim"], "count")

    traced_wall = sum(r["wall_s"] for r in record["traced_pass"])
    untraced_wall = statistics.median(
        sum(r["wall_s"] for r in p) for p in record["passes"])
    attributed = sum(e["self_s"] for n, e in layers.items() if not n.startswith("op."))
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_share"] = (1.0 - attributed / traced_wall, "1")
    return metrics


def declared(kind):
    """(name, unit) of the metrics BENCHMARK.json declares under ``kind``."""
    with open("BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    for need in ("src/focklab/__init__.py", "scenarios", "BENCHMARK.json"):
        if not os.path.exists(need):
            sys.stderr.write(f"error: run from a focklab checkout; {need} is missing\n")
            return 2
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        setups = [] if args.trace else [
            spawn_worker(args, env, deadline, setup_only=True)[0]["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        record, stderr = spawn_worker(args, env, deadline, importtime=bool(args.trace))
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    setups.append(record["setup_s"])

    records = record["passes"] + [record.get("traced_pass") or []]
    records = [r for p in records for r in p]
    failed = [r for r in records if not r["ok"]]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(env),
        "failed_ratio": len(failed) / len(records),
        "failures": [{"op": r["op"], "problems": r["problems"]} for r in failed[:10]],
        "setup_samples": setups,
        "pass_walls": [sum(r["wall_s"] for r in p) for p in record["passes"]],
    }
    if args.trace:
        imports = record["imports"] or import_times(stderr)
        all_metrics = per_layer(record, imports)
        detail["spans_file"] = record["spans_file"]
        names = declared("per_layer")
    else:
        all_metrics, extra = end_to_end(record, setups)
        detail.update(extra)
        names = declared("end_to_end")
    detail["all_metrics"] = {k: v for k, (v, _) in sorted(all_metrics.items())}
    print(json.dumps(detail))
    # a function no op called has no spans: it made 0 calls in 0 s
    metrics = {n: {"value": all_metrics.get(n, (0, unit))[0], "unit": unit}
               for n, unit in names}
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
