"""One workload in one fresh process (the benchmark's single closed-loop client).

    python bench/worker.py --workload W --seed N --seconds S --trace 0|1
                           --t0 MONOTONIC --out-dir DIR [--setup-only]

Set-up runs first: import, input generation and warm-up.  Then passes over
the workload's ops repeat until ``--seconds`` have gone by (at least one
pass).  With ``--trace 1`` one more pass runs with the tracer installed.
The last line of stdout is a JSON record of everything measured.
"""

from __future__ import annotations

import sys

if "cli_cold" not in sys.argv:
    # first, so that the import timings cover everything focklab loads
    import focklab  # noqa: F401

import argparse
import json
import os
import resource
import shutil
import statistics
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, aggregate, import_times, load_spans, write_spans  # noqa: E402
from workloads import WORKLOADS, HostProbe, run_pass  # noqa: E402


def traced_pass_in_process(workload):
    """One pass with the tracer installed in this process."""
    tracer = Tracer()
    tracer.install()
    try:
        records = run_pass(workload.ops, {}, tracer)
    finally:
        tracer.uninstall()
    return records, tracer.spans(), tracer.distinct_counts(), tracer.max_dim, {}


def traced_pass_children(workload, work_dir):
    """One pass of self-tracing child processes; their spans are merged with
    op id = the child's op index, and their import times are medians."""
    ops = workload.traced_ops(work_dir)
    op_ids = {op.name: i for i, op in enumerate(ops)}
    ctx = {}
    records = run_pass(ops, ctx)
    merged, distinct, max_dim, imports = [], {}, 0, []
    for name, stderr, path in ctx.get("traced_children", []):
        imports.append(import_times(stderr))
        if not os.path.exists(path):
            continue
        spans, child_distinct, child_dim = load_spans(path)
        base = len(merged)
        merged += [(n, s, e, p + base if p >= 0 else -1, op_ids[name])
                   for n, s, e, p, _ in spans]
        for k, v in child_distinct.items():
            distinct[k] = distinct.get(k, 0) + v
        max_dim = max(max_dim, child_dim)
    median_imports = {k: statistics.median(t[k] for t in imports) for k in imports[0]} \
        if imports else {}
    return records, merged, distinct, max_dim, median_imports


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--out-dir", required=True,
                        help="directory for the spans file and scratch inputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    build = WORKLOADS[args.workload]
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        record = measure(args, build(os.getcwd(), args.seed, work_dir), work_dir)
    finally:
        shutil.rmtree(work_dir)
    print(json.dumps(record))
    return 0


def measure(args, workload, work_dir):
    run_pass(workload.warmup, {})
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    passes, probe = [], HostProbe()
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(run_pass(workload.ops, {}, probe=probe))
    record = {"setup_s": setup_s, "passes": passes,
              "probe_s": statistics.median(probe.samples), "probes": len(probe.samples)}

    if args.trace:
        if workload.in_children:
            traced = traced_pass_children(workload, work_dir)
        else:
            traced = traced_pass_in_process(workload)
        records, spans, distinct, max_dim, imports = traced
        spans_path = os.path.join(args.out_dir, f"spans_{args.workload}.json")
        write_spans(spans_path, spans, distinct, max_dim)
        record.update(traced_pass=records, layers=aggregate(spans), distinct=distinct,
                      max_dim=max_dim, imports=imports, spans_file=spans_path)

    usage = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    record["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    return record


if __name__ == "__main__":
    sys.exit(main())
