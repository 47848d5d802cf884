"""The golden record of focklab's reports: ``tests/golden_reports.json``.

The record holds, for every checked-in scenario at each of ``SEEDS`` and for
each scaled scenario of ``bench/workloads.py`` (``SCALED``, at seed 0), every
check's name, ``repr(actual)`` and ``passed``, and the environment the record
was written in: numpy's version, the BLAS numpy was built with and the CPU
model.  ``tests/test_golden_reports.py`` runs the same reports and compares.

Rewrite the record from the repository root with

    PYTHONPATH=src python tools/golden_reports.py

A change that moves the record lists each moved ``actual`` in CHANGES.md.
"""

from __future__ import annotations

import ast
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "golden_reports.json")
SEEDS = (0, 3, 77)


def environment():
    """numpy's version, the BLAS numpy was built with, and the CPU model."""
    import numpy
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
    return {"numpy": numpy.__version__, "blas": blas, "cpu_model": cpu}


def _scaled():
    """``SCALED`` of ``bench/workloads.py``, a literal read from its source, so
    that nothing of the benchmark runs."""
    with open(os.path.join(ROOT, "bench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SCALED"])


def scenarios():
    """``(key, scenario, seed)`` of every report the record holds, in record order."""
    folder = os.path.join(ROOT, "scenarios")
    out = []
    for fname in sorted(os.listdir(folder)):
        if fname.endswith(".json"):
            with open(os.path.join(folder, fname)) as fh:
                scenario = json.load(fh)
            out += [(f"{fname[:-5]}@{seed}", scenario, seed) for seed in SEEDS]
    for name, params in sorted(_scaled().items()):
        scenario = {"schema_version": 1, "experiment": name, "params": params}
        out.append((f"scaled.{name}@0", scenario, 0))
    return out


def checks(report):
    """``[name, repr(actual), passed]`` of each check of a report, in report order."""
    return [[c["name"], repr(c["actual"]), c["passed"]] for c in report["checks"]]


def reports():
    """The record's reports, run in this process: key -> ``checks``."""
    from focklab.cli import run_scenario
    return {key: checks(run_scenario(scenario, seed=seed))
            for key, scenario, seed in scenarios()}


def main():
    """Rewrite the record, one line per check, so that a moved ``actual`` is one
    line of its diff."""
    runs = reports()
    lines = ['{"environment": ' + json.dumps(environment()) + ',', ' "reports": {']
    for i, (key, rows) in enumerate(runs.items()):
        lines.append(f"  {json.dumps(key)}: [")
        lines += [f"   {json.dumps(row)}," for row in rows]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ]" + ("," if i + 1 < len(runs) else ""))
    lines.append(" }}")
    with open(RECORD, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {len(runs)} reports to {RECORD}\n")


if __name__ == "__main__":
    main()
