"""Every report is its golden record, ``tests/golden_reports.json``.

The record holds each check's name, ``repr(actual)`` and verdict for the
checked-in scenarios at seeds 0, 3 and 77 and for the scaled scenarios of
``bench/workloads.py``.  In the environment it was written in (numpy, BLAS and
CPU model) a report must match it by ``repr``, bit for bit.  Elsewhere BLAS may
choose other kernels, so names and verdicts must match exactly and each float
``actual`` within ``RTOL`` of the recorded one, relative to max(1, |recorded|).
``tools/golden_reports.py`` rewrites the record.
"""

import importlib.util
import json
import math
import os

import pytest

from focklab.cli import run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RTOL = 1e-12


def _tool():
    spec = importlib.util.spec_from_file_location(
        "focklab_golden_reports", os.path.join(ROOT, "tools", "golden_reports.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()
with open(TOOL.RECORD) as _fh:
    RECORD = json.load(_fh)
CASES = TOOL.scenarios()


def _agrees(actual, recorded):
    """Whether ``actual`` is the recorded ``repr`` up to BLAS kernels: a float
    within ``RTOL`` relative to max(1, |recorded|), or both NaN; anything else
    by ``repr``."""
    if not isinstance(actual, float):
        return repr(actual) == recorded
    want = float(recorded)
    if math.isnan(want) or math.isnan(actual):
        return math.isnan(want) and math.isnan(actual)
    return actual == want or abs(actual - want) <= RTOL * max(1.0, abs(want))


def test_the_record_holds_each_report_once_in_order():
    assert list(RECORD["reports"]) == [key for key, _, _ in CASES]


@pytest.mark.parametrize("key, scenario, seed", CASES, ids=[key for key, _, _ in CASES])
def test_a_report_is_its_golden_record(key, scenario, seed):
    report = run_scenario(scenario, seed=seed)
    got, want = TOOL.checks(report), RECORD["reports"][key]
    if RECORD["environment"] == TOOL.environment():
        assert got == want
        return
    assert [(name, passed) for name, _, passed in got] == \
        [(name, passed) for name, _, passed in want]
    moved = [(c["name"], c["actual"], recorded)
             for c, (_, recorded, _) in zip(report["checks"], want)
             if not _agrees(c["actual"], recorded)]
    assert moved == []


def test_off_the_recorded_environment_a_float_may_move_by_its_tolerance_only():
    assert _agrees(0.5, "0.5") and _agrees(True, "True") and _agrees(64, "64")
    assert _agrees(1.0 + 5e-13, "1.0") and _agrees(3e-13, "1e-16")
    assert _agrees(2e12 * (1 + 5e-13), "2000000000000.0")
    assert _agrees(float("nan"), "nan") and _agrees(float("inf"), "inf")
    assert not _agrees(1.0 + 2e-12, "1.0") and not _agrees(2e-12, "0.0")
    assert not _agrees(2e12 * (1 + 2e-12), "2000000000000.0")
    assert not _agrees(float("nan"), "0.0") and not _agrees(0.0, "nan")
    assert not _agrees(False, "True") and not _agrees(63, "64") and not _agrees(1, "1.0")
