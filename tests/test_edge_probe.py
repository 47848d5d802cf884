"""The edges of each experiment's accepted domain (``tools/edge_probe.py``): the
cases of dim <= 256 run in process.  Each computes with passing checks, or is
refused with a ValueError whose message names the limit it crossed, and none
raises a RuntimeWarning."""

import importlib.util
import os
import re
import warnings

import pytest

from focklab.cli import run_experiment
from focklab.fock import MAX_DIM

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "focklab_edge_probe", os.path.join(ROOT, "tools", "edge_probe.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()
SMALL = [(k, case) for k, case in enumerate(TOOL.CASES) if case[2] <= 256]


@pytest.mark.parametrize("case", [case for _, case in SMALL],
                         ids=[f"{case[0]}-{k}" for k, case in SMALL])
def test_an_edge_computes_or_is_refused_for_its_limit(case):
    name, params, _, expect = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if expect is None:
            assert run_experiment(name, params)["overall_pass"]
        else:
            with pytest.raises(ValueError, match=re.escape(expect)):
                run_experiment(name, params)


def test_the_tool_probes_the_library_dim_limit():
    assert TOOL.MAX_DIM == MAX_DIM


def test_a_capped_child_reports_its_exit_message_time_and_peak():
    record = TOOL.run_case("twirl_coherent", {"nbar": 1e300, "cutoff": 10})
    assert record["exit"] == 2 and record["message"].startswith("error: insufficient cutoff")
    assert record["wall_s"] > 0 and record["peak_rss_mb"] > 0
    assert TOOL.verdict(record, "insufficient cutoff")
    assert not TOOL.verdict(record, None) and not TOOL.verdict(record, "MAX_DIM")
