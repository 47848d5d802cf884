"""Run each experiment at the edges of its accepted domain, one child process at
a time, and record how each edge ends.

The edges are the largest cutoff or count inside ``MAX_DIM`` and the work
budget (``MAX_DIM**2`` array entries), the smallest ones, nbar near the dim
limit, kappa at 1e+-300 and r at 0 and 1 and near them, with a step past a
limit where one applies.  Each case runs the focklab CLI on a scenario file in
a child whose address space is capped as ``ulimit -v`` caps it (RLIMIT_AS).
The tool prints one JSON line per case: the exit code, the last stderr line,
the wall time and the child's peak RSS.

An edge passes when it exits 0, or exits 2 with a message that holds the text
its case names (the limit it crossed), and no ``RuntimeWarning`` reaches
stderr.  ``dim`` is the side of the case's largest dense matrix; a count at
the work budget is given as dim ``MAX_DIM``, the side of a matrix of that many
entries.  ``tests/test_edge_probe.py`` runs the cases of dim <= 256 in
process, and checks that ``MAX_DIM`` here is ``focklab.fock.MAX_DIM``.

    python tools/edge_probe.py

runs every case, each child capped at ``CAP_MB`` and killed after ``TIMEOUT``
seconds; it exits 1 when a case did not end as its edge requires.

Standard library only in this process; the children import focklab from
``src``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_DIM = 4096     # fock.MAX_DIM, not imported: this process runs no focklab
BUDGET = MAX_DIM ** 2
CAP_MB = 4096      # address space of each child, in MiB
TIMEOUT = 900.0    # seconds before a child is killed

# (experiment, params, dim, None when the edge must compute, else a text its
# exit-2 message must hold)
CASES = [
    ("ghz_parity", {}, 8, None),
    ("lhv_ghz_search", {}, 1, None),
    ("verstraete", {}, 16, None),
    ("twirl_coherent", {"nbar": 0.0, "cutoff": 0}, 1, None),
    ("twirl_coherent", {"nbar": 100.0, "cutoff": 200}, 201, None),
    ("twirl_coherent", {"nbar": 1e300, "cutoff": 10}, 11, "insufficient cutoff"),
    ("twirl_coherent", {"nbar": 1430.0, "cutoff": 1790}, 1791, None),
    ("twirl_coherent", {"nbar": 2.0, "cutoff": MAX_DIM - 1}, MAX_DIM, None),
    ("twirl_coherent", {"nbar": 2.0, "cutoff": MAX_DIM}, MAX_DIM + 1, "MAX_DIM"),
    ("qcf_theorem", {"n_states": 1, "cutoff": 0, "max_order": 0}, 1, None),
    ("qcf_theorem", {"n_states": 1, "cutoff": 63, "max_order": 1}, MAX_DIM, None),
    ("qcf_theorem", {"n_states": 1, "cutoff": 64}, 65 ** 2, "MAX_DIM"),
    ("qcf_theorem", {"n_states": BUDGET // 16, "cutoff": 0, "max_order": 1}, MAX_DIM, None),
    ("qcf_theorem", {"n_states": BUDGET // 16 + 1, "cutoff": 0, "max_order": 1}, MAX_DIM,
     "exceed the budget"),
    ("chsh_singlet", {"n_settings": 1}, 4, None),
    ("chsh_singlet", {"n_settings": BUDGET}, MAX_DIM, None),
    ("chsh_singlet", {"n_settings": BUDGET + 1}, MAX_DIM, "exceed the budget"),
    ("chsh_separable_bound", {"n_mixtures": 1, "n_settings": 1}, 4, None),
    ("chsh_separable_bound", {"n_mixtures": BUDGET // 16, "n_settings": 16}, MAX_DIM, None),
    ("lhv_chsh_bound", {"n_models": 1, "n_settings": 1}, 1, None),
    ("lhv_chsh_bound", {"n_models": MAX_DIM, "n_settings": MAX_DIM}, MAX_DIM, None),
    ("extraction", {"r_values": [0.0]}, 256, "no weight"),
    ("extraction", {"r_values": [1.0]}, 256, "no weight"),
    ("extraction", {"r_values": [0.5, 1e-300]}, 256, "no weight"),
    ("extraction", {"r_values": [1e-3, 0.5, 0.999]}, 256, None),
    ("atom_molecule", {"n_values": [1], "kappa": 1e-300}, 8, None),
    ("atom_molecule", {"n_values": [1], "kappa": 1e300}, 8, None),
    ("atom_molecule", {"n_values": [1], "kappa": 1.7e-308}, 8, None),
    ("atom_molecule", {"n_values": [1], "kappa": 1.66e-308}, 8, "too weak"),
    ("atom_molecule", {"n_values": [1], "kappa": 1e-320}, 8, "too weak"),
    ("atom_molecule", {"n_values": [1], "kappa": 0.0}, 8, "must be nonzero"),
    ("atom_molecule", {"n_values": [MAX_DIM // 4 - 1]}, MAX_DIM, None),
    ("atom_molecule", {"n_values": [MAX_DIM // 4]}, MAX_DIM + 4, "MAX_DIM"),
    ("vacuum_interferometer", {"n_draws": 1}, 4, None),
    ("vacuum_interferometer", {"n_draws": BUDGET // 16}, MAX_DIM, None),
    ("two_mode_coherent_mixture", {"alpha": 0.0, "cutoff": 0, "n_phases": 1}, 1, None),
    ("two_mode_coherent_mixture", {"alpha": 1.0, "cutoff": 15, "n_phases": 31}, 256, None),
    ("two_mode_coherent_mixture", {"alpha": 1.0, "cutoff": 63, "n_phases": 127}, MAX_DIM,
     None),
    ("measurement_identities", {"n_states": 1}, 9, None),
    ("measurement_identities", {"n_states": BUDGET // 81}, MAX_DIM, None),
    ("separability_ssr", {"n_mixtures": 1}, 9, None),
    ("separability_ssr", {"n_mixtures": BUDGET // 81}, MAX_DIM, None),
    ("particle_entanglement", {"n_mixtures": 1}, 16, None),
    ("particle_entanglement", {"n_mixtures": BUDGET // 81}, MAX_DIM, None),
    ("spin_epr_bound", {"n_mixtures": 1}, 16, None),
    ("spin_epr_bound", {"n_mixtures": BUDGET // 256}, MAX_DIM, None),
    ("appendix_inequalities", {"n_samples": 1}, 1, None),
    ("appendix_inequalities", {"n_samples": BUDGET}, MAX_DIM, None),
    ("phase_clock", {"n_max_values": [1]}, 2, None),
    ("phase_clock", {"n_max_values": [MAX_DIM - 1]}, MAX_DIM, None),
    # r whose split keeps too little weight for its 1e-12 checks; listed last, so
    # that each earlier case keeps its index
    ("extraction", {"r_values": [1e-5]}, 256, "SPLIT_FLOOR = 1e-06"),
    ("extraction", {"r_values": [1e-4]}, 256, "SPLIT_FLOOR = 1e-06"),
    ("extraction", {"r_values": [0.9999]}, 256, "SPLIT_FLOOR = 1e-06"),
    ("extraction", {"r_values": [1 - 1e-5]}, 256, "SPLIT_FLOOR = 1e-06"),
]


# the child: the CLI, then its own peak RSS as the last stderr line, also after a traceback
CHILD = """import atexit, resource, sys
atexit.register(lambda: sys.stderr.write(
    f"peak_rss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\\n"))
from focklab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_case(name, params):
    """One case in a capped child: exit code, last stderr line, wall time, peak RSS."""
    scenario = {"schema_version": 1, "experiment": name, "params": params, "seed": 0}
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "edge.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        cap = CAP_MB << 20
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, path], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        try:
            err = child.communicate(timeout=TIMEOUT)[1].decode(errors="replace")
        except subprocess.TimeoutExpired:
            child.kill()
            err = child.communicate()[1].decode(errors="replace") + f"timed out after {TIMEOUT} s"
        wall = time.perf_counter() - start
    lines = err.strip().splitlines()
    peak = lines.pop() if lines and lines[-1].startswith("peak_rss_kb ") else None
    return {"experiment": name, "params": params, "exit": child.returncode,
            "message": lines[-1] if lines else "", "wall_s": round(wall, 3),
            "peak_rss_mb": round(int(peak.split()[1]) / 1024, 1) if peak else None,
            "runtime_warning": "RuntimeWarning" in err}


def verdict(record, expect):
    """Whether a case ended as its edge requires."""
    if record["runtime_warning"]:
        return False
    if expect is None:
        return record["exit"] == 0
    return record["exit"] == 2 and expect in record["message"]


def main():
    failed = 0
    for name, params, dim, expect in CASES:
        record = run_case(name, params)
        record["dim"], record["ok"] = dim, verdict(record, expect)
        failed += not record["ok"]
        print(json.dumps(record), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
