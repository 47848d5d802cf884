"""Workload definitions: seeded inputs, timed operations and their checks.

Every operation is a callable timed on its own; its output is checked by a
separate callable that runs outside the timed region.  An operation fails
when it raises, exits non-zero, reports ``overall_pass`` false, reports a set
of check names other than the recorded one, or misses a library invariant.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_CHECKS = os.path.join(HERE, "expected_checks.json")

# The scenarios whose cost grows with dim, at parameters that reach dim ~1000.
SCALED = {
    "two_mode_coherent_mixture": {"cutoff": 31, "alpha": 2.0},   # dim 1024
    "atom_molecule": {"n_values": [250]},                       # dim 1004
    "twirl_coherent": {"cutoff": 1000, "nbar": 50.0},           # dim 1001
}
# Library-session cutoffs of bosons(2, c): the full session runs at dim
# (c + 1)^2 = 1024; sector_decompose, particle_entanglement and
# unrecorded_state run at 256 because one call takes 29-537 s at 1024.
LIB_CUTOFF = 31
LIB_SMALL_CUTOFF = 15
INVARIANT_ATOL = 1e-10

# Host-speed probe.  Other tenants of the host slow every process on it by up
# to ~2x for minutes at a time.  A fixed pure-Python loop timed between ops
# slows by a similar factor, so times scaled by PROBE_REF_S / (median probe)
# vary far less across runs.  PROBE_REF_S is the probe's time on the unloaded
# machine where the benchmark was defined (2-core Intel Xeon, Python 3.11.7).
PROBE_LOOPS = 100_000
PROBE_REF_S = 0.0056
PROBE_EVERY_S = 0.5


@dataclass
class Op:
    """One timed operation.  ``run(ctx)`` is timed; ``check(result)`` is not
    and returns ``(problems, report)``, report being the focklab report dict
    when the operation produced one."""

    name: str
    run: Callable
    check: Callable


class HostProbe:
    """Samples of the time a fixed pure-Python loop takes, taken between ops:
    one per op, plus one per PROBE_EVERY_S the ops took."""

    def __init__(self):
        self.samples = []
        self._last = time.perf_counter()

    def sample(self):
        due = 1 + int((time.perf_counter() - self._last) / PROBE_EVERY_S)
        for _ in range(due):
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i * i
            self.samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()


def run_pass(ops, ctx, tracer=None, probe=None):
    """Run every op once, in order; return one record per op.

    An op that raises is recorded as failed and the pass goes on.  With a
    ``probe``, the host speed is sampled before each op (untimed).
    """
    records = []
    for op_id, op in enumerate(ops):
        if probe is not None:
            probe.sample()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run(ctx)
            else:
                result = tracer.run_op(op.name, op_id, op.run, ctx)
            error = None
        except Exception as exc:   # a failing op is counted, not fatal
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        report = None
        if error is None:
            try:
                problems, report = op.check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        result = None   # free it here, not inside the next op's timed region
        records.append({
            "op": op.name,
            "wall_s": wall,
            "ok": not problems,
            "problems": problems,
            "report_wall_s": report["wall_time_s"] if report else None,
            "checks_run": len(report["checks"]) if report else 0,
        })
    return records


# -- scenario inputs ------------------------------------------------------------


def scenario_inputs(root, seed):
    """The checked-in scenarios, each re-seeded from the workload seed."""
    rng = random.Random(seed)
    folder = os.path.join(root, "scenarios")
    out = []
    for fname in sorted(os.listdir(folder)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(folder, fname)) as fh:
            scenario = json.load(fh)
        scenario["seed"] = rng.randrange(2 ** 31)
        out.append(scenario)
    if not out:
        raise FileNotFoundError(f"no scenario files in {folder}")
    return out


def load_expected():
    with open(EXPECTED_CHECKS) as fh:
        return json.load(fh)


def check_report(report, expected):
    """Problems with one focklab report against its recorded check names."""
    problems = []
    if not report.get("overall_pass"):
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        problems.append(f"overall_pass false: {failed}")
    names = sorted(c["name"] for c in report["checks"])
    if expected is None:
        problems.append("no recorded check-name set for this operation")
    elif names != sorted(expected):
        problems.append(f"check names differ from the recorded set: {names}")
    return problems


def scenario_op(name, scenario, expected):
    # focklab names are looked up at call time, so that a traced pass calls
    # the wrapped functions
    import focklab.cli

    def check(report):
        return check_report(report, expected), report

    return Op(name, lambda ctx: focklab.cli.run_scenario(scenario), check)


def cli_op(name, path, expected, root, spans_path=None):
    """A fresh ``python -m focklab.cli <file>`` process; traced through the
    bootstrap in ``cli_child.py`` when ``spans_path`` is given."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "focklab.cli", path]
    else:
        cmd = [sys.executable, "-X", "importtime",
               os.path.join(HERE, "cli_child.py"), spans_path, path]

    def run(ctx):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if spans_path is not None:
            ctx.setdefault("traced_children", []).append((name, proc.stderr, spans_path))
        return proc

    def check(proc):
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr else []
            return [f"exit code {proc.returncode}: {tail}"], None
        report = json.loads(proc.stdout)
        return check_report(report, expected), report

    return Op(name, run, check)


# -- dense library session -------------------------------------------------------


def block_diagonal(system, rng, hermitian=False):
    """Random matrix, block-diagonal over total-number sectors.

    ``hermitian=False`` gives a density matrix (Ginibre blocks with Dirichlet
    sector weights); ``hermitian=True`` a number-conserving Hamiltonian.
    """
    import numpy as np
    totals = system.occupancies.sum(axis=1)
    sectors = np.unique(totals)
    weights = rng.dirichlet(np.ones(len(sectors)))
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    for w, n in zip(weights, sectors):
        sel = np.nonzero(totals == n)[0]
        g = rng.standard_normal((len(sel),) * 2) + 1j * rng.standard_normal((len(sel),) * 2)
        block = 0.5 * (g + g.conj().T) if hermitian else g @ g.conj().T
        if not hermitian:
            block *= w / np.real(np.trace(block))
        mat[np.ix_(sel, sel)] = block
    mat = 0.5 * (mat + mat.conj().T)
    if not hermitian:
        mat /= np.real(np.trace(mat))
    return mat


def library_inputs(seed, cutoff, small_cutoff):
    """Seeded states and Hamiltonian for the library session."""
    import numpy as np
    from focklab import DensityOperator, Operator, Partition, bosons
    rng = np.random.default_rng(seed)
    big = bosons(2, cutoff)
    small = bosons(2, small_cutoff)
    return {
        "system": big,
        "rho": DensityOperator(big, block_diagonal(big, rng)),
        "h": Operator(big, block_diagonal(big, rng, hermitian=True)),
        "t": float(rng.uniform(0.2, 1.0)),
        "small_system": small,
        "small_rho": DensityOperator(small, block_diagonal(small, rng)),
        "partition": Partition([("A", (0,)), ("B", (1,))]),
    }


def _close(actual, expected, what, atol=INVARIANT_ATOL):
    if abs(actual - expected) > atol:
        return [f"{what}: {actual} differs from {expected} by more than {atol}"]
    return []


def library_ops(inp):
    """Tasks of the README library example on the seeded inputs."""
    import numpy as np
    import focklab as fl
    system, rho, part = inp["system"], inp["rho"], inp["partition"]
    small, small_rho = inp["small_system"], inp["small_rho"]
    n_a_levels = system.modes[0].cutoff + 1
    n_a_counts = system.occupancies[:, 0]

    def n_a_op(sys_):
        return fl.tensor_embed(fl.number_op(fl.ModeSystem([sys_.modes[0]])), sys_, (0,))

    def resolve(ctx):
        tw = fl.twirl(rho, fl.number_op(system))
        reduced = fl.partial_trace(rho, part, "A")
        ctx["n_a"] = n_a_op(system)
        ctx["obs"] = fl.spectral(ctx["n_a"])
        return tw, reduced, ctx["obs"]

    def check_resolve(out):
        tw, reduced, obs = out
        problems = _close(float(np.abs(tw.matrix - rho.matrix).max()), 0.0,
                          "twirl of a number-block-diagonal state")
        problems += _close(np.real(np.trace(reduced.matrix)), 1.0, "reduced trace")
        if len(obs.eigenvalues) != n_a_levels or \
                not np.allclose(obs.eigenvalues, np.arange(n_a_levels), atol=1e-8):
            problems.append(f"n_A spectrum {obs.eigenvalues[:4]}... is not 0..{n_a_levels - 1}")
        return problems, None

    def outcomes(ctx):
        return fl.outcome_distribution(rho, ctx["obs"])

    def check_outcomes(dist):
        probs = np.array([p for _, p in dist.outcomes])
        problems = _close(probs.sum(), 1.0, "outcome probabilities sum")
        diag = np.real(np.diag(rho.matrix))
        direct = np.bincount(n_a_counts, weights=diag, minlength=n_a_levels)
        problems += _close(float(np.abs(probs - direct).max()), 0.0,
                           "outcome probabilities against the diagonal")
        return problems, None

    def evolve(ctx):
        return fl.expectation(rho, ctx["n_a"]), fl.unitary_evolve(inp["h"], inp["t"], rho)

    def check_evolve(out):
        mean, evolved = out
        direct = float(np.real(np.diag(rho.matrix)) @ n_a_counts)
        problems = _close(mean, direct, "<n_A>")
        problems += _close(np.real(np.trace(evolved.matrix)), 1.0, "evolved trace")
        totals = system.occupancies.sum(axis=1)
        before = np.bincount(totals, weights=np.real(np.diag(rho.matrix)))
        after = np.bincount(totals, weights=np.real(np.diag(evolved.matrix)))
        problems += _close(float(np.abs(before - after).max()), 0.0,
                           "total-number weights under a conserving H")
        return problems, None

    def sectors(ctx):
        return fl.sector_decompose(small_rho, fl.number_op(small))

    def check_sectors(dec):
        return _close(sum(dec.weights().values()), 1.0, "sector weights sum"), None

    def entanglement(ctx):
        return fl.particle_entanglement(small_rho, part)

    def check_entanglement(ep):
        if not ep >= 0.0:
            return [f"E_P = {ep} is negative"], None
        return [], None

    def unrecorded(ctx):
        return fl.unrecorded_state(small_rho, fl.spectral(n_a_op(small)))

    def check_unrecorded(out):
        problems = _close(np.real(np.trace(out.matrix)), 1.0, "unrecorded trace")
        problems += _close(float(np.abs(out.diagonal() - small_rho.diagonal()).max()),
                           0.0, "populations under an unrecorded n_A measurement")
        return problems, None

    return [
        Op("lib.twirl_trace_spectral", resolve, check_resolve),
        Op("lib.outcome_distribution", outcomes, check_outcomes),
        Op("lib.expectation_evolve", evolve, check_evolve),
        Op("lib_small.sector_decompose", sectors, check_sectors),
        Op("lib_small.particle_entanglement", entanglement, check_entanglement),
        Op("lib_small.unrecorded_state", unrecorded, check_unrecorded),
    ]


# -- workloads ------------------------------------------------------------------------


@dataclass
class Workload:
    """Ops for one pass; ``warmup`` runs once untimed during set-up."""

    ops: list
    warmup: list
    # (spans_dir) -> ops that trace themselves in child processes; None when
    # the ops run in the worker and the worker traces them
    traced_ops: Callable = None

    @property
    def in_children(self):
        return self.traced_ops is not None


def cli_cold(root, seed, work_dir):
    expected = load_expected()["scenarios"]
    paths = []
    for scenario in scenario_inputs(root, seed):
        path = os.path.join(work_dir, scenario["experiment"] + ".json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        paths.append((scenario["experiment"], path))

    def ops(spans_dir=None):
        return [cli_op(f"cli.{name}", path, expected.get(name), root,
                       None if spans_dir is None
                       else os.path.join(spans_dir, f"{name}.spans.json"))
                for name, path in paths]

    # warm-up: one CLI process, so the first timed one finds the byte code
    # compiled and the files cached
    listing = Op("cli.list", lambda ctx: subprocess.run(
        [sys.executable, "-m", "focklab.cli", "--list"], cwd=root,
        capture_output=True, check=True), lambda proc: ([], None))
    return Workload(ops(), [listing], traced_ops=ops)


def scenarios_warm(root, seed, work_dir):
    expected = load_expected()["scenarios"]
    ops = [scenario_op(f"scenario.{s['experiment']}", s, expected.get(s["experiment"]))
           for s in scenario_inputs(root, seed)]
    return Workload(ops, ops)


def dense_large(root, seed, work_dir):
    expected = load_expected()["scaled"]
    rng = random.Random(seed)
    ops = []
    for name in sorted(SCALED):
        scenario = {"schema_version": 1, "experiment": name,
                    "params": SCALED[name], "seed": rng.randrange(2 ** 31)}
        ops.append(scenario_op(f"scaled.{name}", scenario, expected.get(name)))
    ops += library_ops(library_inputs(seed, LIB_CUTOFF, LIB_SMALL_CUTOFF))
    # warm-up: the same code paths at the checked-in parameters and dim <= 16
    warm = [scenario_op(f"warmup.{s['experiment']}", s, None)
            for s in scenario_inputs(root, seed) if s["experiment"] in SCALED]
    warm += library_ops(library_inputs(seed, 3, 2))
    return Workload(ops, warm)


WORKLOADS = {
    "cli_cold": cli_cold,
    "scenarios_warm": scenarios_warm,
    "dense_large": dense_large,
}
