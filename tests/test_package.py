"""The package's names and its lazily run layers.

Importing ``focklab`` runs none of its eight layers; each runs on first use.
Each check of what a fresh process holds runs in a child process.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

import focklab
from focklab import fock

LAYERS = ["dynamics", "fock", "lhv", "measurement", "sampling", "ssr", "states", "witnesses"]

# every public name of the package: the layers and the names it has always exported
PUBLIC = sorted(LAYERS + [
    "BOSE", "BeamSplitterSpec", "CHSHSetting", "DensityOperator", "DiscreteLHVModel",
    "FERMI", "LHVObservable", "Mode", "ModeSystem", "Observable", "Operator",
    "OutcomeDistribution", "Partition", "ProcessResult", "PureState", "SSRReport",
    "SectorDecomposition", "SeparableMixture", "SpinOps", "WitnessVerdict",
    "ZeroProbabilityError", "annihilation", "apply_unitary", "as_density",
    "atom_molecule_process", "beam_splitter", "bell_one_boson", "binomial_state", "bosons",
    "chsh", "clock_prob", "coherent", "cond_mean", "cond_prob", "cond_variance",
    "conditioned_state", "correlation_test", "creation", "dissociation_state",
    "evolution_operator", "expectation", "externalise", "extraction_experiment", "fermions",
    "ghz", "ghz_assignment_search", "ghz_parity", "integral_inequality_oracle", "internalise",
    "joint_prob", "lhv_chsh_bound_sweep", "lhv_from_separable", "lhv_joint",
    "lhv_mean_product", "mixed_N_boson", "number_op", "outcome_distribution", "partial_trace",
    "particle_entanglement", "pauli_ops", "phase_state", "poisson_pmf", "prob", "qcf",
    "qubits", "ramsey_vacuum_superposition", "sector_decompose",
    "separable_ssr_theorem_check", "singlet_spin", "spectral", "spin_epr", "spin_ops",
    "ssr_check", "ssr_propagation_check", "sum_inequality_oracle", "tensor_embed", "twirl",
    "two_mode_N_boson", "two_mode_coherent_mixture", "unitary_evolve", "unrecorded_state",
    "verstraete_state", "werner_qudit"])


def _child(code, *args):
    """The stdout of ``python -c code args`` with this focklab first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(focklab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


_NAMES = """
import json, sys, types
import focklab
ran = [n for n, m in sys.modules.items() if n.startswith("focklab.")
       and type(m) is types.ModuleType]
public = sorted(n for n in dir(focklab) if not n.startswith("_"))
# a write to a layer that has not run, and a deletion, outlast its source
focklab.lhv.ORACLE_RTOL = 0.5
del focklab.dynamics.SPLIT_FLOOR
star = {}
exec("from focklab import *", star)
print(json.dumps([ran, public, sorted(n for n in star if n != "__builtins__"),
                  focklab.lhv.ORACLE_RTOL, hasattr(focklab.dynamics, "SPLIT_FLOOR")]))
"""


def test_a_fresh_import_runs_no_layer_and_keeps_every_public_name():
    ran, public, star, written, deleted_kept = json.loads(_child(_NAMES))
    assert ran == []
    assert public == PUBLIC
    assert star == PUBLIC
    assert (written, deleted_kept) == (0.5, False)


def test_each_name_reads_its_layer_on_every_access(monkeypatch):
    # each public class and function is the object its layer defines, and a name
    # the benchmark's tracer rebinds in its layer shows through the package
    for name in focklab.__all__:
        value = getattr(focklab, name)
        if getattr(value, "__module__", "").startswith("focklab."):
            assert getattr(sys.modules[value.__module__], name) is value
    original = fock.annihilation
    monkeypatch.setattr(fock, "annihilation", len)
    assert focklab.annihilation is len
    monkeypatch.undo()
    assert focklab.annihilation is original
    assert not hasattr(focklab, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        from focklab import no_such_name  # noqa: F401


# eight threads, released at once by a barrier, each read names of layers that
# have not run: per name, the layer module, then the object through the layer and
# through the package
_THREADS = """
import json, sys, threading
import focklab

NAMES = [("dynamics", "extraction_experiment"), ("dynamics", "ProcessResult"),
         ("lhv", "DiscreteLHVModel"), ("witnesses", "CHSHSetting"),
         ("states", "SeparableMixture"), ("measurement", "Observable"), ("ssr", "SSRReport")]
barrier = threading.Barrier(8, timeout=30)
seen, errors = [], []


def read():
    barrier.wait()
    try:
        seen.append([[id(sys.modules["focklab." + layer]), id(getattr(focklab, layer)),
                      id(getattr(getattr(focklab, layer), name)), id(getattr(focklab, name))]
                     for layer, name in NAMES])
    except Exception as exc:
        errors.append(f"{type(exc).__name__}: {exc}")


# switch threads as often as the interpreter can, so a partly run layer would show
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=read) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
print(json.dumps([errors, len(seen),
                  [len({tuple(reads[k]) for reads in seen}) for k in range(len(NAMES))],
                  all(len(set(ids[:2])) == 1 and len(set(ids[2:])) == 1
                      for reads in seen for ids in reads)]))
"""


def test_threads_that_race_to_a_layer_each_read_the_whole_module():
    # the first read runs the layer under the package lock; every other thread
    # waits for it, so none reads a partly run module
    errors, reads, distinct, agree = json.loads(_child(_THREADS))
    assert errors == []
    assert reads == 8
    assert distinct == [1] * 7
    assert agree


_UNPICKLE = """
import pickle, sys, types
import focklab
record = pickle.loads(bytes.fromhex(sys.argv[1]))
print(type(record).__module__, type(sys.modules["focklab.ssr"]) is types.ModuleType,
      record == focklab.ssr.SSRReport(1e-3, False, 1e-10))
"""


def test_a_record_unpickles_in_a_process_whose_layer_has_not_run():
    blob = pickle.dumps(focklab.ssr.SSRReport(1e-3, False, 1e-10))
    assert _child(_UNPICKLE, blob.hex()).split() == ["focklab.ssr", "True", "True"]
