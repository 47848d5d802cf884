"""focklab: entanglement and number super-selection diagnostics on truncated
Fock spaces, with the dynamical protocols that probe them.

Importing the package runs none of its eight layers.  Each is registered in
``sys.modules`` as a module whose source is compiled and run on its first
attribute access (the deferred execution of PEP 690), once, under one package
lock.  The package's own names (PEP 562) read their layer on every access, so
a process compiles only the layers it calls.
"""

import importlib.util as _util
import sys as _sys
import threading as _threading
import types as _types

# every public name of the package, by the layer that defines it
_EXPORTS = {
    "fock": ("BOSE", "FERMI", "DensityOperator", "Mode", "ModeSystem", "Operator",
             "Partition", "PureState", "annihilation", "apply_unitary", "as_density",
             "bosons", "creation", "evolution_operator", "expectation", "fermions",
             "number_op", "partial_trace", "qubits", "tensor_embed", "unitary_evolve"),
    "measurement": ("Observable", "OutcomeDistribution", "ZeroProbabilityError",
                    "cond_mean", "cond_prob", "cond_variance", "conditioned_state",
                    "joint_prob", "outcome_distribution", "prob", "spectral",
                    "unrecorded_state"),
    "ssr": ("SSRReport", "SectorDecomposition", "clock_prob", "externalise",
            "internalise", "phase_state", "qcf", "sector_decompose",
            "separable_ssr_theorem_check", "ssr_check", "twirl"),
    "states": ("SeparableMixture", "bell_one_boson", "binomial_state", "coherent",
               "dissociation_state", "ghz", "mixed_N_boson", "poisson_pmf",
               "singlet_spin", "two_mode_N_boson", "two_mode_coherent_mixture",
               "verstraete_state", "werner_qudit"),
    "witnesses": ("CHSHSetting", "SpinOps", "WitnessVerdict", "chsh", "correlation_test",
                  "ghz_parity", "particle_entanglement", "pauli_ops", "spin_epr",
                  "spin_ops"),
    "lhv": ("DiscreteLHVModel", "LHVObservable", "ghz_assignment_search",
            "integral_inequality_oracle", "lhv_chsh_bound_sweep", "lhv_from_separable",
            "lhv_joint", "lhv_mean_product", "sum_inequality_oracle"),
    "dynamics": ("BeamSplitterSpec", "ProcessResult", "atom_molecule_process",
                 "beam_splitter", "extraction_experiment", "ramsey_vacuum_superposition",
                 "ssr_propagation_check"),
    "sampling": (),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_LAYER_OF]
__version__ = "0.1.0"

_LOCK = _threading.RLock()
_running = set()     # the layers whose source is running, on the thread that holds _LOCK


def _run(module):
    """Run a lazy layer's source, unless it has run or this thread is running it.

    The thread that runs it may re-enter and read the partly run module, as in a
    circular import; every other thread waits on the lock until it has run.  A
    source that raises leaves the layer lazy, so the next access runs it again."""
    with _LOCK:
        spec = object.__getattribute__(module, "__spec__")
        if type(module) is _Layer and spec.name not in _running:
            _running.add(spec.name)
            try:
                spec.loader.exec_module(module)
                object.__setattr__(module, "__class__", _types.ModuleType)
            finally:
                _running.discard(spec.name)


class _Layer(_types.ModuleType):
    """A layer whose source has not run: any attribute access runs it first.  It is
    then a plain module, so later accesses pay nothing."""

    def __getattribute__(self, attr):
        _run(self)
        return _types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)
        _types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        _types.ModuleType.__delattr__(self, attr)


def _register(layer):
    spec = _util.find_spec(f"{__name__}.{layer}")
    module = _util.module_from_spec(spec)
    module.__class__ = _Layer
    _sys.modules[spec.name] = globals()[layer] = module


for _layer in _EXPORTS:
    _register(_layer)
del _layer


def __getattr__(name):
    # read from the layer on every access, so that a rebound layer attribute shows here
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
