"""Each function that a scenario sweep stacks has one name, which takes one
item or a non-empty sequence of them.

One item gives the result of a one-element sequence's entry 0, with its type
and its bits; an empty sequence raises; a state on another system is named by
its index.
"""

import math

import numpy as np
import pytest

from focklab import (
    DensityOperator,
    Operator,
    Partition,
    bosons,
    extraction_experiment,
    joint_prob,
    number_op,
    partial_trace,
    particle_entanglement,
    prob,
    qcf,
    qubits,
    ramsey_vacuum_superposition,
    separable_ssr_theorem_check,
    spectral,
    spin_epr,
    twirl,
    unitary_evolve,
    unrecorded_state,
)
from focklab.dynamics import ProcessResult
from focklab.measurement import unrecorded_conditioned_variance
from focklab.sampling import (
    random_density,
    random_global_ssr_state,
    random_number_diagonal_mixture,
    random_one_boson_pair_mixture,
    random_qubit_pair_mixture,
)
from focklab.states import SeparableMixture
from focklab.witnesses import chsh_correlation_tensor

SYSTEM = bosons(2, 2)
PART = Partition([("A", (0,)), ("B", (1,))])
OBS_A = spectral(number_op(SYSTEM, [1, 0]))
OBS_B = spectral(number_op(SYSTEM, [0, 1]))
PAIRS = bosons(4, 1)
PAIR_PART = Partition([("one", (0, 1)), ("two", (2, 3))])


def _states(system, count):
    """``count`` random states on ``system``, and one on a relabelled copy of it."""
    rng = np.random.default_rng(count)
    elsewhere = bosons(system.n_modes, system.modes[0].cutoff,
                       labels=[f"x{i}" for i in range(system.n_modes)])
    return random_density(system, rng, count + 1)[:count], random_density(elsewhere, rng)


# name -> (call on one item or a sequence, the system of the states); each
# is called on random states of that system
STATE_FUNCTIONS = {
    "prob": (lambda x: prob(x, OBS_A.projectors[1]), SYSTEM),
    "joint_prob": (lambda x: joint_prob(x, [OBS_A.projectors[1], OBS_B.projectors[0]]),
                   SYSTEM),
    "unrecorded_state": (lambda x: unrecorded_state(x, OBS_B), SYSTEM),
    "unrecorded_conditioned_variance": (
        lambda x: unrecorded_conditioned_variance(x, OBS_A, OBS_B), SYSTEM),
    "partial_trace": (lambda x: partial_trace(x, PART, "A"), SYSTEM),
    "twirl": (lambda x: twirl(x, number_op(SYSTEM)), SYSTEM),
    "qcf": (lambda x: qcf(x, [(1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 0)]), SYSTEM),
    "spin_epr": (lambda x: spin_epr(x, PAIR_PART), PAIRS),
    "particle_entanglement": (lambda x: particle_entanglement(x, PART), SYSTEM),
    "chsh_correlation_tensor": (chsh_correlation_tensor, qubits(2)),
}


def _mixtures(count):
    return random_number_diagonal_mixture(SYSTEM, PART, np.random.default_rng(count), count)


def _seeded(sampler):
    """``sampler(rng, n)`` with a fresh generator of one seed per call."""
    return lambda n: sampler(np.random.default_rng(5), n)


SAMPLERS = {
    "random_density": _seeded(lambda rng, n: random_density(SYSTEM, rng, n)),
    "random_global_ssr_state": _seeded(lambda rng, n: random_global_ssr_state(SYSTEM, rng, n)),
    "random_qubit_pair_mixture": _seeded(random_qubit_pair_mixture),
    "random_number_diagonal_mixture": _seeded(
        lambda rng, n: random_number_diagonal_mixture(SYSTEM, PART, rng, n)),
    "random_one_boson_pair_mixture": _seeded(random_one_boson_pair_mixture),
}

R_VALUES, T_VALUES = [0.6, 0.3], [0.8, math.sqrt(0.91)]
TIMES = [0.7, -1.9]
HOPPING = number_op(SYSTEM) + Operator(SYSTEM, np.diag(np.ones(SYSTEM.dim - 3), 3)
                                       + np.diag(np.ones(SYSTEM.dim - 3), -3))
RAMSEY = [[math.sqrt(0.3), 1.0], [math.sqrt(0.7) * np.exp(0.4j), 0.0], [1.1, 0.2], [0.7, 2.0]]

# name -> (one item, sequence of count items); with count 0 the sequence is empty
CASES = {
    **{name: (lambda call=call, system=system: call(_states(system, 1)[0][0]),
              lambda count, call=call, system=system: call(_states(system, count)[0]))
       for name, (call, system) in STATE_FUNCTIONS.items()},
    "separable_ssr_theorem_check": (lambda: separable_ssr_theorem_check(_mixtures(1)[0]),
                                    lambda count: separable_ssr_theorem_check(_mixtures(count))),
    "extraction_experiment": (
        lambda: extraction_experiment("two_boson", R_VALUES[0], T_VALUES[0]),
        lambda count: extraction_experiment("two_boson", R_VALUES[:count], T_VALUES[:count])),
    "unitary_evolve": (
        lambda: unitary_evolve(HOPPING, TIMES[0], _states(SYSTEM, 1)[0][0]),
        lambda count: unitary_evolve(HOPPING, TIMES[:count], _states(SYSTEM, 1)[0][0])),
    "ramsey_vacuum_superposition": (
        lambda: ramsey_vacuum_superposition(*(values[0] for values in RAMSEY)),
        lambda count: ramsey_vacuum_superposition(*(values[:count] for values in RAMSEY))),
    **{name: (lambda sample=sample: sample(None), lambda count, sample=sample: sample(count))
       for name, sample in SAMPLERS.items()},
}


def _entry(name, result, i):
    """Entry ``i`` of a sequence's result; the interferometer gives two arrays."""
    if name == "ramsey_vacuum_superposition":
        return result[0][i], result[1][i]
    return result[i]


def _bits(value):
    """Every bit of a result, the sign of a zero included."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, DensityOperator):
        return value.system, _bits(value.matrix)
    if isinstance(value, SeparableMixture):
        return _bits(value.probabilities), [(k, _bits(v)) for k, v in value.factors.items()]
    if isinstance(value, ProcessResult):
        return [_bits(state.amplitudes) for _, state in value.stages], repr(value.quantities)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return float(value).hex()
    return repr(value)


def test_there_are_nineteen_merged_names():
    assert len(CASES) == 19


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # qcf saturation at the cutoff
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_item_is_entry_0_of_a_sequence_of_one(name):
    one, many = CASES[name]
    single, first = one(), _entry(name, many(1), 0)
    assert isinstance(first, type(single))
    assert _bits(single) == _bits(first)
    with pytest.raises(ValueError):
        many(0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(STATE_FUNCTIONS))
def test_a_state_on_another_system_is_named_by_its_index(name):
    call, system = STATE_FUNCTIONS[name]
    states, elsewhere = _states(system, 2)
    with pytest.raises(ValueError, match="^state 2: operator and state live on different"):
        call(states + [elsewhere])
    # alone, a state meets only the operators handed in, as the sequence's state 0
    if name in ("prob", "joint_prob", "unrecorded_state", "unrecorded_conditioned_variance",
                "twirl"):
        with pytest.raises(ValueError, match="^state 0: operator and state live"):
            call(elsewhere)


def test_a_mixture_of_another_partition_is_named_by_its_index():
    swapped = random_number_diagonal_mixture(SYSTEM, Partition([("A", (1,)), ("B", (0,))]),
                                             np.random.default_rng(1))
    with pytest.raises(ValueError, match="^mixture 2: a stack of mixtures needs one system"):
        separable_ssr_theorem_check(_mixtures(2) + [swapped])
