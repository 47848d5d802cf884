"""Seeded random generators for states, mixtures and measurement settings.

Used by the property sweeps in the test suite and by the scenario runner;
everything takes an explicit numpy Generator so sweeps stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .fock import (DensityOperator, PureState, Partition, bosons, qubits,
                   sector_blocks, sub_system)
from .states import MixtureComponent, SeparableMixture
from .witnesses import CHSHSetting


def _ginibre_gram(rng, dim):
    """G G^H for a dim x dim complex Ginibre draw G; positive, not normalised."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def random_density(system, rng):
    """Full-rank Ginibre-sampled density operator."""
    mat = _ginibre_gram(rng, system.dim)
    mat /= np.real(np.trace(mat))
    return DensityOperator(system, mat)


def random_pure(system, rng):
    vec = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    return PureState(system, vec / np.linalg.norm(vec))


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return tuple(v / np.linalg.norm(v))


def random_chsh_setting(rng):
    return CHSHSetting(a1=random_unit_vector(rng), a2=random_unit_vector(rng),
                       b1=random_unit_vector(rng), b2=random_unit_vector(rng))


def random_chsh_directions(rng, n):
    """n settings at once as four (n, 3) arrays of unit rows."""
    vecs = rng.standard_normal((4, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return vecs[0], vecs[1], vecs[2], vecs[3]


def random_global_ssr_state(system, rng):
    """Block-diagonal over total-number sectors: [N, rho] = 0 by construction."""
    blocks = sector_blocks(system.occupancies.sum(axis=1))
    weights = rng.dirichlet(np.ones(len(blocks)))
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    for w, (_, sel) in zip(weights, blocks):
        block = _ginibre_gram(rng, len(sel))
        block *= w / np.real(np.trace(block))
        mat[np.ix_(sel, sel)] = block
    return DensityOperator(system, mat)


def random_qubit_pair_mixture(rng):
    """Separable mixture of four products of generic qubit states on two modes."""
    system = qubits(2)
    partition = Partition([("A", (0,)), ("B", (1,))])
    sub_a = sub_system(system, (0,))
    sub_b = sub_system(system, (1,))
    probs = rng.dirichlet(np.ones(4))
    components = [
        MixtureComponent(p, {"A": random_density(sub_a, rng),
                             "B": random_density(sub_b, rng)})
        for p in probs
    ]
    return SeparableMixture(system, partition, components)


def random_number_diagonal_mixture(system, partition, rng):
    """Three-term separable mixture with number-diagonal (locally SSR compliant) factors."""
    probs = rng.dirichlet(np.ones(3))
    components = []
    for p in probs:
        factors = {}
        for name in partition.names:
            sub = sub_system(system, partition.modes_of(name))
            diag = rng.dirichlet(np.ones(sub.dim))
            factors[name] = DensityOperator(sub, np.diag(diag.astype(complex)))
        components.append(MixtureComponent(p, factors))
    return SeparableMixture(system, partition, components)


def random_one_boson_pair_mixture(rng):
    """Three-component separable mixture on (a1, b1, a2, b2), one boson per mode pair.

    Every factor lives in the one-boson sector of its pair, so it is locally
    number-SSR compliant while carrying arbitrary within-sector coherence.
    """
    system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
    partition = Partition([("one", (0, 1)), ("two", (2, 3))])
    probs = rng.dirichlet(np.ones(3))
    components = []
    for p in probs:
        factors = {}
        for name in partition.names:
            sub = sub_system(system, partition.modes_of(name))
            sel = sub.indices_of([(0, 1), (1, 0)])
            block = _ginibre_gram(rng, 2)
            block /= np.real(np.trace(block))
            mat = np.zeros((sub.dim, sub.dim), dtype=complex)
            mat[np.ix_(sel, sel)] = block
            factors[name] = DensityOperator(sub, mat)
        components.append(MixtureComponent(p, factors))
    return SeparableMixture(system, partition, components)
