"""Seeded random generators for states, mixtures and measurement settings.

Used by the property sweeps in the test suite and by the scenario runner;
everything takes an explicit numpy Generator so sweeps stay reproducible.
"""

from __future__ import annotations

import functools

import numpy as np

from .fock import (DensityOperator, PureState, Partition, _density_stack, bosons,
                   qubits, sector_blocks, sub_system)
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


def _unit_trace_grams(rng, n, dim):
    """n ``_ginibre_gram`` draws from the same stream, each divided by its trace,
    as one (n, dim, dim) stack."""
    g = rng.standard_normal((n, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    grams = g @ g.conj().transpose(0, 2, 1)
    grams /= np.real(np.trace(grams, axis1=1, axis2=2))[:, None, None]
    return grams


def _separable_mixture(system, partition, probs, subs, mats):
    """Mixture of ``probs`` whose factors ``mats`` on ``subs`` are listed component
    by component, in partition order; the factors of each dimension are checked
    as one stack."""
    factors = [None] * len(subs)
    for _, sel in sector_blocks([sub.dim for sub in subs]):
        checked = _density_stack([subs[i] for i in sel], np.stack([mats[i] for i in sel]))
        for i, rho in zip(sel, checked):
            factors[i] = rho
    names = partition.names
    return SeparableMixture(system, partition, [
        MixtureComponent(p, dict(zip(names, factors[r * len(names):])))
        for r, p in enumerate(probs)])


@functools.cache
def _qubit_pair():
    """The fixed system, partition and factor sub-systems of
    ``random_qubit_pair_mixture``."""
    system = qubits(2)
    return (system, Partition([("A", (0,)), ("B", (1,))]),
            (sub_system(system, (0,)), sub_system(system, (1,))))


def random_qubit_pair_mixture(rng):
    """Separable mixture of four products of generic qubit states on two modes."""
    system, partition, pair = _qubit_pair()
    subs = pair * 4
    probs = rng.dirichlet(np.ones(4))
    # the A then the B factor of each component, as ``random_density`` drew them
    mats = _unit_trace_grams(rng, len(subs), 2)
    return _separable_mixture(system, partition, probs, subs, mats)


def random_number_diagonal_mixture(system, partition, rng):
    """Three-term separable mixture with number-diagonal (locally SSR compliant) factors."""
    probs = rng.dirichlet(np.ones(3))
    subs = [sub_system(system, partition.modes_of(name)) for name in partition.names] * 3
    mats = [np.diag(rng.dirichlet(np.ones(sub.dim)).astype(complex)) for sub in subs]
    return _separable_mixture(system, partition, probs, subs, mats)


@functools.cache
def _one_boson_pair():
    """The fixed system, partition and factor sub-systems of
    ``random_one_boson_pair_mixture``, and the one-boson indices of a pair."""
    system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
    partition = Partition([("one", (0, 1)), ("two", (2, 3))])
    pair = tuple(sub_system(system, partition.modes_of(name)) for name in partition.names)
    # both pairs are two cutoff-1 modes, with the same one-boson indices
    sel = pair[0].indices_of([(0, 1), (1, 0)])
    sel.setflags(write=False)
    return system, partition, pair, sel


def random_one_boson_pair_mixture(rng):
    """Three-component separable mixture on (a1, b1, a2, b2), one boson per mode pair.

    Every factor lives in the one-boson sector of its pair, so it is locally
    number-SSR compliant while carrying arbitrary within-sector coherence.
    """
    system, partition, pair, sel = _one_boson_pair()
    subs = pair * 3
    probs = rng.dirichlet(np.ones(3))
    blocks = _unit_trace_grams(rng, len(subs), 2)
    mats = np.zeros((len(subs), subs[0].dim, subs[0].dim), dtype=complex)
    mats[:, sel[:, None], sel] = blocks
    return _separable_mixture(system, partition, probs, subs, mats)
