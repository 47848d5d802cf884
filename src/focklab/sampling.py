"""Seeded random generators for states, mixtures and measurement settings.

Used by the property sweeps in the test suite and by the scenario runner;
everything takes an explicit numpy Generator so sweeps stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .fock import (PureState, Partition, _density_stack, bosons, number_diagonal, qubits,
                   sector_blocks, sub_system)
from .states import mixture_stack
from .witnesses import CHSHSetting


def _sweep_size(n):
    if n < 1:
        raise ValueError(f"a sampled sweep needs at least one draw, got n = {n}")


def _weights_and_normals(rng, n, n_weights, n_normals):
    """n draws of ``n_weights`` flat Dirichlet weights, each followed by
    ``n_normals`` standard normals, as an (n, n_weights) and an (n, n_normals)
    array: the stream of n single draws, two generator calls per draw."""
    _sweep_size(n)
    weights = np.empty((n, n_weights))
    normals = np.empty((n, n_normals))
    for i in range(n):
        weights[i] = rng.dirichlet(np.ones(n_weights))
        rng.standard_normal(out=normals[i])
    return weights, normals


def _ginibre_grams(normals):
    """G G^H of each complex Ginibre matrix G = X + iY of an (m, 2, k, k) stack
    of real (X, Y) draws; positive, not normalised."""
    g = normals[:, 0] + 1j * normals[:, 1]
    return g @ g.conj().transpose(0, 2, 1)


def _unit_trace_grams(normals):
    """``_ginibre_grams`` of an (m, 2, k, k) stack, each divided by its trace."""
    grams = _ginibre_grams(normals)
    grams /= np.real(np.trace(grams, axis1=1, axis2=2))[:, None, None]
    return grams


def random_densities(system, rng, n):
    """n full-rank Ginibre-sampled density operators, checked as one stack:
    the stream and the bits of n ``random_density`` draws."""
    _sweep_size(n)
    dim = system.dim
    return _density_stack(system, _unit_trace_grams(rng.standard_normal((n, 2, dim, dim))))


def random_density(system, rng):
    """Full-rank Ginibre-sampled density operator: a sweep of one
    ``random_densities`` draw."""
    return random_densities(system, rng, 1)[0]


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


def random_global_ssr_states(system, rng, n):
    """n states, block-diagonal over total-number sectors, so that [N, rho] = 0
    by construction, checked as one stack.

    Each draw takes Dirichlet sector weights, then one complex Ginibre block per
    sector, its real part before its imaginary part, scaled to its weight: the
    stream and the bits of n ``random_global_ssr_state`` draws.
    """
    blocks = sector_blocks(number_diagonal(system))
    sizes = [len(sel) for _, sel in blocks]
    weights, normals = _weights_and_normals(rng, n, len(blocks),
                                            sum(2 * k * k for k in sizes))
    mats = np.zeros((n, system.dim, system.dim), dtype=complex)
    start = 0
    for w, (_, sel), k in zip(weights.T, blocks, sizes):
        block = _ginibre_grams(normals[:, start:start + 2 * k * k].reshape(n, 2, k, k))
        start += 2 * k * k
        block *= (w / np.real(np.trace(block, axis1=1, axis2=2)))[:, None, None]
        mats[:, sel[:, None], sel] = block
    return _density_stack(system, mats)


def random_global_ssr_state(system, rng):
    """Block-diagonal over total-number sectors: [N, rho] = 0 by construction.
    A sweep of one ``random_global_ssr_states`` draw."""
    return random_global_ssr_states(system, rng, 1)[0]


def random_qubit_pair_mixtures(rng, n):
    """n separable mixtures of four products of generic qubit states on two
    modes.  Each draw takes the four probabilities, then the A and the B
    factor of each component as ``random_density`` would draw them: the
    stream and the bits of n ``random_qubit_pair_mixture`` draws."""
    system, partition = qubits(2), Partition([("A", (0,)), ("B", (1,))])
    probs, normals = _weights_and_normals(rng, n, 4, 4 * 2 * 2 * 2 * 2)
    # (draw, component, factor, 2, 2)
    grams = _unit_trace_grams(normals.reshape(-1, 2, 2, 2)).reshape(n, 4, 2, 2, 2)
    return mixture_stack(system, partition, probs, {"A": grams[:, :, 0], "B": grams[:, :, 1]})


def random_qubit_pair_mixture(rng):
    """Separable mixture of four products of generic qubit states on two modes:
    a sweep of one ``random_qubit_pair_mixtures`` draw."""
    return random_qubit_pair_mixtures(rng, 1)[0]


def random_number_diagonal_mixtures(system, partition, rng, n):
    """n three-term separable mixtures with number-diagonal (locally SSR
    compliant) factors.  Each draw takes the three probabilities, then one
    Dirichlet diagonal per factor, component by component in partition order:
    the stream and the bits of n ``random_number_diagonal_mixture`` draws."""
    _sweep_size(n)
    dims = [sub_system(system, modes).dim for _, modes in partition.subsystems]
    probs = np.empty((n, 3))
    diags = [np.empty((n, 3, d)) for d in dims]
    for i in range(n):
        probs[i] = rng.dirichlet(np.ones(3))
        for t, draw in enumerate(rng.dirichlet(np.ones(d)) for d in dims * 3):
            diags[t % len(dims)][i, t // len(dims)] = draw
    # times the identity: each draw on the diagonal, exactly 0 off it
    return mixture_stack(system, partition, probs, {
        name: diag[..., None] * np.eye(d) for name, diag, d in zip(partition.names, diags, dims)})


def random_number_diagonal_mixture(system, partition, rng):
    """Three-term separable mixture with number-diagonal (locally SSR compliant)
    factors: a sweep of one ``random_number_diagonal_mixtures`` draw."""
    return random_number_diagonal_mixtures(system, partition, rng, 1)[0]


def random_one_boson_pair_mixtures(rng, n):
    """n three-component separable mixtures on (a1, b1, a2, b2), one boson per
    mode pair.

    Every factor lives in the one-boson sector of its pair, so it is locally
    number-SSR compliant while carrying arbitrary within-sector coherence.
    Each draw takes the three probabilities, then each factor's one-boson
    block as ``random_density`` would draw it: the stream and the bits of n
    ``random_one_boson_pair_mixture`` draws.
    """
    system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
    partition = Partition([("one", (0, 1)), ("two", (2, 3))])
    # both pairs are two cutoff-1 modes, with the same one-boson indices
    pair = sub_system(system, (0, 1))
    sel = pair.indices_of([(0, 1), (1, 0)])
    probs, normals = _weights_and_normals(rng, n, 3, 3 * 2 * 2 * 2 * 2)
    blocks = _unit_trace_grams(normals.reshape(-1, 2, 2, 2)).reshape(n, 3, 2, 2, 2)
    mats = np.zeros((n, 3, 2, pair.dim, pair.dim), dtype=complex)
    mats[..., sel[:, None], sel] = blocks
    return mixture_stack(system, partition, probs, {"one": mats[:, :, 0], "two": mats[:, :, 1]})


def random_one_boson_pair_mixture(rng):
    """Three-component separable mixture on (a1, b1, a2, b2), one boson per mode
    pair: a sweep of one ``random_one_boson_pair_mixtures`` draw."""
    return random_one_boson_pair_mixtures(rng, 1)[0]
