"""Seeded random generators for states, mixtures and measurement settings.

Used by the property sweeps in the test suite and by the scenario runner;
everything takes an explicit numpy Generator so sweeps stay reproducible.
"""

from __future__ import annotations

import numpy as np

from . import states, witnesses
from .fock import (PureState, Partition, _density_stack, _is_integer, bosons, number_diagonal,
                   qubits, sector_blocks, sub_system)


def _sweep_size(n):
    """``(count, one)`` of a sampler's ``n``: None is one draw given alone, an
    integer n >= 1 (not a bool) is n draws given as a list."""
    if n is None:
        return 1, True
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"a sampled sweep takes n = None or an integer n, at least one draw, "
                         f"got n = {n!r}")
    return int(n), False


def _flat_dirichlet(exps):
    """Normalise each row (last axis) of standard exponentials in place and
    return it: flat Dirichlet weights.

    numpy's ``rng.dirichlet(np.ones(k))`` draws k standard exponentials and
    multiplies them by the reciprocal of their running sum, so a row drawn by
    ``rng.standard_exponential`` and normalised here has its stream and its
    bits.  The total is the last entry of a ``cumsum``, which adds in order as
    numpy does; ``np.sum`` adds pairwise from 8 entries on.  A 0.0 padding
    entry adds +0.0 to the total and stays 0.0.
    """
    exps *= 1.0 / np.cumsum(exps, axis=-1)[..., -1:]
    return exps


def _weights_and_normals(rng, n, n_weights, n_normals):
    """n draws of ``n_weights`` flat Dirichlet weights, each followed by
    ``n_normals`` standard normals, as an (n, n_weights) and an (n, n_normals)
    array: the stream of n single draws, two generator calls per draw."""
    weights = np.empty((n, n_weights))
    normals = np.empty((n, n_normals))
    for i in range(n):
        rng.standard_exponential(out=weights[i])
        rng.standard_normal(out=normals[i])
    return _flat_dirichlet(weights), normals


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


def random_density(system, rng, n=None):
    """Full-rank Ginibre-sampled density operator; with an integer ``n``, a list
    of n of them checked as one stack, with the stream and the bits of n
    single draws."""
    count, one = _sweep_size(n)
    dim = system.dim
    out = _density_stack(system, _unit_trace_grams(rng.standard_normal((count, 2, dim, dim))))
    return out[0] if one else out


def random_pure(system, rng):
    vec = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    return PureState(system, vec / np.linalg.norm(vec))


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return tuple(v / np.linalg.norm(v))


def random_chsh_setting(rng):
    return witnesses.CHSHSetting(a1=random_unit_vector(rng), a2=random_unit_vector(rng),
                                 b1=random_unit_vector(rng), b2=random_unit_vector(rng))


def random_chsh_directions(rng, n):
    """n settings at once as four (n, 3) arrays of unit rows."""
    vecs = rng.standard_normal((4, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return vecs[0], vecs[1], vecs[2], vecs[3]


def random_global_ssr_state(system, rng, n=None):
    """A state block-diagonal over total-number sectors, so that [N, rho] = 0
    by construction; with an integer ``n``, a list of n of them checked as
    one stack.

    Each draw takes Dirichlet sector weights, then one complex Ginibre block per
    sector, its real part before its imaginary part, scaled to its weight: n
    draws have the stream and the bits of n single draws.
    """
    count, one = _sweep_size(n)
    blocks = sector_blocks(number_diagonal(system))
    sizes = [len(sel) for _, sel in blocks]
    weights, normals = _weights_and_normals(rng, count, len(blocks),
                                            sum(2 * k * k for k in sizes))
    mats = np.zeros((count, system.dim, system.dim), dtype=complex)
    start = 0
    for w, (_, sel), k in zip(weights.T, blocks, sizes):
        block = _ginibre_grams(normals[:, start:start + 2 * k * k].reshape(count, 2, k, k))
        start += 2 * k * k
        block *= (w / np.real(np.trace(block, axis1=1, axis2=2)))[:, None, None]
        mats[:, sel[:, None], sel] = block
    out = _density_stack(system, mats)
    return out[0] if one else out


def random_qubit_pair_mixture(rng, n=None):
    """Separable mixture of four products of generic qubit states on two modes;
    with an integer ``n``, a list of n of them.  Each draw takes the four
    probabilities, then the A and the B factor of each component as
    ``random_density`` would draw them: n draws have the stream and the bits
    of n single draws."""
    count, one = _sweep_size(n)
    system, partition = qubits(2), Partition([("A", (0,)), ("B", (1,))])
    probs, normals = _weights_and_normals(rng, count, 4, 4 * 2 * 2 * 2 * 2)
    # (draw, component, factor, 2, 2)
    grams = _unit_trace_grams(normals.reshape(-1, 2, 2, 2)).reshape(count, 4, 2, 2, 2)
    out = states.mixture_stack(system, partition, probs,
                               {"A": grams[:, :, 0], "B": grams[:, :, 1]})
    return out[0] if one else out


def random_number_diagonal_mixture(system, partition, rng, n=None):
    """Three-term separable mixture with number-diagonal (locally SSR compliant)
    factors; with an integer ``n``, a list of n of them.  Each draw takes the
    three probabilities, then one Dirichlet diagonal per factor, component by
    component in partition order: n draws have the stream and the bits of n
    single draws."""
    count, one = _sweep_size(n)
    dims = [sub_system(system, modes).dim for _, modes in partition.subsystems]
    # a draw is nothing but flat Dirichlets, so the n draws are one block of
    # exponentials: per row the three probabilities, then the factors of
    # each component in partition order
    exps = rng.standard_exponential((count, 3 + 3 * sum(dims)))
    probs = _flat_dirichlet(exps[:, :3])
    factors = exps[:, 3:].reshape(count, 3, sum(dims))
    diags = [_flat_dirichlet(f) for f in np.split(factors, np.cumsum(dims)[:-1], axis=-1)]
    # times the identity: each draw on the diagonal, exactly 0 off it
    out = states.mixture_stack(system, partition, probs, {
        name: diag[..., None] * np.eye(d) for name, diag, d in zip(partition.names, diags, dims)})
    return out[0] if one else out


def random_one_boson_pair_mixture(rng, n=None):
    """Three-component separable mixture on (a1, b1, a2, b2), one boson per mode
    pair; with an integer ``n``, a list of n of them.

    Every factor lives in the one-boson sector of its pair, so it is locally
    number-SSR compliant while carrying arbitrary within-sector coherence.
    Each draw takes the three probabilities, then each factor's one-boson
    block as ``random_density`` would draw it: n draws have the stream and
    the bits of n single draws.
    """
    count, one = _sweep_size(n)
    system = bosons(4, 1, labels=["a1", "b1", "a2", "b2"])
    partition = Partition([("one", (0, 1)), ("two", (2, 3))])
    # both pairs are two cutoff-1 modes, with the same one-boson indices
    pair = sub_system(system, (0, 1))
    sel = pair.indices_of([(0, 1), (1, 0)])
    probs, normals = _weights_and_normals(rng, count, 3, 3 * 2 * 2 * 2 * 2)
    blocks = _unit_trace_grams(normals.reshape(-1, 2, 2, 2)).reshape(count, 3, 2, 2, 2)
    mats = np.zeros((count, 3, 2, pair.dim, pair.dim), dtype=complex)
    mats[..., sel[:, None], sel] = blocks
    out = states.mixture_stack(system, partition, probs,
                               {"one": mats[:, :, 0], "two": mats[:, :, 1]})
    return out[0] if one else out
