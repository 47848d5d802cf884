"""Truncated multi-mode occupation-number spaces and dense operator algebra.

The basis is the lexicographic enumeration of occupancy tuples, optionally
filtered to a fixed total particle number, and sorted by each row's
mixed-radix code (radix cutoff+1), its index in the unrestricted basis.
All matrices are dense complex numpy arrays; dimensions stay at desk scale
(<= a few thousand), so no sparse machinery is used.  hbar = 1 throughout.

Everything constructed here is immutable after creation (arrays are marked
read-only), so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOSE = "bose"
FERMI = "fermi"

# Tolerance hierarchy: construction invariants at 1e-12, PSD slack at 1e-10
# to absorb accumulated eigensolver error.
NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_SLACK = 1e-10
PURITY_ATOL = 1e-12
HERM_INPUT_ATOL = 1e-10


@dataclass(frozen=True)
class Mode:
    """One truncated mode: occupancies run over 0..cutoff."""

    label: str
    cutoff: int
    statistics: str = BOSE


class ModeSystem:
    """Ordered list of modes with a fixed occupation-number basis.

    Parameters
    ----------
    modes : iterable of Mode or (label, cutoff[, statistics]) tuples
    total_number_restriction : int, optional
        Keep only basis states whose total occupancy equals this value.
    """

    def __init__(self, modes, total_number_restriction=None):
        parsed = []
        for m in modes:
            if not isinstance(m, Mode):
                m = Mode(*m)
            if m.cutoff < 0:
                raise ValueError("mode cutoff must be >= 0")
            if m.statistics not in (BOSE, FERMI):
                raise ValueError(f"unknown statistics {m.statistics!r}")
            if m.statistics == FERMI and m.cutoff != 1:
                raise ValueError("fermi modes have cutoff exactly 1")
            parsed.append(m)
        if not parsed:
            raise ValueError("a ModeSystem needs at least one mode")
        self.modes = tuple(parsed)
        self.total_number_restriction = total_number_restriction

        radices = [m.cutoff + 1 for m in self.modes]
        if math.prod(radices) > np.iinfo(np.int64).max:
            raise ValueError("basis codes overflow int64: too many modes or levels")
        # built mode by mode: extending each prefix code by 0..cutoff keeps the
        # lexicographic order, and prefixes already above the restriction drop out
        codes = totals = np.zeros(1, dtype=np.int64)
        for radix in radices:
            digits = np.arange(radix)
            codes = (codes[:, None] * radix + digits).ravel()
            if total_number_restriction is not None:
                totals = (totals[:, None] + digits).ravel()
                keep = totals <= total_number_restriction
                codes, totals = codes[keep], totals[keep]
        if total_number_restriction is not None:
            codes = codes[totals == total_number_restriction]
        if codes.shape[0] == 0:
            raise ValueError("empty Hilbert space")
        strides = np.array([math.prod(radices[i + 1:]) for i in range(len(radices))],
                           dtype=np.int64)
        occ = codes[:, None] // strides % radices
        for arr in (occ, codes, strides):
            arr.setflags(write=False)
        self.occupancies = occ
        self.codes = codes
        self.strides = strides
        self.dim = occ.shape[0]

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def labels(self):
        return tuple(m.label for m in self.modes)

    def mode_index(self, label):
        for i, m in enumerate(self.modes):
            if m.label == label:
                return i
        raise KeyError(f"no mode labelled {label!r}")

    def indices_of(self, occ_rows):
        """Basis indices of occupancy rows (one row may be given as a 1-D sequence).

        Raises KeyError naming the first row that is not in the basis: wrong
        length, an entry outside 0..cutoff, or outside a number restriction.
        """
        rows = np.atleast_2d(np.asarray(occ_rows, dtype=np.int64))
        if rows.shape[1] == self.n_modes:
            idx = np.minimum(np.searchsorted(self.codes, rows @ self.strides), self.dim - 1)
            # comparing whole rows, not codes, also rejects entries outside
            # 0..cutoff, whose codes can alias another row's
            bad = (self.occupancies[idx] != rows).any(axis=1)
        else:
            idx = np.zeros(len(rows), dtype=np.intp)
            bad = np.ones(len(rows), dtype=bool)
        if bad.any():
            key = tuple(int(n) for n in rows[bad][0])
            raise KeyError(f"occupancy {key} not in basis")
        return idx

    def index_of(self, occupancies):
        return int(self.indices_of(occupancies)[0])

    def basis_state(self, occupancies):
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index_of(occupancies)] = 1.0
        return PureState(self, vec)

    def vacuum(self):
        return self.basis_state((0,) * self.n_modes)

    def identity(self):
        return Operator(self, np.eye(self.dim, dtype=complex))

    def __eq__(self, other):
        return (
            isinstance(other, ModeSystem)
            and self.modes == other.modes
            and self.total_number_restriction == other.total_number_restriction
        )

    def __hash__(self):
        return hash((self.modes, self.total_number_restriction))

    def __repr__(self):
        spec = ", ".join(f"{m.label}:{m.cutoff}{'f' if m.statistics == FERMI else ''}"
                         for m in self.modes)
        extra = (f", N={self.total_number_restriction}"
                 if self.total_number_restriction is not None else "")
        return f"ModeSystem({spec}{extra}, dim={self.dim})"


def bosons(n_modes, cutoff, labels=None, total=None):
    """Bosonic ModeSystem with a common cutoff."""
    labels = labels or [f"m{i}" for i in range(n_modes)]
    return ModeSystem([(lab, cutoff, BOSE) for lab in labels],
                      total_number_restriction=total)


def fermions(n_modes, labels=None, total=None):
    """Fermionic ModeSystem (cutoff 1 per mode)."""
    labels = labels or [f"m{i}" for i in range(n_modes)]
    return ModeSystem([(lab, 1, FERMI) for lab in labels],
                      total_number_restriction=total)


def qubits(n):
    """n two-level systems realised as bosonic modes with cutoff 1."""
    return bosons(n, 1, labels=[f"q{i}" for i in range(n)])


class Operator:
    """Dense operator on a ModeSystem basis."""

    __slots__ = ("system", "matrix")

    def __init__(self, system, matrix):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (system.dim, system.dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match dim {system.dim}")
        matrix.setflags(write=False)
        self.system = system
        self.matrix = matrix

    def dag(self):
        return Operator(self.system, self.matrix.conj().T)

    def is_hermitian(self):
        return np.linalg.norm(self.matrix - self.matrix.conj().T) <= HERM_INPUT_ATOL

    def _coerce(self, other):
        if not isinstance(other, Operator):
            raise TypeError("expected an Operator")
        if other.system != self.system:
            raise ValueError("operators live on different systems")
        return other

    def __matmul__(self, other):
        if isinstance(other, PureState):
            if other.system != self.system:
                raise ValueError("operator and state live on different systems")
            return self.matrix @ other.amplitudes
        return Operator(self.system, self.matrix @ self._coerce(other).matrix)

    def __add__(self, other):
        return Operator(self.system, self.matrix + self._coerce(other).matrix)

    def __sub__(self, other):
        return Operator(self.system, self.matrix - self._coerce(other).matrix)

    def __mul__(self, scalar):
        return Operator(self.system, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(self.system, -self.matrix)

    def __repr__(self):
        return f"Operator(dim={self.system.dim})"


class PureState:
    """Normalised state vector over the occupation basis."""

    __slots__ = ("system", "amplitudes")

    def __init__(self, system, amplitudes):
        amplitudes = np.array(amplitudes, dtype=complex)
        if amplitudes.shape != (system.dim,):
            raise ValueError("amplitude vector has wrong length")
        nrm = np.linalg.norm(amplitudes)
        if not abs(nrm - 1.0) <= NORM_ATOL:   # written so that NaN fails too
            raise ValueError(f"state vector norm {nrm} is not 1 within {NORM_ATOL}")
        amplitudes.setflags(write=False)
        self.system = system
        self.amplitudes = amplitudes

    def density(self):
        return DensityOperator(self.system, np.outer(self.amplitudes, self.amplitudes.conj()))

    def amplitude(self, occupancies):
        return complex(self.amplitudes[self.system.index_of(occupancies)])

    def overlap(self, other):
        if other.system != self.system:
            raise ValueError("states live on different systems")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"PureState(dim={self.system.dim})"


def _check_physical(matrix):
    """The four physicality checks of a density matrix; raises ValueError.

    Hermitian within 1e-12 (Frobenius), unit trace within 1e-12, smallest
    eigenvalue >= -1e-10, purity <= 1 + 1e-12.  Each check is written so that
    a NaN residual fails it.
    """
    with np.errstate(invalid="ignore"):     # an infinite entry gives inf - inf = NaN
        herm = np.linalg.norm(matrix - matrix.conj().T)
    if not herm <= HERM_ATOL:
        raise ValueError(f"not Hermitian: residual {herm}")
    tr = np.trace(matrix)
    if not abs(tr - 1.0) <= TRACE_ATOL:
        raise ValueError(f"trace {tr} is not 1 within {TRACE_ATOL}")
    evals = np.linalg.eigvalsh(matrix)
    if not evals.min() >= -PSD_SLACK:
        raise ValueError(f"not positive semidefinite: min eigenvalue {evals.min()}")
    purity = float(np.sum(evals**2))
    if not purity <= 1.0 + PURITY_ATOL:
        raise ValueError(f"purity {purity} exceeds 1")


class DensityOperator:
    """Density operator; ``_check_physical`` runs at construction."""

    __slots__ = ("system", "matrix")

    def __init__(self, system, matrix):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (system.dim, system.dim):
            raise ValueError("density matrix shape does not match system")
        _check_physical(matrix)
        matrix.setflags(write=False)
        self.system = system
        self.matrix = matrix

    def purity(self):
        # Tr(rho^2) = ||rho||_F^2 for the Hermitian rho validated at construction
        return float(np.vdot(self.matrix, self.matrix).real)

    def diagonal(self):
        return np.real(np.diag(self.matrix)).copy()

    def __repr__(self):
        return f"DensityOperator(dim={self.system.dim})"


def as_density(state):
    """Accept a PureState or DensityOperator and return the density form."""
    if isinstance(state, DensityOperator):
        return state
    if isinstance(state, PureState):
        return state.density()
    raise TypeError("expected PureState or DensityOperator")


@dataclass(frozen=True)
class Partition:
    """Named assignment of disjoint mode-index sets to subsystems."""

    subsystems: tuple

    def __init__(self, subsystems):
        # accepts [(name, indices), ...]; indices kept in the order given
        parsed = tuple((name, tuple(int(i) for i in idx)) for name, idx in subsystems)
        seen = set()
        for _, idx in parsed:
            for i in idx:
                if i in seen:
                    raise ValueError("partition subsystems overlap")
                seen.add(i)
        object.__setattr__(self, "subsystems", parsed)

    @property
    def names(self):
        return tuple(name for name, _ in self.subsystems)

    def modes_of(self, name):
        for n, idx in self.subsystems:
            if n == name:
                return idx
        raise KeyError(f"unknown subsystem {name!r}")

    def validate(self, system):
        for _, idx in self.subsystems:
            for i in idx:
                if not 0 <= i < system.n_modes:
                    raise ValueError(f"mode index {i} outside system")

    def covers(self, system):
        return sum(len(idx) for _, idx in self.subsystems) == system.n_modes


def annihilation(system, mode):
    """Matrix of the annihilation operator for one mode.

    Bosonic: a|n> = sqrt(n)|n-1>, with raising past the cutoff mapped to zero
    (take cutoff above any total occupancy in play for exact results).
    Fermionic: Jordan-Wigner sign (-1)^(occupied modes with smaller index).
    """
    if isinstance(mode, str):
        mode = system.mode_index(mode)
    if not 0 <= mode < system.n_modes:
        raise ValueError(f"mode index {mode} out of range")
    if system.total_number_restriction is not None:
        raise ValueError(
            "ladder operators leave a number-restricted space; "
            "build them on the unrestricted system")
    occ = system.occupancies
    cols = np.nonzero(occ[:, mode] > 0)[0]
    rows = system.indices_of(occ[cols] - np.eye(system.n_modes, dtype=np.int64)[mode])
    if system.modes[mode].statistics == FERMI:
        values = np.where(occ[cols, :mode].sum(axis=1) % 2, -1.0, 1.0)
    else:
        values = np.sqrt(occ[cols, mode])
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    mat[rows, cols] = values
    return Operator(system, mat)


def creation(system, mode):
    return annihilation(system, mode).dag()


def number_op(system, weights=None):
    """Diagonal weighted number operator sum_i w_i n_i (weights default to 1)."""
    if weights is None:
        weights = np.ones(system.n_modes)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (system.n_modes,):
        raise ValueError("one weight per mode required")
    diag = system.occupancies @ weights
    return Operator(system, np.diag(diag.astype(complex)))


def sector_blocks(labels):
    """(label, basis indices) per distinct integer label, labels ascending."""
    labels = np.asarray(labels)
    return [(int(v), np.nonzero(labels == v)[0]) for v in np.unique(labels)]


SECTOR_FLOOR = 1e-14


def number_sectors(rho, labels):
    """(label, weight, basis indices, normalised block) of ``rho`` per ``sector_blocks``
    label of weight at least ``SECTOR_FLOOR``; both arrays are read-only.  Checking
    the block is checking the zero-padded state: that has the block's eigenvalues
    plus zeros, and its Hermitian residual, trace and purity."""
    for label, sel in sector_blocks(labels):
        block = rho.matrix[np.ix_(sel, sel)]
        weight = float(np.real(np.trace(block)))
        if weight < SECTOR_FLOOR:
            continue
        block = block / weight
        _check_physical(block)
        for arr in (sel, block):
            arr.setflags(write=False)
        yield label, weight, sel, block


def sub_system(system, mode_indices):
    """Unrestricted ModeSystem of the given modes of ``system``, in that order."""
    return ModeSystem([system.modes[i] for i in mode_indices])


def _rest_codes(system, keep_indices):
    """Code of each basis state restricted to the modes outside ``keep_indices``."""
    rest = [i for i in range(system.n_modes) if i not in keep_indices]
    return system.occupancies[:, rest] @ system.strides[rest]


def tensor_embed(op, system, mode_indices):
    """Lift an operator on a subset of modes to the full system.

    ``op.system.modes`` must match ``system.modes[mode_indices]`` in order.
    The embedding uses the occupation-number product structure, which for
    fermionic modes is faithful for parity-even (number-conserving) operators.
    """
    mode_indices = tuple(int(i) for i in mode_indices)
    expected = tuple(system.modes[i] for i in mode_indices)
    if op.system.modes != expected:
        raise ValueError("operator modes do not match the target mode indices")
    sub_codes = op.system.indices_of(system.occupancies[:, mode_indices])
    rest = _rest_codes(system, mode_indices)
    full = op.matrix[np.ix_(sub_codes, sub_codes)] * (rest[:, None] == rest[None, :])
    return Operator(system, full)


def partial_trace(state, partition, keep):
    """Reduced density operator over the modes of subsystem ``keep``.

    All modes outside ``keep`` are traced out, whether or not they belong to
    a named subsystem of the partition.  Trace is preserved.
    """
    rho = as_density(state)
    partition.validate(rho.system)
    return reduced_state(rho.system, np.arange(rho.system.dim), rho.matrix,
                         partition.modes_of(keep))


def reduced_state(system, rows, block, keep_idx):
    """Reduced density operator on modes ``keep_idx`` of the state that is ``block``
    on basis ``rows`` and zero elsewhere; ``partial_trace`` passes every row."""
    sub = sub_system(system, keep_idx)
    sub_codes = sub.indices_of(system.occupancies[np.ix_(rows, keep_idx)])
    rest = _rest_codes(system, keep_idx)[rows]
    out = np.zeros((sub.dim, sub.dim), dtype=complex)
    for code in np.unique(rest):
        sel = np.nonzero(rest == code)[0]
        subs = sub_codes[sel]
        out[np.ix_(subs, subs)] += block[np.ix_(sel, sel)]
    return DensityOperator(sub, out)


def expectation(state, op):
    """<Omega> = Tr(Omega rho), returned as a complex number.

    Summed as sum_ij Omega_ij rho_ji in O(d^2), exact for any Omega.
    """
    rho = as_density(state)
    if op.system != rho.system:
        raise ValueError("operator and state live on different systems")
    return complex(np.einsum("ij,ji->", op.matrix, rho.matrix))


def evolution_operator(h, t):
    """U = exp(-i H t) through the eigendecomposition of Hermitian H."""
    if not h.is_hermitian():
        raise ValueError("Hamiltonian is not Hermitian within 1e-10")
    evals, vecs = np.linalg.eigh(h.matrix)
    u = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
    return Operator(h.system, u)


def unitary_evolve(h, t, state):
    """Evolve a PureState or DensityOperator under exp(-i H t)."""
    return apply_unitary(evolution_operator(h, t), state)


def apply_unitary(u, state):
    """Apply an explicit unitary Operator to a state of either kind."""
    if isinstance(state, PureState):
        return PureState(state.system, u.matrix @ state.amplitudes)
    rho = as_density(state)
    return DensityOperator(rho.system, u.matrix @ rho.matrix @ u.matrix.conj().T)
