"""Truncated multi-mode occupation-number spaces and dense operator algebra.

The basis is the lexicographic enumeration of occupancy tuples, optionally
filtered to a fixed total particle number, and sorted by each row's
mixed-radix code (radix cutoff+1), its index in the unrestricted basis.
All matrices are dense complex numpy arrays; dimensions stay at desk scale
(<= a few thousand), so no sparse machinery is used.  hbar = 1 throughout.

Everything constructed here is immutable after creation (arrays are marked
read-only), so values can be shared freely across threads.  That also makes
what a hashable ``ModeSystem`` and hashable parameters determine a pure
function of them, and two kinds of memo keep such values:

- the O(d) index arrays of a system (the ladder entries, the entries of
  ladder products and the sub-system codes) in ``functools.lru_cache``
  memos, bounded by entry count, never holding a d x d matrix;
- the systems of ``bosons``, ``fermions`` and ``qubits``, and the
  ``_hermitian_blocks`` solve of the splitter Hamiltonian, which a system and
  its mode pairs alone fix, in ``_MEMO``, a key -> value LRU bounded by bytes
  (``_MEMO_BYTES``), whose entries count the bytes of the arrays they hold.
  Other operators that a system fixes, such as ``number_op`` and the spin
  operators, are built on each call: keeping them saved less than a warm pass
  varies.

No Operator keeps anything beyond its two fields: each call that needs an
operator's solve runs ``_hermitian_blocks`` on it, and the memo keeps the one
solve that is worth keeping as a value of its own.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections import OrderedDict
from collections.abc import Mapping

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

# Largest basis a ModeSystem may have; at that size one d x d complex matrix is 256 MB.
MAX_DIM = 4096

# Below this dimension one dense eigensolve costs less than scanning the matrix
# for blocks, so ``eigh_blocks`` solves it whole.
BLOCK_MIN_DIM = 48

# entries a chunked kernel forms at a time, 256 KiB per complex temporary: row
# pairs of ``_reduced_matrices``, columns of ``_rotate`` and the row blocks of
# ``_row_slices``
PAIR_CHUNK = 1 << 14

# rows per array step of the stacked sweeps (the CHSH sweeps' (model, setting)
# pairs and settings, the phases of the phase average, the oracle stacks of the
# appendix scenario), so peak memory does not grow with the number of draws
CHUNK_ROWS = 1024

# bytes ``_MEMO`` may count, 4 MiB: one d x d operator is 256 MiB at MAX_DIM, so
# the memo bounds bytes, not entries.  An entry counts the arrays it holds, and a
# splitter solve holds O(sum k^2) for its components of size k, not d^2, so the
# budget, not the dim, decides which solves are kept
_MEMO_BYTES = 1 << 22


def _is_integer(value):
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# object.__setattr__, bound once: ``_Record.__init__`` sets each field through it
_set_field = object.__setattr__


class _FrozenDict(dict):
    """A dict that refuses every change: how a record holds a dict field.  It
    shows, compares and reads as a dict, and a copy or a pickle is a new one
    of its items."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("cannot change a record's dict: it is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _FrozenDict, (dict(self),)


class _Record:
    """Base of focklab's immutable records.  A record names its fields in
    ``__slots__``, may give trailing ones defaults in ``_defaults``, and
    validates them in ``_check``.  ``__init__`` binds its arguments to the
    fields in order, as the signature (*fields) would: a missing, unknown or
    repeated field is a TypeError.  It sets each field once, a dict as a
    read-only copy, and then calls ``_check``; any later assignment or
    deletion raises AttributeError, and any change to a dict field
    TypeError.  As for a frozen dataclass, the repr, equality and hash are
    those of the fields in order, and equality needs the same class."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        # the field values in order, read at C speed: a tuple, or the value of a
        # one-field record (each of which holds a tuple)
        cls._values = staticmethod(operator.attrgetter(*cls.__slots__))

    def __init__(self, *args, **kwargs):
        # every field by position binds nothing; hot callers build records so
        if kwargs or len(args) != len(self.__slots__):
            args = self._bind(args, kwargs)
        for name, value in zip(self.__slots__, args):
            _set_field(self, name, _FrozenDict(value) if type(value) is dict else value)
        self._check()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values in order: ``args``, then each later field from
        ``kwargs`` or else from ``_defaults``."""
        names = cls.__slots__
        rest = names[len(args):]
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        for name in kwargs:
            if name not in rest:
                how = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {how} argument {name!r}")
        values = {**cls._defaults, **kwargs}
        for name in rest:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        return args + tuple([values[name] for name in rest])

    @classmethod
    def _unchecked(cls, *values):
        """A record of the field values in order, bound without ``_check``: for
        builders that have checked a whole stack of them at once."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set_field(record, name, _FrozenDict(value) if type(value) is dict else value)
        return record

    def _check(self):
        """Raise ValueError unless the fields are valid; the base checks nothing."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):     # copy and pickle rebuild through ``__init__``
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Mode(_Record):
    """One truncated mode: occupancies run over 0..cutoff."""

    __slots__ = ("label", "cutoff", "statistics")
    _defaults = {"statistics": BOSE}


class ModeSystem:
    """Ordered list of modes with a fixed occupation-number basis; immutable,
    as a ``_Record`` is, since it keys the memos of its basis.

    Parameters
    ----------
    modes : iterable of Mode or (str label, cutoff[, statistics]) tuples
    total_number_restriction : int, optional
        Keep only basis states whose total occupancy equals this value.
    """

    __slots__ = ("modes", "total_number_restriction", "_spec", "_hash", "occupancies",
                 "codes", "strides", "dim")
    __setattr__ = __delattr__ = _Record.__setattr__

    def __init__(self, modes, total_number_restriction=None):
        parsed = []
        for m in modes:
            if not isinstance(m, Mode):
                if not isinstance(m, tuple) or not 2 <= len(m) <= 3:
                    raise ValueError("a mode is a Mode or a (str label, cutoff[, statistics]) "
                                     f"tuple, got {m!r}")
                # by position, so the record binds without ``_bind``
                m = Mode(*m) if len(m) == 3 else Mode(*m, BOSE)
            if not isinstance(m.label, str):
                raise ValueError(f"mode label must be a string, got {m.label!r}")
            if not _is_integer(m.cutoff) or m.cutoff < 0:
                raise ValueError(f"mode cutoff must be an integer >= 0, got {m.cutoff!r}")
            if m.statistics not in (BOSE, FERMI):
                raise ValueError(f"unknown statistics {m.statistics!r}")
            if m.statistics == FERMI and m.cutoff != 1:
                raise ValueError("fermi modes have cutoff exactly 1")
            parsed.append(m)
        if not parsed:
            raise ValueError("a ModeSystem needs at least one mode")
        if len({m.label for m in parsed}) != len(parsed):
            raise ValueError(f"mode labels repeat: {[m.label for m in parsed]}")
        modes = tuple(parsed)
        radices = [m.cutoff + 1 for m in modes]
        full_dim = math.prod(radices)
        if full_dim > np.iinfo(np.int64).max:
            raise ValueError("basis codes overflow int64: too many modes or levels")
        room = sum(radices) - len(radices)     # levels the modes not yet added hold
        if total_number_restriction is None:
            if full_dim > MAX_DIM:
                raise ValueError(f"dimension {full_dim} exceeds MAX_DIM = {MAX_DIM}")
        elif not _is_integer(total_number_restriction):
            raise ValueError("total_number_restriction must be an integer")
        elif not 0 <= total_number_restriction <= room:
            raise ValueError("empty Hilbert space")
        # built mode by mode: extending each prefix code by ascending digits keeps
        # the lexicographic order.  Under a restriction a prefix takes only the
        # digits that stay at or below the total and can still reach it, so every
        # prefix leads to a row; rows are counted before they are built, and
        # nothing larger than MAX_DIM rows is ever held
        codes = totals = np.zeros(1, dtype=np.int64)
        for radix in radices:
            if total_number_restriction is None:
                codes = (codes[:, None] * radix + np.arange(radix)).ravel()
                continue
            room -= radix - 1
            lo = np.maximum(total_number_restriction - room - totals, 0)
            hi = np.minimum(total_number_restriction - totals, radix - 1)
            counts = hi - lo + 1     # >= 1: each prefix can still reach the total
            n = int(counts.sum())
            if n > MAX_DIM:
                raise ValueError(f"dimension of at least {n} exceeds MAX_DIM = {MAX_DIM}")
            prefix = np.repeat(np.arange(len(codes)), counts)
            digits = lo[prefix] + np.arange(n) - (np.cumsum(counts) - counts)[prefix]
            codes, totals = codes[prefix] * radix + digits, totals[prefix] + digits
        strides = np.array([math.prod(radices[i + 1:]) for i in range(len(radices))],
                           dtype=np.int64)
        occ = codes[:, None] // strides % radices
        for arr in (occ, codes, strides):
            arr.setflags(write=False)
        # every memo lookup hashes its system and may compare it with an equal one:
        # the modes' fields as plain tuples, hashed once, compare at C speed
        spec = (tuple(m._values(m) for m in modes), total_number_restriction)
        for name, value in zip(self.__slots__, (modes, total_number_restriction, spec,
                                                hash(spec), occ, codes, strides,
                                                occ.shape[0])):
            _set_field(self, name, value)

    def __reduce__(self):     # copy and pickle rebuild through ``__init__``
        return ModeSystem, (self.modes, self.total_number_restriction)

    @property
    def n_modes(self):
        return len(self.modes)

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

    def superposition(self, rows, amplitudes):
        """PureState with ``amplitudes[i]`` on basis row ``rows[i]`` and zero elsewhere.

        The rows are looked up by one ``indices_of`` call, so a row outside the
        basis raises its KeyError; ``PureState`` checks the norm.
        """
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.indices_of(rows)] = amplitudes
        return PureState(self, vec)

    def basis_state(self, occupancies):
        return self.superposition([occupancies], [1.0])

    def vacuum(self):
        return self.basis_state((0,) * self.n_modes)

    def identity(self):
        return Operator(self, np.eye(self.dim, dtype=complex))

    def __eq__(self, other):
        return self is other or (isinstance(other, ModeSystem) and self._spec == other._spec)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        spec = ", ".join(f"{m.label}:{m.cutoff}{'f' if m.statistics == FERMI else ''}"
                         for m in self.modes)
        extra = (f", N={self.total_number_restriction}"
                 if self.total_number_restriction is not None else "")
        return f"ModeSystem({spec}{extra}, dim={self.dim})"


def _held(value):
    """The arrays that ``value`` holds, through tuples and a system's three index
    arrays, by id; a view gives the array whose memory it shares, so each array
    counts its bytes once."""
    if isinstance(value, ModeSystem):
        value = value.occupancies, value.codes, value.strides
    if isinstance(value, tuple):
        return {k: x for item in value for k, x in _held(item).items()}
    if not isinstance(value, np.ndarray):
        return {}
    base = value if value.base is None else value.base
    return {id(base): base}


class _Memo:
    """Least-recently-used memo of the values that a ModeSystem and hashable
    parameters determine, holding at most ``_MEMO_BYTES``.

    Each entry is counted once, when it is stored, at the bytes of the arrays
    its key and value hold (``_held``); an evicted entry is dropped, and
    nothing else refers to it, so refcounts alone free what no caller holds.
    A value larger than the budget is returned but not kept.  Producers run
    outside the lock, which guards the bookkeeping only, so a producer that
    raises stores nothing; of two threads that produce one value at once,
    both get the one stored first.

    It saves work only when one process meets a system and an operator's
    parameters again, whatever the states, seeds, times and angles: a library
    session or a sweep.  A process that meets each once, such as one CLI run,
    gains nothing and pays the keys and the byte count of each entry.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = OrderedDict()     # key -> (value, nbytes), least recently used first
        self.nbytes = 0

    def get(self, key, produce, *args):
        """``produce(*args)``, kept under ``key``; a key of None keeps nothing."""
        if key is None:
            return produce(*args)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key][0]
        value = produce(*args)
        nbytes = sum(x.nbytes for x in _held((key, value)).values())
        with self._lock:
            if key in self._entries:     # stored by another thread meanwhile
                return self._entries[key][0]
            if nbytes <= _MEMO_BYTES:
                self._entries[key] = value, nbytes
                self.nbytes += nbytes
                while self.nbytes > _MEMO_BYTES:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
        return value

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_MEMO = _Memo()


def _key(*parts):
    """``parts`` as a memo key once each is an int, str, None or ModeSystem, or a
    tuple of such; else None, which keeps nothing, so that input of any other
    type reaches its producer and is checked there.  A bool, a float, a numpy
    scalar, bytes or a list is not a part."""
    for part in parts:
        if type(part) not in _KEYED or type(part) is tuple and _key(*part) is None:
            return None
    return parts


_KEYED = (int, str, type(None), ModeSystem, tuple)


def bosons(n_modes, cutoff, labels=None, total=None):
    """Bosonic ModeSystem with a common cutoff; one system per set of plain
    arguments, kept in ``_MEMO``."""
    return _uniform(n_modes, cutoff, BOSE, labels, total)


def fermions(n_modes, labels=None, total=None):
    """Fermionic ModeSystem (cutoff 1 per mode), kept in ``_MEMO`` as ``bosons``."""
    return _uniform(n_modes, 1, FERMI, labels, total)


def _uniform(n_modes, cutoff, statistics, labels, total, prefix="m"):
    """ModeSystem of ``n_modes`` modes alike but for their labels, which are
    ``m0, m1, ...`` (``prefix`` then the index) unless ``labels`` gives one per
    mode.  ``n_modes`` must be an integer >= 1, not a bool or a float."""
    if not _is_integer(n_modes) or n_modes < 1:
        raise ValueError(f"n_modes must be an integer >= 1, got {n_modes!r}")
    labels = [f"{prefix}{i}" for i in range(n_modes)] if labels is None else list(labels)
    if len(labels) != n_modes:
        raise ValueError(f"{len(labels)} labels given for {n_modes} modes")
    return _MEMO.get(_key("system", cutoff, statistics, tuple(labels), total), ModeSystem,
                     [(lab, cutoff, statistics) for lab in labels], total)


def qubits(n):
    """n two-level systems realised as bosonic modes with cutoff 1, labelled
    ``q0, q1, ...``."""
    return _uniform(n, 1, BOSE, None, None, "q")


class Operator(_Record):
    """Dense operator on a ModeSystem basis; it holds a read-only copy of its matrix."""

    __slots__ = ("system", "matrix")
    # arrays are unhashable: compare by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, system, matrix):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (system.dim, system.dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match dim {system.dim}")
        matrix.setflags(write=False)
        super().__init__(system, matrix)

    def dag(self):
        return Operator(self.system, self.matrix.conj().T)

    def is_hermitian(self):
        return _hermitian_residuals(self.matrix) <= HERM_INPUT_ATOL

    def _coerce(self, other):
        if not isinstance(other, Operator):
            raise TypeError("expected an Operator")
        if other.system != self.system:
            raise ValueError("operators live on different systems")
        return other

    def __matmul__(self, other):
        return Operator(self.system, self.matrix @ self._coerce(other).matrix)

    def __add__(self, other):
        return Operator(self.system, self.matrix + self._coerce(other).matrix)

    def __sub__(self, other):
        return Operator(self.system, self.matrix - self._coerce(other).matrix)

    def __mul__(self, scalar):
        return Operator(self.system, self.matrix * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Operator(dim={self.system.dim})"


class PureState(_Record):
    """Normalised state vector over the occupation basis; it holds a read-only
    copy of its amplitudes."""

    __slots__ = ("system", "amplitudes")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, system, amplitudes):
        amplitudes = np.array(amplitudes, dtype=complex)
        if amplitudes.shape != (system.dim,):
            raise ValueError("amplitude vector has wrong length")
        nrm = np.linalg.norm(amplitudes)
        if not abs(nrm - 1.0) <= NORM_ATOL:   # written so that NaN fails too
            raise ValueError(f"state vector is not normalised: norm {nrm}, tolerance {NORM_ATOL}")
        amplitudes.setflags(write=False)
        super().__init__(system, amplitudes)

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
    a NaN residual fails it.  The spectrum comes from ``eigvalsh_blocks`` and
    is returned, in block order.

    ``matrix`` may also be an (n, d, d) stack.  Every matrix of it takes the
    same four checks, a failure names the index of the first failing matrix,
    and the (n, d) spectra are each matrix's own ``eigvalsh_blocks``.
    """
    herm = _hermitian_residuals(matrix)
    _require(herm <= HERM_ATOL, herm, "not Hermitian: residual {}")
    tr = matrix.trace(axis1=-2, axis2=-1)
    _require(abs(tr - 1.0) <= TRACE_ATOL, tr, f"trace {{}} is not 1 within {TRACE_ATOL}")
    evals = eigvalsh_blocks(matrix)
    low = evals.min(axis=-1)
    _require(low >= -PSD_SLACK, low, "not positive semidefinite: min eigenvalue {}")
    purity = _row_dots(evals)
    _require(purity <= 1.0 + PURITY_ATOL, purity, "purity {} exceeds 1")
    return evals


def _abs_squared(z):
    """|z|^2 of each entry of a complex array, with the bits of Python's
    ``abs(z) ** 2``: a libm hypot, then a libm pow, neither of which numpy's
    complex ``abs`` and array square always reproduce."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def _row_dots(x):
    """x . x of a real vector, or of each row of a stack of them."""
    return x @ x if x.ndim == 1 else (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _row_slices(n_rows, width):
    """Slices of the rows 0..n_rows-1 of a matrix ``width`` entries wide, each of
    at most ``PAIR_CHUNK`` entries (at least one row): the row blocks of every
    chunked check.  ``PAIR_CHUNK`` is read at call time."""
    step = max(1, PAIR_CHUNK // width)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _residual_norms(x, rows):
    """The Frobenius norm of a residual shaped like ``x``, a d x d matrix (a float)
    or a stack of them over any leading axes (one norm per matrix): the one
    residual norm of focklab.

    ``rows(s)`` forms the residual's rows ``s``, one of ``_row_slices``, of every
    matrix, so that no d x d temporary is held; up to d = 128 that is one block.
    An infinite entry, or a square past the float range, gives a NaN or infinite
    norm, which fails every ``<=`` check, and no warning.
    """
    lead = x.shape[:-2]
    with np.errstate(invalid="ignore", over="ignore"):     # NaN and inf fail every check
        return np.sqrt(sum(_row_dots(rows(s).reshape(*lead, -1).view(float))
                           for s in _row_slices(x.shape[-2], x.shape[-1])))


def _hermitian_residuals(x):
    """||X - X^H||_F of a matrix, or of each matrix of a stack, by ``_residual_norms``."""
    return _residual_norms(x, lambda s: x[..., s, :] - x[..., :, s].swapaxes(-1, -2).conj())


def _require(ok, values, message):
    """Raise ValueError with ``message`` formatted by the failing value unless
    ``ok`` holds; per matrix of a stack, naming the first failing index."""
    if ok.ndim == 0:
        if ok:
            return
        raise ValueError(message.format(values))
    if ok.all():
        return
    i = int(np.argmin(ok))
    raise ValueError(f"stack matrix {i}: " + message.format(values[i]))


class DensityOperator(_Record):
    """Density operator; ``_check_physical`` runs at construction on a read-only
    copy of the matrix, which it holds."""

    __slots__ = ("system", "matrix")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, system, matrix):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (system.dim, system.dim):
            raise ValueError("density matrix shape does not match system")
        _check_physical(matrix)
        matrix.setflags(write=False)
        super().__init__(system, matrix)

    def purity(self):
        # Tr(rho^2) = ||rho||_F^2 for the Hermitian rho validated at construction
        return float(np.vdot(self.matrix, self.matrix).real)

    def diagonal(self):
        return np.real(np.diag(self.matrix)).copy()

    def __repr__(self):
        return f"DensityOperator(dim={self.system.dim})"


def _density_stack(system, stack):
    """One read-only DensityOperator on ``system`` per matrix of an (n, d, d)
    stack.  The stack is checked once by ``_check_physical``, and no matrix is
    checked again on its own.  A complex array is taken over, not copied, and
    made read-only."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (system.dim, system.dim):
        raise ValueError("density stack shape does not match its system")
    _check_physical(stack)
    stack.setflags(write=False)
    return [DensityOperator._unchecked(system, matrix) for matrix in stack]


def _on_system(state, *operators):
    """``state``, once it is a PureState or DensityOperator on each operator's system."""
    if not isinstance(state, (PureState, DensityOperator)):
        raise TypeError("expected PureState or DensityOperator")
    for op in operators:
        if op.system != state.system:
            raise ValueError("operator and state live on different systems")
    return state


def as_density(state):
    """Accept a PureState or DensityOperator and return the density form."""
    return state if isinstance(_on_system(state), DensityOperator) else state.density()


def _density_matrices(states, *operators):
    """``(system, stack, one)``: the read-only (n, d, d) density matrices of one
    state (``one`` true, n = 1) or of a non-empty sequence of states on one
    system, which each operator acts on; the stack of one state is a view of
    its matrix, not a copy.  A state that is not one, or lives on another
    system, raises naming its index.  This is the one place where a function
    of states tells one state from a sequence."""
    one = isinstance(states, (DensityOperator, PureState))
    if one:
        states = [states]
    if not len(states):
        raise ValueError("a stack needs at least one state")
    rhos = []
    for i, state in enumerate(states):
        try:     # every state after the first must share its system
            rhos.append(as_density(_on_system(state, *operators, *rhos[:1])))
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"state {i}: {exc}") from None
    if len(rhos) == 1:
        return rhos[0].system, rhos[0].matrix[None], one
    stack = np.stack([rho.matrix for rho in rhos])
    stack.setflags(write=False)
    return rhos[0].system, stack, one


class Partition(_Record):
    """Named assignment of disjoint mode-index sets to subsystems."""

    __slots__ = ("subsystems",)

    def __init__(self, subsystems):
        # accepts [(name, indices), ...] only; indices kept in the order given
        form = "a partition is a sequence of (name, indices) pairs"
        if isinstance(subsystems, Mapping):
            raise ValueError(f"{form}, not a mapping: got {subsystems!r}")
        parsed = []
        for entry in subsystems:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ValueError(f"{form}, got the entry {entry!r}")
            name, idx = entry
            if not np.iterable(idx) or not all(_is_integer(i) for i in idx):
                raise ValueError(f"mode indices of subsystem {name!r} must be a "
                                 f"sequence of integers, got {idx!r}")
            parsed.append((name, tuple(int(i) for i in idx)))
        if len({name for name, _ in parsed}) != len(parsed):
            raise ValueError("partition subsystem names repeat")
        seen = set()
        for _, idx in parsed:
            for i in idx:
                if i in seen:
                    raise ValueError("partition subsystems overlap")
                seen.add(i)
        super().__init__(tuple(parsed))

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
    """Matrix of the annihilation operator for one mode (index or label).

    Bosonic: a|n> = sqrt(n)|n-1>, with raising past the cutoff mapped to zero
    (take cutoff above any total occupancy in play for exact results).
    Fermionic: Jordan-Wigner sign (-1)^(occupied modes with smaller index).
    The ``ladder_sum`` of its one factor.
    """
    if isinstance(mode, str):
        mode = system.mode_index(mode)
    return ladder_sum(system, [(1.0, ((mode, False),))])


@functools.lru_cache
def _ladder_entries(system, mode):
    """Read-only (rows, cols, values) of the nonzero entries of one mode's annihilation
    operator."""
    if not 0 <= mode < system.n_modes:
        raise ValueError(f"mode index {mode} out of range")
    if system.total_number_restriction is not None:
        raise ValueError(
            "ladder operators leave a number-restricted space; "
            "build them on the unrestricted system")
    occ = system.occupancies
    cols = np.nonzero(occ[:, mode] > 0)[0]
    # unrestricted, so a basis index is its code, and one quantum less in
    # ``mode`` is one stride less
    rows = cols - system.strides[mode]
    if system.modes[mode].statistics == FERMI:
        values = np.where(occ[cols, :mode].sum(axis=1) % 2, -1.0, 1.0)
    else:
        values = np.sqrt(occ[cols, mode])
    for arr in (rows, cols, values):
        arr.setflags(write=False)
    return rows, cols, values


def creation(system, mode):
    return annihilation(system, mode).dag()


@functools.lru_cache
def ladder_product(system, factors):
    """Read-only (rows, cols, values) of the nonzero entries of a product of
    ladder operators, one entry per basis column it does not annihilate.

    ``factors`` is a tuple of ``(mode index, dagger)`` pairs, leftmost first;
    the empty tuple is the identity.  A ladder operator has at most one
    nonzero per column, and hence so has the product: the factors are
    applied right to left to every column, O(d) each, and Jordan-Wigner
    signs and truncation at the cutoff come out as in the dense product.
    """
    cols = np.arange(system.dim)
    rows, values = cols, np.ones(system.dim)
    for mode, dagger in reversed(factors):
        lowered, raised, factor = _ladder_entries(system, mode)
        src, dst = (lowered, raised) if dagger else (raised, lowered)
        pos = np.full(system.dim, -1)
        pos[src] = np.arange(len(src))
        hit = pos[rows]
        keep = hit >= 0
        hit = hit[keep]
        rows, cols, values = dst[hit], cols[keep], factor[hit] * values[keep]
    for arr in (rows, cols, values):
        arr.setflags(write=False)
    return rows, cols, values


def ladder_sum(system, terms):
    """Operator sum of ``coeff * product`` over ``(coeff, factors)`` terms, each
    product scattered from its ``ladder_product`` entries: the only code that
    scatters ladder entries into a dense matrix."""
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    for coeff, factors in terms:
        rows, cols, values = ladder_product(system, factors)
        mat[rows, cols] += coeff * values
    return Operator(system, mat)


def number_diagonal(system, weights=None):
    """Real diagonal of the weighted number operator sum_i w_i n_i, one entry
    per basis row, read off the occupancies in O(d) (weights default to 1)."""
    if weights is None:
        weights = np.ones(system.n_modes)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (system.n_modes,):
        raise ValueError("one weight per mode required")
    if not np.isfinite(weights).all():
        raise ValueError(f"weights must be finite, got {weights.tolist()}")
    return system.occupancies @ weights


def number_op(system, weights=None):
    """Diagonal weighted number operator sum_i w_i n_i (weights default to 1)."""
    return Operator(system, np.diag(number_diagonal(system, weights)))


def sector_blocks(labels):
    """(label, basis indices) per distinct integer label, labels ascending."""
    labels = np.asarray(labels)
    # distinct by a sort: np.unique would import numpy.ma
    ranked = np.sort(labels, axis=None)
    distinct = ranked[:1].tolist() + ranked[1:][ranked[1:] != ranked[:-1]].tolist()
    return [(int(v), np.nonzero(labels == v)[0]) for v in distinct]


def _size_groups(labels):
    """(k, indices) per count k of the distinct labels: ``indices`` (n, k) holds
    the basis indices of each label held by k indices, one label per row in
    ascending label order, each row ascending."""
    # a stable sort by label lays each label's indices out in one ascending run
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    heads = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    counts = np.diff(heads, append=len(order))
    return [(k, order[heads[counts == k, None] + np.arange(k)])
            for k in sorted(set(counts.tolist()))]


def _component_labels(matrix):
    """Smallest index in each index's connected component of the pattern
    (M != 0) | (M^T != 0).

    Repeats ``_label_sweep`` until a sweep changes nothing.  A label is always
    an index of the same component and never above its own index, so the fixed
    point labels each component by its smallest index.
    """
    linked = matrix != 0
    linked |= linked.T
    labels = np.arange(len(matrix))
    while True:
        new = _label_sweep(labels, linked)
        if not new.any() or (new == labels).all():     # all in one, or settled
            return new
        labels = new


def _label_sweep(labels, linked):
    """One O(d^2) sweep of min-label propagation with root hooking.

    ``labels`` point every index at the root of its tree (``labels[r] == r``).
    Every index takes the smallest label among its neighbours, every root
    takes the smallest label its members saw, and pointer jumping then
    flattens the trees again.  Hooking roots, not only indices, merges whole
    trees per sweep, so a path in any index order settles in a few sweeps
    rather than in one sweep per index.
    """
    dim = len(labels)
    seen = np.minimum.reduce(np.broadcast_to(labels, (dim, dim)), axis=1,
                             where=linked, initial=dim)
    new = np.minimum(labels, seen)
    np.minimum.at(new, labels, seen)
    while True:
        jumped = new[new]
        if (jumped == new).all():
            return new
        new = jumped


def eigh_blocks(matrix, vectors):
    """Eigen-decomposition of a Hermitian matrix, one connected component of its
    exact nonzero pattern at a time; the only eigensolver in focklab.

    Returns ``[(indices, eigenvalues, eigenvectors)]``, one triple per component
    size k held by n components: ``indices`` (n, k) are each component's basis
    indices, ascending; ``eigenvalues`` (n, k) ascend within a component; and
    ``eigenvectors`` (n, k, k), or None when ``vectors`` is false, hold each
    component's orthonormal eigenvectors as columns.  1 x 1 components are
    read off the diagonal.  A matrix below ``BLOCK_MIN_DIM`` or of one
    component takes one dense ``eigh``/``eigvalsh`` call, as before blocks.
    As with a dense solve, only the lower triangle is read.

    An (n, d, d) stack is solved whole, matrix by matrix, in one batched dense
    call, 1 x 1 matrices too: each matrix is one component, so the one
    triple's ``indices`` are (n, d) rows of 0..d-1.
    """
    dim = matrix.shape[-1]
    labels = _component_labels(matrix) if matrix.ndim == 2 and dim >= BLOCK_MIN_DIM else None
    if matrix.ndim == 3:
        groups = [np.arange(dim)[None].repeat(len(matrix), axis=0)]
    elif labels is None or not labels.any():
        groups = [np.arange(dim)[None]]
    else:
        groups = [idx for _, idx in _size_groups(labels)]
    out = []
    for idx in groups:
        k = idx.shape[1]
        if k == 1 and matrix.ndim == 2:
            out.append((idx, matrix[idx, idx].real,
                        np.ones((len(idx), 1, 1), dtype=complex) if vectors else None))
            continue
        # a dense solve takes the 2-D matrix or the stack itself, as before blocks
        blocks = matrix if k == dim else matrix[idx[:, :, None], idx[:, None, :]]
        if vectors:
            evals, vecs = np.linalg.eigh(blocks)
            vecs = vecs.reshape(len(idx), k, k)
        else:
            evals, vecs = np.linalg.eigvalsh(blocks), None
        out.append((idx, evals.reshape(idx.shape), vecs))
    return out


def eigvalsh_blocks(matrix):
    """Every eigenvalue of a Hermitian matrix by ``eigh_blocks``, in block order.

    An (n, d, d) stack gives (n, d) rows.  Below ``BLOCK_MIN_DIM`` they come
    from one batched dense solve, ascending per matrix, as each matrix alone
    would be solved; from it on, each matrix is solved block by block on its
    own, so that stacking never turns a block solve into a dense one.
    """
    if matrix.ndim == 3 and matrix.shape[-1] < BLOCK_MIN_DIM:
        return eigh_blocks(matrix, False)[0][1]
    if matrix.ndim == 3:
        return np.array([eigvalsh_blocks(m) for m in matrix]).reshape(matrix.shape[:2])
    return np.concatenate([evals.ravel() for _, evals, _ in eigh_blocks(matrix, False)])


SECTOR_FLOOR = 1e-14


def _sector_stacks(stack, labels):
    """The number sectors of each matrix of an (n, d, d) stack: per distinct
    integer label of weight at least ``SECTOR_FLOOR``, its weight, its basis
    indices and its normalised block, joined into one stack per block size k.

    Per size: the (m,) index of each sector's matrix in ``stack``, the labels
    and the weights as lists of ints and floats, the basis indices as a
    read-only (m, k) array and the normalised blocks as a read-only (m, k, k)
    stack, matrix by matrix and in ascending label order within each.  Each
    stack of blocks is checked by one ``_check_physical``.  Checking a block is
    checking the zero-padded state: that has the block's eigenvalues plus
    zeros, and its Hermitian residual, trace and purity.
    """
    labels = np.asarray(labels)
    out = []
    for _, idx in _size_groups(labels):
        blocks = stack[:, idx[:, :, None], idx[:, None, :]]
        weights = np.real(np.trace(blocks, axis1=-2, axis2=-1))
        # written so that a NaN weight is kept
        source, sector = np.nonzero(~(weights < SECTOR_FLOOR))
        if not len(source):
            continue
        idx, weights = idx[sector], weights[source, sector]
        blocks = blocks[source, sector] / weights[:, None, None]
        _check_physical(blocks)
        for arr in (idx, blocks):
            arr.setflags(write=False)
        out.append((source, labels[idx[:, 0]].tolist(), weights.tolist(), idx, blocks))
    return out


def sub_system(system, mode_indices):
    """Unrestricted ModeSystem of the given modes of ``system``, in that order."""
    return _sub_codes(system, _mode_indices(system, mode_indices))[0]


def _mode_indices(system, mode_indices):
    """``mode_indices`` as a tuple of ints, once each is an integer in
    0..n_modes-1 given once; raises ValueError naming the first that is not."""
    indices = tuple(mode_indices)
    for i in indices:
        if not (_is_integer(i) and 0 <= i < system.n_modes):
            raise ValueError(f"mode index {i!r} is not an integer in 0..{system.n_modes - 1}")
        if indices.count(i) > 1:
            raise ValueError(f"mode index {i} repeats")
    return tuple(int(i) for i in indices)


@functools.lru_cache
def _sub_codes(system, mode_indices):
    """``(sub, index, rest)`` for the modes ``mode_indices`` of ``system``.

    ``sub`` is the unrestricted ModeSystem of those modes in that order, and
    ``index[r]`` is basis row r's index in it.  ``rest[r]`` is the row's
    mixed-radix code over the other modes, ascending in their lexicographic
    order and all zero when there are none.  Both arrays are read-only.
    """
    sub = ModeSystem([system.modes[i] for i in mode_indices])
    others = [i for i in range(system.n_modes) if i not in mode_indices]
    occ = system.occupancies
    # ``sub`` is unrestricted, so a row's index in it is its code there
    index = occ[:, list(mode_indices)] @ sub.strides
    rest = occ[:, others] @ system.strides[others]
    for arr in (index, rest):
        arr.setflags(write=False)
    return sub, index, rest


def tensor_embed(op, system, mode_indices):
    """Lift an operator on a subset of modes to the full system.

    ``op.system`` must be the unrestricted system of ``system.modes[mode_indices]``,
    in order.  The embedding uses the occupation-number product structure, which
    for fermionic modes is faithful for parity-even (number-conserving) operators.
    """
    sub, index, rest = _sub_codes(system, _mode_indices(system, mode_indices))
    if op.system != sub:
        raise ValueError("operator modes do not match the target mode indices")
    full = op.matrix[np.ix_(index, index)] * (rest[:, None] == rest[None, :])
    return Operator(system, full)


def partial_trace(states, partition, keep):
    """Reduced density operator over the modes of subsystem ``keep`` of one
    state, or the list of them of a non-empty sequence of states on one system.

    All modes outside ``keep`` are traced out, whether or not they belong to
    a named subsystem of the partition.  Trace is preserved.  A sequence takes
    one ``_reduced_matrices`` call, whose reduced operators are checked as one
    stack.
    """
    system, stack, one = _density_matrices(states)
    partition.validate(system)
    rows = np.broadcast_to(np.arange(system.dim), stack.shape[:2])
    out = _density_stack(*_reduced_matrices(system, rows, stack, partition.modes_of(keep)))
    return out[0] if one else out


def _reduced_matrices(system, rows, blocks, keep_idx):
    """``(sub, stack)``: the unchecked (n, d_sub, d_sub) matrices on modes
    ``keep_idx`` reduced from the states that are ``blocks[i]`` (k x k) on basis
    ``rows[i]`` (k indices) and zero elsewhere; ``sub`` is ``sub_system``.

    Entry (a, b) of a reduced matrix adds, from zero, the block entries whose
    row has code a and column code b on ``sub`` and which share a code over
    the other modes, one such code after another in ascending order.
    """
    sub, index, rest = _sub_codes(system, tuple(keep_idx))
    n, k = rows.shape
    dim = sub.dim
    # each state's rows ordered by their code over the other modes, flattened
    pos = np.argsort(rest[rows], axis=1, kind="stable")
    flat = (pos + np.arange(0, n * k, k)[:, None]).ravel()     # state * k + position
    codes, subs = rest[rows.ravel()[flat]], index[rows.ravel()[flat]]
    new = np.ones(n * k, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    new[::k] = True
    # each row pairs with the run of rows that share its state and code
    run = np.cumsum(new) - 1
    first, size = np.flatnonzero(new)[run], np.bincount(run)[run]
    pos = pos.ravel()
    target, source = (flat // k * dim + subs) * dim, flat * k
    entries = blocks.reshape(-1)
    out = np.zeros(n * dim * dim, dtype=complex)
    width = int(size.max())
    step = max(1, PAIR_CHUNK // width)
    for lo in range(0, n * k, step):
        # in row order, so the codes of each entry come in ascending order
        i, t = np.nonzero(np.arange(width) < size[lo:lo + step, None])
        i += lo
        j = first[i] + t
        np.add.at(out, target[i] + subs[j], entries[source[i] + pos[j]])
    return sub, out.reshape(n, dim, dim)


def _expectations(stack, matrices):
    """Tr(X_k rho_n) of each matrix of an (n, d, d) stack and each of a (k, d, d)
    stack, as an (n, k) complex array: sum_ij X_ij rho_ji in O(d^2) per entry, by
    one einsum.  The one Tr(X rho) of focklab."""
    return np.einsum("kij,nji->nk", matrices, stack)


def expectation(state, op):
    """<Omega> = Tr(Omega rho), returned as a complex number, exact for any Omega."""
    rho = as_density(_on_system(state, op))
    return complex(_expectations(rho.matrix[None], op.matrix[None])[0, 0])


def _hermitian_blocks(op):
    """The ``eigh_blocks`` eigenpairs of an operator as a tuple of read-only triples,
    once it is Hermitian within ``HERM_INPUT_ATOL``: the one check and solve of
    Hamiltonians and observables."""
    if not op.is_hermitian():
        raise ValueError(f"operator is not Hermitian within {HERM_INPUT_ATOL}")
    blocks = tuple(eigh_blocks(op.matrix, True))
    for triple in blocks:
        for arr in triple:
            arr.setflags(write=False)
    return blocks


def _eigenvalues(blocks):
    """The eigenvalue of the eigenvector at each position of ``eigh_blocks`` triples."""
    order = np.argsort(np.concatenate([idx.ravel() for idx, _, _ in blocks]))
    return np.concatenate([values.ravel() for _, values, _ in blocks])[order]


def _rotate(blocks, x, adjoint=False):
    """V x, or V^H x when ``adjoint``, in place on the rows of a writable complex
    (d, m) or (n, d, m) array ``x``, which it returns; the only code in focklab that
    multiplies by eigenvectors.

    V holds the eigenvectors of ``eigh_blocks`` triples: eigenvector j of a
    component with indices ``idx``, ascending, is column idx[j].  Each component
    takes its own k x k product, formed from at most ``PAIR_CHUNK`` entries of ``x``
    at a time; below ``BLOCK_MIN_DIM`` a matrix is one component, so one matmul.
    """
    flat = x if x.ndim == 3 else x[None]
    for idx, _, vecs in blocks:
        (n, k), m = idx.shape, x.shape[-1]
        w = vecs.conj().swapaxes(-1, -2).copy() if adjoint else vecs
        # columns, then components, then states per chunk, as many as fit
        width = min(m, max(1, PAIR_CHUNK // k))
        comps = max(1, PAIR_CHUNK // (k * width))
        states = max(1, comps // n)
        for s in range(0, len(flat), states):
            for c in range(0, n, comps):
                # one component of every row holds them in order: a slice, not a copy
                rows = slice(None) if k == flat.shape[1] else idx[c:c + comps]
                for j in range(0, m, width):
                    part = slice(s, s + states), rows, slice(j, j + width)
                    flat[part] = w[c:c + comps] @ flat[part]
    return x


def _conjugate(blocks, x, adjoint=False):
    """V x V^H, or V^H x V when ``adjoint``, in place on each matrix of a writable
    complex (n, d, d) stack ``x``, which it returns: ``_rotate`` of the rows, then
    the conjugate transpose, twice."""
    for _ in range(2):
        x = np.conj(_rotate(blocks, x, adjoint), out=x).swapaxes(-1, -2)
    return x


def _real_entries(values):
    """Whether every entry of ``values`` is a real number, not a bool, string, complex
    or None: an array is judged by its dtype, anything else entry by entry."""
    entries = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    return entries.dtype.kind in "iuf" or entries.dtype == object and all(
        isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        for v in entries.flat)


def _one_or_many(values, message):
    """``(array, one)``: one real number, or a non-empty 1-D sequence of them, as a 1-D
    array, and whether it was one item; an empty or nested sequence raises ValueError
    with ``message``, and an entry that is not a real number (a complex, a bool, a
    string) with ``message`` and the argument.  The one place a time or a phase
    argument tells one from many."""
    array = np.atleast_1d(values)
    if array.ndim != 1 or not array.size:
        raise ValueError(message)
    if not _real_entries(values):
        raise ValueError(f"{message}, each a real number: got {values!r}")
    # Python ints past int64 make an object array, which ufuncs such as isfinite refuse
    return array.astype(float) if array.dtype == object else array, np.ndim(values) == 0


def evolution_operator(h, t):
    """U = exp(-i H t) as a dense Operator for one time ``t``, or the list of them for a
    non-empty sequence of times: ``_unitaries`` of one Hermitian check and one
    ``eigh_blocks`` of H, each U with the bits of its time alone."""
    return _unitaries(h.system, _hermitian_blocks(h), t)


def _unitaries(system, blocks, t):
    """exp(-i H t) on ``system`` as a dense Operator for one time, or the list of them
    for a sequence, from the ``eigh_blocks`` of H: ``_evolve`` of the identity.  The
    one place focklab builds a d x d unitary."""
    times, one = _one_or_many(
        t, "evolution_operator takes one time or a non-empty sequence of times")
    out = [Operator(system, u) for u in _evolve(blocks, times, np.eye(system.dim))]
    return out[0] if one else out


def _evolve(blocks, times, x):
    """exp(-i H t) x = V (e^{-i lambda t} V^H x) for each t of ``times``, along a leading
    axis, from the ``eigh_blocks`` of H, for a (d,) vector or each column of a (d, m)
    array, which is not changed: V^H x is formed once, each time has the bits of its
    time alone, and no unitary is formed.  The one place exp(-i H t) acts on a state;
    a time that is not finite raises."""
    if not np.isfinite(times).all():
        raise ValueError(f"evolution times {times} are not all finite")
    cols = _rotate(blocks, np.array(x, dtype=complex, order="C").reshape(len(x), -1), adjoint=True)
    out = np.empty((len(times), *cols.shape), dtype=complex)
    for row, t in zip(out, times):     # one product per time, whose bits its shape sets
        np.multiply(np.exp(-1j * _eigenvalues(blocks) * t)[:, None], cols, out=row)
    return _rotate(blocks, out).reshape(len(times), *x.shape)


def unitary_evolve(h, t, state):
    """Evolve a PureState or DensityOperator under exp(-i H t) for one time ``t``, or
    to each of a non-empty sequence of times, giving the list of states.  H is checked
    and solved once; a density operator takes ``_evolve`` on its rows, then on its
    columns, so that no unitary is formed, and a sequence is checked as one stack."""
    blocks = _hermitian_blocks(h)
    times, one = _one_or_many(t, "unitary_evolve takes one time or a non-empty sequence of times")
    if isinstance(_on_system(state, h), PureState):
        out = [PureState(h.system, psi) for psi in _evolve(blocks, times, state.amplitudes)]
    else:     # U rho U^H = (U (U rho)^H)^H, the rows of every time first, in place
        rows = _evolve(blocks, times, state.matrix)
        for s, a in zip(times, rows):
            np.conj(_evolve(blocks, [s], np.conj(a, out=a).T)[0].T, out=a)
        out = _density_stack(h.system, rows)
    return out[0] if one else out


def apply_unitary(u, state):
    """Apply an explicit unitary Operator to a state of either kind."""
    if isinstance(_on_system(state, u), PureState):
        return PureState(state.system, u.matrix @ state.amplitudes)
    return DensityOperator(state.system, u.matrix @ state.matrix @ u.matrix.conj().T)
