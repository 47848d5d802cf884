"""Span tracer installed from outside the program.

Wraps every public function of each ``focklab`` module in every focklab
namespace that binds it, the constructors of a few hot classes, and the
numpy/scipy kernels focklab calls.  Spans (name, start, end, parent, op id)
are kept in memory and written out when the run ends.  Spans are recorded
only inside an op, so the benchmark's own correctness checks stay out of
the trace.

At import time this module loads only the standard library; numpy is
imported when a matrix digest is first taken.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import re
import sys
import time

LAYERS = ("cli", "fock", "measurement", "ssr", "states", "witnesses", "lhv",
          "dynamics", "sampling")

# (module, class, method) whose calls are spanned as "<layer>.<class>" for
# constructors and "<layer>.<class>.<method>" otherwise.  Classes are wrapped
# on the class, never rebound, so isinstance checks keep working.
CLASS_METHODS = (
    ("fock", "ModeSystem", "__init__"),
    ("fock", "DensityOperator", "__init__"),
    ("measurement", "Observable", "__init__"),
    ("states", "SeparableMixture", "summed"),
)

# The kernels focklab calls: (module path, attribute, span name).
KERNELS = (
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("focklab.dynamics", "expm", "linalg.expm"),
)


def _matrix_digest(op, *args, **kwargs):
    import numpy as np
    data = np.ascontiguousarray(op.matrix)
    return op.system, hashlib.blake2b(data.view("u1"), digest_size=16).digest()


def _ladder_key(system, mode, *args, **kwargs):
    return system, mode


# Functions whose distinct-argument ratio is counted: the share of calls a
# per-argument cache could not have answered.
DISTINCT_KEYS = {
    "fock.annihilation": _ladder_key,
    "measurement.spectral": _matrix_digest,
}


class Tracer:
    """In-memory span store with wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.distinct = {}
        self.max_dim = 0
        self.op_id = None
        self._stack = []
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def _close(self, i):
        self.ends[i] = self.clock()
        self._stack.pop()

    def run_op(self, name, op_id, func, *args):
        """Call ``func(*args)`` as the root span ``op.<name>`` of op ``op_id``."""
        self.op_id = op_id
        i = self._open(f"op.{name}")
        try:
            return func(*args)
        finally:
            self._close(i)
            self.op_id = None

    def wrap(self, name, func, observe=None):
        """Return ``func`` with a span around each call made inside an op."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return func(*args, **kwargs)
            if observe is not None:
                observe(*args, **kwargs)
            i = tracer._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(i)

        return wrapper

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops))

    def distinct_counts(self):
        return {k: len(v) for k, v in self.distinct.items()}

    def dump(self, path):
        write_spans(path, self.spans(), self.distinct_counts(), self.max_dim)

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _observer(self, name):
        key = DISTINCT_KEYS.get(name)
        if key is None:
            return None
        seen = self.distinct.setdefault(name, set())
        return lambda *a, **k: seen.add(key(*a, **k))

    def _observe_dim(self, matrix, *args, **kwargs):
        self.max_dim = max(self.max_dim, int(matrix.shape[0]))

    def install(self):
        """Wrap focklab's public functions, hot classes and kernels."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "focklab" or n.startswith("focklab.")]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"focklab.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, self._observer(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._set(ns, attr, wrapped[id(obj)])
        for layer, cls_name, method in CLASS_METHODS:
            cls = getattr(sys.modules[f"focklab.{layer}"], cls_name)
            name = f"{layer}.{cls_name}" + ("" if method == "__init__" else f".{method}")
            self._set(cls, method, self.wrap(name, getattr(cls, method)))
        for mod_name, attr, name in KERNELS:
            owner = sys.modules[mod_name]
            self._set(owner, attr, self.wrap(name, getattr(owner, attr),
                                             self._observe_dim))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus that of its direct children.

    ``spans`` holds (name, start, end, parent, ...) tuples with ``parent`` an
    index into the same list or -1.  Spans of one process never overlap
    except by nesting, so the children's durations are disjoint.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def aggregate(spans):
    """Per span name: number of calls and summed self time."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out


def write_spans(path, spans, distinct, max_dim):
    """Write spans and counters; span names are stored once and referenced."""
    table = sorted({s[0] for s in spans})
    index = {n: k for k, n in enumerate(table)}
    with open(path, "w") as fh:
        json.dump({"names": table,
                   "spans": [[index[n], s, e, p, o] for n, s, e, p, o in spans],
                   "distinct": distinct, "max_dim": max_dim}, fh)


def load_spans(path):
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    spans = [(names[n], s, e, p, o) for n, s, e, p, o in data["spans"]]
    return spans, data["distinct"], data["max_dim"]


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_times(stderr_text, packages=("focklab", "scipy", "numpy")):
    """Seconds spent importing each package, from ``python -X importtime``.

    A package's figure is the summed cumulative time of its outermost entries:
    those not nested inside another entry of the same package.  A module is
    printed after the modules it imported, one indent deeper, so an entry's
    parent is the next entry printed at a smaller depth.
    """
    entries = []
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    totals = {}
    for pkg in packages:
        def belongs(name):
            return name == pkg or name.startswith(pkg + ".")
        total = 0
        for i, (depth, name, cum_us) in enumerate(entries):
            if not belongs(name):
                continue
            nested = False
            want = depth
            for d, n, _ in entries[i + 1:]:
                if d < want:
                    if belongs(n):
                        nested = True
                        break
                    want = d
                    if d == 0:
                        break
            if not nested:
                total += cum_us
        totals[pkg] = total * 1e-6
    return totals
