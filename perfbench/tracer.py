"""Call tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions and methods of the
``riordan`` modules from outside the library.  Module functions are
rebound in every namespace that holds them (``verify`` and
``genlagrange`` import constructors with ``from ... import``, so
patching only the defining module would miss their calls); methods are
rebound on their class.  Each call is a span whose parent is the span
open when it started.  Spans are aggregated in memory per function and
per (parent, child) edge, and a function's self time is its span minus
the time its direct child spans cover.

Tracing is installed only by the traced runs, never in a timed run.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "riordan"
MODULES = ("fps", "exact", "matrix", "arrays", "numerator", "genlagrange",
           "bivariate", "parser", "cli", "verify")

# Arithmetic dunders are wrapped; other dunders and these constant-time
# accessors are not, because their per-call cost is below the wrapper's own.
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
            "__eq__"}
_SKIP = {"coeff", "entry", "row", "column", "degree", "is_zero", "is_square",
         "is_proper"}
_PRIVATE = {"_reversion_extraction"}

# Span names the benchmark reports under a short name.
ALIASES = {
    "fps.Series.__mul__": "fps.series_mul",
    "fps.Poly.__mul__": "fps.poly_mul",
    "fps.Series.inverse": "fps.inverse",
    "fps.Series.log": "fps.log",
    "fps.Series.exp": "fps.exp",
    "fps.Series.pow": "fps.pow",
    "fps.Series.compose": "fps.compose",
    "fps.Series.reversion": "fps.reversion",
    "fps.Series._reversion_extraction": "fps.reversion_check",
    "matrix.FinMatrix.__mul__": "matrix.mul",
    "matrix.FinMatrix.inverse": "matrix.inverse",
    "matrix.FinMatrix.apply": "matrix.apply",
}

# Pure constructors whose distinct argument tuples are counted, so that
# repeat_ratio shows the work a memo would save.
KEYED = {"numerator.core_matrix", "numerator.exp_matrix",
         "numerator.tilde_matrix", "numerator.W_matrix",
         "genlagrange.beta_matrix", "exact.eulerian_poly"}


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "depth", "keys")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.keys = None

    @property
    def repeat_ratio(self) -> float:
        if not self.calls:
            return 0.0
        return (self.calls - len(self.keys)) / self.calls


class Tracer:
    """Aggregated spans for wrapped calls; see the module docstring."""

    def __init__(self):
        self.stats = {}
        self.edges = {}  # (parent span, child span) -> [calls, seconds]
        self._stack = []  # open spans: [name, seconds covered by children]
        self._undo = []
        self.mul_calls = 0
        self.mul_order_sum = 0
        self.mul_bits_sum = 0.0

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
            if name in KEYED:
                st.keys = set()
        return st

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        st = self.stat(name)
        st.calls += 1
        if st.keys is not None:
            st.keys.add((args, tuple(sorted(kwargs.items()))))
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        st.depth += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - start
            stack.pop()
            st.depth -= 1
            st.self_s += dt - frame[1]
            if st.depth == 0:  # recursion is counted once in inclusive time
                st.incl_s += dt
            if stack:
                stack[-1][1] += dt
            edge = self.edges.get((parent, name))
            if edge is None:
                edge = self.edges[(parent, name)] = [0, 0.0]
            edge[0] += 1
            edge[1] += dt

    def _wrap(self, name: str, fn):
        span = self.span
        if name == "fps.series_mul":
            def traced(a, b):
                if b.__class__ is a.__class__:
                    self._record_mul(a, b)
                return span(name, fn, a, b)
        else:
            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _record_mul(self, a, b):
        n = min(a.order, b.order)
        coeffs = a.coeffs[: n + 1] + b.coeffs[: n + 1]
        bits = sum(c.numerator.bit_length() + c.denominator.bit_length()
                   for c in coeffs)
        self.mul_calls += 1
        self.mul_order_sum += n
        self.mul_bits_sum += bits / len(coeffs)

    def install(self):
        """Wrap every traced function of the ``riordan`` modules and rebind
        it in each of them that holds it."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules.get("%s.%s" % (PACKAGE, short))
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    self._install_class(short, value, wrappers)
                elif (callable(value) and getattr(value, "__module__", None) == mod.__name__
                      and _traced_name(attr)):
                    name = ALIASES.get("%s.%s" % (short, attr), "%s.%s" % (short, attr))
                    wrappers[id(value)] = (value, self._wrap(name, value))
        namespaces = [m for k, m in sys.modules.items()
                      if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

    def _install_class(self, short, cls, wrappers):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            if not attr.startswith("__") and not _traced_name(attr):
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(fn):  # properties and plain attributes
                continue
            hit = wrappers.get(id(fn))
            if hit is None:  # aliases such as __rmul__ = __mul__ share one span
                key = "%s.%s.%s" % (short, cls.__name__, fn.__name__)
                hit = wrappers[id(fn)] = (fn, self._wrap(ALIASES.get(key, key), fn))
            wrapped = hit[1]
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def module_self_s(self, short: str) -> float:
        prefix = short + "."
        return sum(st.self_s for name, st in self.stats.items()
                   if name.startswith(prefix))

    def snapshot(self) -> dict:
        """Plain-data view: per-span stats, module self times, edges and
        the multiplication input descriptors."""
        spans = {name: {"calls": st.calls, "s": st.incl_s, "self_s": st.self_s,
                        "repeat_ratio": st.repeat_ratio if st.keys is not None else None}
                 for name, st in self.stats.items()}
        return {
            "spans": spans,
            "module_self_s": {m: self.module_self_s(m) for m in MODULES},
            "edges": [[p, c, n, s] for (p, c), (n, s) in self.edges.items()],
            "mul": {"calls": self.mul_calls, "order_sum": self.mul_order_sum,
                    "bits_sum": self.mul_bits_sum},
        }


def _traced_name(attr: str) -> bool:
    if attr in _SKIP:
        return False
    return not attr.startswith("_") or attr in _PRIVATE
