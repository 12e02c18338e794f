"""In-memory tracing of the library's layers, installed from outside.

``Tracer.install`` wraps the functions and methods named in ``LAYERS``.
A module-level function is rebound in every ``chevelem`` module that holds
it, because modules import each other's functions by name
(``from .words import eval_word``). A method is replaced on its class.

Each wrapper counts calls, inclusive time, self time (inclusive time minus
the time spent in wrapped children), calls that raised, and an optional
layer-specific count. Coarse layers also record spans
``[id, parent id, name, start, end]``; the root span of each input comes
from ``begin_input``. Everything stays in memory until the caller reads it
at the end of the run. When ``active`` is false a wrapper
only forwards the call.
"""

from __future__ import annotations

import functools
import sys
import time


def _products(args, result):
    return len(args[0].terms) * len(args[1].terms)


def _letters(args, result):
    return len(args[0].letters)


def _levels(args, result):
    return result[1]


CALLS_SELF = ("calls", "self_ms")
CALLS_SELF_FAILED = ("calls", "self_ms", "failed")

# (module, attribute path, reported stats, records spans, extra count name, extra count)
LAYERS = (
    ("exactring", "MultiPoly.__mul__", CALLS_SELF + ("monomial_products",), False, "monomial_products", _products),
    ("exactring", "MultiPoly.__add__", CALLS_SELF, False, None, None),
    ("exactring", "MultiPoly.substitute", CALLS_SELF, False, None, None),
    ("exactring", "parse_poly", CALLS_SELF, False, None, None),
    ("fileio", "certificate_from_dict", CALLS_SELF, True, None, None),
    ("rootdata", "GroupMatrix.rmul_unipotent", CALLS_SELF, False, None, None),
    ("rootdata", "GroupMatrix.lmul_unipotent", CALLS_SELF, False, None, None),
    ("rootdata", "GroupMatrix.__mul__", CALLS_SELF, False, None, None),
    ("rootdata", "GroupMatrix.inverse", CALLS_SELF, False, None, None),
    ("rootdata", "membership_check", CALLS_SELF, True, None, None),
    ("rootdata", "build_root_system", ("calls", "total_ms"), True, None, None),
    ("words", "eval_word", CALLS_SELF + ("letters",), True, "letters", _letters),
    ("words", "free_reduce", CALLS_SELF, False, None, None),
    ("words", "map_word", CALLS_SELF, False, None, None),
    ("factorize", "factor_polynomial", ("calls", "total_ms", "failed"), True, None, None),
    ("factorize", "heuristic_reduce", CALLS_SELF, True, None, None),
    ("factorize", "try_divide", CALLS_SELF, False, None, None),
    ("factorize", "partial_quotient", CALLS_SELF, False, None, None),
    ("factorize", "factor_integer_sl", CALLS_SELF, True, None, None),
    ("factorize", "factor_integer_sp", CALLS_SELF, True, None, None),
    ("localglobal", "dilation_factor", CALLS_SELF_FAILED, True, None, None),
    ("localglobal", "descend_word", CALLS_SELF_FAILED + ("levels",), True, "levels", _levels),
    ("localglobal", "patch", CALLS_SELF_FAILED, True, None, None),
    ("localglobal", "dilation_equalizer", CALLS_SELF_FAILED, True, None, None),
    ("localglobal", "telescoping_product", CALLS_SELF_FAILED, True, None, None),
)

UNITS = {
    "calls": "count",
    "failed": "count",
    "self_ms": "ms",
    "total_ms": "ms",
    "monomial_products": "count",
    "letters": "letters",
    "levels": "count",
}


class Stat:
    __slots__ = ("calls", "total", "self", "failed", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.failed = 0
        self.extra = 0

    def as_tuple(self):
        return (self.calls, self.total, self.self, self.failed, self.extra)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}
        self.spans = []
        self._child = [0.0]  # per open frame: time spent in wrapped children
        self._open_spans = [None]  # ids of the enclosing spans

    # -- installation -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer of an imported ``chevelem`` package."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for module, path, _, span, extra_name, extra in LAYERS:
            owner = sys.modules["%s.%s" % (package.__name__, module)]
            name = "%s.%s" % (module, path)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, span, extra)
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn, span, extra):
        stat = self.stats.setdefault(name, Stat())
        child = self._child
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child.append(0.0)
            if span:
                sid = len(spans)
                spans.append([sid, open_spans[-1], name, 0.0, 0.0])
                open_spans.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self += dt - inner
                if span:
                    open_spans.pop()
                    spans[sid][3:] = [t0, t0 + dt]
            if extra is not None:
                stat.extra += extra(args, result)
            return result

        return wrapper

    # -- per-input bookkeeping -------------------------------------------------------

    def begin_input(self, label: str) -> int:
        """Open the root span of one input; wrapped calls nest under it."""
        sid = len(self.spans)
        self.spans.append([sid, None, label, time.perf_counter(), 0.0])
        self._open_spans.append(sid)
        return sid

    def end_input(self, sid: int) -> None:
        self._open_spans.pop()
        self.spans[sid][4] = time.perf_counter()

    def snapshot(self):
        return ({k: s.as_tuple() for k, s in self.stats.items()}, len(self.spans))

    def restore(self, snap) -> None:
        """Drop everything recorded since ``snap``."""
        values, nspans = snap
        for k, (calls, total, self_t, failed, extra) in values.items():
            s = self.stats[k]
            s.calls, s.total, s.self, s.failed, s.extra = calls, total, self_t, failed, extra
        del self.spans[nspans:]

    # -- report -------------------------------------------------------------------

    def metrics(self):
        out = {}
        for module, path, stats, _, extra_name, _ in LAYERS:
            s = self.stats["%s.%s" % (module, path)]
            values = {
                "calls": s.calls,
                "failed": s.failed,
                "self_ms": s.self * 1000.0,
                "total_ms": s.total * 1000.0,
            }
            if extra_name:
                values[extra_name] = s.extra
            for stat in stats:
                out["%s.%s.%s" % (module, path, stat)] = {"value": values[stat], "unit": UNITS[stat]}
        return out
