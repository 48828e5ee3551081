"""Outside-in span tracing of the overpart layers.

``Tracer.install`` wraps, from outside the package, every public function
of the five layer modules and every method of the series classes
``QLaurent`` and ``XSeries``.  A function imported by name into another
module (``count_G`` into ``recurrence_engine`` and ``cli``, say) is
rebound there too, so no call escapes its span.  ``DPoly`` methods stay
unwrapped: only series code calls them, so their time already lands in
the enclosing ``series_ring`` span.  Generator functions (``terms``) are
left alone as well; their iteration is charged to the consumer.

Spans are kept in flat arrays (name, start, end, parent) while the
program runs and reduced to per-layer figures only at the end.  A span's
self time is its duration minus the durations of its child spans.  The
exact counters (``count_G`` keys, multiply term pairs, coefficient bits)
are computed after the wrapped call returns, inside a ``trace.counters``
span, so their cost is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("alpha_system", "enumeration", "series_ring", "recurrence_engine",
          "cli")
TRACED_CLASSES = {"series_ring": ("QLaurent", "XSeries")}

#: Functions whose inclusive time is reported as ``<name>.total_s``.
TOTALS = ("recurrence_engine.run_recurrence", "recurrence_engine.limit_u",
          "recurrence_engine.verify_chain")
#: Functions whose call count is reported as ``<name>.calls``.
CALLS = ("enumeration.count_G", "series_ring.QLaurent.mul",
         "recurrence_engine.g_series", "alpha_system.alpha_weight_sum")
#: Functions whose self time is reported as ``<name>.self_s``.
SELF = ("enumeration.count_G", "enumeration.count_F",
        "series_ring.QLaurent.mul", "series_ring.QLaurent.divide",
        "series_ring.QLaurent.add", "series_ring.XSeries.mul")

COUNTERS = "trace.counters"


def _public(attr):
    return not attr.startswith("_") or (attr.startswith("__")
                                        and attr.endswith("__"))


def _span_name(layer, func):
    qual = ".".join(part.strip("_") for part in func.__qualname__.split("."))
    return f"{layer}.{qual}"


def _term_count(series):
    return sum(len(p.coeffs) for p in series.coeffs.values())


def _max_bits(series):
    return max((abs(c).bit_length() for p in series.coeffs.values()
                for c in p.coeffs.values()), default=0)


class Tracer:
    """Span store plus the exact counters of one traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.count_g_keys = []
        self.term_pairs = 0
        self.max_coeff_bits = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open_span(self, nid):
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        return idx

    def _close_span(self, idx, t):
        self.end[idx] = t
        self._open.pop()

    def wrap(self, name, func, after=None):
        """``func`` inside a span named ``name``; ``after(args, kwargs,
        result)`` updates the counters outside it."""
        nid = self._name_id(name)
        counters_id = self._name_id(COUNTERS)
        clock = time.perf_counter
        start = self.start

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open_span(nid)
            start[idx] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close_span(idx, clock())
            if after is not None:
                cid = self._open_span(counters_id)
                start[cid] = clock()
                try:
                    after(args, kwargs, result)
                finally:
                    self._close_span(cid, clock())
            return result

        return traced

    # -- counters ------------------------------------------------------

    def _count_g_hook(self, count_G):
        signature = inspect.signature(count_G)

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.count_g_keys.append(tuple(bound.arguments.values()))

        return after

    def _after_series_op(self, args, kwargs, result):
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(result))

    def _after_mul(self, args, kwargs, result):
        left, right = args
        if type(right) is type(left):
            self.term_pairs += _term_count(left) * _term_count(right)
        self._after_series_op(args, kwargs, result)

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the layers of the imported ``overpart`` package."""
        modules = {layer: importlib.import_module(f"overpart.{layer}")
                   for layer in LAYERS}
        hooks = {"enumeration.count_G":
                 self._count_g_hook(modules["enumeration"].count_G),
                 "series_ring.QLaurent.mul": self._after_mul,
                 "series_ring.QLaurent.divide": self._after_series_op}
        replaced = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and _public(attr)
                        and value.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(value)):
                    name = _span_name(layer, value)
                    replaced[value] = self.wrap(name, value, hooks.get(name))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                self._wrap_class(layer, getattr(module, cls_name), hooks)
        holders = [m for name, m in list(sys.modules.items())
                   if name == "overpart" or name.startswith("overpart.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    def _wrap_class(self, layer, cls, hooks):
        for attr, value in list(vars(cls).items()):
            if not _public(attr):
                continue
            if isinstance(value, classmethod):
                func = value.__func__
                setattr(cls, attr, classmethod(
                    self.wrap(_span_name(layer, func), func)))
            elif isinstance(value, property):
                setattr(cls, attr, property(
                    self.wrap(_span_name(layer, value.fget), value.fget)))
            elif (inspect.isfunction(value)
                  and not inspect.isgeneratorfunction(value)):
                name = _span_name(layer, value)
                setattr(cls, attr, self.wrap(name, value, hooks.get(name)))

    # -- reduction -----------------------------------------------------

    def summary(self):
        """Per-layer metrics of everything traced so far."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_by_name = [0.0] * len(self.names)
        calls_by_name = [0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            self_by_name[nid] += dur[i] - child[i]
            calls_by_name[nid] += 1
        by_name = dict(zip(self.names, self_by_name))
        calls = dict(zip(self.names, calls_by_name))

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in by_name.items()
                if name.startswith(layer + "."))
        for name in SELF:
            out[f"{name}.self_s"] = by_name.get(name, 0.0)
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in TOTALS:
            out[f"{name}.total_s"] = self._outermost_total(name, dur)
        keys = self.count_g_keys
        out["enumeration.count_G.distinct_share"] = (
            len(set(keys)) / len(keys) if keys else 0.0)
        out["series_ring.QLaurent.mul.term_pairs"] = self.term_pairs
        out["series_ring.max_coeff_bits"] = self.max_coeff_bits
        return out

    def _outermost_total(self, name, dur):
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        total = 0.0
        for i in range(len(self.name_of)):
            if self.name_of[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                total += dur[i]
        return total
