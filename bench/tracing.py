"""Spans and counters recorded by wrappers around public hecketrace
functions.

Nothing in the package is edited: ``install`` replaces each wrapped
function in every hecketrace module that binds it (``hecke.mul`` is also
``tensor.hecke_mul``, ``fqconv.hecke_mul`` and ``suites.mul``), and
``uninstall`` puts the originals back.  Spans and counters stay in memory
until ``dump`` writes them out after the pass.

A span is ``[name, start, end, parent index, op id]``; the self time of a
span is its duration minus the durations of its direct children (calls
are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute).  Each gets a span per call.
SPANNED = {
    "cli.main": ("cli", "main"),
    "suites.run_suite": ("suites", "run_suite"),
    "traces.zeta_trace": ("traces", "zeta_trace"),
    "traces.series_from_traces": ("traces", "series_from_traces"),
    "traces.generating_series": ("traces", "generating_series"),
    "traces.zeta_trace_diagonal": ("traces", "zeta_trace_diagonal"),
    "scalars.series_mul": ("scalars", "series_mul"),
    "hecke.mul": ("hecke", "mul"),
    "tensor.apply_r": ("tensor", "apply_r"),
    "tensor.matrix_element": ("tensor", "matrix_element"),
    "tensor.gram_matrix": ("tensor", "gram_matrix"),
    "tensor.ldlt_pivots": ("tensor", "ldlt_pivots"),
    "tensor.normal_form": ("tensor", "normal_form"),
    "tensor.omega_trace": ("tensor", "omega_trace"),
    "tensor.diagonal_zeta": ("tensor", "diagonal_zeta"),
    "fqconv.convolve": ("fqconv", "convolve"),
    "fqconv.structure_constants_check": ("fqconv", "structure_constants_check"),
    "fqconv.expand_in_cells": ("fqconv", "expand_in_cells"),
    "fqconv.enumerate_gl": ("fqconv", "enumerate_gl"),
    "fqconv.bruhat_table": ("fqconv", "bruhat_table"),
}

# counter name -> (module, attribute).  Counted only: these run so often
# that a span per call would swamp the pass.
COUNTED = {
    "hecke.gen_mul_left.calls": ("hecke", "gen_mul_left"),
    "permutations.reduced_word.calls": ("permutations", "reduced_word"),
}

# counter name -> (module, class, attribute) for methods.
COUNTED_METHODS = {
    "scalars.rootelem_mul.calls": ("scalars", "RootElem", ("__mul__", "__rmul__")),
    "scalars.qpoly_mul.calls": ("scalars", "QPoly", ("__mul__", "__rmul__")),
    "tensor.contexts": ("tensor", "ModelContext", ("create",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def spanned(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_yields(self, name, fn):
        """Counts the items a generator function yields."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)

            def gen():
                for item in items:
                    counters[name] += 1
                    yield item

            return gen()

        wrapper.__wrapped__ = fn
        return wrapper

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every hecketrace module attribute bound to ``original`` at
        ``replacement``."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hecketrace" or modname.startswith("hecketrace.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no hecketrace module")

    def install(self):
        import importlib

        mods = {
            name: importlib.import_module(f"hecketrace.{name}")
            for name in ("cli", "suites", "traces", "scalars", "hecke", "permutations", "tensor", "fqconv")
        }

        def apply_r_before(args, kwargs):
            state = args[3] if len(args) > 3 else kwargs["state"]
            self.counters["tensor.apply_r.terms_in"] += len(state.terms)
            if self.in_span("tensor.matrix_element"):
                self.counters["tensor.apply_r.terms_in_matrix_element"] += len(state.terms)

        def convolve_after(args, kwargs, result):
            f, g = args
            self.counters["fqconv.convolve.products"] += len(f.values) * len(g.values)
            self.counters["fqconv.convolve.coefficients"] += len(result.values)

        self._bruhat = mods["fqconv"].bruhat_table
        hooks = {
            "tensor.apply_r": (apply_r_before, None),
            "fqconv.convolve": (None, convolve_after),
        }
        for name, (mod, attr) in SPANNED.items():
            original = getattr(mods[mod], attr)
            before, after = hooks.get(name, (None, None))
            self._rebind(original, self.spanned(name, original, before, after))
        for name, (mod, attr) in COUNTED.items():
            original = getattr(mods[mod], attr)
            self._rebind(original, self.counted(name, original))
        original = mods["traces"].enumerate_multiplicities
        self._rebind(original, self.counted_yields("traces.partitions", original))
        for name, (mod, cls_name, attrs) in COUNTED_METHODS.items():
            cls = getattr(mods[mod], cls_name)
            for attr in attrs:
                descriptor = cls.__dict__[attr]
                self._undo.append((cls, attr, descriptor))
                if isinstance(descriptor, classmethod):
                    setattr(cls, attr, classmethod(self.counted(name, descriptor.__func__)))
                else:
                    setattr(cls, attr, self.counted(name, descriptor))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def bruhat_hit_ratio(self) -> float:
        info = self._bruhat.cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def dump(self, path):
        """Write the counters, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: total self time (duration minus direct children) and
    number of spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - child[i]
        calls[name] += 1
    return dict(totals), dict(calls)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    self_s, calls = self_times(tracer.spans)
    c = tracer.counters
    out = {}
    for name in SPANNED:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (*COUNTED, *COUNTED_METHODS, "traces.partitions", "tensor.apply_r.terms_in", "fqconv.convolve.products"):
        out[name] = c[name]
    out["traces.partitions_per_value"] = _ratio(c["traces.partitions"], calls.get("traces.zeta_trace", 0))
    out["tensor.terms_per_matrix_element"] = _ratio(
        c["tensor.apply_r.terms_in_matrix_element"], calls.get("tensor.matrix_element", 0)
    )
    out["fqconv.products_per_coefficient"] = _ratio(
        c["fqconv.convolve.products"], c["fqconv.convolve.coefficients"]
    )
    out["fqconv.bruhat_table.hit_ratio"] = tracer.bruhat_hit_ratio()
    return out
