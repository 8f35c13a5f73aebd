"""Out-of-program tracing: wraps reinhardt's public functions at run time.

Spans are taken at layer-entry functions; every span carries the id of the
operation (root span) it belongs to and the id of its parent span.  The
per-index calls (``SeriesSpec.supported_indices``, ``coefficient``,
``log_abs_coeff_normalized``, ``project``, ``enumerate_degree``,
``nearest_index_of_degree``) run 10^3-10^5 times per operation, so they are
not spans: their calls and busy time are aggregated into the enclosing span
and into per-function totals.

Self time of a call is its duration minus the time spent in the wrapped calls
it made; a layer's self time is the sum over its functions.  A layer's busy
time is wall time inside outermost calls into the layer.

``hadamard_indicator`` and ``block_sums`` stay unwrapped so that the spans of
``classify`` and ``probe`` carry the kernels they delegate to.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("multiindex", "series", "hadamard", "oracle", "convex", "construct", "decompose", "cli")

SPANS = {
    "hadamard": ("classify", "direction_functional", "elementary_halfspace", "slice_radius"),
    "oracle": ("agreement_grid", "probe"),
    "convex": ("lp_maximize", "support_value", "convex_closure_value", "reduce_to_dense_subset"),
    "construct": ("series_for_domain", "build_family", "extremal_sequence"),
    "decompose": ("decompose_elementary", "decompose_simple", "estimate_domain", "sum_domain_check"),
    "cli": ("main",),
}
COUNTED = {"multiindex": ("enumerate_degree", "project", "nearest_index_of_degree")}
COUNTED_METHODS = {
    "supported_indices": "series.supported_indices",
    "coefficient": "series.coefficient",
    "log_abs_coeff_normalized": "series.log_abs",
}


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "counts", "busy", "info")

    def __init__(self, sid, parent, op, name, start):
        self.id, self.parent, self.op, self.name, self.start = sid, parent, op, name, start
        self.end = None
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)
        self.info = {}

    def to_json(self):
        return {"id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
                "start": self.start, "end": self.end, "counts": dict(self.counts),
                "busy_s": dict(self.busy), "info": self.info}


class Tracer:
    def __init__(self, package):
        self.R = package
        self.calls = defaultdict(int)
        self.fn_busy = defaultdict(float)
        self.fn_self = defaultdict(float)
        self.layer_busy = defaultdict(float)
        self.facts = defaultdict(float)
        self.depth = defaultdict(int)
        self.open = []  # open spans, innermost last
        self.frames = []  # child-time accumulators of every open wrapped call
        self.spans = []
        self._patches = []
        self._next = 0

    # ---------------------------------------------------------- wrappers
    def _enter(self, layer):
        frame = [0.0]
        self.frames.append(frame)
        self.depth[layer] += 1
        return frame

    def _leave(self, layer, key, frame, dt):
        self.frames.pop()
        self.depth[layer] -= 1
        self.calls[key] += 1
        self.fn_busy[key] += dt
        self.fn_self[key] += dt - frame[0]
        if self.depth[layer] == 0:
            self.layer_busy[layer] += dt
        if self.frames:
            self.frames[-1][0] += dt

    def _counted(self, layer, key, fn, observe=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leave(layer, key, frame, dt)
                if self.open:
                    span = self.open[-1]
                    span.counts[key] += 1
                    span.busy[key] += dt
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _spanned(self, layer, key, fn, observe=None):
        def wrapper(*args, **kwargs):
            span = self.begin(key)
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - span.start
                self._leave(layer, key, frame, dt)
                self.end(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result
        return wrapper

    def begin(self, name, op=None):
        parent = self.open[-1] if self.open else None
        self._next += 1
        span = Span(self._next, parent.id if parent else None,
                    op if parent is None else parent.op, name, perf_counter())
        self.open.append(span)
        return span

    def end(self, span):
        span.end = perf_counter()
        self.open.pop()
        self.spans.append(span)

    # ---------------------------------------------------------- observers
    def _observers(self):
        f = self.facts

        def indices(result):
            f["series.indices_yielded"] += len(result)

        def coefficient(result):
            f["series.nonzero"] += result != 0

        def log_abs(result):
            f["series.nonzero"] += result != float("-inf")

        def classify(span, args, kwargs, result):
            span.info["dimension"] = args[0].dimension

        def probe(span, args, kwargs, result):
            f["oracle.inconclusive"] += result.outcome.value == "inconclusive"

        def lp(span, args, kwargs, result):
            constraints = args[1] if len(args) > 1 else kwargs["constraints"]
            n = len(args[0] if args else kwargs["objective"])
            if isinstance(constraints, self.R.HDomain):
                rhs = [h.offset for h in constraints.halfspaces]
            else:
                rhs = [c for _, c in constraints]
            m, art = len(rhs), sum(1 for c in rhs if c < 0.0)
            span.info.update(rows=m, artificials=art)
            f["convex.lp.rows"] += m
            f["convex.lp.tableau_bytes"] += 8 * m * (2 * n + m + art)
            f["convex.lp.unbounded"] += result.status == "unbounded"

        def elementary(span, args, kwargs, result):
            f["decompose.routed_indices"] += len(result.assignment)
            f["decompose.parts"] += len(result.parts)

        def simple(span, args, kwargs, result):
            f["decompose.parts"] += len(result.parts)

        return {
            "series.supported_indices": indices,
            "series.coefficient": coefficient,
            "series.log_abs": log_abs,
            "hadamard.classify": classify,
            "oracle.probe": probe,
            "convex.lp_maximize": lp,
            "decompose.decompose_elementary": elementary,
            "decompose.decompose_simple": simple,
        }

    # ---------------------------------------------------------- install
    def _modules(self):
        import sys
        prefix = self.R.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Replace each wrapped function in its module and in every module
        that bound it by name (``from .x import y``)."""
        import importlib
        observers = self._observers()
        modules = self._modules()
        table = [(layer, name, self._spanned) for layer, names in SPANS.items() for name in names]
        table += [(layer, name, self._counted) for layer, names in COUNTED.items() for name in names]
        for layer, name, make in table:
            home = importlib.import_module(f"{self.R.__name__}.{layer}")
            original = getattr(home, name)
            key = f"{layer}.{name}"
            wrapper = make(layer, key, original, observers.get(key))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        spec = self.R.SeriesSpec
        for method, key in COUNTED_METHODS.items():
            self._patch(spec, method,
                        self._counted("series", key, spec.__dict__[method], observers.get(key)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------- results
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def layer_self(self):
        out = defaultdict(float)
        for key, value in self.fn_self.items():
            out[key.split(".", 1)[0]] += value
        return {layer: out[layer] for layer in LAYERS}

    def metrics(self, cache_info):
        """Per-layer metrics of one traced pass; cache_info maps
        'enumerate_degree'/'project' to functools cache_info() tuples, or to
        None when the function is not cached."""
        c, b, s, f = self.calls, self.fn_busy, self.fn_self, self.facts

        def ratio(num, den):
            return num / den if den else 0.0

        def spans_sum(name, key):
            return sum(sp.counts.get(key, 0) for sp in self.spans if sp.name == name)

        terms = spans_sum("hadamard.classify", "series.log_abs")
        flops = sum(sp.counts.get("series.log_abs", 0) * 2 * sp.info.get("dimension", 0)
                    for sp in self.spans if sp.name == "hadamard.classify")
        block_terms = spans_sum("oracle.probe", "series.coefficient")
        per_index = c["series.coefficient"] + c["series.log_abs"]
        def hit_ratio(info):
            return ratio(info.hits, info.hits + info.misses) if info else 0.0

        enum, proj = cache_info["enumerate_degree"], cache_info["project"]
        layer_self = self.layer_self()
        m = {
            "multiindex.enumerate_degree.calls": (c["multiindex.enumerate_degree"], "count"),
            "multiindex.enumerate_degree.busy_s": (b["multiindex.enumerate_degree"], "s"),
            "multiindex.enumerate_degree.cache_hit_ratio": (hit_ratio(enum), "ratio"),
            "multiindex.project.calls": (c["multiindex.project"], "count"),
            "multiindex.project.cache_hit_ratio": (hit_ratio(proj), "ratio"),
            "multiindex.project.cache_entries": (proj.currsize if proj else 0, "count"),
            "series.supported_indices.calls": (c["series.supported_indices"], "count"),
            "series.indices_yielded": (f["series.indices_yielded"], "count"),
            "series.log_abs.calls": (c["series.log_abs"], "count"),
            "series.coefficient.calls": (c["series.coefficient"], "count"),
            "series.busy_s": (self.layer_busy["series"], "s"),
            "series.nonzero_ratio": (ratio(f["series.nonzero"], per_index), "ratio"),
            "hadamard.classify.calls": (c["hadamard.classify"], "count"),
            "hadamard.classify.self_s": (s["hadamard.classify"], "s"),
            "hadamard.terms_per_point": (ratio(terms, c["hadamard.classify"]), "count"),
            "hadamard.direction_functional.self_s": (s["hadamard.direction_functional"], "s"),
            "hadamard.indicator_flops_computed": (flops, "flop"),
            "oracle.probe.calls": (c["oracle.probe"], "count"),
            "oracle.probe.self_s": (s["oracle.probe"], "s"),
            "oracle.block_terms_per_point": (ratio(block_terms, c["oracle.probe"]), "count"),
            "oracle.inconclusive_ratio": (ratio(f["oracle.inconclusive"], c["oracle.probe"]), "ratio"),
            "convex.lp_maximize.calls": (c["convex.lp_maximize"], "count"),
            "convex.lp_maximize.busy_s": (b["convex.lp_maximize"], "s"),
            "convex.lp.rows_mean": (ratio(f["convex.lp.rows"], c["convex.lp_maximize"]), "count"),
            "convex.lp.tableau_bytes_computed":
                (ratio(f["convex.lp.tableau_bytes"], c["convex.lp_maximize"]), "B"),
            "convex.lp.unbounded_ratio":
                (ratio(f["convex.lp.unbounded"], c["convex.lp_maximize"]), "ratio"),
            "convex.support_value.calls": (c["convex.support_value"], "count"),
            "construct.series_for_domain.calls": (c["construct.series_for_domain"], "count"),
            "construct.series_for_domain.self_s": (s["construct.series_for_domain"], "s"),
            "decompose.decompose_elementary.self_s": (s["decompose.decompose_elementary"], "s"),
            "decompose.decompose_simple.self_s": (s["decompose.decompose_simple"], "s"),
            "decompose.estimate_domain.self_s": (s["decompose.estimate_domain"], "s"),
            "decompose.sum_domain_check.self_s": (s["decompose.sum_domain_check"], "s"),
            "decompose.routed_indices": (f["decompose.routed_indices"], "count"),
            "decompose.parts": (f["decompose.parts"], "count"),
            "cli.main.calls": (c["cli.main"], "count"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        return m
