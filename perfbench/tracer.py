"""Per-layer spans and counts, recorded from outside the library.

The tracer rebinds public names in tropfan's modules to wrappers.  Each
wrapped call records a span (id, parent id, name, start, end) in memory, and
some add counts taken from their arguments or results.  Geometry calls are
attributed to the module that made them: ``fan.max_slack`` is the binding fan
imported, so its solves are fan's LPs, while the LPs that ``lp_feasible``,
``relint_point`` and ``describe_cone`` run inside geometry go to the module
that called those functions.  Nothing under ``src/`` changes.

Self time of a span is its duration minus the durations of its direct
children; calls on one thread never overlap, so no interval union is needed.
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import Counter, defaultdict
from math import perm
from time import perf_counter

# Span names and the per-layer metrics made from them.
COUNTED = (  # span name -> "<name>.calls" and "<name>.s"
    "geometry.lp.fan",
    "geometry.lp.classify",
    "geometry.lp.dual",
    "geometry.lp.relu",
    "geometry.relint",
    "geometry.rank",
    "fan.cone_of_graph",
    "dual.decision_boundary",
    "tropical.eval",
)
TIMED = (  # span name -> "<name>.s"
    "fan.fan_index",
    "classify.level_set",
    "classify.covectors_linear",
    "classify.chamber_path",
    "dual.render_svg",
    "relu.net_to_tropical",
    "relu.prune_terms",
    "matroids.pattern_axioms",
    "matroids.om_axioms",
)
SELF_TIMED = ("fan.fan_index", "classify.level_set")  # -> "<name>.self_s"


def _witness_bits(x) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in x), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self.active = False
        self._open: list[int] = []  # ids of the spans now running
        self._callers: list[str] = []  # module on whose behalf geometry runs
        self._undo: list[tuple] = []
        self._fresh = weakref.WeakSet()  # fan indexes seen, to skip cache hits

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs, after=None):
        sid = len(self.spans)
        span = [sid, self._open[-1] if self._open else -1, name, perf_counter(), 0.0]
        self.spans.append(span)
        self._open.append(sid)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if name.startswith("geometry.lp."):
                self.counts["geometry.lp.errors"] += 1
            raise
        finally:
            span[4] = perf_counter()
            self._open.pop()
        if after is not None:
            after(result, args, kwargs)
        return result

    def _bind(self, module, attr, make):
        orig = getattr(module, attr)
        setattr(module, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((module, attr, orig))

    def span(self, module, attr, name, after=None):
        """Rebind module.attr so each call records a span ``name``."""

        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return orig(*args, **kwargs)
                return self._call(name, orig, args, kwargs, after)

            return wrapper

        self._bind(module, attr, make)

    def geometry_entry(self, module, attr, caller, name=None):
        """Rebind a geometry function as imported by ``caller``'s module, so the
        LPs it runs are attributed to that module."""

        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return orig(*args, **kwargs)
                self._callers.append(caller)
                try:
                    if name is None:
                        return orig(*args, **kwargs)
                    return self._call(name, orig, args, kwargs)
                finally:
                    self._callers.pop()

            return wrapper

        self._bind(module, attr, make)

    def lp(self, module, attr, caller=None):
        """Rebind a max_slack binding; the caller is fixed or taken from context."""

        def after(result, args, kwargs):
            opt, x = result
            if opt > 0:
                self.counts[f"lp.positive.{self._lp_owner(caller)}"] += 1
            bits = _witness_bits(x)
            if bits > self.counts["geometry.witness_bits_max"]:
                self.counts["geometry.witness_bits_max"] = bits

        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return orig(*args, **kwargs)
                name = f"geometry.lp.{self._lp_owner(caller)}"
                return self._call(name, orig, args, kwargs, after)

            return wrapper

        self._bind(module, attr, make)

    def _lp_owner(self, caller):
        if caller is not None:
            return caller
        return self._callers[-1] if self._callers else "geometry"

    def install(self):
        geometry, fan, classify, dual, relu, matroids = (
            importlib.import_module(f"tropfan.{n}")
            for n in ("geometry", "fan", "classify", "dual", "relu", "matroids")
        )
        c = self.counts

        # Geometry, attributed to the calling module.
        self.lp(geometry, "max_slack")
        self.lp(fan, "max_slack", "fan")
        self.lp(classify, "max_slack", "classify")
        self.geometry_entry(dual, "lp_feasible", "dual")
        self.geometry_entry(relu, "lp_feasible", "relu")
        self.geometry_entry(fan, "relint_point", "fan", "geometry.relint")
        self.geometry_entry(dual, "describe_cone", "dual", "geometry.relint")
        for m in (geometry, fan, classify):
            self.span(m, "exact_rank", "geometry.rank")

        # Fan.
        def fan_counts(index, args, kwargs):
            if index in self._fresh:
                return  # a cache hit did no enumeration
            self._fresh.add(index)
            c["fan.classes"] += len(index.reps)
            c["fan.maximal_cones"] += sum(perm(index.N, len(r.parts)) for r in index.reps)

        for m in (fan, classify):
            self.span(m, "fan_index", "fan.fan_index", fan_counts)
            self.span(m, "cone_of_graph", "fan.cone_of_graph")

        def all_cones_counts(cones, args, kwargs):
            c["fan.all_cones"] += len(cones)

        for m in (fan, classify):
            self.span(m, "enumerate_all_cones", "fan.enumerate_all_cones", all_cones_counts)
        self.span(fan, "eval_signomial", "tropical.eval")
        self.span(dual, "eval_signomial", "tropical.eval")

        # Classify.
        def level_counts(report, args, kwargs):
            c["classify.pairs"] += report.count * (report.count - 1) // 2
            c["classify.walls"] += len(report.adjacency)

        self.span(classify, "level_set", "classify.level_set", level_counts)
        self.span(classify, "covectors_linear", "classify.covectors_linear")
        self.span(classify, "chamber_path", "classify.chamber_path")

        # Dual.
        def boundary_counts(edges, args, kwargs):
            c["dual.edges"] += len(edges)

        self.span(dual, "decision_boundary", "dual.decision_boundary", boundary_counts)
        self.span(dual, "render_svg", "dual.render_svg")

        # Relu.
        def stored(result, args, kwargs):
            c["relu.terms_stored"] += result.theta.n + result.theta.m

        def kept(theta, args, kwargs):
            c["relu.terms_kept"] += theta.n + theta.m

        self.span(relu, "net_to_tropical", "relu.net_to_tropical", stored)
        self.span(relu, "prune_terms", "relu.prune_terms", kept)

        # Matroids.
        self.span(matroids, "pattern_axioms_check", "matroids.pattern_axioms")
        self.span(matroids, "om_axioms_check", "matroids.om_axioms")

    def uninstall(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def layer_metrics(self, rounds: int, traced_s: float) -> dict[str, float]:
        """Per-layer metrics per round of the op list; ``traced_s`` is the
        timed op time of those rounds."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if name in SELF_TIMED:
                self_s[name] += end - start - child[sid]

        c = self.counts
        out = {"trace.round_s": traced_s / rounds}
        for name in COUNTED:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.s"] = total[name] / rounds
        for name in TIMED:
            out[f"{name}.s"] = total[name] / rounds
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_s[name] / rounds
        out["geometry.lp.fan.yield"] = _ratio(c["lp.positive.fan"], calls["geometry.lp.fan"])
        out["geometry.lp.errors"] = c["geometry.lp.errors"] / rounds
        out["geometry.witness_bits_max"] = c["geometry.witness_bits_max"]
        for key in ("fan.classes", "fan.maximal_cones", "classify.pairs", "classify.walls",
                    "dual.edges", "relu.terms_stored", "relu.terms_kept"):
            out[key] = c[key] / rounds
        out["fan.all_cones.yield"] = _ratio(c["fan.all_cones"], calls["fan.cone_of_graph"])
        out["classify.wall_yield"] = _ratio(c["classify.walls"], calls["geometry.lp.classify"])
        return out

    def write(self, path, context: dict):
        """Write the context line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(context) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
