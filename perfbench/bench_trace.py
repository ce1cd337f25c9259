"""Tracing from outside the program, for the per-layer benchmark metrics.

A :class:`Tracer` wraps every public function of the traced modules, the
derived-data ``cached_property``s of ``EmbeddedGraph`` and the evaluation
methods of the BRT polynomial.  Each wrapped name is replaced wherever a
``bicolorgame`` module holds it (``from .medial import trace_medial`` makes
``homology.trace_medial`` a second reference, and ``selfcheck.ALL_CHECKS``
holds the checks in a tuple); :meth:`Tracer.restore` puts every original
back.  Spans are kept in memory as ``[id, parent id, key, start, end]``
with ``perf_counter`` times, and :func:`layer_times` turns them into time
per layer.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from functools import cached_property

# Traced modules, which are the layers; a span's key is "<module>.<name>".
LAYERS = (
    "cli", "embedded", "gf2", "spaces", "medial", "homology",
    "brt", "oracle", "representatives", "selfcheck",
)
# Called once per matrix entry pair in the hot loops; wrapping it would
# swamp the trace, so its time stays with the caller.
UNTRACED = {"gf2.dot"}
DERIVED = (
    "dart_vertex", "dart_edge", "alpha", "sigma", "sigma_inv",
    "faces", "incidence_matrix", "dual_incidence_matrix",
)
POLYNOMIAL_METHODS = ("evaluate", "specialize_z_one")
# Time spent in the tracer's own counting hooks; a child of the span that
# was running, so it is excluded from that span's self time.
HOOK = "trace.hook"


class Tracer:
    """Wraps the program's public functions and records spans and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._row_sets: set = set()
        self._rows: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- per-op bookkeeping --------------------------------------------------

    def reset(self) -> None:
        """Start a new op: clear spans, counts and the repeat detectors."""
        self.spans = []
        self.counts = Counter()
        self._stack.clear()
        self._row_sets.clear()
        self._rows.clear()

    def op_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        counts["gf2.distinct_rows"] = len(self._rows)
        return counts

    # -- counting hooks ------------------------------------------------------

    def _count_rref(self, args, kwargs) -> None:
        m = args[0] if args else kwargs["m"]
        self.counts["gf2.eliminations"] += 1
        self.counts["gf2.rows_in"] += m.nrows
        key = (m.ncols, frozenset(m.rows))
        if key in self._row_sets:
            self.counts["gf2.repeats"] += 1
        self._row_sets.add(key)
        self._rows.update((m.ncols, r) for r in m.rows)

    def _count_dual(self, args, kwargs) -> None:
        self.counts["embedded.dual_calls"] += 1

    def _count_medial(self, args, kwargs, result) -> None:
        self.counts["medial.calls"] += 1
        self.counts["medial.strands"] += result.count

    def _count_subsets(self, args, kwargs, result) -> None:
        self.counts["brt.calls"] += 1
        self.counts["brt.subsets"] += 1 << args[0].edge_count

    def _count_sweep(self, args, kwargs, result) -> None:
        self.counts["oracle.colorings"] += 1 << args[0].edge_count

    def _count_orbit(self, args, kwargs, result) -> None:
        self.counts["oracle.colorings"] += len(result)

    def _hooks(self) -> dict[str, tuple]:
        """key -> (before(args, kwargs), after(args, kwargs, result))."""
        return {
            "gf2.rref": (self._count_rref, None),
            "embedded.EmbeddedGraph.dual": (self._count_dual, None),
            "medial.trace_medial": (None, self._count_medial),
            "brt.brt_polynomial": (None, self._count_subsets),
            "brt.whitney_rank_polynomial": (None, self._count_subsets),
            "oracle.enumerate_classes": (None, self._count_sweep),
            "oracle.orbit_of": (None, self._count_orbit),
        }

    # -- wrapping ------------------------------------------------------------

    def wrap(self, key: str, fn, before=None, after=None):
        """Return fn wrapped to record a span under ``key``."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if before is not None:
                t0 = clock()
                before(args, kwargs)
                spans.append([len(spans), parent, HOOK, t0, clock()])
            record = [len(spans), parent, key, clock(), 0.0]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                after(args, kwargs, result)
                spans.append([len(spans), parent, HOOK, t0, clock()])
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the public functions of every layer and patch all references."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        wrapped: dict[int, object] = {}  # id(original) -> wrapper; originals stay alive
        modules = [importlib.import_module(f"bicolorgame.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if name.startswith("_") or key in UNTRACED:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                # plain functions, and lru_cache wrappers around them
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                self.originals[key] = obj
                wrapped[id(obj)] = self.wrap(key, obj, *hooks.get(key, (None, None)))
        for module in [m for n, m in sorted(sys.modules.items()) if n.startswith("bicolorgame")]:
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, name, wrapped[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                    self._patch(module, name, tuple(wrapped.get(id(v), v) for v in value))

        from bicolorgame.brt import TrivariatePolynomial
        from bicolorgame.embedded import EmbeddedGraph

        for name in DERIVED:
            prop = EmbeddedGraph.__dict__[name]
            key = f"embedded.EmbeddedGraph.{name}"
            self.originals[key] = prop
            traced = cached_property(self.wrap(key, prop.func))
            traced.__set_name__(EmbeddedGraph, name)
            self._patch(EmbeddedGraph, name, traced)
        key = "embedded.EmbeddedGraph.dual"
        self.originals[key] = EmbeddedGraph.dual
        self._patch(EmbeddedGraph, "dual", self.wrap(key, EmbeddedGraph.dual, *hooks[key]))
        for name in POLYNOMIAL_METHODS:
            key = f"brt.TrivariatePolynomial.{name}"
            method = TrivariatePolynomial.__dict__[name]
            self.originals[key] = method
            self._patch(TrivariatePolynomial, name, self.wrap(key, method))

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _own_durations(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {sid: end - start for sid, parent, key, start, end in spans}
    for sid, parent, key, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """(self time, inclusive time) per span key, in seconds.

    A span's self time is its duration minus the durations of its direct
    children; the spans of one op form a forest, since the program runs in
    a single thread.
    """
    own = _own_durations(spans)
    own_by_key: Counter[str] = Counter()
    total: Counter[str] = Counter()
    for sid, parent, key, start, end in spans:
        own_by_key[key] += own[sid]
        total[key] += end - start
    return dict(own_by_key), dict(total)


PARSE = "embedded.parse_rotation_system"


def layer_times(spans) -> dict[str, float]:
    """Self time per layer metric (see :func:`layer_of`), in seconds.

    Parsing includes validation, so an ``embedded`` span that runs inside
    a parse span (validation reads ``dart_vertex``) is booked as parsing.
    Spans are recorded when they start, so a parent precedes its children.
    """
    own = _own_durations(spans)
    in_parse: dict[int, bool] = {}
    out: Counter[str] = Counter()
    for sid, parent, key, start, end in spans:
        in_parse[sid] = key == PARSE or in_parse.get(parent, False)
        if in_parse[sid] and key.startswith("embedded."):
            key = PARSE
        out[layer_of(key)] += own[sid]
    return dict(out)


def layer_of(key: str) -> str:
    """The per-layer time metric a span key's self time is booked under."""
    module, _, name = key.partition(".")
    if module == "embedded":
        return "embedded.parse_s" if key == PARSE else "embedded.derive_s"
    if module == "homology":
        if name == "tree_cotree":
            return "homology.tree_cotree_s"
        if name == "fundamental_dual_cycles":
            return "homology.cycles_s"
        return "homology.image_s"
    return f"{module}.self_s"
