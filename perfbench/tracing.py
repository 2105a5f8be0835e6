"""Timing wrappers around the public functions of each ``bp2cert`` layer.

:meth:`Tracer.install` replaces each traced function, under every ``bp2cert``
module name that binds it, with a wrapper that records a span (name, start,
end, parent).  Modules that import a function by name hold their own
binding, so patching only the defining module would miss their calls.  A
function the program no longer has is skipped.

Every span feeds the per-name totals (calls, self time).  Raw spans are
kept in memory up to ``SPAN_LIMIT`` and written out by :meth:`Tracer.dump`;
the exhaustive audit makes tens of millions of calls, and its totals are
exact while its span file holds the first ``SPAN_LIMIT`` spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, function, span name).  The four bitmask closure routines share one
# name so the metric survives merging them into one routine.
TRACED = (
    ("graphs", "mask_components", "graphs.closure"),
    ("graphs", "mask_connected", "graphs.closure"),
    ("graphs", "mask_co_connected", "graphs.closure"),
    ("graphs", "mask_co_component_of", "graphs.closure"),
    ("graphio", "g6_decode", "graphio.g6_decode"),
    ("graphio", "graph_from_index", "graphio.graph_from_index"),
    ("deciders", "is_bp1", "deciders.is_bp1"),
    ("deciders", "decide_bp2", "deciders.decide_bp2"),
    ("deciders", "nbp2_necessary", "deciders.nbp2_necessary"),
    ("oracle", "bp1_oracle", "oracle.bp1_oracle"),
    ("oracle", "bp2_oracle", "oracle.bp2_oracle"),
    ("oracle", "star_biclique_oracle", "oracle.star_biclique_oracle"),
    ("oracle", "deletion_depths", "oracle.deletion_depths"),
    ("oracle", "max_bp2_subset", "oracle.max_bp2_subset"),
    ("oracle", "max_bp1_split", "oracle.max_bp1_split"),
    ("oracle", "first_unsafe_prefix", "oracle.first_unsafe_prefix"),
    ("oracle", "disconnected_vertex_cuts", "oracle.disconnected_vertex_cuts"),
    ("witnesses", "partition_error", "witnesses.partition_error"),
    ("certificates", "verify_nbp2", "certificates.verify_nbp2"),
    ("certificates", "gen_safe_sequence", "certificates.gen_safe_sequence"),
    ("certificates", "dual_certify", "certificates.dual_certify"),
    ("audit", "audit", "audit.engine"),
    ("cli", "main", "cli"),
)

SPAN_LIMIT = 200_000


class Tracer:
    """Span totals per name, plus the first ``SPAN_LIMIT`` raw spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.accepted = 0
        self.built = 0
        self.clause3_calls = 0
        self.order_start_ns: dict[int, int] = {}
        self.audit_end_ns = 0
        self.spans = array("q")  # span id, name id, start ns, end ns, parent span id (-1 at top)
        self._stack: list[list[int]] = []  # [name id, span id, child ns] per open span
        self._next_span = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        decide_id = self._name_id("deciders.decide_bp2")
        is_cut_search = name == "oracle.disconnected_vertex_cuts"
        observe = self._observer(name)
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        limit = 5 * SPAN_LIMIT

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_cut_search and parent is not None and parent[0] == decide_id:
                self.clause3_calls += 1
            span = self._next_span
            self._next_span = span + 1
            frame = [nid, span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[nid] += 1
                self_ns[nid] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                if len(spans) < limit:
                    spans.extend((span, nid, start, end, -1 if parent is None else parent[1]))
            if observe is not None:
                observe(args, result, start, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, name: str):
        """Per-name hook on arguments and result, for counts the span totals lack."""
        if name == "certificates.verify_nbp2":
            def observe(args, result, start, end):
                self.accepted += bool(result.accepted)
        elif name == "certificates.gen_safe_sequence":
            def observe(args, result, start, end):
                self.built += hasattr(result, "order")
        elif name == "graphio.graph_from_index":
            def observe(args, result, start, end):
                self.order_start_ns.setdefault(args[0], start)
        elif name == "audit.engine":
            def observe(args, result, start, end):
                self.audit_end_ns = end
        else:
            observe = None
        return observe

    def install(self) -> None:
        """Patch every traced function under each ``bp2cert`` module that binds it."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "bp2cert" or key.startswith("bp2cert.")]
        for module_name, func_name, span_name in TRACED:
            original = getattr(sys.modules.get(f"bp2cert.{module_name}"), func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def self_s(self, name: str) -> float:
        return self.self_ns[self.names.index(name)] / 1e9 if name in self.names else 0.0

    def order_s(self, n: int) -> float:
        """Wall time of order ``n`` in a one-worker audit: its first graph to the next order's first graph."""
        start = self.order_start_ns.get(n)
        if start is None:
            return 0.0
        end = self.order_start_ns.get(n + 1, self.audit_end_ns)
        return (end - start) / 1e9

    def total_spans(self) -> int:
        return self._next_span

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines: span id, name, start and end in ns, parent span id."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            for k in range(0, len(spans), 5):
                handle.write(json.dumps(
                    [spans[k], self.names[spans[k + 1]], spans[k + 2], spans[k + 3], spans[k + 4]]
                ) + "\n")
