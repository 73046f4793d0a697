"""Spans around the benchmark's calls into the program's public functions.

A span is recorded by the benchmark, never inside the program: name
(``<layer>.<function>``), start and end in ns, the span that caused it, the
operation it belongs to, and the counters the call returned (``ScanStats``,
``VerifyReport``, ``ApspResult``, ``QueueStats``).  Spans stay in memory and
are written out once, when the run ends.

Workloads make every call through a tracer, so the untraced run and the
traced run execute the same code; :class:`NullTracer` only forwards.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from fbsp import ApspResult, ScanStats, SortedDigraph, VerifyReport


def counts_of(result) -> dict:
    """The counters a public function hands back, flattened to numbers."""
    if isinstance(result, tuple):
        out = {}
        for part in result:
            out.update(counts_of(part))
        return out
    if isinstance(result, ScanStats):
        d = result.as_dict()
        d["total_scans"] = result.total_scans
        return d
    if isinstance(result, VerifyReport):
        return {"accepted": result.accepted,
                "edges_examined": result.edges_examined}
    if isinstance(result, ApspResult):
        per = result.per_source_stats
        return {"preprocess_time": result.preprocess_time,
                "total_time": result.total_time,
                "total_scans": result.total_scans,
                "sources": len(per),
                "p_extracts": sum(s.p_extracts for s in per),
                "q_extracts": sum(s.q_extracts for s in per),
                "requests": sum(s.requests for s in per),
                "urgent_requests": sum(s.urgent_requests for s in per),
                "backward_scans": sum(s.backward_scans for s in per)}
    if isinstance(result, SortedDigraph):
        arrays = (result.out_ptr, result.out_to, result.out_w,
                  result.in_ptr, result.in_from, result.in_w)
        return {"n": result.n, "num_edges": result.num_edges,
                "adjacency_bytes": sum(a.nbytes for a in arrays)}
    return {}


@dataclass
class Span:
    sid: int
    op: str
    name: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class NullTracer:
    """Forwards calls untouched: the tracer of the untraced run."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; ``root`` opens the span of an operation."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = ""

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), self.op, name, parent, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        span.counts = counts_of(result)
        return result

    def root(self, name: str, op: str, fn, *args):
        """Run ``fn(self, *args)`` under a root span of operation ``op``."""
        self.op = op
        span = self._open(name)
        try:
            return fn(self, *args)
        finally:
            self._close(span)

    def annotate(self, **counts) -> None:
        """Add counts to the span closed last."""
        self.spans[-1].counts.update(counts)

    def self_seconds(self, root: Span) -> dict:
        """Self time per layer in the subtree of ``root``: each span's
        duration minus the time its child spans cover."""
        children = defaultdict(list)
        for s in self.spans[root.sid + 1:]:
            if s.op != root.op:
                break
            children[s.parent].append(s)
        out: dict = defaultdict(float)
        todo = [root]
        while todo:
            s = todo.pop()
            kids = children.get(s.sid, [])
            out[s.layer] += s.seconds - sum(k.seconds for k in kids)
            todo.extend(kids)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "op": s.op, "name": s.name,
                                     "parent": s.parent, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "counts": s.counts}))
                fh.write("\n")
