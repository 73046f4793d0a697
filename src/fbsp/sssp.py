"""Single-source shortest paths on cost-sorted adjacency.

Three algorithms over a :class:`~fbsp.graph.SortedDigraph`:

* :func:`dijkstra` -- the classic label-setting algorithm; exact and simple,
  used as the correctness reference for everything else.
* :func:`spira` -- lazily scans each sorted outgoing list one edge at a
  time, keeping one candidate edge per settled vertex in a priority queue.
* :func:`fb_sssp` -- the forward-backward algorithm.  It runs like Spira
  until the median distance is known, then restricts forward scans to cheap
  ("out-pertinent") edges and discovers the remaining shortest-path edges by
  scanning sorted *incoming* lists of unsettled vertices, feeding them back
  into the forward search through per-vertex request lists.

Spira and the forward-backward algorithm share one search loop; Spira's run
is the loop with the median switch turned off.

All runs return a :class:`ShortestPathTree` plus :class:`ScanStats`
instrumentation counters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from heapq import heappop, heappush
from typing import List, Optional, Tuple

import numpy as np

from .graph import RowOverflow, SortedDigraph, restarts

INF = math.inf


@dataclass
class ShortestPathTree:
    """Parent/distance arrays rooted at ``source``; parent -1 marks the
    source and unreachable vertices, whose distance is +inf."""

    source: int
    parent: np.ndarray
    dist: np.ndarray


@dataclass
class ScanStats:
    forward_scans: int = 0
    backward_scans: int = 0
    p_inserts: int = 0
    p_extracts: int = 0
    q_inserts: int = 0
    q_extracts: int = 0
    requests: int = 0
    urgent_requests: int = 0
    median: float = INF
    size_at_median: int = 0

    @property
    def total_scans(self) -> int:
        return self.forward_scans + self.backward_scans

    def as_dict(self) -> dict:
        d = asdict(self)
        if not math.isfinite(self.median):
            d["median"] = None
        return d


def dijkstra(graph: SortedDigraph, source: int) -> ShortestPathTree:
    """Exact shortest path tree; the oracle for the lazier algorithms.

    Standard label-setting with a lazy-deletion heap; edge relaxation per
    settled vertex is vectorized over its out-adjacency row.
    """
    n = graph.n
    _check_source(graph, source)
    dist = np.full(n, INF)
    parent = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    dist[source] = 0.0
    # an entry carries the parent it was reached from; a vertex takes its
    # dist and parent when it settles, from the cheapest entry, so a
    # multi-edge's costlier copy overwriting the tentative dist is harmless
    heap: List[Tuple[float, int, int]] = [(0.0, source, -1)]
    while heap:
        du, u, p = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        dist[u] = du
        parent[u] = p
        to, w = graph.out_edges(u)
        nd = du + w
        sel = nd < dist[to]
        if sel.any():
            better_v = to[sel]
            better_d = nd[sel]
            dist[better_v] = better_d
            for v, dv in zip(better_v.tolist(), better_d.tolist()):
                heappush(heap, (dv, v, u))
    return ShortestPathTree(source, parent, dist)


class FbRecording:
    """Instrumentation captured by a recording forward-backward run.

    Traces are replayable op lists (("i", key) / ("x",)).  Insert/request
    logs keep enough context to check the algorithm's invariants after the
    fact: which edges entered each queue, with what key, and whether a P
    insert came from the out-list or the request list.  A run clears the
    recording first, so it holds the last run only, and a search that
    restarts on the completed graph records its second run.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Forget everything recorded, as a run does when it starts."""
        self.p_trace: list = []
        self.q_trace: list = []
        self.p_extract_keys: List[float] = []
        self.q_extract_keys: List[float] = []
        self.p_inserts: List[Tuple[int, int, float, float, bool]] = []  # u, v, c, key, from_req
        self.q_inserts: List[Tuple[int, int, float]] = []  # u, v, c
        self.requests: List[Tuple[int, int, float]] = []  # u, v, c


def spira(graph: SortedDigraph, source: int
          ) -> Tuple[ShortestPathTree, ScanStats]:
    """Spira's algorithm: one candidate outgoing edge per settled vertex.

    Requires sorted out-adjacency.  Each extraction of (u, v) scans the edge
    after it in Out[u]; a newly settled vertex scans its first edge.  This is
    stage 1 of :func:`fb_sssp` run to the end, equal to a binary-heap run.
    """
    _check_source(graph, source)
    return _search(graph, source, False, None)


def fb_sssp(graph: SortedDigraph, source: int,
            record: Optional[FbRecording] = None
            ) -> Tuple[ShortestPathTree, ScanStats]:
    """Forward-backward SSSP.  Requires sorted out- and in-adjacency.

    Stage 1 is Spira's algorithm.  When the ceil(n/2)-th vertex settles, its
    distance becomes the threshold M, every unsettled vertex backward-scans
    its first incoming edge into queue Q, and from then on:

    * forward(u) stops scanning Out[u] at the first edge with
      c > 2(M - d[u]) and switches to u's request list;
    * after each settling step, edges are drained from Q while
      min(Q) < 2(min(P) - M); each drained edge (u, v) with v unsettled
      backward-scans the next incoming edge of v and is appended to Req[u]
      (scanned immediately -- an "urgent request" -- if u is settled but has
      no edge in P).

    P and Q are ``heapq`` lists.  By the tie rule of :mod:`fbsp.pq` the run
    equals one on two-level bucket queues with B = n buckets of width
    W = 1/(n ln n) (:func:`~fbsp.pq.bucket_defaults`), as in the paper.
    """
    _check_source(graph, source)
    n = graph.n
    if n == 1:
        # the median vertex is the source itself, which has no edges
        return (ShortestPathTree(source, np.full(1, -1, dtype=np.int64),
                                 np.zeros(1)),
                ScanStats(median=0.0, size_at_median=1))
    return _search(graph, source, True, record)


def _check_source(graph: SortedDigraph, source: int) -> None:
    if not (0 <= source < graph.n):
        raise ValueError("source out of range")


@restarts
def _search(graph: SortedDigraph, source: int, fb: bool,
            record: Optional[FbRecording]
            ) -> Tuple[ShortestPathTree, ScanStats]:
    """The search loop of :func:`fb_sssp`, on ``heapq`` lists P and Q of
    (key, u, v) entries; unless ``fb``, Q stays empty, the median switch
    never fires, M stays infinite, and the loop is Spira's algorithm.

    Each vertex has one cursor per direction into the graph's rows
    (:meth:`~fbsp.graph.SortedDigraph.rows`): a position and an end, which
    start at its row's bounds.  When the median cuts a vertex's out-list,
    its end moves onto its position, so the cursor test fails from then on.
    A cursor that would pass the end of an incomplete row raises
    :class:`~fbsp.graph.RowOverflow`, and the search starts again on the
    completed graph.  A queue's inserts are its extracts plus the entries
    left in it when the loop ends.
    """
    n = graph.n
    P: List[Tuple[float, int, int]] = []
    Q: List[Tuple[float, int, int]] = []
    if record is not None:
        record.clear()
    dist = [INF] * n    # lists: their items read faster than an array's
    parent = [-1] * n
    dist[source] = 0.0
    stats = ScanStats()

    out_ptr, out_to, out_w, out_full = graph.rows(True)
    in_ptr, in_from, in_w, in_full = graph.rows(False)
    out_at = out_ptr.tolist()
    out_end = out_at[1:]
    out_more = (~out_full).tolist()  # the row goes on past its end
    in_at = in_ptr.tolist()
    in_end = in_at[1:]
    in_more = (~in_full).tolist()
    active = [False] * n    # u currently has an edge in P
    req: List[list] = [[] for _ in range(n)]
    req_cur = [0] * n

    M = INF
    # settled starts at 1, so a switch at 0 never fires
    switch_at = (n + 1) // 2 if fb else 0

    def forward(u: int, du: float) -> None:
        v = -1
        c = 0.0
        i = out_at[u]
        if i < out_end[u]:
            out_at[u] = i + 1
            stats.forward_scans += 1
            c = out_w.item(i)
            if M < INF and c > 2.0 * (M - du):
                out_end[u] = i + 1
                out_more[u] = False  # the cut row is read no further
            else:
                v = out_to.item(i)
        elif out_more[u]:
            raise RowOverflow
        from_req = v < 0
        if from_req:
            j = req_cur[u]
            ru = req[u]
            if j < len(ru):
                req_cur[u] = j + 1
                v, c = ru[j]
        if v >= 0:
            active[u] = True
            key = du + c
            heappush(P, (key, u, v))
            if record is not None:
                record.p_trace.append(("i", key))
                record.p_inserts.append((u, v, c, key, from_req))
        else:
            active[u] = False

    def backward(v: int) -> None:
        i = in_at[v]
        if i < in_end[v]:
            in_at[v] = i + 1
            stats.backward_scans += 1
            u = in_from.item(i)
            c = in_w.item(i)
            heappush(Q, (c, u, v))
            if record is not None:
                record.q_trace.append(("i", c))
                record.q_inserts.append((u, v, c))
        elif in_more[v]:
            raise RowOverflow

    def request(u: int, v: int, c: float) -> None:
        stats.requests += 1
        req[u].append((v, c))
        if record is not None:
            record.requests.append((u, v, c))
        du = dist[u]
        if du < INF and not active[u]:
            stats.urgent_requests += 1
            forward(u, du)

    forward(source, 0.0)
    settled = 1
    while settled < n and P:
        key, u, v = heappop(P)
        stats.p_extracts += 1
        if record is not None:
            record.p_trace.append(("x",))
            record.p_extract_keys.append(key)
        forward(u, dist[u])
        if dist[v] == INF:
            dist[v] = key
            parent[v] = u
            settled += 1
            forward(v, key)
            if settled == switch_at:
                M = key
                stats.median = M
                stats.size_at_median = settled
                for w in range(n):
                    if dist[w] == INF:
                        backward(w)
        if M == INF:
            continue   # Q stays empty until the median is known
        # drain newly identifiable in-pertinent edges
        while Q and Q[0][0] < 2.0 * ((P[0][0] if P else INF) - M):
            c2, u2, v2 = heappop(Q)
            stats.q_extracts += 1
            if record is not None:
                record.q_trace.append(("x",))
                record.q_extract_keys.append(c2)
            if dist[v2] == INF:
                backward(v2)
                request(u2, v2, c2)

    stats.p_inserts = stats.p_extracts + len(P)
    stats.q_inserts = stats.q_extracts + len(Q)
    return (ShortestPathTree(source, np.array(parent, dtype=np.int64),
                             np.array(dist)), stats)


def replay_trace(graph: SortedDigraph, source: int) -> FbRecording:
    """Run fb_sssp recording every queue operation; the returned traces can
    be replayed against any monotone queue implementation."""
    rec = FbRecording()
    fb_sssp(graph, source, record=rec)
    return rec
