"""Shortest-path-tree verification.

A tree (parent array) is an SPT iff no edge (u, v) satisfies
c[u,v] < d[v] - d[u], where d is the tree distance.  Three checkers:

* :func:`verify_full` -- examines every edge; the reference.
* :func:`verify_forward_only` -- scans each sorted out-list only up to the
  first edge with c >= D - d[u] (D the largest tree distance); later edges
  cannot violate.
* :func:`verify_fb` -- scans, around the median tree distance M, only the
  out-edges with c <= 2(M - d[u]) and the in-edges with c < 2(d[v] - M).
  An edge outside both windows satisfies c > (M - d[u]) + (d[v] - M)
  = d[v] - d[u], so checking the windows alone is sound and complete.

Each also rejects a tree whose reported ``dist`` differs from the distances
along its own edges.  All three agree on accept/reject for every input.
Comparisons allow a relative slack of 1e-12 so that a tree's own edges,
whose distances were produced by floating-point accumulation, never
self-report as violations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .graph import SortedDigraph

_REL_EPS = 1e-12


class VerifyError(ValueError):
    """Invalid verification input (broken parent array, missing edge, ...)."""


@dataclass
class VerifyReport:
    accepted: bool
    edges_examined: int
    witness: Optional[Tuple[int, int, float, float, float]] = None  # u, v, c, d_u, d_v
    max_distance: float = math.nan
    median: float = math.nan
    wrong_dist: Optional[int] = None  # first vertex whose tree.dist is off

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "edges_examined": self.edges_examined,
            "witness": list(self.witness) if self.witness else None,
            "max_distance": self.max_distance if math.isfinite(self.max_distance) else None,
            "median": self.median if math.isfinite(self.median) else None,
            "wrong_dist": self.wrong_dist,
        }


def tree_distances(graph: SortedDigraph, parent: Sequence[int], source: int
                   ) -> np.ndarray:
    """Distances along the tree given by ``parent`` (-1 marks no parent).

    Walks the tree from the root, so it runs in O(n) plus the cost of
    looking up each parent edge.  Rejects parent arrays that contain cycles
    or refer to edges absent from the graph; vertices with no parent other
    than the source get distance +inf.
    """
    n = graph.n
    parent = np.asarray(parent, dtype=np.int64)
    if parent.shape[0] != n:
        raise VerifyError("parent array has wrong length")
    if not (0 <= source < n):
        raise VerifyError("source out of range")
    if parent[source] != -1:
        raise VerifyError("source must have no parent")

    cost = np.full(n, math.nan)
    for v in range(n):
        p = parent[v]
        if p < 0:
            continue
        if p >= n:
            raise VerifyError(f"parent of {v} out of range")
        frm, w = graph.in_edges(v)
        hits = np.nonzero(frm == p)[0]
        if hits.shape[0] == 0:
            raise VerifyError(f"tree edge ({p}, {v}) is not in the graph")
        cost[v] = w[hits[0]]  # multi-edges: cheapest copy, first in sorted row

    children = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)

    dist = np.full(n, math.inf)
    dist[source] = 0.0
    stack = [source]
    visited = 1
    while stack:
        u = stack.pop()
        du = dist[u]
        for v in children[u]:
            dist[v] = du + cost[v]
            visited += 1
            stack.append(v)
    if visited < n and any(parent[v] >= 0 and not math.isfinite(dist[v])
                           for v in range(n)):
        raise VerifyError("parent array contains a cycle")
    return dist


def select_median(dist: Sequence[float]) -> float:
    """The ceil(n/2)-th smallest entry, by quickselect with random pivots."""
    a = [float(x) for x in dist]
    n = len(a)
    if n == 0:
        raise VerifyError("empty distance array")
    if not all(math.isfinite(x) for x in a):
        raise VerifyError("median undefined with non-finite distances")
    k = (n + 1) // 2 - 1  # 0-based rank of the median
    rng = random.Random(n * 0x9E3779B9 + 1)
    lo, hi = 0, n - 1
    while True:
        if lo == hi:
            return a[lo]
        pivot = a[rng.randint(lo, hi)]
        i, j, eq = lo, hi, lo
        # three-way partition around the pivot
        while eq <= j:
            x = a[eq]
            if x < pivot:
                a[i], a[eq] = a[eq], a[i]
                i += 1
                eq += 1
            elif x > pivot:
                a[eq], a[j] = a[j], a[eq]
                j -= 1
            else:
                eq += 1
        if k < i:
            hi = i - 1
        elif k > j:
            lo = j + 1
        else:
            return pivot


def _report(tree, d: np.ndarray, examined: int, witness, **summary
            ) -> VerifyReport:
    """Verdict on ``tree``: accepted iff no edge violates the rebuilt
    distances ``d`` and the reported ``tree.dist`` matches them."""
    reported = np.asarray(tree.dist, dtype=np.float64)
    if reported.shape != d.shape:
        raise VerifyError("dist array has wrong length")
    wrong = None
    off = np.flatnonzero(reported != d)  # mostly empty: same sums, same order
    if off.shape[0]:
        off = off[~np.isclose(reported[off], d[off], rtol=_REL_EPS, atol=_REL_EPS)]
        wrong = int(off[0]) if off.shape[0] else None
    return VerifyReport(witness is None and wrong is None, examined, witness,
                        wrong_dist=wrong, **summary)


def _first_violation(d_to: np.ndarray, du: float, w: np.ndarray) -> int:
    """Index of the first edge with c < d[v] - d[u] beyond rounding slack,
    or -1.  ``du`` must be finite; d[v] = inf is a genuine violation."""
    gap = d_to - du - w
    bad = np.nonzero(gap > _REL_EPS * np.maximum(1.0, du + w))[0]
    return int(bad[0]) if bad.shape[0] else -1


def verify_full(graph: SortedDigraph, tree) -> VerifyReport:
    """Check every edge of the graph; the oracle for the fast verifiers."""
    d = tree_distances(graph, tree.parent, tree.source)
    finite = d[np.isfinite(d)]
    D = float(d.max()) if finite.size == graph.n else math.inf
    examined = 0
    witness = None
    for u in range(graph.n):
        to, w = graph.out_edges(u)
        examined += to.shape[0]
        du = d[u]
        if witness is not None or not math.isfinite(du):
            continue  # edges out of unreachable vertices cannot violate
        i = _first_violation(d[to], du, w)
        if i >= 0:
            witness = (u, int(to[i]), float(w[i]), float(du), float(d[to[i]]))
    return _report(tree, d, examined, witness, max_distance=D)


def verify_forward_only(graph: SortedDigraph, tree) -> VerifyReport:
    """Scan each sorted out-list until an edge with c >= D - d[u] appears."""
    d = tree_distances(graph, tree.parent, tree.source)
    all_finite = bool(np.all(np.isfinite(d)))
    D = float(d.max()) if all_finite else math.inf
    examined = 0
    witness = None
    for u in range(graph.n):
        du = d[u]
        to, w = graph.out_edges(u)
        if not math.isfinite(du):
            continue  # c >= d[v] - inf holds for free
        # edges at positions < stop are < D - d[u]; position stop terminates
        stop = int(np.searchsorted(w, D - du, side="left"))
        upto = min(stop + 1, to.shape[0])
        examined += upto
        i = _first_violation(d[to[:upto]], du, w[:upto])
        if i >= 0:
            examined -= upto - (i + 1)  # stopped at the violation
            witness = (u, int(to[i]), float(w[i]), float(du), float(d[to[i]]))
            break
    return _report(tree, d, examined, witness, max_distance=D)


def verify_fb(graph: SortedDigraph, tree) -> VerifyReport:
    """Check only the pertinent edges around the median tree distance.

    Forward: for every u with d[u] <= M, the out-edges with c <= 2(M - d[u]).
    Backward: for every v with d[v] >= M, the in-edges with c < 2(d[v] - M).
    Each phase reads (and counts) at most one terminator edge per vertex
    beyond its window.
    """
    d = tree_distances(graph, tree.parent, tree.source)
    if not np.all(np.isfinite(d)):
        raise VerifyError("tree does not span the graph; median undefined")
    D = float(d.max())
    M = select_median(d)
    examined = 0
    witness = None
    for u in range(graph.n):
        du = d[u]
        if du > M:
            continue
        to, w = graph.out_edges(u)
        k = int(np.searchsorted(w, 2.0 * (M - du), side="right"))
        examined += min(k + 1, to.shape[0])
        i = _first_violation(d[to[:k]], du, w[:k])
        if i >= 0:
            witness = (u, int(to[i]), float(w[i]), float(du), float(d[to[i]]))
            break
    if witness is None:
        for v in range(graph.n):
            dv = d[v]
            if dv < M:
                continue
            frm, w = graph.in_edges(v)
            k = int(np.searchsorted(w, 2.0 * (dv - M), side="left"))
            examined += min(k + 1, frm.shape[0])
            seg_f, seg_w = frm[:k], w[:k]
            gap = dv - d[seg_f] - seg_w
            bad = np.nonzero(gap > _REL_EPS * np.maximum(1.0, d[seg_f] + seg_w))[0]
            if bad.shape[0]:
                i = int(bad[0])
                witness = (int(seg_f[i]), v, float(seg_w[i]),
                           float(d[seg_f[i]]), float(dv))
                break
    return _report(tree, d, examined, witness, max_distance=D, median=M)
