"""Shortest-path-tree verification.

A tree (parent array) is an SPT iff no edge (u, v) satisfies
c[u,v] < d[v] - d[u], where d is the tree distance.  Three checkers:

* :func:`verify_full` -- examines every edge, one row at a time; the
  reference the fast verifiers are tested against.
* :func:`verify_forward_only` -- scans each sorted out-list only up to the
  first edge with c >= D - d[u] (D the largest tree distance); later edges
  cannot violate.
* :func:`verify_fb` -- scans, around the median tree distance M, only the
  out-edges with c <= 2(M - d[u]) and the in-edges with c < 2(d[v] - M).
  An edge outside both windows satisfies c > (M - d[u]) + (d[v] - M)
  = d[v] - d[u], so checking the windows alone is sound and complete.

The fast verifiers and :func:`tree_distances` read their windows in the
graph's rows (:meth:`~fbsp.graph.SortedDigraph.rows`) with one vectorised
row-window scan (:func:`_first_true`): it gathers a short prefix of every
row at once and widens it, four times at a step, only for the rows whose
window (or sought parent) lies beyond it.  A window, terminator or parent
edge that may lie past the end of an incomplete row completes the graph,
and the call starts again (:func:`~fbsp.graph.restarts`).  Counts and
witnesses are those of a row-by-row scan in vertex order.  The windows of
:func:`verify_fb` are defined and found once, in :func:`_pertinent_windows`;
:func:`fbsp.oracle.classify_pertinence` reads them there, and looks up tree
edges by :func:`_parent_edges`, the in-list scan of :func:`tree_distances`.

Each also rejects a tree whose reported ``dist`` differs from the distances
along its own edges.  All three agree on accept/reject for every input.
Comparisons allow a relative slack of 1e-12 so that a tree's own edges,
whose distances were produced by floating-point accumulation, never
self-report as violations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import RowOverflow, SortedDigraph, restarts

_REL_EPS = 1e-12

# The row-window scan first gathers this many cells of each row, and
# gathers about _SCAN_CELLS cells at a time.
_FIRST_WIDTH = 8
_SCAN_CELLS = 2 ** 14


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
        d = asdict(self)
        d["witness"] = list(self.witness) if self.witness else None
        for key in ("max_distance", "median"):
            if not math.isfinite(d[key]):
                d[key] = None
        return d


def _first_true(start: np.ndarray, stop: np.ndarray, pred) -> np.ndarray:
    """For each segment [start[s], stop[s]) of a flat edge array, the first
    position p with ``pred`` true there, or stop[s] when there is none.

    ``pred(sel, pos)`` gets segment indices ``sel`` and an (len(sel), k)
    grid of positions inside those segments, and returns a boolean grid.
    Every segment is tried on its first _FIRST_WIDTH positions; a segment
    with no hit and more positions is tried again on a prefix four times
    wider.  Predicates that are monotone along a cost-sorted row thus find
    a window's end, and others the first hit in row order.
    """
    first = stop.copy()
    todo = np.flatnonzero(stop > start)
    k = _FIRST_WIDTH
    while todo.shape[0]:
        h = max(1, _SCAN_CELLS // k)
        wider = []
        for c0 in range(0, todo.shape[0], h):
            sel = todo[c0:c0 + h]
            lo, hi = start[sel, None], stop[sel, None]
            pos = lo + np.arange(k)
            inside = pos < hi
            np.minimum(pos, hi - 1, out=pos)  # pred reads its own segment only
            hit = pred(sel, pos) & inside
            found = hit.any(axis=1)
            first[sel[found]] = pos[found, hit[found].argmax(axis=1)]
            wider.append(sel[~found & (hi[:, 0] - lo[:, 0] > k)])
        todo = np.concatenate(wider)
        k *= 4
    return first


def _parent_edges(graph: SortedDigraph, parent: np.ndarray):
    """(kids, parents, costs): the vertices whose parent is not -1, their
    parents, and the cost of each parent edge's cheapest copy, from one
    row-window scan of the in-rows.  Raises :class:`VerifyError` on the
    first vertex whose parent is out of range or whose parent edge is not
    in the graph, and :class:`~fbsp.graph.RowOverflow` first if a parent
    edge may lie past the end of an incomplete row."""
    n = graph.n
    ptr, ends, costs, complete = graph.rows(False)
    kids = np.flatnonzero(parent != -1)
    p = parent[kids]
    start = ptr[kids]
    in_range = (p >= 0) & (p < n)
    stop = np.where(in_range, ptr[kids + 1], start)
    at = _first_true(start, stop, lambda s, pos: ends[pos] == p[s, None])
    missing = at == stop
    if (missing & in_range & ~complete[kids]).any():
        raise RowOverflow
    missing = kids[missing]
    if missing.shape[0]:
        v = missing[0]  # the first bad vertex in vertex order names the error
        if not 0 <= parent[v] < n:
            raise VerifyError(f"parent of {v} out of range")
        raise VerifyError(f"tree edge ({parent[v]}, {v}) is not in the graph")
    return kids, p, costs[at]


@restarts
def tree_distances(graph: SortedDigraph, parent: Sequence[int], source: int
                   ) -> np.ndarray:
    """Distances along the tree given by ``parent`` (-1 marks no parent).

    Looks up every parent edge in one row-window scan of the in-lists, then
    walks the tree from the root.  Rejects parent arrays that contain cycles,
    parents out of range, chains of parents that end short of the source, or
    edges absent from the graph; vertices with no parent other than the
    source get distance +inf.
    """
    n = graph.n
    parent = np.asarray(parent, dtype=np.int64)
    if parent.shape[0] != n:
        raise VerifyError("parent array has wrong length")
    if not (0 <= source < n):
        raise VerifyError("source out of range")
    if parent[source] != -1:
        raise VerifyError("source must have no parent")

    kids, p, cost = _parent_edges(graph, parent)
    children = [[] for _ in range(n)]
    for v, pv, c in zip(kids.tolist(), p.tolist(), cost.tolist()):
        children[pv].append((v, c))

    dist = [math.inf] * n
    dist[source] = 0.0
    stack = [source]
    visited = 1
    while stack:
        u = stack.pop()
        du = dist[u]
        for v, c in children[u]:
            dist[v] = du + c
            visited += 1
            stack.append(v)
    dist = np.array(dist)
    if visited < n:
        cut = kids[~np.isfinite(dist[kids])]
        if cut.shape[0]:
            raise VerifyError(_unrooted(parent.tolist(), int(cut[0])))
    return dist


def _unrooted(parent: List[int], v: int) -> str:
    """Why the parent chain of ``v`` misses the source: a cycle, or a
    vertex with no parent."""
    seen = set()
    u = v
    while parent[u] >= 0:
        if u in seen:
            return "parent array contains a cycle"
        seen.add(u)
        u = parent[u]
    return (f"parent chain of {v} ends at {u}, which has no parent "
            "and is not the source")


def select_median(dist: Sequence[float]) -> float:
    """The ceil(n/2)-th smallest entry."""
    a = np.array(dist, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        raise VerifyError("empty distance array")
    if not np.isfinite(a).all():
        raise VerifyError("median undefined with non-finite distances")
    k = (n + 1) // 2 - 1  # 0-based rank of the median
    return float(np.partition(a, k)[k])


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


def _violates(du, dv, c):
    """Edges (u, v) of cost c with c < d[v] - d[u] beyond rounding slack.
    d[u] must be finite; d[v] = inf is a genuine violation."""
    return dv - du - c > _REL_EPS * np.maximum(1.0, du + c)


def _first_violation(d_to: np.ndarray, du: float, w: np.ndarray) -> int:
    """Index of the first violating edge out of a vertex at ``du``, or -1."""
    bad = np.flatnonzero(_violates(du, d_to, w))
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


def _windows(graph: SortedDigraph, rows: np.ndarray, thr: np.ndarray,
             inclusive: bool, outgoing: bool):
    """(start, end) of the windows of the sorted out-rows (in-rows unless
    ``outgoing``) of ``rows``: a row's window [start, end) of the flat
    arrays holds its edges with cost < thr (<= thr when ``inclusive``).
    Raises :class:`~fbsp.graph.RowOverflow` if a window, or the terminator
    edge after it, may lie past the end of an incomplete row."""
    ptr, _, costs, complete = graph.rows(outgoing)
    start, stop = ptr[rows], ptr[rows + 1]
    past = np.greater if inclusive else np.greater_equal
    end = _first_true(start, stop,
                      lambda s, pos: past(costs[pos], thr[s, None]))
    if not complete[rows[end == stop]].all():
        raise RowOverflow
    return start, end


def _pertinent_windows(graph: SortedDigraph, d: np.ndarray, M: float,
                       outgoing: bool):
    """(rows, start, end) of the pertinent :func:`_windows` around the
    median tree distance M: if ``outgoing``, for every u with d[u] <= M, the
    out-edges with c <= 2(M - d[u]); if not, for every v with d[v] >= M,
    the in-edges with c < 2(d[v] - M)."""
    if outgoing:
        rows = np.flatnonzero(d <= M)
        return (rows, *_windows(graph, rows, 2.0 * (M - d[rows]), True, True))
    rows = np.flatnonzero(d >= M)
    return (rows, *_windows(graph, rows, 2.0 * (d[rows] - M), False, False))


def _scan_windows(graph: SortedDigraph, d: np.ndarray, rows: np.ndarray,
                  start: np.ndarray, end: np.ndarray, outgoing: bool):
    """Row-window scan of the :func:`_windows` [start, end) of ``rows``, as
    a row-by-row scan in row order would read them.

    A window is read with the terminator edge after it, if the row has one;
    violations are looked for in the window.  Returns the edges read by the
    rows before the first row with a violation (all rows when none has one)
    and, for that row, (witness, edges up to and including the violation,
    edges the row reads).
    """
    ptr, ends, costs, _ = graph.rows(outgoing)
    stop = ptr[rows + 1]
    read = np.minimum(end + 1, stop)
    d_row = d[rows]

    def bad(s, pos):
        d_end = d[ends[pos]]
        if outgoing:
            return _violates(d_row[s, None], d_end, costs[pos])
        return _violates(d_end, d_row[s, None], costs[pos])

    first_bad = _first_true(start, end, bad)
    hit = np.flatnonzero(first_bad < end)
    read -= start
    if not hit.shape[0]:
        return int(read.sum()), None
    i = int(hit[0])
    at = int(first_bad[i])
    r, x = int(rows[i]), int(ends[at])
    u, v = (r, x) if outgoing else (x, r)
    witness = (u, v, float(costs[at]), float(d[u]), float(d[v]))
    return int(read[:i].sum()), (witness, at - int(start[i]) + 1, int(read[i]))


@restarts
def verify_forward_only(graph: SortedDigraph, tree) -> VerifyReport:
    """Scan each sorted out-list until an edge with c >= D - d[u] appears."""
    d = tree_distances(graph, tree.parent, tree.source)
    all_finite = bool(np.all(np.isfinite(d)))
    D = float(d.max()) if all_finite else math.inf
    rows = np.flatnonzero(np.isfinite(d))  # c >= d[v] - inf holds for free
    # the terminator, c >= D - d[u] >= d[v] - d[u] after rounding, never
    # violates, so only the window is checked
    start, end = _windows(graph, rows, D - d[rows], False, outgoing=True)
    examined, found = _scan_windows(graph, d, rows, start, end, outgoing=True)
    witness = None
    if found is not None:
        witness, upto, _ = found
        examined += upto  # stopped at the violation
    return _report(tree, d, examined, witness, max_distance=D)


@restarts
def verify_fb(graph: SortedDigraph, tree) -> VerifyReport:
    """Check only the pertinent edges around the median tree distance M
    (:func:`_pertinent_windows`): the out-windows, then, if they hold no
    violation, the in-windows.  Each phase reads (and counts) at most one
    terminator edge per vertex beyond its window.
    """
    d = tree_distances(graph, tree.parent, tree.source)
    if not np.all(np.isfinite(d)):
        raise VerifyError("tree does not span the graph; median undefined")
    D = float(d.max())
    M = select_median(d)
    out = _pertinent_windows(graph, d, M, outgoing=True)
    examined, found = _scan_windows(graph, d, *out, outgoing=True)
    if found is None:
        into = _pertinent_windows(graph, d, M, outgoing=False)
        more, found = _scan_windows(graph, d, *into, outgoing=False)
        examined += more
    witness = None
    if found is not None:
        witness, _, read = found
        examined += read  # the witness row counts in full
    return _report(tree, d, examined, witness, max_distance=D, median=M)
