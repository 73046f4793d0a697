"""Weighted complete digraphs with cost-sorted adjacency in both directions.

A :class:`SortedDigraph` stores, for every vertex, the outgoing and the
incoming edges sorted in non-decreasing order of cost.  Graphs are either
generated from a random weight model (:func:`gen_complete`) or built from an
explicit edge list (:func:`build_sorted_adjacency`), and can be saved to and
loaded from a plain text format.

Random edge costs are derived from a counter-based PRNG: the cost of edge
(u, v) is a pure function of (seed, u, v), so generation is reproducible and
independent of the order in which edges are materialized.  Undirected graphs
key both orientations of a pair on (min(u, v), max(u, v)), which makes the
cost matrix symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

EXPONENTIAL = "exp"
UNIFORM = "uniform"
WEIBULL = "weibull"

_KINDS = (EXPONENTIAL, UNIFORM, WEIBULL)


class GraphError(ValueError):
    """Invalid graph parameters, edges, or graph file contents."""


@dataclass(frozen=True)
class WeightModel:
    """Edge-cost distribution: exponential, uniform on [0,1], or a power of
    an exponential (``cost = Exp(1)**shape``)."""

    kind: str = EXPONENTIAL
    seed: int = 0
    shape: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GraphError(f"unknown weight model kind: {self.kind!r}")
        if self.kind == WEIBULL:
            if self.shape is None or not (self.shape > 0):
                raise GraphError("weibull model requires a positive shape")
        elif self.shape is not None:
            raise GraphError(f"shape is only meaningful for {WEIBULL!r}")


# SplitMix64 finalizer; applied to a counter it is the SplitMix64 generator.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> None:
    """SplitMix64 finalizer of the uint64 array ``z``, in place (uint64
    arrays wrap around without a word)."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31


def _stream_offset(seed: int) -> np.uint64:
    """Counter ``idx`` of the stream of ``seed`` hashes as
    mix64(idx * GOLDEN + offset), offset = mix64(seed) + GOLDEN."""
    z = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    _mix64(z)
    z += _GOLDEN
    return z[0]


class SortedDigraph:
    """Immutable weighted digraph with cost-sorted adjacency, both directions.

    Adjacency is stored CSR-style: the outgoing edges of vertex ``u`` are
    ``out_to[out_ptr[u]:out_ptr[u+1]]`` with costs ``out_w[...]``, sorted by
    (cost, target).  Incoming edges are stored symmetrically, sorted by
    (cost, source).  Both views describe the same edge multiset.
    """

    __slots__ = ("n", "directed", "out_ptr", "out_to", "out_w",
                 "in_ptr", "in_from", "in_w")

    def __init__(self, n, directed, out_ptr, out_to, out_w, in_ptr, in_from, in_w):
        self.n = int(n)
        self.directed = bool(directed)
        self.out_ptr = out_ptr
        self.out_to = out_to
        self.out_w = out_w
        self.in_ptr = in_ptr
        self.in_from = in_from
        self.in_w = in_w

    @property
    def num_edges(self) -> int:
        return int(self.out_to.shape[0])

    def out_edges(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """(targets, costs) of u's outgoing edges, non-decreasing cost."""
        lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
        return self.out_to[lo:hi], self.out_w[lo:hi]

    def in_edges(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """(sources, costs) of v's incoming edges, non-decreasing cost."""
        lo, hi = self.in_ptr[v], self.in_ptr[v + 1]
        return self.in_from[lo:hi], self.in_w[lo:hi]

    def out_degree(self, u: int) -> int:
        return int(self.out_ptr[u + 1] - self.out_ptr[u])

    def in_degree(self, v: int) -> int:
        return int(self.in_ptr[v + 1] - self.in_ptr[v])

    def cost_matrix(self) -> np.ndarray:
        """Dense n*n cost matrix; +inf marks absent edges, 0 on the diagonal.

        Intended for small graphs (tests, exhaustive classification); the
        matrix is rebuilt on every call.
        """
        m = np.full((self.n, self.n), np.inf)
        np.fill_diagonal(m, 0.0)
        for u in range(self.n):
            to, w = self.out_edges(u)
            m[u, to] = w
        return m

    def edge_list(self) -> np.ndarray:
        """Structured copy of all edges as (u, v, cost) arrays in one record."""
        n = self.n
        src = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.out_ptr))
        return np.rec.fromarrays([src, self.out_to, self.out_w],
                                 names=["u", "v", "cost"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SortedDigraph):
            return NotImplemented
        return (self.n == other.n and self.directed == other.directed
                and np.array_equal(self.out_ptr, other.out_ptr)
                and np.array_equal(self.out_to, other.out_to)
                and np.array_equal(self.out_w, other.out_w)
                and np.array_equal(self.in_ptr, other.in_ptr)
                and np.array_equal(self.in_from, other.in_from)
                and np.array_equal(self.in_w, other.in_w))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"SortedDigraph(n={self.n}, edges={self.num_edges}, {kind})"


_NOT_FINITE = "an edge cost overflows float64; use a smaller shape"

# Generation hashes and sorts blocks of about this many cost cells: small
# enough for the block's temporaries to stay in cache.
_BLOCK_CELLS = 2 ** 14
# A directed graph's in-lists are cut from strips of this many out-list
# columns, transposed.
_STRIP = 64


def _row_blocks(n: int):
    """Consecutive row ranges (r0, r1) covering [0, n), about _BLOCK_CELLS
    cells each."""
    h = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, h):
        yield r0, min(r0 + h, n)


def _block_costs(n: int, r0: int, r1: int, model: WeightModel, directed: bool,
                 offset: np.uint64, out: np.ndarray) -> None:
    """Costs of rows r0..r1-1 of the n*n cost matrix into the flat ``out``,
    diagonal included: the edge (u, v) has counter u*n + v, or min*n + max
    when undirected."""
    if directed:
        z = np.arange(r0 * n, r1 * n, dtype=np.uint64)
    else:
        u = np.arange(r0, r1, dtype=np.uint64)[:, None]
        v = np.arange(n, dtype=np.uint64)
        z = (np.minimum(u, v) * np.uint64(n) + np.maximum(u, v)).ravel()
    z *= _GOLDEN
    z += offset
    _mix64(z)
    z >>= 11
    out[:] = z
    out *= 2.0 ** -53  # the top 53 bits as a uniform on [0, 1)
    if model.kind == UNIFORM:
        return
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)  # Exp(1), never -0.0
    if model.kind == WEIBULL:
        with np.errstate(over="ignore"):  # an infinite cost is rejected later
            out **= model.shape


def _off_diagonal(full: np.ndarray, r0: int, n: int, rows: np.ndarray):
    """Pairs of views that hold the same cells, in order: of ``full``, the
    flat rows r0.. of an n*n matrix (the diagonal at r0 + i*(n+1)), and of
    ``rows``, the same rows flat without their diagonal."""
    h = full.size // n
    mid = (h - 1) * n
    return ((full[:r0], rows[:r0]),
            (full[r0 + 1:r0 + 1 + mid + h - 1].reshape(h - 1, n + 1)[:, :n],
             rows[r0:r0 + mid].reshape(h - 1, n)),
            (full[r0 + mid + h:], rows[r0 + mid:]))


def _sort_rows(w: np.ndarray, keys: np.ndarray, ends: np.ndarray,
               costs: np.ndarray) -> None:
    """Sort each full cost row of ``w``, +inf on the diagonal, by (cost,
    vertex) into the views ``ends`` and ``costs``, which leave the diagonal
    out.  ``keys`` is uint64 scratch of w's shape.

    Non-negative doubles (never -0.0 here) order like their bit patterns, so
    each cell's key is its cost's bits with the low bits replaced by its
    vertex; one sort of the keys orders a row by (truncated cost, vertex).
    A row whose costs then are not strictly increasing holds a tie, or two
    costs that differ only in the dropped bits, and is re-sorted stably.
    """
    h, n = w.shape
    vertex_mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    np.bitwise_and(w.view(np.uint64), ~vertex_mask, out=keys)
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    keys &= vertex_mask
    ends[:] = keys[:, :-1]  # the diagonal sorts last
    keys += np.arange(0, h * n, n, dtype=np.uint64)[:, None]
    np.take(w.ravel(), keys.view(np.int64)[:, :-1], out=costs, mode="clip")
    if not np.isfinite(costs[:, -1:]).all():  # the largest cost of each row
        raise GraphError(_NOT_FINITE)
    for i in np.flatnonzero((costs[:, 1:] <= costs[:, :-1]).any(axis=1)):
        order = np.argsort(w[i], kind="stable")[:-1]
        ends[i] = order
        costs[i] = w[i, order]


def gen_complete(n: int, model: WeightModel, directed: bool = True) -> SortedDigraph:
    """Generate the complete graph on ``n`` vertices with random edge costs.

    All n(n-1) directed costs are i.i.d. draws from ``model`` (for an
    undirected graph, the n(n-1)/2 pair costs are mirrored).  The result is a
    pure function of (n, model.kind, model.shape, model.seed, directed).
    Raises :class:`GraphError` if a cost is not finite.
    """
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    n = int(n)
    offset = _stream_offset(model.seed)

    deg = n - 1
    out_to, in_from = np.empty((2, n, deg), dtype=np.int32)
    out_w, in_w = np.empty((2, n, deg), dtype=np.float64)
    h = max(1, _BLOCK_CELLS // n)
    full = np.empty(max(h, _STRIP) * n)
    keys = np.empty(h * n, dtype=np.uint64)
    if directed and n > 1:
        # every cost hashed once, unsorted, into out_w
        for r0, r1 in _row_blocks(n):
            block = full[:(r1 - r0) * n]
            _block_costs(n, r0, r1, model, directed, offset, block)
            rows = out_w[r0:r1].reshape(-1)
            for src, dst in _off_diagonal(block, r0, n, rows):
                dst[:] = src
        # in-row v, cell u: the edge u -> v, which is cell v - (v > u) of
        # out-row u; in the square where a strip meets its own out-rows,
        # u = c0 + j and v = c0 + i, and the diagonal takes any valid cell
        i = np.arange(_STRIP)
        square_cell = i[:, None] - (i[:, None] >= i)
        for c0 in range(0, n, _STRIP):
            c1 = min(c0 + _STRIP, n)
            s = c1 - c0
            strip = full[:s * n].reshape(s, n)
            if c0:
                strip[:, :c0] = out_w[:c0, c0 - 1:c1 - 1].T
            if c1 < n:
                strip[:, c1:] = out_w[c1:, c0:c1].T
            strip[:, c0:c1] = out_w[c0 + i[:s], c0 + square_cell[:s, :s]]
            strip[i[:s], c0 + i[:s]] = np.inf  # the diagonal sorts last
            for q0 in range(0, s, h):  # sort in blocks that stay in cache
                q1 = min(q0 + h, s)
                _sort_rows(strip[q0:q1], keys[:(q1 - q0) * n].reshape(-1, n),
                           in_from[c0 + q0:c0 + q1], in_w[c0 + q0:c0 + q1])
    for r0, r1 in _row_blocks(n):
        block = full[:(r1 - r0) * n]
        if directed:
            rows = out_w[r0:r1].reshape(-1)
            for dst, src in _off_diagonal(block, r0, n, rows):
                dst[:] = src
        else:
            _block_costs(n, r0, r1, model, directed, offset, block)
        block[r0::n + 1] = np.inf  # the diagonal sorts last
        _sort_rows(block.reshape(-1, n), keys[:block.size].reshape(-1, n),
                   out_to[r0:r1], out_w[r0:r1])
    if not directed:  # symmetric costs: the in-lists equal the out-lists
        in_from[:] = out_to
        in_w[:] = out_w

    ptr = np.arange(n + 1, dtype=np.int64) * deg
    return SortedDigraph(n, directed, ptr, out_to.ravel(), out_w.ravel(),
                         ptr.copy(), in_from.ravel(), in_w.ravel())


def complete_cost_matrix(n: int, model: WeightModel, directed: bool = True) -> np.ndarray:
    """Dense cost matrix of the same graph :func:`gen_complete` would build.

    Raises :class:`GraphError` if a cost is not finite."""
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    offset = _stream_offset(model.seed)
    m = np.empty((n, n))
    for r0, r1 in _row_blocks(n):
        _block_costs(n, r0, r1, model, directed, offset, m[r0:r1].reshape(-1))
    np.fill_diagonal(m, 0.0)
    if not np.isfinite(m).all():
        raise GraphError(_NOT_FINITE)
    return m


def build_sorted_adjacency(edges: Iterable[Tuple[int, int, float]], n: int,
                           directed: bool = True) -> SortedDigraph:
    """Build a :class:`SortedDigraph` from explicit (u, v, cost) edges.

    Costs must be finite and non-negative, endpoints in [0, n) and distinct.
    Each list is sorted by cost, ties by the other endpoint; repeated pairs
    are kept as separate edges.
    """
    edges = list(edges)
    m = len(edges)
    src = np.fromiter((e[0] for e in edges), dtype=np.int64, count=m)
    dst = np.fromiter((e[1] for e in edges), dtype=np.int64, count=m)
    w = np.fromiter((e[2] for e in edges), dtype=np.float64, count=m)
    return sorted_adjacency_from_arrays(src, dst, w, n, directed)


def sorted_adjacency_from_arrays(src: np.ndarray, dst: np.ndarray,
                                 w: np.ndarray, n: int,
                                 directed: bool = True) -> SortedDigraph:
    """:func:`build_sorted_adjacency` on edges given as three parallel
    arrays: integer endpoints ``src`` and ``dst``, float64 costs ``w``."""
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    if w.shape[0]:
        if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
            raise GraphError("edge endpoint out of range")
        if np.any(src == dst):
            raise GraphError("self-loops are not allowed")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise GraphError("edge costs must be finite and non-negative")

    def _csr(key_src, key_dst, key_w):
        order = np.lexsort((key_dst, key_w))
        s, d, ww = key_src[order], key_dst[order], key_w[order]
        by_vertex = np.argsort(s, kind="stable")  # stable: keeps cost order
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(s, minlength=n), out=ptr[1:])
        return ptr, d[by_vertex].astype(np.int32), ww[by_vertex]

    out_ptr, out_to, out_w = _csr(src, dst, w)
    in_ptr, in_from, in_w = _csr(dst, src, w)
    return SortedDigraph(n, directed, out_ptr, out_to, out_w, in_ptr, in_from, in_w)


def save(graph: SortedDigraph, path) -> None:
    """Write a graph as text: header ``n directed`` then one ``u v cost`` line
    per edge (undirected graphs store each edge once, as its u < v copy)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{graph.n} {int(graph.directed)}\n")
        for u in range(graph.n):
            to, w = graph.out_edges(u)
            for v, c in zip(to.tolist(), w.tolist()):
                if graph.directed or u < v:
                    fh.write(f"{u} {v} {c!r}\n")


def load(path) -> SortedDigraph:
    """Load a graph saved by :func:`save`, validating and re-sorting it.

    Rejects malformed headers, out-of-range endpoints, negative costs, and
    files whose per-vertex edge sequences are not in non-decreasing cost
    order (i.e. files not produced by :func:`save`).
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphError("malformed graph header")
        try:
            n = int(header[0])
            directed = bool(int(header[1]))
        except ValueError as exc:
            raise GraphError("malformed graph header") from exc
        if n < 1:
            raise GraphError("graph must have at least one vertex")

        edges = []
        last_cost = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise GraphError(f"malformed edge on line {lineno}")
            try:
                u, v, c = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise GraphError(f"malformed edge on line {lineno}") from exc
            if c < last_cost.get(u, 0.0):
                raise GraphError(
                    f"adjacency of vertex {u} not sorted (line {lineno})")
            last_cost[u] = c
            edges.append((u, v, c))
            if not directed:
                edges.append((v, u, c))

    return build_sorted_adjacency(edges, n, directed=directed)


def check_invariants(graph: SortedDigraph) -> None:
    """Assert the structural invariants of a graph (O(n^2); for tests)."""
    n = graph.n
    seen_out = set()
    seen_in = set()
    for u in range(n):
        to, w = graph.out_edges(u)
        assert np.all(np.diff(w) >= 0), f"out_adj[{u}] not sorted"
        assert not np.any(to == u), "self-loop"
        eq = np.diff(w) == 0
        if eq.any():
            assert np.all(np.diff(to)[eq] > 0), f"out_adj[{u}] tie order"
        seen_out.update((u, int(v), float(c)) for v, c in zip(to, w))
    for v in range(n):
        frm, w = graph.in_edges(v)
        assert np.all(np.diff(w) >= 0), f"in_adj[{v}] not sorted"
        eq = np.diff(w) == 0
        if eq.any():
            assert np.all(np.diff(frm)[eq] > 0), f"in_adj[{v}] tie order"
        seen_in.update((int(u), v, float(c)) for u, c in zip(frm, w))
    assert seen_out == seen_in, "out/in adjacency views disagree"
