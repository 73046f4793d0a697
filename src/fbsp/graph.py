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


def _mix64(z):
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = np.bitwise_xor(z, z >> np.uint64(30)) * _MIX1
        z = np.bitwise_xor(z, z >> np.uint64(27)) * _MIX2
        return np.bitwise_xor(z, z >> np.uint64(31))


def _edge_uniform(base: np.uint64, idx) -> np.ndarray:
    """Uniform [0,1) variates for edge counters ``idx``, substream ``base``."""
    with np.errstate(over="ignore"):
        h = _mix64(base + (np.asarray(idx, dtype=np.uint64) + np.uint64(1)) * _GOLDEN)
    return np.ldexp((h >> np.uint64(11)).astype(np.float64), -53)


def _stream_base(seed: int) -> np.uint64:
    # 0-d array: numpy scalars warn on uint64 wraparound, arrays do not
    return _mix64(np.asarray(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))


def _costs_from_uniform(u: np.ndarray, model: WeightModel) -> np.ndarray:
    if model.kind == EXPONENTIAL:
        return -np.log1p(-u)
    if model.kind == UNIFORM:
        return u
    return (-np.log1p(-u)) ** model.shape  # WEIBULL


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


# Generation works on blocks of about this many cost cells: small enough for
# the hashing temporaries and the sort to stay in cache.
_BLOCK_CELLS = 2 ** 14


def _row_blocks(n: int):
    """Consecutive row ranges (r0, r1) covering [0, n), about _BLOCK_CELLS
    off-diagonal cells each."""
    h = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, h):
        yield r0, min(r0 + h, n)


def _skip_diagonal(j, u):
    """Vertex in column j of row u of a (rows, n-1) block without diagonal."""
    return j + (j >= u)


def _block_costs(n: int, r0: int, r1: int, model: WeightModel, directed: bool,
                 base: np.uint64, incoming: bool = False) -> np.ndarray:
    """Costs of the off-diagonal cells of rows r0..r1-1 as an (r1-r0, n-1)
    array: column j of row u is the edge from u to v = _skip_diagonal(j, u),
    or from v to u when ``incoming``."""
    u = np.arange(r0, r1, dtype=np.uint64)[:, None]
    v = _skip_diagonal(np.arange(n - 1, dtype=np.uint64), u)
    if incoming:
        u, v = v, u
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    return _costs_from_uniform(_edge_uniform(base, u * np.uint64(n) + v), model)


def _sort_block(w: np.ndarray, r0: int, ends: np.ndarray, costs: np.ndarray) -> None:
    """Sort each row of the cost block ``w`` (rows r0.., diagonal skipped)
    into the views ``ends`` (vertices) and ``costs``, ties in vertex order."""
    h, deg = w.shape
    order = np.argsort(w, axis=1)
    costs[:] = np.take(w, order + np.arange(h)[:, None] * deg)
    # the default sort is unstable: re-sort rows with ties, stably
    for i in np.flatnonzero((costs[:, 1:] == costs[:, :-1]).any(axis=1)):
        order[i] = np.argsort(w[i], kind="stable")
        costs[i] = w[i, order[i]]
    ends[:] = _skip_diagonal(order, np.arange(r0, r0 + h)[:, None])


def gen_complete(n: int, model: WeightModel, directed: bool = True) -> SortedDigraph:
    """Generate the complete graph on ``n`` vertices with random edge costs.

    All n(n-1) directed costs are i.i.d. draws from ``model`` (for an
    undirected graph, the n(n-1)/2 pair costs are mirrored).  The result is a
    pure function of (n, model.kind, model.shape, model.seed, directed).
    """
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    n = int(n)
    base = _stream_base(model.seed)

    deg = n - 1
    out_to, in_from = np.empty((2, n, deg), dtype=np.int32)
    out_w, in_w = np.empty((2, n, deg), dtype=np.float64)
    for r0, r1 in _row_blocks(n):
        w = _block_costs(n, r0, r1, model, directed, base)
        _sort_block(w, r0, out_to[r0:r1], out_w[r0:r1])
        if directed:
            w = _block_costs(n, r0, r1, model, directed, base, incoming=True)
            _sort_block(w, r0, in_from[r0:r1], in_w[r0:r1])
    if not directed:  # symmetric costs: the in-lists equal the out-lists
        in_from[:] = out_to
        in_w[:] = out_w

    ptr = np.arange(n + 1, dtype=np.int64) * deg
    return SortedDigraph(n, directed, ptr, out_to.ravel(), out_w.ravel(),
                         ptr.copy(), in_from.ravel(), in_w.ravel())


def complete_cost_matrix(n: int, model: WeightModel, directed: bool = True) -> np.ndarray:
    """Dense cost matrix of the same graph :func:`gen_complete` would build."""
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    base = _stream_base(model.seed)
    m = np.zeros((n, n))
    col = np.arange(n - 1)
    for r0, r1 in _row_blocks(n):
        u = np.arange(r0, r1)[:, None]
        m[u, _skip_diagonal(col, u)] = _block_costs(n, r0, r1, model, directed, base)
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
