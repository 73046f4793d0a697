"""Weighted complete digraphs with cost-sorted adjacency in both directions.

A :class:`SortedDigraph` stores, for every vertex, the outgoing and the
incoming edges sorted in non-decreasing order of cost.  Complete graphs come
from a random weight model (:func:`gen_complete`) or from a dense cost matrix
(:func:`from_cost_matrix`); both go through one row-sort builder.  Any other
graph is built from an explicit edge list (:func:`build_sorted_adjacency`).
A graph file is an ``.npz`` of the out-CSR arrays (:func:`save`,
:func:`load`).

Random edge costs are derived from a counter-based PRNG: the cost of edge
(u, v) is a pure function of (seed, u, v), so generation is reproducible and
independent of the order in which edges are materialized.  Undirected graphs
key both orientations of a pair on (min(u, v), max(u, v)), which makes the
cost matrix symmetric by construction.

A search or a fast verifier reads only a few entries at the head of most
rows, so :func:`gen_complete` holds only a prefix of each row: its first
K = min(n - 1, ceil(8 (ln n)^p)) entries, p = 1 but for Weibull shapes
below 1 (:func:`_prefix_length`), or the whole row where the K-th and the
(K+1)-th costs tie.  Such a graph hashes each cost once, n(n - 1) hashes
when directed and half as many when not, but turns only O(n K) of them
into costs, and holds and sorts only O(n K) cells
(:func:`_hashed_heads`).  The readers of the row heads (the search loop of
:mod:`fbsp.sssp`, the windows of :mod:`fbsp.verify` and
:mod:`fbsp.oracle`) read :meth:`SortedDigraph.rows`; one that would read
past the end of an incomplete row raises :class:`RowOverflow`, and
:func:`restarts` completes the graph and makes the call again.  Completing
runs the same row builder with K = n - 1 (:func:`_build`), which pays for
all n(n - 1) sorted entries and hashes a directed cost twice, in its row
and in its column.  The CSR arrays (``out_ptr``, ``out_to``, ...),
``out_edges``/``in_edges``, ``==`` and :func:`save` complete the graph
first, so ``dijkstra``, ``verify_full`` and every array reader see the
dense graph, byte for byte.
"""

from __future__ import annotations

import functools
import math
import os
import zipfile
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

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


class Rows(NamedTuple):
    """One direction of a graph's adjacency: row u is ``ends[ptr[u]:ptr[u +
    1]]`` with costs ``costs[...]``, sorted by (cost, vertex); it holds all
    of u's edges if ``complete[u]``, else only the first of them."""

    ptr: np.ndarray
    ends: np.ndarray
    costs: np.ndarray
    complete: np.ndarray


class RowOverflow(Exception):
    """A read went past the end of an incomplete row."""


def restarts(read):
    """Decorate ``read(graph, ...)``, a reader of ``graph.rows()``: if it
    raises :class:`RowOverflow`, the graph is completed and the call made
    again, so its result is the one it gives on the complete graph."""
    @functools.wraps(read)
    def run(graph, *args, **kwargs):
        try:
            return read(graph, *args, **kwargs)
        except RowOverflow:
            pass  # leave the handler first: its traceback holds the reader
        graph.complete()
        return read(graph, *args, **kwargs)
    return run


def _csr(outgoing: bool, field: int, doc: str) -> property:
    return property(lambda g: g.complete().rows(outgoing)[field], doc=doc)


class SortedDigraph:
    """Immutable weighted digraph with cost-sorted adjacency, both directions.

    Adjacency is stored CSR-style: the outgoing edges of vertex ``u`` are
    ``out_to[out_ptr[u]:out_ptr[u+1]]`` with costs ``out_w[...]``, sorted by
    (cost, target).  Incoming edges are stored symmetrically, sorted by
    (cost, source).  Both views describe the same edge multiset.  An
    undirected graph holds each edge in both directions, so its in-lists
    equal its out-lists, and its in-arrays are its out-arrays.

    A graph from :func:`gen_complete` may hold row prefixes only
    (:meth:`rows`); reading the CSR arrays completes it.
    """

    __slots__ = ("n", "directed", "num_edges", "_out", "_in", "_dense")

    def __init__(self, n, directed, out_ptr, out_to, out_w, in_ptr, in_from, in_w):
        self.n = int(n)
        self.directed = bool(directed)
        self.num_edges = int(out_to.shape[0])
        every = np.ones(self.n, dtype=bool)
        self._out = Rows(out_ptr, out_to, out_w, every)
        self._in = Rows(in_ptr, in_from, in_w, every)
        self._dense = None  # builds the complete rows of a prefix graph

    @classmethod
    def _prefixes(cls, n: int, directed: bool, out: Rows, into: Rows,
                  dense) -> "SortedDigraph":
        """The complete graph on ``n`` vertices held as the row prefixes
        ``out`` and ``into``; ``dense()`` builds it whole."""
        graph = cls.__new__(cls)
        graph.n, graph.directed, graph.num_edges = n, directed, n * (n - 1)
        graph._out, graph._in, graph._dense = out, into, dense
        return graph

    def rows(self, outgoing: bool = True) -> Rows:
        """The out-rows, or the in-rows, as the graph holds them now."""
        if self._out is None:  # a completion failed after the prefixes went
            self.complete()
        return self._out if outgoing else self._in

    @property
    def completed(self) -> bool:
        """Whether every row is held whole."""
        return self._dense is None

    def complete(self) -> "SortedDigraph":
        """Hold every row whole, from the row builder with K = n - 1, and
        drop the prefixes; returns the graph."""
        if self._dense is not None:
            self._out = self._in = None  # free the prefixes for the build
            dense = self._dense()  # if this raises, the next read retries
            self._out, self._in, self._dense = dense._out, dense._in, None
        return self

    out_ptr = _csr(True, 0, "Row offsets of the out-lists (n + 1).")
    out_to = _csr(True, 1, "Targets of the out-lists, row after row.")
    out_w = _csr(True, 2, "Costs of the out-lists, row after row.")
    in_ptr = _csr(False, 0, "Row offsets of the in-lists (n + 1).")
    in_from = _csr(False, 1, "Sources of the in-lists, row after row.")
    in_w = _csr(False, 2, "Costs of the in-lists, row after row.")

    def out_edges(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """(targets, costs) of u's outgoing edges, non-decreasing cost."""
        ptr, to, w, _ = self.complete()._out
        lo, hi = ptr[u], ptr[u + 1]
        return to[lo:hi], w[lo:hi]

    def in_edges(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """(sources, costs) of v's incoming edges, non-decreasing cost."""
        ptr, frm, w, _ = self.complete()._in
        lo, hi = ptr[v], ptr[v + 1]
        return frm[lo:hi], w[lo:hi]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SortedDigraph):
            return NotImplemented
        return (self.n == other.n and self.directed == other.directed
                and all(np.array_equal(a, b) for outgoing in (True, False)
                        for a, b in zip(self.complete().rows(outgoing)[:3],
                                        other.complete().rows(outgoing)[:3])))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"SortedDigraph(n={self.n}, edges={self.num_edges}, {kind})"


_NOT_FINITE = "an edge cost overflows float64; use a smaller shape"

# Generation hashes and sorts blocks of about this many cost cells: small
# enough for the block's temporaries to stay in cache, and large enough
# that a block's numpy calls cost little next to its work.
_BLOCK_CELLS = 2 ** 15
# gen_complete holds the first ceil(_PREFIX_LOGS * (ln n)^p) entries of a
# row (see _prefix_length); any positive value gives the same results.
_PREFIX_LOGS = 8.0
# gen_complete keeps as candidates the cells whose hash lets in about
# m = _CANDIDATES * (K + 1) cells of a row, and holds up to
# m + _SPREAD * (sqrt(m) + 1) of them, which a row almost never passes (see
# _hashed_heads); a row short of K + 1 or past the table is built alone.
_CANDIDATES = 1.5
_SPREAD = 5.0


def _row_blocks(n: int, width: Optional[int] = None):
    """Consecutive row ranges (r0, r1) covering [0, n), about _BLOCK_CELLS
    cells each, of rows ``width`` cells wide (n by default)."""
    h = max(1, _BLOCK_CELLS // (width or n))
    for r0 in range(0, n, h):
        yield r0, min(r0 + h, n)


def _hash(z: np.ndarray, offset: np.uint64) -> np.ndarray:
    """The hashes of the uint64 counters ``z`` in the stream at ``offset``,
    in place; returns ``z``."""
    z *= _GOLDEN
    z += offset
    _mix64(z)
    return z


def _uniform_costs(u: np.ndarray, model: WeightModel, out: np.ndarray) -> None:
    """The costs of the 53-bit integer uniforms ``u`` into ``out``, float64
    of u's shape: u / 2^53 transformed to the law of ``model``, a
    non-decreasing function of u.  An overflowing Weibull cost is +inf."""
    out[:] = u
    out *= 2.0 ** -53  # a uniform on [0, 1)
    if model.kind == UNIFORM:
        return
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)  # Exp(1), never -0.0
    if model.kind == WEIBULL:
        with np.errstate(over="ignore"):
            out **= model.shape


def _block_costs(n: int, r0: int, r1: int, model: WeightModel, directed: bool,
                 offset: np.uint64, out: np.ndarray, columns: bool) -> None:
    """Costs of rows r0..r1-1 of the n*n cost matrix, or of its columns
    r0..r1-1 if ``columns``, into the flat ``out``, diagonal included: the
    edge (u, v) has counter u*n + v, or min*n + max when undirected.
    Raises :class:`GraphError` if a cost off the diagonal is not finite."""
    if not directed:  # symmetric: column r is row r
        u = np.arange(r0, r1, dtype=np.uint64)[:, None]
        v = np.arange(n, dtype=np.uint64)
        z = (np.minimum(u, v) * np.uint64(n) + np.maximum(u, v)).ravel()
    elif columns:
        z = (np.arange(r0, r1, dtype=np.uint64)[:, None]
             + np.arange(0, n * n, n, dtype=np.uint64)).ravel()
    else:
        z = np.arange(r0 * n, r1 * n, dtype=np.uint64)
    _hash(z, offset)
    z >>= 11
    _uniform_costs(z, model, out)
    if model.kind == WEIBULL:
        bad = np.isinf(out)
        bad[r0::n + 1] = False  # the diagonal is no edge
        if bad.any():
            raise GraphError(_NOT_FINITE)


def _row_keys(w: np.ndarray, keys: np.ndarray) -> np.uint64:
    """Each cell's sort key into ``keys``, uint64 of the shape of the cost
    rows ``w``, and return the vertex mask: non-negative doubles other than
    -0.0 order like their bit patterns, so a key is its cost's bits with
    the low bits (the mask) replaced by its vertex."""
    n = w.shape[1]
    vertex_mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    np.bitwise_and(w.view(np.uint64), ~vertex_mask, out=keys)
    keys |= np.arange(n, dtype=np.uint64)
    return vertex_mask


def _sort_rows(w: np.ndarray, keys: np.ndarray, ends: np.ndarray,
               costs: np.ndarray) -> None:
    """Sort each full cost row of ``w``, +inf on the diagonal, by (cost,
    vertex) into the views ``ends`` and ``costs``, which leave the diagonal
    out.  ``keys`` is uint64 scratch of w's shape.

    One sort of the :func:`_row_keys` orders a row by (truncated cost,
    vertex).  A row whose costs then are not strictly increasing holds a
    tie, or two costs that differ only in the dropped bits, and is re-sorted
    stably.
    """
    h, n = w.shape
    vertex_mask = _row_keys(w, keys)
    keys.sort(axis=1)
    keys &= vertex_mask
    ends[:] = keys[:, :-1]  # the diagonal sorts last
    keys += np.arange(0, h * n, n, dtype=np.uint64)[:, None]
    np.take(w.ravel(), keys.view(np.int64)[:, :-1], out=costs, mode="clip")
    for i in np.flatnonzero((costs[:, 1:] <= costs[:, :-1]).any(axis=1)):
        order = np.argsort(w[i], kind="stable")[:-1]
        ends[i] = order
        costs[i] = w[i, order]


def _held_whole(kth: np.ndarray, floor: np.ndarray, n: int) -> np.ndarray:
    """Whether rows of ``n`` - 1 cells may tie at the cut and are held
    whole: whether ``floor``, at most each row's (k+1)-th cost, is not
    above its k-th cost ``kth`` once the low bits that :func:`_row_keys`
    gives the vertex are cleared from it."""
    vertex_mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    return ~((floor.view(np.uint64) & ~vertex_mask).view(np.float64) > kth)


def _prefix_rows(ends: np.ndarray, costs: np.ndarray, whole: dict) -> Rows:
    """The rows of the (n, k) sorted prefixes ``ends`` and ``costs``, with
    the rows in ``whole``, {row: (ends, costs)}, held whole instead; all of
    them are whole if k = n - 1."""
    n, k = ends.shape
    complete = np.full(n, k == n - 1)
    if not whole:
        return Rows(np.arange(n + 1, dtype=np.int64) * k, ends.ravel(),
                    costs.ravel(), complete)
    complete[list(whole)] = True
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(complete, n - 1, k), out=ptr[1:])
    flat_ends = np.empty(ptr[-1], dtype=np.int32)
    flat_costs = np.empty(ptr[-1])
    at = ptr[:-1][~complete, None] + np.arange(k)
    flat_ends[at] = ends[~complete]
    flat_costs[at] = costs[~complete]
    for r, (e, c) in whole.items():
        flat_ends[ptr[r]:ptr[r + 1]] = e
        flat_costs[ptr[r]:ptr[r + 1]] = c
    return Rows(ptr, flat_ends, flat_costs, complete)


def _hashed_heads(n: int, k: int, model: WeightModel, directed: bool,
                  offset: np.uint64) -> list:
    """The heads of the rows of :func:`gen_complete`: for the out-rows, then
    the in-rows if ``directed``, the (n, k) arrays ``ends`` and ``costs`` of
    each row's first k entries and ``redo``, the rows they do not give.

    Each cost off the diagonal is hashed once, an undirected pair's in its
    row u < v.  A cell's key is its hash with the low bits (at least the 11
    below its 53-bit integer uniform) replaced by the other end; keys order
    a row like its costs, which do not decrease with the uniform.  A cell
    whose hash lies below a threshold is a candidate of both of its rows,
    and a row's k smallest candidates are its head, unless the row has at
    most k candidates, or more than its table holds.  Only the heads and
    the floor of each row's (k+1)-th key (its uniform with the vertex bits
    cleared) become costs.  A head is kept where :func:`_held_whole` says no
    on the floor's cost, which is at most the (k+1)-th cost: a sort of the
    row's costs then gives the same head and the same verdict.  Apart
    from the results and the table of candidates, no array holds more than
    about a block of cells, which keeps the memory that a build leaves to
    the allocator small.  Raises :class:`GraphError` if a cost off the
    diagonal is not finite.
    """
    sides = 2 if directed else 1
    m = _CANDIDATES * (k + 1)
    width = min(n, max(k + 1, math.ceil(m + _SPREAD * (math.sqrt(m) + 1))))
    _check_fits(sides * n * (12 * k + 8 * width))
    costs = np.empty((sides, n, k))  # the larger first, should it not fit
    ends = np.empty((sides, n, k), dtype=np.int32)
    # each row's candidates, padded with keys that sort last
    low = np.uint64((1 << max(11, (n - 1).bit_length())) - 1)
    high, last = ~low, ~np.uint64(0)
    table = np.full((sides, n, width), last)
    count = np.zeros((sides, n), dtype=np.int64)
    t = np.uint64(min(2 ** 64 - 1, int(math.ldexp(m / (n - 1), 64)))) & high
    size, vertex = np.uint64(n), np.min_scalar_type(n - 1)
    found, held = [], 0  # the candidates not yet in the table
    top = np.uint64(0)  # the largest hash off the diagonal
    for r0, r1 in _row_blocks(n):
        c0 = 0 if directed else r0  # a pair u < v is hashed in row u
        w = n - c0
        z = _hash(np.arange(r0, r1, dtype=np.uint64)[:, None] * size
                  + np.arange(c0, n, dtype=np.uint64), offset)
        i = np.arange(r1 - r0)  # the diagonal, and when undirected v < u
        skip = (i, r0 + i) if directed else np.tril_indices(r1 - r0, 0, w)
        if model.kind == WEIBULL:
            z[skip] = 0
            top = z.max(initial=top)
        z[skip] = last  # sorts last, and is no candidate
        at = np.flatnonzero(z < t)
        row, column = np.divmod(at, w)
        found.append((z.ravel()[at] & high, (row + r0).astype(vertex),
                      (column + c0).astype(vertex)))
        held += at.size
        if held < _BLOCK_CELLS and r1 < n:
            continue
        bits, u, v = (np.concatenate(x) for x in zip(*found))
        found, held = [], 0
        rows = [(u, v), (v, u)]  # (row, end) in the out-rows, in the in-rows
        if not directed:  # a pair is a candidate of row u and of row v
            bits, rows = np.tile(bits, 2), [(np.concatenate((u, v)),
                                             np.concatenate((v, u)))]
        for d, (mine, other) in enumerate(rows):
            order = np.argsort(mine, kind="stable")
            mine = mine[order]
            new = np.bincount(mine, minlength=n)
            # the i-th goes to slot i, less where its row's run starts, plus
            # the candidates that its row already holds
            shift = count[d] + new - np.cumsum(new)
            slot = np.arange(mine.size) + shift[mine]
            fits = slot < width
            table[d, mine[fits], slot[fits]] = (bits | other)[order][fits]
            count[d] += new
    if model.kind == WEIBULL:  # costs do not decrease with the hash
        cost = np.empty(1)
        _uniform_costs(np.array([top >> np.uint64(11)]), model, cost)
        if np.isinf(cost[0]):
            raise GraphError(_NOT_FINITE)
    # the rows with at most k candidates, or more than their table holds
    redo = (count <= k) | (count > width)
    for d in range(sides):
        for r0, r1 in _row_blocks(n, width):
            keys = table[d, r0:r1]
            keys.partition(k, axis=1)
            head = keys[:, :k]
            head.sort(axis=1)
            head &= low
            me = np.arange(r0, r1, dtype=np.uint64)[:, None]
            if not directed:
                cells = np.minimum(me, head) * size + np.maximum(me, head)
            else:
                cells = head * size + me if d else me * size + head
            e, c = ends[d, r0:r1], costs[d, r0:r1]
            e[:] = head
            _uniform_costs(_hash(cells, offset) >> np.uint64(11), model, c)
            for i in np.flatnonzero((c[:, 1:] <= c[:, :-1]).any(axis=1)):
                order = np.lexsort((e[i], c[i]))  # by (cost, vertex)
                e[i], c[i] = e[i, order], c[i, order]
            floor = np.empty(r1 - r0)  # the least cost past the head
            _uniform_costs((keys[:, k] & high) >> np.uint64(11), model, floor)
            redo[d, r0:r1] |= _held_whole(c[:, -1], floor, n)
    return list(zip(ends, costs, map(np.flatnonzero, redo)))


def _build(n: int, directed: bool, fill, k: int, heads=None,
           dense=None) -> SortedDigraph:
    """The complete graph on ``n`` vertices whose cost matrix ``fill``
    writes, as the first ``k`` entries of each row, or the whole row where
    the k-th and (k+1)-th may tie, or every row whole if k = n - 1.
    ``fill(r0, r1, out, columns)`` writes rows r0..r1-1, or columns r0..r1-1
    (the in-rows) if ``columns``, diagonal included (and ignored), into the
    flat array ``out``.  Off the diagonal the costs must be non-negative and
    never -0.0, and symmetric if the graph is undirected.  ``heads``, as
    :func:`_hashed_heads` gives them, are the rows of each direction but its
    ``redo``, which alone are filled; ``dense()`` builds the graph whole.
    Raises :class:`GraphError` if a cost is not finite.
    """
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    sides = 2 if directed else 1  # undirected: the in-rows are the out-rows
    _check_fits(sides * n * k * 12)
    h = max(1, _BLOCK_CELLS // n)
    full = np.empty(h * n)
    keys = np.empty((h, n), dtype=np.uint64)
    rows = []
    for d in range(sides):  # the out-rows, then the in-rows
        if heads is None:
            ends, costs = np.empty((n, k), dtype=np.int32), np.empty((n, k))
            blocks = _row_blocks(n)
        else:
            ends, costs, redo = heads[d]
            blocks = ((r, r + 1) for r in redo)
        whole = {}
        for r0, r1 in blocks:
            block = full[:(r1 - r0) * n]
            fill(r0, r1, block, d == 1)
            block[r0::n + 1] = np.inf  # the diagonal sorts last
            if k == n - 1:  # sort straight into the rows
                e, c = ends[r0:r1], costs[r0:r1]
            else:  # sort whole rows, then cut them
                e = np.empty((r1 - r0, n - 1), dtype=np.int32)
                c = np.empty((r1 - r0, n - 1))
            _sort_rows(block.reshape(-1, n), keys[:r1 - r0], e, c)
            if k < n - 1:
                ends[r0:r1], costs[r0:r1] = e[:, :k], c[:, :k]
                for i in np.flatnonzero(_held_whole(c[:, k - 1], c[:, k], n)):
                    whole[r0 + i] = e[i].copy(), c[i].copy()
        rows.append(_prefix_rows(ends, costs, whole))
    return SortedDigraph._prefixes(n, directed, rows[0], rows[-1], dense)


def _check_fits(size: int) -> None:
    """Raise :class:`GraphError` if a build that holds ``size`` bytes could
    never fit in the host's physical memory."""
    memory = _physical_memory()
    if memory is not None and size > memory:
        raise GraphError(f"the graph needs {size / 2 ** 30:.1f} GiB, more "
                         f"than the {memory / 2 ** 30:.1f} GiB of memory")


def _physical_memory() -> Optional[int]:
    """The host's physical memory in bytes, or None if it is not known."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def gen_complete(n: int, model: WeightModel, directed: bool = True) -> SortedDigraph:
    """Generate the complete graph on ``n`` vertices with random edge costs.

    All n(n-1) directed costs are i.i.d. draws from ``model`` (for an
    undirected graph, the n(n-1)/2 pair costs are mirrored).  The result is a
    pure function of (n, model.kind, model.shape, model.seed, directed).
    The graph holds row prefixes until it is completed (see the module
    docstring).  Raises :class:`GraphError` if a cost is not finite, or if
    the graph could never fit in memory.
    """
    n = int(n)
    offset = _stream_offset(model.seed)

    def fill(r0, r1, out, columns):
        _block_costs(n, r0, r1, model, directed, offset, out, columns)

    def dense():
        return _build(n, directed, fill, n - 1)

    k = _prefix_length(n, model)
    if k == n - 1:
        return dense()
    return _build(n, directed, fill, k,
                  _hashed_heads(n, k, model, directed, offset), dense)


def _prefix_length(n: int, model: WeightModel) -> int:
    """K = min(n - 1, ceil(_PREFIX_LOGS * (ln n)^p)), the length of a row
    prefix, with p = max(1, 1/shape) for Weibull costs and 1 otherwise.

    Searches and fast verifiers read a row about as deep as it holds costs
    below a few typical distances, which is O((ln n)^p) entries: at most
    3.4 ln n of an exp or uniform row at n = 2000, 3 ln n of a
    weibull(3) row and 2.8 (ln n)^2 of a weibull(0.5) row.
    """
    p = max(1.0, 1.0 / model.shape) if model.kind == WEIBULL else 1.0
    if n < 3:
        return n - 1
    log_k = math.log(_PREFIX_LOGS) + p * math.log(math.log(n))
    return n - 1 if log_k >= math.log(n - 1) else math.ceil(math.exp(log_k))


def from_cost_matrix(costs) -> SortedDigraph:
    """The directed complete graph whose edge u -> v costs ``costs[u, v]``;
    the diagonal is ignored.

    Raises :class:`GraphError` unless ``costs`` is square and finite and
    non-negative off the diagonal.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise GraphError("cost matrix must be square")
    n = costs.shape[0]
    ok = np.isfinite(costs) & (costs >= 0)
    np.fill_diagonal(ok, True)
    if not ok.all():
        raise GraphError("edge costs must be finite and non-negative")

    def fill(r0, r1, out, columns):
        cells = costs[:, r0:r1].T if columns else costs[r0:r1]
        # adding 0.0 turns -0.0, which _sort_rows' keys order last, into 0.0
        np.add(cells, 0.0, out=out.reshape(r1 - r0, n))

    return _build(n, True, fill, n - 1)


def build_sorted_adjacency(edges: Iterable[Tuple[int, int, float]], n: int,
                           directed: bool = True) -> SortedDigraph:
    """Build a :class:`SortedDigraph` from explicit (u, v, cost) edges.

    Costs must be finite and non-negative, endpoints integers in [0, n) and
    distinct.  Each list is sorted by cost, ties by the other endpoint;
    repeated pairs are kept as separate edges.  If ``directed`` is false,
    each (u, v, cost) is one undirected edge, held as u -> v and v -> u, and
    the in-lists are the out-lists.
    """
    edges = list(edges)
    src, dst = (np.array([e[i] for e in edges],
                         dtype=None if edges else np.int64) for i in (0, 1))
    w = np.fromiter((e[2] for e in edges), dtype=np.float64, count=len(edges))
    return _from_edge_arrays(n, directed, src, dst, w)


def _check_edges(n: int, src: np.ndarray, dst: np.ndarray,
                 w: np.ndarray) -> None:
    """The checks of :func:`build_sorted_adjacency` on the edges src[i] ->
    dst[i] of float64 cost w[i]."""
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
        raise GraphError("edge endpoints must be integers")
    if src.size:
        if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
            raise GraphError("edge endpoint out of range")
        if np.any(src == dst):
            raise GraphError("self-loops are not allowed")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise GraphError("edge costs must be finite and non-negative")


def _sorted_rows(n: int, key_src: np.ndarray, key_dst: np.ndarray,
                 w: np.ndarray):
    """(ptr, ends, costs) of the rows key_src[i] -> key_dst[i], each sorted
    by (cost, vertex): np.lexsort((key_dst, w, key_src)) as stable sorts,
    the vertex keys on the least unsigned type (a radix sort to 16 bits)."""
    vertex = np.min_scalar_type(n - 1)
    order = np.argsort(key_dst.astype(vertex), kind="stable")
    order = order[np.argsort(w[order], kind="stable")]
    order = order[np.argsort(key_src[order].astype(vertex), kind="stable")]
    ptr = np.searchsorted(key_src[order], np.arange(n + 1))
    return ptr, key_dst[order].astype(np.int32), w[order]


def _from_edge_arrays(n: int, directed: bool, src: np.ndarray,
                      dst: np.ndarray, w: np.ndarray) -> SortedDigraph:
    """:func:`build_sorted_adjacency` of the edges src[i] -> dst[i] of
    float64 cost w[i], with the same checks."""
    _check_edges(n, src, dst, w)
    if not directed:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        w = np.concatenate((w, w))
    out = _sorted_rows(n, src, dst, w)
    in_ = _sorted_rows(n, dst, src, w) if directed else out
    return SortedDigraph(n, directed, *out, *in_)


def save(graph: SortedDigraph, file) -> None:
    """Write a graph to ``file``, a path or a binary file object, as an
    uncompressed ``.npz`` of its ``n``, ``directed`` and out-CSR arrays
    ``ptr``, ``to`` and ``w``, which hold an undirected edge both ways."""
    if not hasattr(file, "write"):
        with open(file, "wb") as fh:  # np.savez would append ".npz" to a path
            return save(graph, fh)
    np.savez(file, n=np.int64(graph.n), directed=np.bool_(graph.directed),
             ptr=graph.out_ptr, to=graph.out_to, w=graph.out_w)


def load(path) -> SortedDigraph:
    """Load a graph that :func:`save` wrote to the file at ``path``, and
    raise :class:`GraphError` on any other file.  The edges go through the
    checks of :func:`build_sorted_adjacency`, and a row out of (cost,
    vertex) order raises.  A directed file's out-rows are kept as they are,
    and its in-rows sorted from them; an undirected file must equal what the
    builder makes of its u < v half, which holds each edge both ways."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
    # an .npy file loads as an array, which is no context manager (TypeError)
    except (TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise GraphError("not a graph file (an .npz archive)") from exc
    n, directed, ptr, to, w = (np.asarray(arrays.pop(k, None))
                               for k in ("n", "directed", "ptr", "to", "w"))
    if (arrays or n.shape or n.dtype.kind not in "iu" or n < 1
            or directed.shape or directed.dtype != np.bool_
            or ptr.dtype != np.int64 or ptr.shape != (n + 1,) or ptr[0] != 0
            or np.any(np.diff(ptr) < 0) or to.dtype.kind not in "iu"
            or to.shape != (ptr[-1],) or w.shape != (ptr[-1],)
            or w.dtype != np.float64):
        raise GraphError(
            "malformed graph file: it holds exactly n (a positive integer), "
            "directed (a bool), ptr (n + 1 int64 offsets rising from 0 to the "
            "length of to and w), to (integers) and w (float64)")
    n = int(n)
    src = np.repeat(np.arange(n), np.diff(ptr))
    if directed:
        _check_edges(n, src, to, w)
        to = to.astype(np.int32)
        # entries that sort before the one ahead of them in their row
        early = (w[1:] < w[:-1]) | ((w[1:] == w[:-1]) & (to[1:] < to[:-1]))
        bad = min(src[1:][early & (src[1:] == src[:-1])][:1], default=None)
        graph = SortedDigraph(n, True, ptr, to, w, *_sorted_rows(n, to, src, w))
    else:
        keep = src < to
        graph = _from_edge_arrays(n, False, src[keep], to[keep], w[keep])
        bad = _first_row_apart(graph.rows(), ptr, to, w)
    if bad is not None:
        raise GraphError(f"row {bad} of the graph file is not sorted by "
                         "(cost, vertex), or lacks an undirected edge's "
                         "reverse")
    return graph


def _first_row_apart(rows: Rows, ptr: np.ndarray, ends: np.ndarray,
                     costs: np.ndarray) -> Optional[int]:
    """The first row in which ``rows`` and the CSR arrays (ptr, ends,
    costs) differ, or None if they are equal."""
    common = min(ends.shape[0], rows.ends.shape[0])
    cells = np.flatnonzero((rows.ends[:common] != ends[:common])
                           | (rows.costs[:common] != costs[:common]))
    # the rows before the first end offset that differs start alike
    ends_apart = np.flatnonzero(rows.ptr[1:] != ptr[1:])[:1]
    cells_apart = np.searchsorted(ptr, cells[:1], side="right") - 1
    return min(np.concatenate((ends_apart, cells_apart)), default=None)
