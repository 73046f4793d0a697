"""Probabilistic ground truth for randomly weighted complete graphs.

On the complete graph with i.i.d. Exp(1) edge costs, the shortest path tree
from a source has an exact direct description: listing vertices in order of
distance, the k-th distance gap is Exp(1)/(k(n-k)), the next vertex is a
uniformly random remaining vertex, and its parent is uniform among the
already-reached ones.  Conditional on the tree, a non-tree edge from the
j-th-closest to the k-th-closest vertex costs d_k - d_j + Exp(1) when j < k
and a fresh Exp(1) when k < j (undirected graphs: |d_k - d_j| + Exp(1)).

This module samples that description directly (:func:`sample_spt`, O(n) per
draw, no edges materialized), evaluates the exact expected distance formula
(:func:`harmonic_expected_distance`), classifies the pertinent edges of a
concrete graph (:func:`classify_pertinence`), and estimates pertinent-edge
counts and tail probabilities by sampling edge costs conditionally on a
drawn tree (:func:`sample_pertinence_counts`, :func:`tail_fraction`).  Both
classifiers count a tree edge as in-pertinent iff it is not out-pertinent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .graph import SortedDigraph, restarts
from .verify import _parent_edges, _pertinent_windows, select_median


@dataclass
class SptSample:
    """One draw of (visit order, parents, distances) of a random SPT.

    ``order[j]`` is the label of the (j+1)-closest vertex; ``parent_rank[j]``
    is the rank of its tree parent (-1 for the source at rank 0);
    ``dist[j]`` its distance; ``increments[j]`` = dist[j+1] - dist[j].
    """

    order: np.ndarray
    parent_rank: np.ndarray
    dist: np.ndarray
    increments: np.ndarray

    @property
    def n(self) -> int:
        return int(self.dist.shape[0])

    @property
    def median(self) -> float:
        return float(self.dist[(self.n + 1) // 2 - 1])


@dataclass
class PertinenceCounts:
    """Pertinent-edge tallies split by tree membership and scan direction."""

    out_spt: int = 0
    in_spt: int = 0
    out_non_spt: int = 0
    in_non_spt: int = 0

    @property
    def total(self) -> int:
        return self.out_spt + self.in_spt + self.out_non_spt + self.in_non_spt

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


@dataclass
class PertinenceRates:
    """Realized Poisson intensities dominating the non-tree pertinent-edge
    counts, computed from one sampled set of distances."""

    lambda_in: float
    lambda_out: float


def sample_spt(n: int, seed) -> SptSample:
    """Sample the SPT of a random complete graph directly, in O(n)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    if n == 1:
        return SptSample(order, np.array([-1]), np.zeros(1), np.zeros(0))
    k = np.arange(1, n, dtype=np.float64)
    incr = rng.exponential(size=n - 1) / (k * (n - k))
    dist = np.concatenate([[0.0], np.cumsum(incr)])
    ranks = np.empty(n, dtype=np.int64)
    ranks[0] = -1
    ranks[1] = 0
    if n > 2:
        ranks[2:] = rng.integers(0, np.arange(2, n))
    return SptSample(order, ranks, dist, incr)


def harmonic_expected_distance(n: int, k: int) -> float:
    """Exact expected distance of the k-th closest vertex (1-based):
    (H_{k-1} - H_{n-k} + H_{n-1}) / n."""
    if not (1 <= k <= n):
        raise ValueError("k must be in 1..n")
    recip = 1.0 / np.arange(1, n, dtype=np.float64)  # 1/1 .. 1/(n-1)
    h = np.concatenate([[0.0], np.cumsum(recip)])    # h[j] = H_j
    return float((h[k - 1] - h[n - k] + h[n - 1]) / n)


@restarts
def classify_pertinence(graph: SortedDigraph, tree) -> PertinenceCounts:
    """Classify every edge of ``graph`` against ``tree``.

    An edge (u, v) is out-pertinent when c <= 2(M - d[u]) and in-pertinent
    when c < 2(d[v] - M), with M the median tree distance: the windows that
    :func:`~fbsp.verify.verify_fb` reads, found by its row-window scan, so
    no n x n array is built.  Parallel edges count once, at their cheapest
    cost, first in a sorted row.  For an undirected graph each edge is
    classified once, oriented from its closer endpoint (ties by label).  A
    tree edge is in-pertinent iff it is not out-pertinent: exactly so in
    exact arithmetic, while rounding may let a tree edge at d[u] = d[v] = M
    meet neither bound.  This is the reference that the shortest-path runs'
    queue-insert counters are measured against.
    """
    d = np.asarray(tree.dist, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError("pertinence classification needs a spanning tree")
    n = graph.n
    M = select_median(d)
    rank = np.lexsort((np.arange(n), d)).argsort()  # by (d, label)

    def pertinent(outgoing: bool) -> np.ndarray:
        """Sorted keys u*n + v of the pairs with an edge in a window."""
        rows, start, end = _pertinent_windows(graph, d, M, outgoing)
        size = end - start
        pos = np.arange(size.sum()) + np.repeat(end - np.cumsum(size), size)
        row = np.repeat(rows, size)
        ends = graph.rows(outgoing).ends
        other = ends[pos].astype(np.int64)  # keys overflow int32
        u, v = (row, other) if outgoing else (other, row)
        closer_first = (rank[u] < rank[v]) | graph.directed
        return np.unique((u * n + v)[closer_first])

    out_keys, in_keys = pertinent(True), pertinent(False)
    if np.intersect1d(out_keys, in_keys, assume_unique=True).shape[0]:
        raise AssertionError("edge classified as both out- and in-pertinent")

    kids, p, _ = _parent_edges(graph, np.asarray(tree.parent, dtype=np.int64))
    flip = (rank[p] > rank[kids]) & (not graph.directed)
    tree_keys = np.where(flip, kids * n + p, p * n + kids)
    out_spt = int(np.isin(tree_keys, out_keys).sum())
    return PertinenceCounts(
        out_spt=out_spt,
        in_spt=kids.shape[0] - out_spt,
        out_non_spt=out_keys.shape[0] - out_spt,
        in_non_spt=in_keys.shape[0] - int(np.isin(tree_keys, in_keys).sum()),
    )


def pertinence_rates(sample: SptSample) -> PertinenceRates:
    """Realized intensities from a sampled distance profile:
    lambda_in = 2(n-1) * sum of (d_j - M) over the vertices past the median,
    lambda_out = 2(n-1) * sum of (M - d_j) over those before it."""
    d = sample.dist
    n = sample.n
    m = (n + 1) // 2  # 1-based rank of the median
    M = float(d[m - 1])
    lam_in = 2.0 * (n - 1) * float(np.sum(d[m:] - M))
    lam_out = 2.0 * (n - 1) * float(np.sum(M - d[:m - 1]))
    return PertinenceRates(lam_in, lam_out)


def sample_pertinence_counts(sample: SptSample, rng,
                             directed: bool = True) -> PertinenceCounts:
    """Classify all edges of one conditionally sampled graph.

    Tree edges are classified from their forced costs d_k - d_p; each
    non-tree edge cost is drawn from its conditional law, one source row at
    a time (O(n) working memory).
    """
    d = sample.dist
    n = sample.n
    counts = PertinenceCounts()
    if n == 1:
        return counts
    M = float(d[(n + 1) // 2 - 1])

    j_idx = np.arange(1, n)
    p_idx = sample.parent_rank[1:]
    tree_cost = d[j_idx] - d[p_idx]
    tree_out = tree_cost <= 2.0 * (M - d[p_idx])
    counts.out_spt = int(tree_out.sum())
    counts.in_spt = int(n - 1 - counts.out_spt)

    kids: list = [[] for _ in range(n)]
    for j, p in zip(j_idx.tolist(), p_idx.tolist()):
        kids[p].append(j)

    out_non = 0
    in_non = 0
    for j in range(n):
        dj = d[j]
        later = d[j + 1:]
        if later.shape[0]:
            e = rng.exponential(size=later.shape[0])
            y = (2.0 * M - dj) - later
            out_hit = e <= y
            in_hit = e < -y
            if kids[j]:
                drop = np.asarray(kids[j], dtype=np.int64) - (j + 1)
                out_hit[drop] = False
                in_hit[drop] = False
            out_non += int(out_hit.sum())
            in_non += int(in_hit.sum())
        if directed and j:
            earlier = d[:j]
            e = rng.exponential(size=j)
            out_non += int((e <= 2.0 * (M - dj)).sum())
            in_non += int((e < 2.0 * (earlier - M)).sum())
    counts.out_non_spt = out_non
    counts.in_non_spt = in_non
    return counts


def tail_fraction(n: int, threshold_multiple: float, trials: int, seed,
                  directed: bool = True) -> float:
    """Monte-Carlo estimate of Pr[#pertinent edges >= threshold_multiple*n]
    over freshly sampled trees with conditionally sampled edge costs."""
    if trials < 1:
        raise ValueError("need at least one trial")
    hits = 0
    bound = threshold_multiple * n
    for t in range(trials):
        s = sample_spt(n, (seed, t, 0))
        rng = np.random.default_rng((seed, t, 1))
        counts = sample_pertinence_counts(s, rng, directed=directed)
        if counts.total >= bound:
            hits += 1
    return hits / trials
