"""All-pairs shortest paths: sort the adjacency once, then run the
forward-backward single-source algorithm from every vertex.

Accepts either a ready :class:`~fbsp.graph.SortedDigraph` or a dense cost
matrix; in the latter case the sorted adjacency is built first, from the
off-diagonal entries, with the same sort as
:func:`~fbsp.graph.build_sorted_adjacency`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .graph import GraphError, SortedDigraph, sorted_adjacency_from_arrays
from .sssp import ScanStats, fb_sssp


@dataclass
class ApspResult:
    dist: np.ndarray
    per_source_stats: List[ScanStats]
    preprocess_time: float
    total_time: float

    @property
    def total_scans(self) -> int:
        return sum(s.total_scans for s in self.per_source_stats)


def _graph_from_matrix(costs: np.ndarray) -> SortedDigraph:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise GraphError("cost matrix must be square")
    n = costs.shape[0]
    off = ~np.eye(n, dtype=bool)
    u, v = np.nonzero(off)
    return sorted_adjacency_from_arrays(u, v, costs[off], n)


def apsp(graph_or_costs: Union[SortedDigraph, np.ndarray]) -> ApspResult:
    """Shortest-path distances between all pairs, one fb_sssp run per source."""
    t0 = time.perf_counter()
    if isinstance(graph_or_costs, SortedDigraph):
        graph = graph_or_costs
    else:
        graph = _graph_from_matrix(graph_or_costs)
    t1 = time.perf_counter()

    n = graph.n
    dist = np.empty((n, n))
    stats: List[ScanStats] = []
    for s in range(n):
        tree, st = fb_sssp(graph, s)
        dist[s, :] = tree.dist
        stats.append(st)

    t2 = time.perf_counter()
    return ApspResult(dist, stats, preprocess_time=t1 - t0, total_time=t2 - t0)
