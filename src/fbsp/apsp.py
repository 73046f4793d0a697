"""All-pairs shortest paths: sort the adjacency once, then run the
forward-backward single-source algorithm from every vertex.

Accepts either a ready :class:`~fbsp.graph.SortedDigraph` or a dense cost
matrix; in the latter case the sorted adjacency is built first, from the
off-diagonal entries, by :func:`~fbsp.graph.from_cost_matrix`, the row sort
that :func:`~fbsp.graph.gen_complete` uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .graph import SortedDigraph, from_cost_matrix
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


def apsp(graph_or_costs: Union[SortedDigraph, np.ndarray]) -> ApspResult:
    """Shortest-path distances between all pairs, one fb_sssp run per source."""
    t0 = time.perf_counter()
    if isinstance(graph_or_costs, SortedDigraph):
        graph = graph_or_costs
    else:
        graph = from_cost_matrix(graph_or_costs)
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
