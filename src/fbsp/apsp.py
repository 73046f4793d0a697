"""All-pairs shortest paths: sort the adjacency once, then run the
forward-backward single-source algorithm from every vertex.

Accepts either a ready :class:`~fbsp.graph.SortedDigraph` or a dense cost
matrix; in the latter case the sorted adjacency is built first, from the
off-diagonal entries, with the same sort as
:func:`~fbsp.graph.build_sorted_adjacency`.  Per-source runs are independent and may be spread
over a thread pool; every run writes its own result row, so the output does
not depend on scheduling.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .graph import GraphError, SortedDigraph, sorted_adjacency_from_arrays
from .sssp import FbConfig, ScanStats, fb_sssp


@dataclass
class ApspConfig:
    fb: FbConfig = field(default_factory=FbConfig)
    threads: int = 1
    directed: bool = True   # used when building from a matrix


@dataclass
class ApspResult:
    dist: np.ndarray
    per_source_stats: List[ScanStats]
    preprocess_time: float
    total_time: float

    @property
    def total_scans(self) -> int:
        return sum(s.total_scans for s in self.per_source_stats)


def _graph_from_matrix(costs: np.ndarray, config: ApspConfig) -> SortedDigraph:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise GraphError("cost matrix must be square")
    n = costs.shape[0]
    off = ~np.eye(n, dtype=bool)
    u, v = np.nonzero(off)
    return sorted_adjacency_from_arrays(u, v, costs[off], n,
                                        directed=config.directed)


def apsp(graph_or_costs: Union[SortedDigraph, np.ndarray],
         config: Optional[ApspConfig] = None) -> ApspResult:
    """Shortest-path distances between all pairs, one fb_sssp run per source."""
    if config is None:
        config = ApspConfig()
    if config.threads < 1:
        raise ValueError(f"threads must be at least 1, got {config.threads}")
    t0 = time.perf_counter()
    if isinstance(graph_or_costs, SortedDigraph):
        graph = graph_or_costs
    else:
        graph = _graph_from_matrix(graph_or_costs, config)
    t1 = time.perf_counter()

    n = graph.n
    dist = np.empty((n, n))
    stats: List[Optional[ScanStats]] = [None] * n

    def run(s: int) -> None:
        tree, st = fb_sssp(graph, s, config=config.fb)
        dist[s, :] = tree.dist
        stats[s] = st

    if config.threads > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(run, range(n)))
    else:
        for s in range(n):
            run(s)

    t2 = time.perf_counter()
    return ApspResult(dist, stats, preprocess_time=t1 - t0, total_time=t2 - t0)
