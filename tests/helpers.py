"""Dense views of sorted graphs, for tests on small graphs."""

import numpy as np


def cost_matrix(graph) -> np.ndarray:
    """Dense n*n cost matrix of ``graph``: the cheapest copy of each edge,
    +inf where there is none, 0 on the diagonal."""
    m = np.full((graph.n, graph.n), np.inf)
    np.fill_diagonal(m, 0.0)
    src = np.repeat(np.arange(graph.n), np.diff(graph.out_ptr))
    np.minimum.at(m, (src, graph.out_to), graph.out_w)  # applies every repeat
    return m
