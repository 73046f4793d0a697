"""Dense views of sorted graphs, for tests on small graphs, and the frozen
row-prefix build that gen_complete must match."""

import numpy as np


def cost_matrix(graph) -> np.ndarray:
    """Dense n*n cost matrix of ``graph``: the cheapest copy of each edge,
    +inf where there is none, 0 on the diagonal."""
    m = np.full((graph.n, graph.n), np.inf)
    np.fill_diagonal(m, 0.0)
    src = np.repeat(np.arange(graph.n), np.diff(graph.out_ptr))
    np.minimum.at(m, (src, graph.out_to), graph.out_w)  # applies every repeat
    return m


def reference_prefix_rows(m, k, directed):
    """(out-rows, in-rows) of the complete graph whose edge u -> v costs
    ``m[u, v]`` (the diagonal ignored): each row's first ``k`` entries by
    (cost, vertex), or the whole row where the k-th and (k+1)-th may tie,
    or every row whole if k = n - 1.  The cost-path prefix build, frozen,
    as the definition of the rows gen_complete must hold."""
    n = m.shape[0]
    rows = []
    for matrix in (m, m.T)[:2 if directed else 1]:
        ends = np.empty((n, k), dtype=np.int32)
        costs = np.empty((n, k))
        whole = {}
        for r in range(n):
            w = matrix[r].copy()
            w[r] = np.inf  # the diagonal sorts last
            if k < n - 1 and _reference_head(w, ends[r], costs[r]):
                continue
            order = np.sort(_reference_keys(w))[:-1] & _vertex_mask(n)
            if (np.diff(w[order]) <= 0).any():  # a tie, or equal kept bits
                order = np.argsort(w, kind="stable")[:-1]
            whole[r] = order.astype(np.int32), w[order]
        rows.append(_reference_rows(ends, costs, whole))
    return rows[0], rows[-1]


def _vertex_mask(n):
    """The low bits of a row key that hold the vertex, n vertices a row."""
    return np.uint64((1 << (n - 1).bit_length()) - 1)


def _reference_keys(w):
    """A cost's bits with the low (n-1).bit_length() replaced by its
    vertex: they order non-negative costs, +inf last, by (truncated cost,
    vertex)."""
    n = w.shape[0]
    vertex = np.arange(n, dtype=np.uint64)
    return (w.view(np.uint64) & ~_vertex_mask(n)) | vertex


def _reference_head(w, ends, costs):
    """Write the k smallest entries of the cost row ``w`` into ``ends`` and
    ``costs`` (of length k), sorted by (cost, vertex), and say whether they
    are its head for sure: whether the (k+1)-th key, vertex bits cleared,
    is above the k-th cost."""
    k = ends.shape[0]
    keys = _reference_keys(w)
    keys.partition(k)
    v = np.sort(keys[:k]) & _vertex_mask(w.shape[0])
    if (np.diff(w[v]) <= 0).any():
        v = np.sort(v)
        v = v[np.argsort(w[v], kind="stable")]
    ends[:], costs[:] = v, w[v]
    floor = (keys[k] & ~_vertex_mask(w.shape[0])).view(np.float64)
    return floor > costs[-1]


def _reference_rows(ends, costs, whole):
    """The CSR rows of the (n, k) heads ``ends`` and ``costs``, with the
    rows in ``whole``, {row: (ends, costs)}, held whole instead."""
    n, k = ends.shape
    complete = np.zeros(n, dtype=bool)
    complete[list(whole)] = True
    length = np.where(complete, n - 1, k)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length, out=ptr[1:])
    parts = [whole.get(r, (ends[r], costs[r])) for r in range(n)]
    return (ptr, np.concatenate([p[0] for p in parts]).astype(np.int32),
            np.concatenate([p[1] for p in parts]), complete)
