"""Output checks that do not rely on the program under test.

Distances are compared with SciPy's Dijkstra, run on the graph's own CSR
arrays or on the cost matrix.  Trees are checked edge by edge against the
same arrays.  The program's verifiers are not used here: they rebuild
distances from ``parent`` and never read ``tree.dist``.

Every check returns a list of problems; an empty list means the output is
right.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# Both sides add the same edge costs along the same paths, so they agree
# exactly today; the slack matches the verifiers' own rounding allowance.
REL_TOL = 1e-12
_SHOWN = 3


def _close(a, b) -> np.ndarray:
    """Elementwise agreement; inf must meet inf, and NaN never agrees."""
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))
    return both_inf | near


def graph_csr(graph) -> csr_matrix:
    """The out-adjacency of a graph as a CSR matrix sharing its arrays."""
    return csr_matrix((graph.out_w, graph.out_to, graph.out_ptr),
                      shape=(graph.n, graph.n))


def matrix_csr(costs: np.ndarray) -> csr_matrix:
    """Off-diagonal entries of a cost matrix as explicit CSR edges, so that a
    zero cost stays an edge instead of vanishing like in a dense input."""
    n = costs.shape[0]
    u, v = np.nonzero(~np.eye(n, dtype=bool))
    return csr_matrix((costs[u, v], (u, v)), shape=(n, n))


def distance_errors(ref: np.ndarray, dist, what: str = "dist") -> list:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != ref.shape:
        return [f"{what} has shape {dist.shape}, expected {ref.shape}"]
    bad = np.argwhere(~_close(dist, ref))
    errors = [f"{what}{tuple(i)} = {dist[tuple(i)]!r}, SciPy gives "
              f"{ref[tuple(i)]!r}" for i in bad[:_SHOWN]]
    if bad.shape[0] > _SHOWN:
        errors.append(f"{what}: {bad.shape[0]} entries differ in all")
    return errors


def sssp_errors(csr: csr_matrix, source: int, parent, dist) -> list:
    """Check one single-source result: ``dist`` against SciPy, then every
    tree edge ``(parent[v], v)`` exists and ``dist[v] = dist[parent[v]] + c``.

    With non-negative costs, correct distances plus consistent tree edges
    make ``parent`` a shortest-path tree.
    """
    n = csr.shape[0]
    ref = dijkstra(csr, directed=True, indices=source)
    errors = distance_errors(ref, dist)
    if errors:
        return errors
    dist = np.asarray(dist, dtype=np.float64)
    parent = np.asarray(parent)
    if parent.shape != (n,):
        return [f"parent has shape {parent.shape}, expected ({n},)"]
    if parent[source] != -1:
        errors.append(f"source {source} has parent {parent[source]}")
    orphans = np.flatnonzero((parent < 0) & np.isfinite(dist))
    for v in orphans[orphans != source][:_SHOWN].tolist():
        errors.append(f"reachable vertex {v} has no parent")
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for v in np.flatnonzero(parent >= 0).tolist():
        if len(errors) >= _SHOWN:
            break
        p = int(parent[v])
        if p >= n or p == v:
            errors.append(f"parent of {v} is {p}")
            continue
        lo, hi = indptr[p], indptr[p + 1]
        hits = np.flatnonzero(indices[lo:hi] == v)
        if not hits.size:
            errors.append(f"tree edge ({p}, {v}) is not in the graph")
            continue
        through = dist[p] + data[lo:hi][hits].min()
        if not _close(np.array([dist[v]]), np.array([through]))[0]:
            errors.append(f"dist[{v}] = {dist[v]!r} but the tree edge from "
                          f"{p} gives {through!r}")
    return errors


def apsp_errors(costs: np.ndarray, dist) -> list:
    return distance_errors(dijkstra(matrix_csr(costs), directed=True), dist)


def reparent(graph, parent, dist, rng: np.random.Generator) -> np.ndarray:
    """A wrong tree made from a right one: a vertex in the farther half of the
    tree gets a closer vertex as its parent, through an edge that makes its
    path strictly longer.  The old parent edge then violates the new tree,
    so every verifier must reject it.
    """
    dist = np.asarray(dist, dtype=np.float64)
    far = np.argsort(dist, kind="stable")[(graph.n + 1) // 2:]
    for v in rng.permutation(far).tolist():
        lo, hi = graph.in_ptr[v], graph.in_ptr[v + 1]
        frm, w = graph.in_from[lo:hi], graph.in_w[lo:hi]
        longer = dist[frm] + w
        # a margin well beyond the verifiers' 1e-12 slack
        ok = ((dist[frm] < dist[v]) & (frm != parent[v])
              & (longer > dist[v] * (1 + 1e-9) + 1e-9))
        if ok.any():
            bad = np.array(parent, copy=True)
            bad[v] = frm[rng.choice(np.flatnonzero(ok))]
            return bad
    raise ValueError("no vertex can be re-parented")
