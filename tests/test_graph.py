import io
import math

import numpy as np
import pytest

import fbsp.graph
from fbsp.graph import (_BLOCK_CELLS, EXPONENTIAL, GraphError,
                        SortedDigraph, WeightModel, _build,
                        _prefix_length, _sort_rows,
                        build_sorted_adjacency,
                        from_cost_matrix, gen_complete, load, save)
from helpers import cost_matrix, reference_prefix_rows


def check_invariants(graph: SortedDigraph) -> None:
    """Assert the structural invariants of a graph (O(n^2))."""
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


def test_single_vertex_has_no_edges():
    g = gen_complete(1, WeightModel(EXPONENTIAL, seed=1))
    assert g.n == 1
    assert g.num_edges == 0


def test_generation_is_deterministic():
    a = gen_complete(3, WeightModel(EXPONENTIAL, seed=42))
    b = gen_complete(3, WeightModel(EXPONENTIAL, seed=42))
    assert a.num_edges == 6
    assert a == b
    c = gen_complete(3, WeightModel(EXPONENTIAL, seed=43))
    assert not np.array_equal(a.out_w, c.out_w)


def test_exponential_mean_matches_distribution():
    # law of large numbers: mean of n(n-1) Exp(1) costs is 1 +- 3 SE
    g = gen_complete(1000, WeightModel(EXPONENTIAL, seed=7))
    m = g.num_edges
    se = 1.0 / math.sqrt(m)
    assert abs(g.out_w.mean() - 1.0) < 3 * se


@pytest.mark.parametrize("kind,shape", [("exp", None), ("uniform", None),
                                        ("weibull", 0.5)])
def test_invariants_hold_for_all_models(kind, shape):
    g = gen_complete(17, WeightModel(kind, seed=3, shape=shape), directed=True)
    check_invariants(g)
    g = gen_complete(17, WeightModel(kind, seed=3, shape=shape), directed=False)
    check_invariants(g)


def test_undirected_costs_are_symmetric():
    g = gen_complete(12, WeightModel(EXPONENTIAL, seed=5), directed=False)
    m = cost_matrix(g)
    assert np.array_equal(m, m.T)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64_finalizer(z):
    """On Python ints or uint64 arrays, which wrap around silently."""
    mask = _MASK64 if isinstance(z, int) else np.uint64(_MASK64)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def reference_costs(model, idx):
    """Cost of the edges with counters ``idx`` (u*n + v, or min*n + max when
    undirected): the SplitMix64 stream keyed on the seed, the top 53 bits
    as a uniform u in [0, 1), then the model's transform of u."""
    base = _splitmix64_finalizer(model.seed & _MASK64)
    z = (idx.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN) \
        + np.uint64(base)
    u = (_splitmix64_finalizer(z) >> np.uint64(11)).astype(np.float64) \
        * 2.0 ** -53
    if model.kind == "uniform":
        return u
    if model.kind == "exp":
        return -np.log1p(-u)
    return (-np.log1p(-u)) ** model.shape


def reference_gen_complete(n, model, directed=True):
    """The row-at-a-time generator with its own counter hash and stable
    sorts, frozen as the definition of the graph gen_complete must build."""
    deg = n - 1
    ptr = np.arange(n + 1, dtype=np.int64) * deg
    out_to = np.empty(n * deg, dtype=np.int32)
    out_w = np.empty(n * deg, dtype=np.float64)
    in_from = np.empty(n * deg, dtype=np.int32)
    in_w = np.empty(n * deg, dtype=np.float64)
    all_v = np.arange(n, dtype=np.int64)
    for u in range(n):
        others = np.concatenate([all_v[:u], all_v[u + 1:]])
        if directed:
            w = reference_costs(model, u * n + others)
        else:
            w = reference_costs(model, np.minimum(others, u) * n
                                + np.maximum(others, u))
        order = np.argsort(w, kind="stable")
        lo = u * deg
        out_to[lo:lo + deg] = others[order]
        out_w[lo:lo + deg] = w[order]
        if directed:
            w = reference_costs(model, others * n + u)
        order = np.argsort(w, kind="stable")
        in_from[lo:lo + deg] = others[order]
        in_w[lo:lo + deg] = w[order]
    return SortedDigraph(n, directed, ptr, out_to, out_w, ptr.copy(),
                         in_from, in_w)


def test_reference_hash_is_splitmix64():
    # SplitMix64 seeded with 0: its first outputs, as published
    first = [_splitmix64_finalizer((k * _GOLDEN) & _MASK64)
             for k in (1, 2)]
    assert first == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


# 300 ends a block of rows short
@pytest.mark.parametrize("n", [1, 2, 3, 17, 200, 300])
@pytest.mark.parametrize("kind,shape", [("exp", None), ("uniform", None),
                                        ("weibull", 0.5)])
@pytest.mark.parametrize("directed", [True, False])
def test_generator_matches_frozen_reference(n, kind, shape, directed):
    assert 300 % max(1, _BLOCK_CELLS // 300) != 0
    model = WeightModel(kind, seed=3, shape=shape)
    assert gen_complete(n, model, directed) == \
        reference_gen_complete(n, model, directed)
    # field by field, dtypes and complete flags included
    expected = reference_prefix_rows(reference_matrix(n, model, directed),
                                     n - 1, directed)
    assert_rows_equal(gen_complete(n, model, directed).complete(), expected)


# a key keeps the low (n-1).bit_length() bits for the vertex: 11 bits up to
# n = 2048, 12 bits from n = 2049
@pytest.mark.parametrize("n", [2048, 2049, 2050])
@pytest.mark.parametrize("directed", [True, False])
def test_generator_matches_frozen_reference_around_the_key_bits(n, directed):
    model = WeightModel("exp", seed=12345)
    assert gen_complete(n, model, directed) == \
        reference_gen_complete(n, model, directed)


@pytest.mark.parametrize("directed", [True, False])
def test_generator_keeps_tied_costs_in_vertex_order(directed, monkeypatch):
    # small costs underflow to 0.0 at this shape: hundreds of finite ties
    model = WeightModel("weibull", seed=3, shape=150)
    stable_sorts = []
    argsort = np.argsort

    def counting_argsort(a, *args, **kwargs):
        stable_sorts.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    g = gen_complete(300, model, directed)
    monkeypatch.undo()
    assert "stable" in stable_sorts  # tied rows take the stable re-sort
    w = g.out_w.reshape(300, 299)
    assert np.all(np.isfinite(w))
    assert (w[:, 1:] == w[:, :-1]).sum() > 100
    assert g == reference_gen_complete(300, model, directed)


def test_sort_rows_re_sorts_costs_equal_in_the_dropped_bits():
    # costs of vertices 1..4 differ only in the 3 low bits the vertex takes
    eps = np.spacing(1.0)
    w = np.array([[np.inf, 1 + 4 * eps, 1 + 3 * eps, 1 + 2 * eps, 1 + eps]])
    ends = np.empty((1, 4), dtype=np.int32)
    costs = np.empty((1, 4))
    _sort_rows(w, np.empty(w.shape, dtype=np.uint64), ends, costs)
    assert ends.tolist() == [[4, 3, 2, 1]]
    assert costs.tolist() == [[1 + eps, 1 + 2 * eps, 1 + 3 * eps, 1 + 4 * eps]]


@pytest.mark.parametrize("directed", [True, False])
def test_infinite_costs_are_rejected(directed):
    # Exp(1)**400 overflows float64 for costs above about 5.9
    model = WeightModel("weibull", seed=1, shape=400.0)
    with pytest.raises(GraphError, match="overflows"):
        gen_complete(50, model, directed)


def test_cost_matrix_keeps_the_cheapest_parallel_edge():
    g = build_sorted_adjacency(
        [(0, 1, 1.0), (0, 1, 5.0), (1, 2, 1.0), (0, 2, 3.0), (2, 0, 4.0),
         (2, 0, 2.0)], 3)
    assert cost_matrix(g).tolist() == [[0.0, 1.0, 3.0],
                                      [math.inf, 0.0, 1.0],
                                      [2.0, math.inf, 0.0]]


def adversarial_matrix(n, seed):
    """Costs drawn half from Exp(1) and half from ties: zeros of both signs,
    the smallest subnormal, a huge cost, and costs one to four ulps above
    1.0, which differ only in the low bits a row sort's key gives its
    vertex; NaN on the diagonal."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 5e-324, 1e300, 1.0]
                    + [1.0 + k * np.spacing(1.0) for k in range(1, 5)])
    m = np.where(rng.random((n, n)) < 0.5, rng.choice(pool, (n, n)),
                 rng.exponential(size=(n, n)))
    np.fill_diagonal(m, np.nan)
    return m


# a row key holds the vertex in its low (n-1).bit_length() bits: 6 at n = 63
# and 64, 7 from n = 65 and 8 from n = 129; 300 ends a block of rows short
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 129, 300])
def test_matrix_graph_matches_edge_list_build(n):
    weibull = cost_matrix(gen_complete(n, WeightModel("weibull", seed=3,
                                                      shape=150)))
    np.fill_diagonal(weibull, np.nan)
    assert n < 63 or (weibull == 0.0).sum() > 1  # underflowed ties
    m = adversarial_matrix(n, seed=n)
    for costs in (m, m.T, weibull):
        u, v = np.nonzero(~np.eye(n, dtype=bool))
        edges = zip(u.tolist(), v.tolist(), costs[u, v].tolist())
        assert from_cost_matrix(costs) == build_sorted_adjacency(edges, n)
    for costs in (m + 0.0, m.T + 0.0):  # field by field, no -0.0
        assert_rows_equal(from_cost_matrix(costs),
                          reference_prefix_rows(costs, n - 1, True))


def test_uniform_costs_in_unit_interval():
    g = gen_complete(40, WeightModel("uniform", seed=2))
    assert g.out_w.min() >= 0.0
    assert g.out_w.max() < 1.0


def test_bad_parameters_rejected():
    with pytest.raises(GraphError):
        gen_complete(0, WeightModel(EXPONENTIAL, seed=0))
    with pytest.raises(GraphError):
        WeightModel("weibull", seed=0, shape=0.0)
    with pytest.raises(GraphError):
        WeightModel("weibull", seed=0, shape=-1.0)
    with pytest.raises(GraphError):
        WeightModel("nope", seed=0)
    with pytest.raises(GraphError):
        gen_complete(4, WeightModel("explicit", seed=0))


def test_build_two_edge_example():
    g = build_sorted_adjacency([(0, 1, 2.0), (0, 2, 1.0)], n=3)
    to, w = g.out_edges(0)
    assert to.tolist() == [2, 1]
    assert w.tolist() == [1.0, 2.0]


def test_build_empty_edge_list():
    g = build_sorted_adjacency([], n=4)
    assert g.num_edges == 0
    assert np.diff(g.out_ptr).tolist() == [0, 0, 0, 0]
    assert np.diff(g.in_ptr).tolist() == [0, 0, 0, 0]


def test_build_matches_comparison_sort_reference():
    rng = np.random.default_rng(0)
    n = 60
    m = 10_000
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.exponential(size=u.shape[0])
    edges = list(zip(u.tolist(), v.tolist(), w.tolist()))

    got = build_sorted_adjacency(edges, n)
    check_invariants(got)
    for x in range(n):
        to, cw = got.out_edges(x)
        assert list(zip(cw.tolist(), to.tolist())) == sorted(
            (c, b) for a, b, c in edges if a == x)
        frm, cw = got.in_edges(x)
        assert list(zip(cw.tolist(), frm.tolist())) == sorted(
            (c, a) for a, b, c in edges if b == x)


def test_build_tie_break_by_index():
    edges = [(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0), (2, 0, 1.0), (1, 0, 1.0)]
    g = build_sorted_adjacency(edges, n=4)
    to, _ = g.out_edges(0)
    assert to.tolist() == [1, 2, 3]
    frm, _ = g.in_edges(0)
    assert frm.tolist() == [1, 2]


def test_build_rejects_bad_edges():
    with pytest.raises(GraphError):
        build_sorted_adjacency([(0, 5, 1.0)], n=3)
    for edge in ((0.5, 1, 1.0), (0, 1.0, 1.0), ("0", 1, 1.0)):
        with pytest.raises(GraphError, match="endpoints must be integers"):
            build_sorted_adjacency([edge], n=3)
    with pytest.raises(GraphError):
        build_sorted_adjacency([(0, 1, -0.5)], n=3)
    with pytest.raises(GraphError):
        build_sorted_adjacency([(1, 1, 1.0)], n=3)
    with pytest.raises(GraphError):
        build_sorted_adjacency([(0, 1, float("nan"))], n=3)


def test_save_load_round_trip(tmp_path):
    for directed in (True, False):
        g = gen_complete(50, WeightModel(EXPONENTIAL, seed=9), directed=directed)
        path = tmp_path / f"g{int(directed)}.npz"
        save(g, path)
        assert load(path) == g


# one orientation of an edge, and a repeated edge of a multigraph
@pytest.mark.parametrize("edges", [[(1, 0, 1.0)],
                                   [(0, 1, 1.0), (2, 0, 0.5), (1, 0, 1.0)]])
def test_undirected_edge_list_round_trip(edges, tmp_path):
    g = build_sorted_adjacency(edges, 3, directed=False)
    assert g.num_edges == 2 * len(edges)
    path = tmp_path / "g.npz"
    save(g, path)
    assert load(path) == g


def test_undirected_graph_stores_one_adjacency(tmp_path):
    edges = [(0, 1, 2.0), (2, 1, 1.0), (0, 2, 1.0)]
    for directed in (True, False):
        complete = gen_complete(20, WeightModel(EXPONENTIAL, seed=2), directed)
        path = tmp_path / f"g{int(directed)}.npz"
        save(complete, path)
        for g in (complete, build_sorted_adjacency(edges, 3, directed),
                  load(path)):
            check_invariants(g)
            assert np.shares_memory(g.out_w, g.in_w) == (not directed)
            assert np.shares_memory(g.out_to, g.in_from) == (not directed)


def saved_arrays(graph):
    """The arrays that :func:`save` writes for ``graph``, by name."""
    buf = io.BytesIO()
    save(graph, buf)
    buf.seek(0)
    with np.load(buf) as archive:
        return {k: archive[k] for k in archive.files}


# 0 -> 1 and 0 -> 2 in row 0, then 1 -> 2 and 2 -> 0
_DIRECTED = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5), (2, 0, 3.0)]


def load_changed(tmp_path, changes, edges=_DIRECTED, directed=True):
    """load() of the file of build_sorted_adjacency(edges, 3, directed) with
    the arrays in ``changes`` replaced; an array replaced by None is left
    out."""
    arrays = saved_arrays(build_sorted_adjacency(edges, 3, directed))
    arrays.update(changes)
    path = tmp_path / "g.npz"
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return load(path)


def test_load_rejects_negative_cost(tmp_path):
    for cost in (-1.0, float("nan"), float("inf")):
        for i in (0, 1):
            w = np.array([1.0, 2.0, 0.5, 3.0])
            w[i] = cost
            with pytest.raises(GraphError,
                               match="edge costs must be finite and non-"):
                load_changed(tmp_path, {"w": w})


def test_load_rejects_unsorted_adjacency(tmp_path):
    with pytest.raises(GraphError, match="row 0 of the graph file"):
        load_changed(tmp_path, {"to": np.array([2, 1, 2, 0], np.int32),
                                "w": np.array([2.0, 1.0, 0.5, 3.0])})
    # a tie out of vertex order
    with pytest.raises(GraphError, match="row 0 of the graph file"):
        load_changed(tmp_path, {"to": np.array([2, 1, 2, 0], np.int32),
                                "w": np.array([1.0, 1.0, 0.5, 3.0])})


def test_load_rejects_malformed_header(tmp_path):
    for changes in ({"n": np.int64(0)}, {"n": np.int64(-1)},
                    {"n": np.int64(4)}, {"n": np.float64(3.0)},
                    {"n": np.array([3])}, {"directed": np.int64(1)},
                    {"directed": np.array("yes")},
                    {"directed": np.array([True])}, {"w": None}, {"n": None},
                    {"extra": np.zeros(2)}):
        with pytest.raises(GraphError):
            load_changed(tmp_path, changes)


def test_load_rejects_a_bad_ptr(tmp_path):
    for ptr in ([0, 2, 1, 4], [0, 2, 3], [0, 2, 3, 4, 4], [1, 2, 3, 4],
                [0, 2, 3, 3], [0, 2, 3, 5], [0.0, 2.0, 3.0, 4.0]):
        with pytest.raises(GraphError, match="malformed graph file"):
            load_changed(tmp_path, {"ptr": np.array(ptr)})


def test_load_rejects_bad_endpoints(tmp_path):
    for to, message in (([1, 3, 2, 0], "out of range"),
                        ([-1, 2, 2, 0], "out of range"),
                        ([0, 2, 2, 0], "self-loops"),
                        ([1.0, 2.0, 2.0, 0.0], "integer"),
                        (["1", "2", "2", "0"], "integer")):
        with pytest.raises(GraphError, match=message):
            load_changed(tmp_path, {"to": np.array(to)})


def test_load_rejects_an_asymmetric_undirected_file(tmp_path):
    # rows 0: 1; 1: 0, 2; 2: 1, each at the cost of its pair
    edges = [(0, 1, 1.0), (1, 2, 2.0)]
    for changes, row in (({"w": np.array([1.0, 1.0, 2.0, 5.0])}, 2),
                         ({"w": np.array([1.0, 1.5, 2.0, 2.0])}, 1),
                         ({"ptr": np.array([0, 1, 3, 3]),
                           "to": np.array([1, 0, 2], np.int32),
                           "w": np.array([1.0, 1.0, 2.0])}, 2),
                         ({"to": np.array([1, 0, 2, 2], np.int32)}, 2)):
        with pytest.raises(GraphError, match=f"row {row} of the graph file"):
            load_changed(tmp_path, changes, edges, directed=False)


def test_load_rejects_files_that_are_no_graph_archive(tmp_path):
    path = tmp_path / "g.npz"
    buf = io.BytesIO()
    save(build_sorted_adjacency(_DIRECTED, 3), buf)
    archive = buf.getvalue()
    np.save(tmp_path / "a.npy", np.arange(3))
    for data in (b"3 1\n0 1 2.0\n0 2 1.0\n",  # the old text format
                 archive[:len(archive) // 2], archive[:-1], b"",
                 (tmp_path / "a.npy").read_bytes()):
        path.write_bytes(data)
        with pytest.raises(GraphError, match="not a graph file"):
            load(path)


@pytest.mark.parametrize("n", [1, 2, 17, 200])
def test_save_load_round_trip_at_every_size(n, tmp_path):
    path = tmp_path / "g.npz"
    for directed in (True, False):
        g = gen_complete(n, WeightModel(EXPONENTIAL, seed=n), directed)
        buf = io.BytesIO()
        save(g, buf)
        path.write_bytes(buf.getvalue())
        assert load(path) == g
    # a directed multigraph with isolated vertices, saved to a path that
    # np.savez would give an ".npz" suffix
    g = build_sorted_adjacency([(0, 1, 1.0), (0, 1, 1.0), (3, 0, 0.0)], n + 4)
    path = tmp_path / "g.txt"
    save(g, path)
    assert load(path) == g


# gen_complete holds the first K = min(n - 1, ceil(8 ln n)) entries of an
# exp, uniform or weibull(3) row: K = n - 1 up to n = 28, and K < n - 1
# from n = 29; a weibull(0.5) row holds 8 (ln n)^2 entries, one of shape
# 0.05 all of them
@pytest.mark.parametrize("n", [1, 2, 17, 28, 29, 200, 2000])
@pytest.mark.parametrize("kind,shape", [("exp", None), ("uniform", None),
                                        ("weibull", 0.05), ("weibull", 0.5),
                                        ("weibull", 3.0), ("weibull", 150.0)])
@pytest.mark.parametrize("directed", [True, False])
def test_prefix_rows_are_the_heads_of_the_dense_rows(n, kind, shape,
                                                     directed):
    model = WeightModel(kind, seed=n, shape=shape)
    g = gen_complete(n, model, directed)
    k = _prefix_length(n, model)
    p = 2 if shape == 0.5 else 20 if shape == 0.05 else 1
    assert k == min(n - 1, math.ceil(8 * math.log(max(n, 2)) ** p))
    assert g.completed == (k == n - 1)
    prefixes = [g.rows(True), g.rows(False)]
    assert g.num_edges == n * (n - 1)
    dense = gen_complete(n, model, directed).complete()
    assert dense == g  # completes g
    assert dense.completed and g.completed
    for rows, outgoing in zip(prefixes, (True, False)):
        assert_heads(rows, dense.rows(outgoing), k)
        for a, b in zip(g.rows(outgoing)[:3], dense.rows(outgoing)[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_heads(rows, dense, k):
    """Each row of ``rows`` is the head of the same row of the complete
    ``dense``: all of it where marked complete, else its first k entries."""
    n = rows.complete.shape[0]
    length = np.diff(rows.ptr)
    full = np.diff(dense.ptr)
    assert np.array_equal(length, np.where(rows.complete, full, k))
    row = np.repeat(np.arange(n), length)
    pos = np.arange(length.sum()) - np.repeat(rows.ptr[:-1], length)
    at = dense.ptr[row] + pos
    assert np.array_equal(rows.ends, dense.ends[at])
    assert np.array_equal(rows.costs, dense.costs[at])


@pytest.mark.parametrize("n,k", [(n, k) for n in (3, 17, 65, 129)
                                 for k in (1, 2, 5) if k < n - 1])
@pytest.mark.parametrize("directed", [True, False])
def test_prefix_build_cuts_ties_and_near_ties_like_the_dense_build(
        n, k, directed):
    # half the costs come from a pool of ties and of costs a few ulps apart,
    # which a row's keys do not tell apart: a row whose k-th and (k+1)-th
    # entries may tie is held whole
    m = adversarial_matrix(n, seed=n + k)
    if not directed:
        m = np.minimum(m, m.T)

    def fill(r0, r1, out, columns=False):
        cells = m[:, r0:r1].T if columns and directed else m[r0:r1]
        np.add(cells, 0.0, out=out.reshape(r1 - r0, n))  # no -0.0

    g = _build(n, directed, fill, k)
    dense = _build(n, directed, fill, n - 1)
    for outgoing in (True, False):
        assert_heads(g.rows(outgoing), dense.rows(outgoing), k)
    assert n < 65 or g.rows().complete.any()


@pytest.mark.parametrize("directed", [True, False])
def test_a_graph_that_could_never_fit_is_refused_before_it_is_hashed(
        directed, monkeypatch):
    def no_hash(*args):
        raise AssertionError("a cost was hashed")

    # n = 10^6 holds at least 1.3 GB of row heads; a completion at n = 2000
    # holds 48 MB a direction
    monkeypatch.setattr(fbsp.graph, "_physical_memory", lambda: 2 ** 30)
    monkeypatch.setattr(fbsp.graph, "_hash", no_hash)
    with pytest.raises(GraphError, match="memory"):
        gen_complete(10 ** 6, WeightModel(EXPONENTIAL, seed=1), directed)
    monkeypatch.undo()
    g = gen_complete(2000, WeightModel(EXPONENTIAL, seed=1), directed)
    monkeypatch.setattr(fbsp.graph, "_physical_memory", lambda: 2 ** 25)
    monkeypatch.setattr(fbsp.graph, "_hash", no_hash)
    with pytest.raises(GraphError, match="memory"):
        g.complete()
    monkeypatch.undo()
    assert not g.completed
    assert g.complete().rows().complete.all()  # the next completion builds


def test_a_graph_completes_once_and_drops_its_prefixes():
    g = gen_complete(100, WeightModel(EXPONENTIAL, seed=4))
    prefix = g.rows()
    assert not g.completed and not prefix.complete.any()
    assert g.complete() is g and g.completed
    rows = g.rows()
    assert rows is not prefix and rows.complete.all()
    assert g.complete().rows() is rows


@pytest.mark.parametrize("directed", [True, False])
def test_a_cost_that_overflows_only_on_the_diagonal_is_no_edge(directed):
    # with this seed only diagonal cells overflow at this shape
    model = WeightModel("weibull", seed=840, shape=300.0)
    with np.errstate(over="ignore"):
        diagonal = reference_costs(model, np.arange(0, 40 * 40, 41))
    assert np.isinf(diagonal).any()
    g = gen_complete(40, model, directed)
    assert not g.completed
    assert g == reference_gen_complete(40, model, directed)


def test_one_overflowing_cost_past_every_prefix_is_rejected():
    # one cost overflows, the largest of its row and of its column, so it
    # lies in no prefix; the graph is rejected all the same
    model = WeightModel("weibull", seed=12, shape=300.0)
    with np.errstate(over="ignore"):
        costs = reference_costs(model, np.arange(40 * 40)).reshape(40, 40)
    np.fill_diagonal(costs, 0.0)
    assert np.isinf(costs).sum() == 1
    with pytest.raises(GraphError, match="overflows"):
        gen_complete(40, model)


def test_one_overflowing_pair_cost_past_every_prefix_is_rejected():
    # the undirected twin: one pair cost overflows, the largest of both of
    # its rows, so it lies in no prefix
    model = WeightModel("weibull", seed=12, shape=300.0)
    u, v = np.triu_indices(40, 1)
    with np.errstate(over="ignore"):
        costs = reference_costs(model, u * 40 + v)
    assert np.isinf(costs).sum() == 1
    with pytest.raises(GraphError, match="overflows"):
        gen_complete(40, model, directed=False)


def reference_matrix(n, model, directed):
    """The n*n cost matrix of the frozen reference costs, diagonal
    included."""
    u, v = np.divmod(np.arange(n * n), n)
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    return reference_costs(model, u * n + v).reshape(n, n)


def assert_rows_equal(graph, rows):
    """``graph``'s (out-rows, in-rows) equal ``rows`` field by field, dtypes
    included."""
    for outgoing, expected in zip((True, False), rows):
        for a, b in zip(graph.rows(outgoing), expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


PREFIX_MODELS = [("exp", None), ("uniform", None), ("weibull", 3.0),
                 ("weibull", 0.5), ("weibull", 150.0)]


# K = 1 on every model; K = 1, 2 and 3 at n = 17, 300 and 2049 (3, 10 and
# 18 for weibull(0.5)); and the default K, n - 1 at n = 17, 46 and 62 at
# n = 300 and 2049 (261 and 466 for weibull(0.5)); 2049 is past the 11 key
# bits below the uniform
@pytest.mark.parametrize("logs", [1e-300, 0.3, 8.0])
@pytest.mark.parametrize("n", [17, 300, 2049])
@pytest.mark.parametrize("kind,shape", PREFIX_MODELS)
@pytest.mark.parametrize("directed", [True, False])
def test_prefix_rows_match_the_frozen_cost_path(logs, n, kind, shape,
                                                directed, monkeypatch):
    monkeypatch.setattr(fbsp.graph, "_PREFIX_LOGS", logs)
    model = WeightModel(kind, seed=n + 5, shape=shape)
    k = _prefix_length(n, model)
    expected = reference_prefix_rows(reference_matrix(n, model, directed), k,
                                     directed)
    assert_rows_equal(gen_complete(n, model, directed), expected)


# a row the candidates do not give is hashed alone and sorted from its costs:
# most rows have at most K candidates when a row takes in about K/2 of them,
# most have more than their table holds when it holds 3 standard deviations
# below their mean, and at K = 1 the two smallest costs of many weibull(150)
# rows tie at 0.0, which fails the cut rule and holds the row whole
@pytest.mark.parametrize("candidates,spread,logs,kind,shape", [
    (0.5, 5.0, 8.0, "exp", None), (1.5, -3.0, 8.0, "uniform", None),
    (20.0, 5.0, 1e-300, "weibull", 150.0)])
@pytest.mark.parametrize("directed", [True, False])
def test_rows_the_candidates_do_not_give_are_sorted_from_their_costs(
        candidates, spread, logs, kind, shape, directed, monkeypatch):
    alone = []
    block_costs = fbsp.graph._block_costs

    def counting_block_costs(n, r0, r1, *args, **kwargs):
        alone.append(r1 - r0)
        return block_costs(n, r0, r1, *args, **kwargs)

    monkeypatch.setattr(fbsp.graph, "_block_costs", counting_block_costs)
    monkeypatch.setattr(fbsp.graph, "_CANDIDATES", candidates)
    monkeypatch.setattr(fbsp.graph, "_SPREAD", spread)
    monkeypatch.setattr(fbsp.graph, "_PREFIX_LOGS", logs)
    model = WeightModel(kind, seed=3, shape=shape)
    g = gen_complete(300, model, directed)
    assert len(alone) > 10 and set(alone) == {1}
    assert g.rows().complete.any() == (kind == "weibull")
    expected = reference_prefix_rows(reference_matrix(300, model, directed),
                                     _prefix_length(300, model), directed)
    assert_rows_equal(g, expected)


def test_a_directed_build_transforms_only_the_heads(monkeypatch):
    # the heads and the (K+1)-th floor of each row, and the few rows hashed
    # alone: about 2 n K cells, not the 2 n^2 of every out-row and in-row
    seen = []
    log1p = np.log1p

    def counting_log1p(x, *args, **kwargs):
        seen.append(np.size(x))
        return log1p(x, *args, **kwargs)

    monkeypatch.setattr(np, "log1p", counting_log1p)
    n = 2000
    model = WeightModel(EXPONENTIAL, seed=1)
    g = gen_complete(n, model)
    monkeypatch.undo()
    assert not g.completed
    assert 0 < sum(seen) <= 4 * n * _prefix_length(n, model)
