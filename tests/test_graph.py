import math

import numpy as np
import pytest

from fbsp.graph import (_BLOCK_CELLS, _STRIP, EXPONENTIAL, GraphError,
                        SortedDigraph, WeightModel, _sort_rows,
                        build_sorted_adjacency, check_invariants,
                        complete_cost_matrix, gen_complete, load, save)


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
    m = g.cost_matrix()
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


# 300 ends both a block of rows and a strip of columns short
@pytest.mark.parametrize("n", [1, 2, 3, 17, 200, 300])
@pytest.mark.parametrize("kind,shape", [("exp", None), ("uniform", None),
                                        ("weibull", 0.5)])
@pytest.mark.parametrize("directed", [True, False])
def test_generator_matches_frozen_reference(n, kind, shape, directed):
    assert 300 % max(1, _BLOCK_CELLS // 300) != 0
    assert 300 % _STRIP != 0
    model = WeightModel(kind, seed=3, shape=shape)
    assert gen_complete(n, model, directed) == \
        reference_gen_complete(n, model, directed)


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
    with pytest.raises(GraphError, match="overflows"):
        complete_cost_matrix(50, model, directed)


def test_cost_matrix_matches_generator():
    model = WeightModel(EXPONENTIAL, seed=11)
    g = gen_complete(9, model)
    m = complete_cost_matrix(9, model)
    assert np.allclose(g.cost_matrix(), m)


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
    for u in range(4):
        assert g.out_degree(u) == 0
        assert g.in_degree(u) == 0


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
    with pytest.raises(GraphError):
        build_sorted_adjacency([(0, 1, -0.5)], n=3)
    with pytest.raises(GraphError):
        build_sorted_adjacency([(1, 1, 1.0)], n=3)
    with pytest.raises(GraphError):
        build_sorted_adjacency([(0, 1, float("nan"))], n=3)


def test_save_load_round_trip(tmp_path):
    for directed in (True, False):
        g = gen_complete(50, WeightModel(EXPONENTIAL, seed=9), directed=directed)
        path = tmp_path / f"g{int(directed)}.txt"
        save(g, path)
        assert load(path) == g


def test_load_rejects_negative_cost(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 1 -1.0\n")
    with pytest.raises(GraphError):
        load(path)


def test_load_rejects_unsorted_adjacency(tmp_path):
    path = tmp_path / "unsorted.txt"
    path.write_text("3 1\n0 1 2.0\n0 2 1.0\n")
    with pytest.raises(GraphError):
        load(path)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "hdr.txt"
    path.write_text("not a header\n")
    with pytest.raises(GraphError):
        load(path)
