import numpy as np
import pytest

from fbsp.apsp import apsp
from fbsp.graph import EXPONENTIAL, GraphError, WeightModel, gen_complete
from fbsp.sssp import dijkstra
from helpers import cost_matrix


def test_rows_match_dijkstra():
    g = gen_complete(30, WeightModel(EXPONENTIAL, seed=1))
    result = apsp(g)
    for s in range(30):
        np.testing.assert_allclose(result.dist[s], dijkstra(g, s).dist,
                                   rtol=1e-9)
    assert np.all(np.diag(result.dist) == 0.0)
    assert len(result.per_source_stats) == 30


def test_single_vertex():
    g = gen_complete(1, WeightModel(EXPONENTIAL, seed=0))
    result = apsp(g)
    assert result.dist.shape == (1, 1)
    assert result.dist[0, 0] == 0.0


def test_from_raw_cost_matrix():
    g = gen_complete(25, WeightModel(EXPONENTIAL, seed=4))
    result = apsp(cost_matrix(g))
    for s in range(25):
        np.testing.assert_allclose(result.dist[s], dijkstra(g, s).dist,
                                   rtol=1e-9)
    assert result.preprocess_time >= 0


def test_symmetric_input_gives_symmetric_matrix():
    g = gen_complete(24, WeightModel(EXPONENTIAL, seed=6), directed=False)
    result = apsp(g)
    np.testing.assert_allclose(result.dist, result.dist.T, rtol=1e-9)


def test_rejects_bad_matrices():
    for shape in ((2, 3), (3,)):
        with pytest.raises(GraphError, match="^cost matrix must be square$"):
            apsp(np.zeros(shape))
    with pytest.raises(GraphError, match="^graph must have at least one "
                                         "vertex$"):
        apsp(np.zeros((0, 0)))
    for cost in (-1.0, np.inf, np.nan, -np.inf):
        bad = np.ones((3, 3))
        bad[0, 1] = cost
        with pytest.raises(GraphError, match="^edge costs must be finite and "
                                             "non-negative$"):
            apsp(bad)


def test_matrix_diagonal_is_ignored():
    costs = np.array([[np.nan, 1.0, 4.0],
                      [-0.0, -5.0, 2.0],
                      [0.5, 0.0, np.inf]])
    result = apsp(costs)
    assert result.dist.tolist() == [[0.0, 1.0, 3.0],
                                    [0.0, 0.0, 2.0],
                                    [0.0, 0.0, 0.0]]


def test_total_scans_counted():
    g = gen_complete(40, WeightModel(EXPONENTIAL, seed=2))
    result = apsp(g)
    assert result.total_scans == sum(s.forward_scans + s.backward_scans
                                     for s in result.per_source_stats)
    assert result.total_scans > 0
