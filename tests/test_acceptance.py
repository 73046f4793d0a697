"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every experiment is fully seeded, so the measured statistics -- and hence
the verdicts -- are identical on every run.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fbsp.apsp import apsp
from fbsp.cli import seed_derivation
from fbsp.graph import (EXPONENTIAL, UNIFORM, WEIBULL, WeightModel,
                        build_sorted_adjacency, gen_complete)
from fbsp.oracle import (classify_pertinence, harmonic_expected_distance,
                         pertinence_rates, sample_spt, tail_fraction)
from fbsp.pq import BinaryHeapQueue, BucketQueue, bucket_defaults, replay
from fbsp.sssp import dijkstra, fb_sssp, replay_trace, spira
from fbsp.verify import verify_fb, verify_forward_only, verify_full
from helpers import cost_matrix

LN2 = math.log(2)
MASTER = 0


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def exp_graph(n, trial, directed=True):
    seed = seed_derivation(MASTER, trial)
    return gen_complete(n, WeightModel(EXPONENTIAL, seed=seed),
                        directed=directed)


def test_01_oracle_equivalence():
    t0 = time.perf_counter()
    with criterion(1, "oracle equivalence (fb, spira vs dijkstra)"):
        sizes = [2 + (t * 37) % 127 for t in range(200)]  # covers 2..128
        for t, n in enumerate(sizes):
            g = exp_graph(n, t)
            ref = dijkstra(g, 0).dist
            np.testing.assert_allclose(fb_sssp(g, 0)[0].dist, ref, rtol=1e-9)
            np.testing.assert_allclose(spira(g, 0)[0].dist, ref, rtol=1e-9)
        for t in range(20):
            g = exp_graph(1000, 1000 + t)
            ref = dijkstra(g, 0).dist
            np.testing.assert_allclose(fb_sssp(g, 0)[0].dist, ref, rtol=1e-9)
            np.testing.assert_allclose(spira(g, 0)[0].dist, ref, rtol=1e-9)
        elapsed = time.perf_counter() - t0
        print(f"  220 graphs in {elapsed:.1f}s", end="")
        assert elapsed < 60.0


def _lowered_edge_instance(n, seed):
    g = gen_complete(n, WeightModel(EXPONENTIAL, seed=seed))
    tree = dijkstra(g, 0)
    rng = np.random.default_rng((seed, 17))
    d = tree.dist
    while True:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and tree.parent[v] != u and d[v] > d[u]:
            break
    src = np.repeat(np.arange(n), np.diff(g.out_ptr))
    new_cost = float((d[v] - d[u]) * rng.uniform(0.05, 0.9))
    edges = [(a, b, new_cost if (a, b) == (u, v) else c)
             for a, b, c in zip(src.tolist(), g.out_to.tolist(),
                                g.out_w.tolist())]
    return build_sorted_adjacency(edges, n), tree


def test_02_verification_equivalence():
    with criterion(2, "verifier agreement over 500 instances"):
        agreements = 0
        for t in range(500):
            n = 24 + (t * 13) % 120
            seed = seed_derivation(MASTER, 5000 + t)
            if t % 2 == 0:
                g = gen_complete(n, WeightModel(EXPONENTIAL, seed=seed))
                tree = dijkstra(g, 0)
                expect = True
            else:
                g, tree = _lowered_edge_instance(n, seed)
                expect = False
            full = verify_full(g, tree).accepted
            fwd = verify_forward_only(g, tree).accepted
            fb = verify_fb(g, tree).accepted
            assert full == fwd == fb == expect, f"instance {t} disagreement"
            agreements += 1
        assert agreements == 500


@pytest.fixture(scope="module")
def pertinence_batches():
    batches = {}
    for directed in (True, False):
        rows = []
        for t in range(50):
            g = exp_graph(2000, 2000 + t, directed=directed)
            rows.append(classify_pertinence(g, dijkstra(g, 0)))
        batches[directed] = rows
    return batches


def test_03_pertinent_edge_constants(pertinence_batches):
    with criterion(3, "pertinent-edge constants at n=2000"):
        n = 2000.0
        d = pertinence_batches[True]
        out_non = np.mean([c.out_non_spt for c in d]) / n
        in_non = np.mean([c.in_non_spt for c in d]) / n
        in_spt = np.mean([c.in_spt for c in d]) / n
        print(f"  directed: out_non/n={out_non:.4f} in_non/n={in_non:.4f} "
              f"in_spt/n={in_spt:.4f}", end="")
        assert 0.624 <= out_non <= 0.762       # ln 2 +- 10%
        assert 0.624 <= in_non <= 0.762
        assert 0.276 <= in_spt <= 0.338        # 1 - ln 2 +- 10%
        u = pertinence_batches[False]
        out_non_u = np.mean([c.out_non_spt for c in u]) / n
        in_non_u = np.mean([c.in_non_spt for c in u]) / n
        print(f"  undirected: out_non/n={out_non_u:.4f} "
              f"in_non/n={in_non_u:.4f}", end="")
        assert 0.45 <= out_non_u <= 0.55
        assert 0.45 <= in_non_u <= 0.55


def test_04_crude_mean_bound(pertinence_batches):
    with criterion(4, "mean pertinent edges below 3.7726n + 1"):
        for directed, rows in pertinence_batches.items():
            mean_total = np.mean([c.total for c in rows])
            print(f"  {'directed' if directed else 'undirected'}: "
                  f"mean |E_per| = {mean_total:.0f}", end="")
            assert mean_total < 3.7726 * 2000 + 1


def test_05_tail_bound():
    with criterion(5, "zero tail events at 10n over 1000 trials (n=500)"):
        frac = tail_fraction(500, 10.0, trials=1000, seed=MASTER)
        assert frac == 0.0


def test_06_linear_scan_scaling():
    with criterion(6, "fb scans/n flat from n=1000 to n=8000"):
        means = {}
        for n in (1000, 8000):
            vals = []
            for t in range(20):
                g = exp_graph(n, 8000 + t)
                _, st = fb_sssp(g, 0)
                vals.append(st.total_scans / n)
                del g
            means[n] = float(np.mean(vals))
        growth = means[8000] / means[1000]
        print(f"  scans/n: {means[1000]:.3f} -> {means[8000]:.3f} "
              f"(x{growth:.3f})", end="")
        assert growth < 1.25


def test_07_nlogn_baselines():
    with criterion(7, "spira and forward-only verifier at (1+o(1)) n ln n"):
        n = 4096
        nlogn = n * math.log(n)
        spira_ratios = []
        verify_ratios = []
        for t in range(20):
            g = exp_graph(n, t)
            _, st = spira(g, 0)
            spira_ratios.append(st.forward_scans / nlogn)
            tree = dijkstra(g, 0)
            verify_ratios.append(
                verify_forward_only(g, tree).edges_examined / nlogn)
            del g
        sp = float(np.mean(spira_ratios))
        vf = float(np.mean(verify_ratios))
        print(f"  spira {sp:.4f}, forward-only verify {vf:.4f} "
              f"(of n ln n)", end="")
        assert 0.85 <= sp <= 1.25
        assert 0.85 <= vf <= 1.25


def test_08_harmonic_distance_formula():
    with criterion(8, "sampler means match the harmonic distance formula"):
        n, trials = 100, 10_000
        ranks = (2, 50, 100)
        draws = np.empty((trials, len(ranks)))
        for t in range(trials):
            s = sample_spt(n, seed_derivation(MASTER, 30_000 + t))
            for j, k in enumerate(ranks):
                draws[t, j] = s.dist[k - 1]
        for j, k in enumerate(ranks):
            mean = draws[:, j].mean()
            se = draws[:, j].std(ddof=1) / math.sqrt(trials)
            expect = harmonic_expected_distance(n, k)
            print(f"  k={k}: {mean:.6f} vs {expect:.6f} (se {se:.2g})",
                  end="")
            assert abs(mean - expect) < 3 * se


def test_09_lambda_mean_bound():
    with criterion(9, "mean lambda_in/n below ln 4 + 0.02 (n=1000)"):
        n, trials = 1000, 10_000
        acc = 0.0
        for t in range(trials):
            s = sample_spt(n, seed_derivation(MASTER, 50_000 + t))
            acc += pertinence_rates(s).lambda_in
        mean = acc / trials / n
        print(f"  mean lambda_in/n = {mean:.4f} "
              f"(bound {math.log(4) + 0.02:.4f})", end="")
        assert mean < math.log(4) + 0.02


def test_10_bucket_queue_equivalence():
    with criterion(10, "bucket and heap replays of 20 fb traces agree"):
        n = 1000
        nb, w = bucket_defaults(n)
        for t in range(20):
            g = exp_graph(n, 60_000 + t)
            rec = replay_trace(g, 0)
            for trace, recorded in ((rec.p_trace, rec.p_extract_keys),
                                    (rec.q_trace, rec.q_extract_keys)):
                heap_keys = replay(trace, BinaryHeapQueue())
                bucket = BucketQueue(nb, w)
                bucket_keys = replay(trace, bucket)
                assert heap_keys == bucket_keys == recorded
                assert all(a <= b for a, b in zip(recorded, recorded[1:]))
                # constant amortized work per operation (measured ~0.5
                # comparisons and <10% late inserts per insert)
                s = bucket.stats
                assert s.heap_comparisons <= 4 * s.inserts
                assert s.max_subbucket_size <= 24
                assert s.late_inserts <= s.inserts / 4


def test_11_apsp_quadratic_scaling():
    with criterion(11, "apsp total scans scale quadratically (256 -> 512)"):
        totals = {}
        for n in (256, 512):
            model = WeightModel(EXPONENTIAL, seed=seed_derivation(MASTER, n))
            costs = cost_matrix(gen_complete(n, model))
            result = apsp(costs)
            totals[n] = result.total_scans
        ratio = totals[512] / totals[256]
        print(f"  scans {totals[256]} -> {totals[512]} (x{ratio:.3f})",
              end="")
        assert 3.3 <= ratio <= 4.8


def test_12_other_distributions():
    with criterion(12, "uniform and weibull scans stay O(n)"):
        for kind, shape in ((UNIFORM, None), (WEIBULL, 0.5)):
            means = {}
            for n in (1000, 4000):
                vals = []
                for t in range(20):
                    seed = seed_derivation(MASTER, 70_000 + t)
                    g = gen_complete(n, WeightModel(kind, seed=seed,
                                                    shape=shape))
                    _, st = fb_sssp(g, 0)
                    vals.append(st.total_scans / n)
                    del g
                means[n] = float(np.mean(vals))
            growth = means[4000] / means[1000]
            print(f"  {kind}: scans/n {means[1000]:.3f} -> {means[4000]:.3f} "
                  f"(x{growth:.3f})", end="")
            assert growth < 1.5
