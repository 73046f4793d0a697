"""The four workloads.

Each workload derives all of its inputs from the run's seed when it is
created, builds what it shares between operations in :meth:`setup`, and
lists the operations of one round in :meth:`round`.  A run repeats whole
rounds, so every run attempts the same operations in the same proportions.
``run_op`` is the timed operation: it calls the program only through the
tracer it is handed.  ``check`` and ``probe`` run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from fbsp import (BinaryHeapQueue, BucketQueue, ShortestPathTree,
                  WeightModel, apsp, bucket_defaults, build_sorted_adjacency,
                  dijkstra, fb_sssp, gen_complete, replay, replay_trace,
                  spira, tree_distances, verify_fb, verify_forward_only,
                  verify_full)

from checks import apsp_errors, graph_csr, reparent, sssp_errors


@dataclass
class Searched:
    """What one single-source operation hands to its check."""
    graph: Any
    source: int
    tree: Any
    stats: Any
    reports: tuple
    extra: Any = None   # forward_baselines: the dijkstra tree


def _queue_probe(tr, graph, source: int) -> None:
    """Record the search's P and Q traffic, then replay it into each queue."""
    rec = tr.call("sssp.replay_trace", replay_trace, graph, source)
    makers = (("bucket", lambda: BucketQueue(*bucket_defaults(graph.n))),
              ("binheap", BinaryHeapQueue))
    for kind, make in makers:
        for trace in (rec.p_trace, rec.q_trace):
            queue = make()
            tr.call(f"pq.replay_{kind}", replay, trace, queue)
            tr.annotate(ops=len(trace), **queue.stats.as_dict())


def _fb_errors(out: Searched) -> list:
    errors = sssp_errors(graph_csr(out.graph), out.source,
                         out.tree.parent, out.tree.dist)
    if not out.reports[0].accepted:
        errors.append(f"verify_fb rejected a right tree: {out.reports[0].witness}")
    return errors


class Workload:
    name = ""
    n = 0

    def __init__(self, seed: int, tag: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, tag])

    @property
    def num_edges(self) -> int:
        return self.n * (self.n - 1)

    def setup(self, tr) -> None:
        pass

    def round(self) -> list:
        raise NotImplementedError

    def run_op(self, tr, desc):
        raise NotImplementedError

    def check(self, desc, out) -> list:
        raise NotImplementedError

    def work(self, out) -> tuple:
        """(edge scans, vertices settled) of the operation's searches."""
        return out.stats.total_scans, int(np.isfinite(out.tree.dist).sum())

    def probe(self, tr, desc, out) -> None:
        tr.call("verify.tree_distances", tree_distances,
                out.graph, out.tree.parent, out.source)
        _queue_probe(tr, out.graph, out.source)


class FreshTrials(Workload):
    """A fresh complete Exp(1) digraph per operation, searched from vertex 0
    and verified, as in ``fbsp sssp --trials``."""

    name = "fresh_trials"

    def __init__(self, seed: int, n: int = 2000, per_round: int = 4):
        super().__init__(seed, 1)
        self.n = n
        self.seeds = self.rng.integers(2**62, size=per_round).tolist()

    def round(self):
        return self.seeds

    def run_op(self, tr, graph_seed):
        g = tr.call("graph.gen_complete", gen_complete, self.n,
                    WeightModel("exp", seed=graph_seed))
        tree, stats = tr.call("sssp.fb_sssp", fb_sssp, g, 0)
        report = tr.call("verify.verify_fb", verify_fb, g, tree)
        return Searched(g, 0, tree, stats, (report,))

    def check(self, desc, out):
        return _fb_errors(out)


class _BuiltGraphs(Workload):
    """Complete Exp(1) digraphs built in set-up, each searched from the
    sources of its own seeded permutation; an operation is one
    (graph, source) pair."""

    def __init__(self, seed: int, tag: int, n: int, graphs: int,
                 per_graph: int):
        super().__init__(seed, tag)
        self.n = n
        self.graph_seeds = self.rng.integers(2**62, size=graphs).tolist()
        self.pairs = [(i, s) for i in range(graphs)
                      for s in self.rng.permutation(n)[:per_graph].tolist()]
        self.graphs = []

    def setup(self, tr):
        self.graphs = []   # never hold two sets of graphs at once
        for s in self.graph_seeds:
            self.graphs.append(tr.call("graph.gen_complete", gen_complete,
                                       self.n, WeightModel("exp", seed=s)))

    def round(self):
        return self.pairs


class MultiSource(_BuiltGraphs):
    name = "multi_source"

    def __init__(self, seed: int, n: int = 4000, per_round: int = 16):
        super().__init__(seed, 2, n, 1, per_round)

    def run_op(self, tr, pair):
        g, source = self.graphs[pair[0]], pair[1]
        tree, stats = tr.call("sssp.fb_sssp", fb_sssp, g, source)
        report = tr.call("verify.verify_fb", verify_fb, g, tree)
        return Searched(g, source, tree, stats, (report,))

    def check(self, pair, out):
        return _fb_errors(out)


class ForwardBaselines(_BuiltGraphs):
    """Spira's scan count varies by about 12% from graph to graph at
    n = 1000 and n = 2000, more than from source to source, so the
    operations are spread over many small graphs instead of many sources of
    one large graph; 32 graphs of n = 2000 would need 3 GB."""

    name = "forward_baselines"

    def __init__(self, seed: int, n: int = 500, graphs: int = 32,
                 per_graph: int = 1):
        super().__init__(seed, 4, n, graphs, per_graph)

    def run_op(self, tr, pair):
        g, source = self.graphs[pair[0]], pair[1]
        tree, stats = tr.call("sssp.spira", spira, g, source)
        exact = tr.call("sssp.dijkstra", dijkstra, g, source)
        forward = tr.call("verify.verify_forward_only", verify_forward_only, g, tree)
        full = tr.call("verify.verify_full", verify_full, g, tree)
        return Searched(g, source, tree, stats, (forward, full), extra=exact)

    def check(self, pair, out):
        g, source = out.graph, out.source
        csr = graph_csr(g)
        errors = sssp_errors(csr, source, out.tree.parent, out.tree.dist)
        errors += [f"dijkstra: {e}" for e in
                   sssp_errors(csr, source, out.extra.parent, out.extra.dist)]
        for what, report in zip(("verify_forward_only", "verify_full"), out.reports):
            if not report.accepted:
                errors.append(f"{what} rejected a right tree: {report.witness}")
        if errors:
            return errors
        rng = np.random.default_rng([self.seed, 4, *pair])
        try:
            parent = reparent(g, out.tree.parent, out.tree.dist, rng)
        except ValueError as exc:
            return [str(exc)]
        # dist is left as it was: the verifiers rebuild it from parent
        wrong = ShortestPathTree(source, parent, out.tree.dist)
        for verifier in (verify_fb, verify_forward_only, verify_full):
            if verifier(g, wrong).accepted:
                errors.append(f"{verifier.__name__} accepted a wrong tree")
        return errors


class ApspMatrix(Workload):
    """All-pairs distances of small dense Exp(1) cost matrices."""

    name = "apsp_matrix"

    def __init__(self, seed: int, n: int = 200, per_round: int = 8):
        super().__init__(seed, 3)
        self.n = n
        self.matrix_seeds = self.rng.integers(2**62, size=per_round).tolist()
        self.matrices = []

    def setup(self, tr):
        self.matrices = []
        for s in self.matrix_seeds:
            m = np.random.default_rng(s).exponential(size=(self.n, self.n))
            np.fill_diagonal(m, 0.0)
            self.matrices.append(m)

    def round(self):
        return list(range(len(self.matrix_seeds)))

    def run_op(self, tr, i):
        return tr.call("apsp.apsp", apsp, self.matrices[i])

    def check(self, i, out):
        return apsp_errors(self.matrices[i], out.dist)

    def work(self, out):
        return out.total_scans, self.n * self.n

    def probe(self, tr, i, out):
        # apsp builds its graph internally; build the same one from outside
        # to replay one of its searches' queue traffic
        m = self.matrices[i]
        u, v = np.nonzero(~np.eye(self.n, dtype=bool))
        edges = list(zip(u.tolist(), v.tolist(), m[u, v].tolist()))
        g = tr.call("graph.build_sorted_adjacency", build_sorted_adjacency,
                    edges, self.n)
        _queue_probe(tr, g, i % self.n)


WORKLOADS = {cls.name: cls for cls in
             (FreshTrials, MultiSource, ApspMatrix, ForwardBaselines)}
