"""Runs one workload for a fixed time and computes its metrics.

Untraced, every operation is timed from outside with one pair of clock
reads; the end-to-end metrics come from those times.  Traced, every
operation runs twice, untraced and then under a :class:`~spans.Tracer`, and
a probe after it replays the search's queue traffic; the per-layer metrics
come from the spans, and the tracing overhead from the difference of the
two medians.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from collections import defaultdict

from spans import NullTracer, Tracer

SETUPS = 3   # set-up is repeated and its median reported


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def run(workload, seconds: float, trace: bool, import_s: float):
    """Set up, then repeat whole rounds while the next one is expected to end
    within ``seconds``; the first round always runs.

    Returns (result, tracer, extra): ``result`` is the JSON object the run
    prints, ``tracer`` holds the spans of a traced run (else None), and
    ``extra`` the figures that are recorded but not gated, such as the p90.
    """
    null = NullTracer()
    tr = Tracer() if trace else None
    ops = workload.round()

    def set_up(t):
        workload.setup(t)
        workload.run_op(t, ops[0])   # warm-up, not counted

    setup_times = []
    for i in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        if tr:
            tr.root("bench.setup", f"setup{i}", set_up)
        else:
            set_up(null)
        setup_times.append(time.perf_counter() - t0)

    times, traced_times = [], []
    attempted = failed = scans = settled = 0

    def checked(desc, out) -> int:
        errors = workload.check(desc, out)
        for e in errors:
            print(f"{workload.name} {desc}: {e}", file=sys.stderr)
        return 1 if errors else 0

    start = time.perf_counter()
    rnd = 0
    while True:
        for k, desc in enumerate(ops):
            out = None   # free the last output first: no two fresh graphs alive
            gc.collect()
            t0 = time.perf_counter()
            out = workload.run_op(null, desc)
            times.append(time.perf_counter() - t0)
            attempted += 1
            failed += checked(desc, out)
            if rnd == 0:
                s, v = workload.work(out)
                scans += s
                settled += v
            if tr:
                out = None
                gc.collect()
                t0 = time.perf_counter()
                out = tr.root("bench.op", f"r{rnd}.{k}", workload.run_op, desc)
                traced_times.append(time.perf_counter() - t0)
                attempted += 1
                failed += checked(desc, out)
                tr.root("bench.probe", f"r{rnd}.{k}", workload.probe, desc, out)
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rnd > seconds:   # the next round would overrun
            break

    if tr:
        metrics = layer_metrics(tr, workload, times, traced_times)
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB"),
            "scans_per_vertex": (scans / settled, "edges/vertex"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    return result, tr, {"op_p90_s": p90, "ops_timed": len(times),
                        "rounds": rnd, "setup_runs_s": setup_times,
                        "op_times_s": times}


def layer_metrics(tr: Tracer, workload, times, traced_times) -> dict:
    """Per-layer metrics from the spans of a traced run.

    A layer the workload never calls reads 0.
    """
    named = defaultdict(list)
    for s in tr.spans:
        named[s.name].append(s)

    def in_ops(name):
        return [s for s in named[name] if not s.op.startswith("setup")]

    def secs(name):
        return _median([s.seconds for s in in_ops(name)])

    def total(spans, key):
        return sum(s.counts.get(key, 0) for s in spans)

    n, edges = workload.n, workload.num_edges
    m = {}

    builds = named["graph.gen_complete"] + named["graph.build_sorted_adjacency"]
    m["graph.gen_s"] = (_median([s.seconds for s in builds]), "s")
    m["graph.gen_edges_per_s"] = (
        _median([s.counts["num_edges"] / s.seconds for s in builds]), "edges/s")
    m["graph.adjacency_mb"] = (
        _median([s.counts["adjacency_bytes"] for s in builds]) / 1e6, "MB")

    # the searches of the operations: fb_sssp or spira calls, or apsp's sources
    fb = in_ops("sssp.fb_sssp")
    ap = in_ops("apsp.apsp")
    searches = fb + in_ops("sssp.spira")
    n_search = len(searches) + total(ap, "sources")
    search_scans = total(searches, "total_scans") + total(ap, "total_scans")
    m["graph.edges_read_share"] = (_ratio(search_scans, n_search * edges), "ratio")

    m["apsp.preprocess_s"] = (_median([s.counts["preprocess_time"] for s in ap]), "s")
    search_s = [s.counts["total_time"] - s.counts["preprocess_time"] for s in ap]
    m["apsp.search_s"] = (_median(search_s), "s")
    m["apsp.scans_per_pair"] = (
        _ratio(total(ap, "total_scans"), len(ap) * n * (n - 1)), "edges")

    fb_like = fb + ap   # apsp runs fb_sssp once per source
    if fb:
        fb_s = secs("sssp.fb_sssp")
        fb_searches = len(fb)
    else:
        fb_s = _median([t / s.counts["sources"] for t, s in zip(search_s, ap)])
        fb_searches = total(ap, "sources")
    m["sssp.fb_s"] = (fb_s, "s")
    m["sssp.fb_useful_extract_share"] = (
        _ratio(fb_searches * (n - 1), total(fb_like, "p_extracts")), "ratio")
    m["sssp.fb_request_share"] = (
        _ratio(total(fb_like, "requests"), total(fb_like, "q_extracts")), "ratio")
    m["sssp.fb_backward_share"] = (
        _ratio(total(fb_like, "backward_scans"), total(fb_like, "total_scans")),
        "ratio")
    m["sssp.urgent_requests"] = (
        _ratio(total(fb_like, "urgent_requests"), fb_searches), "count")
    m["sssp.spira_s"] = (secs("sssp.spira"), "s")
    m["sssp.dijkstra_s"] = (secs("sssp.dijkstra"), "s")

    bucket, heap = named["pq.replay_bucket"], named["pq.replay_binheap"]
    for kind, spans in (("bucket", bucket), ("binheap", heap)):
        ns = sum(s.end_ns - s.start_ns for s in spans)
        m[f"pq.{kind}_ns_per_op"] = (_ratio(ns, total(spans, "ops")), "ns")
    # each probe replays one P and one Q trace into each queue kind
    probes = len(named["sssp.replay_trace"])
    m["pq.heap_comparisons_per_op"] = (
        _ratio(total(bucket, "heap_comparisons"), total(bucket, "ops")), "count")
    m["pq.splits"] = (_ratio(total(bucket, "splits"), probes), "count")
    m["pq.late_inserts"] = (_ratio(total(bucket, "late_inserts"), probes), "count")
    m["pq.max_subbucket_size"] = (
        max((s.counts["max_subbucket_size"] for s in bucket), default=0), "count")
    m["pq.ops_per_search"] = (_ratio(total(bucket, "ops"), probes), "count")

    m["verify.tree_distances_s"] = (secs("verify.tree_distances"), "s")
    for short, name in (("fb", "verify.verify_fb"),
                        ("forward", "verify.verify_forward_only"),
                        ("full", "verify.verify_full")):
        m[f"verify.{short}_s"] = (secs(name), "s")
    for short, name in (("fb", "verify.verify_fb"),
                        ("forward", "verify.verify_forward_only")):
        m[f"verify.{short}_edges_per_vertex"] = (
            _median([s.counts["edges_examined"] for s in in_ops(name)]) / n,
            "edges/vertex")

    per_op = defaultdict(list)
    for root in named["bench.op"]:
        for layer, sec in tr.self_seconds(root).items():
            per_op[layer].append(sec)
    for layer in ("bench", "graph", "sssp", "verify", "apsp"):
        m[f"{layer}.self_s"] = (_median(per_op[layer]), "s")

    plain = statistics.median(times)
    overhead = statistics.median(traced_times) - plain
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_share"] = (overhead / plain, "ratio")
    return m
