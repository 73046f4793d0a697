"""Command-line front end.

Subcommands: ``gen`` (write a graph file), ``sssp`` (run shortest-path
trials), ``verify`` (check the tree a run produces), ``apsp`` (all-pairs
run, optional binary matrix dump), ``sample`` (tree/pertinence sampling),
and ``bench`` (scan-scaling and verifier-comparison experiments).

Every experiment derives one seed per trial from the master ``--seed`` via
:func:`seed_derivation`, so reruns with the same arguments produce identical
counters and CSV bytes; wall-clock fields live only in the JSON summaries.
Every command makes its graphs through :func:`_graphs`, so trial t's graph
is the same in every command (``gen`` writes trial 0's), and every config
echoes the n, model and directedness of the graphs it ran on; a ``--graph``
run leaves its seed cells empty, since no seed made its graph.
Relative output paths are placed under ``$FBSP_OUT_DIR`` when it is set.
Exit codes: 0 success, 1 invalid arguments or inputs, 2 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import struct
import sys
import time
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import oracle
from .apsp import apsp
from .graph import (EXPONENTIAL, GraphError, SortedDigraph, WeightModel,
                    gen_complete, load, save)
from .sssp import dijkstra, fb_sssp, spira
from .verify import (VerifyError, verify_fb, verify_forward_only, verify_full)

_MASK = (1 << 64) - 1
_MAGIC = b"FBSPAPSP"


def seed_derivation(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: SplitMix64 of master_seed + (trial_index+1)*golden.

    Injective in trial_index for a fixed master seed (odd multiplier, then a
    bijective finalizer), and identical on every platform.
    """
    x = (master_seed + 0x9E3779B97F4A7C15 * (trial_index + 1)) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class CliError(Exception):
    """Bad arguments or inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _out_path(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get("FBSP_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to a temp file next to ``path``, then rename it onto
    ``path``; if either step fails, the temp file is removed."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_json(path: Optional[str], payload: dict) -> None:
    if path:
        text = json.dumps(payload, indent=2) + "\n"
        _atomic_write(_out_path(path), text.encode("utf-8"))


def _write_csv(path: Optional[str], header: List[str], rows: List[dict]) -> None:
    """Write the ``header`` cells of each row dict; bools become 0/1."""
    if not path:
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([int(row[k]) if isinstance(row[k], bool) else row[k]
                         for k in header])
    _atomic_write(_out_path(path), buf.getvalue().encode("utf-8"))


def _aggregate(rows: List[dict], keys: List[str]) -> dict:
    agg = {}
    for key in keys:
        vals = np.array([r[key] for r in rows if r[key] is not None],
                        dtype=np.float64)
        if vals.size == 0:
            agg[key] = None
            continue
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        agg[key] = {"mean": float(vals.mean()), "se": se,
                    "min": float(vals.min()), "max": float(vals.max())}
    return agg


def _graphs(args):
    """The one path from flags to graphs: ``(echo, make)``.

    ``echo`` holds the ``n``, ``dist``, ``shape`` and ``directed`` that every
    config echoes.  ``make(trial[, n])`` returns ``(graph, seed)``: the graph
    trial ``trial`` runs on, generated from ``WeightModel(seed=seed)`` with
    ``seed = seed_derivation(--seed, trial)``, or the ``--graph`` file, loaded
    once, with seed None, since no seed made it.  A loaded graph echoes the
    file's own n and directedness with an empty model, and takes no model
    flags and no other ``--n``.
    """
    if getattr(args, "graph", None) is not None:
        if args.dist is not None or args.shape is not None or args.undirected:
            raise CliError("--graph takes its model from the file; "
                           "drop --dist, --shape and --undirected")
        graph = load(args.graph)
        if args.n is not None and args.n != graph.n:
            raise CliError(f"--n {args.n} differs from the {graph.n} "
                           f"vertices of {args.graph}")
        echo = {"n": graph.n, "dist": None, "shape": None,
                "directed": graph.directed}
        return echo, lambda trial: (graph, None)
    if args.n is None:
        raise CliError("either --n or --graph is required")
    model = WeightModel(args.dist or EXPONENTIAL, shape=args.shape)
    directed = not args.undirected

    def make(trial, n=args.n):
        seed = seed_derivation(args.seed, trial)
        return gen_complete(n, replace(model, seed=seed), directed), seed

    echo = {"n": args.n, "dist": model.kind, "shape": model.shape,
            "directed": directed}
    return echo, make


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _n_list(text: str) -> List[int]:
    try:
        ns = [int(x) for x in text.split(",") if x]
    except ValueError:
        ns = []
    if not ns or any(n < 1 for n in ns):
        raise argparse.ArgumentTypeError(f"bad n list: {text!r}")
    return ns


def _add_model_flags(p, with_n=True):
    if with_n:
        p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--dist", choices=["exp", "uniform", "weibull"],
                   default=None, help="edge cost distribution (default exp)")
    p.add_argument("--shape", type=float, default=None,
                   help="power for weibull costs (cost = Exp(1)**shape)")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="master seed")


def _add_graph_flags(p):
    p.add_argument("--n", type=int, default=None, help="vertex count "
                   "(required unless --graph is given)")
    _add_model_flags(p, with_n=False)
    p.add_argument("--graph", default=None, help="load this graph file "
                   "instead of generating one per trial")
    p.add_argument("--algo", choices=["dijkstra", "spira", "fb"], default="fb")
    p.add_argument("--source", type=int, default=0)


def _run_algo(algo: str, graph: SortedDigraph, source: int):
    t0 = time.perf_counter_ns()
    if algo == "dijkstra":
        tree, stats = dijkstra(graph, source), None
    elif algo == "spira":
        tree, stats = spira(graph, source)
    elif algo == "fb":
        tree, stats = fb_sssp(graph, source)
    else:
        raise CliError(f"unknown algorithm {algo!r}")
    return tree, stats, time.perf_counter_ns() - t0


# the queue whose run the output equals (fb and spira search on heapq)
_QUEUE = {"fb": "bucket", "spira": "binheap", "dijkstra": "heapq"}

_SSSP_COUNTERS = ["forward_scans", "backward_scans", "p_inserts", "p_extracts",
                  "q_inserts", "q_extracts", "requests", "urgent_requests"]

_SSSP_STATS = _SSSP_COUNTERS + ["median", "size_at_median"]

_SSSP_CSV = (["trial", "seed", "algo", "n", "model", "shape", "directed",
              "pq", "source"] + _SSSP_STATS)


def _cmd_gen(args) -> int:
    _, make = _graphs(args)
    g, _ = make(0)
    buf, path = io.BytesIO(), _out_path(args.out)
    save(g, buf)
    _atomic_write(path, buf.getbuffer())
    print(f"wrote {g!r} to {path}")
    return 0


def _cmd_sssp(args) -> int:
    echo, make = _graphs(args)
    pq = _QUEUE[args.algo]
    rows = []
    t_all = time.perf_counter_ns()
    for t in range(args.trials):
        graph, seed = make(t)
        tree, stats, ns = _run_algo(args.algo, graph, args.source)
        rows.append({"trial": t, "seed": seed,
                     "algo": args.algo, "n": echo["n"], "model": echo["dist"],
                     "shape": echo["shape"], "directed": echo["directed"],
                     "pq": pq, "source": args.source, "wall_time_ns": ns,
                     "graph_completed": graph.completed,
                     **(stats.as_dict() if stats else
                        dict.fromkeys(_SSSP_STATS))})
        print(f"trial {t}: " + (f"scans={stats.total_scans} "
                                f"p={stats.p_inserts}/{stats.p_extracts} "
                                f"q={stats.q_inserts}/{stats.q_extracts}"
                                if stats else
                                f"dist_max={float(np.max(tree.dist)):.6g}"))
    payload = {
        "config": {"command": "sssp", "algo": args.algo, **echo,
                   "trials": args.trials, "master_seed": args.seed,
                   "pq": pq, "csv_schema": 1},
        "rows": rows,
        "aggregate": _aggregate(rows, _SSSP_COUNTERS),
        "wall_time_ns": time.perf_counter_ns() - t_all,
    }
    _write_json(args.json, payload)
    _write_csv(args.csv, _SSSP_CSV, rows)
    return 0


def _cmd_verify(args) -> int:
    echo, make = _graphs(args)
    graph, _ = make(0)
    tree, _, _ = _run_algo(args.algo, graph, args.source)
    checker = {"full": verify_full, "forward": verify_forward_only,
               "fb": verify_fb}[args.mode]
    report = checker(graph, tree)
    payload = {"config": {"command": "verify", "mode": args.mode,
                          "algo": args.algo, **echo,
                          "master_seed": args.seed},
               "report": report.as_dict()}
    _write_json(args.json, payload)
    print(f"{'ACCEPTED' if report.accepted else 'REJECTED'} "
          f"(examined {report.edges_examined} edges)")
    return 0 if report.accepted else 1


def _cmd_apsp(args) -> int:
    echo, make = _graphs(args)
    graph, _ = make(0)
    result = apsp(graph)
    if args.dump:
        blob = _MAGIC + struct.pack("<Q", graph.n) + result.dist.tobytes()
        _atomic_write(_out_path(args.dump), blob)
    per_source = [s.as_dict() for s in result.per_source_stats]
    per_pair = result.total_scans / graph.n ** 2
    payload = {
        "config": {"command": "apsp", **echo, "master_seed": args.seed},
        "total_scans": result.total_scans,
        "scans_per_n2": per_pair,
        "preprocess_time": result.preprocess_time,
        "total_time": result.total_time,
        "aggregate": _aggregate(per_source, _SSSP_COUNTERS),
    }
    _write_json(args.json, payload)
    print(f"apsp n={graph.n}: total scans {result.total_scans} "
          f"({per_pair:.3f} per vertex pair), {result.total_time:.2f}s")
    return 0


_SAMPLE_CSV = ["trial", "seed", "n", "directed", "out_spt", "in_spt",
               "out_non_spt", "in_non_spt", "total", "lambda_in", "lambda_out"]


def _cmd_sample(args) -> int:
    if args.dist not in (None, EXPONENTIAL) or args.shape is not None:
        raise CliError("sample draws trees of exponential costs only; "
                       "drop --dist and --shape")
    rows = []
    directed = not args.undirected
    tail_hits = 0
    for t in range(args.trials):
        seed = seed_derivation(args.seed, t)
        s = oracle.sample_spt(args.n, seed)
        rates = oracle.pertinence_rates(s)
        counts = oracle.sample_pertinence_counts(
            s, np.random.default_rng((seed, 1)), directed=directed)
        if args.tail_threshold is not None and \
                counts.total >= args.tail_threshold * args.n:
            tail_hits += 1
        rows.append({"trial": t, "seed": seed, "n": args.n,
                     "directed": directed, **counts.as_dict(),
                     "lambda_in": rates.lambda_in,
                     "lambda_out": rates.lambda_out})
    payload = {
        "config": {"command": "sample", "n": args.n, "trials": args.trials,
                   "master_seed": args.seed, "directed": directed,
                   "csv_schema": 1},
        "aggregate": _aggregate(rows, _SAMPLE_CSV[4:]),
    }
    if args.tail_threshold is not None:
        payload["tail"] = {"threshold_multiple": args.tail_threshold,
                           "fraction": tail_hits / args.trials}
    _write_json(args.json, payload)
    _write_csv(args.csv, _SAMPLE_CSV, rows)
    agg = payload["aggregate"]
    print(f"sampled {args.trials} trees at n={args.n}: "
          f"mean pertinent edges/n = {agg['total']['mean'] / args.n:.4f}")
    if args.tail_threshold is not None:
        print(f"tail fraction at {args.tail_threshold}n: "
              f"{payload['tail']['fraction']:.6f}")
    return 0


def _cmd_bench_scan_scaling(args) -> int:
    echo, make = _graphs(args)
    table = []
    rows = []
    for n in echo["n"]:
        per_n = []
        for t in range(args.trials):
            graph, seed = make(t, n)
            _, stats, _ = _run_algo(args.algo, graph, 0)
            per_n.append(stats.total_scans)
            rows.append({"n": n, "trial": t, "seed": seed,
                         **stats.as_dict(), "total_scans": stats.total_scans})
        mean = sum(per_n) / len(per_n)
        table.append({"n": n, "mean_total_scans": mean,
                      "mean_scans_per_n": mean / n})
    print(f"{'n':>8} {'scans':>12} {'scans/n':>10}")
    for row in table:
        print(f"{row['n']:>8} {row['mean_total_scans']:>12.1f} "
              f"{row['mean_scans_per_n']:>10.3f}")
    payload = {"config": {"command": "bench scan-scaling", "algo": args.algo,
                          **echo, "trials": args.trials,
                          "master_seed": args.seed, "csv_schema": 1},
               "table": table}
    _write_json(args.json, payload)
    _write_csv(args.csv, ["n", "trial", "seed", "forward_scans",
                          "backward_scans", "total_scans"], rows)
    return 0


def _cmd_bench_verify_compare(args) -> int:
    echo, make = _graphs(args)
    n = args.n
    if n < 2:
        raise CliError(f"--n must be at least 2, got {n}")
    rows = []
    for t in range(args.trials):
        graph, seed = make(t)
        tree = dijkstra(graph, 0)
        t0 = time.perf_counter_ns()
        fwd = verify_forward_only(graph, tree)
        t1 = time.perf_counter_ns()
        fb = verify_fb(graph, tree)
        t2 = time.perf_counter_ns()
        if not (fwd.accepted and fb.accepted):
            raise AssertionError("true tree rejected")
        rows.append({"trial": t, "seed": seed,
                     "forward_only_examined": fwd.edges_examined,
                     "fb_examined": fb.edges_examined,
                     "forward_only_wall_ns": t1 - t0,
                     "fb_wall_ns": t2 - t1})
    nlogn = n * math.log(n)
    mean_fwd = sum(r["forward_only_examined"] for r in rows) / len(rows)
    mean_fb = sum(r["fb_examined"] for r in rows) / len(rows)
    summary = {"n": n, "trials": args.trials,
               "forward_only_mean": mean_fwd,
               "forward_only_per_nlogn": mean_fwd / nlogn,
               "fb_mean": mean_fb, "fb_per_n": mean_fb / n}
    print(f"n={n}: forward-only {mean_fwd:.0f} edges "
          f"({mean_fwd / nlogn:.3f} n ln n), "
          f"fb {mean_fb:.0f} edges ({mean_fb / n:.3f} n)")
    payload = {"config": {"command": "bench verify-compare", **echo,
                          "trials": args.trials, "master_seed": args.seed,
                          "csv_schema": 1},
               "rows": rows, "summary": summary}
    _write_json(args.json, payload)
    _write_csv(args.csv, ["trial", "seed", "forward_only_examined",
                          "fb_examined"], rows)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fbsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random complete graph file")
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="output graph file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sssp", help="run shortest-path trials")
    _add_graph_flags(p)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--json", default=None, help="write JSON report here")
    p.add_argument("--csv", default=None, help="write per-trial CSV here")
    p.set_defaults(func=_cmd_sssp)

    p = sub.add_parser("verify", help="verify the tree an algorithm returns")
    _add_graph_flags(p)
    p.add_argument("--mode", choices=["full", "forward", "fb"], default="fb")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("apsp", help="all-pairs shortest paths")
    _add_model_flags(p)
    p.add_argument("--dump", default=None,
                   help="write the distance matrix here (16-byte header: "
                        "8-byte magic + little-endian uint64 n; then "
                        "row-major float64)")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_apsp)

    p = sub.add_parser("sample", help="sample random trees and pertinence counts")
    _add_model_flags(p)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--tail-threshold", type=float, default=None,
                   help="also report Pr[pertinent edges >= threshold*n]")
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bench", help="scaling experiments")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("scan-scaling", help="mean scans/n across sizes")
    b.add_argument("--n", type=_n_list, required=True,
                   help="comma-separated sizes")
    _add_model_flags(b, with_n=False)
    b.add_argument("--algo", choices=["spira", "fb"], default="fb")
    b.add_argument("--trials", type=_positive_int, default=5)
    b.add_argument("--json", default=None)
    b.add_argument("--csv", default=None)
    b.set_defaults(func=_cmd_bench_scan_scaling)

    b = bench_sub.add_parser("verify-compare",
                             help="forward-only vs forward-backward verifier")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--undirected", action="store_true")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--trials", type=_positive_int, default=5)
    b.add_argument("--json", default=None)
    b.add_argument("--csv", default=None)
    # no model flags: _graphs makes exponential-cost graphs
    b.set_defaults(func=_cmd_bench_verify_compare, dist=None, shape=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, GraphError, VerifyError, ValueError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
