"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, on one thread, against the package in
``src/`` next to this directory, and prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics untraced, the per-layer metrics traced).  Figures
that are recorded but not gated, such as ``op_p90_s``, go to standard error
and, with the spans of a traced run, to ``perfbench/out/``.
"""

import os

# one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "fbsp", "__init__.py")):
        print(f"no fbsp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fbsp
    import_s = time.perf_counter() - _T0
    if os.path.dirname(os.path.abspath(fbsp.__file__)) != os.path.join(SRC, "fbsp"):
        print(f"fbsp was imported from {fbsp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    result, tracer, extra = harness.run(workload, args.seconds, bool(args.trace),
                                        import_s)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, **extra}, fh, indent=1)
    if tracer:
        tracer.write(stem + "-spans.jsonl")
    print(f"{args.workload}: op_p90_s {extra['op_p90_s']:.6f} over "
          f"{extra['ops_timed']} operations in {extra['rounds']} rounds",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
