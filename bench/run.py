"""coulomblab benchmark: one command, three workloads.

    python3 bench/run.py --workload {sampler,oracle,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout (the program is imported from ./src).  The
last line of stdout is one JSON object {correct, attempted, failed, metrics};
a fuller record goes to bench/out/.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a separate traced run (see
README.md).  Exits 2 without a result when the program cannot be imported.
"""

from __future__ import annotations

import os

# one client, no extra threads: a 2-core machine runs the workload process
# and, for `cli`, one child at a time
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import harness  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sampler", "oracle", "cli")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "coulomblab", "__init__.py")):
        log(f"no coulomblab sources under {src}")
        sys.exit(2)
    sys.path.insert(0, src)
    import coulomblab  # noqa: F401


def make_workload(name, seed):
    if name == "sampler":
        from sampler import SamplerWorkload
        return SamplerWorkload(seed)
    if name == "oracle":
        from oracle import OracleWorkload
        return OracleWorkload(seed)
    from climix import CliWorkload
    return CliWorkload(seed, ROOT)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, seconds):
    setup = harness.setup_seconds(ROOT, workload.setup_code)
    workload.warm()
    stats = harness.measure(workload, seconds)
    ms = [1000.0 * s for s in stats.op_s]
    rss = harness.peak_rss_mb(children=workload.name == "cli")
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_s": metric(statistics.median(stats.round_s), "s"),
        "op_ms_p50": metric(statistics.median(ms), "ms"),
        "op_ms_p90": metric(harness.percentile(ms, 90), "ms"),
        "work_per_s": metric(stats.work / sum(stats.op_s), "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    by_name = {}
    for name, v in zip(stats.op_names, ms):
        by_name.setdefault(name, []).append(v)
    return stats, metrics, {"rounds": len(stats.round_s), "round_s": stats.round_s,
                            "op_ms_median": {k: statistics.median(v) for k, v in by_name.items()}}


def traced(workload, seconds, seed):
    import layers
    from tracing import Tracer

    tracer = Tracer()
    workload.warm()
    # alternate untraced and traced rounds; their difference is the overhead
    stats = harness.measure(workload, seconds, tracer,
                            traced_rounds=lambda r: r % 2 == 1, min_rounds=2)
    plain = [t for t, on in zip(stats.round_s, stats.traced) if not on]
    spanned = [t for t, on in zip(stats.round_s, stats.traced) if on]
    overhead = 100.0 * (statistics.median(spanned) / statistics.median(plain) - 1.0)
    values = layers.probe(tracer, seed, ROOT)
    values["trace.overhead_pct"] = (overhead, "%")
    path = os.path.join(OUT, f"trace-{workload.name}-s{seed}.json")
    tracer.dump(path, workload=workload.name, seed=seed)
    metrics = {k: metric(v, unit) for k, (v, unit) in values.items()}
    return stats, metrics, {"rounds": len(stats.round_s), "trace_file": path}


def machine():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="coulomblab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import_program()
    os.makedirs(OUT, exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    log(f"{args.workload}: inputs and references ready in "
        f"{time.perf_counter() - t0:.1f} s")
    if args.trace:
        stats, metrics, extra = traced(workload, args.seconds, args.seed)
    else:
        stats, metrics, extra = end_to_end(workload, args.seconds)
    run_checks = workload.finish()
    problems = stats.problems + [f"{name}: {detail}"
                                 for name, ok, detail in run_checks if not ok]
    for line in problems:
        log(f"FAILED {line}")
    result = {"correct": not problems, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine(),
                  checks=[list(c) for c in run_checks], problems=problems,
                  elapsed_s=time.perf_counter() - t0, **extra)
    path = os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
