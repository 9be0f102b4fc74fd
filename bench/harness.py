"""Closed-loop measurement of one workload: whole rounds of the same
operations, one at a time, in this process.

A workload object provides ``name``, ``round_ops(r)`` (the r-th round's list
of Op), ``warm()`` (untimed first calls), ``finish()`` (run-level checks
after the last round) and ``setup_code`` (the Python a fresh process runs to
get ready for the first operation).
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Op:
    name: str            # "<layer function>.<case>", e.g. "potential_oracle.disk"
    call: object         # () -> output; the only timed part
    check: object        # output -> (ok, detail)
    work: float = 1.0    # work units done by the call
    known_fault: str = ""  # set when the op fails every time because of a
    #                        program fault; it is counted in `failed` only


@dataclass
class RunStats:
    round_s: list
    op_s: list
    op_names: list
    work: float
    attempted: int
    failed: int
    problems: list       # failures of ops without a known fault
    traced: list         # per round: whether it recorded spans


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(root, argv):
    """Run `python argv...` in the checkout; return (seconds, completed)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def setup_seconds(root, code, reps=5):
    """Median wall time of a fresh interpreter that runs the workload's set-up
    and exits.  One untimed run first writes the byte-code caches."""
    timed_child(root, ["-c", code])
    times = []
    for _ in range(reps):
        dt, proc = timed_child(root, ["-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-500:]}")
        times.append(dt)
    return statistics.median(times)


def run_round(ops, tracer=None):
    """Time each op; returns (round seconds, [(op, output, error, seconds)])."""
    done = []
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.span(op.name):
                    out = op.call()
            err = None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        done.append((op, out, err, time.perf_counter() - t0))
    return time.perf_counter() - t_round, done


def measure(workload, seconds, tracer=None, traced_rounds=None, min_rounds=1):
    """Run whole rounds until `seconds` have passed and at least `min_rounds`
    rounds are done.

    With a tracer, rounds whose index is in `traced_rounds` (all rounds when
    None) record spans.  Checks run after each round, outside its time.
    """
    stats = RunStats([], [], [], 0.0, 0, 0, [], [])
    t_start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - t_start < seconds:
        ops = workload.round_ops(r)
        use = tracer is not None and (traced_rounds is None or traced_rounds(r))
        if use:
            tracer.new_trace()
            with tracer.span("round", workload=workload.name, index=r):
                dt, done = run_round(ops, tracer)
        else:
            dt, done = run_round(ops)
        stats.round_s.append(dt)
        stats.traced.append(use)
        for op, out, err, op_dt in done:
            stats.attempted += 1
            stats.work += op.work
            stats.op_s.append(op_dt)
            stats.op_names.append(op.name)
            ok, detail = (False, f"raised {err!r}") if err is not None else op.check(out)
            if not ok:
                stats.failed += 1
                if not op.known_fault:
                    stats.problems.append(f"round {r} {op.name}: {detail}")
        r += 1
    return stats


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))
