"""Paired in-process A/B of the ``oracle`` benchmark workload's operations:
this checkout's ``src/coulomblab`` against the one at a git revision.

Run from the repository root:

    PYTHONPATH=src python scripts/oracle_ab.py REF [--seed 1] [--repeats 31] [--check]

REF's ``src/coulomblab`` is extracted with ``git archive`` into a temporary
directory under another package name (the package imports itself only
relatively, so it runs under any name).  Both trees get the same round of
operations, built from ``bench/oracle.py``'s inputs for the seed: its
``potential_oracle`` points, the rectangle point, the balayage potentials
and the hole energies.  Each repeat times every operation once per tree,
one call each, the tree that goes first alternating from operation to
operation and from repeat to repeat, so a slow spell of a shared machine
falls on both sides alike; a whole benchmark run moves by far more between
runs than the pairs do.

Prints, per tree (A = REF, B = this checkout), the median time per class,
the median round total, the p50 and p90 of all timings, and how many
results are identical in value, ``est_error`` and every ``QuadStats`` field.
``--check`` exits 1 unless every result is identical.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle as workload  # noqa: E402  (bench/oracle.py)

REF_PACKAGE = "coulomblab_ref"


def import_ref(rev, tmp):
    """Import ``src/coulomblab`` at ``rev`` as the package ``REF_PACKAGE``."""
    blob = subprocess.run(["git", "archive", rev, "src/coulomblab"], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(tmp, filter="data")
    os.rename(os.path.join(tmp, "src", "coulomblab"), os.path.join(tmp, REF_PACKAGE))
    sys.path.insert(0, tmp)
    return (importlib.import_module(f"{REF_PACKAGE}.domains"),
            importlib.import_module(f"{REF_PACKAGE}.balayage"))


def round_ops(dom, bal, seed):
    """[(class, call)] in the order of the workload's round."""
    a1, a2 = workload.ELLIPSE
    geos = {"disk": dom.Ball(2, 1.0), "annulus": dom.Annulus2D(1.0, 0.5),
            "ellipse_in": dom.Ellipse2D(a1, a2), "ellipse_out": dom.Ellipse2D(a1, a2),
            "rectangle": dom.Rectangle(workload.RECT), "ball3": dom.Ball(3, 1.0),
            "cuboid": dom.Cuboid(workload.CUBE), "segment": dom.Segment1D(1.0)}
    doms = {k: dom.UniformDomain(g, 1.0) for k, g in geos.items()}
    planar = {"disk": lambda a: dom.Ball(2, a), "annulus": dom.Annulus2D,
              "ellipse": dom.Ellipse2D}
    tol = workload.TOL
    ops = [(cls, lambda d=doms[cls], p=p: dom.potential_oracle(d, p, tol))
           for cls, p, _ in workload.oracle_cases(seed)]
    ops.append(("rectangle", lambda: dom.potential_oracle(doms["rectangle"],
                                                           workload.RECT_FAULT_POINT, tol)))
    for body, p, _ in workload.balayage_cases(seed):
        m = bal.balayage_measure(dom.UniformDomain(planar[body[0]](*body[1:-1]), body[-1]))
        ops.append((f"balayage_{body[0]}", lambda m=m, p=p: m.potential(p)))
    for spec, _ in workload.hole_cases(seed):
        ops.append((f"hole_{spec[0]}", lambda g=planar[spec[0]](*spec[1:]): bal.hole_energy(
            bal.HoleSpec(g))))
    return ops


def record(res):
    """What must match: a float, or value, est_error and the stats' fields."""
    if isinstance(res, float):
        return (res,)
    s = res.stats
    return (res.value, res.est_error, s.panels, s.depth, s.at_cap, s.at_floor, s.tol_met)


def timed(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def quantile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="git revision to compare against (side A)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=31)
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless every result is identical")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [round_ops(*import_ref(args.ref, tmp), args.seed),
                 round_ops(importlib.import_module("coulomblab.domains"),
                           importlib.import_module("coulomblab.balayage"), args.seed)]
        n = len(sides[0])
        same = sum(record(a()) == record(b()) for (_, a), (_, b) in zip(*sides))
        times = [[[0.0] * n for _ in range(args.repeats)] for _ in sides]
        for r in range(args.repeats):
            for i in range(n):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                for s in order:
                    times[s][r][i] = timed(sides[s][i][1])
    us = 1e6
    print(f"{n} operations, seed {args.seed}, {args.repeats} repeats; "
          f"A = {args.ref}, B = this checkout; median us per call (B / A)")
    classes = list(dict.fromkeys(cls for cls, _ in sides[0]))
    for cls in classes:
        idx = [i for i, (c, _) in enumerate(sides[0]) if c == cls]
        a, b = (statistics.median(t[r][i] for r in range(args.repeats) for i in idx)
                for t in times)
        print(f"  {cls:<20} {a * us:9.1f} {b * us:9.1f}  x{b / a:.3f}")
    rounds = [statistics.median(sum(row) for row in t) for t in times]
    flat = [[v for row in t for v in row] for t in times]
    print(f"  {'round total':<20} {rounds[0] * us:9.0f} {rounds[1] * us:9.0f}  "
          f"x{rounds[1] / rounds[0]:.3f}")
    for q in (0.5, 0.9):
        a, b = (quantile(f, q) for f in flat)
        print(f"  {f'p{round(100 * q)} of all timings':<20} {a * us:9.1f} {b * us:9.1f}  "
              f"x{b / a:.3f}")
    print(f"identical results (value, est_error, QuadStats): {same} of {n}")
    return 0 if same == n or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
