"""Print the fixed per-call costs of the quadrature layer and the 2d ray
oracle, in microseconds, as medians of interleaved repeats.

Run from the repository root:

    PYTHONPATH=src python scripts/quad_overhead.py

Each repeat times every case once (a few calls each, cases in turn), so a
slow spell of a shared machine falls on all cases alike; each line gives a
case's median over the repeats and the quartiles.  Cases:

- ``adaptive_1d`` on a linear integrand, one interval and three intervals,
  accepted at the root;
- ``adaptive_1d`` on -log|x| cos x over [0, 1] at tol 1e-12, a tree of 41
  levels with one or two panels each;
- ``_edge_integral``'s set-up (its piece table and integrand) for the three
  cut intervals of a point outside the unit disk, with the adaptive call
  stubbed out;
- one ``potential_oracle`` point at tol 1e-9 per 2d class of the ``oracle``
  benchmark workload, the 3-ball and the segment.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time

import numpy as np

from coulomblab import _quad, domains

CALLS = 3   # calls per case per repeat
REPEATS = 200


def _unit(geo):
    return domains.UniformDomain(geo, 1.0)


def _edge_setup():
    """_edge_integral with the adaptive call replaced by a constant result."""
    origin = np.array([1.5, 0.4])
    geo = domains.Ball(2, 1.0)
    cuts = [(0.0, False), *domains._kink_angles(geo, origin), (2.0 * math.pi, False)]
    pieces = [(lo, hi, lo_edge, hi_edge, 1e-9)
              for (lo, lo_edge), (hi, hi_edge) in zip(cuts[:-1], cuts[1:])]
    stub = _quad.QuadResult(0.0, 0.0, None)
    real = domains.adaptive_1d

    def run():
        domains.adaptive_1d = lambda *args: stub
        try:
            domains._edge_integral(np.cos, pieces)
        finally:
            domains.adaptive_1d = real
    return run


def cases():
    lin = lambda x: 0.5 * x  # noqa: E731
    log_end = lambda x: -np.log(np.abs(x) + 1e-300) * np.cos(x)  # noqa: E731
    three = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 1e-9)
    oracle = [
        ("disk, inside", domains.Ball(2, 1.0), (0.3, 0.2)),
        ("disk, outside", domains.Ball(2, 1.0), (1.3, 0.9)),
        ("annulus, in the hole", domains.Annulus2D(1.0, 0.5), (0.2, 0.1)),
        ("ellipse 2x1, inside", domains.Ellipse2D(2.0, 1.0), (1.7, 0.2)),
        ("ellipse 2x1, outside", domains.Ellipse2D(2.0, 1.0), (2.5, 0.9)),
        ("unit square, outside", domains.Rectangle(((0.0, 1.0), (0.0, 1.0))), (1.6, 0.4)),
        ("3-ball, outside", domains.Ball(3, 1.0), (1.8, 0.3, 0.0)),
        ("segment, inside", domains.Segment1D(1.0), (0.3,)),
    ]
    out = [
        ("adaptive_1d, scalar, root accepted", lambda: _quad.adaptive_1d(lin, 0.0, 1.0, 1e-9)),
        ("adaptive_1d, 3 intervals, root accepted", lambda: _quad.adaptive_1d(lin, *three)),
        ("adaptive_1d, 41-level log endpoint", lambda: _quad.adaptive_1d(log_end, 0.0, 1.0, 1e-12)),
        ("_edge_integral set-up, 3 pieces", _edge_setup()),
    ]
    for name, geo, p in oracle:
        dom = _unit(geo)
        out.append((f"potential_oracle, {name}",
                    lambda dom=dom, p=p: domains.potential_oracle(dom, p, 1e-9)))
    return out


def main():
    table = cases()
    for _, call in table:   # fill caches and lazy set-up
        call()
    times = [[] for _ in table]
    for _ in range(REPEATS):
        for spent, (_, call) in zip(times, table):
            t0 = time.perf_counter()
            for _ in range(CALLS):
                call()
            spent.append((time.perf_counter() - t0) / CALLS * 1e6)
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus, {REPEATS} repeats of {CALLS} calls")
    for (name, _), spent in zip(table, times):
        q1, med, q3 = statistics.quantiles(spent, n=4)
        print(f"{name:45s} {med:9.1f} us  (quartiles {q1:.1f}-{q3:.1f})")


if __name__ == "__main__":
    main()
