"""Print the fixed per-call costs of the quadrature layer and the
quadrature oracles, in microseconds (the projection identity in
milliseconds), as medians of interleaved repeats.

Run from the repository root:

    PYTHONPATH=src python scripts/quad_overhead.py

Each repeat times every case once (a few calls each, cases in turn), so a
slow spell of a shared machine falls on all cases alike; each line gives a
case's median over the repeats and the quartiles.  Cases:

- ``adaptive_1d`` on a linear integrand, one interval and three intervals,
  accepted at the root;
- ``adaptive_1d`` on -log|x| cos x over [0, 1] at tol 1e-12, a tree of 41
  levels with one or two panels each;
- ``domains._edge_integral`` of a constant, accepted at the root, on four
  quarter turns (the planar oracle's pieces) and on the unit cube's 48 facet
  pieces at an inside point: the piece table's own cost per call;
- one ``potential_oracle`` point at tol 1e-9 per 2d class of the ``oracle``
  benchmark workload and the segment, and two each of the 3-ball, the unit
  cube and the 1 x 1.5 x 2 ellipsoid (inside and outside);
- ``BalayageMeasure.potential`` of the ellipse 2x1 at one exterior point,
  the angular sweep of its boundary measure;
- ``surfaces.projection_identities("constant-potential", d=3)``: ten points
  of the disk, each a sweep of batched weighted rays.
"""

from __future__ import annotations

import itertools
import math
import os
import platform
import statistics
import time

import numpy as np

from coulomblab import _quad, balayage, domains, surfaces

CALLS = 3   # calls per case per repeat
REPEATS = 200


def _unit(geo):
    return domains.UniformDomain(geo, 1.0)


def _quarter_turns(tol):
    """The four quarter turns of ``domains._oracle_2d``, support edges at 0."""
    return [(0.5 * math.pi * n, 0.5 * math.pi * (n + 1), n == 0, n == 3, 0.25 * tol)
            for n in range(4)]


def _cube_facet_pieces(y, tol):
    """The unit cube's 48 pieces at the inside point y as ``domains._oracle_box``
    cuts them: each of 24 face-edge chains along axis k, split at y's foot."""
    pieces = []
    for *_, k in itertools.permutations(range(3)):
        foot = y[k] - 0.5
        pieces += [(-0.5, foot, False, True, tol / 48), (foot, 0.5, True, False, tol / 48)] * 4
    return pieces


def cases():
    lin = lambda x: 0.5 * x  # noqa: E731
    log_end = lambda x: -np.log(np.abs(x) + 1e-300) * np.cos(x)  # noqa: E731
    three = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 1e-9)
    ellipsoid = domains.Hyperellipsoid((1.0, 1.5, 2.0))
    oracle = [
        ("disk, inside", domains.Ball(2, 1.0), (0.3, 0.2)),
        ("disk, outside", domains.Ball(2, 1.0), (1.3, 0.9)),
        ("annulus, in the hole", domains.Annulus2D(1.0, 0.5), (0.2, 0.1)),
        ("ellipse 2x1, inside", domains.Ellipse2D(2.0, 1.0), (1.7, 0.2)),
        ("ellipse 2x1, outside", domains.Ellipse2D(2.0, 1.0), (2.5, 0.9)),
        ("unit square, outside", domains.Rectangle(((0.0, 1.0), (0.0, 1.0))), (1.6, 0.4)),
        ("3-ball, inside", domains.Ball(3, 1.0), (0.3, 0.2, 0.1)),
        ("3-ball, outside", domains.Ball(3, 1.0), (1.8, 0.3, 0.0)),
        ("hyperellipsoid 1x1.5x2, inside", ellipsoid, (0.2, 0.1, 0.3)),
        ("hyperellipsoid 1x1.5x2, outside", ellipsoid, (2.5, 1.0, 0.5)),
        ("unit cube, inside", domains.Cuboid(((0.0, 1.0),) * 3), (0.3, 0.6, 0.4)),
        ("unit cube, outside", domains.Cuboid(((0.0, 1.0),) * 3), (1.6, 0.4, 0.7)),
        ("segment, inside", domains.Segment1D(1.0), (0.3,)),
    ]
    out = [
        ("adaptive_1d, scalar, root accepted", lambda: _quad.adaptive_1d(lin, 0.0, 1.0, 1e-9)),
        ("adaptive_1d, 3 intervals, root accepted", lambda: _quad.adaptive_1d(lin, *three)),
        ("adaptive_1d, 41-level log endpoint", lambda: _quad.adaptive_1d(log_end, 0.0, 1.0, 1e-12)),
    ]
    const = lambda t, k: np.ones_like(t)  # noqa: E731
    for name, pieces in (("4 quarter turns", _quarter_turns(1e-9)),
                         ("48 unit-cube facet pieces", _cube_facet_pieces((0.3, 0.6, 0.4), 1e-9))):
        out.append((f"_edge_integral, {name}",
                    lambda pieces=pieces: domains._edge_integral(const, pieces)))
    for name, geo, p in oracle:
        dom = _unit(geo)
        out.append((f"potential_oracle, {name}",
                    lambda dom=dom, p=p: domains.potential_oracle(dom, p, 1e-9)))
    measure = balayage.balayage_measure(_unit(domains.Ellipse2D(2.0, 1.0)))
    out.append(("BalayageMeasure.potential, ellipse 2x1",
                lambda: measure.potential((2.5, 0.9))))
    out.append(("projection_identities, constant-potential d=3 [ms]",
                lambda: surfaces.projection_identities("constant-potential", d=3)))
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
        unit, scale = ("ms", 1e-3) if name.endswith("[ms]") else ("us", 1.0)
        q1, med, q3 = (q * scale for q in statistics.quantiles(spent, n=4))
        print(f"{name.removesuffix(' [ms]'):50s} {med:9.1f} {unit}  (quartiles {q1:.1f}-{q3:.1f})")


if __name__ == "__main__":
    main()
