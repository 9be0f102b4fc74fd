"""`oracle` workload: quadrature-bound evaluations at points drawn from the
seed.

Each round calls, on the same inputs:
- `domains.potential_oracle` (tol 1e-9) at 24 points on each of the disk,
  the annulus (in its hole), the ellipse interior and the ellipse exterior,
  at 8 on each of the 3-ball, cube and segment, and at one fixed exterior
  point of the unit square;
- `BalayageMeasure.potential` at 4 exterior points of each of the disk, the
  annulus and two ellipses;
- `balayage.hole_energy` on two disks, two annuli and two ellipses.

Radii are stratified (one draw in each of k equal slices of a fixed band)
so the cost of a round varies little with the seed.

The 2d ray oracle misses some rectangle points (interior and exterior) and
some annulus points in the ring or outside it by up to 6e-5 relative,
against a reported error near 1e-16, on 0.1-7% of random points.  A check that fails on some
seeds only cannot gate a run, so those classes are not drawn at random; the
fixed rectangle point below fails the same way every round and is counted in
`failed` (it is the run's one expected failure).  References come from
`references`: textbook forms for the disk, annulus, 3-ball, segment and
ellipse interior, `scipy.integrate` for the rest.
"""

from __future__ import annotations

import math

import numpy as np

import checks
import references as ref
from harness import Op

TOL = 1e-9
HOLE_RTOL = 1e-8
MIN_ABS = 0.05   # every reference is at least this far from zero

ELLIPSE = (2.0, 1.0)
RECT = ((0.0, 1.0), (0.0, 1.0))
CUBE = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
# potential_oracle misses the scipy reference here by 1.9e-5 relative while
# its own error estimate is ~5e-17
RECT_FAULT_POINT = (1.62961129, 0.41572916)

# bodies whose balayage measures are evaluated: (kind, sizes..., charge)
BODIES = (("disk", 1.0, 1.0), ("annulus", 1.0, 0.5, 1.0),
          ("ellipse", 2.0, 1.0, 1.0), ("ellipse", 1.5, 1.2, 1.0))

SETUP_CODE = """
from coulomblab import balayage as bal, domains as dom
doms = [dom.UniformDomain(g, 1.0) for g in (
    dom.Ball(2, 1.0), dom.Annulus2D(1.0, 0.5), dom.Ellipse2D(2.0, 1.0),
    dom.Rectangle(((0.0, 1.0), (0.0, 1.0))), dom.Ball(3, 1.0),
    dom.Cuboid(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))), dom.Segment1D(1.0))]
measures = [bal.balayage_measure(dom.UniformDomain(g, 1.0)) for g in (
    dom.Ball(2, 1.0), dom.Annulus2D(1.0, 0.5), dom.Ellipse2D(2.0, 1.0),
    dom.Ellipse2D(1.5, 1.2))]
"""


def _strata(rng, lo, hi, k):
    """k values, one uniform draw in each of k equal slices of [lo, hi]:
    the cost of a round then depends little on the seed."""
    return [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]


def _direction(rng, d=2):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _radial(rng, lo, hi, k, d=2):
    return [tuple(float(x) for x in r * _direction(rng, d)) for r in _strata(rng, lo, hi, k)]


def _elliptic(rng, a1, a2, lo, hi, k):
    out = []
    for u in _strata(rng, lo, hi, k):
        t = rng.uniform(0.0, 2.0 * math.pi)
        out.append((a1 * u * math.cos(t), a2 * u * math.sin(t)))
    return out


def _cube_points(rng, k_in, k_out):
    """Interior points 0.05 from the faces, and points outside one face by
    0.2-1.0 (stratified) and inside the other two slabs."""
    pts = [tuple(float(x) for x in rng.uniform(0.05, 0.95, 3)) for _ in range(k_in)]
    for off in _strata(rng, 0.2, 1.0, k_out):
        p = rng.uniform(0.05, 0.95, 3)
        axis = int(rng.integers(3))
        p[axis] = 1.0 + off if rng.random() < 0.5 else -off
        pts.append(tuple(float(x) for x in p))
    return pts


def _segment_points(rng, k_in, k_out):
    return [(x,) for x in _strata(rng, -0.9, 0.9, k_in)] + \
        [(float(rng.choice([-1.0, 1.0])) * x,) for x in _strata(rng, 1.2, 2.5, k_out)]


def oracle_cases(seed):
    """[(class, point, reference)] for potential_oracle, in round order.

    Unit charge throughout.  Per class: the disk 8 interior and 16 exterior
    points, the annulus 24 in its hole, the ellipse 24 inside (elliptic
    radius 0.05-0.25 and 0.7-0.95, where the potential stays away from zero)
    and 24 outside (1.2-2.0); the 3-ball, cube and segment 3 inside and 5
    outside each.
    """
    rng = np.random.default_rng([seed, 1])
    a1, a2 = ELLIPSE
    plan = [
        ("disk", _radial(rng, 0.2, 0.8, 8) + _radial(rng, 1.3, 2.5, 16),
         lambda p: ref.disk_potential(1.0, 1.0, p)),
        ("annulus", _radial(rng, 0.1, 0.4, 24),
         lambda p: ref.annulus_potential(1.0, 0.5, 1.0, p)),
        ("ellipse_in", _elliptic(rng, a1, a2, 0.05, 0.25, 12) + _elliptic(rng, a1, a2, 0.7, 0.95, 12),
         lambda p: ref.ellipse_interior_potential(a1, a2, 1.0, p)),
        ("ellipse_out", _elliptic(rng, a1, a2, 1.2, 2.0, 24),
         lambda p: ref.ellipse_log_integral(a1, a2, p) / (math.pi * a1 * a2)),
        ("ball3", _radial(rng, 0.1, 0.9, 3, 3) + _radial(rng, 1.2, 2.5, 5, 3),
         lambda p: ref.ball3_potential(1.0, 1.0, p)),
        ("cuboid", _cube_points(rng, 3, 5), lambda p: -ref.cuboid_newton_integral(CUBE, p)),
        ("segment", _segment_points(rng, 3, 5), lambda p: ref.segment_potential(1.0, 1.0, p[0])),
    ]
    cases = [(cls, p, reference(p)) for cls, points, reference in plan for p in points]
    small = [c for c in cases if abs(c[2]) < MIN_ABS]
    if small:
        raise ValueError(f"references too close to zero for a relative check: {small}")
    return cases


def balayage_cases(seed):
    """[(body, point, reference)]: four exterior points per body (for the
    annulus two of them in the hole)."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for body in BODIES:
        if body[0] == "ellipse":
            pts = _elliptic(rng, body[1], body[2], 1.2, 2.0, 4)
        elif body[0] == "annulus":
            pts = _radial(rng, 1.3, 2.5, 2) + _radial(rng, 0.1, 0.4, 2)
        else:
            pts = _radial(rng, 1.3, 2.5, 4)
        out += [(body, p, ref.body_exterior_potential(body, p)) for p in pts]
    return out


def hole_cases(seed):
    """[(hole spec, reference energy)]: two disks, annuli and ellipses."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for a in _strata(rng, 0.5, 1.5, 2):
        out.append((("disk", a), ref.hole_energy_disk(a)))
    for big_r, c in zip(_strata(rng, 0.8, 1.6, 2), _strata(rng, 0.3, 0.7, 2)):
        out.append((("annulus", big_r, c), ref.hole_energy_annulus(big_r, c)))
    for e1, e2 in zip(_strata(rng, 1.2, 2.0, 2), _strata(rng, 0.6, 1.1, 2)):
        out.append((("ellipse", e1, e2), ref.hole_energy_ellipse(e1, e2)))
    return out


def reference_table(seed):
    """Every input and reference of one seed, for `references.py`."""
    fault = ("rectangle_fault", RECT_FAULT_POINT,
             ref.rectangle_log_integral(RECT, RECT_FAULT_POINT))
    return {"potential_oracle": [list(c) for c in oracle_cases(seed)] + [list(fault)],
            "balayage_potential": [list(c) for c in balayage_cases(seed)],
            "hole_energy": [list(c) for c in hole_cases(seed)]}


class OracleWorkload:
    name = "oracle"
    setup_code = SETUP_CODE

    def __init__(self, seed):
        from coulomblab import balayage as bal
        from coulomblab import domains as dom

        self.dom, self.bal = dom, bal
        a1, a2 = ELLIPSE
        geos = {"disk": dom.Ball(2, 1.0), "annulus": dom.Annulus2D(1.0, 0.5),
                "ellipse_in": dom.Ellipse2D(a1, a2), "ellipse_out": dom.Ellipse2D(a1, a2),
                "rectangle": dom.Rectangle(RECT), "ball3": dom.Ball(3, 1.0),
                "cuboid": dom.Cuboid(CUBE), "segment": dom.Segment1D(1.0)}
        self.domains = {k: dom.UniformDomain(g, 1.0) for k, g in geos.items()}
        self.oracle_cases = oracle_cases(seed)
        self.fault_ref = ref.rectangle_log_integral(RECT, RECT_FAULT_POINT)
        self.balayage_cases = [
            (body, bal.balayage_measure(dom.UniformDomain(self.planar(*body[:-1]), body[-1])), p, v)
            for body, p, v in balayage_cases(seed)]
        self.hole_cases = [(self.planar(*spec), spec[0], v) for spec, v in hole_cases(seed)]

    def planar(self, kind, *sizes):
        dom = self.dom
        return {"disk": lambda a: dom.Ball(2, a), "annulus": dom.Annulus2D,
                "ellipse": dom.Ellipse2D}[kind](*sizes)

    def warm(self):
        for cls, p, _ in self.oracle_cases[::8]:
            self.dom.potential_oracle(self.domains[cls], p, TOL)

    def round_ops(self, r):
        dom, bal = self.dom, self.bal
        ops = []
        for cls, p, v in self.oracle_cases:
            ops.append(Op(f"potential_oracle.{cls}",
                          lambda d=self.domains[cls], p=p: dom.potential_oracle(d, p, TOL),
                          lambda res, v=v: checks.rel_check(res.value, v, checks.ORACLE_RTOL)))
        ops.append(Op("potential_oracle.rectangle",
                      lambda: dom.potential_oracle(self.domains["rectangle"],
                                                   RECT_FAULT_POINT, TOL),
                      lambda res: checks.rel_check(res.value, self.fault_ref,
                                                   checks.ORACLE_RTOL),
                      known_fault="potential_oracle misses exterior rectangle points"))
        for body, measure, p, v in self.balayage_cases:
            ops.append(Op(f"balayage_potential.{body[0]}",
                          lambda m=measure, p=p: m.potential(p),
                          lambda val, v=v: checks.rel_check(val, v, checks.ORACLE_RTOL)))
        for geo, kind, v in self.hole_cases:
            ops.append(Op(f"hole_energy.{kind}",
                          lambda g=geo: bal.hole_energy(bal.HoleSpec(g)),
                          lambda val, v=v: checks.rel_check(val, v, HOLE_RTOL)))
        return ops

    def finish(self):
        return []
