import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomblab._quad import adaptive_1d
from coulomblab.conformal import (
    InteriorPointError,
    LaurentMap,
    MapConstructionError,
    OffBoundaryError,
    circle_map,
    droplet_radii,
    ellipse_map,
    green3d,
    green_infinity,
    green_two_point,
    interval_map,
    quadratic_droplet,
    surface_density,
)
from coulomblab.domains import SingularityError


# ------------------------------------------------------------ map mechanics

def test_interval_map_green_value():
    mp = interval_map(1.0)
    g, cap, robin = green_infinity(mp, 2.0)
    assert abs(g - math.log(2.0 + math.sqrt(3.0))) < 1e-12
    assert abs(cap - 0.5) < 1e-15
    assert abs(robin - math.log(2.0)) < 1e-15


def test_unit_circle_capacity():
    mp = circle_map(1.0)
    g, cap, robin = green_infinity(mp, 3.0)
    assert abs(cap - 1.0) < 1e-15
    assert abs(robin) < 1e-15
    assert abs(g - math.log(3.0)) < 1e-13


def test_interval_capacity_equilibrium_oracle():
    # energy of the arcsine measure: (1/pi^2) int int -log|cos t - cos s|;
    # the s = t +- u^2 substitution turns the log line singularity into
    # u log u, which the adaptive rule resolves cheaply
    def inner_integral(t):
        def left(us):
            s = t - us * us
            return -np.log(np.abs(math.cos(t) - np.cos(s)) + 1e-300) * 2.0 * us

        def right(us):
            s = t + us * us
            return -np.log(np.abs(math.cos(t) - np.cos(s)) + 1e-300) * 2.0 * us

        v1, _ = adaptive_1d(left, 0.0, math.sqrt(t), 2e-9) if t > 0 else (0.0, 0.0)
        v2, _ = adaptive_1d(right, 0.0, math.sqrt(math.pi - t), 2e-9) \
            if t < math.pi else (0.0, 0.0)
        return v1 + v2

    def outer(ts):
        return np.array([inner_integral(float(t)) for t in ts])

    val, _ = adaptive_1d(outer, 0.0, math.pi, 1e-7)
    energy = val / math.pi ** 2
    _, cap, robin = green_infinity(interval_map(1.0), 2.0)
    assert abs(energy - robin) < 1e-6
    assert abs(cap - math.exp(-energy)) < 1e-6


def test_boundary_green_vanishes():
    mp = ellipse_map(2.0, 1.0)
    for th in np.linspace(0, 2 * math.pi, 9, endpoint=False):
        z = mp.boundary_point(th)
        g, _, _ = green_infinity(mp, z)
        assert abs(g) < 1e-10


def test_interior_point_rejected():
    mp = circle_map(1.0)
    with pytest.raises(InteriorPointError):
        green_infinity(mp, 0.3 + 0.1j)


def test_univalence_check_rejects_bad_ansatz():
    with pytest.raises(MapConstructionError):
        LaurentMap(1.0, (0.0, 1.5))  # |a_-1| > scale: boundary image crosses


def test_univalence_check_rejects_crossing_boundary():
    # every critical point lies inside the disk (largest |root| 0.967), so
    # only the polyline check can reject: the image of |w| = 1.001 has two
    # proper crossings
    with pytest.raises(MapConstructionError, match="self-intersects"):
        LaurentMap(1.0, (0.0, 0.55, 0.36, -0.03, -0.17))


def test_univalence_check_accepts_beyond_the_area_condition():
    # sum k |a_-k| = 1.17 > scale, yet the map is univalent on |w| > 1
    mp = LaurentMap(1.0, (0.0, -0.53, -0.32))
    assert mp.coefficients == (0j, -0.53 + 0j, -0.32 + 0j)


def _crosses_reference(pts):
    """Any proper crossing of two non-adjacent segments of a closed polyline,
    by the textbook orientation test over every pair."""
    def orient(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 2, n - 1 if i == 0 else n):
            c, d = pts[j], pts[(j + 1) % n]
            if orient(c, d, a) * orient(c, d, b) < 0 and \
                    orient(a, b, c) * orient(a, b, d) < 0:
                return True
    return False


def test_self_intersection_verdict_matches_reference():
    from coulomblab.conformal import _segments_intersect

    rng = np.random.default_rng(20261019)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(40, 121))
        c = rng.uniform(0.02, 0.3, 4) * np.exp(2j * math.pi * rng.random(4))
        w = 1.001 * np.exp(2j * math.pi * np.arange(n) / n)
        z = w + sum(ck / w ** (k + 1) for k, ck in enumerate(c))
        pts = np.column_stack([z.real, z.imag])
        expected = _crosses_reference(pts.tolist())
        assert bool(_segments_intersect(pts)) == expected, c
        verdicts.append(expected)
    assert min(verdicts.count(True), verdicts.count(False)) >= 50


# --------------------------------------------------------- surface density

def test_circle_density_constant():
    mp = circle_map(1.0)
    for th in (0.1, 1.0, 3.0):
        z = mp.boundary_point(th)
        assert abs(surface_density(mp, z) - 1.0 / (2 * math.pi)) < 1e-12


def test_ellipse_density_closed_form():
    # |z^2 - R^2 c^2|^{-1/2} profile; the unit-mass arc density is half the
    # slit-convention prefactor 1/pi (the interval limit covers the slit twice)
    a1, a2 = 2.0, 1.0
    mp = ellipse_map(a1, a2)
    big_r = a1 + a2
    c2 = (a1 - a2) / (a1 + a2)  # c^2 of the Joukowski parameters
    for th in np.linspace(0.05, 2 * math.pi, 7, endpoint=False):
        z = mp.boundary_point(th)
        target = 0.5 * abs(1.0 / cmath.sqrt(z * z - big_r ** 2 * c2)) / math.pi
        assert abs(surface_density(mp, z) - target) < 1e-10


def test_density_normalization_various_maps():
    for mp in (circle_map(2.0), ellipse_map(2.0, 1.0),
               LaurentMap(1.0, (0.3, 0.2 + 0.1j, 0.05))):
        def f(ths):
            out = np.empty_like(ths)
            for i, th in enumerate(ths):
                w = cmath.exp(1j * th)
                z = complex(mp.evaluate(w))
                out[i] = surface_density(mp, z) * abs(complex(mp.derivative(w)))
            return out
        total, _ = adaptive_1d(f, 0.0, 2 * math.pi, 1e-9)
        assert abs(total - 1.0) < 1e-8


def test_off_boundary_error():
    mp = circle_map(1.0)
    with pytest.raises(OffBoundaryError):
        surface_density(mp, 1.5 + 0.0j)


# ------------------------------------------------------ two-point functions

def test_disk_green_values():
    assert abs(green_two_point("disk", 2.0, 3.0) - math.log(5.0)) < 1e-13
    z = cmath.exp(0.7j)
    assert abs(green_two_point("disk", z, 2.5 + 1.0j)) < 1e-12


def test_halfplane_green_value():
    assert abs(green_two_point("halfplane", 1j, 2j) - math.log(3.0)) < 1e-13


def test_green_symmetry_and_boundary():
    rng = np.random.default_rng(42)
    mp = ellipse_map(2.0, 1.0)
    for _ in range(60):
        z = rng.uniform(1.1, 4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * 2
        w = rng.uniform(1.1, 4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * 2
        for geom in ("disk", mp):
            try:
                a = green_two_point(geom, z, w)
                b = green_two_point(geom, w, z)
            except InteriorPointError:
                continue
            assert abs(a - b) < 1e-12
    z_half = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
    w_half = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
    assert abs(green_two_point("halfplane", z_half, w_half)
               - green_two_point("halfplane", w_half, z_half)) < 1e-12
    # boundary vanishing
    assert abs(green_two_point("halfplane", 1.3, 0.5 + 1j)) < 1e-12


def test_conformal_transport_halfplane_to_disk():
    # zeta(z) = (z+i)/(z-i) maps the upper half plane to the disk exterior
    rng = np.random.default_rng(1)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        w = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        if abs(z - w) < 1e-3:
            continue
        zz = (z + 1j) / (z - 1j)
        ww = (w + 1j) / (w - 1j)
        assert abs(green_two_point("halfplane", z, w)
                   - green_two_point("disk", zz, ww)) < 1e-12


def test_singularity_coefficient():
    # G(z, w) + log|z - w| stays bounded as w -> z
    z = 2.0 + 0.5j
    vals = []
    for eps in (1e-2, 1e-4, 1e-6):
        w = z + eps
        vals.append(green_two_point("disk", z, w) + math.log(abs(z - w)))
    assert abs(vals[-1] - vals[-2]) < 1e-2


def test_green_singularity_error():
    with pytest.raises(SingularityError):
        green_two_point("disk", 2.0, 2.0)


def test_green3d_values():
    assert abs(green3d("sphere", [2, 0, 0], [3, 0, 0]) - 0.8) < 1e-13
    assert abs(green3d("sphere", [1, 0, 0], [3, 0, 0])) < 1e-12
    assert abs(green3d("halfspace", [0, 0, 1], [0, 0, 2]) - 2.0 / 3.0) < 1e-13


def test_green3d_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r = rng.uniform(-2, 2, 3)
        rp = rng.uniform(-2, 2, 3)
        r[2], rp[2] = abs(r[2]) + 0.05, abs(rp[2]) + 0.05
        a = green3d("halfspace", r, rp)
        b = green3d("halfspace", rp, r)
        assert abs(a - b) < 1e-12
        ro = r / np.linalg.norm(r) * rng.uniform(1.05, 3)
        rpo = rp / np.linalg.norm(rp) * rng.uniform(1.05, 3)
        assert abs(green3d("sphere", ro, rpo) - green3d("sphere", rpo, ro)) < 1e-12


# ---------------------------------------------------- green vs density route

def test_green_infinity_from_surface_density():
    mp = ellipse_map(2.0, 1.0)
    _, _, robin = green_infinity(mp, 5.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.uniform(1.2, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * 2.0

        def f(ths):
            out = np.empty_like(ths)
            for i, th in enumerate(ths):
                w = cmath.exp(1j * th)
                bz = complex(mp.evaluate(w))
                out[i] = math.log(abs(z - bz)) * surface_density(mp, bz) \
                    * abs(complex(mp.derivative(w)))
            return out

        integral, _ = adaptive_1d(f, 0.0, 2 * math.pi, 1e-9)
        g_quad = robin + integral
        g, _, _ = green_infinity(mp, z)
        assert abs(g - g_quad) < 1e-6


# ------------------------------------------------------------------ droplets

def test_quadratic_droplet_trivial():
    mp = quadratic_droplet(0.0, math.pi)
    assert abs(mp.scale - 1.0) < 1e-14
    assert abs(mp.coefficients[1]) < 1e-14


def test_quadratic_droplet_area_identity():
    alpha = -0.25
    area = 2.2
    mp = quadratic_droplet(alpha, area)
    a1 = mp.scale
    am1 = mp.coefficients[1].real
    assert abs(math.pi * (a1 ** 2 - am1 ** 2) - area) < 1e-12


def test_quadratic_droplet_boundary_is_ellipse():
    alpha = -0.25
    mp = quadratic_droplet(alpha, math.pi * (1 - (2 * alpha) ** 2))
    sx = mp.scale * (1 - 2 * alpha)   # 1.5
    sy = mp.scale * (1 + 2 * alpha)   # 0.5
    for th in np.linspace(0, 2 * math.pi, 33):
        z = mp.boundary_point(th)
        resid = (z.real / sx) ** 2 + (z.imag / sy) ** 2 - 1.0
        assert abs(resid) < 1e-10


def test_quadratic_droplet_parameter_error():
    with pytest.raises(ValueError):
        quadratic_droplet(-0.5, 1.0)


def test_droplet_radii_examples():
    r0, r1 = droplet_radii(lambda r: 2 * r)
    assert r0 == 0.0
    assert abs(r1 - 1.0) < 1e-10

    alpha = 0.7
    r0, r1 = droplet_radii(lambda r: 2 * r - 2 * alpha / r)
    assert abs(r0 - math.sqrt(alpha)) < 1e-10
    assert abs(r1 - math.sqrt(1 + alpha)) < 1e-10

    r0, r1 = droplet_radii(lambda r: 4 * r ** 3)
    assert r0 == 0.0
    assert abs(r1 - 2.0 ** -0.25) < 1e-10


def test_droplet_radii_errors():
    # concave q: r q'(r) decreasing
    with pytest.raises(ValueError):
        droplet_radii(lambda r: -2 * r)
    # bounded r q'(r) = 2 r^2 / (1 + r^2)
    with pytest.raises(ValueError, match="never reaches 2"):
        droplet_radii(lambda r: 2 * r / (1 + r * r))


@pytest.mark.parametrize("alpha", [64.0, 100.0, 1e6])
def test_induced_droplet_radii_beyond_eight(alpha):
    # r1 = sqrt(1 + alpha) > 8: the bisection interval grows to reach it
    r0, r1 = droplet_radii(lambda r: 2 * r - 2 * alpha / r)
    assert abs(r0 - math.sqrt(alpha)) <= 1e-12 * math.sqrt(alpha)
    assert abs(r1 - math.sqrt(1 + alpha)) <= 1e-12 * math.sqrt(1 + alpha)


@given(st.floats(min_value=-0.45, max_value=0.0),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_droplet_area_property(alpha, area):
    mp = quadratic_droplet(alpha, area)
    a1 = mp.scale
    am1 = mp.coefficients[1].real
    assert abs(math.pi * (a1 ** 2 - am1 ** 2) - area) < 1e-10 * max(1.0, area)
