import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomblab._quad import gl_nodes
from coulomblab.conformal import circle_map, ellipse_map, green_two_point, interval_map
from coulomblab.domains import SingularityError
from coulomblab.fluctuations import (
    covariance_circle,
    covariance_mapped,
    cue_kernel,
    subblock_kernel,
    surface_correlation,
)


# ------------------------------------------------------------------- kernels

def test_cue_kernel_diagonal_limit():
    assert abs(cue_kernel(7, 0.3, 0.3) - 7 / (2 * math.pi)) < 1e-14


def test_cue_kernel_zero():
    assert abs(cue_kernel(2, math.pi, 0.0)) < 1e-14


def test_cue_kernel_normalization():
    # trapezoid over the diagonal: integral of K_N(t, t) dtheta = N
    for n_modes in (3, 10):
        theta = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        total = sum(cue_kernel(n_modes, t, t) for t in theta) * (2 * math.pi / 256)
        assert abs(total - n_modes) < 1e-12


def test_subblock_plain_values():
    assert abs(subblock_kernel(3, 0.0, 0.0) - 1 / math.pi) < 1e-14
    # z conj(z') = 1 degenerate point
    val = subblock_kernel(5, cmath.exp(0.3j), cmath.exp(0.3j))
    assert abs(val - 5 * 6 / (2 * math.pi)) < 1e-13


def test_subblock_density_positive_and_growing():
    vals = [subblock_kernel(20, r, r) for r in (0.0, 0.5, 0.9)]
    assert vals[0] < vals[1] < vals[2]


def test_subblock_closed_form_vs_direct_sum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n_modes = int(rng.integers(2, 40))
        z = rng.uniform(0.1, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = rng.uniform(0.1, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        direct = sum(j * (z * w.conjugate()) ** (j - 1)
                     for j in range(1, n_modes + 1)) / math.pi
        val = subblock_kernel(n_modes, z, w)
        assert abs(val - direct) < 1e-12 * max(1.0, abs(direct))


def test_subblock_smoothed_limit():
    val = subblock_kernel(200, 1.0, -1.0, smoothed=True)
    target = (1 / (2 * math.pi)) ** 2 / 4.0
    assert abs(val / target - 1.0) < 0.02


def test_subblock_smoothed_radial_quadrature_oracle():
    # independent radial quadrature of the same asymptotic density
    n_modes, dtheta = 150, 2.0
    x, w = gl_nodes(300)
    r = 0.5 * (x + 1.0)
    wq = 0.5 * w
    acc = 0.0
    for ri, wi in zip(r, wq):
        s = ri * r
        dens = (n_modes ** 2 / math.pi ** 2) * s ** (2 * n_modes) \
            / (1.0 - 2.0 * s * math.cos(dtheta) + s * s)
        acc += wi * ri * float(np.sum(dens * r * wq))
    val = subblock_kernel(n_modes, cmath.exp(1j * dtheta), 1.0, smoothed=True)
    assert abs(val - acc) < 1e-10


# ------------------------------------------------------------- covariances

def test_constant_statistic_vanishes():
    assert covariance_circle(lambda t: 3.0, lambda t: -1.0) == 0.0


def test_cosine_covariance_both_routes():
    for route in ("fourier", "quadrature"):
        val = covariance_circle(math.cos, math.cos, beta=2.0, route=route)
        assert abs(val - 0.5) < 1e-10


def test_cos2_covariance():
    val = covariance_circle(lambda t: math.cos(2 * t), lambda t: math.cos(2 * t))
    assert abs(val - 1.0) < 1e-10


def test_route_equivalence_trig_polynomials():
    cases = [
        lambda t: math.cos(t),
        lambda t: math.sin(t) + 0.5 * math.cos(3 * t),
        lambda t: math.cos(2 * t) - 2.0 * math.sin(5 * t),
        lambda t: 1.0 + math.cos(t) + math.cos(4 * t),
        lambda t: math.sin(7 * t) * 0.25 + math.cos(2 * t),
    ]
    for f in cases:
        a = covariance_circle(f, f, route="fourier")
        b = covariance_circle(f, f, route="quadrature")
        assert abs(a - b) < 1e-8


def test_beta_scaling():
    v2 = covariance_circle(math.cos, math.cos, beta=2.0)
    v4 = covariance_circle(math.cos, math.cos, beta=4.0)
    assert abs(v4 - 0.5 * v2) < 1e-14


def test_bilinearity_and_symmetry():
    f1 = lambda t: math.cos(t)
    f2 = lambda t: math.sin(2 * t)
    g = lambda t: math.cos(3 * t) + math.sin(t)
    a = 1.7
    combo = lambda t: a * f1(t) + f2(t)
    lhs = covariance_circle(combo, g)
    rhs = a * covariance_circle(f1, g) + covariance_circle(f2, g)
    assert abs(lhs - rhs) < 1e-10
    assert abs(covariance_circle(f1, g) - covariance_circle(g, f1)) < 1e-10


def test_mapped_identity_reduces_to_circle():
    mp = circle_map(1.0)
    f = lambda z: z.real
    a = covariance_mapped(mp, f, f, beta=2.0, convention="contour")
    b = covariance_circle(math.cos, math.cos, beta=2.0)
    assert abs(a - b) < 1e-10


def test_mapped_interval_doubling():
    mp = interval_map(1.0)
    f = lambda z: z.real
    val = covariance_mapped(mp, f, f, beta=2.0, convention="interval")
    assert abs(val - 2.0 * 0.5) < 1e-10


def test_mapped_ellipse_self_convergence():
    mp = ellipse_map(2.0, 1.0)
    f = lambda z: z.real
    coarse = covariance_mapped(mp, f, f, beta=2.0, m=1024)
    fine = covariance_mapped(mp, f, f, beta=2.0, m=8192)
    assert abs(coarse - fine) < 1e-3 * max(1.0, abs(fine))
    assert abs(fine - 2.0) < 1e-10  # Re z pulls back to 2 cos(theta)


def test_convention_prefactors():
    mp = circle_map(1.0)
    f = lambda z: z.real
    contour = covariance_mapped(mp, f, f, beta=2.0, convention="contour")
    background = covariance_mapped(mp, f, f, beta=2.0, convention="background")
    interval = covariance_mapped(mp, f, f, beta=2.0, convention="interval")
    assert abs(background - 0.5 * contour) < 1e-14
    assert abs(interval - 2.0 * contour) < 1e-14


# ------------------------------------------------------- surface correlations

def test_disk_correlation_value():
    val = surface_correlation("disk", 2.0, math.pi, 0.0)
    assert abs(val + 1.0 / (16 * math.pi ** 2)) < 1e-12


def test_halfplane_correlation_value():
    val = surface_correlation("halfplane2d", 2.0, 1.0, 0.0)
    assert abs(val + 1.0 / (4 * math.pi ** 2)) < 1e-14


def test_halfspace_correlation_value():
    val = surface_correlation("halfspace3d", 1.0, [0.0, 0.0], [1.0, 0.0])
    assert abs(val + 1.0 / (8 * math.pi ** 2)) < 1e-14


def test_coincident_points_raise():
    with pytest.raises(SingularityError):
        surface_correlation("disk", 2.0, 1.0, 1.0)
    with pytest.raises(SingularityError):
        surface_correlation("halfplane2d", 2.0, 0.5, 0.5)


def test_disk_correlation_from_green_function():
    # linear-response route: central finite differences of the disk Green
    # function across the boundary
    beta, radius = 2.0, 1.0
    h = 1e-3
    th1, th2 = 0.2, 2.4

    def g(r1, r2):
        z = r1 * cmath.exp(1j * th1)
        w = r2 * cmath.exp(1j * th2)
        return -math.log(abs(z - w) / abs(1.0 - z * w.conjugate() / radius ** 2))

    d2g = (g(radius + h, radius + h) - g(radius + h, radius - h)
           - g(radius - h, radius + h) + g(radius - h, radius - h)) / (4 * h * h)
    fd_route = -d2g / (beta * (2 * math.pi) ** 2)
    assert abs(fd_route - surface_correlation("disk", beta, th1, th2)) < 1e-6


def test_linear_response_identity():
    # Cov(-log|e^{it} - z|, -log|e^{it} - w|) = -(1/beta)(g + log|z-w| - log|zw|)
    for beta in (2.0, 4.0):
        for z, w in ((1.5, 3.0), (1.5 + 0.5j, -2.0 + 1.0j), (3.0j, 1.2 - 0.9j)):
            f = lambda t, z=z: -math.log(abs(cmath.exp(1j * t) - z))
            g = lambda t, w=w: -math.log(abs(cmath.exp(1j * t) - w))
            cov = covariance_circle(f, g, beta=beta)
            green = green_two_point("disk", z, w)
            rhs = -(1.0 / beta) * (green + math.log(abs(z - w))
                                   - math.log(abs(z * w)))
            assert abs(cov - rhs) < 1e-8


def test_close_points_keep_their_digits():
    # against the chord 2 sin(d/2) = |e^{i t1} - e^{i t2}|: a kernel built from
    # the two rounded unit vectors loses ~1e-16/d of its relative accuracy
    mp = ellipse_map(2.0, 1.0)
    for d in (1e-4, 1e-6, 1e-8):
        t1, t2 = 0.7 + d, 0.7
        chord2 = (2.0 * math.sin(0.5 * (t1 - t2))) ** 2
        disk = surface_correlation(("disk", 1.5), 2.0, t1, t2)
        assert abs(disk * (4.0 * math.pi ** 2 * chord2 * 1.5 * 1.5) + 1.0) < 1e-14, d
        h1, h2 = (abs(complex(mp.derivative(cmath.exp(1j * t)))) for t in (t1, t2))
        ellipse = surface_correlation(("ellipse", 2.0, 1.0), 2.0, t1, t2)
        assert abs(ellipse * (4.0 * math.pi ** 2 * chord2 * h1 * h2) + 1.0) < 1e-14, d


def test_ellipse_reduces_to_disk():
    # circular ellipse: the curvilinear formula must match the disk value
    th1, th2 = 0.4, 1.9
    a = surface_correlation(("ellipse", 1.0, 1.0), 2.0, th1, th2)
    b = surface_correlation(("disk", 1.0), 2.0, th1, th2)
    assert abs(a - b) < 1e-12


@given(st.floats(min_value=0.3, max_value=6.0),
       st.floats(min_value=0.1, max_value=2 * math.pi - 0.1))
@settings(max_examples=30, deadline=None)
def test_disk_correlation_negative_and_symmetric(beta, dtheta):
    a = surface_correlation("disk", beta, dtheta, 0.0)
    b = surface_correlation("disk", beta, 0.0, dtheta)
    assert a < 0
    assert abs(a - b) < 1e-15
