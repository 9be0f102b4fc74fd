import math

import numpy as np
import pytest

from coulomblab._quad import adaptive_1d
from coulomblab.balayage import (
    BalayageMeasure,
    HoleSpec,
    annulus_weights,
    balayage_measure,
    exterior_moment,
    gap_and_tail,
    hole_energy,
)
from coulomblab.domains import (
    Annulus2D,
    Ball,
    Cuboid,
    Ellipse2D,
    Hyperellipsoid,
    Rectangle,
    Segment1D,
    UniformDomain,
    UnsupportedRegionError,
    background_potential,
    interaction_energy,
    potential_oracle,
)


def body_exterior_potential(dom, p):
    """Potential of the positively charged uniform body (+N)."""
    geo = dom.geometry
    if isinstance(geo, Ellipse2D):
        return -potential_oracle(dom, p, 1e-9).value
    return -background_potential(dom, p)


# ----------------------------------------------------------------- measures

def test_ball_shell_density():
    m = balayage_measure(UniformDomain(Ball(3, 1.0), 1.0))
    assert abs(m.components[0].density(0.3) - 1.0 / (4 * math.pi)) < 1e-14
    assert abs(m.total_mass - 1.0) < 1e-14


def test_annulus_weights_printed_system():
    alpha_w, beta_w = annulus_weights(0.5)
    assert abs(beta_w - (1.0 / (2.0 * math.log(2.0)) - 1.0 / 3.0)) < 1e-13
    assert abs(alpha_w - (1.0 - beta_w)) < 1e-15
    # both printed equations simultaneously
    for c in (0.3, 0.5, 0.7):
        a_w, b_w = annulus_weights(c)
        assert abs(a_w + b_w - 1.0) < 1e-12
        assert abs(-b_w * math.log(c)
                   - (0.5 + c * c * math.log(c) / (1.0 - c * c))) < 1e-12


def test_degenerate_ellipse_is_uniform_circle():
    m = balayage_measure(UniformDomain(Ellipse2D(1.0, 1.0), 1.0))
    dens = [m.components[0].density(t) for t in np.linspace(0, 2 * math.pi, 9)]
    assert max(dens) - min(dens) < 1e-14


def test_mass_conservation():
    for geo in (Ball(2, 1.3), Annulus2D(1.0, 0.4), Ellipse2D(2.0, 1.0)):
        dom = UniformDomain(geo, 2.7)
        m = balayage_measure(dom)
        assert abs(sum(c.mass for c in m.components) - 2.7) < 1e-10


def test_densities_nonnegative():
    m = balayage_measure(UniformDomain(Ellipse2D(3.0, 1.0), 1.0))
    for t in np.linspace(0, 2 * math.pi, 33):
        assert m.components[0].density(t) >= 0.0


def test_component_point_and_density_on_arrays():
    thetas = np.linspace(0.0, 2 * math.pi, 17)
    for geo in (Ball(2, 1.3), Annulus2D(1.0, 0.4), Ellipse2D(2.0, 1.0)):
        for comp in balayage_measure(UniformDomain(geo, 2.7)).components:
            stacked = np.stack([comp.point(t) for t in thetas])
            assert np.array_equal(comp.point(thetas), stacked)
            dens = np.broadcast_to(comp.density(thetas), thetas.shape)
            assert np.array_equal(dens, [comp.density(t) for t in thetas])


def test_unsupported_geometry():
    with pytest.raises(UnsupportedRegionError):
        balayage_measure(UniformDomain(Cuboid(((0, 1), (0, 1), (0, 1))), 1.0))


def test_exterior_potential_matching():
    rng = np.random.default_rng(31)
    cases = [Ball(2, 1.0)] + \
        [Annulus2D(1.0, c) for c in (0.3, 0.5, 0.7)] + \
        [Ellipse2D(2.0, 1.0), Ellipse2D(3.0, 1.0)]
    for geo in cases:
        dom = UniformDomain(geo, 1.0)
        m = balayage_measure(dom)
        scale = getattr(geo, "R", None) or geo.a1
        for _ in range(6):
            th = rng.uniform(0, 2 * math.pi)
            rad = scale * rng.uniform(1.15, 3.0)
            p = np.array([rad * math.cos(th), rad * math.sin(th)])
            diff = abs(m.potential(p) - body_exterior_potential(dom, p))
            assert diff < 1e-6
        if isinstance(geo, Annulus2D):
            # the hollow core is exterior too
            p = np.array([0.05, -0.02])
            assert abs(m.potential(p) - body_exterior_potential(dom, p)) < 1e-8


def test_measure_mass_mismatch_rejected():
    from coulomblab.balayage import BalayageComponent

    comp = BalayageComponent("circle", (1.0,), 1.0)
    with pytest.raises(ValueError):
        BalayageMeasure((comp,), 2.0)


# ------------------------------------------------------------------- moments

def test_disk_moments_vanish():
    dom = UniformDomain(Ball(2, 1.0), 1.0)
    assert exterior_moment(dom, 2) == 0.0
    assert abs(exterior_moment(dom, 0) - math.pi) < 1e-12


def test_ellipse_second_moment():
    dom = UniformDomain(Ellipse2D(2.0, 1.0), 1.0)
    assert abs(exterior_moment(dom, 2) - 1.5 * math.pi) < 1e-10
    # (pi/4) a1 a2 (a1^2 - a2^2) closed form
    assert abs(exterior_moment(dom, 2)
               - math.pi / 4.0 * 2.0 * 1.0 * (4.0 - 1.0)) < 1e-10


def test_ellipse_odd_moments_vanish():
    dom = UniformDomain(Ellipse2D(2.0, 1.0), 1.0)
    for ell in (1, 3, 5):
        assert abs(exterior_moment(dom, ell)) < 1e-10


def test_balayage_reproduces_moments():
    # equality of all exterior moments is what makes the potentials match
    dom = UniformDomain(Ellipse2D(2.0, 1.0), 1.0)
    m = balayage_measure(dom)
    comp = m.components[0]
    area = dom.geometry.volume
    for ell in (2, 4, 6):
        def f(thetas):
            out = np.empty_like(thetas)
            for i, th in enumerate(thetas):
                p = comp.point(th)
                out[i] = ((p[0] + 1j * p[1]) ** ell).real * comp.density(th)
            return out

        measure_moment, _ = adaptive_1d(f, 0.0, 2.0 * math.pi, 1e-11)
        body_moment = exterior_moment(dom, ell) / area  # unit total charge
        assert abs(measure_moment - body_moment) < 1e-9


def test_ellipse_high_moments_match_the_measure():
    # the closed form against the boundary measure's own moment at orders
    # where an area grid loses digits (l = 40) and the sign (l = 60)
    dom = UniformDomain(Ellipse2D(2.0, 1.0), 1.0)
    comp = balayage_measure(dom).components[0]
    for ell in (40, 60):
        body_moment = exterior_moment(dom, ell) / dom.geometry.volume

        def f(thetas, ell=ell):
            q = comp.point(thetas)
            return ((q[:, 0] + 1j * q[:, 1]) ** ell).real * comp.density(thetas)

        measure_moment, _ = adaptive_1d(f, 0.0, 2.0 * math.pi,
                                        1e-13 * abs(body_moment))
        assert abs(measure_moment - body_moment) <= 1e-10 * abs(body_moment), ell


# -------------------------------------------------------------- hole energy

def test_disk_hole_energy_closed_form():
    for a in (0.5, 1.0, 2.0):
        e = hole_energy(HoleSpec(Ball(2, a)))
        assert abs(e - math.pi ** 2 * a ** 4 / 8.0) < 1e-8
    # ellipse hole: h = C(1 - x^2/a^2 - y^2/b^2) with -lap h = 2 pi gives
    # E = (1/2) int h = pi^2 a^3 b^3 / (4 (a^2 + b^2)); the disk is a = b
    for a, b in ((2.0, 1.0), (1.5, 1.0), (1.2, 0.6)):
        e = hole_energy(HoleSpec(Ellipse2D(a, b)))
        exact = math.pi ** 2 * a ** 3 * b ** 3 / (4.0 * (a * a + b * b))
        assert abs(e - exact) < 1e-8


def test_hole_energy_quartic_scaling():
    e1 = hole_energy(HoleSpec(Ball(2, 1.0)))
    e2 = hole_energy(HoleSpec(Ball(2, 2.0)))
    assert abs(e2 / e1 - 16.0) < 1e-10


def test_small_hole_vanishes():
    e = hole_energy(HoleSpec(Ball(2, 1e-3)))
    assert 0.0 <= e < 1e-11


def test_hole_energy_positive_on_all_geometries():
    for geo in (Ball(2, 1.0), Ellipse2D(1.5, 1.0), Annulus2D(1.0, 0.5)):
        assert hole_energy(HoleSpec(geo)) > 0.0


def test_annulus_hole_energy_radial_route():
    # E = (1/2) int h over the ring, h the radial solution of -lap h = 2 pi
    # with h = 0 on both circles
    for big_r, c in ((1.0, 0.3), (2.0, 0.5), (0.8, 0.7), (1.5, 0.9)):
        def h_r(r):
            return ((math.pi / 2.0) * (big_r ** 2 - r * r) - (math.pi / 2.0) * big_r ** 2
                    * (1.0 - c * c) * np.log(r / big_r) / math.log(c)) * r

        val, _ = adaptive_1d(h_r, c * big_r, big_r, 1e-15)
        e = hole_energy(HoleSpec(Annulus2D(big_r, c)))
        assert abs(e / (math.pi * val) - 1.0) < 1e-12, (big_r, c)


def test_annulus_hole_energy_near_c_one():
    # the closed form's middle factor 1 - c^2 + (1 + c^2) ln c loses about
    # 2 log10(1/(1 - c)) digits; 60-digit mpmath of it at the same float c
    mpmath = pytest.importorskip("mpmath")
    for c in (0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6):
        with mpmath.workdps(60):
            cm = mpmath.mpf(c)
            lc = mpmath.log(cm)
            exact = float(mpmath.pi ** 2 / 8 * (1 - cm * cm)
                          * (1 - cm * cm + (1 + cm * cm) * lc) / lc)
        e = hole_energy(HoleSpec(Annulus2D(1.0, c)))
        assert abs(e / exact - 1.0) < 1e-14, (c, e, exact)


def test_hole_energy_without_closed_form_is_unsupported():
    for geo in (Ball(3, 1.0), Rectangle(((0.0, 1.0), (0.0, 1.0))), Segment1D(1.0)):
        with pytest.raises(UnsupportedRegionError):
            hole_energy(HoleSpec(geo))


def test_hole_energy_direct_quadrature_route():
    # recompute (1/2)(int U - oint U dmu) with independent tensor quadrature
    a = 1.0
    spec = HoleSpec(Ball(2, a))
    e = hole_energy(spec)

    def u(r):
        rr = np.linalg.norm(r)
        # closed-form -log potential of the unit-density disk
        if rr <= a:
            return -(math.pi / 2.0) * (rr * rr - a * a) - math.pi * a * a * math.log(a)
        return -math.pi * a * a * math.log(rr)

    from tensor_gl import tensor_gl_2d

    def integrand(RHO, TH):
        vals = np.empty_like(RHO)
        for i in range(RHO.shape[0]):
            for j in range(RHO.shape[1]):
                vals[i, j] = u([RHO[i, j] * math.cos(TH[i, j]),
                                RHO[i, j] * math.sin(TH[i, j])]) * RHO[i, j]
        return vals

    vol = tensor_gl_2d(integrand, 0.0, a, 0.0, 2 * math.pi, 60, 60)
    bound = u([a, 0.0]) * math.pi * a * a
    assert abs(e - 0.5 * (vol - bound)) < 1e-8


# ------------------------------------------------------------- gap and tail

def test_gap_prediction_matches_energy():
    spec = HoleSpec(Ball(2, 1.0), rho_b=1.0 / math.pi, beta=2.0)
    assert abs(gap_and_tail(spec, "gap") + 2.0 * hole_energy(spec)) < 1e-12


def test_ginue_gap_rate_symbolic():
    sp = pytest.importorskip("sympy")

    beta, r, n = sp.symbols("beta r N", positive=True)
    hole_radius = r * sp.sqrt(n)
    energy = sp.pi ** 2 * hole_radius ** 4 / 8  # disk-hole closed form
    rho_b = 1 / sp.pi
    log_prob = -beta * rho_b ** 2 * energy
    assert sp.simplify(log_prob + beta * n ** 2 * r ** 4 / 8) == 0


def test_ginue_gap_rate_numeric():
    beta, little_r, big_n = 2.0, 0.7, 36.0
    a = little_r * math.sqrt(big_n)
    spec = HoleSpec(Ball(2, a), rho_b=1.0 / math.pi, beta=beta)
    log_prob = spec.rho_b ** 2 * gap_and_tail(spec, "gap")
    assert abs(log_prob + beta * big_n ** 2 * little_r ** 4 / 8.0) < 1e-6


def test_tail_exponent_value():
    spec = HoleSpec(Ball(2, 1.0), beta=2.0)
    val = gap_and_tail(spec, "tail", gamma=3.0, alpha_amp=1.0, R=10.0)
    assert abs(val + 0.5 * 10.0 ** 6 * math.log(10.0)) < 1e-6


def test_tail_parameter_errors():
    spec = HoleSpec(Ball(2, 1.0))
    with pytest.raises(ValueError):
        gap_and_tail(spec, "tail", gamma=1.5, alpha_amp=1.0, R=10.0)
    with pytest.raises(ValueError):
        gap_and_tail(spec, "tail", gamma=3.0)
    with pytest.raises(ValueError):
        gap_and_tail(spec, "nonsense")


# ------------------------------------------------- one body, two spellings

def _outcome(fn):
    """fn()'s value, or the type of the UnsupportedRegionError it raises."""
    try:
        return fn()
    except UnsupportedRegionError as exc:
        return type(exc)


@pytest.mark.parametrize("named,general,points", [
    pytest.param(Ellipse2D(2.0, 1.0), Hyperellipsoid((2.0, 1.0)),
                 [(0.0, 0.0), (0.5, 0.3), (1.7, 0.2), (3.0, 0.5), (-2.5, 0.9)], id="ellipse"),
    pytest.param(Ellipse2D(1.5, 1.2), Hyperellipsoid((1.5, 1.2)),
                 [(0.3, -0.4), (0.0, 1.1), (1.6, 1.3)], id="ellipse-1.5x1.2"),
    pytest.param(Segment1D(1.0), Ball(1, 1.0),
                 [(0.0,), (0.3,), (-0.9,), (1.0,), (2.5,), (1e200,)], id="segment"),
    pytest.param(Segment1D(2.5), Ball(1, 2.5), [(1.1,), (-3.0,)], id="segment-2.5"),
])
# interaction_energy's norm of the 1e200 point overflows before it refuses it
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_one_body_two_spellings_agree(named, general, points):
    # a body is read by its shape, so both spellings answer (or refuse)
    # alike: bit for bit, except where the area enters (pi a1 a2 and the
    # 1-ball's length are computed in different orders), to 1e-15 relative
    # to the value or, where the energy's terms cancel, to 1
    doms = UniformDomain(named, 1.7), UniformDomain(general, 1.7)

    def same(f, rel=0.0):
        x, y = (_outcome(lambda: f(dom)) for dom in doms)
        if isinstance(x, float):
            assert abs(x - y) <= rel * max(abs(x), 1.0), (x, y)
        else:
            assert x == y

    same(lambda dom: interaction_energy(dom, []))
    for p in points:
        same(lambda dom: background_potential(dom, p), 1e-15)
        same(lambda dom: interaction_energy(dom, [p]), 1e-15)
        same(lambda dom: balayage_measure(dom).potential(p))
        x, y = (potential_oracle(dom, p, 1e-9) for dom in doms)
        assert x.stats == y.stats
        # the error estimates, at roundoff here, agree to the value's roundoff
        assert abs(x.value - y.value) <= 1e-15 * abs(x.value), (x, y)
        assert abs(x.est_error - y.est_error) <= 1e-15 * abs(x.value), (x, y)
    same(lambda dom: [(c.kind, c.params, c.mass) for c in balayage_measure(dom).components])
    for ell in (0, 1, 2, 4, 60):
        same(lambda dom: exterior_moment(dom, ell), 1e-15)
    same(lambda dom: hole_energy(HoleSpec(dom.geometry)))
