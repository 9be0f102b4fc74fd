import math

import numpy as np
import pytest

from coulomblab._quad import adaptive_1d
from coulomblab.domains import (Ball, Ellipse2D, SingularityError, _ray_chords, coulomb_radial,
                                sphere_area)
from coulomblab.specfun import gamma
from coulomblab.surfaces import (
    OffSurfaceError,
    _ball_weight,
    _weighted_ray_integral,
    ellipsoid_surface_density,
    ellipsoid_surface_potential,
    projection_density,
    projection_identities,
    shell_potential,
)
from tensor_gl import tensor_gl_2d


def ellipsoid_point(axes, theta, phi):
    return np.array([axes[0] * math.sin(theta) * math.cos(phi),
                     axes[1] * math.sin(theta) * math.sin(phi),
                     axes[2] * math.cos(theta)])


def ellipsoid_surface_integral(axes, f, n=220):
    """Tensor quadrature of f over the ellipsoid surface (exact Jacobian)."""
    def integrand(TH, PH):
        a1, a2, a3 = axes
        st, ct = np.sin(TH), np.cos(TH)
        sp, cp = np.sin(PH), np.cos(PH)
        # |d_theta x cross d_phi x|
        jx = a2 * a3 * st * st * cp
        jy = a1 * a3 * st * st * sp
        jz = a1 * a2 * st * ct
        jac = np.sqrt(jx ** 2 + jy ** 2 + jz ** 2)
        vals = np.empty_like(TH)
        for i in range(TH.shape[0]):
            for j in range(TH.shape[1]):
                p = np.array([a1 * st[i, j] * cp[i, j],
                              a2 * st[i, j] * sp[i, j],
                              a3 * ct[i, j]])
                vals[i, j] = f(p)
        return vals * jac

    return tensor_gl_2d(integrand, 0.0, math.pi, 0.0, 2 * math.pi, n, n)


# ----------------------------------------------------------- shell potential

def test_shell_potential_values():
    assert abs(shell_potential(3, 1.0, 1.0, [0, 0, 0]) - 1.0) < 1e-14
    assert abs(shell_potential(3, 1.0, 1.0, [2, 0, 0]) - 0.5) < 1e-14


def test_shell_potential_continuity():
    inner = shell_potential(3, 1.0, 2.0, [1.0 - 1e-13, 0, 0])
    outer = shell_potential(3, 1.0, 2.0, [1.0 + 1e-13, 0, 0])
    assert abs(inner - outer) < 1e-10
    assert abs(shell_potential(2, 1.5, 1.0, [0.3, 0]) + math.log(1.5)) < 1e-14


def test_shell_potential_d1_rejected():
    with pytest.raises(ValueError):
        shell_potential(1, 1.0, 1.0, [0.0])


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan])
def test_nonpositive_radius_rejected(R):
    # a shell of radius R <= 0 is not a point charge, and the
    # constant-potential identity's arcsine measure needs R > 0
    with pytest.raises(ValueError, match="R > 0"):
        shell_potential(3, R, 1.0, [0.5, 0.0, 0.0])
    for d in (2, 3):
        with pytest.raises(ValueError, match="R > 0"):
            projection_identities("constant-potential", d=d, R=R)


# ----------------------------------------------------------- surface density

def test_sphere_reduction_constant_density():
    for d, axes in ((3, (1.5, 1.5, 1.5)),):
        q_total = 2.0
        target = q_total / (1.5 ** (d - 1) * sphere_area(d))
        p = ellipsoid_point(axes, 0.7, 1.1)
        assert abs(ellipsoid_surface_density(axes, q_total, p) - target) < 1e-13


def test_density_integrates_to_total_charge():
    rng = np.random.default_rng(12)
    for _ in range(5):
        axes = tuple(rng.uniform(0.6, 2.2, size=3))
        q_total = float(rng.uniform(0.5, 3.0))
        total = ellipsoid_surface_integral(
            axes, lambda p: ellipsoid_surface_density(axes, q_total, p), n=140)
        assert abs(total - q_total) < 1e-6


def test_off_surface_error():
    with pytest.raises(OffSurfaceError):
        ellipsoid_surface_density((1, 1, 2), 1.0, [0.5, 0.0, 0.0])


def test_malformed_axes_and_points_raise():
    # a point of another dimension is not cut to the axes' length, and a
    # single or non-positive axis is no hyperellipsoid
    for bad in ([2.0, 0.0, 0.0, 5.0], [2.0, 0.0]):
        with pytest.raises(ValueError, match="dimension 3"):
            ellipsoid_surface_density((2, 1, 1), 1.0, bad)
        with pytest.raises(ValueError, match="dimension 3"):
            ellipsoid_surface_potential((2, 1, 1), 1.0, bad)
        with pytest.raises(ValueError, match="dimension 3"):
            shell_potential(3, 1.0, 1.0, bad)
    for axes, p in (((-2, 1, 1), [2.0, 0.0, 0.0]), ((2,), [2.0]), ((2, 0, 1), [2.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="positive axes"):
            ellipsoid_surface_density(axes, 1.0, p)
        with pytest.raises(ValueError, match="positive axes"):
            ellipsoid_surface_potential(axes, 1.0, p)


def test_d2_density_matches_conformal_route():
    from coulomblab.conformal import ellipse_map, surface_density

    a1, a2 = 2.0, 1.0
    mp = ellipse_map(a1, a2)
    for th in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
        p = np.array([a1 * math.cos(th), a2 * math.sin(th)])
        mine = ellipsoid_surface_density((a1, a2), 1.0, p)
        conf = surface_density(mp, complex(p[0], p[1]))
        assert abs(mine - conf) < 1e-10


# --------------------------------------------------------- surface potential

def test_surface_potential_sphere_reduction():
    assert abs(ellipsoid_surface_potential((1, 1, 1), 1.0, [0, 0, 0]) - 1.0) < 1e-10
    assert abs(ellipsoid_surface_potential((1, 1, 1), 1.0, [2, 0, 0]) - 0.5) < 1e-10


def test_surface_potential_interior_constant():
    v0 = ellipsoid_surface_potential((1, 1, 2), 1.0, [0, 0, 0])
    v1 = ellipsoid_surface_potential((1, 1, 2), 1.0, [0.2, 0.1, 0.5])
    assert abs(v0 - v1) < 1e-8


def test_surface_potential_far_field():
    devs = []
    for rr in (10.0, 100.0):
        v = ellipsoid_surface_potential((1, 1, 2), 1.0, [0.0, rr, 0.0])
        devs.append(abs(v * rr - 1.0))
    assert devs[0] < 0.01 and devs[1] < 1e-4


def test_surface_potential_against_surface_quadrature():
    axes = (1.0, 1.0, 2.0)
    q_total = 1.0
    r = np.array([3.0, 0.0, 0.0])

    def f(p):
        return ellipsoid_surface_density(axes, q_total, p) / np.linalg.norm(r - p)

    quad = ellipsoid_surface_integral(axes, f)
    closed = ellipsoid_surface_potential(axes, q_total, r)
    assert abs(quad - closed) < 1e-6


def test_shell_of_zero_radius_read_at_its_centre_raises():
    # a shell needs R > 0; the point charge it would shrink to is the
    # kernel, which refuses zero separation
    for d in (2, 3):
        with pytest.raises(ValueError, match="R > 0"):
            shell_potential(d, 0.0, 1.0, np.zeros(d))
        with pytest.raises(SingularityError):
            coulomb_radial(d, 0.0)


# --------------------------------------------------------------- projections

def test_arcsine_density():
    assert abs(projection_density(2, 1.0, [0.0]) - 1.0 / math.pi) < 1e-13
    assert abs(projection_density(2, 1.0, [0.5])
               - 1.0 / (math.pi * math.sqrt(0.75))) < 1e-13


def test_projection_density_minimum_at_origin():
    vals = [projection_density(3, 1.0, [x, 0.0]) for x in (0.0, 0.3, 0.6, 0.9)]
    assert vals == sorted(vals)


def test_projection_density_normalization_by_quadrature():
    # total charge over the (d-1)-ball via the x = sin u substitution
    for d in (2, 3, 4):
        def f(us):
            x = np.sin(us)
            vals = np.array([projection_density(d, 1.0, np.array([xi] + [0.0] * (d - 2)))
                             for xi in x])
            if d == 2:
                return 2.0 * vals * np.cos(us)          # both half-lines
            c = sphere_area(d - 1)
            return c * vals * x ** (d - 2) * np.cos(us)

        total, _ = adaptive_1d(f, 0.0, math.pi / 2.0 - 1e-12, 1e-8)
        if d == 2:
            total /= 2.0  # f above integrates |x| over [-1, 1]
            total *= 2.0
        assert abs(total - 1.0) < 1e-7


def test_projection_density_domain_error():
    with pytest.raises(ValueError):
        projection_density(2, 1.0, [1.5])


def test_constant_potential_identity_d3():
    rep = projection_identities("constant-potential", d=3)
    assert rep["max_residual"] < 1e-5
    # the fitted constant for the unit disk is pi^2
    assert abs(rep["constant"] - math.pi ** 2) < 1e-6


def test_constant_potential_identity_d2():
    rep = projection_identities("constant-potential", d=2)
    assert rep["max_residual"] < 1e-5
    # Frostman constant of [-1, 1] is the Robin constant log 2
    assert abs(rep["constant"] - math.log(2.0)) < 1e-8


def test_riesz_quadratic_identity():
    rep = projection_identities("riesz-quadratic", d=3)
    assert rep["max_residual"] < 1e-5
    assert rep["gamma"] > 0
    rep2 = projection_identities("riesz-quadratic", d=2)
    assert rep2["max_residual"] < 1e-5


def test_riesz_quadratic_identity_d3_tight():
    # the identity is exact; what remains is the tolerance of the 3-ball
    # weighted log integral (1e-9), which leaves a residual of ~1e-11
    rep = projection_identities("riesz-quadratic", d=3)
    assert rep["max_residual"] < 1e-9
    assert abs(rep["gamma"] - math.pi ** 2 / 3.0) < 1e-9


def test_semicircle_identity():
    rep = projection_identities("semicircle", a=1.0)
    assert rep["max_residual"] < 1e-10
    # spot value at x = 0: both sides equal log(1/2)/2 - 1/4
    lhs = (0.5) * math.log(0.5) - 0.25
    assert abs(lhs - (0.0 / 2.0 + 0.5 * math.log(0.5) - 0.25)) < 1e-15


def test_thin_slab_identity():
    rep = projection_identities("thin-slab", a1=1.5, a2=1.0)
    assert rep["max_residual"] < 1e-8


def _per_ray_reference(geo, point, weight, kernel, tol):
    # the ray integral as one adaptive_1d call per ray, inside one over the
    # directions, with the rim taken by the substitution s = L - v^2
    p = np.asarray(point, dtype=float)
    d = len(p)
    chords = _ray_chords(geo, p)

    def angular(thetas):
        dirs = np.zeros((len(thetas), d))
        dirs[:, 0], dirs[:, 1] = np.cos(thetas), np.sin(thetas)
        _, exits = chords(dirs.T)
        out = np.empty_like(thetas)
        for i, (e, L) in enumerate(zip(dirs, exits)):
            def radial(vs):
                s = L - vs * vs
                return weight((p + s[:, None] * e).T) * kernel(s) * 2.0 * vs

            out[i], _ = adaptive_1d(radial, 0.0, math.sqrt(L), tol)
        return out if d == 2 else out * np.sin(thetas)

    total, _ = adaptive_1d(angular, 0.0, 2.0 * math.pi if d == 2 else math.pi, tol * 10)
    return total if d == 2 else 2.0 * math.pi * total


def test_batched_rays_match_the_per_ray_reference():
    # every point, weight, kernel and tolerance that projection_identities
    # integrates by rays
    def ellipse_weight(q):
        return np.maximum(1.0 - (q[0] / 1.5) ** 2 - (q[1] / 1.0) ** 2, 0.0) ** 0.5

    dists = [0.0, 0.15, 0.3, 0.45, 0.6, 0.72]
    disk = [(0.0, 0.0), (0.2, 0.0), (0.0, 0.3), (0.4, 0.1), (-0.3, 0.2),
            (0.5, 0.0), (0.1, -0.5), (-0.6, -0.1), (0.3, 0.3), (0.65, 0.0)]
    cases = [(Ball(2, 1.0), disk, _ball_weight(1.0, -0.5), np.ones_like, 1e-8),
             (Ball(3, 1.0), [(x, 0.0, 0.0) for x in dists], _ball_weight(1.0, -0.5),
              lambda s: -np.log(np.maximum(s, 1e-300)) * s * s, 1e-9),
             (Ball(2, 1.0), [(x, 0.0) for x in dists], _ball_weight(1.0, -0.5),
              lambda s: -s * s, 1e-8),
             (Ellipse2D(1.5, 1.0), [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.4, 0.3), (-0.5, 0.2)],
              ellipse_weight, np.ones_like, 1e-9)]
    for geo, points, weight, kernel, tol in cases:
        for p in points:
            got = _weighted_ray_integral(geo, p, weight, kernel, tol)
            ref = _per_ray_reference(geo, p, weight, kernel, tol)
            assert abs(got - ref) <= 1e-12 * abs(ref), (geo, p, got, ref)


def test_unknown_case():
    with pytest.raises(ValueError):
        projection_identities("nonsense")
