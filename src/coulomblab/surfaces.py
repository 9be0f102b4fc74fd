"""Equilibrium surface charge densities and potentials for spheres and
hyperellipsoids, plus the projection identities linking uniform bodies to
lower-dimensional equilibrium measures."""

from __future__ import annotations

import math

import numpy as np

from ._quad import adaptive_1d
from .domains import (
    Ball,
    Ellipse2D,
    _lambda_integral,
    _lambda_star,
    _ray_chords,
    coulomb_radial,
    sphere_area,
)
from .specfun import gamma

__all__ = [
    "OffSurfaceError",
    "shell_potential",
    "ellipsoid_surface_density",
    "ellipsoid_surface_potential",
    "projection_density",
    "projection_identities",
]


class OffSurfaceError(ValueError):
    """Surface quantity requested away from the surface."""


def shell_potential(d: int, R: float, Q: float, r) -> float:
    """Potential of total charge Q spread uniformly on the sphere |x| = R:
    constant inside, point-charge outside (Newton's shell theorem)."""
    if d < 2:
        raise ValueError("shell_potential: d >= 2")
    rr = float(np.linalg.norm(np.atleast_1d(np.asarray(r, dtype=float))))
    return Q * coulomb_radial(d, max(rr, R))


def ellipsoid_surface_density(axes, Q: float, r) -> float:
    """Equilibrium surface density on the hyperellipsoid shell:
    sigma = Q / (c_d a_1...a_d) * (sum x_j^2/a_j^4)^(-1/2)."""
    axes = tuple(float(a) for a in axes)
    d = len(axes)
    x = np.asarray(r, dtype=float)
    on_surface = sum((xi / a) ** 2 for xi, a in zip(x, axes))
    if abs(on_surface - 1.0) > 1e-10:
        raise OffSurfaceError(f"point not on the surface (residual {on_surface - 1.0:.2e})")
    grad = math.sqrt(sum(xi * xi / a ** 4 for xi, a in zip(x, axes)))
    return Q / (sphere_area(d) * math.prod(axes)) / grad


def ellipsoid_surface_potential(axes, Q: float, r) -> float:
    """Potential of the charged conducting hyperellipsoid shell (d > 2).

    (Q/2)(d-2) int_{lam*}^inf dlam / sqrt(S_0): constant inside (lam* = 0),
    decaying to the point-charge potential far away.
    """
    axes = tuple(float(a) for a in axes)
    d = len(axes)
    if d <= 2:
        raise ValueError("ellipsoid_surface_potential: valid for d > 2")
    x = np.asarray(r, dtype=float)
    lam0 = _lambda_star(axes, x)
    val, _ = _lambda_integral(axes, lambda lam: np.ones_like(lam), lam0)
    return 0.5 * Q * (d - 2) * val


def projection_density(d: int, R: float, r) -> float:
    """Density at r (a point of the (d-1)-ball of radius R) obtained by
    projecting the uniformly charged sphere of R^d; normalized to unit total
    charge.  This is the equilibrium measure of the (d-1)-ball for the
    d-dimensional Coulomb kernel (arcsine law at d = 2)."""
    if d < 2:
        raise ValueError("projection_density: d >= 2")
    x = np.atleast_1d(np.asarray(r, dtype=float))
    if x.size != d - 1:
        raise ValueError(f"projection_density: point must be in dimension {d - 1}")
    rho = float(np.linalg.norm(x))
    if rho >= R:
        raise ValueError("projection_density: |r| < R required")
    # normalization: c_{d-1} R^{d-1} int_0^1 u^{d-2} (1-u^2)^{-1/2} du
    z = sphere_area(d - 1) * R ** (d - 1) * 0.5 * math.sqrt(math.pi) \
        * gamma((d - 1) / 2.0) / gamma(d / 2.0)
    return (1.0 - (rho / R) ** 2) ** -0.5 / z


# ----------------------------------------------------- identity machinery

def _weighted_ray_integral(geo, point, weight, kernel, tol):
    """Integral over the convex body geo of weight(r') k(|point - r'|) by
    rays from the interior point; each ray's exit length L comes from
    ``_ray_chords`` and the rim is handled by the s = L - v^2 substitution.

    ``weight`` maps an (m, d) array of points to their weights; ``kernel``
    must already include the polar Jacobian s^(d-1) (so the d = 3 Coulomb
    kernel 1/s enters a planar body as the constant 1).  A planar point
    sweeps the full circle of directions; a point (x, 0, 0) of a 3-ball
    sweeps the polar angle about its axis, the azimuth contributing 2 pi.
    """
    p = np.asarray(point, dtype=float)
    d = len(p)
    chords = _ray_chords(geo, p)

    def angular(thetas):
        dirs = np.zeros((len(thetas), d))
        dirs[:, 0], dirs[:, 1] = np.cos(thetas), np.sin(thetas)
        ((_, exits),) = chords(dirs.T)
        out = np.empty_like(thetas)
        for i, (e, L) in enumerate(zip(dirs, exits)):
            def radial(vs):
                s = L - vs * vs
                return weight(p + s[:, None] * e) * kernel(s) * 2.0 * vs

            out[i], _ = adaptive_1d(radial, 0.0, math.sqrt(L), tol)
        return out if d == 2 else out * np.sin(thetas)

    total, _ = adaptive_1d(angular, 0.0, 2.0 * math.pi if d == 2 else math.pi,
                           tol * 10)
    return total if d == 2 else 2.0 * math.pi * total


def _ball_weight(R, power):
    """w(r') = (1 - |r'|^2/R^2)^power on the R-ball."""
    def w(q):
        return np.maximum(1.0 - np.sum(q * q, axis=1) / (R * R), 0.0) ** power
    return w


def _thin_slab_coefficients(a1: float, a2: float, N: float = 1.0):
    """a3 -> 0 limit of the d = 3 quadratic coefficients (x3 dropped)."""
    axes = (a1, a2)

    def with_root(w):
        return lambda lam: w(lam) / np.sqrt(lam)

    pref = N * 0.75
    a0 = -pref * _lambda_integral(axes, with_root(lambda lam: np.ones_like(lam)))[0]
    al = [pref * _lambda_integral(axes, with_root(lambda lam, aj=aj: 1.0 / (aj * aj + lam)))[0]
          for aj in (a1, a2)]
    return a0, al


def projection_identities(case: str, **params) -> dict:
    """Evaluate both sides of the chosen projection identity on a grid and
    report the maximum residual.

    Cases: "constant-potential" (equilibrium measure of the (d-1)-ball is an
    equipotential), "riesz-quadratic" (inverse-square-root density on the
    d-ball with the s = d-3 kernel gives a quadratic), "semicircle" (the
    log-potential of the semicircle density), and "thin-slab" (thin-ellipsoid
    limit against the weighted 2d integral).
    """
    if case == "constant-potential":
        d = params.get("d", 3)
        R = params.get("R", 1.0)
        if d == 2:
            # arcsine measure on [-R, R] against -log|x - y|
            def potential(x):
                def f(ths):
                    return -np.log(np.abs(x - R * np.cos(ths)) + 1e-300) / math.pi
                lim = math.acos(max(min(x / R, 1.0), -1.0))
                v1, _ = adaptive_1d(f, 0.0, lim, 1e-8)
                v2, _ = adaptive_1d(f, lim, math.pi, 1e-8)
                return v1 + v2
            pts = np.linspace(-0.8 * R, 0.8 * R, 10)
            vals = np.array([potential(float(x)) for x in pts])
        elif d == 3:
            def potential(p):
                return _weighted_ray_integral(Ball(2, R), p, _ball_weight(R, -0.5),
                                              np.ones_like, 1e-8)
            pts = [np.array([x, y]) for x, y in
                   [(0.0, 0.0), (0.2, 0.0), (0.0, 0.3), (0.4, 0.1), (-0.3, 0.2),
                    (0.5, 0.0), (0.1, -0.5), (-0.6, -0.1), (0.3, 0.3), (0.65, 0.0)]]
            pts = [p * R for p in pts]
            vals = np.array([potential(p) for p in pts])
        else:
            raise ValueError("constant-potential: d in {2, 3}")
        const = float(np.mean(vals))
        return {"case": case, "d": d, "constant": const,
                "max_residual": float(np.max(np.abs(vals - const)))}

    if case == "riesz-quadratic":
        d = params.get("d", 3)
        R = params.get("R", 1.0)
        if d == 3:
            dists = [0.0, 0.15, 0.3, 0.45, 0.6, 0.72]
            vals = np.array([
                _weighted_ray_integral(
                    Ball(3, R), [x, 0.0, 0.0], _ball_weight(R, -0.5),
                    lambda s: -np.log(np.maximum(s, 1e-300)) * s * s, 1e-9)
                for x in dists])
        elif d == 2:
            # kernel Psi_{-1} = -|r - r'| on the 2-ball (times the Jacobian s)
            dists = [0.0, 0.15, 0.3, 0.45, 0.6, 0.72]
            vals = np.array([
                _weighted_ray_integral(Ball(2, R), [x, 0.0], _ball_weight(R, -0.5),
                                       lambda s: -s * s, 1e-8) for x in dists])
        else:
            raise ValueError("riesz-quadratic: d in {2, 3}")
        x2 = np.array([x * x for x in dists])
        design = np.vstack([np.ones_like(x2), x2]).T
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        resid = float(np.max(np.abs(vals - design @ coef)))
        return {"case": case, "d": d, "gamma": float(-coef[1]),
                "constant": float(coef[0]), "max_residual": resid}

    if case == "semicircle":
        a = params.get("a", 1.0)
        xs = params.get("xs", np.linspace(-0.8 * a, 0.8 * a, 9))
        resid = []
        for x in xs:
            lhs = x * x / 2.0 + (a * a / 2.0) * math.log(a / 2.0) - a * a / 4.0

            def f(ths):
                s = a * np.sin(ths)
                return np.log(np.abs(x - s) + 1e-300) * a * np.cos(ths) ** 2
            lim = math.asin(max(min(x / a, 1.0), -1.0))
            v1, _ = adaptive_1d(f, -math.pi / 2.0, lim, 1e-9)
            v2, _ = adaptive_1d(f, lim, math.pi / 2.0, 1e-9)
            rhs = (a / math.pi) * (v1 + v2)
            resid.append(abs(lhs - rhs))
        return {"case": case, "a": a, "max_residual": float(np.max(resid))}

    if case == "thin-slab":
        a1 = params.get("a1", 1.5)
        a2 = params.get("a2", 1.0)
        charge = params.get("N", 1.0)
        a0, al = _thin_slab_coefficients(a1, a2, charge)
        pref = -2.0 * charge * gamma(2.5) / (math.pi ** 1.5 * a1 * a2)
        pts = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.4, 0.3), (-0.5, 0.2)]

        def weight(q):
            return np.maximum(1.0 - (q[:, 0] / a1) ** 2 - (q[:, 1] / a2) ** 2, 0.0) ** 0.5

        resid = []
        for (x, y) in pts:
            lhs = a0 + al[0] * x * x + al[1] * y * y
            # the 1/s kernel times the polar Jacobian s is 1
            rhs = pref * _weighted_ray_integral(Ellipse2D(a1, a2), [x, y], weight,
                                                np.ones_like, 1e-9)
            resid.append(abs(lhs - rhs))
        return {"case": case, "a1": a1, "a2": a2,
                "max_residual": float(np.max(resid))}

    raise ValueError(f"projection_identities: unknown case {case!r}")
