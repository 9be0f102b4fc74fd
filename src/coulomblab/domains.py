"""Uniformly charged domains: closed-form background potentials and energies,
plus a direct-quadrature oracle for the defining integral.

Conventions: a "background" always carries total charge -N (density
-rho_b = -N/|Omega|); potentials of positively charged bodies are obtained by
negation at the call site.  The pair kernel in dimension d is the free
Coulomb solution (-|x-x'| in 1d, -log in 2d, power law above), embedded in
the general Riesz family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import adaptive_1d, gl_nodes
from .specfun import EvalResult, SingularityError, gamma

__all__ = [
    "poisson_constant",
    "Hyperellipsoid",
    "Annulus2D",
    "Box",
    "Ball",
    "Segment1D",
    "Ellipse2D",
    "Rectangle",
    "Cuboid",
    "UniformDomain",
    "UnsupportedRegionError",
    "SingularityError",
    "background_potential",
    "potential_oracle",
    "interaction_energy",
    "hyperellipsoid_coefficients",
    "ellipsoid_coefficients_carlson",
    "cube_self_energy",
    "cube_self_energy_mc",
    "sphere_area",
]


class UnsupportedRegionError(ValueError):
    """No closed form applies at the requested point; use potential_oracle."""


def sphere_area(d: int) -> float:
    """Surface area c_d of the unit sphere embedded in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)


def poisson_constant(d: int) -> float:
    """c_d chi_d, with -lap Phi_d = c_d chi_d delta for the Coulomb kernel
    Phi_d of ``coulomb_radial``: chi_d = d - 2 above the plane, else 1."""
    return sphere_area(d) * (float(d - 2) if d > 2 else 1.0)


def coulomb_radial(d: int, u: float) -> float:
    """Phi_d at separation u > 0: -u (d=1), -log u (d=2), u^{2-d} (d>2)."""
    if u <= 0.0:
        raise SingularityError("coulomb_radial: zero separation")
    if d == 1:
        return -u
    if d == 2:
        return -math.log(u)
    return u ** (2.0 - d)


# ----------------------------------------------------------------- geometries

@dataclass(frozen=True)
class Annulus2D:
    R: float
    c: float

    def __post_init__(self):
        if not (self.R > 0 and 0.0 < self.c < 1.0):
            raise ValueError("Annulus2D: need R > 0, c in (0, 1)")

    dim = 2

    @property
    def volume(self):
        return math.pi * self.R ** 2 * (1.0 - self.c ** 2)


@dataclass(frozen=True)
class Hyperellipsoid:
    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(float(a) for a in self.axes))
        if not (self.axes and all(a > 0 for a in self.axes)):
            raise ValueError("Hyperellipsoid: need one or more positive axes")

    @property
    def dim(self):
        return len(self.axes)

    @property
    def volume(self):
        return sphere_area(self.dim) * math.prod(self.axes) / self.dim


def Ball(d: int, R: float) -> Hyperellipsoid:
    """The d-ball of radius R: the hyperellipsoid with d equal axes."""
    return Hyperellipsoid((R,) * d)


def Segment1D(R: float) -> Hyperellipsoid:
    """The segment [-R, R]: the 1-ball."""
    return Ball(1, R)


def Ellipse2D(a1: float, a2: float) -> Hyperellipsoid:
    """The ellipse with semi-axes a1, a2: the two-axis hyperellipsoid."""
    return Hyperellipsoid((a1, a2))


@dataclass(frozen=True)
class Box:
    bounds: tuple  # ((a1, b1), (a2, b2)) or ((a1, b1), (a2, b2), (a3, b3))

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", b)
        if len(b) not in (2, 3) or not all(hi > lo for lo, hi in b):
            raise ValueError("Box: need two or three nondegenerate intervals")

    @property
    def dim(self):
        return len(self.bounds)

    @property
    def volume(self):
        return math.prod(hi - lo for lo, hi in self.bounds)


def Rectangle(bounds) -> Box:
    """The rectangle ((a1, b1), (a2, b2)): the two-interval box."""
    x, y = bounds
    return Box((x, y))


def Cuboid(bounds) -> Box:
    """The cuboid ((a1, b1), (a2, b2), (a3, b3)): the three-interval box."""
    x, y, z = bounds
    return Box((x, y, z))


@dataclass(frozen=True)
class UniformDomain:
    """A geometry filled by a uniform background of total charge -N."""

    geometry: object
    N: float = 1.0

    def __post_init__(self):
        if not self.N > 0:
            raise ValueError("UniformDomain: total charge N must be > 0")

    @property
    def dim(self):
        return self.geometry.dim

    @property
    def rho_b(self) -> float:
        return self.N / self.geometry.volume


def _ellipse_axes(geo):
    """The semi-axes (a1, a2) of a planar ellipse, read by shape: a disk or a
    two-axis ``Hyperellipsoid``; None for any other body."""
    axes = getattr(geo, "axes", ())
    return axes if len(axes) == 2 else None


def _ball_radius(geo):
    """The radius of a d-ball, read by shape: the common semi-axis of a
    ``Hyperellipsoid`` whose axes are all equal; None for any other body."""
    axes = getattr(geo, "axes", ())
    return axes[0] if axes and axes.count(axes[0]) == len(axes) else None


def _point(r, dim):
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"expected a point in dimension {dim}, got shape {arr.shape}")
    return arr


# ------------------------------------------------- hyperellipsoid lambda tools

def _s0(axes, lam):
    """log S_0(lam) = sum_i log(a_i^2 + lam): the product itself overflows
    once lam passes ~1e308^(1/d)."""
    out = np.zeros_like(lam)
    for a in axes:
        out = out + np.log(a * a + lam)
    return out


def _s1(axes, x, lam):
    out = np.zeros_like(lam)
    for a, xi in zip(axes, x):
        out = out + xi * xi / (a * a + lam)
    return out


def _lambda_star(axes, x) -> float:
    """Smallest lambda with S_1(lambda) <= 1 (0 for interior points).

    S_1 is strictly decreasing, so plain bisection is safe.
    """
    x = np.asarray(x, dtype=float)
    s1_0 = float(_s1(axes, x, np.array([0.0]))[0])
    if s1_0 <= 1.0:
        return 0.0
    # S_1(|x|^2) <= 1 always, so the root lies in (0, |x|^2]
    lo, hi = 0.0, float(np.dot(x, x))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(_s1(axes, x, np.array([mid]))[0]) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


def _lambda_integral(axes, weight, lam0: float = 0.0):
    """Integral over [lam0, inf) of weight(lam) / sqrt(S_0(lam)), the root
    taken as exp(-log S_0 / 2).

    Uses lam = lam0 + A (t/(1-t))^2 so the decaying tail becomes a smooth
    integrand on [0, 1] for every d >= 3.
    """
    scale = float(np.mean([a * a for a in axes])) + lam0

    def f(t):
        t = np.clip(t, 0.0, 1.0 - 1e-16)
        lam = lam0 + scale * (t / (1.0 - t)) ** 2
        jac = 2.0 * scale * t / (1.0 - t) ** 3
        return weight(lam) * np.exp(-0.5 * _s0(axes, lam)) * jac

    val, err = adaptive_1d(f, 0.0, 1.0, 1e-13)
    return val, err


def hyperellipsoid_coefficients(axes, N: float = 1.0):
    """Quadratic coefficients (alpha_0, [alpha_1..alpha_d]) of the interior
    potential of a uniformly charged hyperellipsoid of total charge -N.

    d >= 3 uses 1d quadrature of the lambda-integrals; d = 2 is served by the
    ellipse closed form.
    """
    axes = tuple(float(a) for a in axes)
    UniformDomain(Hyperellipsoid(axes), N)  # checks the axes and the charge
    d = len(axes)
    if d == 1:  # the segment's potential is no quadratic form
        raise ValueError("hyperellipsoid_coefficients: need >= 2 axes")
    if d == 2:
        a0, c1, c2 = _ellipse_coefficients(*axes, N)
        return a0, [c1, c2]
    pref = N * (d / 2.0) * (d / 2.0 - 1.0)
    a0 = -pref * _lambda_integral(axes, lambda lam: np.ones_like(lam))[0]
    alphas = [
        pref * _lambda_integral(axes, lambda lam, aj=aj: 1.0 / (aj * aj + lam))[0]
        for aj in axes
    ]
    return a0, alphas


def ellipsoid_coefficients_carlson(axes, N: float = 1.0):
    """d = 3 route through Carlson's R_D (the demagnetising-factor integrals)."""
    from scipy.special import elliprd

    if len(axes) != 3:
        raise ValueError("ellipsoid_coefficients_carlson: d = 3 only")
    a1, a2, a3 = (float(a) for a in axes)
    if min(a1, a2, a3) <= 0.0:
        raise ValueError("ellipsoid_coefficients_carlson: axes must be > 0")
    pref = N * 0.75  # (d/2)(d/2-1) at d = 3
    return [pref * (2.0 / 3.0) * float(elliprd(y * y, z * z, x * x))
            for x, y, z in ((a1, a2, a3), (a2, a3, a1), (a3, a1, a2))]


# --------------------------------------------------------- closed-form fields

def _radius(r) -> float:
    """|r|, also past ~1.3e154, where the squares overflow and hypot scales
    them."""
    with np.errstate(over="ignore"):
        rr = float(np.linalg.norm(r))
    return math.hypot(*r.tolist()) if rr == math.inf else rr


def _ball_potential(geo: Hyperellipsoid, N: float, r) -> float:
    d, R = geo.dim, _ball_radius(geo)
    rho_b = N / geo.volume
    rr = _radius(r)
    if rr <= R:
        return rho_b * (poisson_constant(d) / (2.0 * d)) * (rr * rr - R * R) \
            - N * coulomb_radial(d, R)
    return -N * coulomb_radial(d, rr)


def _annulus_potential(geo: Annulus2D, N: float, r) -> float:
    R, c = geo.R, geo.c
    rho_b = N / geo.volume
    rr = _radius(r)
    if rr > R:
        return N * math.log(rr)
    if rr >= c * R:
        return (math.pi * rho_b / 2.0) * (rr * rr - R * R) \
            + math.pi * R * R * rho_b * (math.log(R) - c * c * math.log(rr))
    # hollow core: constant by the shell theorem
    return -N * (0.5 - math.log(R) + c * c * math.log(c) / (1.0 - c * c))


def _ellipse_coefficients(a1: float, a2: float, N: float):
    """(alpha_0, alpha_1, alpha_2) of the ellipse's interior potential
    alpha_0 + alpha_1 x^2 + alpha_2 y^2, total charge -N."""
    pref = math.pi * (N / (math.pi * a1 * a2)) / 2.0
    kappa = (a1 - a2) / (a1 + a2)
    a0 = pref * (2.0 * a1 * a2 * math.log((a1 + a2) / 2.0) - a1 * a2)
    return a0, pref * (1.0 - kappa), pref * (1.0 + kappa)


def _ellipse_potential(a1: float, a2: float, N: float, r) -> float:
    x, y = float(r[0]), float(r[1])
    if (x / a1) ** 2 + (y / a2) ** 2 > 1.0 + 1e-12:
        raise UnsupportedRegionError(
            "ellipse closed form is interior-only; use potential_oracle")
    a0, c1, c2 = _ellipse_coefficients(a1, a2, N)
    return a0 + c1 * x * x + c2 * y * y


def _hyperellipsoid_potential(geo: Hyperellipsoid, N: float, r) -> float:
    d = geo.dim
    lam0 = _lambda_star(geo.axes, r)
    x = np.asarray(r, dtype=float)

    def w(lam):
        return 1.0 - _s1(geo.axes, x, lam)

    val, _ = _lambda_integral(geo.axes, w, lam0)
    return -N * (d / 2.0) * (d / 2.0 - 1.0) * val


def _atanh_guarded(num: float, den: float) -> float:
    # arctanh(num/den) = log((den+num)/(den-num))/2 with a relative floor
    lo = max(den - num, 1e-300)
    hi = max(den + num, 1e-300)
    return 0.5 * math.log(hi / lo)


def macmillan_cuboid_potential(bounds, y) -> float:
    """Closed-form integral of 1/|y - x| over the cuboid (unit density)."""
    total = 0.0
    deltas = [(y[i] - bounds[i][0], bounds[i][1] - y[i]) for i in range(3)]
    for i0 in range(2):
        for i1 in range(2):
            for i2 in range(2):
                d1, d2, d3 = deltas[0][i0], deltas[1][i1], deltas[2][i2]
                rho = math.sqrt(d1 * d1 + d2 * d2 + d3 * d3)
                if rho == 0.0:
                    continue
                for (a, b, c) in ((d1, d2, d3), (d2, d3, d1), (d3, d1, d2)):
                    if a != 0.0 and b != 0.0:
                        total += a * b * _atanh_guarded(c, rho)
                    if a != 0.0:
                        total -= 0.5 * a * a * math.atan(b * c / (a * rho))
    return total


def rectangle_log_potential(bounds, p) -> float:
    """Closed-form integral of -log|p - x| over the rectangle (unit density).

    Antiderivative sum over the four signed edge distances, with the arctan
    argument read as alpha/beta; this is the reading that agrees with direct
    quadrature everywhere (the distances follow the same convention as the
    cuboid form, x - a and b - x).
    """
    (a1, b1), (a2, b2) = bounds
    x, y = float(p[0]), float(p[1])

    def prim(u, v):
        if u == 0.0 or v == 0.0:
            return 0.0
        return 0.5 * (u * v * math.log(u * u + v * v) - 3.0 * u * v
                      + u * u * math.atan(v / u) + v * v * math.atan(u / v))

    alphas = (x - a1, b1 - x)
    betas = (y - a2, b2 - y)
    return -sum(prim(u, v) for u in alphas for v in betas)


def background_potential(dom: UniformDomain, r) -> float:
    """Potential at r of the uniform background of total charge -N."""
    geo = dom.geometry
    p = _point(r, geo.dim)
    if _ball_radius(geo) is not None:
        return _ball_potential(geo, dom.N, p)
    if isinstance(geo, Annulus2D):
        return _annulus_potential(geo, dom.N, p)
    if _ellipse_axes(geo):
        return _ellipse_potential(*geo.axes, dom.N, p)
    if isinstance(geo, Hyperellipsoid):
        return _hyperellipsoid_potential(geo, dom.N, p)
    if isinstance(geo, Box):
        unit = macmillan_cuboid_potential if geo.dim == 3 else rectangle_log_potential
        return -dom.rho_b * unit(geo.bounds, p)
    raise UnsupportedRegionError(f"unsupported geometry {type(geo).__name__}")


# ------------------------------------------------------------ oracle (rays)

def _ray_chords(geo, origin):
    """Chords through the solid ellipsoid sum (x_i/a_i)^2 <= 1 of ``geo``'s
    axes of the rays {origin + t e, t >= 0}, as a function of the directions
    e: it takes their d components as a sequence of (n,) arrays (a component
    that is zero on every ray may be the float 0.0) and returns the (2, n)
    array of their chords (t0, t1), 0 <= t0 <= t1, one per ray.  A ray that
    misses gives t0 = t1.  The quadratic's constant term depends on the
    origin alone and is computed here, once per point; its other
    coefficients are summed component by component, first to last.  Raises
    ValueError for an origin so far from the body that its chords overflow.
    """
    axes = getattr(geo, "axes", None)
    if axes is None:
        raise UnsupportedRegionError(f"no ray intersections for {type(geo).__name__}")
    o = np.asarray(origin, dtype=float).tolist()
    _check_reach(math.hypot(*o) + max(axes), min(axes))
    ax2 = [a * a for a in axes]
    c = np.add.reduce([(ok / a) * (ok / a) for ok, a in zip(o, axes)]) - 1.0
    rest = list(zip(o[1:], axes[1:], ax2[1:]))

    def chords(dirs):
        a, b = (dirs[0] / axes[0]) ** 2, o[0] * dirs[0] / ax2[0]
        for (ok, ak, ak2), e in zip(rest, dirs[1:]):
            a, b = a + (e / ak) ** 2, b + ok * e / ak2
        sq = np.sqrt(np.maximum(b * b - a * c, 0.0))
        # the smaller and larger root, (-b -+ sq) / a; rounding is monotone,
        # so the larger root stays the larger
        return np.maximum((sq * _ROOT_SIGNS - b) / a, 0.0)
    return chords


_ROOT_SIGNS = np.array([[-1.0], [1.0]])


def _check_reach(far, a_min=math.inf):
    """Refuse a point too far from the body: far^2 (2 log far - 1) must be
    finite, ``far`` bounding its distance to the body's far side, and for a
    quadric with smallest axis ``a_min`` so must 4 (far / a_min^2)^2, which
    bounds each term of its chords' b^2 - a c on unit directions."""
    q = far / a_min / a_min
    if not (math.isfinite(far * far * (2.0 * math.log(far) - 1.0)) and math.isfinite(4.0 * q * q)):
        raise ValueError("potential_oracle: the point is too far from the body")


# u(s) = u1 s + u2 s^2 on an interval, by which of its ends (lower, upper)
# is a support edge
_EDGE_MAPS = {(False, False): (1.0, 0.0), (True, False): (0.0, 1.0), (False, True): (2.0, -1.0)}


def _edge_integral(h, pieces):
    """Sum of the integrals of h over the pieces (lo, hi, lo_edge, hi_edge,
    tol), in one adaptive_1d call; its ``.parts`` are the pieces' values.

    Piece k lies on [k, k + 1] of the quadrature variable x; with s = x - k
    it is mapped by theta = lo + (hi - lo) u(s), where u substitutes at an
    end that is a support edge: u = s^2 at the lower end, s (2 - s) at the
    upper, and u = s at neither; no piece has a support edge at both ends.
    Where h grows like the square root of the distance to an edge, or falls
    like its inverse, the vanishing u' leaves an integrand smooth in s
    (Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984).
    ``h`` takes the nodes and the index of each one's piece.
    """
    # per piece: its start k, theta = lo + s (a1 + s a2), whose derivative
    # is a1 + s (2 a2), and its tolerance
    rows = []
    for k, (lo, hi, lo_edge, hi_edge, tol) in enumerate(pieces):
        u1, u2 = _EDGE_MAPS[lo_edge, hi_edge]
        rows.append((k, lo, (hi - lo) * u1, (hi - lo) * u2, tol))
    table = np.array(list(zip(*rows)))
    last = len(rows) - 1

    def f(x):
        # a node that rounds onto k + 1 (panels below ~1e-13 wide) is read
        # at s = 0 of the next piece, or at s = 1 of the last, with a weight
        # below roundoff
        k = np.minimum(x.astype(np.intp), last)
        start, lo, a1, a2 = table[:4].take(k, axis=1)
        s = x - start
        return (a1 + s * (2.0 * a2)) * h(lo + s * (a1 + s * a2), k)

    return adaptive_1d(f, table[0], table[0] + 1.0, table[4])


def _oracle_1d(geo: Hyperellipsoid, rho_b: float, x: float, tol: float):
    R = _ball_radius(geo)

    def f(xp):
        return rho_b * np.abs(x - xp)

    cuts = sorted({-R, R} | ({x} if -R < x < R else set()))
    n = len(cuts) - 1
    return adaptive_1d(f, cuts[:-1], cuts[1:], [tol / n] * n)


# ----------------------------------------------------- oracle (boundaries)

# q = |xi - u|^2 - 1 >= -1, but where x nears r its rounding can reach -1
# (log1p gives -inf) or below (nan); there the flux factor is as small, and
# a floor at the float above -1 changes the integral by less than roundoff
_Q_FLOOR = -1.0 + 2.0 ** -53


def _oracle_2d(geo, rho_b: float, r, tol: float):
    """The potential at r of a planar ellipse or annulus from its boundary.
    As div_x((x - r) log(|x - r| / c)) = 2 log(|x - r| / c) + 1, Gauss's
    theorem gives for any c > 0 (Kellogg, Foundations of Potential Theory,
    1929, ch. IV)

        int_V log|x - r| dA = |V| (log c - 1/2) + 1/2 oint (x - r).n log(|x - r| / c) ds,

    an integrand smooth and periodic for r off the boundary, which a few
    Gauss panels resolve (Trefethen & Weideman, SIAM Review 56, 2014).  With
    c = max(|r - centre|, body size), xi = (x - centre) / c and u = (r -
    centre) / c, the log is 1/2 log1p(|xi|^2 - 2 xi.u + |u|^2 - 1), so far
    points neither cancel nor overflow; the flux factor (x - r).n ds stays
    in real units.  An ellipse x = (a1 cos t, a2 sin t) has (x - r).n ds =
    (a1 a2 - r1 a2 cos t - r2 a1 sin t) dt and runs four quarter turns from
    t0 = atan2(r2 / a2, r1 / a1), substituted at both t0 ends, where the log
    dips for a point near the boundary; the annulus adds its hole's circle
    with sign -1.  The quarter turns share ``tol`` equally in one
    ``_edge_integral`` call.
    """
    x, y = r.tolist()
    curves = [(geo.R, geo.R, 1.0), (geo.c * geo.R, geo.c * geo.R, -1.0)] \
        if isinstance(geo, Annulus2D) else [(*geo.axes, 1.0)]
    (b1, b2, _), last = curves[0], curves[-1]
    rr = math.hypot(x, y)
    _check_reach(rr + max(b1, b2), min(last[:2]))
    c = max(rr, b1, b2)
    u1, u2 = x / c, y / c
    w = u1 * u1 + u2 * u2 - 1.0
    a1, a2, k = (np.array(col)[:, None] for col in zip(*curves))
    k = 0.25 * rho_b * k
    p, px, py = k * a1 * a2, k * x * a2, k * y * a1
    aa, bb = (a1 / c) ** 2, (a2 / c) ** 2
    au, bu = 2.0 * a1 / c * u1, 2.0 * a2 / c * u2

    def h(t, _):
        cs, sn = np.cos(t), np.sin(t)
        q = (aa * cs - au) * cs + (bb * sn - bu) * sn + w
        return ((p - px * cs - py * sn) * np.log1p(np.maximum(q, _Q_FLOOR))).sum(axis=0)

    t0 = math.atan2(y / b2, x / b1)
    res = _edge_integral(h, [(t0 + 0.5 * math.pi * n, t0 + 0.5 * math.pi * (n + 1),
                              n == 0, n == 3, 0.25 * tol) for n in range(4)])
    return EvalResult(rho_b * geo.volume * (math.log(c) - 0.5) + res[0], res[1], res.stats)


def _oracle_box(geo: Box, rho_b: float, r, tol: float):
    """The potential at r of a rectangle or a cuboid from its facets.  The
    rectangle takes ``_oracle_2d``'s identity, an edge's flux (x - r).n
    being h, the signed distance of r from its line: y_i - lo_i or hi_i -
    y_i.  The cuboid applies Gauss's theorem twice, div_x((x - r) / |x - r|)
    = 2 / |x - r| in space, and in a face at height h from r the field (x -
    p) / (sqrt(h^2 + |x - p|^2) + |h|) about r's foot p has divergence 1 /
    sqrt(h^2 + |x - p|^2), so (Kellogg, 1929, ch. IV)

        int_V dV / |x - r| = 1/2 sum_F h sum_(E in F) e int_E dt / (sqrt(h^2 + e^2 + t^2) + |h|),

    e the signed distance of p from edge E's line and t the position along
    E from the foot of the perpendicular: bounded, with no cancellation.
    Each facet chain, an edge or a face and then one of its edges, is cut at
    the foot of the perpendicular from r (held to the edge), substituted
    there, and skipped when its plane holds r (no flux).  The pieces share
    ``tol`` equally in one ``_edge_integral`` call.
    """
    bounds, y = geo.bounds, r.tolist()
    dists = [(ok - lo, hi - ok) for (lo, hi), ok in zip(bounds, y)]
    _check_reach(math.hypot(*(max(pair) for pair in dists)))
    half = [0.5 * (hi - lo) for lo, hi in bounds]
    o = [ok - 0.5 * (lo + hi) for (lo, hi), ok in zip(bounds, y)]
    planar = len(y) == 2
    if planar:  # the scale c, u and |u|^2 - 1 of _oracle_2d's log1p
        c = max(math.hypot(*o), math.hypot(*half))
        u = (o[0] / c, o[1] / c)
        w = u[0] * u[0] + u[1] * u[1] - 1.0
    # per piece of an edge along axis k, in the plane: its flux times rho_b /
    # 4 (the 1/2 of oint and of 1/2 log1p), the log's constant and its slope
    # in t / c; in space: -rho_b h e / 2, h^2 + e^2, r's place on k and |h|
    rows, pieces = [], []
    for *normal, k in itertools.permutations(range(len(y))):
        foot = min(max(o[k], -half[k]), half[k])
        for sides in itertools.product((0, 1), repeat=len(normal)):
            dist = [dists[i][side] for i, side in zip(normal, sides)]
            if 0.0 in dist:
                continue
            if planar:
                f = (half[normal[0]] if sides[0] else -half[normal[0]]) / c
                row = (0.25 * rho_b * dist[0], f * f - 2.0 * f * u[normal[0]] + w, 2.0 * u[k])
            else:
                hf, e = dist
                row = (-0.5 * rho_b * hf * e, hf * hf + e * e, o[k], abs(hf))
            for lo_t, hi_t in ((-half[k], foot), (foot, half[k])):
                if hi_t > lo_t:
                    rows.append(row)
                    pieces.append((lo_t, hi_t, lo_t == foot, hi_t == foot))
    cols = [np.array(col) for col in zip(*rows)]

    def h(t, k):
        flux, a, b, *height = (col.take(k) for col in cols)
        if planar:
            s = t / c
            return flux * np.log1p(np.maximum(a + s * (s - b), _Q_FLOOR))
        dt = t - b
        return flux / (np.sqrt(a + dt * dt) + height[0])

    res = _edge_integral(h, [(*piece, tol / len(pieces)) for piece in pieces])
    base = rho_b * geo.volume * (math.log(c) - 0.5) if planar else 0.0
    return EvalResult(base + res[0], res[1], res.stats)


def _sphere_rule(k: int, n: int):
    """Nodes (k + 1, m) and weights (m,) of a product rule on the unit sphere
    S^k: the 2n-point trapezoid rule in the azimuth, then per polar angle
    t_j, j = 2..k, of measure sin(t_j)^(j - 1) dt_j, n-point Gauss-Legendre
    in cos(t_j) for even j (a polynomial measure) and the n-point midpoint
    rule in t_j for odd j (the rule so far is symmetric under u -> -u, so
    the integrand is an even trigonometric series).  Exact below degree 2n,
    geometric on analytic integrands (Trefethen & Weideman, SIAM Review 56,
    2014)."""
    step = math.pi / n
    phi = step * np.arange(2 * n)
    nodes, weights = np.array([np.cos(phi), np.sin(phi)]), np.full(2 * n, step)
    for j in range(2, k + 1):
        if j % 2:
            mid = step * (np.arange(n) + 0.5)
            cs, wj = np.cos(mid), step * np.sin(mid) ** (j - 1)
        else:
            cs, w = gl_nodes(n)
            wj = w * (1.0 - cs * cs) ** (j // 2 - 1)
        sn = np.sqrt(1.0 - cs * cs)
        nodes = np.vstack([(nodes[:, :, None] * sn).reshape(j, -1), np.tile(cs, len(weights))])
        weights = (weights[:, None] * wj).ravel()
    return nodes, weights


# the most nodes of _sphere_rule that one unequal-axis oracle point may use
_SPHERE_NODES = 8192


def _oracle_ellipsoid(geo: Hyperellipsoid, rho_b: float, r, tol: float):
    """The potential at r of a hyperellipsoid, d >= 3, from its boundary x =
    A u, u on the unit sphere, A = diag(axes).  As div_x((x - r) |x - r|^(2
    - d)) = 2 |x - r|^(2 - d), Gauss's theorem gives (Kellogg, 1929, ch. IV)

        int_V |x - r|^(2 - d) dV = (det A / 2) c^(2 - d) int [1 + (1 - s) p] dsigma(u),

    s = (A^-1 r).u, p = expm1((1 - d/2) log1p(q)), q = |A u - r|^2 / c^2 - 1,
    the 1 standing for 1 - s, as s integrates to zero.  With c = max(|r|,
    largest axis) q is summed from small terms, its constant part 0 when c =
    |r|, so far points neither cancel nor overflow.  u = cos g e + sin g v
    about the pole e = A^-1 r / |A^-1 r|: per inner node v, g runs over [0,
    pi/2], substituted at the pole, and [pi/2, pi], in one ``_edge_integral``
    call.  A ball's v is one node of weight c_(d - 1); otherwise v takes
    ``_sphere_rule(d - 2, n)`` on e's complement, n doubling from 2 until two
    rules agree to tol/2 or ``_SPHERE_NODES`` stops it (``tol_met`` false).
    The bracket takes tol / max(1, prefactor); the stats are the last rule's.
    """
    axes, d, y = geo.axes, geo.dim, r.tolist()
    rr = math.hypot(*y)
    _check_reach(rr + max(axes))
    c = max(rr, *axes)
    # rho_b det A c^(2 - d) / 2 from its largest factor down, so that no
    # partial product underflows before the whole does
    pref = math.prod([0.5 * rho_b * c * c, *(a / c for a in axes)])
    tol_b = tol / max(1.0, pref)
    rc = [v / c for v in y]
    t = [v / a for v, a in zip(rc, axes)]
    nt = math.hypot(*t)
    e = [v / nt for v in t] if nt > 0.0 else [1.0] + [0.0] * (d - 1)
    ny, ae = nt * c, [a / c * v for a, v in zip(axes, e)]
    # q = kappa - delta2 cos g + sin g (gm sin g + be (cos g - |A^-1 r|)); on a
    # ball |A v|^2 = |A e|^2 and A e.A v = 0 drop the last two
    alpha = sum(v * v for v in ae)
    kappa = alpha + (0.0 if c == rr else sum(v * v for v in rc) - 1.0)
    delta2 = 2.0 * sum(u * v for u, v in zip(ae, rc))
    expo, half, c_dm1 = 1.0 - 0.5 * d, 0.5 * math.pi, sphere_area(d - 1)

    def sweep(wts, coeffs, budget):
        # the nodes' pieces are integrated unweighted, each to budget / (2
        # c_(d - 1)), and summed with the weights, which add up to c_(d - 1)
        cols = [np.repeat(col, 2) for col in coeffs]

        def h(g, k):
            cs, sn = np.cos(g), np.sin(g)
            q = kappa - delta2 * cs
            if cols:
                gm, be = (col.take(k) for col in cols)
                q = q + sn * (gm * sn + be * (cs - ny))
            p = np.expm1(expo * np.log1p(np.maximum(q, _Q_FLOOR)))
            return (1.0 + (1.0 - ny * cs) * p) * sn ** (d - 2)

        res = _edge_integral(h, [(lo, hi, lo == 0.0, False, 0.5 * budget / c_dm1)
                                 for _ in wts for lo, hi in ((0.0, half), (half, math.pi))])
        return float(np.repeat(wts, 2) @ res.parts), float(max(wts)) * res[1], res.stats

    if _ball_radius(geo) is not None:
        val, err, stats = sweep([c_dm1], (), tol_b)
        return EvalResult(-pref * val, pref * err, stats)
    if 2 ** (d - 1) > _SPHERE_NODES:
        raise UnsupportedRegionError(f"potential_oracle: no sphere rule for {d} unequal axes")
    # A / c on an orthonormal frame of e's complement
    frame = np.linalg.qr(np.column_stack([e, np.eye(d)]))[0][:, 1:] * (np.array(axes) / c)[:, None]
    n, prev = 2, 0.0
    while True:
        v, wts = _sphere_rule(d - 2, n)
        av = frame @ v
        val, err, stats = sweep(wts, ((av * av).sum(axis=0) - alpha, 2.0 * (ae @ av)), 0.5 * tol_b)
        gap = abs(val - prev)
        if gap <= 0.5 * tol_b or 2 * (2 * n) ** (d - 2) > _SPHERE_NODES:
            break
        n, prev = 2 * n, val
    stats = replace(stats, tol_met=stats.tol_met and gap <= 0.5 * tol_b)
    return EvalResult(-pref * val, pref * (err + gap), stats)


def potential_oracle(dom: UniformDomain, r, tol: float = 1e-8) -> EvalResult:
    """Direct numerical evaluation of the background-potential integral.

    A planar ellipse or annulus runs ``_oracle_2d`` and a rectangle or a
    cuboid ``_oracle_box``: the divergence theorem turns the volume integral
    into smooth integrals over arcs or edges, which go to one breadth-first
    ``adaptive_1d`` call, far points included.  The segment ``Ball(1, R)``
    runs a 1d quadrature cut at the point.  Every ``Hyperellipsoid`` in d >=
    3, ball or not, runs ``_oracle_ellipsoid``: the same theorem on its
    bounding sphere, swept about the pole that the point picks, with a
    product rule over the other directions unless the body is a ball.
    Returns value and an absolute error estimate, with the quadrature's
    ``QuadStats`` in ``stats`` (``stats.tol_met`` is false when a panel was
    accepted at the roundoff floor or the depth cap short of its tolerance,
    or an unequal-axis body's sphere rule stopped at its node cap); raises
    QuadratureBudgetError carrying the best estimate on failure, and
    ValueError for a point that is not finite or too far from the body (some
    1e152 body sizes, ``_check_reach``).
    """
    if not tol > 0:
        raise ValueError("potential_oracle: tol must be > 0")
    geo = dom.geometry
    rho_b = dom.rho_b
    p = _point(r, geo.dim)
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError("potential_oracle: the point must be finite")
    if geo.dim == 1:
        res = _oracle_1d(geo, rho_b, float(p[0]), tol)
        return EvalResult(*res, res.stats)
    if isinstance(geo, Box):
        return _oracle_box(geo, rho_b, p, tol)
    if geo.dim == 2:
        return _oracle_2d(geo, rho_b, p, tol)
    if isinstance(geo, Hyperellipsoid):
        return _oracle_ellipsoid(geo, rho_b, p, tol)
    raise UnsupportedRegionError(f"no oracle for geometry {type(geo).__name__}")


# -------------------------------------------------------------- energies

def _background_self_energy(dom: UniformDomain) -> float:
    """Closed-form U_bb for the geometries with printed energy formulas."""
    geo, N = dom.geometry, dom.N
    axes = _ellipse_axes(geo)
    if axes:
        # an ellipse's capacity is (a1 + a2) / 2, R on the disk
        return N * N / 8.0 - (N * N / 2.0) * math.log((axes[0] + axes[1]) / 2.0)
    if geo.dim == 1:
        return -N * N * _ball_radius(geo) / 3.0
    if isinstance(geo, Annulus2D):
        R, c = geo.R, geo.c
        one = 1.0 - c * c
        return N * N / 8.0 - N * N * (
            math.log(R) / 2.0 + c * c / (4.0 * one)
            + c ** 4 * math.log(c) / (2.0 * one * one))
    raise UnsupportedRegionError(
        f"no closed-form interaction energy for {type(geo).__name__}")


def interaction_energy(dom: UniformDomain, points) -> float:
    """U_bb + U_pb for unit charges at the given positions.

    Points must lie in the validity region of the matching closed form
    (inside the body; within the annulus ring for Annulus2D).
    """
    geo = dom.geometry
    radius = _ball_radius(geo)
    u_bb = _background_self_energy(dom)
    total = u_bb
    for p in points:
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        rr = float(np.linalg.norm(arr))
        if radius is not None and rr > radius + 1e-12:
            raise UnsupportedRegionError("point outside the ball")
        if isinstance(geo, Annulus2D) and not (
                geo.c * geo.R - 1e-12 <= rr <= geo.R + 1e-12):
            raise UnsupportedRegionError("point outside the annulus ring")
        total += background_potential(dom, arr)
    return total


# ---------------------------------------------------------- cube self-energy

def cube_self_energy() -> float:
    """Background self-energy of the unit cube at unit density."""
    return (1.0 + math.sqrt(2.0) - 2.0 * math.sqrt(3.0)) / 5.0 \
        + math.log((1.0 + math.sqrt(2.0)) * (2.0 + math.sqrt(3.0))) - math.pi / 3.0


def cube_self_energy_mc(samples: int = 10 ** 7, seed: int = 2024):
    """Monte Carlo oracle for the cube self-energy: (1/2) E[1/|r-r'|] over
    independent uniform pairs, drawn 10^6 at a time.  Returns (estimate,
    stderr)."""
    bit = np.random.Philox(key=seed)
    rng = np.random.Generator(bit)
    total = 0.0
    total_sq = 0.0
    n_done = 0
    while n_done < samples:
        m = min(10 ** 6, samples - n_done)
        pts = rng.random((m, 6))
        d = np.linalg.norm(pts[:, :3] - pts[:, 3:], axis=1)
        vals = 0.5 / d
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        n_done += m
    mean = total / samples
    var = total_sq / samples - mean * mean
    return mean, math.sqrt(var / samples)
