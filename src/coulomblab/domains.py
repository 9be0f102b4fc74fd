"""Uniformly charged domains: closed-form background potentials and energies,
plus a direct-quadrature oracle for the defining integral.

Conventions: a "background" always carries total charge -N (density
-rho_b = -N/|Omega|); potentials of positively charged bodies are obtained by
negation at the call site.  The pair kernel in dimension d is the free
Coulomb solution (-|x-x'| in 1d, -log in 2d, power law above), embedded in
the general Riesz family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_1d, gl_nodes
from .specfun import EvalResult, SingularityError, gamma

__all__ = [
    "poisson_constant",
    "Ball",
    "Annulus2D",
    "Segment1D",
    "Hyperellipsoid",
    "Ellipse2D",
    "Cuboid",
    "Rectangle",
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
class Ball:
    d: int
    R: float

    def __post_init__(self):
        if self.d < 1 or not self.R > 0:
            raise ValueError("Ball: need d >= 1, R > 0")

    @property
    def dim(self):
        return self.d

    @property
    def axes(self):
        return (float(self.R),) * self.d

    @property
    def volume(self):
        return math.pi ** (self.d / 2.0) * self.R ** self.d / gamma(self.d / 2.0 + 1.0)


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
class Segment1D:
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("Segment1D: need R > 0")

    dim = 1

    @property
    def volume(self):
        return 2.0 * self.R


@dataclass(frozen=True)
class Hyperellipsoid:
    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(float(a) for a in self.axes))
        if len(self.axes) < 2 or not all(a > 0 for a in self.axes):
            raise ValueError("Hyperellipsoid: need >= 2 positive axes")

    @property
    def dim(self):
        return len(self.axes)

    @property
    def volume(self):
        d = self.dim
        return math.pi ** (d / 2.0) * math.prod(self.axes) / gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Ellipse2D:
    a1: float
    a2: float

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError("Ellipse2D: need positive semi-axes")

    dim = 2

    @property
    def axes(self):
        return (float(self.a1), float(self.a2))

    @property
    def volume(self):
        return math.pi * self.a1 * self.a2


@dataclass(frozen=True)
class Cuboid:
    bounds: tuple  # ((a1,b1),(a2,b2),(a3,b3))

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", b)
        if len(b) != 3 or not all(hi > lo for lo, hi in b):
            raise ValueError("Cuboid: need three nondegenerate intervals")

    dim = 3

    @property
    def volume(self):
        return math.prod(hi - lo for lo, hi in self.bounds)


@dataclass(frozen=True)
class Rectangle:
    bounds: tuple  # ((a1,b1),(a2,b2))

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", b)
        if len(b) != 2 or not all(hi > lo for lo, hi in b):
            raise ValueError("Rectangle: need two nondegenerate intervals")

    dim = 2

    @property
    def volume(self):
        return math.prod(hi - lo for lo, hi in self.bounds)


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
    """The semi-axes (a1, a2) of a planar ellipse, read by shape: a disk, an
    ``Ellipse2D`` or a two-axis ``Hyperellipsoid``; None for any other body."""
    axes = getattr(geo, "axes", ())
    return axes if len(axes) == 2 else None


def _point(r, dim):
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"expected a point in dimension {dim}, got shape {arr.shape}")
    return arr


# ------------------------------------------------- hyperellipsoid lambda tools

def _s0(axes, lam):
    out = np.ones_like(lam)
    for a in axes:
        out = out * (a * a + lam)
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
    """Integral over [lam0, inf) of weight(lam) / sqrt(S_0(lam)).

    Uses lam = lam0 + A (t/(1-t))^2 so the decaying tail becomes a smooth
    integrand on [0, 1] for every d >= 3.
    """
    scale = float(np.mean([a * a for a in axes])) + lam0

    def f(t):
        t = np.clip(t, 0.0, 1.0 - 1e-16)
        lam = lam0 + scale * (t / (1.0 - t)) ** 2
        jac = 2.0 * scale * t / (1.0 - t) ** 3
        return weight(lam) / np.sqrt(_s0(axes, lam)) * jac

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

def _ball_potential(geo: Ball | Segment1D, N: float, r) -> float:
    d, R = geo.dim, geo.R
    rho_b = N / geo.volume
    with np.errstate(over="ignore"):
        rr = float(np.linalg.norm(r))
    if rr == math.inf:  # the squares overflowed; hypot scales them
        rr = math.hypot(*r.tolist())
    if rr <= R:
        return rho_b * (poisson_constant(d) / (2.0 * d)) * (rr * rr - R * R) \
            - N * coulomb_radial(d, R)
    return -N * coulomb_radial(d, rr)


def _annulus_potential(geo: Annulus2D, N: float, r) -> float:
    R, c = geo.R, geo.c
    rho_b = N / geo.volume
    rr = float(np.linalg.norm(r))
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
    if isinstance(geo, (Ball, Segment1D)):
        return _ball_potential(geo, dom.N, p)
    if isinstance(geo, Annulus2D):
        return _annulus_potential(geo, dom.N, p)
    if _ellipse_axes(geo):
        return _ellipse_potential(*geo.axes, dom.N, p)
    if isinstance(geo, Hyperellipsoid):
        return _hyperellipsoid_potential(geo, dom.N, p)
    if isinstance(geo, Cuboid):
        return -dom.rho_b * macmillan_cuboid_potential(geo.bounds, p)
    if isinstance(geo, Rectangle):
        return -dom.rho_b * rectangle_log_potential(geo.bounds, p)
    raise UnsupportedRegionError(f"unsupported geometry {type(geo).__name__}")


# ------------------------------------------------------------ oracle (rays)

def _ray_chords(geo, origin):
    """Chords through the body of the rays {origin + t e, t >= 0}, as a
    function of the directions e: it takes their d components as a sequence
    of (n,) arrays (a component that is zero on every ray may be the float
    0.0) and returns a (k, 2, n) array of chords (t0, t1), 0 <= t0 <= t1,
    with k = 1 for the convex bodies and k = 2 for the annulus (before and
    after the hole).  A ray that misses gives t0 = t1.  What depends on the
    origin alone is computed here, once per point.  Raises ValueError for an
    origin so far from the body that its chords, or their ends' t^2 log t,
    overflow.
    """
    o = np.asarray(origin, dtype=float)
    if isinstance(geo, (Rectangle, Cuboid)):
        # slab method, one axis at a time; a ray parallel to a slab gives
        # +-inf (nan on its face, which fmax/fmin skip)
        slabs = [(lo - ok, hi - ok) for (lo, hi), ok in zip(geo.bounds, o)]
        _check_reach(math.hypot(*(max(-lo, hi) for lo, hi in slabs)))

        def slab_chords(dirs):
            t0, t1 = 0.0, math.inf
            with np.errstate(divide="ignore", invalid="ignore"):
                for (lo, hi), e in zip(slabs, dirs):
                    ta, tb = lo / e, hi / e
                    t0, t1 = np.fmax(t0, np.fmin(ta, tb)), np.fmin(t1, np.fmax(ta, tb))
            return np.where(t1 > t0, np.array([[t0, t1]]), 0.0)
        return slab_chords
    if isinstance(geo, Annulus2D):
        # the disk and its hole in one pass
        radii = np.array([[geo.R], [geo.c * geo.R]])
        _check_reach(math.hypot(*o.tolist()) + geo.R, geo.c * geo.R)
        both = _quadric_chords(o, (radii, radii))

        def annulus_chords(dirs):
            r = both(dirs)
            # a ray that misses the hole gets an empty hole chord at its exit
            # from the disk; then the chords are (t0, hole t0), (hole t1, t1)
            r[:, 1] = np.where(r[1, 1] <= r[0, 1], r[1, 0], r[:, 1])
            r[1] = r[1, ::-1]
            return r
        return annulus_chords
    axes = getattr(geo, "axes", None)
    if axes is None:
        raise UnsupportedRegionError(f"no ray intersections for {type(geo).__name__}")
    _check_reach(math.hypot(*o.tolist()) + max(axes), min(axes))
    one = _quadric_chords(o, axes)
    return lambda dirs: one(dirs).reshape(1, 2, -1)


def _check_reach(far, a_min=math.inf):
    """Refuse an origin whose chords overflow.  ``far`` bounds the chord ends,
    of which the 2d oracle takes t^2 (2 log t - 1) and the d-ball's t^2; a
    quadric also passes its smallest axis, and on unit directions
    4 (far / a_min^2)^2 bounds each term of its chords' b^2 - a c."""
    q = far / a_min / a_min
    if not (math.isfinite(far * far * (2.0 * math.log(far) - 1.0)) and math.isfinite(4.0 * q * q)):
        raise ValueError("ray chords: the point is too far from the body")


def _quadric_chords(origin, axes):
    """Chords of the rays from ``origin`` through the solid ellipsoid
    sum (x_i/a_i)^2 <= 1, as a function of direction components as in
    ``_ray_chords``; it returns the (2, n) array of entries t0 and exits t1.
    Each a_i may instead be a (k, 1) column, for k ellipsoids at once: then
    the chords are (2, k, n).  Each quadratic's coefficients are summed
    component by component, first to last."""
    origin = origin.tolist()
    ax2 = [a * a for a in axes]
    c = np.add.reduce([(ok / a) * (ok / a) for ok, a in zip(origin, axes)]) - 1.0
    rest = list(zip(origin[1:], axes[1:], ax2[1:]))
    # the smaller and larger root of each quadratic, (-b -+ sq) / a
    signs = _ROOT_SIGNS if c.ndim == 0 else _ROOT_SIGNS[:, :, None]

    def chords(dirs):
        a, b = (dirs[0] / axes[0]) ** 2, origin[0] * dirs[0] / ax2[0]
        for (ok, ak, ak2), e in zip(rest, dirs[1:]):
            a, b = a + (e / ak) ** 2, b + ok * e / ak2
        sq = np.sqrt(np.maximum(b * b - a * c, 0.0))
        # rounding is monotone, so the larger root stays the larger
        return np.maximum((sq * signs - b) / a, 0.0)
    return chords


_ROOT_SIGNS = np.array([[-1.0], [1.0]])


def _conic_tangents(origin, a1, a2):
    """Directions from a point on or outside the ellipse (x/a1)^2 + (y/a2)^2
    = 1 to its two points of tangency (the boundary tangent for a point on
    it); none for an interior point.

    In the scaled plane (x/a1, y/a2) the ellipse is the unit circle and the
    tangent from q at the touching angle psi = arg q +- acos(1/|q|) runs
    along (-+sin psi, +-cos psi); scaling back keeps tangency.
    """
    q = (origin[0] / a1, origin[1] / a2)
    rho = math.hypot(*q)
    if rho < 1.0 - 1e-12:
        return []
    phi = math.atan2(q[1], q[0])
    alpha = math.acos(min(1.0 / rho, 1.0))
    return [math.atan2(sgn * a2 * math.cos(phi + sgn * alpha),
                       -sgn * a1 * math.sin(phi + sgn * alpha))
            for sgn in (1.0, -1.0)]


def _kink_angles(geo, origin):
    """Directions in [0, 2 pi) where the angular integrand of the 2d ray
    oracle is not smooth, as sorted (angle, is_edge) pairs: support edges,
    where a chord opens like a square root, are the tangents to each circle or
    ellipse boundary that the point lies on or outside (for the annulus also
    its inner circle); kinks are the rays through rectangle corners."""
    if isinstance(geo, Rectangle):
        (a1, b1), (a2, b2) = geo.bounds
        angles = [math.atan2(y - origin[1], x - origin[0])
                  for x in (a1, b1) for y in (a2, b2)
                  if (x, y) != (origin[0], origin[1])]
    elif isinstance(geo, Annulus2D):
        angles = _conic_tangents(origin, geo.R, geo.R) \
            + _conic_tangents(origin, geo.c * geo.R, geo.c * geo.R)
    else:
        angles = _conic_tangents(origin, *_ellipse_axes(geo))
    is_edge = not isinstance(geo, Rectangle)
    return sorted((a % (2.0 * math.pi), is_edge) for a in angles)


# u(s) = c1 s + c2 s^2 + c3 s^3 on an interval, by which of its ends
# (lower, upper) are support edges
_EDGE_MAPS = {(False, False): (1.0, 0.0, 0.0), (True, False): (0.0, 1.0, 0.0),
              (False, True): (2.0, -1.0, 0.0), (True, True): (0.0, 3.0, -2.0)}


def _edge_integral(h, pieces):
    """Sum of the integrals of h over the pieces (lo, hi, lo_edge, hi_edge,
    tol), in one adaptive_1d call; its ``.parts`` are the pieces' values.

    Piece k lies on [k, k + 1] of the quadrature variable x; with s = x - k
    it is mapped by theta = lo + (hi - lo) u(s), where u substitutes at the
    ends that are support edges: u = s^2 at the lower end, s (2 - s) at the
    upper, s^2 (3 - 2 s) at both, and u = s at neither.  Where h grows like
    the square root of the distance to an edge, or falls like its inverse,
    the vanishing u' leaves an integrand smooth in s (Davis & Rabinowitz,
    Methods of Numerical Integration, 2nd ed., 1984).  ``h`` takes the
    nodes and the index of each one's piece.
    """
    # per piece: its start k and the Horner coefficients, highest last, of
    # theta = lo + s (a1 + s (a2 + s a3)) and of dtheta/ds = a1 + s (b2 + s b3),
    # side by side (b3 + s 0 = b3 for s >= 0), then its tolerance
    rows = []
    for k, (lo, hi, lo_edge, hi_edge, tol) in enumerate(pieces):
        a1, a2, a3 = ((hi - lo) * c for c in _EDGE_MAPS[lo_edge, hi_edge])
        rows.append((k, lo, a1, a1, 2.0 * a2, a2, 3.0 * a3, a3, 0.0, tol))
    table = np.array(list(zip(*rows)))
    last = len(rows) - 1

    def f(x):
        # a node that rounds onto k + 1 (panels below ~1e-13 wide) is read
        # at s = 0 of the next piece, or at s = 1 of the last, with a weight
        # below roundoff
        k = np.minimum(x.astype(np.intp), last)
        c = table[:9].take(k, axis=1)
        s = x - c[0]
        theta, dtheta = c[1:3] + s * (c[3:5] + s * (c[5:7] + s * c[7:9]))
        return dtheta * h(theta, k)

    return adaptive_1d(f, table[0], table[0] + 1.0, table[9])


def _log_primitive(t):
    # integral of u log u du from 0 to t; -0.0 at t = 0, which a sum of
    # chord differences started from 0 reads as 0.0
    tt = np.maximum(t, 1e-300)
    return tt * tt * (2.0 * np.log(tt) - 1.0) / 4.0


def _oracle_1d(geo: Segment1D | Ball, rho_b: float, x: float, tol: float):
    R = geo.R

    def f(xp):
        return rho_b * np.abs(x - xp)

    cuts = sorted({-R, R} | ({x} if -R < x < R else set()))
    n = len(cuts) - 1
    return adaptive_1d(f, cuts[:-1], cuts[1:], [tol / n] * n)


def _ray_integral(geo, origin, radial, tol, pieces=1):
    """Integral over the directions from ``origin`` of ``radial(dirs,
    chords)``, the n ray integrals of n directions (their components, as
    ``_ray_chords`` takes them) and their chords, in one ``_edge_integral``.
    A planar origin sweeps the full circle, cut at ``_kink_angles`` (across a
    cut the panel error estimate is blind); a sweep with no such cut is
    split into ``pieces`` equal arcs.  ``_oracle_2d`` passes 4: its
    directions are cheap, so a point costs per level of the panel tree, and
    from quarter-turn roots most interior and hole points finish at the
    root level, where one whole turn needs 2-5 levels.  ``surfaces`` keeps
    1: each of its directions carries a radial quadrature, so its cost is per
    direction, and quarter turns evaluate more of them.  An axis point
    (x, 0, ..., 0), x >= 0, of a d-ball sweeps the polar angle gamma with
    weight sin(gamma)^(d - 2), outside the ball over gamma > pi - asin(R/x)
    with the support edge at that end; the caller multiplies by the azimuths'
    area.
    """
    chords = _ray_chords(geo, origin)
    d = len(origin)
    if d == 2:
        def h(thetas, _):
            dirs = (np.cos(thetas), np.sin(thetas))
            return radial(dirs, chords(dirs))

        kinks = _kink_angles(geo, origin) or [(2.0 * math.pi * k / pieces, False)
                                              for k in range(1, pieces)]
        cuts = [(0.0, False), *kinks, (2.0 * math.pi, False)]
        return _edge_integral(h, [(lo, hi, lo_edge, hi_edge, tol * (hi - lo) / (2.0 * math.pi))
                                  for (lo, lo_edge), (hi, hi_edge) in zip(cuts[:-1], cuts[1:])
                                  if hi - lo >= 1e-14])

    def h(gammas, _):
        dirs = (np.cos(gammas), np.sin(gammas), *[0.0] * (d - 2))
        return radial(dirs, chords(dirs)) * np.sin(gammas) ** (d - 2)

    x, R = float(origin[0]), geo.R
    lo = math.pi - math.asin(min(R / x, 1.0)) if x > R else 0.0
    return _edge_integral(h, [(lo, math.pi, x > R, False, tol)])


def _oracle_2d(geo, rho_b: float, r, tol: float):
    def radial(dirs, chords):
        # one primitive call on every chord end: p[k] holds chord k's (t0, t1)
        p = _log_primitive(chords)
        return rho_b * sum(p[:, 1] - p[:, 0])

    return _ray_integral(geo, np.asarray(r, dtype=float), radial, tol, pieces=4)


def _cuboid_newton_integral(bounds, y, n: int) -> float:
    """Direct integral of 1/|y - x| by signed corner decomposition.

    Each corner box [0, L1] x [0, L2] x [0, L3] of y with no zero side splits
    into three Duffy pyramids with apex at y (Duffy, SIAM J. Numer. Anal. 19,
    1982); pyramid (a, b, c) contributes a b c / 2 times the n x n
    Gauss-Legendre sum of 1 / sqrt(a^2 + (b v)^2 + (c w)^2) over the unit
    square.  All pyramids are evaluated on the grid in one pass and summed
    per box, then per corner.
    """
    signs, sides = [], []
    for i0 in range(2):
        for i1 in range(2):
            for i2 in range(2):
                sgn = (-1) ** (i0 + i1 + i2)  # minus for each lower bound
                v = [bounds[k][1 - ik] - y[k] for k, ik in enumerate((i0, i1, i2))]
                s = math.prod(math.copysign(1.0, vi) if vi != 0.0 else 0.0 for vi in v)
                if s == 0.0:
                    continue
                L1, L2, L3 = abs(v[0]), abs(v[1]), abs(v[2])
                signs.append(sgn * s)
                sides += [(L1, L2, L3), (L2, L3, L1), (L3, L1, L2)]
    x, w = gl_nodes(n)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    a, b, c = np.array(sides).T[:, :, None, None]
    grid = np.sum(np.outer(wt, wt) / np.sqrt(a * a + (b * t[:, None]) ** 2 + (c * t) ** 2),
                  axis=(1, 2))
    pyramids = ((a * b * c * 0.5).ravel() * grid).reshape(-1, 3).tolist()
    total = 0.0
    for sign, (p0, p1, p2) in zip(signs, pyramids):
        total += sign * (p0 + p1 + p2)
    return total


def _oracle_cuboid(geo: Cuboid, rho_b: float, r, tol: float):
    y = np.asarray(r, dtype=float)
    coarse = _cuboid_newton_integral(geo.bounds, y, 28)
    fine = _cuboid_newton_integral(geo.bounds, y, 40)
    return -rho_b * fine, abs(fine - coarse) * rho_b


def _oracle_ellipsoid_qmc(geo: Hyperellipsoid, rho_b: float, r):
    """Quasi-random directional integration for d >= 3 hyperellipsoids, blind
    to ``tol``: the mean over 8 scrambled Sobol sets of 2^13 directions (seeds 7..14)."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    d = geo.dim
    chords = _ray_chords(geo, r)
    estimates = []
    for rep in range(8):
        sob = qmc.Sobol(d, scramble=True, seed=7 + rep)
        u = sob.random_base2(13)
        g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        ((t0, t1),) = chords(dirs.T)
        contrib = (t1 * t1 - t0 * t0) / 2.0
        estimates.append(-rho_b * sphere_area(d) * float(np.mean(contrib)))
    val = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1) / math.sqrt(8))
    return val, stderr


def potential_oracle(dom: UniformDomain, r, tol: float = 1e-8) -> EvalResult:
    """Direct numerical evaluation of the background-potential integral.

    Rays from the evaluation point carry the (exact) radial primitive of the
    kernel so no singular integrand ever reaches the quadrature; what remains
    is an angular integral: quasi-random directions, the QMC path, for
    hyperellipsoids in d >= 3, else the adaptive sweep of ``_ray_integral``
    that the projection identities of ``surfaces`` share.  In 2d it is cut
    at the exact directions where its integrand has a kink or a support edge:
    tangents to each boundary circle or ellipse that the point lies on or
    outside, and rays through rectangle corners.  At a support edge the
    integrand opens like a square root, which a quadratic change of variable
    at that end of the interval removes (as at the d-ball's cone edge).  A
    point with no such direction (inside the disk or the ellipse, in the
    annulus' hole) sweeps four quarter turns instead of one whole turn.  All
    the intervals of one point are integrated in one breadth-first
    ``adaptive_1d`` call, one integrand call per level of the panel tree;
    from quarter-turn roots most cut-free points finish at the root level.
    What depends on the point alone (the chord quadratics' constant terms,
    the piece table) is set up once per point, so an integrand call is a
    fixed ~40 numpy operations on its nodes (``scripts/quad_overhead.py``
    times whole points).  A body is read by its shape: a two-axis
    ``Hyperellipsoid`` runs the ellipse's sweep and ``Ball(1, R)`` the
    segment's.
    The cuboid and QMC paths ignore ``tol``.  The cuboid's corner boxes
    split into Duffy pyramids, all evaluated in one grid pass by fixed 28-
    and 40-point rules; its error estimate is |fine - coarse|.
    Returns value and an absolute error estimate, with the quadrature's
    ``QuadStats`` in ``stats`` on the segment, 2d and d-ball paths
    (``stats.tol_met`` is false when a panel was accepted at the roundoff
    floor or the depth cap short of its tolerance; the cuboid and QMC paths
    carry none); raises QuadratureBudgetError carrying the best estimate on
    failure, and ValueError for a point that is not finite or so far out
    that its ray chords would overflow.
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
    if geo.dim == 2:
        res = _oracle_2d(geo, rho_b, p, tol)
        return EvalResult(*res, res.stats)
    if isinstance(geo, Ball):
        # the point moved onto the first axis; each chord's integral of the
        # kernel t^(2-d) times the Jacobian t^(d-1)
        origin = np.zeros(geo.d)
        origin[0] = np.linalg.norm(p)
        c_dm1 = sphere_area(geo.d - 1)
        res = _ray_integral(geo, origin, lambda dirs, c: (c[0, 1] ** 2 - c[0, 0] ** 2) / 2.0, tol)
        return EvalResult(-rho_b * c_dm1 * res[0], abs(c_dm1 * res[1]) * rho_b + 1e-16,
                          res.stats)
    if isinstance(geo, Cuboid):
        val, err = _oracle_cuboid(geo, rho_b, p, tol)
        return EvalResult(val, err)
    if isinstance(geo, Hyperellipsoid):
        val, err = _oracle_ellipsoid_qmc(geo, rho_b, p)
        return EvalResult(val, err)
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
        return -N * N * geo.R / 3.0
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
    u_bb = _background_self_energy(dom)
    total = u_bb
    for p in points:
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        rr = float(np.linalg.norm(arr))
        if isinstance(geo, (Ball, Segment1D)) and rr > geo.R + 1e-12:
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
