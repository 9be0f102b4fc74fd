"""Exterior conformal maps as truncated Laurent series, logarithmic capacity
and Robin constants, equilibrium surface densities, two-point Green functions
in 2d and 3d, and droplet determination from quadratic potentials.

Sign conventions: the Green function at infinity is g = +log|zeta(z)| >= 0
and the Robin constant is -log(capacity), so cap([-1,1]) = 1/2 carries
robin = log 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import SingularityError

__all__ = [
    "LaurentMap",
    "InteriorPointError",
    "OffBoundaryError",
    "MapConstructionError",
    "circle_map",
    "interval_map",
    "ellipse_map",
    "green_infinity",
    "surface_density",
    "green_two_point",
    "green3d",
    "quadratic_droplet",
    "droplet_radii",
]


class InteriorPointError(ValueError):
    """Requested evaluation at a point inside the compact set."""


class OffBoundaryError(ValueError):
    """Requested a boundary quantity away from the boundary curve."""


class MapConstructionError(ValueError):
    """The coefficient data does not describe a univalent exterior map."""


def _segments_intersect(p):
    """Whether two segments of the closed polyline p (n x 2) cross properly.

    With e_j = p_{j+1} - p_j and k_j = e_j x p_j, side[i, j] = e_j x p_i - k_j
    tells which side of segment j's line point i lies on.  Segment i
    straddles line j iff side[i, j] * side[i + 1, j] < 0, and two segments
    cross iff each straddles the other's line.
    """
    e = np.roll(p, -1, axis=0) - p
    k = e[:, 0] * p[:, 1] - e[:, 1] * p[:, 0]
    side = np.multiply.outer(p[:, 1], e[:, 0])
    side -= np.multiply.outer(p[:, 0], e[:, 1])
    side -= k
    # side[j, j] repeats k_j's products, so it is 0 exactly: adjacent pairs never count
    m = side * np.roll(side, -1, axis=0) < 0
    return bool(np.any(m & m.T))


@dataclass(frozen=True)
class LaurentMap:
    """xi(w) = scale * w + a_0 + a_-1 / w + ..., univalent on |w| > 1.

    ``coefficients`` lists (a_0, a_-1, a_-2, ...).  Univalence is checked
    at construction in two steps: every root of the derivative must lie in
    the closed unit disk (``np.roots``), and the image of |w| = 1 + 1e-3 on a
    720-point grid must be a simple polyline, with no two non-adjacent
    segments crossing by the orientation test of ``_segments_intersect``.
    """

    scale: float
    coefficients: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.scale > 0:
            raise MapConstructionError("LaurentMap: scale must be > 0")
        object.__setattr__(self, "coefficients",
                           tuple(complex(c) for c in self.coefficients))
        # critical points strictly outside the unit circle break univalence
        # (on the circle itself they are allowed: slit maps); the derivative
        # times w^{kmax+1} is a polynomial whose roots are the critical points
        ks = [k for k in range(1, len(self.coefficients)) if self.coefficients[k] != 0]
        if ks:
            kmax = max(ks)
            coeffs = [complex(self.scale)] + [0.0j] * (kmax + 1)
            for k in ks:
                coeffs[k + 1] = -k * self.coefficients[k]
            roots = np.roots(coeffs)
            if np.any(np.abs(roots) > 1.0 + 1e-9):
                raise MapConstructionError(
                    "LaurentMap: derivative vanishes outside the unit circle")
        theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        w = (1.0 + 1e-3) * np.exp(1j * theta)
        z = self.evaluate(w)
        pts = np.column_stack([z.real, z.imag])
        if _segments_intersect(pts):
            raise MapConstructionError("LaurentMap: boundary image self-intersects")

    def evaluate(self, w):
        w = np.asarray(w, dtype=complex)
        out = self.scale * w
        for k, c in enumerate(self.coefficients):
            out = out + (c if k == 0 else c / w ** k)
        return out

    def derivative(self, w):
        w = np.asarray(w, dtype=complex)
        out = np.full_like(w, self.scale, dtype=complex)
        for k, c in enumerate(self.coefficients):
            if k >= 1:
                out = out - k * c / w ** (k + 1)
        return out

    def boundary_point(self, theta: float) -> complex:
        return complex(self.evaluate(np.exp(1j * theta)))

    def invert(self, z: complex) -> complex:
        """zeta(z): at most 50 Newton steps seeded from the linear part, to a
        residual of 1e-13 max(1, |z|) (1e-10 accepted after the last)."""
        z = complex(z)
        a0 = self.coefficients[0] if self.coefficients else 0.0
        w = (z - a0) / self.scale
        if abs(w) < 0.5:
            w = 0.5 * cmath.exp(1j * cmath.phase(w if w != 0 else 1.0))
        for _ in range(50):
            fw = complex(self.evaluate(w)) - z
            if abs(fw) <= 1e-13 * max(1.0, abs(z)):
                return w
            dw = complex(self.derivative(w))
            if dw == 0:
                break
            w = w - fw / dw
        fw = complex(self.evaluate(w)) - z
        if abs(fw) <= 1e-10 * max(1.0, abs(z)):
            return w
        raise MapConstructionError(f"LaurentMap.invert: no convergence at z = {z}")


def circle_map(R: float = 1.0) -> LaurentMap:
    return LaurentMap(R, (0.0,))


def interval_map(half_length: float = 1.0) -> LaurentMap:
    """Joukowski map onto the exterior of [-L, L]."""
    return LaurentMap(half_length / 2.0, (0.0, half_length / 2.0))


def ellipse_map(a1: float, a2: float) -> LaurentMap:
    """Joukowski map onto the exterior of the ellipse with semi-axes a1 >= a2 > 0."""
    if not (a1 >= a2 > 0):
        raise ValueError("ellipse_map: need a1 >= a2 > 0")
    return LaurentMap((a1 + a2) / 2.0, (0.0, (a1 - a2) / 2.0))


def green_infinity(mp: LaurentMap, z):
    """(g, capacity, robin) with g = log|zeta(z)| >= 0 for exterior z."""
    w = mp.invert(complex(z))
    if abs(w) < 1.0 - 1e-10:
        raise InteriorPointError(f"green_infinity: {z} maps inside the unit disk")
    g = math.log(max(abs(w), 1.0))
    return g, mp.scale, -math.log(mp.scale)


def surface_density(mp: LaurentMap, z) -> float:
    """Equilibrium density per arc length, |zeta'(z)| / 2 pi, on the boundary."""
    w = mp.invert(complex(z))
    if abs(abs(w) - 1.0) > 1e-8:
        raise OffBoundaryError(f"surface_density: {z} is not on the boundary")
    w = w / abs(w)
    dxi = complex(mp.derivative(w))
    return 1.0 / (2.0 * math.pi * abs(dxi))


def green_two_point(geometry, z, w, R: float = 1.0) -> float:
    """Dirichlet Green function with -log|z - w| singularity and zero
    boundary value, for the disk exterior, the upper half plane, or the
    exterior of a mapped domain."""
    z, w = complex(z), complex(w)
    if z == w:
        raise SingularityError("green_two_point: coincident points")
    if isinstance(geometry, LaurentMap):
        u, v = geometry.invert(z), geometry.invert(w)
        if abs(u) < 1.0 - 1e-10 or abs(v) < 1.0 - 1e-10:
            raise InteriorPointError("green_two_point: point inside the domain")
        return -math.log(abs(u - v) / abs(1.0 - u * v.conjugate()))
    if geometry == "disk":
        if not R > 0.0:
            raise ValueError(f"green_two_point: disk radius R must be > 0, got {R}")
        if abs(z) < R - 1e-12 or abs(w) < R - 1e-12:
            raise InteriorPointError("green_two_point: point inside the disk")
        return -math.log(abs(z - w) / abs(1.0 - z * w.conjugate() / R ** 2))
    if geometry == "halfplane":
        if z.imag < -1e-12 or w.imag < -1e-12:
            raise InteriorPointError("green_two_point: point below the real axis")
        return -math.log(abs(z - w) / abs(z - w.conjugate()))
    raise ValueError(f"green_two_point: unknown geometry {geometry!r}")


def green3d(geometry, r, rp, R: float = 1.0) -> float:
    """Image-charge Green functions in R^3: grounded sphere or half-space."""
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if r.shape != (3,) or rp.shape != (3,):
        raise ValueError("green3d: points must be 3-vectors")
    dist = float(np.linalg.norm(r - rp))
    direct = 1.0 / dist if dist > 0.0 else math.inf
    if not math.isfinite(direct):
        raise SingularityError("green3d: coincident points (1/|r - r'| is not finite)")
    if geometry == "sphere":
        if not R > 0.0:
            raise ValueError(f"green3d: sphere radius R must be > 0, got {R}")
        nr, nrp = np.linalg.norm(r), np.linalg.norm(rp)
        if nr < R - 1e-12 or nrp < R - 1e-12:
            raise InteriorPointError("green3d: point inside the sphere")
        image = R ** 2 * rp / nrp ** 2
        return direct - (R / nrp) / np.linalg.norm(r - image)
    if geometry == "halfspace":
        if r[2] < -1e-12 or rp[2] < -1e-12:
            raise InteriorPointError("green3d: point inside the conductor z < 0")
        mirror = rp * np.array([1.0, 1.0, -1.0])
        return direct - 1.0 / np.linalg.norm(r - mirror)
    raise ValueError(f"green3d: unknown geometry {geometry!r}")


def quadratic_droplet(alpha: float, area: float) -> LaurentMap:
    """Exterior map of the droplet for the planar gas with potential
    |z|^2 + 2 alpha Re(z^2): a three-coefficient Laurent ansatz whose
    boundary is the ellipse of the prescribed area."""
    if not abs(2.0 * alpha) < 1.0:
        raise ValueError("quadratic_droplet: require |2 alpha| < 1")
    if area <= 0:
        raise ValueError("quadratic_droplet: area must be > 0")
    a1 = math.sqrt(area / (math.pi * (1.0 - (2.0 * alpha) ** 2)))
    return LaurentMap(a1, (0.0, -2.0 * alpha * a1))


def droplet_radii(qprime):
    """Support radii (r0, r1) of the radially symmetric droplet of a
    one-body potential q, from its derivative qprime = q'.

    r0 solves r q'(r) = 0 and r1 solves r q'(r) = 2, located by bisection
    on (0, hi], where hi = 8 is doubled until r q'(hi) >= 2, at most 16
    times.  q must be strictly subharmonic there: r q'(r) is checked for
    monotone increase on a grid of 256 samples.
    """
    def h(r):
        return r * qprime(r)

    hi = 8.0
    for _ in range(16):
        if h(hi) >= 2.0:
            break
        hi *= 2.0
    eps = max(1e-12, 1e-9 * hi)
    grid = np.linspace(eps, hi, 256)
    vals = np.array([h(float(r)) for r in grid])
    if np.any(np.diff(vals) <= 0):
        raise ValueError("droplet_radii: r q'(r) is not strictly increasing "
                         f"(q not strictly subharmonic on (0, {hi}])")

    def bisect(target, glo, ghi):
        flo = h(glo) - target
        fhi = h(ghi) - target
        if flo > 0 or fhi < 0:
            raise ValueError(f"droplet_radii: no root for r q'(r) = {target} "
                             f"in [{glo}, {ghi}]")
        for _ in range(200):
            mid = 0.5 * (glo + ghi)
            if h(mid) - target <= 0:
                glo = mid
            else:
                ghi = mid
        return 0.5 * (glo + ghi)

    if vals[0] >= 0.0:
        r0 = 0.0  # r q'(r) >= 0 down to the origin: solid droplet
    else:
        r0 = bisect(0.0, float(grid[0]), hi)
    if vals[-1] < 2.0:
        raise ValueError(f"droplet_radii: r q'(r) never reaches 2 on (0, {hi}]")
    r1 = bisect(2.0, float(grid[0]), hi)
    return r0, r1
