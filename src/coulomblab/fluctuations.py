"""Determinantal kernels, limiting covariances of linear statistics, and
smoothed surface correlation functions for log-gases on contours and for the
planar gas with a uniform background.

Prefactor conventions relative to the beta = 2 circle formula: covariance on
a contour scales by 2/beta, the background (droplet) surface term by 1/beta,
and the interval (slit) case carries an extra factor of two, 4/beta.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._quad import gl_nodes
from .conformal import LaurentMap, ellipse_map
from .specfun import SingularityError

__all__ = [
    "cue_kernel",
    "subblock_kernel",
    "covariance_circle",
    "covariance_mapped",
    "surface_correlation",
]

_GRID = 4096  # discrete-transform size for Fourier coefficients


def _samples(f, points):
    """f at each of the points, as a float array."""
    return np.array([float(f(p)) for p in points])


def cue_kernel(N: int, theta: float, thetap: float) -> float:
    """Circular-ensemble sine kernel (1/2pi) sin(N d/2)/sin(d/2); the
    coincident-point limit is N/2pi."""
    if N < 1:
        raise ValueError("cue_kernel: N >= 1")
    d = theta - thetap
    s = math.sin(0.5 * d)
    if abs(s) < 1e-13:
        return N / (2.0 * math.pi)
    return math.sin(0.5 * N * d) / s / (2.0 * math.pi)


def subblock_kernel(N: int, z: complex, zp: complex, smoothed: bool = False):
    """Kernel of the unitary sub-block ensemble on the unit disk.

    Plain mode evaluates (1/pi) sum_{j<=N} j (z conj(z'))^{j-1}.  Smoothed
    mode integrates |K_N|^2 of the large-N kernel over the two radii, which
    is the surface-smoothed pair correlation at angle separation
    arg(z conj(z')).
    """
    if N < 1:
        raise ValueError("subblock_kernel: N >= 1")
    z, zp = complex(z), complex(zp)
    if abs(z) > 1.0 + 1e-12 or abs(zp) > 1.0 + 1e-12:
        raise ValueError("subblock_kernel: points must lie in the closed unit disk")
    if not smoothed:
        w = z * zp.conjugate()
        if abs(w - 1.0) < 1e-12:
            val = N * (N + 1) / 2.0 / math.pi
            return val
        # sum_{j=1}^{N} j w^{j-1} in closed form
        val = (1.0 - (N + 1) * w ** N + N * w ** (N + 1)) / (1.0 - w) ** 2 / math.pi
        return val.real if abs(val.imag) < 1e-14 * abs(val) else val
    dtheta = cmath.phase(z * zp.conjugate())
    x, wq = gl_nodes(240)
    r = 0.5 * (x + 1.0)
    w2 = 0.5 * wq
    R1, R2 = np.meshgrid(r, r, indexing="ij")
    W = np.outer(w2, w2)
    s = R1 * R2
    dens = (N ** 2 / math.pi ** 2) * s ** (2 * N) \
        / (1.0 - 2.0 * s * math.cos(dtheta) + s * s)
    return float(np.sum(dens * R1 * R2 * W))


def _fourier_pairing(fvals, gvals) -> float:
    """sum_{|n| < m/2} |n| f_n g_{-n} over the DFT of m equally spaced samples."""
    m = len(fvals)
    fc, gc = np.fft.fft(fvals) / m, np.fft.fft(gvals) / m
    n = np.fft.fftfreq(m, 1.0 / m)
    keep = np.abs(n) < m // 2
    idx_neg = (-n).astype(int) % m
    return float(np.real(np.sum(np.abs(n)[keep] * fc[keep] * gc[idx_neg][keep])))


def _quadrature_covariance(fvals, gvals, theta) -> float:
    """Trapezoid double sum of the difference-quotient kernel, diagonal cells
    assigned the analytic limit 4 f' g'."""
    m = len(theta)
    dtheta = 2.0 * math.pi / m
    n = np.fft.fftfreq(m, 1.0 / m)
    fprime = np.real(np.fft.ifft(1j * n * np.fft.fft(fvals)))
    gprime = np.real(np.fft.ifft(1j * n * np.fft.fft(gvals)))
    df = fvals[:, None] - fvals[None, :]
    dg = gvals[:, None] - gvals[None, :]
    s2 = np.sin(0.5 * (theta[:, None] - theta[None, :])) ** 2
    np.fill_diagonal(s2, 1.0)
    kern = df * dg / s2
    np.fill_diagonal(kern, 4.0 * fprime * gprime)
    return float(np.sum(kern)) * dtheta ** 2 / (4.0 * math.pi) ** 2


def _check_beta(where: str, beta: float) -> None:
    # beta = 0 is left to the ZeroDivisionError of the 1/beta prefactor
    if beta < 0:
        raise ValueError(f"{where}: beta must be positive, got {beta}")


def covariance_circle(f, g, beta: float = 2.0, route: str = "fourier") -> float:
    """Limiting covariance of linear statistics for the log-gas on the unit
    circle, scaled by 2/beta relative to the beta = 2 value."""
    _check_beta("covariance_circle", beta)
    if route not in ("fourier", "quadrature"):
        raise ValueError(f"covariance_circle: unknown route {route!r}")
    m = _GRID if route == "fourier" else 512
    theta = 2.0 * math.pi * np.arange(m) / m
    fvals, gvals = _samples(f, theta), _samples(g, theta)
    if route == "fourier":
        val = _fourier_pairing(fvals, gvals)
    else:
        val = _quadrature_covariance(fvals, gvals, theta)
    return (2.0 / beta) * val


_CONVENTION_PREFACTOR = {"contour": 2.0, "background": 1.0, "interval": 4.0}


def covariance_mapped(mp: LaurentMap, f, g, beta: float = 2.0,
                      convention: str = "contour", m: int = 2048) -> float:
    """Limiting covariance for statistics on the boundary image of a Laurent
    map: the circle pairing sum |n| f_n g_{-n} of the pulled-back functions,
    sampled at ``m`` boundary points.

    ``f`` and ``g`` take the boundary point as a complex number.  The
    convention selects the prefactor: 2/beta on a contour, 1/beta with a
    neutralizing background, 4/beta for the degenerate interval.
    """
    _check_beta("covariance_mapped", beta)
    if convention not in _CONVENTION_PREFACTOR:
        raise ValueError(f"covariance_mapped: unknown convention {convention!r}")
    theta = 2.0 * math.pi * np.arange(m) / m
    boundary = mp.evaluate(np.exp(1j * theta))
    val = _fourier_pairing(_samples(f, boundary), _samples(g, boundary))
    return _CONVENTION_PREFACTOR[convention] / beta * val


def surface_correlation(geometry, beta: float, p1, p2) -> float:
    """Limiting smoothed truncated surface correlation.

    Geometries and the meaning of p1/p2: ("disk", R) or "disk" takes boundary
    angles; "halfplane2d" takes real coordinates along the wall; ("ellipse",
    a1, a2) takes the exterior-map parameter angles; "halfspace3d" takes 2d
    points on the wall; a LaurentMap takes boundary points as complex numbers
    (conjectural exterior-kernel form, marked in the CLI output).  The last
    three share -1/(2 beta pi^2 |1 - u v*|^2 |xi'(u)| |xi'(v)|) in the map's
    preimages u, v on the unit circle, where |1 - u v*| = |u - v|.
    """
    _check_beta("surface_correlation", beta)
    if geometry == "halfplane2d":
        sep = abs(float(p1) - float(p2))
        if sep < 1e-14:
            raise SingularityError("surface_correlation: coincident points")
        return -1.0 / (2.0 * beta * math.pi ** 2 * sep ** 2)
    if geometry == "halfspace3d":
        a = np.asarray(p1, dtype=float)
        b = np.asarray(p2, dtype=float)
        if a.shape != (2,) or b.shape != (2,):
            raise ValueError("surface_correlation: halfspace3d points need 2 coordinates")
        sep2 = float(np.sum((a - b) ** 2))
        if sep2 < 1e-28:
            raise SingularityError("surface_correlation: coincident points")
        return -1.0 / (8.0 * beta * math.pi ** 2 * sep2 ** 1.5)
    if isinstance(geometry, LaurentMap):
        mp = geometry
        u, v = mp.invert(complex(p1)), mp.invert(complex(p2))
        uv = u * v.conjugate()
    else:
        kind = geometry[0] if isinstance(geometry, tuple) else geometry
        if kind == "disk":      # the circle map of radius R: |xi'| = R
            mp = None
            radius = geometry[1] if isinstance(geometry, tuple) else 1.0
        elif kind == "ellipse":
            _, a1, a2 = geometry
            mp = ellipse_map(a1, a2)
        else:
            raise ValueError(f"surface_correlation: unknown geometry {geometry!r}")
        t1, t2 = float(p1), float(p2)
        u, v = cmath.exp(1j * t1), cmath.exp(1j * t2)
        # u v* from the angle difference: close points keep their digits
        uv = cmath.exp(1j * (t1 - t2))
    if abs(u - v) < 1e-14:
        raise SingularityError("surface_correlation: coincident points")
    h1, h2 = (radius, radius) if mp is None else \
        (abs(complex(mp.derivative(x))) for x in (u, v))
    return -1.0 / (2.0 * beta * math.pi ** 2 * abs(1.0 - uv) ** 2 * h1 * h2)
