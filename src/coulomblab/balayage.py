"""Balayage measures of uniformly charged planar bodies, exterior moments,
hole energies, and gap/counting-probability asymptotics.

A balayage measure lives on the body's boundary and reproduces the body's
potential everywhere outside.  Energies here use the -log kernel so hole
energies are positive and gap probabilities decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_1d
from .domains import (
    Annulus2D,
    Ball,
    UniformDomain,
    UnsupportedRegionError,
    _ellipse_axes,
    _point,
    sphere_area,
)
from .surfaces import shell_potential

__all__ = [
    "BalayageComponent",
    "BalayageMeasure",
    "HoleSpec",
    "annulus_weights",
    "balayage_measure",
    "exterior_moment",
    "hole_energy",
    "gap_and_tail",
]


@dataclass(frozen=True)
class BalayageComponent:
    """One boundary piece and its total mass: a circle (radius) or an ellipse
    (a1, a2) carrying the angular density (mass / 2 pi)(1 - kappa cos 2 theta),
    kappa = (a1^2 - a2^2) / (a1^2 + a2^2) (0 on a circle), or a sphere shell
    (d, radius) carrying a uniform surface density."""

    kind: str
    params: tuple
    mass: float

    def _axes(self):
        if self.kind not in ("circle", "ellipse"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        return self.params if self.kind == "ellipse" else self.params * 2

    def density(self, theta):
        """dmu/dtheta at angle(s) theta; a shell's surface density."""
        if self.kind == "shell":
            d, radius = self.params
            return self.mass / (radius ** (d - 1) * sphere_area(d))
        # the printed density integrates to Q a1 a2 over theta; rescaled so
        # the total mass is Q, then validated by exterior-potential matching
        a1, a2 = self._axes()
        kappa = (a1 ** 2 - a2 ** 2) / (a1 ** 2 + a2 ** 2)
        return self.mass / (2.0 * math.pi) * (1.0 - kappa * np.cos(2.0 * theta))

    def point(self, theta):
        """Points at angle(s) theta, shape theta.shape + (2,); a circle is (R, R)."""
        a1, a2 = self._axes()
        theta = np.asarray(theta, dtype=float)
        return np.stack([a1 * np.cos(theta), a2 * np.sin(theta)], axis=-1)

    def potential(self, r) -> float:
        """Coulomb potential of this component: the -log kernel at a planar
        point, the shell theorem at a point of R^d for a d-sphere shell and
        at a planar point for a circle.  The ellipse's sweep over theta runs
        as four quarter turns at tol 2.5e-11 each (1e-10 in all) in one
        ``adaptive_1d`` call: from quarter-turn roots it needs fewer levels
        than one whole turn, and each level costs an integrand call."""
        if self.kind == "shell":
            d, radius = self.params
            return shell_potential(d, radius, self.mass, r)
        p = _point(r, 2)
        if self.kind == "circle":
            (radius,) = self.params
            return shell_potential(2, radius, self.mass, p)

        def f(thetas):
            q = self.point(thetas)
            return -np.log(np.hypot(p[0] - q[:, 0], p[1] - q[:, 1])) * self.density(thetas)

        quarters = 0.5 * math.pi * np.arange(5)
        val, _ = adaptive_1d(f, quarters[:-1], quarters[1:], [2.5e-11] * 4)
        return val


@dataclass(frozen=True)
class BalayageMeasure:
    components: tuple
    total_mass: float

    def __post_init__(self):
        s = sum(c.mass for c in self.components)
        if abs(s - self.total_mass) > 1e-10 * max(1.0, abs(self.total_mass)):
            raise ValueError("BalayageMeasure: component masses do not sum to Q")

    def potential(self, r) -> float:
        return sum(c.potential(r) for c in self.components)


@dataclass(frozen=True)
class HoleSpec:
    """A particle-free region inside a plasma: hole geometry, background
    density, and inverse temperature."""

    hole: object
    rho_b: float = 1.0
    beta: float = 2.0

    def __post_init__(self):
        if not (self.rho_b > 0 and self.beta > 0):
            raise ValueError("HoleSpec: rho_b and beta must be > 0")


def annulus_weights(c: float):
    """Boundary weights (alpha, beta) for the annulus balayage: the printed
    linear system alpha + beta = 1, -beta log c = 1/2 + c^2 log c/(1-c^2)."""
    beta_w = -(0.5 + c * c * math.log(c) / (1.0 - c * c)) / math.log(c)
    return 1.0 - beta_w, beta_w


def balayage_measure(dom: UniformDomain) -> BalayageMeasure:
    """Balayage measure of the uniformly charged body (total charge Q = N),
    supported on the boundary and matching the exterior potential.  A planar
    ellipse is read by its semi-axes: equal ones make a circle."""
    geo, q_total = dom.geometry, dom.N
    axes = _ellipse_axes(geo)
    if axes:
        comp = BalayageComponent("ellipse", axes, q_total) if axes[0] != axes[1] \
            else BalayageComponent("circle", axes[:1], q_total)
        return BalayageMeasure((comp,), q_total)
    if isinstance(geo, Ball) and geo.d > 1:  # the 1-ball, a segment, has none
        return BalayageMeasure((BalayageComponent("shell", (geo.d, geo.R), q_total),), q_total)
    if isinstance(geo, Annulus2D):
        alpha_w, beta_w = annulus_weights(geo.c)
        comps = (BalayageComponent("circle", (geo.R,), q_total * alpha_w),
                 BalayageComponent("circle", (geo.c * geo.R,), q_total * beta_w))
        return BalayageMeasure(comps, q_total)
    raise UnsupportedRegionError(
        f"balayage_measure: unsupported geometry {type(geo).__name__}")


def exterior_moment(dom: UniformDomain, ell: int):
    """Raw area moment m_l = int_Omega w^l d^2w of the planar body (complex
    coordinates; independent of the charge).

    For the ellipse, m_l = 2 pi a1 a2 C(l, l/2) x^(l/2) / (l + 2) with
    x = (a1^2 - a2^2)/4 at even l, i.e. area * Catalan(l/2) * x^(l/2), and 0
    at odd l; the disk (x = 0) and the annulus have m_l = 0 for l > 0.  It is
    taken through logs, so a large l overflows to inf."""
    if ell < 0:
        raise ValueError("exterior_moment: l >= 0")
    geo = dom.geometry
    axes = _ellipse_axes(geo)
    if axes is None and not isinstance(geo, Annulus2D):
        raise UnsupportedRegionError(
            f"exterior_moment: unsupported geometry {type(geo).__name__}")
    k, odd = divmod(ell, 2)
    x = (axes[0] ** 2 - axes[1] ** 2) / 4.0 if axes else 0.0
    if odd or not (x and ell):  # l = 0, odd l, a circle (x = 0) or the annulus
        return 0.0 if ell else geo.volume
    log_m = math.log(geo.volume) + math.lgamma(ell + 1) - math.lgamma(k + 1) \
        - math.lgamma(k + 2) + k * math.log(abs(x))
    with np.errstate(over="ignore"):
        return math.copysign(1.0, x) ** k * float(np.exp(log_m))


def hole_energy(spec: HoleSpec) -> float:
    """Closed-form energy (1/2) int_hole h (-lap h = 2 pi in the hole, h = 0 on
    its boundary) of the unit-density hole with its balayage measure (Forrester,
    Log-gases and Random Matrices, 2010, ch. 14-15).  Callers scale by rho_b^2."""
    geo = spec.hole
    axes = _ellipse_axes(geo)
    if axes:
        a, b = axes
        energy = math.pi ** 2 * (a * b) ** 3 / (4.0 * (a * a + b * b))
    elif isinstance(geo, Annulus2D):
        c, c2, log_c = geo.c, geo.c ** 2, math.log(geo.c)
        if c <= 0.7:
            ring, middle = 1.0 - c2, 1.0 - c2 + (1.0 + c2) * log_c
        else:
            # the middle factor cancels to O((1 - c)^3); its odd series in
            # u = (1 - c)/(1 + c), 2 (1 + c^2) sum_k>=1 ((-1)^k - 1/(2k+1))
            # u^(2k+1), does not, and 12 terms reach 1e-18 relative for u < 0.18
            u = (1.0 - c) / (1.0 + c)
            series = 0.0
            for k in range(12, 0, -1):
                series = series * u * u + (-1) ** k - 1.0 / (2 * k + 1)
            ring, middle = (1.0 - c) * (1.0 + c), 2.0 * (1.0 + c2) * series * u ** 3
        energy = math.pi ** 2 / 8.0 * geo.R ** 4 * ring * middle / log_c
    else:
        raise UnsupportedRegionError(f"hole_energy: no closed form for {type(geo).__name__}")
    if energy < -1e-10:
        raise RuntimeError(f"hole_energy: negative energy {energy}")
    return max(energy, 0.0)


def gap_and_tail(spec: HoleSpec, mode: str, gamma: float = None,
                 alpha_amp: float = None, R: float = None) -> float:
    """Gap mode: the predicted limit -beta E_hole of (1/rho_b^2) log of the
    gap-probability ratio.  Tail mode: the leading exponent of the counting
    probability, -(beta/4)(gamma-2) alpha^2 R^{2 gamma} log R, for gamma > 2.
    """
    if mode == "gap":
        return -spec.beta * hole_energy(spec)
    if mode == "tail":
        if gamma is None or alpha_amp is None or R is None:
            raise ValueError("gap_and_tail: tail mode needs gamma, alpha_amp, R")
        if gamma <= 2.0:
            raise ValueError("gap_and_tail: tail exponent requires gamma > 2")
        return -(spec.beta / 4.0) * (gamma - 2.0) * alpha_amp ** 2 \
            * R ** (2.0 * gamma) * math.log(R)
    raise ValueError(f"gap_and_tail: unknown mode {mode!r}")
