"""Riesz gas of N equally spaced charges on a circle with a neutralizing
background: background potential, static energy, and the point-field energy
with its Hurwitz-zeta large-N limit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import SingularityError, hurwitz_zeta, log_gamma, riemann_zeta

__all__ = ["RieszCircle", "background_potential", "static_energy", "point_energy"]


@dataclass(frozen=True)
class RieszCircle:
    """Exponent s in (-2, 1), N charges, circle radius R."""

    s: float
    N: int
    R: float = 1.0

    def __post_init__(self):
        if not (-2.0 < self.s < 1.0):
            raise ValueError(f"RieszCircle: s must lie in (-2, 1), got {self.s}")
        if self.N < 1:
            raise ValueError("RieszCircle: N >= 1 required")
        if not self.R > 0:
            raise ValueError("RieszCircle: R > 0 required")

    @property
    def rho_b(self) -> float:
        return self.N / (2.0 * math.pi * self.R)


def background_potential(gas: RieszCircle) -> float:
    """Angle-independent potential V_0 between a unit charge on the circle
    and the smeared charge, in the printed sign convention (positive for
    0 < s < 1); N log R in the logarithmic case."""
    s, N, R = gas.s, gas.N, gas.R
    if s == 0.0:
        return N * math.log(R)
    ratio = math.exp(log_gamma(1.0 - s) - 2.0 * log_gamma(1.0 - s / 2.0))
    return math.copysign(1.0, s) * N * R ** (-s) * ratio


def _kernel(s: float, d):
    """The pair kernel at separations d, elementwise: -log d at s = 0, d^-s
    for s > 0 and -d^-s for s < 0."""
    return -np.log(d) if s == 0.0 else math.copysign(1.0, s) * d ** (-s)


def _pair_sum(gas: RieszCircle) -> float:
    """U_pp of the equally spaced configuration by compensated summation."""
    N, R = gas.N, gas.R
    if N == 1:
        return 0.0
    m = np.arange(1, N, dtype=float)
    return 0.5 * N * math.fsum(_kernel(gas.s, 2.0 * R * np.sin(math.pi * m / N)))


def _literal_background(gas: RieszCircle) -> float:
    """Potential of the actual negative background (the integral of the
    kernel against -rho_b).  The printed V_0 convention flips sign for
    s != 0 relative to this; at s = 0 the two agree."""
    v0 = background_potential(gas)
    return v0 if gas.s == 0.0 else -v0


def static_energy(gas: RieszCircle):
    """Total U_pp + U_pb + U_bb of the minimum-energy (equally spaced)
    configuration, plus the leading-order asymptotic prediction.

    Returns (exact, asymptotic).  U_pb + U_bb = N V/2 with V the literal
    background potential, so the divergent pieces cancel against the pair
    sum and the total stays linear in N.
    """
    s, N = gas.s, gas.N
    exact = _pair_sum(gas) + 0.5 * N * _literal_background(gas)
    if s == 0.0:
        asym = -0.5 * N * math.log(2.0 * math.pi * gas.rho_b)
    else:
        asym = N * math.copysign(1.0, s) * gas.rho_b ** s * riemann_zeta(s)
    return exact, asym


def point_energy(gas: RieszCircle, x: float, mode: str = "finite") -> float:
    """Field energy at angle 2 pi x / N (x in units of the lattice spacing).

    Finite mode sums the particle potentials and removes the smeared-charge
    divergence; the limit mode returns -log|e^{2 pi i x} - 1| at s = 0 and
    zeta(s; x) + zeta(s; 1-x) otherwise (period 1 in x).
    """
    s, N, R = gas.s, gas.N, gas.R
    if abs(x - round(x)) < 1e-12:
        raise SingularityError("point_energy: x must not be an integer")
    if mode == "limit":
        xt = x - math.floor(x)
        if s == 0.0:
            return -math.log(abs(2.0 * math.sin(math.pi * xt)))
        return hurwitz_zeta(s, xt) + hurwitz_zeta(s, 1.0 - xt)
    if mode != "finite":
        raise ValueError(f"point_energy: unknown mode {mode!r}")
    j = np.arange(1, N + 1, dtype=float)
    total = math.fsum(_kernel(s, 2.0 * R * np.abs(np.sin(math.pi * (j - x) / N))))
    # add the literal (negative-background) potential: the smeared charge
    # cancels the divergent part of the particle sum
    return total + _literal_background(gas)
