"""Scalar special functions backing the closed-form electrostatics results.

Gamma and log-gamma come from the standard library (``math.gamma``,
``math.lgamma``); this module adds the argument checks.  The Hurwitz zeta
is an Euler-Maclaurin sum of its own, because ``scipy.special.zeta(s, a)``
is NaN for s < 1.  All functions are pure and safe to call from any number
of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EvalResult",
    "log_gamma",
    "gamma",
    "hurwitz_zeta",
    "riemann_zeta",
]


@dataclass(frozen=True)
class EvalResult:
    """A numerical value together with an absolute error estimate, and the
    adaptive quadrature's ``_quad.QuadStats`` when one produced it."""

    value: float
    est_error: float
    stats: object = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("EvalResult value must be finite")
        if not (math.isfinite(self.est_error) and self.est_error >= 0.0):
            raise ValueError("EvalResult est_error must be finite and >= 0")


def _check_positive(name: str, x: float) -> None:
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"{name}: require x > 0, got {x}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (``math.lgamma``)."""
    _check_positive("log_gamma", x)
    return math.lgamma(x)


def gamma(x: float) -> float:
    """Gamma(x) for x > 0 (``math.gamma``)."""
    _check_positive("gamma", x)
    return math.gamma(x)


# Bernoulli numbers B_2 .. B_16 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s; a) by Euler-Maclaurin summation.

    Eight correction terms after shifting the argument to a + n >= 10, which
    keeps the absolute error below ~1e-12 for -4 <= s <= 10 (every use in
    this package has s in (-2, 1)).  For much more negative s the head/tail
    cancellation hits the double-precision floor.  The pole at s = 1 raises;
    a must be positive (the intended range is a in (0, 1]).
    """
    if s == 1.0:
        raise ValueError("hurwitz_zeta: pole at s = 1")
    if not (a > 0.0):
        raise ValueError(f"hurwitz_zeta: require a > 0, got {a}")
    n = max(0, math.ceil(10.0 - a))
    head = math.fsum((a + k) ** (-s) for k in range(n))
    x = a + n
    total = head + x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    # sum_j B_2j/(2j)! * (s)_{2j-1} * x^{-s-2j+1}
    poch = s                      # rising factorial s(s+1)...(s+2j-2)
    fact = 2.0               # (2j)!
    xpow = x ** (-s - 1.0)
    for j, b2j in enumerate(_BERNOULLI, start=1):
        total += b2j / fact * poch * xpow
        poch *= (s + 2.0 * j - 1.0) * (s + 2.0 * j)
        fact *= (2.0 * j + 1.0) * (2.0 * j + 2.0)
        xpow /= x * x
    return total


def riemann_zeta(s: float) -> float:
    """Riemann zeta(s) = hurwitz_zeta(s; 1)."""
    return hurwitz_zeta(s, 1.0)
