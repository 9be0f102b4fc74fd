"""Shared quadrature helpers: cached Gauss-Legendre rules and an adaptive
panel integrator used by the numerical oracles."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class QuadratureBudgetError(RuntimeError):
    """Raised when an adaptive integral exhausts its panel budget.

    Carries the best available estimate in ``value`` / ``est_error``.
    """

    def __init__(self, value, est_error, message="quadrature budget exceeded"):
        super().__init__(f"{message} (best estimate {value} +- {est_error})")
        self.value = value
        self.est_error = est_error


@lru_cache(maxsize=64)
def gl_nodes(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def adaptive_1d(f, a: float, b: float, tol: float,
                max_panels: int = 20000, order: int = 15,
                max_depth: int = 48):
    """Adaptive bisection quadrature with a fixed GL rule per panel.

    ``f`` must accept a numpy array.  Returns ``(value, est_error)``; raises
    QuadratureBudgetError (carrying the running estimate) if the panel budget
    is exhausted before the local tolerances are met.  Panels stop splitting
    at ``max_depth`` (integrable endpoint singularities bottom out there with
    a negligible contribution) and when the split disagreement reaches the
    roundoff floor of the whole integral.
    """
    x, w = gl_nodes(order)

    def panel(lo, hi):
        h = 0.5 * (hi - lo)
        return h * float(np.dot(w, f(lo + h * (x + 1.0))))

    root = panel(a, b)
    floor = 1e-15 * (1.0 + abs(root))
    total = 0.0
    err_total = 0.0
    # stack of (lo, hi, coarse estimate, depth)
    stack = [(a, b, root, 0)]
    used = 1
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        used += 2
        fine = left + right
        err = abs(fine - coarse)
        local_tol = tol * max((hi - lo) / (b - a), 1e-12)
        if err < local_tol or err < floor or depth >= max_depth:
            total += fine
            err_total += err / 15.0
        else:
            if used > max_panels:
                best = total + fine + sum(p[2] for p in stack)
                raise QuadratureBudgetError(best, err_total + err)
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total, err_total


def tensor_gl_2d(f, ax: float, bx: float, ay: float, by: float,
                 nx: int = 48, ny: int = 48) -> float:
    """Tensor-product GL integral of f(x, y) over a rectangle.

    ``f`` is called on meshgrid arrays.
    """
    x, wx = gl_nodes(nx)
    y, wy = gl_nodes(ny)
    hx, hy = 0.5 * (bx - ax), 0.5 * (by - ay)
    X = ax + hx * (x + 1.0)
    Y = ay + hy * (y + 1.0)
    XX, YY = np.meshgrid(X, Y, indexing="ij")
    vals = f(XX, YY)
    return hx * hy * float(wx @ vals @ wy)
