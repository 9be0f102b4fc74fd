"""Shared quadrature helpers: cached Gauss-Legendre rules and the adaptive
panel integrator behind every numerical oracle.

``adaptive_1d`` bisects breadth-first: one level of the panel tree, over
every interval it was given, is one call of the (vectorised) integrand.
This is the level-by-level form of adaptive Gauss rules (Davis &
Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984), and it makes
the integrand's fixed numpy cost per call a cost per level, not per panel.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class QuadStats:
    """What one ``adaptive_1d`` call did, summed over its intervals.

    ``panels``: panels evaluated; ``depth``: bisection levels evaluated below
    the root panels; ``at_cap`` / ``at_floor``: panels accepted at
    ``max_depth`` / at the roundoff floor without meeting their local
    tolerance; ``tol_met``: no such panel, so every panel met its share of
    ``tol``.
    """

    panels: int
    depth: int
    at_cap: int
    at_floor: int
    tol_met: bool


class QuadResult(tuple):
    """``(value, est_error)`` with the call's ``QuadStats`` in ``.stats``."""

    def __new__(cls, value, est_error, stats):
        self = super().__new__(cls, (value, est_error))
        self.stats = stats
        return self


@lru_cache(maxsize=64)
def gl_nodes(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def adaptive_1d(f, a, b, tol, max_panels: int = 20000,
                max_depth: int = 48) -> QuadResult:
    """Adaptive bisection quadrature with a fixed 15-point GL rule per panel,
    over one interval or several at once.

    ``a``, ``b`` and ``tol`` are scalars or equal-length arrays, one entry
    per interval.  The panel tree is walked breadth-first: the halves of
    every panel of every interval that is still being refined are evaluated
    in one call of ``f``, which must accept a 1d numpy array of nodes and act
    on it elementwise (the first call also holds the root panels).  A panel
    [lo, hi] of interval k is accepted when its split disagreement is below
    ``tol_k * max((hi - lo) / (b_k - a_k), 1e-12)``, below the roundoff floor
    ``1e-15 (1 + |root_k|)`` of the interval's root panel, or at depth
    ``max_depth`` (integrable endpoint singularities bottom out there with a
    negligible contribution).  Each interval's accepted panels are summed
    from its upper end down, so its value and error are those of a
    depth-first walk of the same tree, bit for bit.

    Returns a ``QuadResult``: the pair ``(value, est_error)`` summed over the
    intervals in order, with a ``QuadStats`` in ``.stats``.  Each interval
    may evaluate ``max_panels`` panels plus two per level of depth; a level
    that still needs splitting past that raises QuadratureBudgetError
    carrying the running estimate.
    """
    x, w = gl_nodes(15)
    xp1 = x + 1.0
    a, b, tol = (np.array(v, dtype=float, ndmin=1) for v in (a, b, tol))
    if not a.size == b.size == tol.size:
        a, b, tol = np.broadcast_arrays(a, b, tol)
    m = a.size
    # a panel [lo, hi] has nodes lo + h (x + 1) and value h (f . w), with
    # h = (hi - lo) / 2; the first call holds the root panels and their halves
    mid = 0.5 * (a + b)
    starts = np.array([a, a, mid]).T
    hs = 0.5 * (np.array([b, mid, b]).T - starts)
    sums = hs * np.dot(f((starts[:, :, None] + hs[:, :, None] * xp1).ravel())
                       .reshape(m, 3, 15), w)
    root, halves = sums[:, 0], sums[:, 1:]
    # one row per panel being refined: lo, mid, hi, its value, its position
    # (lo - a) / (b - a), and its interval's index, tol, b - a and roundoff
    # floor
    rows = np.array([a, mid, b, root, np.zeros(m), np.arange(m), tol, b - a,
                     1e-15 * (1.0 + np.abs(root))]).T
    used, depth, at_cap, at_floor = 3 * m, 0, 0, 0
    levels = []
    while True:
        n = len(rows)
        fine = halves[:, 0] + halves[:, 1]
        err = np.abs(fine - rows[:, 3])
        done = err < rows[:, 6] * np.maximum((rows[:, 2] - rows[:, 0]) / rows[:, 7], 1e-12)
        n_done = n_met = int(np.count_nonzero(done))
        if n_met < n:
            done |= err < rows[:, 8]
            n_done = int(np.count_nonzero(done))
            at_floor += n_done - n_met
            if depth >= max_depth:
                at_cap += n - n_done
                done[:] = True
                n_done = n
        levels.append((rows[:, 4:6], fine, err, done))
        if n_done == n:
            break
        split = ~done
        rows, halves = rows[split], halves[split]
        # a depth-first walk of the same tree, checking its count panel by
        # panel, finishes up to two panels per level past its last check;
        # the allowance keeps every integral it finishes within budget here
        if used - 2 * depth > max_panels:
            seen = np.concatenate([lv[0][:, 1] for lv in levels]).astype(np.intp)
            per = 1 + 2 * np.bincount(seen, minlength=m)
            if np.any(per[rows[:, 5].astype(np.intp)] - 2 * depth > max_panels):
                accepted = [(lv[1][lv[3]], lv[2][lv[3]]) for lv in levels]
                raise QuadratureBudgetError(
                    float(sum(np.sum(v) for v, _ in accepted) + np.sum(halves)),
                    float(sum(np.sum(e) for _, e in accepted) / 15.0 + np.sum(err[split])))
        # each split panel becomes its left and right half, in that order
        depth += 1
        rows = np.repeat(rows, 2, axis=0)
        rows[0::2, 2] = rows[0::2, 1]
        rows[1::2, 0] = rows[1::2, 1]
        rows[1::2, 4] += 0.5 ** depth
        rows[:, 3] = halves.ravel()
        rows[:, 1] = 0.5 * (rows[:, 0] + rows[:, 2])
        n = len(rows)
        hs = 0.5 * (rows[:, 1:3] - rows[:, 0:2])
        halves = hs * np.dot(f((rows[:, 0:2, None] + hs[:, :, None] * xp1).ravel())
                             .reshape(n, 2, 15), w)
        used += 2 * n
    stats = QuadStats(used, depth + 1, at_cap, at_floor, at_cap == 0 and at_floor == 0)
    if not depth:     # the root panels, in interval order
        return QuadResult(sum(fine.tolist()), sum((err / 15.0).tolist()), stats)
    # per interval, the accepted panels from the upper end down: the order in
    # which a depth-first walk that splits the right half first accepts them
    where, fine, err, done = (np.concatenate(c) for c in zip(*levels))
    where, fine, err = where[done], fine[done], err[done]
    seq = np.lexsort((-where[:, 0], where[:, 1]))
    k = where[seq, 1].astype(np.intp)
    parts = np.bincount(k, weights=fine[seq], minlength=m)
    errs = np.bincount(k, weights=err[seq] / 15.0, minlength=m)
    return QuadResult(sum(parts.tolist()), sum(errs.tolist()), stats)
