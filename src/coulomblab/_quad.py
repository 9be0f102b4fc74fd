"""Shared quadrature helpers: cached Gauss-Legendre rules and the adaptive
panel integrator behind every numerical oracle.

``adaptive_1d`` bisects breadth-first: one level of the panel tree, over
every interval it was given, is one call of the (vectorised) integrand.
This is the level-by-level form of adaptive Gauss rules (Davis &
Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984), and it makes
the integrand's fixed numpy cost per call a cost per level, not per panel.

That rule is the whole contract: one integrand call per level, 15 nodes
per panel, the depth-first walk's tree, budget and sums.  What is left is a
fixed number of numpy calls on small arrays: the panels being refined live
in one table that a level splits with one ``compress`` and grows with one
``take``.  On the 2-core x86-64 benchmark machine (Python 3.11, numpy 2.4,
whose speed drifts by up to 2x) a one-interval call that its root
satisfies costs 21-45 us (three intervals 36 us) and each further level
25-45 us beside its integrand call; ``scripts/quad_overhead.py`` prints
the current figures.
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
    """``(value, est_error)`` with the call's ``QuadStats`` in ``.stats`` and
    each interval's value, in interval order, in ``.parts``."""

    def __new__(cls, value, est_error, stats, parts):
        self = super().__new__(cls, (value, est_error))
        self.stats = stats
        self.parts = parts
        return self


@lru_cache(maxsize=64)
def gl_nodes(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=1)
def _panel_rule():
    """The 15-point rule's x + 1 and weights, built on first use."""
    x, w = gl_nodes(15)
    return x + 1.0, w


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
    intervals in order, with a ``QuadStats`` in ``.stats`` and the intervals'
    values, each that of its own call, in the array ``.parts``.  Each interval
    may evaluate ``max_panels`` panels plus two per level of depth; a level
    that still needs splitting past that raises QuadratureBudgetError
    carrying the running estimate.
    """
    xp1, w = _panel_rule()
    a, b, tol = (np.array(v, dtype=float, ndmin=1) for v in (a, b, tol))
    if not a.size == b.size == tol.size:
        a, b, tol = np.broadcast_arrays(a, b, tol)
    m = a.size
    # a panel [lo, hi] has nodes lo + h (x + 1) and value h (f . w), with
    # h = (hi - lo) / 2; the first call holds the root panels and their halves
    mid = 0.5 * (a + b)
    starts = np.array([a, a, mid])
    hs = 0.5 * (np.array([b, mid, b]) - starts)
    sums = hs * np.dot(f((starts[:, :, None] + hs[:, :, None] * xp1).ravel())
                       .reshape(3, m, 15), w)
    coarse, halves = sums[0], sums[1:]
    # a panel passes below tol times its fraction of the interval (at least
    # 1e-12); a root's fraction span / span is 1, or nan where span is 0 or
    # overflows, so tol * (span / span) is its bound bit for bit
    span = b - a
    bound = tol * (span / span)
    floor = table = None
    used, depth, at_cap, at_floor = 3 * m, 0, 0, 0
    levels = []
    while True:
        n = len(coarse)
        fine = halves[0] + halves[1]
        err = np.abs(fine - coarse)
        done = err < bound
        n_done = n_met = int(np.count_nonzero(done))
        if n_met < n:
            if floor is None:   # the roots' roundoff floor, when first needed
                floor = 1e-15 * (1.0 + np.abs(coarse))
            done |= err < floor
            n_done = int(np.count_nonzero(done))
            at_floor += n_done - n_met
            if depth >= max_depth:
                at_cap += n - n_done
                done[:] = True
                n_done = n
        if table is None:
            if n_done == n:     # every root accepted: sum them in interval order
                stats = QuadStats(used, 1, at_cap, at_floor, at_cap == 0 and at_floor == 0)
                return QuadResult(sum(fine.tolist()), sum((err / 15.0).tolist()), stats, fine)
            table = np.array([a, mid, a, a, mid, b, np.zeros(m), np.arange(m), tol, span,
                              floor, a])
        levels.append((table, fine, err, done))
        if n_done == n:
            break
        split = ~done
        table = table.compress(split, axis=1)
        halves = halves.compress(split, axis=1)
        # a depth-first walk of the same tree, checking its count panel by
        # panel, finishes up to two panels per level past its last check;
        # the allowance keeps every integral it finishes within budget here
        if used - 2 * depth > max_panels:
            _check_budget(levels, table, halves, err.compress(split), m, depth, max_panels)
        # each split panel becomes its left and right half, valued by its
        # halves; one call values their halves, its quarters
        depth += 1
        np.multiply(table[0:2] + table[4:6], 0.5, out=table[2:4])
        np.add(table[6], 0.5 ** depth, out=table[11])
        hs = 0.5 * (table[2:6] - table[0:4])
        coarse = halves.ravel()
        halves = (hs * np.dot(f((table[0:4, :, None] + hs[:, :, None] * xp1).ravel())
                              .reshape(4, -1, 15), w)).reshape(2, -1)
        table = table.take(_CHILDREN, axis=0).reshape(12, -1)
        used += 2 * len(coarse)
        floor = table[10]
        bound = table[8] * np.maximum((table[5] - table[0]) / table[9], 1e-12)
    stats = QuadStats(used, depth + 1, at_cap, at_floor, at_cap == 0 and at_floor == 0)
    # per interval, the accepted panels from the upper end down: the order in
    # which a depth-first walk that splits the right half first accepts them
    table, fine, err, done = (np.concatenate(c, axis=-1) for c in zip(*levels))
    pos, k = table[6:8].compress(done, axis=1)
    seq = np.lexsort((-pos, k))
    k = k.take(seq).astype(np.intp)
    parts = np.bincount(k, weights=fine.compress(done).take(seq), minlength=m)
    errs = np.bincount(k, weights=err.compress(done).take(seq) / 15.0, minlength=m)
    return QuadResult(sum(parts.tolist()), sum(errs.tolist()), stats, parts)


# The panels being refined, one column each: lo, mid, q1, q3, mid, hi, its
# position (lo - a) / (b - a), its interval's index, tol, b - a and roundoff
# floor, and its right half's position.  q1 and q3, the midpoints of its
# halves, and the last row are filled in when it is split: its quarters are
# then the panels from rows 0-3 to rows 2-5.  The rows of a split panel's
# left and right halves, all left halves first:
_CHILDREN = np.array([[0, 1], [2, 3], [0, 0], [0, 0], [2, 3], [1, 5],
                      [6, 11], [7, 7], [8, 8], [9, 9], [10, 10], [0, 0]])


def _check_budget(levels, table, halves, err, m, depth, max_panels):
    """Raise QuadratureBudgetError when an interval of the split panels in
    ``table`` has evaluated more than ``max_panels`` panels plus two per
    level, carrying the sum of the accepted panels and of the split panels'
    halves, each level in interval and position order."""
    seen = np.concatenate([t[7] for t, *_ in levels]).astype(np.intp)
    per = 1 + 2 * np.bincount(seen, minlength=m)
    if np.any(per[table[7].astype(np.intp)] - 2 * depth > max_panels):
        value = estimate = 0.0
        for t, fine, e, done in levels:
            pos, k = t[6:8].compress(done, axis=1)
            seq = np.lexsort((pos, k))
            value += np.sum(fine.compress(done).take(seq))
            estimate += np.sum(e.compress(done).take(seq))
        seq = np.lexsort(table[6:8])
        raise QuadratureBudgetError(float(value + np.sum(halves.take(seq, axis=1).T.ravel())),
                                    float(estimate / 15.0 + np.sum(err.take(seq))))
