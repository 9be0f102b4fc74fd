"""Pass/fail rules shared by the workloads.

Every rule returns ``(ok, detail)``.  Statistical rules take their bound from
the run's own standard error and a Student-t quantile at a fixed two-sided
false-alarm probability, never from a tuned tolerance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import stdtrit

# two-sided probability that an exact mean is rejected by chance, were the
# estimates normal.  Means of skewed statistics (sums of squares, sinh and
# contour) over a few chains have heavier tails: over 40 runs their z-scores
# spread about 1.5 instead of 1, so the bound keeps a margin for that.  A
# shift of 10 standard errors is still rejected at the dof of a 3-round run.
FALSE_ALARM = 1e-8

# relative agreement of quadrature oracles with their references: the bound
# acceptance criterion 1 applies to closed form against oracle
ORACLE_RTOL = 1e-6


def rel_check(value, ref, rtol, floor=0.0):
    """|value - ref| <= rtol max(|ref|, floor)."""
    value = float(value)
    dev = abs(value - ref) / max(abs(ref), floor)
    return dev <= rtol, f"{value!r} vs {ref!r} (rel {dev:.1e}, bound {rtol:.0e})"


def batch_means(x, batches=8):
    """Mean of a correlated series, its batch-means standard error and the
    error's degrees of freedom.  Trailing samples that do not fill the last
    batch are dropped from the error estimate only."""
    x = np.asarray(x, dtype=float)
    size = len(x) // batches
    if size < 2:
        raise ValueError(f"batch_means: need >= {2 * batches} samples, got {len(x)}")
    means = x[: size * batches].reshape(batches, size).mean(axis=1)
    se = float(np.std(means, ddof=1) / math.sqrt(batches))
    return float(np.mean(x)), se, batches - 1


def pool(estimates):
    """Combine independent (mean, se, dof) estimates of one quantity with
    equal weights; the dof follows Welch-Satterthwaite."""
    k = len(estimates)
    mean = sum(e[0] for e in estimates) / k
    var = sum(e[1] ** 2 for e in estimates) / (k * k)
    denom = sum((e[1] ** 2 / (k * k)) ** 2 / e[2] for e in estimates)
    dof = var * var / denom if denom > 0 else float("inf")
    return mean, math.sqrt(var), dof


def t_bound(dof):
    """Deviation, in standard errors, exceeded with probability FALSE_ALARM."""
    return float(stdtrit(dof, 1.0 - FALSE_ALARM / 2.0))


def mean_check(mean, se, dof, exact):
    """An estimate agrees with an exact value within t_bound(dof) errors."""
    if not (se > 0 and math.isfinite(mean)):
        return False, f"degenerate estimate {mean!r} +- {se!r}"
    z = (mean - exact) / se
    bound = t_bound(dof)
    return abs(z) <= bound, (f"{mean:.6g} +- {se:.2g} vs exact {exact:.6g} "
                             f"({z:+.2f} se, bound {bound:.2f}, dof {dof:.0f})")
