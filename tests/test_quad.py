import math

import numpy as np
import pytest

from coulomblab._quad import QuadratureBudgetError, QuadStats, adaptive_1d

INTEGRANDS = {
    "smooth": lambda x: np.exp(np.cos(3.0 * x)) * np.sin(x) ** 2,
    "log_endpoint": lambda x: -np.log(np.abs(x) + 1e-300) * np.cos(x),
    "kink": lambda x: np.abs(x - 0.3) ** 1.5,
}


def depth_first(f, a, b, tol, max_panels=20000, order=15, max_depth=48):
    """The same panel rules walked depth-first, one panel per call: the
    reference for the tree, the value, the error and the budget."""
    x, w = np.polynomial.legendre.leggauss(order)

    def panel(lo, hi):
        h = 0.5 * (hi - lo)
        return h * float(np.dot(w, f(lo + h * (x + 1.0))))

    root = panel(a, b)
    floor = 1e-15 * (1.0 + abs(root))
    total, err_total, stack, used = 0.0, 0.0, [(a, b, root, 0)], 1
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        used += 2
        err = abs(left + right - coarse)
        if err < tol * max((hi - lo) / (b - a), 1e-12) or err < floor \
                or depth >= max_depth:
            total += left + right
            err_total += err / 15.0
        else:
            if used > max_panels:
                raise QuadratureBudgetError(total, err)
            stack += [(lo, mid, left, depth + 1), (mid, hi, right, depth + 1)]
    return total, err_total, used


def counting(f):
    seen = {"calls": 0, "nodes": 0}

    def g(x):
        seen["calls"] += 1
        seen["nodes"] += len(x)
        return f(x)
    return g, seen


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_array_call_is_sum_of_single_calls(name):
    f = INTEGRANDS[name]
    a = np.array([0.0, 0.7, -1.0, 2.0])
    b = np.array([0.7, 2.5, 0.0, 2.0 + 1e-3])
    tol = np.array([1e-10, 1e-8, 1e-12, 1e-9])
    singles = [adaptive_1d(f, *args) for args in zip(a, b, tol)]
    g, seen = counting(f)
    res = adaptive_1d(g, a, b, tol)
    # each interval's value is that of its own call, bit for bit, and the
    # values are summed in interval order
    assert res[0] == sum(r[0] for r in singles)
    assert res[1] == sum(r[1] for r in singles)
    assert res.stats.panels == sum(r.stats.panels for r in singles)
    assert res.stats.depth == max(r.stats.depth for r in singles)
    assert res.stats.at_floor == sum(r.stats.at_floor for r in singles)
    # one integrand call per level of the deepest interval's tree (the
    # first holds the roots and their halves), 15 nodes per panel
    assert seen["calls"] == res.stats.depth
    assert seen["nodes"] == 15 * res.stats.panels


def test_scalar_call_unpacks_as_a_pair():
    res = adaptive_1d(np.cos, 0.0, 1.0, 1e-12)
    val, err = res
    assert isinstance(res, tuple) and len(res) == 2
    assert abs(val - math.sin(1.0)) < 1e-15 and err < 1e-12
    assert res.stats == QuadStats(panels=3, depth=1, at_cap=0, at_floor=0,
                                  tol_met=True)


def test_stats_flag_unmet_tolerance():
    f = INTEGRANDS["log_endpoint"]
    # the depth cap stops a log endpoint before its tolerance is met
    capped = adaptive_1d(f, 0.0, 1.0, 1e-10, max_depth=6)
    assert capped.stats.at_cap > 0 and not capped.stats.tol_met
    assert capped.stats.depth == 7
    # a tolerance below roundoff is accepted at the floor
    floored = adaptive_1d(INTEGRANDS["smooth"], 0.0, 2.0 * math.pi, 1e-30)
    assert floored.stats.at_floor > 0 and not floored.stats.tol_met
    met = adaptive_1d(INTEGRANDS["smooth"], 0.0, 2.0 * math.pi, 1e-10)
    assert met.stats.tol_met and met.stats.at_floor == met.stats.at_cap == 0
    assert abs(met[0] - floored[0]) < 1e-12


def test_budget_raises_with_running_estimate():
    f = INTEGRANDS["log_endpoint"]
    full = adaptive_1d(f, 0.0, 1.0, 1e-12)
    with pytest.raises(QuadratureBudgetError) as exc:
        adaptive_1d(f, 0.0, 1.0, 1e-12, max_panels=3)
    assert abs(exc.value.value - full[0]) < 0.1
    assert exc.value.est_error > 0.0
    # the running sums, bit for bit as the depth-first-ordered sums gave them
    assert (exc.value.value, exc.value.est_error) == (0.9454255670787983,
                                                       0.0006575021537220671)
    # the budget is per interval: an integral that finishes within it alone
    # also finishes beside others
    budget = full.stats.panels
    alone = adaptive_1d(f, 0.0, 1.0, 1e-12, max_panels=budget)
    beside = adaptive_1d(f, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-12,
                         max_panels=budget)
    assert alone == full and beside[0] == full[0] + full[0] + full[0]


def test_budget_error_keeps_finished_intervals():
    smooth, singular = INTEGRANDS["smooth"], INTEGRANDS["log_endpoint"]
    done = adaptive_1d(smooth, 1.0, 2.0, 1e-12)[0]
    running = adaptive_1d(singular, 0.0, 1.0, 1e-12)[0]

    def both(x):
        return np.where(x < 1.0, singular(x), smooth(x))

    with pytest.raises(QuadratureBudgetError) as exc:
        adaptive_1d(both, [0.0, 1.0], [1.0, 2.0], 1e-12, max_panels=9)
    assert abs(exc.value.value - (done + running)) < 0.1
    # the running sums over both intervals, bit for bit as the
    # depth-first-ordered sums gave them; then four intervals whose panels
    # are accepted at different levels
    assert (exc.value.value, exc.value.est_error) == (1.9552813256378394,
                                                       8.218793210159429e-05)
    with pytest.raises(QuadratureBudgetError) as exc:
        adaptive_1d(lambda x: singular(x) + INTEGRANDS["kink"](x), [0.0, 0.5, 0.25, 0.1],
                    [0.5, 1.0, 0.3, 0.9], [1e-13, 1e-12, 1e-14, 1e-13], max_panels=15)
    assert (exc.value.value, exc.value.est_error) == (1.9240022687277603,
                                                       8.218877173830359e-05)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_same_tree_and_budget_as_depth_first(name):
    # breadth-first evaluation visits the depth-first tree level by level and
    # sums it in depth-first order, so value and error agree bit for bit
    f = INTEGRANDS[name]
    for tol in (1e-6, 1e-10, 1e-14):
        ref, ref_err, panels = depth_first(f, 0.0, 1.0, tol)
        res = adaptive_1d(f, 0.0, 1.0, tol)
        assert res == (ref, ref_err)
        assert res.stats.panels == panels
        # every budget the depth-first walk finishes within is enough here
        for budget in range(3, panels + 2, 2):
            try:
                depth_first(f, 0.0, 1.0, tol, max_panels=budget)
            except QuadratureBudgetError:
                continue
            assert adaptive_1d(f, 0.0, 1.0, tol, max_panels=budget) == res


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_every_input_shape_is_the_depth_first_walk(name):
    # scalars, length-1 arrays and a scalar tol beside arrays enter the
    # set-up differently; each gives the depth-first walk's tree, value and
    # error, and a root accepted at once returns before the panel table
    f = INTEGRANDS[name]
    for lo, hi, tol in [(0.2, 0.9, 1e-6), (0.2, 0.9, 1e-11), (0.0, 0.05, 1e-3)]:
        value, err, panels = depth_first(f, lo, hi, tol)
        for args in [(lo, hi, tol), ([lo], [hi], [tol]), (np.array([lo]), np.array([hi]), tol),
                     (lo, hi, np.array([tol]))]:
            res = adaptive_1d(f, *args)
            assert res == (value, err) and res.stats.panels == panels, args


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_many_intervals_with_one_tol_are_their_single_calls(name):
    # more than 64 intervals under a scalar tol, then a call of several
    # intervals that every root satisfies
    f = INTEGRANDS[name]
    for edges, tol in [(np.linspace(-1.0, 2.0, 71), 1e-9), (np.linspace(0.0, 0.3, 4), 1e-2)]:
        singles = [adaptive_1d(f, lo, hi, tol) for lo, hi in zip(edges[:-1], edges[1:])]
        for (lo, hi), single in zip(zip(edges[:-1], edges[1:]), singles):
            assert single == depth_first(f, lo, hi, tol)[:2]
        g, seen = counting(f)
        res = adaptive_1d(g, edges[:-1], edges[1:], tol)
        assert res[0] == sum(r[0] for r in singles)
        assert res[1] == sum(r[1] for r in singles)
        assert res.stats.panels == sum(r.stats.panels for r in singles)
        assert res.stats.depth == max(r.stats.depth for r in singles)
        assert seen["calls"] == res.stats.depth
    assert res.stats.depth == 1
