"""Acceptance-criteria runner: every gate the build must pass, as plain
functions returning (passed, detail) so both pytest and the CLI `check`
command can drive them."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import balayage as bal
from . import conformal as conf
from . import domains as dom
from . import fluctuations as fluct
from . import gas
from . import riesz
from ._quad import adaptive_1d

__all__ = ["CriterionResult", "run_suite", "QUICK_SUITE", "CRITERIA"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _reldiff(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def criterion_1():
    """Closed form vs oracle at 20 random points per geometry, 1e-6 relative."""
    rng = np.random.default_rng(2024)
    cases = [
        dom.Ball(2, 1.0), dom.Ball(3, 1.0), dom.Ball(5, 1.0),
        dom.Ellipse2D(2.0, 1.0), dom.Annulus2D(1.0, 0.5), dom.Segment1D(1.0),
        dom.Rectangle(((0.0, 1.0), (0.0, 1.0))),
        dom.Cuboid(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))),
    ]
    worst = 0.0
    worst_geo = ""
    for geo in cases:
        u = dom.UniformDomain(geo, 1.0)
        for _ in range(20):
            p = _sample_point(geo, rng)
            closed = dom.background_potential(u, p)
            oracle = dom.potential_oracle(u, p, 1e-9)
            d = _reldiff(closed, oracle.value)
            if d > worst:
                worst, worst_geo = d, type(geo).__name__
    return worst <= 1e-6, f"max rel diff {worst:.2e} ({worst_geo})"


def _sample_point(geo, rng):
    if isinstance(geo, dom.Segment1D):
        return np.array([rng.uniform(-0.95, 0.95) * geo.R])
    if isinstance(geo, dom.Ball):
        v = rng.standard_normal(geo.d)
        v /= np.linalg.norm(v)
        return v * geo.R * rng.uniform(0.05, 0.95)
    if isinstance(geo, dom.Annulus2D):
        th = rng.uniform(0, 2 * math.pi)
        rad = rng.uniform(geo.c * geo.R * 1.02, geo.R * 0.98)
        return rad * np.array([math.cos(th), math.sin(th)])
    if isinstance(geo, dom.Ellipse2D):
        th = rng.uniform(0, 2 * math.pi)
        u = rng.uniform(0.05, 0.95)
        return np.array([geo.a1 * u * math.cos(th), geo.a2 * u * math.sin(th)])
    bounds = geo.bounds
    return np.array([rng.uniform(lo + 0.02, hi - 0.02) for lo, hi in bounds])


def criterion_2():
    """Sum rule and dilation invariance of the quadratic coefficients."""
    rng = np.random.default_rng(7)
    worst_sum, worst_scale = 0.0, 0.0
    for d in (3, 4):
        for _ in range(10):
            axes = tuple(rng.uniform(0.5, 2.5, size=d))
            n_charge = float(rng.uniform(0.5, 3.0))
            u = dom.UniformDomain(dom.Hyperellipsoid(axes), n_charge)
            _, al = dom.hyperellipsoid_coefficients(axes, n_charge)
            worst_sum = max(worst_sum,
                            abs(sum(al) - u.rho_b * dom.poisson_constant(d) / 2.0))
            c = 1.7
            _, al_s = dom.hyperellipsoid_coefficients(
                tuple(c * a for a in axes), n_charge * c ** d)
            worst_scale = max(worst_scale,
                              max(abs(x - y) for x, y in zip(al, al_s)))
    ok = worst_sum <= 1e-10 and worst_scale <= 1e-10
    return ok, f"sum-rule dev {worst_sum:.2e}, dilation dev {worst_scale:.2e}"


def criterion_3():
    """Cube self-energy: closed form within 3 sigma of the 1e7-sample MC."""
    mean, stderr = dom.cube_self_energy_mc(10 ** 7, seed=2024)
    closed = dom.cube_self_energy()
    dev = abs(mean - closed)
    ok = dev <= 3.0 * stderr and stderr <= 1e-3
    return ok, f"closed {closed:.9f}, MC {mean:.9f} +- {stderr:.2e} ({dev / stderr:.2f} sigma)"


def criterion_4():
    """Riesz circle: exact log-case totals and Hurwitz-limit convergence."""
    worst = 0.0
    for n in range(2, 65):
        g = riesz.RieszCircle(0.0, n, 1.5)
        exact, _ = riesz.static_energy(g)
        target = -0.5 * n * math.log(2.0 * math.pi * g.rho_b)
        worst = max(worst, abs(exact - target))
    if worst > 1e-12:
        return False, f"log-case total dev {worst:.2e}"
    for x in (0.25, 0.5):
        errs = []
        for n in (100, 1000, 10000):
            g = riesz.RieszCircle(0.5, n, n / (2.0 * math.pi))
            errs.append(abs(riesz.point_energy(g, x, "finite")
                            - riesz.point_energy(g, x, "limit")))
        if not (errs[0] > errs[1] > errs[2]):
            return False, f"no monotone convergence at x={x}: {errs}"
    return True, f"log-case dev {worst:.2e}; Hurwitz-limit errors decrease"


def criterion_5():
    """Free-energy remainders r(N) at N = 50, 200 for the three ensembles."""
    details = []
    ok = True
    for ens, kw in (("ginibre", {}), ("elliptic", {"tau": 0.5}),
                    ("induced", {"alpha": 1.0})):
        model = gas.GasModel(2.0, 8, ens, **kw)
        r50 = gas.free_energy_remainder(model, 50)
        r200 = gas.free_energy_remainder(model, 200)
        good = abs(r200) <= 0.05 and abs(r200) < abs(r50)
        ok = ok and good
        details.append(f"{ens}: r(50)={r50:+.4f}, r(200)={r200:+.4f}")
    return ok, "; ".join(details)


def criterion_6():
    """Sinh model: N = 2 exact product vs 2d quadrature; N = 1 exact."""
    c_par, length = 1.0, 2.0 * math.pi
    model = gas.GasModel(2.0, 2, "sinh", c=c_par, L=length)
    exact = math.exp(gas.exact_log_partition(model))

    def outer(x1s):
        out = np.empty_like(x1s)
        for i, x1 in enumerate(x1s):
            def inner(x2s):
                pair = np.abs(2.0 * np.sinh(math.pi * (x2s - x1) / length))
                return np.exp(-(x1 * x1 + x2s * x2s)) * pair ** 2
            val, _ = adaptive_1d(inner, -9.0, 9.0, 1e-11)
            out[i] = val
        return out

    quad, _ = adaptive_1d(outer, -9.0, 9.0, 1e-9)
    dev2 = abs(quad - exact)
    one = gas.exact_log_partition(gas.GasModel(2.0, 1, "sinh", c=c_par, L=length))
    dev1 = abs(math.exp(one) - math.sqrt(math.pi / c_par))
    ok = dev2 <= 1e-8 * max(1.0, exact) and dev1 <= 1e-12
    return ok, f"N=2 dev {dev2:.2e}, N=1 dev {dev1:.2e}"


def criterion_7():
    """Fluctuation formulas: route agreement, cosine value, disk correlation."""
    polys = [
        lambda t: math.cos(t),
        lambda t: math.sin(t) + 0.5 * math.cos(3 * t),
        lambda t: math.cos(2 * t) - 2.0 * math.sin(5 * t),
        lambda t: 1.0 + math.cos(t) + math.cos(4 * t),
        lambda t: 0.25 * math.sin(7 * t) + math.cos(2 * t),
    ]
    worst_route = max(abs(fluct.covariance_circle(f, f, route="fourier")
                          - fluct.covariance_circle(f, f, route="quadrature"))
                      for f in polys)
    cos_dev = abs(fluct.covariance_circle(math.cos, math.cos, beta=2.0) - 0.5)
    corr = fluct.surface_correlation("disk", 2.0, math.pi, 0.0)
    corr_dev = abs(corr + 1.0 / (16.0 * math.pi ** 2))
    # finite-difference Green-function route
    import cmath

    h = 1e-3
    th1, th2 = math.pi, 0.0

    def green(r1, r2):
        z = r1 * cmath.exp(1j * th1)
        w = r2 * cmath.exp(1j * th2)
        return -math.log(abs(z - w) / abs(1.0 - z * w.conjugate()))

    d2g = (green(1 + h, 1 + h) - green(1 + h, 1 - h)
           - green(1 - h, 1 + h) + green(1 - h, 1 - h)) / (4.0 * h * h)
    fd_dev = abs(-d2g / (2.0 * (2.0 * math.pi) ** 2) - corr)
    ok = worst_route <= 1e-8 and cos_dev <= 1e-10 and corr_dev <= 1e-12 \
        and fd_dev <= 1e-6
    return ok, (f"routes {worst_route:.2e}, cos {cos_dev:.2e}, "
                f"corr {corr_dev:.2e}, FD-Green {fd_dev:.2e}")


def criterion_8():
    """Balayage exterior-potential matching and the annulus weight system."""
    rng = np.random.default_rng(5)
    worst = 0.0
    cases = [dom.Ball(2, 1.0)] + \
        [dom.Annulus2D(1.0, c) for c in (0.3, 0.5, 0.7)] + \
        [dom.Ellipse2D(2.0, 1.0), dom.Ellipse2D(3.0, 1.0)]
    for geo in cases:
        u = dom.UniformDomain(geo, 1.0)
        measure = bal.balayage_measure(u)
        scale = getattr(geo, "R", None) or geo.a1
        for _ in range(20):
            th = rng.uniform(0, 2 * math.pi)
            rad = scale * rng.uniform(1.1, 3.0)
            p = np.array([rad * math.cos(th), rad * math.sin(th)])
            if isinstance(geo, dom.Ellipse2D):
                body = -dom.potential_oracle(u, p, 1e-9).value
            else:
                body = -dom.background_potential(u, p)
            worst = max(worst, abs(measure.potential(p) - body))
    a_w, b_w = bal.annulus_weights(0.5)
    sys_dev = max(abs(a_w + b_w - 1.0),
                  abs(-b_w * math.log(0.5)
                      - (0.5 + 0.25 * math.log(0.5) / 0.75)))
    ok = worst <= 1e-6 and sys_dev <= 1e-12
    return ok, f"max potential mismatch {worst:.2e}, weight system dev {sys_dev:.2e}"


def criterion_9():
    """Hole energies vs the boundary route, GinUE gap rate, counting tail."""
    worst = 0.0
    for geo in [dom.Ball(2, a) for a in (0.5, 1.0, 1.5)] + \
            [dom.Ellipse2D(a, b) for a, b in ((2.0, 1.0), (3.0, 1.0), (0.7, 2.3))] + \
            [dom.Annulus2D(R, c) for R in (0.8, 2.0) for c in (0.3, 0.5, 0.7, 0.9)]:
        # E = U_bb - (1/2) int U dmu, U the unit hole's potential: on each balayage
        # piece U dmu/dtheta is a degree <= 4 trigonometric polynomial, exact at 16 angles
        unit, th = dom.UniformDomain(geo, geo.volume), np.arange(16) * (math.pi / 8.0)
        route = dom.interaction_energy(unit, []) - math.pi * sum(float(np.mean(np.multiply(
            [-dom.background_potential(unit, q) for q in c.point(th)], c.density(th))))
            for c in bal.balayage_measure(unit).components)
        worst = max(worst, abs(bal.hole_energy(bal.HoleSpec(geo)) / route - 1.0))
    # GinUE gap-rate algebra, symbolically when sympy is available; without
    # it only the numeric rate check below is made
    try:
        import sympy as sp
    except ImportError:
        symbolic_ok, algebra = True, "symbolic check skipped (no sympy)"
    else:
        beta_s, r_s, n_s = sp.symbols("beta r N", positive=True)
        expr = -beta_s * (1 / sp.pi) ** 2 * sp.pi ** 2 * (r_s * sp.sqrt(n_s)) ** 4 / 8
        symbolic_ok = sp.simplify(expr + beta_s * n_s ** 2 * r_s ** 4 / 8) == 0
        algebra = "symbolic ok" if symbolic_ok else "FAILED"
    beta_n, r_n, n_n = 2.0, 0.6, 25.0
    spec = bal.HoleSpec(dom.Ball(2, r_n * math.sqrt(n_n)), rho_b=1.0 / math.pi,
                        beta=beta_n)
    numeric_dev = abs(spec.rho_b ** 2 * bal.gap_and_tail(spec, "gap")
                      + beta_n * n_n ** 2 * r_n ** 4 / 8.0)
    tail = bal.gap_and_tail(bal.HoleSpec(dom.Ball(2, 1.0), beta=2.0), "tail",
                            gamma=3.0, alpha_amp=1.0, R=10.0)
    tail_dev = abs(tail + 0.5 * 10.0 ** 6 * math.log(10.0))
    ok = worst <= 1e-13 and symbolic_ok and numeric_dev <= 1e-6 and tail_dev <= 1e-6
    return ok, (f"hole-energy route dev {worst:.2e}, gap algebra {algebra} "
                f"(numeric dev {numeric_dev:.2e}), tail dev {tail_dev:.2e}")


def criterion_10():
    """Sampler: GinUE edge and bulk density, induced central hole, detailed
    balance identity on paired proposals (fixed seeds)."""
    model = gas.GasModel(2.0, 32, "ginibre")
    state = gas.run_chain(model, 200000, seed=2024, record_every=2)
    rep = gas.empirical_density(state.samples)
    edge_dev = abs(rep["edge_radius"] - math.sqrt(32.0)) / math.sqrt(32.0)
    mask = (rep["bin_centers"] > 0.2 * math.sqrt(32.0)) \
        & (rep["bin_centers"] < 0.8 * math.sqrt(32.0))
    bulk_dev = float(np.max(np.abs(rep["density"][mask] * math.pi - 1.0)))

    induced = gas.GasModel(2.0, 32, "induced", alpha=1.0)
    st_ind = gas.run_chain(induced, 100000, seed=2025, record_every=2)
    hole_dens = gas.mean_density_inside(st_ind.samples, 0.9 * math.sqrt(32.0))

    rng = np.random.default_rng(11)
    pos = state.positions
    worst_db = 0.0
    for _ in range(10000):
        i = int(rng.integers(32))
        prop = pos[i] + complex(rng.standard_normal(), rng.standard_normal())
        a_f, du = gas.acceptance_probability(model, pos, i, prop)
        back = pos.copy()
        back[i] = prop
        a_r, _ = gas.acceptance_probability(model, back, i, pos[i])
        worst_db = max(worst_db, abs(a_f / a_r - math.exp(-model.beta * du)))

    ok = edge_dev <= 0.05 and bulk_dev <= 0.10 \
        and hole_dens <= 0.05 / math.pi and worst_db <= 1e-12
    return ok, (f"edge dev {edge_dev:.3f}, bulk dev {bulk_dev:.3f}, "
                f"hole density {hole_dens * math.pi:.4f}/pi, "
                f"detailed balance {worst_db:.2e}")


def criterion_11():
    """Green functions: symmetry, boundary vanishing, conformal transport."""
    rng = np.random.default_rng(13)
    worst_sym = 0.0
    ell = conf.ellipse_map(2.0, 1.0)
    for _ in range(200):
        z = rng.uniform(1.1, 4.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)) * 2.0
        w = rng.uniform(1.1, 4.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)) * 2.0
        if abs(z - w) < 1e-6:
            continue
        for geom in ("disk", ell):
            worst_sym = max(worst_sym, abs(
                conf.green_two_point(geom, z, w) - conf.green_two_point(geom, w, z)))
        zh = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        wh = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        worst_sym = max(worst_sym, abs(
            conf.green_two_point("halfplane", zh, wh)
            - conf.green_two_point("halfplane", wh, zh)))
        r3 = rng.uniform(-2, 2, 3)
        rp3 = rng.uniform(-2, 2, 3)
        r3[2], rp3[2] = abs(r3[2]) + 0.05, abs(rp3[2]) + 0.05
        worst_sym = max(worst_sym, abs(
            conf.green3d("halfspace", r3, rp3) - conf.green3d("halfspace", rp3, r3)))
        ro = r3 / np.linalg.norm(r3) * rng.uniform(1.05, 3.0)
        rpo = rp3 / np.linalg.norm(rp3) * rng.uniform(1.05, 3.0)
        worst_sym = max(worst_sym, abs(
            conf.green3d("sphere", ro, rpo) - conf.green3d("sphere", rpo, ro)))
    worst_bnd = max(
        abs(conf.green_two_point("disk", np.exp(1j * 0.7), 2.5 + 1.0j)),
        abs(conf.green_two_point("halfplane", 1.3, 0.5 + 1.0j)),
        abs(conf.green3d("sphere", [1.0, 0.0, 0.0], [3.0, 0.0, 0.0])),
        abs(conf.green3d("halfspace", [0.4, -0.2, 0.0], [0.0, 0.0, 2.0])),
    )
    worst_tr = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        w = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        if abs(z - w) < 1e-3:
            continue
        zz = (z + 1j) / (z - 1j)
        ww = (w + 1j) / (w - 1j)
        worst_tr = max(worst_tr, abs(conf.green_two_point("halfplane", z, w)
                                     - conf.green_two_point("disk", zz, ww)))
    ok = worst_sym <= 1e-12 and worst_bnd <= 1e-12 and worst_tr <= 1e-12
    return ok, (f"symmetry {worst_sym:.2e}, boundary {worst_bnd:.2e}, "
                f"transport {worst_tr:.2e}")


CRITERIA = [
    (1, "closed form vs quadrature oracle", criterion_1),
    (2, "hyperellipsoid sum rule and dilation invariance", criterion_2),
    (3, "cube self-energy vs 6d Monte Carlo", criterion_3),
    (4, "Riesz circle exact totals and Hurwitz limit", criterion_4),
    (5, "free-energy asymptotics remainders", criterion_5),
    (6, "sinh-model exact product vs quadrature", criterion_6),
    (7, "fluctuation formulas", criterion_7),
    (8, "balayage exterior matching", criterion_8),
    (9, "hole energy and gap/tail rates", criterion_9),
    (10, "Metropolis sampler statistics", criterion_10),
    (11, "Green function identities", criterion_11),
]

QUICK_SUITE = (1, 2, 4, 5, 6, 7, 8, 9, 11)


def run_suite(which: str = "full", report=None):
    """Run the acceptance criteria; ``which`` is "quick" (skips the two
    heavy Monte Carlo items) or "full"."""
    if which not in ("quick", "full"):
        raise ValueError("run_suite: which must be 'quick' or 'full'")
    out = []
    for idx, name, fn in CRITERIA:
        if which == "quick" and idx not in QUICK_SUITE:
            continue
        t0 = time.time()
        passed, detail = fn()
        res = CriterionResult(idx, name, passed, detail, time.time() - t0)
        out.append(res)
        if report is not None:
            report(f"criterion {idx:02d} {'PASS' if passed else 'FAIL'} "
                   f"[{res.seconds:6.1f}s] {name}: {detail}")
    return out
