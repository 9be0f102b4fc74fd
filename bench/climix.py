"""`cli` workload: `python -m coulomblab.cli ... --json` in a fresh process,
one command at a time, over a fixed mix of valid commands.

The mix covers potential (closed form and --oracle), energy, coeffs,
surface --op identity, green (disk, sphere, ellipse map), capacity (ellipse,
interval), droplet, fluct (cov, mapped-cov, surface on an ellipse, subblock
--smoothed), riesz, balayage, hole (energy on an ellipse, gap on a disk) and
small sample runs.  Parameters and points come from the seed; every value is
checked against a formula evaluated in `references`.  Negative coordinates
are passed as --opt=value.  `check` is left out: it takes minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np

import checks
import references as ref
from harness import Op, child_env

RTOL = 1e-9          # closed forms evaluated two ways in double precision
QUAD_RTOL = 1e-6     # values that come out of a quadrature

SETUP_CODE = "import coulomblab.cli"


def _fmt(x):
    return repr(float(x))


def _pt(*xs):
    return ",".join(_fmt(x) for x in xs)


def _opt(flag, value):
    """--flag=value, so a leading minus is not read as an option."""
    return f"{flag}={value}"


def _polar(rng, r_lo, r_hi, d=2):
    v = rng.standard_normal(d)
    return [float(x) for x in v / np.linalg.norm(v) * rng.uniform(r_lo, r_hi)]


def _ellipse_point(rng, a1, a2, u_lo, u_hi):
    t = rng.uniform(0.0, 2.0 * math.pi)
    u = rng.uniform(u_lo, u_hi)
    return [a1 * u * math.cos(t), a2 * u * math.sin(t)]


def _value(rec, *keys):
    out = rec["value"] if not keys else rec["values"]
    for k in keys:
        out = out[k]
    return out


def close(value, reference, rtol):
    """Relative agreement; below 1e-2 in size the bound becomes absolute."""
    return checks.rel_check(value, reference, rtol, floor=1e-2)


def _all(*results):
    bad = [d for ok, d in results if not ok]
    return (not bad), "; ".join(bad)


def commands(seed):
    """[(name, argv, check(record) -> (ok, detail), reference data)]."""
    rng = np.random.default_rng([seed, 4])
    out = []

    def add(name, argv, check, data=None):
        out.append((name, argv, check, data))

    # potential, closed form: 3-ball interior, ellipse interior
    R = float(rng.uniform(0.8, 1.5))
    p = _polar(rng, 0.1, 0.9 * R, 3)
    v = ref.ball3_potential(R, 1.0, p)
    add("potential.ball3", ["potential", "--domain", f"ball:d=3,R={_fmt(R)},N=1",
                            _opt("--point", _pt(*p))],
        lambda rec, v=v: close(_value(rec), v, RTOL), v)
    while True:
        p = _ellipse_point(rng, 2.0, 1.0, 0.1, 0.9)
        v = ref.ellipse_interior_potential(2.0, 1.0, 1.0, p)
        if abs(v) >= 0.05:
            break
    add("potential.ellipse", ["potential", "--domain", "ellipse:a1=2,a2=1",
                              _opt("--point", _pt(*p))],
        lambda rec, v=v: close(_value(rec), v, RTOL), v)

    # potential --oracle: ellipse exterior (scipy), annulus hole (textbook)
    p = _ellipse_point(rng, 2.0, 1.0, 1.2, 2.0)
    v = ref.ellipse_log_integral(2.0, 1.0, p) / (2.0 * math.pi)
    add("potential.oracle_ellipse", ["potential", "--domain", "ellipse:a1=2,a2=1",
                                     _opt("--point", _pt(*p)), "--oracle", "--tol", "1e-9"],
        lambda rec, v=v: close(_value(rec), v, QUAD_RTOL), v)
    p = _polar(rng, 0.1, 0.4)
    v = ref.annulus_potential(1.0, 0.5, 1.0, p)
    add("potential.oracle_annulus", ["potential", "--domain", "annulus:R=1,c=0.5",
                                     _opt("--point", _pt(*p)), "--oracle", "--tol", "1e-9"],
        lambda rec, v=v: close(_value(rec), v, QUAD_RTOL), v)

    # energy: U_bb + sum U_pb on a disk
    R = float(rng.uniform(0.8, 2.0))
    N = float(rng.uniform(0.5, 3.0))
    pts = [_polar(rng, 0.0, 0.95 * R) for _ in range(2)]
    v = N * N / 8.0 - N * N / 2.0 * math.log(R) \
        + sum(ref.disk_potential(R, N, q) for q in pts)
    add("energy.disk", ["energy", "--domain", f"ball:d=2,R={_fmt(R)},N={_fmt(N)}",
                        _opt("--points", ";".join(_pt(*q) for q in pts))],
        lambda rec, v=v: close(_value(rec), v, RTOL), v)

    # coeffs: elliprd / elliprf and the sum rule 3N/(2 a b c)
    axes = [float(a) for a in rng.uniform(0.6, 2.5, 3)]
    N = float(rng.uniform(0.5, 3.0))
    a0, alphas = ref.ellipsoid_coefficients(axes, N)

    def check_coeffs(rec, a0=a0, alphas=alphas, s=1.5 * N / math.prod(axes)):
        got = _value(rec, "alphas")
        return _all(close(_value(rec, "alpha0"), a0, QUAD_RTOL),
                    close(_value(rec, "sum"), s, QUAD_RTOL),
                    *(close(g, e, QUAD_RTOL) for g, e in zip(got, alphas)))
    add("coeffs.d3", ["coeffs", "--axes", "|".join(_fmt(a) for a in axes), "--N", _fmt(N)],
        check_coeffs, [a0, alphas])

    # surface identity: the (1 - r^2/R^2)^(-1/2) disk density is an
    # equipotential of the 1/r kernel at pi^2 R
    R = float(rng.uniform(0.5, 2.0))

    def check_identity(rec, c=math.pi ** 2 * R):
        return _all(close(_value(rec, "constant"), c, QUAD_RTOL),
                    (_value(rec, "max_residual") <= QUAD_RTOL * c,
                     f"residual {_value(rec, 'max_residual')!r}"))
    add("surface.identity", ["surface", "--op", "identity", "--case", "constant-potential",
                             "--d", "3", "--R", _fmt(R)], check_identity, math.pi ** 2 * R)

    # green: disk, sphere, ellipse map
    R = float(rng.uniform(0.5, 1.5))
    z, w = _polar(rng, 1.2 * R, 3 * R), _polar(rng, 1.2 * R, 3 * R)
    v = ref.disk_green(R, complex(*z), complex(*w))
    add("green.disk", ["green", "--geometry", "disk", _opt("--z", _pt(*z)),
                       _opt("--w", _pt(*w)), "--R", _fmt(R)],
        lambda rec, v=v: close(_value(rec), v, RTOL), v)
    z, w = _polar(rng, 1.2 * R, 3 * R, 3), _polar(rng, 1.2 * R, 3 * R, 3)
    v = ref.sphere_green(R, z, w)
    add("green.sphere", ["green", "--geometry", "sphere", _opt("--z", _pt(*z)),
                         _opt("--w", _pt(*w)), "--R", _fmt(R)],
        lambda rec, v=v: close(_value(rec), v, RTOL), v)
    z, w = _ellipse_point(rng, 2.0, 1.0, 1.2, 2.5), _ellipse_point(rng, 2.0, 1.0, 1.2, 2.5)
    v = ref.map_green(*ref.ellipse_map_coefficients(2.0, 1.0), complex(*z), complex(*w))
    add("green.ellipse_map", ["green", "--geometry", "ellipse:a1=2,a2=1",
                              _opt("--z", _pt(*z)), _opt("--w", _pt(*w))],
        lambda rec, v=v: close(_value(rec), v, RTOL), v)

    # capacity: (a1 + a2)/2, robin -log cap, g through the Joukowski inverse
    def capacity(name, spec, s, b, z):
        g = math.log(abs(ref.joukowski_inverse(s, b, complex(*z))))

        def check_capacity(rec, s=s, g=g):
            return _all(close(_value(rec, "capacity"), s, RTOL),
                        close(_value(rec, "robin"), -math.log(s), RTOL),
                        close(_value(rec, "g"), g, RTOL))
        add(name, ["capacity", "--map", spec, _opt("--z", _pt(*z))], check_capacity, [s, g])

    a2 = float(rng.uniform(0.5, 1.5))
    a1 = a2 + float(rng.uniform(0.2, 1.5))
    capacity("capacity.ellipse", f"ellipse:a1={_fmt(a1)},a2={_fmt(a2)}",
             *ref.ellipse_map_coefficients(a1, a2), _ellipse_point(rng, a1, a2, 1.2, 2.5))
    L = float(rng.uniform(0.5, 2.0))
    capacity("capacity.interval", f"interval:L={_fmt(L)}", L / 2.0, L / 2.0,
             _ellipse_point(rng, 1.5 * L, 0.5 * L, 1.0, 2.0))

    # droplet: the ellipse pi a b has the prescribed area
    alpha = float(rng.uniform(-0.4, 0.4))
    area = float(rng.uniform(1.0, 6.0))

    def check_droplet(rec, area=area):
        a, b = _value(rec, "semi_axes")
        return close(math.pi * a * b, area, RTOL)
    add("droplet.quadratic", ["droplet", _opt("--alpha", _fmt(alpha)), "--area", _fmt(area)],
        check_droplet, area)

    # fluctuations
    k = int(rng.integers(1, 5))
    beta = float(rng.choice([1.0, 2.0, 4.0]))
    add("fluct.cov", ["fluct", "--op", "cov", "--k", str(k), "--beta", _fmt(beta)],
        lambda rec, v=k / beta: close(_value(rec), v, RTOL), k / beta)
    a1 = float(rng.uniform(1.2, 2.5))
    a2 = float(rng.uniform(0.5, 1.1))
    add("fluct.mapped_cov", ["fluct", "--op", "mapped-cov", "--map",
                             f"ellipse:a1={_fmt(a1)},a2={_fmt(a2)}", "--beta", _fmt(beta)],
        lambda rec, v=a1 * a1 / beta: close(_value(rec), v, RTOL), a1 * a1 / beta)
    e1 = float(rng.uniform(0.0, math.pi))
    e2 = e1 + float(rng.uniform(0.5, math.pi))
    v = ref.ellipse_surface_correlation(a1, a2, beta, e1, e2)
    add("fluct.surface_ellipse", ["fluct", "--op", "surface", "--geometry",
                                  f"ellipse:a1={_fmt(a1)},a2={_fmt(a2)}", "--beta", _fmt(beta),
                                  _opt("--p1", _fmt(e1)), _opt("--p2", _fmt(e2))],
        lambda rec, v=v: close(_value(rec), v, RTOL), v)
    n = int(rng.integers(5, 20))
    th = float(rng.uniform(0.5, math.pi))
    z = (float(rng.uniform(0.2, 0.9)), 0.0)
    r2 = float(rng.uniform(0.2, 0.9))
    w = (r2 * math.cos(th), -r2 * math.sin(th))   # arg(z conj(w)) = th
    v = ref.subblock_smoothed(n, th)
    add("fluct.subblock_smoothed", ["fluct", "--op", "subblock", "--N", str(n),
                                    _opt("--p1", _pt(*z)), _opt("--p2", _pt(*w)),
                                    "--smoothed"],
        lambda rec, v=v: close(_value(rec), v, QUAD_RTOL), v)

    # riesz, log case: exact static energy -(N/2) log(N/R)
    n = int(rng.integers(20, 400))
    R = float(rng.uniform(1.0, 5.0))
    v = -0.5 * n * math.log(n / R)

    def check_riesz(rec, v=v):
        return _all(close(_value(rec, "exact"), v, RTOL),
                    close(_value(rec, "asymptotic"), v, RTOL))
    add("riesz.log_static", ["riesz", "--s", "0", "--N", str(n), "--R", _fmt(R),
                             "--op", "static"], check_riesz, v)

    # balayage: mass and the potential at an exterior point
    a2 = float(rng.uniform(0.6, 1.2))
    a1 = a2 + float(rng.uniform(0.2, 1.0))
    N = float(rng.uniform(0.5, 3.0))
    p = _ellipse_point(rng, a1, a2, 1.2, 2.0)
    v = ref.body_exterior_potential(("ellipse", a1, a2, N), p)

    def check_balayage(rec, v=v, N=N):
        return _all(close(_value(rec, "total_mass"), N, RTOL),
                    close(_value(rec, "potential"), v, QUAD_RTOL))
    add("balayage.ellipse", ["balayage", "--domain",
                             f"ellipse:a1={_fmt(a1)},a2={_fmt(a2)},N={_fmt(N)}",
                             _opt("--point", _pt(*p))], check_balayage, v)

    # hole: energy on an ellipse, gap on a disk
    a2 = float(rng.uniform(0.5, 1.5))
    a1 = a2 + float(rng.uniform(0.1, 1.0))
    v = ref.hole_energy_ellipse(a1, a2)
    add("hole.energy_ellipse", ["hole", "--domain", f"ellipse:a1={_fmt(a1)},a2={_fmt(a2)}",
                                "--mode", "energy"],
        lambda rec, v=v: close(_value(rec), v, QUAD_RTOL), v)
    a = float(rng.uniform(0.5, 2.0))
    rho = float(rng.uniform(0.1, 1.0))
    beta = float(rng.choice([1.0, 2.0, 4.0]))
    rate = -beta * ref.hole_energy_disk(a)

    def check_gap(rec, rate=rate, rho=rho):
        return _all(close(_value(rec, "rate"), rate, QUAD_RTOL),
                    close(_value(rec, "log_probability"), rho * rho * rate, QUAD_RTOL))
    add("hole.gap_disk", ["hole", "--domain", f"ball:d=2,R={_fmt(a)}", "--rho-b", _fmt(rho),
                          "--beta", _fmt(beta), "--mode", "gap"], check_gap, rate)

    # small sample runs: the record's bookkeeping
    for ens in ("ginibre", "contour", "sinh"):
        sweeps = 200
        sample_seed = int(rng.integers(1, 2 ** 31))

        def check_sample(rec, sweeps=sweeps):
            vals = rec["values"]
            rate = vals["estimates"]["acceptance_rate"]
            retained = vals["retained_configs"]
            return _all((0.0 < rate < 1.0, f"acceptance {rate!r}"),
                        (retained == sweeps - int(0.2 * sweeps), f"retained {retained}"))
        add(f"sample.{ens}", ["sample", "--ensemble", ens, "--n", "8", "--sweeps",
                              str(sweeps), "--seed", str(sample_seed)], check_sample)
    return out


def reference_table(seed):
    return [[name, argv, data] for name, argv, _, data in commands(seed)]


def check_output(proc, check):
    """Exit 0, one JSON record on stdout, then the value check."""
    if proc.returncode != 0:
        return False, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        rec = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return False, f"stdout is not JSON ({exc}): {proc.stdout[:200]!r}"
    try:
        return check(rec)
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"record lacks a value ({exc!r}): {proc.stdout[:300]}"


class CliWorkload:
    name = "cli"
    setup_code = SETUP_CODE

    def __init__(self, seed, root):
        self.root = root
        self.env = child_env(root)
        self.commands = commands(seed)

    def run(self, argv):
        return subprocess.run([sys.executable, "-m", "coulomblab.cli", *argv, "--json"],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)

    def warm(self):
        self.run(["fluct", "--op", "cov"])

    def round_ops(self, r):
        return [Op(name, lambda a=argv: self.run(a),
                   lambda proc, c=check: check_output(proc, c))
                for name, argv, check, _ in self.commands]

    def finish(self):
        return []
