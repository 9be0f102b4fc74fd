"""Command-line surface: one subcommand per module plus the acceptance-suite
runner.  Every command supports --json and emits a schema-stable record
{command, inputs, method, tolerance, provenance, value(s)} as strict JSON.
Exit codes are 0 (ok, and --help), 2 (argument or domain errors: a missing,
malformed or non-finite value in argv, or a value the domain rejects) and 3
(numerical errors: an exhausted quadrature budget, another RuntimeError, or
a non-finite result)."""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ._quad import QuadratureBudgetError
from . import balayage as bal
from . import conformal as conf
from . import domains as dom
from . import fluctuations as fluct
from . import riesz as riesz_mod
from . import surfaces

__all__ = ["CommandResult", "run_command", "main", "parse_geometry"]


@dataclass
class CommandResult:
    exit_code: int
    record: dict = field(default_factory=dict)


def _fmt(x):
    """17 significant digits for lossless round-trips in text output."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_kv(body: str, sep=",") -> dict:
    out = {}
    for item in body.split(sep) if body else ():
        key, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"expected key=val, got {item!r}")
        out[key.strip()] = val.strip()
    return out


# All option text is read by these three helpers.  They raise ValueError
# (exit 2), naming the option, for a missing, empty, malformed or non-finite
# value and for a wrong number of coordinates.

def _floats(text, name, sep=",", count=None) -> tuple:
    """The finite numbers in `text` (exactly `count` of them if given)."""
    if text is None:
        raise ValueError(f"missing {name}")
    try:
        vals = tuple(float(x) for x in text.split(sep))
    except ValueError:
        raise ValueError(f"{name}: expected numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{name}: not finite: {text!r}")
    if count is not None and len(vals) != count:
        raise ValueError(f"{name}: expected {count} number(s), got {text!r}")
    return vals


def _point(text, name) -> np.ndarray:
    return np.array(_floats(text, name))


def _complex(text, name) -> complex:
    """A point x or x,y as the complex number x + iy."""
    vals = _floats(text, name)
    if len(vals) > 2:
        raise ValueError(f"{name}: expected x or x,y, got {text!r}")
    return complex(*vals)


def _num(kv, key, *default):
    """The number under `key` (popped) in the key=val dict of a spec."""
    return _floats(kv.pop(key, *default), key)[0]


def parse_geometry(spec: str) -> dom.UniformDomain:
    """Geometry mini-language: name:key=val,key=val.

    Names and keys: ball (d, R, N), annulus (R, c, N), segment (R, N),
    ellipse (a1, a2, N), hyperellipsoid (axes=a|b|..., N), rectangle
    (x0, x1, y0, y1, N), cuboid (x0, x1, y0, y1, z0, z1, N).  N defaults 1.
    """
    name, _, body = spec.partition(":")
    kv = _parse_kv(body)
    charge = _num(kv, "N", "1")
    name = name.strip().lower()
    if name == "ball":
        geo = dom.Ball(int(kv.pop("d", 2)), _num(kv, "R", "1"))
    elif name == "annulus":
        geo = dom.Annulus2D(_num(kv, "R", "1"), _num(kv, "c"))
    elif name == "segment":
        geo = dom.Segment1D(_num(kv, "R", "1"))
    elif name == "ellipse":
        geo = dom.Ellipse2D(_num(kv, "a1"), _num(kv, "a2"))
    elif name == "hyperellipsoid":
        geo = dom.Hyperellipsoid(_floats(kv.pop("axes"), "axes", "|"))
    elif name == "rectangle":
        geo = dom.Rectangle(((_num(kv, "x0", "0"), _num(kv, "x1", "1")),
                             (_num(kv, "y0", "0"), _num(kv, "y1", "1"))))
    elif name == "cuboid":
        geo = dom.Cuboid(((_num(kv, "x0", "0"), _num(kv, "x1", "1")),
                          (_num(kv, "y0", "0"), _num(kv, "y1", "1")),
                          (_num(kv, "z0", "0"), _num(kv, "z1", "1"))))
    else:
        raise ValueError(f"unsupported geometry {name!r}")
    if kv:
        raise ValueError(f"unknown geometry keys {sorted(kv)}")
    return dom.UniformDomain(geo, charge)


def _parse_map(spec: str) -> conf.LaurentMap:
    """Map mini-language: circle:R=1 | interval:L=1 | ellipse:a1=2,a2=1 |
    laurent:scale=1,coeffs=0|0.5"""
    if spec is None:
        raise ValueError("missing --map")
    name, _, body = spec.partition(":")
    kv = _parse_kv(body)
    name = name.strip().lower()
    if name == "circle":
        return conf.circle_map(_num(kv, "R", "1"))
    if name == "interval":
        return conf.interval_map(_num(kv, "L", "1"))
    if name == "ellipse":
        return conf.ellipse_map(_num(kv, "a1"), _num(kv, "a2"))
    if name == "laurent":
        coeffs = tuple(complex(c) for c in kv.get("coeffs", "0").split("|"))
        if not all(cmath.isfinite(c) for c in coeffs):
            raise ValueError(f"coeffs: not finite: {kv['coeffs']!r}")
        return conf.LaurentMap(_num(kv, "scale"), coeffs)
    raise ValueError(f"unsupported map {name!r}")


# Each handler returns the fields of its record: `method`, `value` or
# `values`, and where they apply `tolerance`, `provenance` and `inputs` (for
# inputs that depend on the branch taken; otherwise the table records them).

def _cmd_potential(args):
    u = parse_geometry(args.domain)
    p = _point(args.point, "--point")
    if args.oracle:
        res = dom.potential_oracle(u, p, args.tol)
        # the quadrature's QuadStats (none on the fixed-rule cuboid and QMC
        # paths): tol_met is false when --tol was not reached
        return dict(value=res.value, method="direct quadrature oracle",
                    tolerance=res.est_error,
                    diagnostics=None if res.stats is None else asdict(res.stats))
    return dict(value=dom.background_potential(u, p), method="closed form",
                provenance="uniform-background potential, charge -N")


def _cmd_energy(args):
    if args.cube_self:
        return dict(inputs={"cube_self": True}, value=dom.cube_self_energy(),
                    method="closed form", provenance="unit-cube self-energy")
    if not args.domain:
        raise ValueError("energy: need --domain or --cube-self")
    u = parse_geometry(args.domain)
    pts = [_point(t, "--points") for t in args.points.split(";") if t]
    return dict(value=dom.interaction_energy(u, pts), method="closed form",
                provenance="U_bb + U_pb for the given particles")


def _cmd_coeffs(args):
    a0, al = dom.hyperellipsoid_coefficients(_floats(args.axes, "--axes", "|"),
                                             args.N)
    return dict(values={"alpha0": a0, "alphas": list(al), "sum": float(sum(al))},
                method="adaptive lambda-integral quadrature")


def _cmd_surface(args):
    if args.op == "identity":
        rep = surfaces.projection_identities(args.case, d=args.d, R=args.R)
        return dict(values=rep, method="identity residual report")
    if args.op in ("density", "potential"):
        axes = _floats(args.axes, "--axes", "|")
    p = _point(args.point, "--point")
    if args.op == "shell":
        return dict(value=surfaces.shell_potential(args.d, args.R, args.Q, p),
                    method="shell theorem")
    if args.op == "density":
        return dict(value=surfaces.ellipsoid_surface_density(axes, args.Q, p),
                    method="equilibrium surface density")
    if args.op == "potential":
        return dict(value=surfaces.ellipsoid_surface_potential(axes, args.Q, p),
                    method="lambda-integral surface potential")
    return dict(value=surfaces.projection_density(args.d, args.R, p),
                method="projected equilibrium density")


def _cmd_green(args):
    if args.geometry in ("sphere", "halfspace"):
        val = conf.green3d(args.geometry, _point(args.z, "--z"),
                           _point(args.w, "--w"), R=args.R)
        return dict(value=val, method="method of images")
    if args.geometry in ("disk", "halfplane"):
        val = conf.green_two_point(args.geometry, _complex(args.z, "--z"),
                                   _complex(args.w, "--w"), R=args.R)
        return dict(value=val, method="closed form")
    mp = _parse_map(args.geometry)
    val = conf.green_two_point(mp, _complex(args.z, "--z"), _complex(args.w, "--w"))
    return dict(value=val, method="conformal transport")


def _cmd_capacity(args):
    mp = _parse_map(args.map)
    _, cap, robin = conf.green_infinity(mp, complex(mp.evaluate(3.0)))
    values = {"capacity": cap, "robin": robin}
    if args.z:
        values["g"] = conf.green_infinity(mp, _complex(args.z, "--z"))[0]
    return dict(values=values, method="Laurent-map inversion")


def _cmd_droplet(args):
    if args.induced_alpha is not None:
        a = args.induced_alpha
        r0, r1 = conf.droplet_radii(lambda r: r * r - 2 * a * math.log(r),
                                    lambda r: 2 * r - 2 * a / r)
        return dict(inputs={"induced_alpha": a}, values={"r0": r0, "r1": r1},
                    method="bisection of r q'(r)")
    if args.alpha is None:
        raise ValueError("droplet: need --alpha or --induced-alpha")
    mp = conf.quadratic_droplet(args.alpha, args.area)
    return dict(values={"scale": mp.scale, "a_minus1": mp.coefficients[1].real,
                        "semi_axes": [mp.scale * (1 - 2 * args.alpha),
                                      mp.scale * (1 + 2 * args.alpha)]},
                method="quadratic-potential Laurent ansatz")


def _cmd_fluct(args):
    def pair(parse, *extra):
        return parse(args.p1, "--p1", *extra), parse(args.p2, "--p2", *extra)

    if args.op == "cue":
        (p1,), (p2,) = pair(_floats, ",", 1)
        return dict(value=fluct.cue_kernel(args.N, p1, p2), method="sine kernel")
    if args.op == "subblock":
        val = fluct.subblock_kernel(args.N, *pair(_complex), smoothed=args.smoothed)
        if isinstance(val, complex):
            return dict(values={"re": val.real, "im": val.imag},
                        method="sub-block kernel")
        return dict(value=val, method="sub-block kernel"
                    + (" (smoothed, asymptotic form)" if args.smoothed else ""))
    if args.op == "cov":
        f = lambda t: math.cos(args.k * t)
        val = fluct.covariance_circle(f, f, beta=args.beta, route=args.route)
        return dict(value=val, method=f"{args.route} route, f = cos({args.k} theta)")
    if args.op == "mapped-cov":
        f = lambda z: z.real
        val = fluct.covariance_mapped(_parse_map(args.map), f, f, beta=args.beta,
                                      convention=args.convention)
        return dict(value=val,
                    method=f"mapped covariance, {args.convention} convention")
    geometry = args.geometry
    provenance = None
    if geometry.startswith("ellipse"):
        kv = _parse_kv(geometry.partition(":")[2])
        geometry = ("ellipse", _num(kv, "a1"), _num(kv, "a2"))
    elif geometry.startswith(("laurent", "circle", "interval")):
        geometry = _parse_map(geometry)
        provenance = "conjectural exterior-kernel form"
    if isinstance(geometry, conf.LaurentMap):
        p1, p2 = pair(_complex)
    elif geometry == "halfspace3d":
        p1, p2 = pair(_point)
    else:
        (p1,), (p2,) = pair(_floats, ",", 1)
    return dict(value=fluct.surface_correlation(geometry, args.beta, p1, p2),
                method="smoothed surface correlation", provenance=provenance)


def _cmd_riesz(args):
    g = riesz_mod.RieszCircle(args.s, args.N, args.R)
    if args.op == "background":
        return dict(value=riesz_mod.background_potential(g),
                    method="gamma-ratio closed form")
    if args.op == "static":
        exact, asym = riesz_mod.static_energy(g)
        return dict(values={"exact": exact, "asymptotic": asym},
                    method="compensated pair sum + closed form")
    return dict(value=riesz_mod.point_energy(g, args.x, args.mode),
                method=f"{args.mode}-mode point energy")


def _cmd_balayage(args):
    u = parse_geometry(args.domain)
    measure = bal.balayage_measure(u)
    components = [{"kind": c.kind, "params": list(c.params), "mass": c.mass}
                  for c in measure.components]
    values = {"total_mass": measure.total_mass, "components": components}
    if args.moment is not None:
        mom = bal.exterior_moment(u, args.moment)
        values["moment"] = ({"re": mom.real, "im": mom.imag}
                            if isinstance(mom, complex) else mom)
    if args.point:
        values["potential"] = measure.potential(_point(args.point, "--point"))
    return dict(values=values, method="boundary balayage measure")


def _cmd_hole(args):
    spec = bal.HoleSpec(parse_geometry(args.domain).geometry, rho_b=args.rho_b,
                        beta=args.beta)
    if args.mode == "energy":
        return dict(value=bal.hole_energy(spec), method="balayage energy quadrature")
    if args.mode == "gap":
        rate = bal.gap_and_tail(spec, "gap")
        return dict(values={"rate": rate, "log_probability": spec.rho_b ** 2 * rate},
                    method="gap-probability rate -beta E")
    val = bal.gap_and_tail(spec, "tail", gamma=args.gamma, alpha_amp=args.amp,
                           R=args.R_tail)
    return dict(value=val, method="counting-tail exponent")


def _cmd_sample(args):
    from . import gas

    opts = {k: getattr(args, k) for k in ("ensemble", "beta", "n", "sweeps", "seed",
                                          "chains", "tau", "alpha", "c", "L",
                                          "record_every", "out")}
    if args.config:   # one `key = value` per line, # comments
        with open(args.config) as fh:
            lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
        for key, val in _parse_kv("\n".join(lines), "\n").items():
            if key not in opts:
                raise ValueError(f"config: unknown key {key!r}")
            cur = opts[key]
            opts[key] = type(cur)(val) if cur is not None else val
            if isinstance(opts[key], float) and not math.isfinite(opts[key]):
                raise ValueError(f"config: {key} is not finite")
    params = {"elliptic": ("tau",), "induced": ("alpha",), "sinh": ("c", "L")}
    model_kw = {k: float(opts[k]) for k in params.get(opts["ensemble"], ())}
    if opts["ensemble"] == "contour":
        model_kw["contour_map"] = _parse_map(args.map)
    model = gas.GasModel(float(opts["beta"]), int(opts["n"]),
                         opts["ensemble"], **model_kw)
    if int(opts["chains"]) < 1:
        raise ValueError("sample: need chains >= 1")
    t0 = time.time()
    states = gas.run_chains(model, int(opts["sweeps"]), int(opts["seed"]),
                            range(int(opts["chains"])),
                            record_every=int(opts["record_every"]))
    runtime_ms = 1000.0 * (time.time() - t0)
    # each chain adapts its own step; both figures are means over the chains
    estimates = {"acceptance_rate": float(np.mean([s.acceptance_rate for s in states])),
                 "step_scale": float(np.mean([s.step_scale for s in states]))}
    stderr = {}
    if model.is_planar:
        all_r2 = np.concatenate([(np.abs(s.samples) ** 2).ravel() for s in states])
        estimates["mean_radius_sq"] = float(np.mean(all_r2))
        stderr["mean_radius_sq"] = float(np.std(all_r2)
                                         / math.sqrt(max(len(all_r2), 1)))
        estimates["edge_radius"] = math.sqrt(2.0 * float(np.quantile(all_r2, 0.5)))
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            fh.write("chain,sweep,particle,re,im\n")
            for chain, state in enumerate(states):
                for s_idx, row in enumerate(state.samples.tolist()):
                    for p_idx, z in enumerate(row):
                        fh.write(f"{chain},{s_idx},{p_idx},"
                                 f"{z.real:.17g},{z.imag:.17g}\n")
    return dict(inputs=opts,
                values={"estimates": estimates, "stderr": stderr,
                        "runtime_ms": runtime_ms,
                        "retained_configs": int(len(states[-1].samples))},
                method="single-particle Metropolis, Philox streams")


def _cmd_check(args):
    from . import acceptance

    lines = []
    results = acceptance.run_suite(args.suite, report=lines.append)
    passed = all(r.passed for r in results)
    criteria = [{"index": r.index, "name": r.name, "passed": r.passed,
                 "detail": r.detail, "seconds": r.seconds} for r in results]
    fields = dict(values={"suite": args.suite, "passed": passed,
                          "criteria": criteria},
                  method="acceptance suite", lines=lines)
    if not passed:
        fields["error"] = {"type": "AcceptanceFailure",
                           "message": "one or more criteria failed"}
    return fields


def _opt(flag, record=True, **kw):
    """One option: its argparse keywords, and the key its value enters the
    record's `inputs` under (its dest, e.g. R_tail for --R-tail), or None."""
    return flag, flag[2:].replace("-", "_") if record else None, kw


# One entry per subcommand: handler, help text, options.  energy --cube-self,
# droplet --induced-alpha and sample return their own inputs.
_COMMANDS = {
    "potential": (_cmd_potential, "background potential of a domain", [
        _opt("--domain", required=True), _opt("--point", required=True),
        _opt("--oracle", record=False, action="store_true",
             help="use the direct-quadrature oracle"),
        _opt("--tol", type=float, default=1e-8)]),
    "energy": (_cmd_energy, "interaction energy or cube self-energy", [
        _opt("--domain"),
        _opt("--points", default="",
             help="semicolon-separated points, e.g. '0,0;0.5,0.1'"),
        _opt("--cube-self", record=False, action="store_true")]),
    "coeffs": (_cmd_coeffs, "interior quadratic coefficients", [
        _opt("--axes", required=True, help="a1|a2|..."),
        _opt("--N", type=float, default=1.0)]),
    "surface": (_cmd_surface, "surface charge and projection tools", [
        _opt("--op", required=True,
             choices=["shell", "density", "potential", "projection", "identity"]),
        _opt("--d", type=int, default=3), _opt("--R", type=float, default=1.0),
        _opt("--Q", type=float, default=1.0), _opt("--axes"), _opt("--point"),
        _opt("--case", default="constant-potential")]),
    "green": (_cmd_green, "two-point Green functions", [
        _opt("--geometry", required=True,
             help="disk | halfplane | sphere | halfspace | a map spec"),
        _opt("--z", required=True), _opt("--w", required=True),
        _opt("--R", type=float, default=1.0)]),
    "capacity": (_cmd_capacity, "capacity/Robin constant of a map", [
        _opt("--map", required=True),
        _opt("--z", help="optional exterior point for g(z)")]),
    "droplet": (_cmd_droplet, "droplet maps and radii", [
        _opt("--alpha", type=float), _opt("--area", type=float, default=math.pi),
        _opt("--induced-alpha", record=False, type=float,
             help="annulus radii of the induced-gas profile")]),
    "fluct": (_cmd_fluct, "fluctuation formulas", [
        _opt("--op", required=True,
             choices=["cue", "subblock", "cov", "mapped-cov", "surface"]),
        _opt("--N", type=int, default=10), _opt("--beta", type=float, default=2.0),
        _opt("--k", type=int, default=1, help="statistic cos(k theta)"),
        _opt("--route", record=False, default="fourier"),
        _opt("--convention", record=False, default="contour"),
        _opt("--map", record=False),
        _opt("--geometry", default="disk"), _opt("--p1", default="0.0"),
        _opt("--p2", default="3.141592653589793"),
        _opt("--smoothed", record=False, action="store_true")]),
    "riesz": (_cmd_riesz, "Riesz gas on a circle", [
        _opt("--s", type=float, required=True), _opt("--N", type=int, required=True),
        _opt("--R", type=float, default=1.0),
        _opt("--op", default="static", choices=["background", "static", "point"]),
        _opt("--x", type=float, default=0.5),
        _opt("--mode", default="limit", choices=["finite", "limit"])]),
    "balayage": (_cmd_balayage, "balayage measure of a planar body", [
        _opt("--domain", required=True), _opt("--moment", type=int),
        _opt("--point", help="evaluate the measure's potential here")]),
    "hole": (_cmd_hole, "hole energies and gap/tail rates", [
        _opt("--domain", required=True), _opt("--rho-b", type=float, default=1.0),
        _opt("--beta", type=float, default=2.0),
        _opt("--mode", default="gap", choices=["energy", "gap", "tail"]),
        _opt("--gamma", type=float), _opt("--amp", type=float),
        _opt("--R-tail", type=float)]),
    "sample": (_cmd_sample, "Metropolis sampling of a gas model", [
        _opt("--ensemble", required=True,
             choices=["ginibre", "elliptic", "induced", "contour", "sinh"]),
        _opt("--beta", type=float, default=2.0), _opt("--n", type=int, default=16),
        _opt("--sweeps", type=int, default=5000),
        _opt("--seed", type=int, default=1), _opt("--chains", type=int, default=1),
        _opt("--out", help="CSV path for the sample stream"),
        _opt("--tau", type=float, default=0.5),
        _opt("--alpha", type=float, default=1.0),
        _opt("--c", type=float, default=1.0),
        _opt("--L", type=float, default=2 * math.pi),
        _opt("--map", default="circle:R=1"),
        _opt("--record-every", type=int, default=1),
        _opt("--config", help="key = value file overriding defaults")]),
    "check": (_cmd_check, "run the acceptance suite", [
        _opt("--suite", default="quick", choices=["quick", "full"])]),
}

# exception type -> exit code; QuadratureBudgetError is a RuntimeError, and
# FloatingPointError marks a non-finite result
_EXIT_CODES = {ValueError: 2, KeyError: 2, OSError: 2, OverflowError: 2,
               ZeroDivisionError: 2, RuntimeError: 3, FloatingPointError: 3}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomblab",
        description="Closed-form electrostatics and Coulomb/log-gas toolkit")
    json_kw = dict(action="store_true", help="emit the full JSON record on stdout")
    parser.add_argument("--json", **json_kw)
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-subcommand --json from being clobbered by the
    # subparser's default
    common.add_argument("--json", default=argparse.SUPPRESS, **json_kw)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, _, kw in options:
            p.add_argument(flag, **kw)
    return parser


# options whose value is a comma-separated point; argparse would read a
# negative first coordinate ("-0.5,0.3") as an option flag
_POINT_OPTIONS = ("--point", "--points", "--z", "--w", "--p1", "--p2")


def _attach_point_values(argv):
    """Rewrite `--point -0.5,0.3` as `--point=-0.5,0.3`."""
    out = []
    for tok in argv:
        if out and out[-1] in _POINT_OPTIONS and re.match(r"-[\d.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def run_command(argv) -> CommandResult:
    """Dispatch an argv list; never raises for user errors (exit codes 2/3)."""
    try:
        args = _build_parser().parse_args(_attach_point_values(argv))
    except SystemExit as exc:
        if exc.code == 0:   # --help
            return CommandResult(0, {})
        return CommandResult(2, {"command": argv[0] if argv else "",
                                 "error": {"type": "ArgumentError",
                                           "message": "invalid arguments"},
                                 "json": "--json" in argv})
    as_json = getattr(args, "json", False)
    handler, _, options = _COMMANDS[args.command]
    try:
        for key, val in vars(args).items():
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"--{key.replace('_', '-')}: not finite: {val!r}")
        fields = handler(args)
        inputs = {key: getattr(args, key) for _, key, _ in options if key}
        record = {"command": args.command, "inputs": fields.pop("inputs", inputs),
                  "method": fields.pop("method"),
                  "tolerance": fields.pop("tolerance", None),
                  "provenance": fields.pop("provenance", None), **fields}
        try:
            json.dumps(record, allow_nan=False)
        except ValueError:
            raise FloatingPointError("non-finite value in the result") from None
    except tuple(_EXIT_CODES) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, QuadratureBudgetError):
            # a non-finite estimate is written as null, to keep the JSON strict
            error.update((key, val if math.isfinite(val) else None) for key, val in
                         (("best_value", exc.value), ("est_error", exc.est_error)))
        code = next(c for t, c in _EXIT_CODES.items() if isinstance(exc, t))
        return CommandResult(code, {"command": args.command, "error": error,
                                    "json": as_json})
    record["json"] = as_json
    return CommandResult(0 if "error" not in record else 2, record)


def _print_human(record):
    if "lines" in record:
        for line in record["lines"]:
            print(line)
        return
    if "error" in record:
        print(f"error ({record['error']['type']}): {record['error']['message']}",
              file=sys.stderr)
        return
    if "value" in record:
        print(_fmt(record["value"]))
        return
    for key, val in record.get("values", {}).items():
        print(f"{key} = {_fmt(val)}")


def main(argv=None) -> int:
    result = run_command(list(sys.argv[1:]) if argv is None else list(argv))
    record = dict(result.record)
    as_json = record.pop("json", False)
    if as_json:
        record.pop("lines", None)
        print(json.dumps(record, allow_nan=False))
    else:
        _print_human(record)
        if (record.get("diagnostics") or {}).get("tol_met") is False:
            print("warning: --tol was not met (see --json)", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
