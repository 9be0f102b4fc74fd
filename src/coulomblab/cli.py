"""Command-line surface: one subcommand per module plus the acceptance-suite
runner.  Every command supports --json and emits a schema-stable record
{command, inputs, value(s), method, tolerance, provenance}; exit codes are
0 (ok), 2 (argument or domain errors), 3 (numerical errors: an exhausted
quadrature budget or another RuntimeError)."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ._quad import QuadratureBudgetError
from . import acceptance
from . import balayage as bal
from . import conformal as conf
from . import domains as dom
from . import fluctuations as fluct
from . import gas
from . import riesz as riesz_mod
from . import surfaces

__all__ = ["CommandResult", "run_command", "main", "parse_geometry"]


@dataclass
class CommandResult:
    exit_code: int
    record: dict = field(default_factory=dict)


def _fmt(x):
    """17 significant digits for lossless round-trips in text output."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_kv(body: str) -> dict:
    out = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(f"expected key=val, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def parse_geometry(spec: str) -> dom.UniformDomain:
    """Geometry mini-language: name:key=val,key=val.

    Names and keys: ball (d, R, N), annulus (R, c, N), segment (R, N),
    ellipse (a1, a2, N), hyperellipsoid (axes=a|b|..., N), rectangle
    (x0, x1, y0, y1, N), cuboid (x0, x1, y0, y1, z0, z1, N).  N defaults 1.
    """
    name, _, body = spec.partition(":")
    kv = _parse_kv(body)
    charge = float(kv.pop("N", 1.0))
    name = name.strip().lower()
    if name == "ball":
        geo = dom.Ball(int(kv.pop("d", 2)), float(kv.pop("R", 1.0)))
    elif name == "annulus":
        geo = dom.Annulus2D(float(kv.pop("R", 1.0)), float(kv.pop("c")))
    elif name == "segment":
        geo = dom.Segment1D(float(kv.pop("R", 1.0)))
    elif name == "ellipse":
        geo = dom.Ellipse2D(float(kv.pop("a1")), float(kv.pop("a2")))
    elif name == "hyperellipsoid":
        axes = tuple(float(a) for a in kv.pop("axes").split("|"))
        geo = dom.Hyperellipsoid(axes)
    elif name == "rectangle":
        geo = dom.Rectangle(((float(kv.pop("x0", 0.0)), float(kv.pop("x1", 1.0))),
                             (float(kv.pop("y0", 0.0)), float(kv.pop("y1", 1.0)))))
    elif name == "cuboid":
        geo = dom.Cuboid(((float(kv.pop("x0", 0.0)), float(kv.pop("x1", 1.0))),
                          (float(kv.pop("y0", 0.0)), float(kv.pop("y1", 1.0))),
                          (float(kv.pop("z0", 0.0)), float(kv.pop("z1", 1.0)))))
    else:
        raise ValueError(f"unsupported geometry {name!r}")
    if kv:
        raise ValueError(f"unknown geometry keys {sorted(kv)}")
    return dom.UniformDomain(geo, charge)


def _parse_map(spec: str) -> conf.LaurentMap:
    """Map mini-language: circle:R=1 | interval:L=1 | ellipse:a1=2,a2=1 |
    laurent:scale=1,coeffs=0|0.5"""
    name, _, body = spec.partition(":")
    kv = _parse_kv(body)
    name = name.strip().lower()
    if name == "circle":
        return conf.circle_map(float(kv.get("R", 1.0)))
    if name == "interval":
        return conf.interval_map(float(kv.get("L", 1.0)))
    if name == "ellipse":
        return conf.ellipse_map(float(kv["a1"]), float(kv["a2"]))
    if name == "laurent":
        coeffs = tuple(complex(c) for c in kv.get("coeffs", "0").split("|"))
        return conf.LaurentMap(float(kv["scale"]), coeffs)
    raise ValueError(f"unsupported map {name!r}")


def _point(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _record(command, inputs, value=None, values=None, method="", tolerance=None,
            provenance=None):
    rec = {"command": command, "inputs": inputs, "method": method,
           "tolerance": tolerance, "provenance": provenance}
    if values is not None:
        rec["values"] = values
    else:
        rec["value"] = value
    return rec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomblab",
        description="Closed-form electrostatics and Coulomb/log-gas toolkit")
    parser.add_argument("--json", action="store_true",
                        help="emit the full JSON record on stdout")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-subcommand --json from being clobbered by the
    # subparser's default
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit the full JSON record on stdout")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("potential", help="background potential of a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use the direct-quadrature oracle")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("energy", help="interaction energy or cube self-energy")
    p.add_argument("--domain")
    p.add_argument("--points", default="",
                   help="semicolon-separated points, e.g. '0,0;0.5,0.1'")
    p.add_argument("--cube-self", action="store_true")

    p = sub.add_parser("coeffs", help="interior quadratic coefficients")
    p.add_argument("--axes", required=True, help="a1|a2|...")
    p.add_argument("--N", type=float, default=1.0)

    p = sub.add_parser("surface", help="surface charge and projection tools")
    p.add_argument("--op", required=True,
                   choices=["shell", "density", "potential", "projection",
                            "identity"])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--axes")
    p.add_argument("--point")
    p.add_argument("--case", default="constant-potential")

    p = sub.add_parser("green", help="two-point Green functions")
    p.add_argument("--geometry", required=True,
                   help="disk | halfplane | sphere | halfspace | a map spec")
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--R", type=float, default=1.0)

    p = sub.add_parser("capacity", help="capacity/Robin constant of a map")
    p.add_argument("--map", required=True, dest="map_spec")
    p.add_argument("--z", help="optional exterior point for g(z)")

    p = sub.add_parser("droplet", help="droplet maps and radii")
    p.add_argument("--alpha", type=float)
    p.add_argument("--area", type=float, default=math.pi)
    p.add_argument("--induced-alpha", type=float,
                   help="annulus radii of the induced-gas profile")

    p = sub.add_parser("fluct", help="fluctuation formulas")
    p.add_argument("--op", required=True,
                   choices=["cue", "subblock", "cov", "mapped-cov", "surface"])
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--k", type=int, default=1, help="statistic cos(k theta)")
    p.add_argument("--route", default="fourier")
    p.add_argument("--convention", default="contour")
    p.add_argument("--map", dest="map_spec")
    p.add_argument("--geometry", default="disk")
    p.add_argument("--p1", default="0.0")
    p.add_argument("--p2", default="3.141592653589793")
    p.add_argument("--smoothed", action="store_true")

    p = sub.add_parser("riesz", help="Riesz gas on a circle")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--op", default="static",
                   choices=["background", "static", "point"])
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--mode", default="limit", choices=["finite", "limit"])

    p = sub.add_parser("balayage", help="balayage measure of a planar body")
    p.add_argument("--domain", required=True)
    p.add_argument("--moment", type=int)
    p.add_argument("--point", help="evaluate the measure's potential here")

    p = sub.add_parser("hole", help="hole energies and gap/tail rates")
    p.add_argument("--domain", required=True)
    p.add_argument("--rho-b", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--mode", default="gap", choices=["energy", "gap", "tail"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--amp", type=float)
    p.add_argument("--R-tail", type=float, dest="r_tail")

    p = sub.add_parser("sample", help="Metropolis sampling of a gas model")
    p.add_argument("--ensemble", required=True,
                   choices=["ginibre", "elliptic", "induced", "contour", "sinh"])
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--sweeps", type=int, default=5000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--out", help="CSV path for the sample stream")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--L", type=float, default=2 * math.pi)
    p.add_argument("--map", dest="map_spec", default="circle:R=1")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--config", help="key = value file overriding defaults")

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--suite", default="quick", choices=["quick", "full"])

    return parser


def _load_config(path: str) -> dict:
    """Structured key-value text: one `key = value` per line, # comments."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _cmd_potential(args):
    u = parse_geometry(args.domain)
    p = _point(args.point)
    inputs = {"domain": args.domain, "point": args.point, "tol": args.tol}
    if args.oracle:
        res = dom.potential_oracle(u, p, args.tol)
        return _record("potential", inputs, value=res.value,
                       method="direct quadrature oracle",
                       tolerance=res.est_error)
    val = dom.background_potential(u, p)
    return _record("potential", inputs, value=val, method="closed form",
                   provenance="uniform-background potential, charge -N")


def _cmd_energy(args):
    if args.cube_self:
        return _record("energy", {"cube_self": True},
                       value=dom.cube_self_energy(),
                       method="closed form", provenance="unit-cube self-energy")
    if not args.domain:
        raise ValueError("energy: need --domain or --cube-self")
    u = parse_geometry(args.domain)
    pts = [_point(t) for t in args.points.split(";") if t]
    val = dom.interaction_energy(u, pts)
    return _record("energy", {"domain": args.domain, "points": args.points},
                   value=val, method="closed form",
                   provenance="U_bb + U_pb for the given particles")


def _cmd_coeffs(args):
    axes = tuple(float(a) for a in args.axes.split("|"))
    a0, al = dom.hyperellipsoid_coefficients(axes, args.N)
    return _record("coeffs", {"axes": args.axes, "N": args.N},
                   values={"alpha0": a0, "alphas": list(al),
                           "sum": float(sum(al))},
                   method="adaptive lambda-integral quadrature")


def _cmd_surface(args):
    inputs = {"op": args.op, "d": args.d, "R": args.R, "Q": args.Q,
              "axes": args.axes, "point": args.point, "case": args.case}
    if args.op == "shell":
        val = surfaces.shell_potential(args.d, args.R, args.Q, _point(args.point))
        return _record("surface", inputs, value=val, method="shell theorem")
    if args.op == "density":
        axes = tuple(float(a) for a in args.axes.split("|"))
        val = surfaces.ellipsoid_surface_density(axes, args.Q, _point(args.point))
        return _record("surface", inputs, value=val,
                       method="equilibrium surface density")
    if args.op == "potential":
        axes = tuple(float(a) for a in args.axes.split("|"))
        val = surfaces.ellipsoid_surface_potential(axes, args.Q, _point(args.point))
        return _record("surface", inputs, value=val,
                       method="lambda-integral surface potential")
    if args.op == "projection":
        val = surfaces.projection_density(args.d, args.R, _point(args.point))
        return _record("surface", inputs, value=val,
                       method="projected equilibrium density")
    rep = surfaces.projection_identities(args.case, d=args.d, R=args.R)
    return _record("surface", inputs, values=rep,
                   method="identity residual report")


def _cmd_green(args):
    inputs = {"geometry": args.geometry, "z": args.z, "w": args.w, "R": args.R}
    if args.geometry in ("sphere", "halfspace"):
        val = conf.green3d(args.geometry, _point(args.z), _point(args.w), R=args.R)
        return _record("green", inputs, value=val, method="method of images")
    if args.geometry in ("disk", "halfplane"):
        z = complex(*(_point(args.z)))
        w = complex(*(_point(args.w)))
        val = conf.green_two_point(args.geometry, z, w, R=args.R)
        return _record("green", inputs, value=val, method="closed form")
    mp = _parse_map(args.geometry)
    z = complex(*(_point(args.z)))
    w = complex(*(_point(args.w)))
    val = conf.green_two_point(mp, z, w)
    return _record("green", inputs, value=val, method="conformal transport")


def _cmd_capacity(args):
    mp = _parse_map(args.map_spec)
    far = complex(mp.evaluate(3.0))
    g_far, cap, robin = conf.green_infinity(mp, far)
    values = {"capacity": cap, "robin": robin}
    if args.z:
        z = complex(*(_point(args.z)))
        g, _, _ = conf.green_infinity(mp, z)
        values["g"] = g
    return _record("capacity", {"map": args.map_spec, "z": args.z},
                   values=values, method="Laurent-map inversion")


def _cmd_droplet(args):
    if args.induced_alpha is not None:
        a = args.induced_alpha
        r0, r1 = conf.droplet_radii(lambda r: r * r - 2 * a * math.log(r),
                                    lambda r: 2 * r - 2 * a / r)
        return _record("droplet", {"induced_alpha": a},
                       values={"r0": r0, "r1": r1},
                       method="bisection of r q'(r)")
    if args.alpha is None:
        raise ValueError("droplet: need --alpha or --induced-alpha")
    mp = conf.quadratic_droplet(args.alpha, args.area)
    return _record("droplet", {"alpha": args.alpha, "area": args.area},
                   values={"scale": mp.scale,
                           "a_minus1": mp.coefficients[1].real,
                           "semi_axes": [mp.scale * (1 - 2 * args.alpha),
                                         mp.scale * (1 + 2 * args.alpha)]},
                   method="quadratic-potential Laurent ansatz")


def _cmd_fluct(args):
    inputs = {"op": args.op, "N": args.N, "beta": args.beta, "k": args.k,
              "geometry": args.geometry, "p1": args.p1, "p2": args.p2}
    if args.op == "cue":
        val = fluct.cue_kernel(args.N, float(args.p1), float(args.p2))
        return _record("fluct", inputs, value=val, method="sine kernel")
    if args.op == "subblock":
        z = complex(*(_point(args.p1))) if "," in args.p1 else complex(float(args.p1))
        w = complex(*(_point(args.p2))) if "," in args.p2 else complex(float(args.p2))
        val = fluct.subblock_kernel(args.N, z, w, smoothed=args.smoothed)
        if isinstance(val, complex):
            return _record("fluct", inputs,
                           values={"re": val.real, "im": val.imag},
                           method="sub-block kernel")
        return _record("fluct", inputs, value=val,
                       method="sub-block kernel"
                       + (" (smoothed, asymptotic form)" if args.smoothed else ""))
    if args.op == "cov":
        f = lambda t: math.cos(args.k * t)
        val = fluct.covariance_circle(f, f, beta=args.beta, route=args.route)
        return _record("fluct", inputs, value=val,
                       method=f"{args.route} route, f = cos({args.k} theta)")
    if args.op == "mapped-cov":
        mp = _parse_map(args.map_spec)
        f = lambda z: z.real
        val = fluct.covariance_mapped(mp, f, f, beta=args.beta,
                                      convention=args.convention)
        return _record("fluct", inputs, value=val,
                       method=f"mapped covariance, {args.convention} convention")
    geometry = args.geometry
    provenance = None
    if geometry.startswith("ellipse"):
        kv = _parse_kv(geometry.partition(":")[2])
        geometry = ("ellipse", float(kv["a1"]), float(kv["a2"]))
    elif geometry.startswith("laurent") or geometry.startswith("circle") \
            or geometry.startswith("interval"):
        geometry = _parse_map(args.geometry)
        provenance = "conjectural exterior-kernel form"
    if isinstance(geometry, conf.LaurentMap):
        p1 = complex(*(_point(args.p1)))
        p2 = complex(*(_point(args.p2)))
    elif geometry == "halfspace3d":
        p1, p2 = _point(args.p1), _point(args.p2)
    else:
        p1, p2 = float(args.p1), float(args.p2)
    val = fluct.surface_correlation(geometry, args.beta, p1, p2)
    return _record("fluct", inputs, value=val,
                   method="smoothed surface correlation", provenance=provenance)


def _cmd_riesz(args):
    g = riesz_mod.RieszCircle(args.s, args.N, args.R)
    inputs = {"s": args.s, "N": args.N, "R": args.R, "op": args.op,
              "x": args.x, "mode": args.mode}
    if args.op == "background":
        return _record("riesz", inputs, value=riesz_mod.background_potential(g),
                       method="gamma-ratio closed form")
    if args.op == "static":
        exact, asym = riesz_mod.static_energy(g)
        return _record("riesz", inputs,
                       values={"exact": exact, "asymptotic": asym},
                       method="compensated pair sum + closed form")
    val = riesz_mod.point_energy(g, args.x, args.mode)
    return _record("riesz", inputs, value=val,
                   method=f"{args.mode}-mode point energy")


def _cmd_balayage(args):
    u = parse_geometry(args.domain)
    measure = bal.balayage_measure(u)
    values = {
        "total_mass": measure.total_mass,
        "components": [
            {"kind": c.kind, "params": list(c.params), "mass": c.mass}
            for c in measure.components
        ],
    }
    if args.moment is not None:
        mom = bal.exterior_moment(u, args.moment)
        if isinstance(mom, complex):
            values["moment"] = {"re": mom.real, "im": mom.imag}
        else:
            values["moment"] = mom
    if args.point:
        values["potential"] = measure.potential(_point(args.point))
    return _record("balayage", {"domain": args.domain, "moment": args.moment,
                                "point": args.point},
                   values=values, method="boundary balayage measure")


def _cmd_hole(args):
    u = parse_geometry(args.domain)
    spec = bal.HoleSpec(u.geometry, rho_b=args.rho_b, beta=args.beta)
    inputs = {"domain": args.domain, "rho_b": args.rho_b, "beta": args.beta,
              "mode": args.mode, "gamma": args.gamma, "amp": args.amp,
              "R_tail": args.r_tail}
    if args.mode == "energy":
        return _record("hole", inputs, value=bal.hole_energy(spec),
                       method="balayage energy quadrature")
    if args.mode == "gap":
        rate = bal.gap_and_tail(spec, "gap")
        return _record("hole", inputs,
                       values={"rate": rate,
                               "log_probability": spec.rho_b ** 2 * rate},
                       method="gap-probability rate -beta E")
    val = bal.gap_and_tail(spec, "tail", gamma=args.gamma,
                           alpha_amp=args.amp, R=args.r_tail)
    return _record("hole", inputs, value=val, method="counting-tail exponent")


def _cmd_sample(args):
    opts = {
        "ensemble": args.ensemble, "beta": args.beta, "n": args.n,
        "sweeps": args.sweeps, "seed": args.seed, "chains": args.chains,
        "tau": args.tau, "alpha": args.alpha, "c": args.c, "L": args.L,
        "record_every": args.record_every, "out": args.out,
    }
    if args.config:
        cfg = _load_config(args.config)
        for key, val in cfg.items():
            if key not in opts:
                raise ValueError(f"config: unknown key {key!r}")
            cur = opts[key]
            opts[key] = type(cur)(val) if cur is not None else val
    model_kw = {}
    if opts["ensemble"] == "elliptic":
        model_kw["tau"] = float(opts["tau"])
    if opts["ensemble"] == "induced":
        model_kw["alpha"] = float(opts["alpha"])
    if opts["ensemble"] == "sinh":
        model_kw.update(c=float(opts["c"]), L=float(opts["L"]))
    if opts["ensemble"] == "contour":
        model_kw["contour_map"] = _parse_map(args.map_spec)
    model = gas.GasModel(float(opts["beta"]), int(opts["n"]),
                         opts["ensemble"], **model_kw)
    if int(opts["chains"]) < 1:
        raise ValueError("sample: need chains >= 1")
    t0 = time.time()
    chain_samples = []
    radii_sq = []
    rates = []
    for chain in range(int(opts["chains"])):
        state = gas.run_chain(model, int(opts["sweeps"]), int(opts["seed"]),
                              chain=chain,
                              record_every=int(opts["record_every"]))
        rates.append(state.acceptance_rate)
        chain_samples.append(state.samples)
        if model.is_planar:
            radii_sq.append(np.abs(state.samples) ** 2)
    runtime_ms = 1000.0 * (time.time() - t0)
    estimates = {"acceptance_rate": float(np.mean(rates)),
                 "step_scale": state.step_scale}
    stderr = {}
    if radii_sq:
        all_r2 = np.concatenate([r.ravel() for r in radii_sq])
        estimates["mean_radius_sq"] = float(np.mean(all_r2))
        stderr["mean_radius_sq"] = float(np.std(all_r2)
                                         / math.sqrt(max(len(all_r2), 1)))
        estimates["edge_radius"] = math.sqrt(2.0 * float(np.quantile(all_r2, 0.5)))
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            fh.write("chain,sweep,particle,re,im\n")
            for chain, samples in enumerate(chain_samples):
                for s_idx, (xs, ys) in enumerate(zip(np.real(samples).tolist(),
                                                     np.imag(samples).tolist())):
                    for p_idx, (x, y) in enumerate(zip(xs, ys)):
                        fh.write(f"{chain},{s_idx},{p_idx},{x:.17g},{y:.17g}\n")
    return _record("sample", opts,
                   values={"estimates": estimates, "stderr": stderr,
                           "runtime_ms": runtime_ms,
                           "retained_configs": int(len(state.samples))},
                   method="single-particle Metropolis, Philox streams")


def _cmd_check(args):
    lines = []
    results = acceptance.run_suite(args.suite, report=lines.append)
    passed = all(r.passed for r in results)
    values = {
        "suite": args.suite,
        "passed": passed,
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed,
             "detail": r.detail, "seconds": r.seconds}
            for r in results
        ],
    }
    rec = _record("check", {"suite": args.suite}, values=values,
                  method="acceptance suite")
    rec["lines"] = lines
    if not passed:
        rec["error"] = {"type": "AcceptanceFailure",
                        "message": "one or more criteria failed"}
    return rec


_HANDLERS = {
    "potential": _cmd_potential,
    "energy": _cmd_energy,
    "coeffs": _cmd_coeffs,
    "surface": _cmd_surface,
    "green": _cmd_green,
    "capacity": _cmd_capacity,
    "droplet": _cmd_droplet,
    "fluct": _cmd_fluct,
    "riesz": _cmd_riesz,
    "balayage": _cmd_balayage,
    "hole": _cmd_hole,
    "sample": _cmd_sample,
    "check": _cmd_check,
}


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
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_point_values(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(2 if code != 0 else 0,
                             {"command": argv[0] if argv else "",
                              "error": {"type": "ArgumentError",
                                        "message": "invalid arguments"},
                              "json": "--json" in argv})
    as_json = getattr(args, "json", False)
    try:
        record = _HANDLERS[args.command](args)
    except QuadratureBudgetError as exc:
        return CommandResult(3, {
            "command": args.command,
            "error": {"type": "QuadratureBudgetError", "message": str(exc),
                      "best_value": exc.value, "est_error": exc.est_error},
            "json": as_json})
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        return CommandResult(2, {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "json": as_json})
    except RuntimeError as exc:
        return CommandResult(3, {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "json": as_json})
    record["json"] = as_json
    exit_code = 0 if "error" not in record else 2
    return CommandResult(exit_code, record)


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
        print(f"{key} = {_fmt(val) if isinstance(val, float) else val}")


def main(argv=None) -> int:
    result = run_command(list(sys.argv[1:]) if argv is None else list(argv))
    record = dict(result.record)
    as_json = record.pop("json", False)
    if as_json:
        record.pop("lines", None)
        print(json.dumps(record))
    else:
        _print_human(record)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
