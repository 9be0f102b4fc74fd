"""Per-layer probe for the traced run: one span around each call into the
public functions of gas, domains, _quad, balayage, conformal, fluctuations,
surfaces and cli, on inputs drawn from the seed (the same inputs the
workloads use).  Returns {metric name: (value, unit)}.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import climix
import harness
import oracle
import sampler


def _spanned(tracer, name, fn, **attrs):
    with tracer.span(name, **attrs) as rec:
        out = fn()
    return out, rec["end"] - rec["start"]


def _gas(tracer, seed, out):
    from coulomblab import conformal, gas

    models = sampler.build_models(gas, conformal)
    energies = []
    for name, model in models.items():
        sweeps = sampler.SWEEPS_128 if model.N == 128 else sampler.SWEEPS_32
        state, dt = _spanned(tracer, "gas.run_chain",
                             lambda: gas.run_chain(model, sweeps, seed), model=name)
        out[f"gas.run_chain.us_per_proposal.{name}"] = (1e6 * dt / state.proposal_count, "us")
        out[f"gas.run_chain.acceptance.{name}"] = (state.acceptance_rate, "ratio")
        _, dt = _spanned(tracer, "gas.total_energy",
                         lambda: model.total_energy(state.positions), model=name)
        energies.append(dt)
    out["gas.total_energy.ms"] = (1e3 * statistics.mean(energies), "ms")
    f = sampler.COV_TARGETS["ginibre"][0]
    _, dt = _spanned(tracer, "gas.statistic_covariance",
                     lambda: gas.statistic_covariance(
                         models["ginibre"], f, f, chains=sampler.COV_CHAINS,
                         sweeps=sampler.COV_SWEEPS, seed=seed), model="ginibre")
    out["gas.statistic_covariance.s"] = (dt, "s")


def _quadrature(tracer, out):
    from coulomblab._quad import adaptive_1d

    calls = [0]

    def counted(f):
        def g(x):
            calls[0] += 1
            return f(x)
        return g

    integrands = {"smooth": (lambda x: np.exp(np.cos(3.0 * x)) * np.sin(x) ** 2,
                             0.0, 2.0 * math.pi),
                  "log_endpoint": (lambda x: -np.log(x) * np.cos(x), 0.0, 1.0)}
    total_calls, total_s = 0, 0.0
    for name, (f, a, b) in integrands.items():
        calls[0] = 0
        reps = 20
        _, dt = _spanned(tracer, "_quad.adaptive_1d",
                         lambda: [adaptive_1d(counted(f), a, b, 1e-10) for _ in range(reps)],
                         integrand=name)
        out[f"quad.adaptive_1d.panels.{name}"] = (calls[0] / reps, "count")
        total_calls += calls[0]
        total_s += dt
    out["quad.adaptive_1d.us_per_panel"] = (1e6 * total_s / total_calls, "us")


def _domains_balayage(tracer, seed, out):
    work = oracle.OracleWorkload(seed)
    # the workload has one rectangle point (its known fault); time a few
    # more here, where nothing is checked
    rng = np.random.default_rng([seed, 6])
    rect = [("rectangle", p, None) for p in
            [oracle.RECT_FAULT_POINT] + [tuple(rng.uniform(0.05, 0.95, 2)) for _ in range(3)]]
    per_class = {}
    for cls, p, _ in work.oracle_cases + rect:
        _, dt = _spanned(tracer, "domains.potential_oracle",
                         lambda: work.dom.potential_oracle(work.domains[cls], p, oracle.TOL),
                         geometry=cls)
        per_class.setdefault(cls, []).append(dt)
    for cls, ts in per_class.items():
        out[f"domains.potential_oracle.ms.{cls}"] = (1e3 * statistics.mean(ts), "ms")
    per_hole = {}
    for geo, kind, _ in work.hole_cases:
        _, dt = _spanned(tracer, "balayage.hole_energy",
                         lambda: work.bal.hole_energy(work.bal.HoleSpec(geo)), hole=kind)
        per_hole.setdefault(kind, []).append(dt)
    for kind, ts in per_hole.items():
        out[f"balayage.hole_energy.ms.{kind}"] = (1e3 * statistics.mean(ts), "ms")
    ts = [_spanned(tracer, "balayage.BalayageMeasure.potential",
                   lambda: m.potential(p), body=body[0])[1]
          for body, m, p, _ in work.balayage_cases]
    out["balayage.measure_potential.ms"] = (1e3 * statistics.mean(ts), "ms")


def _conformal_fluct_surfaces(tracer, seed, out):
    from coulomblab import conformal, fluctuations, surfaces

    rng = np.random.default_rng([seed, 5])
    reps = 5
    for name, make in (("ellipse", lambda: conformal.ellipse_map(2.0, 1.0)),
                       ("laurent3", lambda: conformal.LaurentMap(1.0, (0.0, 0.2, 0.1)))):
        _, dt = _spanned(tracer, "conformal.LaurentMap",
                         lambda: [make() for _ in range(reps)], map=name)
        out[f"conformal.LaurentMap.ms.{name}"] = (1e3 * dt / reps, "ms")
    mp = conformal.ellipse_map(2.0, 1.0)
    zs = [complex(*climix._ellipse_point(rng, 2.0, 1.0, 1.2, 2.5)) for _ in range(200)]
    _, dt = _spanned(tracer, "conformal.LaurentMap.invert",
                     lambda: [mp.invert(z) for z in zs])
    out["conformal.invert.us"] = (1e6 * dt / len(zs), "us")
    _, dt = _spanned(tracer, "conformal.green_two_point",
                     lambda: [conformal.green_two_point(mp, z, w)
                              for z, w in zip(zs[::2], zs[1::2])])
    out["conformal.green_two_point.us"] = (1e6 * dt / (len(zs) // 2), "us")

    cases = {
        "covariance_mapped": lambda: fluctuations.covariance_mapped(
            mp, lambda z: z.real, lambda z: z.real),
        "subblock_kernel": lambda: fluctuations.subblock_kernel(
            10, 0.5, 0.5 * complex(math.cos(1.0), -math.sin(1.0)), smoothed=True),
        "surface_correlation": lambda: fluctuations.surface_correlation(
            ("ellipse", 2.0, 1.0), 2.0, 0.3, 2.0),
        "covariance_circle": lambda: fluctuations.covariance_circle(math.cos, math.cos),
    }
    for name, fn in cases.items():
        _, dt = _spanned(tracer, f"fluctuations.{name}", fn)
        out[f"fluctuations.{name}.ms"] = (1e3 * dt, "ms")
    _, dt = _spanned(tracer, "surfaces.projection_identities",
                     lambda: surfaces.projection_identities("constant-potential", d=3, R=1.0))
    out["surfaces.projection_identities.ms"] = (1e3 * dt, "ms")


IMPORT_CODE = ("import time; t = time.perf_counter(); import coulomblab.cli; "
               "print(1e3 * (time.perf_counter() - t))")


def _cli(tracer, seed, root, out, reps=5):
    from coulomblab import cli

    imports, bare = [], []
    for _ in range(reps):
        dt, proc = _spanned(tracer, "cli.import", lambda: harness.timed_child(root, ["-c", IMPORT_CODE]))[0]
        imports.append(float(proc.stdout))
        bare.append(_spanned(tracer, "python -c pass",
                             lambda: harness.timed_child(root, ["-c", "pass"]))[0][0])
    out["cli.import_ms"] = (statistics.median(imports), "ms")
    out["cli.interpreter_ms"] = (1e3 * statistics.median(bare), "ms")
    per_sub = {}
    commands = climix.commands(seed)
    for _, argv, _, _ in commands:   # first pass fills lazy imports and caches
        cli.run_command(argv + ["--json"])
    for _, argv, _, _ in commands:
        res, dt = _spanned(tracer, "cli.run_command", lambda: cli.run_command(argv + ["--json"]),
                           subcommand=argv[0])
        if res.exit_code != 0:
            raise RuntimeError(f"run_command {argv}: exit {res.exit_code} {res.record}")
        per_sub.setdefault(argv[0], []).append(dt)
    for sub, ts in per_sub.items():
        out[f"cli.run_command.ms.{sub}"] = (1e3 * statistics.mean(ts), "ms")


def probe(tracer, seed, root):
    out = {}
    tracer.new_trace()
    with tracer.span("probe"):
        _gas(tracer, seed, out)
        _quadrature(tracer, out)
        _domains_balayage(tracer, seed, out)
        _conformal_fluct_surfaces(tracer, seed, out)
        _cli(tracer, seed, root, out)
    return out
