"""`sampler` workload: Metropolis chains and multi-chain covariances of five
beta = 2 ensembles.

Each round runs `gas.run_chain` once per model and `gas.statistic_covariance`
(8 chains) on two of them, with Philox seeds derived from (seed, round).
Per chain the running energy and the acceptance tallies are checked; after
the last round the pooled means and covariances are checked against exact
beta = 2 values within their own standard errors.
"""

from __future__ import annotations

import math

import numpy as np

import checks
import references as ref
from harness import Op

BETA = 2.0
SWEEPS_32 = 600        # N = 32 chains: 480 recorded sweeps, ~100 tau_int
SWEEPS_128 = 200       # the N = 128 chain
COV_CHAINS = 8
COV_SWEEPS = 250
BURN_IN_FRAC = 0.2     # run_chain's default, restated for the shape check

MODELS = {
    "ginibre": dict(N=32, ensemble="ginibre"),
    "elliptic": dict(N=32, ensemble="elliptic", tau=0.5),
    "induced": dict(N=32, ensemble="induced", alpha=1.0),
    "sinh": dict(N=32, ensemble="sinh", c=1.0, L=2.0 * math.pi),
    "contour": dict(N=32, ensemble="contour"),
    "ginibre_n128": dict(N=128, ensemble="ginibre"),
}


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


# per model: [(label, statistic of the (sweeps, N) sample array, exact mean)]
def _mean_targets():
    n = 32

    def sum_abs2(s):
        return np.sum(_abs2(s), axis=1)

    return {
        "ginibre": [("ginibre.sum_abs2", sum_abs2, ref.ginibre_moment(n))],
        "elliptic": [("elliptic.sum_re_z2", lambda s: np.sum((s * s).real, axis=1),
                      0.5 * n * n)],
        "induced": [("induced.sum_abs2", sum_abs2, ref.induced_moment(n, 1.0))],
        "sinh": [("sinh.sum_x2", lambda s: np.sum(s * s, axis=1),
                  ref.sinh_mean_sum_x2(n, 1.0, 2.0 * math.pi))],
        # CUE: E|sum e^{i theta}|^2 = 1, and E sum cos theta = 0 by rotation
        # symmetry, so Var sum cos theta = E (sum cos theta)^2 = 1/2
        "contour": [("contour.abs_trace2",
                     lambda s: np.abs(np.sum(np.exp(1j * s), axis=1)) ** 2, 1.0),
                    ("contour.sum_cos2", lambda s: np.sum(np.cos(s), axis=1) ** 2, 0.5)],
        "ginibre_n128": [("ginibre_n128.sum_abs2", sum_abs2, ref.ginibre_moment(128))],
    }


# per model: (f = g of one particle, exact Var sum f).  The across-chain
# covariance subtracts each chain's own mean, which biases it low by about
# tau_int / (recorded sweeps): ~1% here, but ~5% for cos theta on the
# contour (tau_int ~ 9 sweeps), whose variance is checked through the
# chain means above instead.
COV_TARGETS = {
    "ginibre": (_abs2, ref.ginibre_moment(32)),
    "induced": (_abs2, ref.induced_moment(32, 1.0)),
}

SETUP_CODE = """
import math
from coulomblab import gas, conformal
circle = conformal.circle_map(1.0)
models = [gas.GasModel(2.0, 32, e, **kw) for e, kw in (
    ("ginibre", {}), ("elliptic", {"tau": 0.5}), ("induced", {"alpha": 1.0}),
    ("sinh", {"c": 1.0, "L": 2 * math.pi}), ("contour", {"contour_map": circle}))]
models.append(gas.GasModel(2.0, 128, "ginibre"))
"""


def build_models(gas, conformal):
    circle = conformal.circle_map(1.0)
    out = {}
    for name, spec in MODELS.items():
        kw = {k: v for k, v in spec.items() if k not in ("N", "ensemble")}
        if spec["ensemble"] == "contour":
            kw["contour_map"] = circle
        out[name] = gas.GasModel(BETA, spec["N"], spec["ensemble"], **kw)
    return out


class SamplerWorkload:
    name = "sampler"
    setup_code = SETUP_CODE

    def __init__(self, seed):
        from coulomblab import conformal, gas

        self.gas = gas
        self.seed = seed
        self.models = build_models(gas, conformal)
        self.targets = _mean_targets()
        self.exact = {label: value for targets in self.targets.values()
                      for label, _, value in targets}
        self.exact.update({f"covariance.{k}": v for k, (_, v) in COV_TARGETS.items()})
        # label -> [(mean, se, dof)], one entry per chain or covariance call
        self.estimates = {label: [] for label in self.exact}

    def round_seed(self, r):
        # run_chain uses (seed, chain 0), the covariances (seed + 1, chains
        # 0-7), so no two calls of a run share a Philox stream
        return 2 * (self.seed * 1_000_003 + r) % 2 ** 63

    def warm(self):
        for model in self.models.values():
            self.gas.run_chain(model, 2, 0)

    def round_ops(self, r):
        seed = self.round_seed(r)
        ops = []
        for name, model in self.models.items():
            sweeps = SWEEPS_128 if model.N == 128 else SWEEPS_32
            ops.append(Op(
                f"run_chain.{name}",
                lambda m=model, s=sweeps: self.gas.run_chain(m, s, seed),
                lambda st, n=name, s=sweeps: self.check_chain(n, s, st),
                work=sweeps * model.N))
        for name, (f, _) in COV_TARGETS.items():
            model = self.models[name]
            ops.append(Op(
                f"statistic_covariance.{name}",
                lambda m=model, f=f: self.gas.statistic_covariance(
                    m, f, f, chains=COV_CHAINS, sweeps=COV_SWEEPS, seed=seed + 1),
                lambda out, n=name: self.record_cov(n, out),
                work=COV_CHAINS * COV_SWEEPS * model.N))
        return ops

    def check_chain(self, name, sweeps, state):
        """Per-chain invariants; records the chain's batch-means estimate."""
        model = self.models[name]
        n = model.N
        recorded = sweeps - int(BURN_IN_FRAC * sweeps)
        problems = []
        if state.proposal_count != sweeps * n:
            problems.append(f"{state.proposal_count} proposals, expected {sweeps * n}")
        if not 0 < state.accept_count <= state.proposal_count or abs(
                state.accept_count / state.proposal_count - state.acceptance_rate) > 1e-12:
            problems.append(f"acceptance tallies {state.accept_count}/"
                            f"{state.proposal_count} vs rate {state.acceptance_rate}")
        if state.samples.shape != (recorded, n):
            problems.append(f"samples shape {state.samples.shape}, expected {(recorded, n)}")
        exact_u = model.total_energy(state.positions)
        if abs(state.total_energy - exact_u) > 1e-10 * max(1.0, abs(exact_u)):
            problems.append(f"running energy {state.total_energy!r} vs "
                            f"recomputed {exact_u!r}")
        if problems:
            return False, "; ".join(problems)
        for label, stat, _ in self.targets[name]:
            self.estimates[label].append(checks.batch_means(stat(state.samples)))
        return True, ""

    def record_cov(self, name, out):
        mean, se = out
        if not (math.isfinite(mean) and se > 0):
            return False, f"covariance {mean!r} +- {se!r}"
        self.estimates[f"covariance.{name}"].append((mean, se, COV_CHAINS - 1))
        return True, ""

    def finish(self):
        """Pooled checks of every model's means and covariances."""
        results = []
        for label, ests in self.estimates.items():
            if not ests:
                results.append((label, False, "no chain passed its own checks"))
                continue
            ok, detail = checks.mean_check(*checks.pool(ests), self.exact[label])
            results.append((label, ok, detail))
        return results
