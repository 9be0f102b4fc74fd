"""Metropolis Monte Carlo for planar Coulomb gases and the 1d sinh model,
empirical density and support estimation, exact beta = 2 partition products,
and electrostatic free-energy predictions.

Reproducibility: every random draw comes from a counter-based generator
(Philox) keyed by (seed, chain, sweep) with a zero counter, so a
(model, sweeps, seed) triple reproduces the identical stream regardless of
history.  Chains with different ids are independent.  `run_chains` advances
several chains of one model in lockstep through one kernel, and each chain
ends bit for bit where `run_chain` alone would take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conformal import LaurentMap, green_infinity
from .domains import (
    Annulus2D,
    Ball,
    Ellipse2D,
    Segment1D,
    UniformDomain,
    background_potential,
    interaction_energy,
)
from .specfun import log_gamma

__all__ = [
    "GasModel",
    "ChainState",
    "AsymptoticPrediction",
    "run_chain",
    "run_chains",
    "empirical_density",
    "mean_density_inside",
    "exact_log_partition",
    "log_partition_normalized",
    "free_energy_prediction",
    "free_energy_remainder",
    "statistic_covariance",
    "acceptance_probability",
]


@dataclass(frozen=True)
class GasModel:
    """A Coulomb-gas ensemble: inverse temperature, particle number, and the
    one-body potential variant.

    Ensembles: "ginibre" (planar, |z|^2/2), "elliptic" (tau in [0, 1)),
    "induced" (alpha > 0, extra -alpha N log|z|), "contour" (particles on
    the boundary image of contour_map, no one-body term), "sinh" (1d,
    c x^2 / 2 with -log|2 sinh(pi dx / L)| pairs).
    """

    beta: float
    N: int
    ensemble: str
    tau: float = 0.0
    alpha: float = 0.0
    c: float = 1.0
    L: float = 2.0 * math.pi
    contour_map: LaurentMap = None

    def __post_init__(self):
        if not self.beta > 0 or self.N < 1:
            raise ValueError("GasModel: beta > 0 and N >= 1 required")
        if self.ensemble not in ("ginibre", "elliptic", "induced", "contour", "sinh"):
            raise ValueError(f"GasModel: unknown ensemble {self.ensemble!r}")
        if self.ensemble == "elliptic" and not (0.0 <= self.tau < 1.0):
            raise ValueError("GasModel: tau in [0, 1) required")
        if self.ensemble == "induced" and not self.alpha > 0.0:
            raise ValueError("GasModel: alpha > 0 required")
        if self.ensemble == "sinh" and not (self.c > 0 and self.L > 0):
            raise ValueError("GasModel: c > 0 and L > 0 required")
        if self.ensemble == "contour" and self.contour_map is None:
            raise ValueError("GasModel: contour ensemble needs contour_map")

    @property
    def is_planar(self) -> bool:
        return self.ensemble in ("ginibre", "elliptic", "induced")

    def total_energy(self, positions) -> float:
        pos = np.asarray(positions)
        logd = _log_distance_matrix(self, _points(self, pos))
        return float(np.sum(_one_body(self, pos)) - 0.5 * np.sum(logd))


# The energy of a configuration is sum_i V(z_i) - sum_{i<j} log d(z_i, z_j).
# These two functions are its only definition; every caller below goes
# through them.

def _one_body(model: GasModel, z):
    """One-body energy V, elementwise on a position or an array of them."""
    if model.ensemble == "ginibre":
        return 0.5 * (z.real * z.real + z.imag * z.imag)
    if model.ensemble == "elliptic":
        x2, y2, tau = z.real * z.real, z.imag * z.imag, model.tau
        return (x2 + y2 - tau * (x2 - y2)) / (2.0 * (1.0 - tau * tau))
    if model.ensemble == "induced":
        r = np.abs(z)
        return 0.5 * r * r - model.alpha * model.N * np.log(r)
    if model.ensemble == "sinh":
        return 0.5 * model.c * z * z
    return np.zeros(np.shape(z))


def _log_distance(model: GasModel, a, b):
    """log d(a, b) between points, elementwise: |a - b| in the plane and on
    a contour (whose points are the mapped ones, see `_points`), and
    |2 sinh(pi (a - b) / L)| for the sinh gas."""
    if model.ensemble == "sinh":
        return np.log(np.abs(2.0 * np.sinh(math.pi * (a - b) / model.L)))
    return np.log(np.abs(a - b))


def _points(model: GasModel, coords):
    """The points that pair distances are measured between: the image
    contour_map(e^{i theta}) of contour angles, the positions themselves
    otherwise."""
    if model.ensemble == "contour":
        return model.contour_map.evaluate(np.exp(1j * coords))
    return coords


def _log_distance_matrix(model: GasModel, pts) -> np.ndarray:
    """N x N matrix of log pair distances with a zero diagonal, for each
    configuration along any leading axes of pts."""
    with np.errstate(divide="ignore"):
        logd = _log_distance(model, pts[..., :, None], pts[..., None, :])
    d = np.arange(pts.shape[-1])
    logd[..., d, d] = 0.0
    return logd


_ZERO4 = np.zeros(4, dtype=np.uint64)
# particles per block of a Metropolis sweep (see _lockstep)
_BLOCK = 32
# most log-distance entries, K N^2, that one lockstep group of chains holds
_LOCKSTEP_ENTRIES = 2 ** 20


@dataclass
class ChainState:
    """Final state of a Metropolis chain plus the retained sample stream."""

    positions: np.ndarray
    step_scale: float
    rng_seed: int
    sweep_count: int
    acceptance_rate: float
    total_energy: float
    samples: np.ndarray  # (n_retained, N)
    accept_count: int = 0
    proposal_count: int = 0

    def __post_init__(self):
        if not np.all(np.isfinite(self.positions.view(float))):
            raise ValueError("ChainState: non-finite positions")
        if self.proposal_count:
            rate = self.accept_count / self.proposal_count
            if abs(rate - self.acceptance_rate) > 1e-12:
                raise ValueError("ChainState: acceptance tallies inconsistent")


def _sweep_generator(seed: int, chain: int, sweep: int,
                     gen: np.random.Generator = None) -> np.random.Generator:
    """The Philox generator of one sweep.  Given `gen`, its bit generator is
    re-keyed in place (zero counter, empty buffer) instead, which draws the
    same stream as a new generator at a fraction of the cost."""
    # the (chain, sweep) pair goes into the Philox KEY, not the counter: the
    # counter's low word advances with every generated block, so nearby
    # counter starts would overlap and correlate consecutive sweeps
    if not (0 <= chain < 2 ** 16 and 0 <= sweep < 2 ** 47):
        raise ValueError("_sweep_generator: chain < 2^16 and sweep < 2^47")
    key = np.array([seed & (2 ** 64 - 1), (chain << 48) | sweep], dtype=np.uint64)
    if gen is None:
        return np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _ZERO4, "key": key},
                               "buffer": _ZERO4, "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


def _initial_positions(model: GasModel, seed: int, chain: int) -> np.ndarray:
    gen = _sweep_generator(seed, chain, 2 ** 46)  # reserved init slot
    n = model.N
    if model.ensemble in ("ginibre", "elliptic"):
        u = gen.random(n)
        th = 2.0 * math.pi * gen.random(n)
        r = math.sqrt(n) * np.sqrt(u)
        z = r * np.exp(1j * th)
        if model.ensemble == "elliptic":
            z = z.real * (1.0 + model.tau) + 1j * z.imag * (1.0 - model.tau)
        return z.astype(complex)
    if model.ensemble == "induced":
        u = gen.random(n)
        th = 2.0 * math.pi * gen.random(n)
        r = np.sqrt(n * (model.alpha + u))
        return (r * np.exp(1j * th)).astype(complex)
    if model.ensemble == "sinh":
        half = math.pi * n / (model.c * model.L)
        return (half * (2.0 * gen.random(n) - 1.0)).astype(float)
    # contour: equally spaced angles with a small jitter
    th = 2.0 * math.pi * np.arange(n) / n + 0.1 * gen.random(n) / n
    return th.astype(float)


def _default_step(model: GasModel) -> float:
    if model.is_planar:
        return 1.0
    if model.ensemble == "sinh":
        return 1.0 / math.sqrt(model.beta * model.c)
    return 2.0 * math.pi / model.N


def _proposals(model: GasModel, pos, step, normals) -> np.ndarray:
    """One sweep's Metropolis proposals: particle i moves from pos[..., i]
    to the i-th entry.  Planar moves take normals (2i, 2i + 1) as the real
    and imaginary step, 1d and contour moves normal 2i; contour angles wrap
    to [0, 2 pi).  pos (K, N) and normals (K, 2N) of K chains take their
    steps as step (K, 1)."""
    if model.is_planar:
        return pos + step * (normals[..., 0::2] + 1j * normals[..., 1::2])
    new = pos + step * normals[..., 0::2]
    if model.ensemble == "contour":
        new %= 2.0 * math.pi
    return new


def move_delta(model: GasModel, positions, i: int, proposal) -> float:
    """Energy change of moving particle i to the proposal; O(N)."""
    pos = np.asarray(positions)
    pts = _points(model, pos)
    others = np.delete(pts, i)
    with np.errstate(divide="ignore", invalid="ignore"):
        dpair = -float(np.sum(_log_distance(model, others, _points(model, proposal)))
                       - np.sum(_log_distance(model, others, pts[i])))
        du = dpair + float(_one_body(model, proposal) - _one_body(model, pos[i]))
    if not math.isfinite(du):
        raise OverflowError("move_delta: non-finite energy change")
    return du


def acceptance_probability(model: GasModel, positions, i: int, proposal):
    """Metropolis acceptance probability and the energy change."""
    du = move_delta(model, positions, i, proposal)
    return min(1.0, math.exp(-model.beta * du)), du


def run_chain(model: GasModel, sweeps: int, seed: int, chain: int = 0,
              record_every: int = 1) -> ChainState:
    """Run a single-particle Metropolis chain and return the final state plus
    the retained sample stream (one configuration per recorded sweep, after
    burn-in).  This is `run_chains` with the one chain id `chain`.

    The step scale adapts toward an acceptance rate of 0.35 during burn-in
    (the first 20% of the sweeps) and is then frozen, preserving detailed
    balance over the measurement sweeps.
    Identical (model, sweeps, seed, chain) reproduce identical output.

    The kernel (`_lockstep`) visits a sweep's particles in blocks of at
    most _BLOCK and finds a block's accept/reject decisions at once, as the
    fixed point of a triangular solve: with u the block's uniforms, the
    accept vector a satisfies a = [base + L a <= -log(u) / beta], where base
    holds each proposal's energy change against the start of the block and
    L the changes that earlier acceptances of the block make to it.
    """
    return run_chains(model, sweeps, seed, [chain], record_every=record_every)[0]


def run_chains(model: GasModel, sweeps: int, seed: int, chains,
               record_every: int = 1) -> list:
    """Run the Metropolis chains with ids `chains` in lockstep and return
    their ChainStates in that order.  Each chain draws from its own Philox
    streams (seed, chain, sweep) and adapts its own step, so chain c's state
    is bit for bit the one `run_chain(..., chain=c)` returns.

    The chains advance in groups whose log-distance matrices hold at most
    _LOCKSTEP_ENTRIES entries between them (at least one chain per group).
    """
    if not (1 <= sweeps < 2 ** 46):
        raise ValueError("run_chain: need 1 <= sweeps < 2^46")
    if record_every < 1:
        raise ValueError("run_chain: need record_every >= 1")
    chains = [int(c) for c in chains]
    group = max(1, _LOCKSTEP_ENTRIES // (model.N * model.N))
    states = []
    for g0 in range(0, len(chains), group):
        states += _lockstep(model, sweeps, seed, chains[g0:g0 + group],
                            record_every)
    return states


def _accept(base, tri, t):
    """The accept vectors a = [base + tri a <= t] of K blocks, tri (K, B, B)
    strictly lower triangular, and their energy changes base + tri a.
    Starting from a = [base <= t], each pass fixes at least one more row;
    the solve stops when a pass changes nothing.  Each row's sum runs in
    one einsum loop of its own, so a chain's result does not depend on the
    other chains beside it."""
    acc = base <= t
    while True:
        du = base + np.einsum("kij,kj->ki", tri, acc.astype(float))
        nxt = du <= t
        if nxt.tobytes() == acc.tobytes():
            return du, acc
        acc = nxt


def _lockstep(model, sweeps, seed, chains, record_every) -> list:
    """The Metropolis kernel: K chains of one model, advanced together.

    Its state has a leading chain axis: positions (K, N) and the matrix of
    log pair distances (K, N, N).  A sweep visits its particles in blocks
    of at most _BLOCK.  Every proposal of a sweep is drawn up front, so a
    block I = [b0, b1) computes its pair terms at once: with p the current
    points, q the proposals and O the stored rows of I, A = log d(q_I, p)
    and Bq = log d(q_I, q_I), both zero on each particle's own entry.
    Proposal i then changes the energy by
        du_i = base_i + sum_{j < i accepted} K[i, j],
        base_i = -sum_j (A - O)[i, j] + V(q_i) - V(p_i),
        K = -(Bq - A_II - A_II^T + O_II),
    where K swaps particle j's old position for its new one in row i.  With
    t_i = -log(u_i) / beta, proposal i is accepted iff du_i <= t_i, so the
    block's accept vector a solves the triangular fixed point
    a = [base + L a <= t], L the strict lower triangle of K (`_accept`).
    Any non-finite energy change raises OverflowError, as does a proposal
    onto one accepted earlier in its block.  The accepted rows and columns
    are written back from A, with Bq between particles accepted in the
    same block, so the write-back takes no new log.  N <= _BLOCK is one
    block.
    """
    n = model.N
    nc = len(chains)
    beta = model.beta
    pos = np.stack([_initial_positions(model, seed, c) for c in chains])
    pts = _points(model, pos)
    logd = _log_distance_matrix(model, pts)
    one_body = _one_body(model, pos)
    total_u = np.array([model.total_energy(p) for p in pos])
    step = np.full(nc, _default_step(model))
    burn_in = int(0.2 * sweeps)
    # sweeps s >= burn_in with (s - burn_in) % record_every == 0 are kept
    recorded = len(range(max(burn_in, burn_in % record_every), sweeps, record_every))
    samples = np.empty((nc, recorded, n), dtype=pos.dtype)
    kept = 0
    accepts = np.zeros(nc, dtype=np.int64)
    window_start = accepts.copy()  # accepts before the adaptation window
    window_size = 50
    gen = None
    normals = np.empty((nc, 2 * n))
    unifs = np.empty((nc, n))
    width = min(n, _BLOCK)
    diag = np.arange(width)  # local indices of a full block
    lower = np.tri(width, k=-1, dtype=bool)

    # log 0 on the diagonals of A and Bq is overwritten; any other infinity
    # is settled at the block's solve below
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(sweeps):
            for k, chain in enumerate(chains):
                gen = _sweep_generator(seed, chain, sweep, gen)
                gen.standard_normal(out=normals[k])
                gen.random(out=unifs[k])
            thresholds = np.log(unifs, out=unifs)  # t = -log(u) / beta
            thresholds /= -beta
            measuring = sweep >= burn_in
            # particle i is still at its start-of-sweep position when
            # visited, so the whole sweep's proposals are known up front
            new = _proposals(model, pos, step[:, None], normals)
            new_pts = _points(model, new)
            new_one_body = _one_body(model, new)
            dv = new_one_body - one_body
            for b0 in range(0, n, _BLOCK):
                b1 = min(b0 + _BLOCK, n)
                d = diag[: b1 - b0]
                q = new_pts[:, b0:b1, None]
                a = _log_distance(model, q, pts[:, None, :])
                a[:, d, b0 + d] = 0.0
                bq = _log_distance(model, q, new_pts[:, None, b0:b1])
                bq[:, d, d] = 0.0
                o = logd[:, b0:b1]
                a_ii = a[:, :, b0:b1]
                base = dv[:, b0:b1] - (a - o).sum(axis=2)
                tri = a_ii + a_ii.swapaxes(1, 2)
                tri -= bq
                tri -= o[:, :, b0:b1]
                tri = np.where(lower[: b1 - b0, : b1 - b0], tri, 0.0)
                t = thresholds[:, b0:b1]
                du, acc = _accept(base, tri, t)
                if not np.isfinite(du).all():
                    # an infinite entry of tri (a proposal on top of
                    # another's) counts only where that other proposal is
                    # accepted: zero it, so no inf * 0, and solve again
                    bad = ~np.isfinite(tri)
                    tri[bad] = 0.0
                    du, acc = _accept(base, tri, t)
                    if not np.isfinite(du).all() or (bad & acc[:, None, :]).any():
                        raise OverflowError("run_chain: non-finite log-weight")
                # accepted rows and columns of logd from A, with Bq between
                # particles accepted together (the column write lands last)
                np.copyto(a_ii, bq, where=acc[:, None, :])
                kk, ii = np.nonzero(acc)
                idx = b0 + ii
                rows = a[kk, ii]
                logd[kk, idx] = rows
                logd[kk, :, idx] = rows
                np.copyto(pos[:, b0:b1], new[:, b0:b1], where=acc)
                if pts is not pos:  # off the contour the points are pos
                    np.copyto(pts[:, b0:b1], new_pts[:, b0:b1], where=acc)
                np.copyto(one_body[:, b0:b1], new_one_body[:, b0:b1], where=acc)
                accepts += np.bincount(kk, minlength=nc)
                total_u += np.add.reduce(du, axis=1, where=acc)
            if not measuring and (sweep + 1) % window_size == 0:
                for k in range(nc):
                    rate = int(accepts[k] - window_start[k]) / (window_size * n)
                    step[k] *= math.exp(rate - 0.35)
                window_start = accepts.copy()
            if measuring and (sweep - burn_in) % record_every == 0:
                samples[:, kept] = pos
                kept += 1

    proposals = sweeps * n
    return [ChainState(
        positions=pos[k],
        step_scale=float(step[k]),
        rng_seed=seed,
        sweep_count=sweeps,
        acceptance_rate=int(accepts[k]) / proposals,
        total_energy=float(total_u[k]),
        samples=samples[k],
        accept_count=int(accepts[k]),
        proposal_count=proposals,
    ) for k in range(nc)]


# -------------------------------------------------------- density estimation

def empirical_density(samples, bins: int = 60, kind: str = "radial") -> dict:
    """Normalized density histogram and support estimates from retained
    planar configurations (shape (n_configs, N)).

    The returned `edge_radius` is the disk-calibrated mass-scaling estimator
    sqrt(2 median(|z|^2)), which is unbiased for a uniform disk; the raw
    outer-quantile radius (0.5% of mass outside) is reported alongside as
    `outer_radius`, and `inner_radius` bounds any central hole.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] < 10 ** 3:
        raise ValueError("empirical_density: need >= 1e3 retained configurations")
    n_configs, n_particles = samples.shape
    radii = np.abs(samples).ravel()
    outer = float(np.quantile(radii, 0.995))
    inner = float(np.quantile(radii, 0.005))
    edge = math.sqrt(2.0 * float(np.quantile(radii ** 2, 0.5)))
    if kind == "radial":
        hist, edges = np.histogram(radii, bins=bins, range=(0.0, outer * 1.1))
        mids = 0.5 * (edges[1:] + edges[:-1])
        width = edges[1] - edges[0]
        density = hist / (n_configs * 2.0 * math.pi * mids * width)
        return {"bin_edges": edges, "bin_centers": mids, "density": density,
                "outer_radius": outer, "inner_radius": inner,
                "edge_radius": edge, "n_configs": n_configs,
                "n_particles": n_particles}
    if kind == "planar":
        pts = samples.ravel()
        lim = outer * 1.1
        hist, xe, ye = np.histogram2d(pts.real, pts.imag, bins=bins,
                                      range=[[-lim, lim], [-lim, lim]])
        cell = (xe[1] - xe[0]) * (ye[1] - ye[0])
        return {"x_edges": xe, "y_edges": ye,
                "density": hist / (n_configs * cell),
                "outer_radius": outer, "inner_radius": inner,
                "edge_radius": edge, "n_configs": n_configs,
                "n_particles": n_particles}
    raise ValueError(f"empirical_density: unknown kind {kind!r}")


def mean_density_inside(samples, radius: float) -> float:
    """Average particle density (per unit area) inside |z| < radius."""
    samples = np.asarray(samples)
    count = float(np.mean(np.sum(np.abs(samples) < radius, axis=1)))
    return count / (math.pi * radius ** 2)


# ---------------------------------------------------- exact partition values

def exact_log_partition(model: GasModel) -> float:
    """log of the exact beta = 2 configuration integral: the printed
    normalization product, whose N! placement differs across ensembles.  The
    induced and sinh products carry the N! factor; the ginibre and elliptic
    products do not."""
    if model.beta != 2.0:
        raise ValueError("exact_log_partition: beta = 2 ensembles only")
    n = model.N
    if model.ensemble == "ginibre":
        return n * math.log(math.pi) + sum(log_gamma(j + 1.0) for j in range(n))
    if model.ensemble == "elliptic":
        return n * math.log(math.pi) + 0.5 * n * math.log(1.0 - model.tau ** 2) \
            + sum(log_gamma(j + 1.0) for j in range(n))
    if model.ensemble == "induced":
        return log_gamma(n + 1.0) + n * math.log(math.pi) \
            + sum(log_gamma(model.alpha * n + j) for j in range(1, n + 1))
    if model.ensemble == "sinh":
        g = 2.0 * math.pi ** 2 / (model.c * model.L ** 2)
        q = math.exp(-g)
        tail = sum((n - j) * math.log1p(-q ** j) for j in range(1, n))
        return 0.5 * n * math.log(math.pi / model.c) + log_gamma(n + 1.0) \
            + g * n * (n * n - 1.0) / 6.0 + tail
    raise ValueError(f"exact_log_partition: unsupported ensemble {model.ensemble!r}")


def log_partition_normalized(model: GasModel) -> float:
    """log[(1/N!) Z_N]: the printed product with the 1/N! convention fixed."""
    return exact_log_partition(model) - log_gamma(model.N + 1.0)


# -------------------------------------------------------------- predictions

@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading coefficients of the free-energy expansion: keys among
    "N3", "N2logN", "N2", "NlogN"."""

    coefficients: dict

    _TERMS = {
        "N3": lambda n: n ** 3,
        "N2logN": lambda n: n * n * math.log(n),
        "N2": lambda n: n * n,
        "NlogN": lambda n: n * math.log(n),
    }

    def evaluate(self, n: int) -> float:
        return sum(c * self._TERMS[k](n) for k, c in self.coefficients.items())


def _electrostatic_constant(model: GasModel, n: int) -> float:
    """The configuration-independent part of beta(U_pb + U_bb) for the
    background domain matching the ensemble's one-body potential V, at n
    particles: U_bb plus n times the constant gap between the background
    potential and V on the support, read at the origin (on the outer circle
    for the annulus, since the induced V is singular at the origin)."""
    rn, z0 = math.sqrt(n), 0.0
    if model.ensemble == "ginibre":
        geo = Ball(2, rn)
    elif model.ensemble == "elliptic":
        geo = Ellipse2D(rn * (1.0 + model.tau), rn * (1.0 - model.tau))
    elif model.ensemble == "induced":
        geo = Annulus2D(math.sqrt((1.0 + model.alpha) * n),
                        math.sqrt(model.alpha / (1.0 + model.alpha)))
        z0 = geo.R
    elif model.ensemble == "sinh":
        geo = Segment1D(math.pi * n / (model.c * model.L))
    else:
        raise ValueError(f"no electrostatic constant for {model.ensemble!r}")
    dom = UniformDomain(geo, float(n))
    const_v = background_potential(dom, [z0, 0.0][:geo.dim]) \
        - float(_one_body(replace(model, N=n), z0))
    total = interaction_energy(dom, []) + n * const_v
    return (math.pi / model.L) * total if model.ensemble == "sinh" else total


def free_energy_prediction(model: GasModel) -> AsymptoticPrediction:
    """Structured coefficients of the predicted log[(1/N!) Z_N] expansion.

    For the background ensembles the coefficients are extracted exactly from
    the electrostatic constants of the matching uniform domain; the contour
    ensemble uses the Robin constant of its map.
    """
    if model.ensemble == "contour":
        _, _, robin = green_infinity(model.contour_map,
                                     model.contour_map.evaluate(2.0))
        return AsymptoticPrediction(
            {"N2logN": -model.beta / 2.0,
             "N2": -model.beta / 2.0 * robin,
             "NlogN": model.beta / 2.0 - 1.0})
    if model.ensemble == "sinh":
        keys = ["N3", "NlogN"]
    else:
        keys = ["N2logN", "N2"]
    # exact extraction: beta * K(N) lies in the span of the fitted terms
    ns = (16, 32, 64, 128)[: len(keys) + 2]
    rows = []
    rhs = []
    for n in ns[: len(keys)]:
        rows.append([AsymptoticPrediction._TERMS[k](n) for k in keys])
        target = model.beta * _electrostatic_constant(model, n)
        if model.ensemble == "sinh":
            target += n * math.log(n)  # the N log N entropy term as printed
        rhs.append(target)
    coef = np.linalg.solve(np.array(rows), np.array(rhs))
    coeffs = {k: float(c) for k, c in zip(keys, coef)}
    return AsymptoticPrediction(coeffs)


def free_energy_remainder(model: GasModel, n: int) -> float:
    """r(N) = [log((1/N!) Z_N) - prediction(N)] / N^2 for the planar
    background ensembles (the sinh prediction targets log Q_N itself, whose
    N log N term comes from Stirling and would cancel here)."""
    if model.ensemble not in ("ginibre", "elliptic", "induced"):
        raise ValueError("free_energy_remainder: planar background ensembles only")
    scaled = replace(model, N=n)
    pred = free_energy_prediction(scaled)
    return (log_partition_normalized(scaled) - pred.evaluate(n)) / n ** 2


# ------------------------------------------------------- covariance sampling

def statistic_covariance(model: GasModel, f, g, chains: int = 4,
                         sweeps: int = 20000, seed: int = 1,
                         record_every: int = 1):
    """Across-chain estimate of Cov(sum f(z_j), sum g(z_j)) with a standard
    error from independent chains.

    f and g act elementwise: each is called once on a chain's whole
    (samples, N) array of positions (a constant result is broadcast).

    The estimate is the pooled var+ form of Gelman-Rubin (Vehtari et al.,
    Bayesian Analysis 2021), taken per chain so that the chains also give
    its standard error: with K chains of n samples, chain means m_k and
    grand means F, G,
        c_k = (n - 1)/n W_k + (m_k^f - F)(m_k^g - G) K/(K - 1),
    where W_k is chain k's covariance (ddof 1).  Centring each chain on its
    own mean alone reads low by the variance of a chain mean, ~tau_int/n.
    """
    if chains < 4:
        raise ValueError("statistic_covariance: chains >= 4 required")
    sums = []
    for state in run_chains(model, sweeps, seed, range(chains),
                            record_every=record_every):
        s = state.samples
        sums.append((np.broadcast_to(f(s), s.shape).sum(axis=1),
                     np.broadcast_to(g(s), s.shape).sum(axis=1)))
    fs, gs = (np.array(x) for x in zip(*sums))
    mf, mg = fs.mean(axis=1), gs.mean(axis=1)
    within = np.mean((fs - mf[:, None]) * (gs - mg[:, None]), axis=1)
    covs = within + (mf - mf.mean()) * (mg - mg.mean()) * chains / (chains - 1)
    return float(np.mean(covs)), float(np.std(covs, ddof=1) / math.sqrt(chains))
