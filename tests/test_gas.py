import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from coulomblab import gas
from coulomblab._quad import adaptive_1d
from coulomblab.conformal import circle_map, ellipse_map
from coulomblab.gas import (
    ChainState,
    GasModel,
    acceptance_probability,
    empirical_density,
    exact_log_partition,
    free_energy_prediction,
    free_energy_remainder,
    log_partition_normalized,
    mean_density_inside,
    run_chain,
    run_chains,
    statistic_covariance,
)
from coulomblab.gas import _sweep_generator


# ----------------------------------------------------------------- mechanics

def test_model_validation():
    with pytest.raises(ValueError):
        GasModel(2.0, 0, "ginibre")
    with pytest.raises(ValueError):
        GasModel(2.0, 4, "elliptic", tau=1.0)
    with pytest.raises(ValueError):
        GasModel(2.0, 4, "nonsense")
    with pytest.raises(ValueError):
        GasModel(2.0, 4, "contour")


def test_determinism_bit_for_bit():
    model = GasModel(2.0, 8, "ginibre")
    a = run_chain(model, 400, seed=21)
    b = run_chain(model, 400, seed=21)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.samples, b.samples)
    assert a.total_energy == b.total_energy
    c = run_chain(model, 400, seed=22)
    assert not np.array_equal(a.positions, c.positions)


# (name, model, run_chain kwargs, sha256 of positions + samples bytes,
# accept_count, step_scale, total_energy).  The digests pin the Philox
# streams and every accept/reject decision: a refactor of the kernel that
# changes either one fails here, not just a run-twice comparison.
GOLDEN_CHAINS = [
    ("ginibre8", GasModel(2.0, 8, "ginibre"), dict(sweeps=300, seed=31),
     "4b2dce06c900c725b1ae6ec2808a92cd0042ed53f72dabffc17b202918f64f0e",
     1042, 1.1647424620946143, -10.163804507839721),
    ("elliptic", GasModel(2.0, 8, "elliptic", tau=0.5), dict(sweeps=300, seed=32),
     "c1d829c0748d992a69082cf5fd262e1f39041f4b464ddd061d438c0f9e2480d8",
     961, 1.0512710963760241, -8.060909470872149),
    ("induced", GasModel(2.0, 8, "induced", alpha=1.0), dict(sweeps=300, seed=33),
     "ead849760ba1a36f2f687ace1b305b46a6e01a6a4cf140743d1dcd09a275126e",
     1074, 1.135984868241162, -70.85625051217475),
    ("sinh", GasModel(2.0, 8, "sinh", c=1.0, L=2 * math.pi), dict(sweeps=300, seed=34),
     "c618433479a0c2c9914684637f5d48af34b4777711fcaf32a7c75d06f9561bf4",
     1304, 0.8921922967855923, -15.172172511103193),
    ("contour", GasModel(2.0, 8, "contour", contour_map=ellipse_map(2.0, 1.0)),
     dict(sweeps=300, seed=35),
     "86644a6de35068726fc603c84cf8bd27aa9bb53f0cc6cdad740e78330056d636",
     1010, 0.8877505609591481, -17.94615095385542),
    ("ginibre1", GasModel(2.0, 1, "ginibre"), dict(sweeps=300, seed=36),
     "73e4b792299cb9ebb2947d3fe23633ed38febf5e72a7cf7345ddfde807940ada",
     115, 1.161834242728283, 0.056077445974295426),
    ("every2", GasModel(2.0, 8, "ginibre"),
     dict(sweeps=300, seed=37, chain=3, record_every=2),
     "4b60a451713e8d6b9f5ee4eee793d4cb73733a899614bbc2b5e877db317b07f1",
     1059, 1.1560395702680217, -10.591789844821754),
]


def test_chain_streams_golden():
    for name, model, kw, digest, accepts, step, energy in GOLDEN_CHAINS:
        st = run_chain(model, **kw)
        got = hashlib.sha256(st.positions.tobytes() + st.samples.tobytes())
        assert got.hexdigest() == digest, name
        assert st.accept_count == accepts, name
        assert st.step_scale == step, name
        assert abs(st.total_energy - energy) <= 1e-12 * abs(energy), name
    f = lambda z: z.real
    est, stderr = statistic_covariance(GasModel(2.0, 4, "ginibre"), f, f,
                                       chains=4, sweeps=300, seed=8)
    assert abs(est - 2.0095806591603393) <= 1e-12 * 2.0095806591603393
    assert abs(stderr - 0.2249886320447172) <= 1e-12 * 0.2249886320447172


# The same digests for chains longer than one 32-particle block of the
# kernel: a trailing one-particle block (N = 33), blocks of 32, 32 and 16
# (N = 80), and the sinh and contour distances across a block boundary.
GOLDEN_BLOCK_CHAINS = [
    ("ginibre33", GasModel(2.0, 33, "ginibre"), dict(sweeps=300, seed=41),
     "8ef21cdae7cc63dc07f942632840fb5805d71dee7498e149036e2c4f0d2f3a7b",
     4569, 1.1122262488885104, -546.4483410677318),
    ("ginibre80", GasModel(2.0, 80, "ginibre"), dict(sweeps=300, seed=42),
     "31edf0856911cc1424c7c3ee13a87e30f00a91a06267fd98f6fc11ea134d1aa1",
     11348, 1.158933284829751, -4618.118287939137),
    ("sinh40", GasModel(2.0, 40, "sinh", c=1.0, L=2 * math.pi),
     dict(sweeps=300, seed=43),
     "d88772ac5b5d9c06544b975dcdab00a72512d7181197c94cbda8fffb54f24330",
     5949, 0.858066574128469, -2630.975894134211),
    ("contour40", GasModel(2.0, 40, "contour", contour_map=ellipse_map(2.0, 1.0)),
     dict(sweeps=300, seed=44),
     "2b124ea99091c51a912064d240a1ca4883e3130e307f8864b3b61179abbb1505",
     5217, 0.17455727150761696, -384.2916198297432),
]


def test_chain_streams_golden_blocks():
    for name, model, kw, digest, accepts, step, energy in GOLDEN_BLOCK_CHAINS:
        st = run_chain(model, **kw)
        got = hashlib.sha256(st.positions.tobytes() + st.samples.tobytes())
        assert got.hexdigest() == digest, name
        assert st.accept_count == accepts, name
        assert st.step_scale == step, name
        assert abs(st.total_energy - energy) <= 1e-12 * abs(energy), name


LOCKSTEP_MODELS = [
    GasModel(2.0, 80, "ginibre"),
    GasModel(2.0, 80, "elliptic", tau=0.5),
    GasModel(2.0, 80, "induced", alpha=1.0),
    GasModel(2.0, 80, "sinh", c=1.0, L=2 * math.pi),
    GasModel(2.0, 80, "contour", contour_map=ellipse_map(2.0, 1.0)),
]


def _same_state(a, b):
    return (np.array_equal(a.positions, b.positions)
            and np.array_equal(a.samples, b.samples)
            and a.samples.shape == b.samples.shape
            and a.accept_count == b.accept_count
            and a.step_scale == b.step_scale
            and a.total_energy == b.total_energy)


def test_run_chains_match_run_chain():
    # lockstep chains give each chain its own run bit for bit: blocks of
    # 32, 32 and 16, one adaptation window (250 sweeps), record_every = 2
    # and chain ids out of order
    ids = [5, 0, 3]
    for model in LOCKSTEP_MODELS:
        kw = dict(sweeps=250, seed=51, record_every=2)
        together = run_chains(model, chains=ids, **kw)
        assert len(together) == len(ids)
        for chain, state in zip(ids, together):
            alone = run_chain(model, chain=chain, **kw)
            assert _same_state(state, alone), (model.ensemble, chain)
        assert together[0].step_scale != together[1].step_scale, model.ensemble


def test_run_chains_bounded_groups_match_one_group(monkeypatch):
    # 8 chains of N = 8 in groups of at most 3 (3, 3, 2) give the states of
    # one group of 8
    model = GasModel(2.0, 8, "ginibre")
    one = run_chains(model, 260, 61, range(8))
    calls = []
    lockstep = gas._lockstep

    def counted(model, sweeps, seed, chains, *args):
        calls.append(list(chains))
        return lockstep(model, sweeps, seed, chains, *args)

    monkeypatch.setattr(gas, "_LOCKSTEP_ENTRIES", 3 * 8 * 8)
    monkeypatch.setattr(gas, "_lockstep", counted)
    grouped = run_chains(model, 260, 61, range(8))
    assert calls == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert all(_same_state(a, b) for a, b in zip(one, grouped))


def test_proposal_at_induced_origin_raises(monkeypatch):
    proposals = gas._proposals

    def at_origin(model, pos, step, normals):
        new = proposals(model, pos, step, normals)
        new[..., 0] = 0.0
        return new

    monkeypatch.setattr(gas, "_proposals", at_origin)
    model = GasModel(2.0, 8, "induced", alpha=1.0)
    with pytest.raises(OverflowError):
        run_chain(model, 5, seed=1)
    with pytest.raises(OverflowError):
        run_chains(model, 5, 1, [0, 1, 2])


def test_infinite_entry_of_rejected_proposal_is_ignored(monkeypatch):
    # particles 0 and 1 are both proposed at z = 1000, so K[1, 0] =
    # -log|q_1 - q_0| = +inf; particle 0 is rejected (V = 5e5), and the
    # solve must leave that entry out, not turn inf * 0 into a raise
    proposals = gas._proposals
    far = {"on": True}

    def coincide(model, pos, step, normals):
        new = proposals(model, pos, step, normals)
        new[..., :2] = 1000.0 if far["on"] else pos[..., :1] + 1e-9
        return new

    monkeypatch.setattr(gas, "_proposals", coincide)
    model = GasModel(2.0, 8, "ginibre")
    start = gas._initial_positions(model, 2, 0)
    for states in ([run_chain(model, 20, seed=2)], run_chains(model, 20, 2, [0, 1])):
        for state in states:
            assert np.isfinite(state.total_energy)
        assert np.array_equal(states[0].positions[:2], start[:2])
    # particle 0 moved by 1e-9 is accepted, and particle 1 proposed on top
    # of it raises through the same infinite entry
    far["on"] = False
    with pytest.raises(OverflowError):
        run_chain(model, 20, seed=2)


def test_sweep_generator_rekey_matches_fresh():
    # run_chain re-keys one generator per sweep; after any mix of draws it
    # must give the stream of a generator built for that sweep
    gen = _sweep_generator(5, 3, 0)
    for sweep in (1, 2, 2 ** 46, 7):
        gen.standard_normal(5)
        gen.random(3)
        gen = _sweep_generator(5, 3, sweep, gen)
        fresh = _sweep_generator(5, 3, sweep)
        assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))
        assert np.array_equal(gen.random(4), fresh.random(4))
    with pytest.raises(ValueError):
        _sweep_generator(5, 3, 2 ** 47, gen)


def test_acceptance_rate_sane_and_consistent():
    for model in (GasModel(2.0, 8, "ginibre"),
                  GasModel(2.0, 8, "elliptic", tau=0.5),
                  GasModel(2.0, 8, "induced", alpha=1.0),
                  GasModel(2.0, 8, "sinh", c=1.0, L=2 * math.pi),
                  GasModel(2.0, 8, "contour", contour_map=circle_map(1.0))):
        st = run_chain(model, 600, seed=3)
        assert 0.0 < st.acceptance_rate < 1.0
        assert st.accept_count == round(st.acceptance_rate * st.proposal_count)


def test_energy_bookkeeping():
    for model in (GasModel(2.0, 10, "ginibre"),
                  GasModel(2.0, 6, "sinh", c=1.0, L=2 * math.pi),
                  GasModel(2.0, 6, "contour", contour_map=circle_map(1.0))):
        st = run_chain(model, 1000, seed=9)
        recomputed = model.total_energy(st.positions)
        assert abs(recomputed - st.total_energy) <= 1e-8 * max(1.0, abs(recomputed))


def test_detailed_balance_ratio_identity():
    model = GasModel(2.0, 16, "ginibre")
    st = run_chain(model, 100, seed=5)
    pos = st.positions
    rng = np.random.default_rng(0)
    for _ in range(500):
        i = int(rng.integers(model.N))
        prop = pos[i] + 0.8 * complex(rng.standard_normal(), rng.standard_normal())
        a_f, du = acceptance_probability(model, pos, i, prop)
        back = pos.copy()
        back[i] = prop
        a_r, _ = acceptance_probability(model, back, i, pos[i])
        assert abs(a_f / a_r - math.exp(-model.beta * du)) < 1e-12


def test_single_particle_gaussian_moment():
    model = GasModel(2.0, 1, "ginibre")
    st = run_chain(model, 60000, seed=3)
    r2 = np.abs(st.samples) ** 2
    mean = float(np.mean(r2))
    batches = r2.reshape(60, -1).mean(axis=1)
    stderr = float(np.std(batches, ddof=1) / math.sqrt(len(batches)))
    assert abs(mean - 1.0) < 3.5 * stderr


def test_overflow_guard():
    model = GasModel(2.0, 2, "induced", alpha=1.0)
    with pytest.raises((OverflowError, ValueError)):
        # particle exactly at the origin makes the log-weight non-finite
        acceptance_probability(model, np.array([1.0 + 0j, 2.0 + 0j]), 0, 0.0 + 0.0j)


def test_chain_state_tally_validation():
    with pytest.raises(ValueError):
        ChainState(np.array([1.0 + 0j]), 1.0, 0, 1, 0.9, 0.0,
                   np.zeros((1, 1), dtype=complex), accept_count=1,
                   proposal_count=10)


# ---------------------------------------------------------- density/support

def test_empirical_density_requires_samples():
    with pytest.raises(ValueError):
        empirical_density(np.zeros((10, 4), dtype=complex))


def test_empirical_density_and_edge_small_run():
    model = GasModel(2.0, 16, "ginibre")
    st = run_chain(model, 12000, seed=17)
    rep = empirical_density(st.samples)
    assert abs(rep["edge_radius"] - 4.0) / 4.0 < 0.08
    # density near the centre within 20% of 1/pi for this smaller run
    mask = (rep["bin_centers"] > 0.2 * 4.0) & (rep["bin_centers"] < 0.7 * 4.0)
    assert np.all(np.abs(rep["density"][mask] * math.pi - 1.0) < 0.2)
    planar = empirical_density(st.samples, kind="planar", bins=24)
    assert planar["density"].shape == (24, 24)


def test_elliptic_axis_ratio():
    # second moments of a uniform ellipse give the semi-axes without the
    # soft-edge bias of quantile estimators: <x^2>/<y^2> = (A/B)^2
    tau = 0.5
    model = GasModel(2.0, 32, "elliptic", tau=tau)
    st = run_chain(model, 20000, seed=19, record_every=2)
    pts = st.samples.ravel()
    ratio = math.sqrt(np.mean(pts.real ** 2) / np.mean(pts.imag ** 2))
    assert abs(ratio - 3.0) / 3.0 < 0.10  # (1+tau)/(1-tau) = 3


def test_induced_center_hole_small_run():
    model = GasModel(2.0, 16, "induced", alpha=1.0)
    st = run_chain(model, 15000, seed=23)
    dens = mean_density_inside(st.samples, 0.9 * math.sqrt(16.0))
    assert dens < 0.05 / math.pi


# --------------------------------------------------------- exact partitions

def test_exact_partition_examples():
    assert abs(exact_log_partition(GasModel(2.0, 2, "ginibre"))
               - 2.0 * math.log(math.pi)) < 1e-12
    assert abs(exact_log_partition(GasModel(2.0, 1, "sinh", c=2.0))
               - 0.5 * math.log(math.pi / 2.0)) < 1e-12
    with pytest.raises(ValueError):
        exact_log_partition(GasModel(1.0, 4, "ginibre"))


def test_elliptic_partition_n2():
    tau = 0.4
    val = exact_log_partition(GasModel(2.0, 2, "elliptic", tau=tau))
    assert abs(val - (2 * math.log(math.pi) + math.log(1 - tau ** 2))) < 1e-12


def test_induced_reduces_to_ginibre_product():
    # alpha N integer: C_{n,N} = N! pi^N prod (alpha N + j - 1)!; at n = N
    # (alpha -> 0 limit) the product collapses to the ginibre one.  Check the
    # printed structure at alpha = 1, N = 3 by direct evaluation.
    n = 3
    val = exact_log_partition(GasModel(2.0, n, "induced", alpha=1.0))
    direct = math.log(math.factorial(n)) + n * math.log(math.pi) + sum(
        math.log(math.factorial(n + j - 1)) for j in range(1, n + 1))
    assert abs(val - direct) < 1e-12


def test_sinh_partition_against_quadrature_n2():
    # 2d adaptive quadrature of the configuration integral at (c, L) = (1, 2pi)
    c_par, length = 1.0, 2.0 * math.pi
    model = GasModel(2.0, 2, "sinh", c=c_par, L=length)
    exact = math.exp(exact_log_partition(model))

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
    assert abs(quad - exact) < 1e-8 * max(1.0, exact)


# -------------------------------------------------------------- predictions

def test_prediction_coefficients():
    pred = free_energy_prediction(GasModel(2.0, 32, "ginibre"))
    assert abs(pred.coefficients["N2logN"] - 0.5) < 1e-10
    assert abs(pred.coefficients["N2"] + 0.75) < 1e-10

    alpha = 1.0
    pred_i = free_energy_prediction(GasModel(2.0, 32, "induced", alpha=alpha))
    expect_n2 = (1 + alpha) ** 2 / 2 * math.log(1 + alpha) \
        - alpha ** 2 / 2 * math.log(alpha) - 0.75 - 1.5 * alpha
    assert abs(pred_i.coefficients["N2logN"] - (alpha + 0.5)) < 1e-9
    assert abs(pred_i.coefficients["N2"] - expect_n2) < 1e-9


def test_contour_prediction_unit_circle():
    model = GasModel(2.0, 16, "contour", contour_map=circle_map(1.0))
    pred = free_energy_prediction(model)
    assert abs(pred.coefficients["N2logN"] + 1.0) < 1e-12
    assert abs(pred.coefficients["N2"]) < 1e-12
    assert abs(pred.coefficients["NlogN"]) < 1e-12


def test_sinh_prediction_cubic_coefficient():
    c_par, length = 1.0, 2.0 * math.pi
    model = GasModel(2.0, 8, "sinh", c=c_par, L=length)
    pred = free_energy_prediction(model)
    target = math.pi ** 2 * model.beta / (6.0 * c_par * length ** 2)
    assert abs(pred.coefficients["N3"] - target) < 1e-12


def test_free_energy_remainders_converge():
    for ens, kw in (("ginibre", {}), ("elliptic", {"tau": 0.5}),
                    ("induced", {"alpha": 1.0})):
        model = GasModel(2.0, 8, ens, **kw)
        r50 = free_energy_remainder(model, 50)
        r200 = free_energy_remainder(model, 200)
        assert abs(r200) <= 0.05
        assert abs(r200) < abs(r50)


def test_normalized_partition_consistency():
    model = GasModel(2.0, 5, "ginibre")
    assert abs(log_partition_normalized(model)
               - (exact_log_partition(model) - math.log(math.factorial(5)))) < 1e-12


# ---------------------------------------------------------------- covariance

def test_statistic_covariance_constant_is_zero():
    model = GasModel(2.0, 4, "ginibre")
    est, stderr = statistic_covariance(model, lambda z: 1.0, lambda z: 1.0,
                                       chains=4, sweeps=400, seed=2)
    assert est == 0.0


def test_statistic_covariance_requires_chains():
    model = GasModel(2.0, 4, "ginibre")
    with pytest.raises(ValueError):
        statistic_covariance(model, abs, abs, chains=2, sweeps=100)


def test_statistic_covariance_unbiased_on_correlated_streams(monkeypatch):
    # stationary AR(1) streams of unit variance and tau_int = (1 + phi) /
    # (1 - phi) = 9 in place of the chains: centring each chain on its own
    # mean reads ~tau_int/n = 4.5% low, ~7 standard errors at 2000 chains
    phi, n, chains = 0.8, 200, 2000
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((chains, n))
    streams = np.empty_like(noise)
    streams[:, 0] = noise[:, 0]
    for t in range(1, n):
        streams[:, t] = phi * streams[:, t - 1] + math.sqrt(1 - phi * phi) * noise[:, t]

    def fake_chains(model, sweeps, seed, chains, record_every=1):
        return [SimpleNamespace(samples=streams[chain][:, None]) for chain in chains]

    monkeypatch.setattr(gas, "run_chains", fake_chains)
    f = lambda z: z
    est, stderr = statistic_covariance(GasModel(2.0, 1, "sinh"), f, f,
                                       chains=chains, sweeps=n)
    assert abs(est - 1.0) < 4.0 * stderr


def test_statistic_covariance_re_trace():
    # Var(sum Re z_j / sqrt(N)) = 1/2 exactly for the beta = 2 ginibre gas
    n = 8
    model = GasModel(2.0, n, "ginibre")
    f = lambda z: z.real / math.sqrt(n)
    est, stderr = statistic_covariance(model, f, f, chains=6, sweeps=8000,
                                       seed=4, record_every=4)
    assert abs(est - 0.5) < 4.0 * max(stderr, 1e-3)


def test_statistic_covariance_stderr_scaling():
    n = 4
    model = GasModel(2.0, n, "ginibre")
    f = lambda z: z.real
    _, se4 = statistic_covariance(model, f, f, chains=4, sweeps=3000, seed=8)
    _, se16 = statistic_covariance(model, f, f, chains=16, sweeps=3000, seed=8)
    # quadrupling chains should roughly halve the stderr
    assert se16 < se4


def test_bulk_plus_surface_prediction_assembly():
    # the analytic comparator for Re(z)/sqrt(N): bulk (1/2 pi beta) int |grad f|^2
    # over the unit disk plus the background-convention surface term
    from coulomblab.fluctuations import covariance_circle

    beta = 2.0
    bulk = (1.0 / (2.0 * math.pi * beta)) * math.pi  # |grad Re Z|^2 = 1, area pi
    surface = 0.5 * covariance_circle(math.cos, math.cos, beta=beta)
    assert abs(bulk + surface - 0.5) < 1e-10
