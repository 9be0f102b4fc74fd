"""The benchmark's own tests: each correctness check accepts the program's
answer and rejects a slightly wrong one, and the references stand on their
own.  Run with `python3 -m pytest bench/tests -q` from the repository root."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest
from scipy import integrate

import checks
import climix
import oracle
import references as ref
import sampler
from coulomblab import gas

from conftest import BENCH, ROOT


@pytest.fixture(scope="module")
def oracle_work():
    return oracle.OracleWorkload(3)


def test_oracle_check_rejects_value_scaled_by_1e5(oracle_work):
    ops = [op for op in oracle_work.round_ops(0)
           if op.name.startswith("potential_oracle") and not op.known_fault]
    assert len(ops) == 120
    for op in ops:
        res = op.call()
        assert op.check(res)[0], op.name
        wrong = dataclasses.replace(res, value=res.value * (1.0 + 1e-5))
        assert not op.check(wrong)[0], op.name


def test_known_fault_op_fails_on_its_fixed_input(oracle_work):
    (op,) = [op for op in oracle_work.round_ops(0) if op.known_fault]
    assert not op.check(op.call())[0]


def test_balayage_check_rejects_value_scaled_by_1e5(oracle_work):
    ops = [op for op in oracle_work.round_ops(0) if op.name.startswith("balayage")]
    assert len(ops) == 16
    for op in ops:
        val = op.call()
        assert op.check(val)[0] and not op.check(val * (1.0 + 1e-5))[0], op.name


def test_hole_energy_check_rejects_flipped_sign(oracle_work):
    ops = [op for op in oracle_work.round_ops(0) if op.name.startswith("hole_energy")]
    assert len(ops) == 6
    for op in ops:
        energy = op.call()
        assert op.check(energy)[0] and not op.check(-energy)[0], op.name


def test_sampler_checks_reject_mean_shifted_by_10_se():
    work = sampler.SamplerWorkload(5)
    wanted = ("run_chain.ginibre", "statistic_covariance.ginibre")
    for r in range(3):
        for op in work.round_ops(r):
            if op.name in wanted:
                assert op.check(op.call())[0], op.name
    for label in ("ginibre.sum_abs2", "covariance.ginibre"):
        mean, se, dof = checks.pool(work.estimates[label])
        target = work.exact[label]
        assert checks.mean_check(mean, se, dof, target)[0]
        assert not checks.mean_check(mean + 10.0 * se, se, dof, target)[0]
        assert not checks.mean_check(mean - 10.0 * se, se, dof, target)[0]


def test_chain_check_rejects_drifted_energy():
    work = sampler.SamplerWorkload(5)
    state = gas.run_chain(work.models["sinh"], 50, 1)
    assert work.check_chain("sinh", 50, state)[0]
    state.total_energy += 1e-6 * abs(state.total_energy)
    assert not work.check_chain("sinh", 50, state)[0]


class _Proc:
    def __init__(self, returncode, stdout):
        self.returncode, self.stdout, self.stderr = returncode, stdout, ""


def test_cli_check_rejects_wrong_value_exit_and_output():
    name, argv, check, v = next(c for c in climix.commands(2) if c[0] == "green.disk")
    good = json.dumps({"command": "green", "value": v})
    bad = json.dumps({"command": "green", "value": v * (1.0 + 1e-5)})
    assert climix.check_output(_Proc(0, good), check)[0]
    assert not climix.check_output(_Proc(0, bad), check)[0]
    assert not climix.check_output(_Proc(2, good), check)[0]
    assert not climix.check_output(_Proc(0, "traceback"), check)[0]
    assert not climix.check_output(_Proc(0, json.dumps({"command": "green"})), check)[0]


def test_sinh_partition_product_matches_direct_integral():
    c, L = 0.7, 5.0

    def weight(y, x):
        return (2.0 * math.sinh(math.pi * (x - y) / L)) ** 2 * math.exp(-c * (x * x + y * y))

    z2, _ = integrate.dblquad(weight, -12, 12, -12, 12, epsabs=0, epsrel=1e-11)
    assert math.log(z2) == pytest.approx(ref.sinh_log_partition(2, c, L), abs=1e-9)
    h = 1e-5
    deriv = (ref.sinh_log_partition(32, c + h, L) - ref.sinh_log_partition(32, c - h, L)) / (2 * h)
    assert ref.sinh_mean_sum_x2(32, c, L) == pytest.approx(-deriv, rel=1e-7)


def test_textbook_potentials_are_continuous_across_boundaries():
    for r in (0.5, 1.0):
        inner = ref.annulus_potential(1.0, 0.5, 1.0, (r * (1 - 1e-12), 0.0))
        outer = ref.annulus_potential(1.0, 0.5, 1.0, (r * (1 + 1e-12), 0.0))
        assert inner == pytest.approx(outer, abs=1e-10)
    assert ref.ball3_potential(1.3, 2.0, (1.3, 0, 0)) == pytest.approx(-2.0 / 1.3)
    # the ellipse interior form against the scipy integral at an interior
    # point (an integrable log singularity)
    a1, a2, p = 2.0, 1.0, (0.4, 0.3)
    lhs = ref.ellipse_interior_potential(a1, a2, 1.0, p)
    rhs = ref.ellipse_log_integral(a1, a2, p) / (math.pi * a1 * a2)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_reference_command_runs_without_the_program(tmp_path):
    env = dict(os.environ, PYTHONPATH="")
    out = tmp_path / "refs.json"
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "references.py"),
                           "--seed", "4", "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert len(data["oracle"]["potential_oracle"]) == 121
    assert len(data["cli"]) == 24


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
