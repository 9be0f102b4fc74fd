import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coulomblab
from coulomblab import _quad
from coulomblab._quad import QuadratureBudgetError
from coulomblab.cli import main, parse_geometry, run_command
from coulomblab.domains import Ball, Cuboid, Ellipse2D


def record_of(argv):
    res = run_command(argv)
    return res.exit_code, res.record


def test_potential_ball_example(capsys):
    code = main(["potential", "--domain", "ball:d=3,R=1,N=1",
                 "--point", "0,0,0", "--json"])
    out = capsys.readouterr().out
    rec = json.loads(out)
    assert code == 0
    assert abs(rec["value"] + 1.5) < 1e-12
    # JSON round-trips
    assert json.loads(json.dumps(rec)) == rec


def test_unsupported_geometry_exit_2():
    code, rec = record_of(["potential", "--domain", "torus:R=1",
                           "--point", "0,0"])
    assert code == 2
    assert "unsupported geometry" in rec["error"]["message"]


def test_bad_arguments_exit_2():
    code, rec = record_of(["potential", "--nonsense"])
    assert code == 2


def test_geometry_parser():
    dom = parse_geometry("ball:d=3,R=2,N=4")
    assert isinstance(dom.geometry, Ball)
    assert dom.geometry.R == 2.0 and dom.N == 4.0
    dom2 = parse_geometry("ellipse:a1=2,a2=1")
    assert isinstance(dom2.geometry, Ellipse2D)
    dom3 = parse_geometry("cuboid:x0=0,x1=1,y0=0,y1=1,z0=0,z1=1")
    assert isinstance(dom3.geometry, Cuboid)
    with pytest.raises(ValueError):
        parse_geometry("ball:d=3,bogus=1")


def test_oracle_route():
    code, rec = record_of(["potential", "--domain", "ball:d=2,R=1,N=1",
                           "--point", "0.3,0.1", "--oracle", "--tol", "1e-9"])
    assert code == 0
    code2, rec2 = record_of(["potential", "--domain", "ball:d=2,R=1,N=1",
                             "--point", "0.3,0.1"])
    assert abs(rec["value"] - rec2["value"]) < 1e-7


def test_negative_first_coordinate():
    code, rec = record_of(["potential", "--domain", "ball:d=2,R=1",
                           "--point", "-0.5,0.3"])
    assert code == 0
    assert abs(rec["value"] - (0.34 - 1.0) / 2.0) < 1e-12
    code, rec = record_of(["green", "--geometry", "disk", "--z", "-2,0",
                           "--w", "-3,0"])
    assert code == 0 and abs(rec["value"] - math.log(5.0)) < 1e-12


def test_balayage_of_3_ball():
    code, rec = record_of(["balayage", "--domain", "ball:d=3,R=1",
                           "--point", "2,0,0"])
    assert code == 0
    assert rec["values"]["components"][0]["kind"] == "shell"
    assert abs(rec["values"]["potential"] - 0.5) < 1e-14
    code, rec = record_of(["balayage", "--domain", "ball:d=3,R=1",
                           "--point", "2,0"])
    assert code == 2 and rec["error"]["type"] == "ValueError"


def test_energy_and_cube_self():
    code, rec = record_of(["energy", "--domain", "ball:d=2,R=1,N=1",
                           "--points", "0,0"])
    assert code == 0 and abs(rec["value"] + 0.375) < 1e-12
    code, rec = record_of(["energy", "--cube-self"])
    assert code == 0 and abs(rec["value"] - 0.9411563) < 1e-6


def test_coeffs_sum_rule():
    code, rec = record_of(["coeffs", "--axes", "1|1|2"])
    assert code == 0
    assert abs(rec["values"]["sum"] - 0.75) < 1e-10


def test_green_and_capacity():
    code, rec = record_of(["green", "--geometry", "disk", "--z", "2,0",
                           "--w", "3,0"])
    assert code == 0 and abs(rec["value"] - math.log(5.0)) < 1e-12
    code, rec = record_of(["green", "--geometry", "sphere", "--z", "2,0,0",
                           "--w", "3,0,0"])
    assert code == 0 and abs(rec["value"] - 0.8) < 1e-12
    code, rec = record_of(["capacity", "--map", "interval:L=1"])
    assert code == 0
    assert abs(rec["values"]["capacity"] - 0.5) < 1e-14
    assert abs(rec["values"]["robin"] - math.log(2.0)) < 1e-14


def test_droplet_command():
    code, rec = record_of(["droplet", "--induced-alpha", "1.0"])
    assert code == 0
    assert abs(rec["values"]["r0"] - 1.0) < 1e-9
    assert abs(rec["values"]["r1"] - math.sqrt(2.0)) < 1e-9


def test_riesz_command():
    code, rec = record_of(["riesz", "--s", "0", "--N", "3", "--R", "2",
                           "--op", "background"])
    assert code == 0 and abs(rec["value"] - 3 * math.log(2.0)) < 1e-12


def test_fluct_command():
    code, rec = record_of(["fluct", "--op", "cov", "--k", "1", "--beta", "2"])
    assert code == 0 and abs(rec["value"] - 0.5) < 1e-10


def test_hole_tail_command():
    code, rec = record_of(["hole", "--domain", "ball:d=2,R=1", "--beta", "2",
                           "--mode", "tail", "--gamma", "3", "--amp", "1",
                           "--R-tail", "10"])
    assert code == 0
    assert abs(rec["value"] + 0.5e6 * math.log(10.0)) < 1e-6


def test_surface_command():
    code, rec = record_of(["surface", "--op", "shell", "--d", "3", "--R", "1",
                           "--Q", "1", "--point", "0,0,0"])
    assert code == 0 and abs(rec["value"] - 1.0) < 1e-13
    code, rec = record_of(["surface", "--op", "projection", "--d", "2",
                           "--R", "1", "--point", "0.0"])
    assert code == 0 and abs(rec["value"] - 1 / math.pi) < 1e-12


def test_sample_csv_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["sample", "--ensemble", "ginibre", "--n", "4", "--sweeps", "300",
            "--seed", "9"]
    code1, rec1 = record_of(base + ["--out", str(out1)])
    code2, rec2 = record_of(base + ["--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "chain,sweep,particle,re,im"
    assert rec1["values"]["retained_configs"] > 0
    assert "runtime_ms" in rec1["values"]


def test_sample_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sampler configuration\nsweeps = 200\nseed = 4\nn = 3\n")
    code, rec = record_of(["sample", "--ensemble", "ginibre",
                           "--config", str(cfg)])
    assert code == 0
    assert rec["inputs"]["sweeps"] == 200
    assert rec["inputs"]["n"] == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 1\n")
    code, rec = record_of(["sample", "--ensemble", "ginibre",
                           "--config", str(bad)])
    assert code == 2


def test_json_flag_both_positions(capsys):
    for argv in (["--json", "energy", "--cube-self"],
                 ["energy", "--cube-self", "--json"]):
        code = main(argv)
        rec = json.loads(capsys.readouterr().out)
        assert code == 0 and "value" in rec


def test_budget_error_exit_3(monkeypatch):
    # a three-panel budget makes the oracle's adaptive_1d raise at its own
    # raise site in _quad
    monkeypatch.setattr("coulomblab.domains.adaptive_1d",
                        functools.partial(_quad.adaptive_1d, max_panels=3))
    code, rec = record_of(["potential", "--domain", "annulus:R=1,c=0.5,N=1",
                           "--point", "0.7,0.0", "--oracle", "--tol", "1e-15"])
    assert code == 3
    assert rec["error"]["type"] == "QuadratureBudgetError"
    assert "best_value" in rec["error"]


def test_runtime_error_exit_3(capsys, monkeypatch):
    def negative(spec):
        raise RuntimeError("hole_energy: negative energy -0.25")

    monkeypatch.setattr("coulomblab.balayage.hole_energy", negative)
    code = main(["hole", "--domain", "ball:d=2,R=1", "--mode", "energy",
                 "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 3
    assert rec["error"] == {"type": "RuntimeError",
                            "message": "hole_energy: negative energy -0.25"}


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that use it, so a fresh CLI
    # process does not pay for it
    src = os.path.dirname(os.path.dirname(coulomblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import coulomblab.cli, sys; "
         "print(any(m.startswith('scipy') for m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_sample_counts_below_one_exit_2():
    base = ["sample", "--ensemble", "ginibre", "--n", "4", "--sweeps", "10",
            "--json"]
    for extra in (["--chains", "0"], ["--record-every", "0"]):
        code, rec = record_of(base + extra)
        assert code == 2, extra
        assert rec["error"]["type"] == "ValueError"


def test_error_records_honour_json(capsys, monkeypatch):
    code = main(["potential", "--domain", "ball:d=2,R=1",
                 "--point", "0.5,0.5,0.5", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["error"]["type"] == "ValueError"

    code = main(["potential", "--nonsense", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["error"]["type"] == "ArgumentError"

    # the budget-error argv of test_budget_error_exit_3, with the oracle
    # forced to exhaust its budget
    def exhausted(*args, **kwargs):
        raise QuadratureBudgetError(0.25, 1e-3)

    monkeypatch.setattr("coulomblab.domains.potential_oracle", exhausted)
    code = main(["potential", "--domain", "annulus:R=1,c=0.5,N=1",
                 "--point", "0.7,0.0", "--oracle", "--tol", "1e-15", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 3
    assert rec["error"]["type"] == "QuadratureBudgetError"
    assert rec["error"]["best_value"] == 0.25
