import contextlib
import functools
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coulomblab
from coulomblab import _quad
from coulomblab._quad import QuadratureBudgetError
from coulomblab.cli import main, parse_geometry, run_command
from coulomblab.domains import (Ball, Cuboid, Hyperellipsoid, Rectangle, UniformDomain,
                                background_potential, potential_oracle)


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
    assert dom.geometry == Ball(3, 2.0) and dom.N == 4.0
    assert parse_geometry("hyperellipsoid:axes=2|2|2").geometry == Ball(3, 2.0)
    dom2 = parse_geometry("ellipse:a1=2,a2=1")
    assert dom2.geometry == Hyperellipsoid((2.0, 1.0))
    assert parse_geometry("segment:R=2.5").geometry == Ball(1, 2.5)
    dom3 = parse_geometry("cuboid:x0=0,x1=1,y0=0,y1=1,z0=0,z1=1")
    assert dom3.geometry == Cuboid(((0, 1), (0, 1), (0, 1)))
    assert parse_geometry("rectangle:x1=2,y0=-1").geometry == Rectangle(((0, 2), (-1, 1)))
    with pytest.raises(ValueError):
        parse_geometry("ball:d=3,bogus=1")


def test_ball_dimension_past_the_volume_overflow_is_refused_before_its_axes(monkeypatch):
    # sphere_area(344) overflows, so no d-ball past d = 343 can be evaluated;
    # the spec is refused before the d-tuple of its axes is built
    assert parse_geometry("ball:d=343").dim == 343
    monkeypatch.setattr("coulomblab.domains.Ball",
                        lambda *args: pytest.fail("Ball was built for d = 344"))
    code, rec = record_of(["potential", "--domain", "ball:d=344", "--point", "0"])
    assert code == 2 and rec["error"]["type"] == "ValueError"
    assert "d = 344" in rec["error"]["message"]


def test_oracle_route():
    code, rec = record_of(["potential", "--domain", "ball:d=2,R=1,N=1",
                           "--point", "0.3,0.1", "--oracle", "--tol", "1e-9"])
    assert code == 0
    code2, rec2 = record_of(["potential", "--domain", "ball:d=2,R=1,N=1",
                             "--point", "0.3,0.1"])
    assert abs(rec["value"] - rec2["value"]) < 1e-7


def test_oracle_record_says_tolerance_unmet(capsys):
    # tol 1e-30 is below roundoff: the command still exits 0, and the
    # record's diagnostics say the tolerance was not met
    code = main(["potential", "--domain", "ellipse:a1=2,a2=1", "--point", "3,0.5",
                 "--oracle", "--tol", "1e-30", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 0
    diag = rec["diagnostics"]
    assert list(diag) == ["panels", "depth", "at_cap", "at_floor", "tol_met"]
    assert diag["tol_met"] is False and diag["at_floor"] > 0
    code, rec = record_of(["potential", "--domain", "ellipse:a1=2,a2=1",
                           "--point", "3,0.5", "--oracle", "--tol", "1e-9"])
    assert code == 0 and rec["diagnostics"]["tol_met"] is True
    # the cuboid's and an unequal-axis d >= 3 hyperellipsoid's boundary
    # oracles report their stats too
    code, rec = record_of(["potential", "--domain", "cuboid:x0=0,x1=1,y0=0,y1=2,z0=0,z1=0.5",
                           "--point", "0.3,0.5,0.2", "--oracle"])
    assert code == 0 and rec["diagnostics"]["tol_met"] is True
    code, rec = record_of(["potential", "--domain", "hyperellipsoid:axes=1|2|1.5",
                           "--point", "0.2,0.1,0.3", "--oracle"])
    assert code == 0 and rec["diagnostics"]["tol_met"] is True


def test_text_output_warns_when_tolerance_unmet(capsys):
    argv = ["potential", "--domain", "ellipse:a1=2,a2=1", "--point", "3,0.5",
            "--oracle", "--tol"]
    assert main(argv + ["1e-30"]) == 0
    out, err = capsys.readouterr()
    assert out == "1.0711080866886831\n"
    assert len(err.splitlines()) == 1 and "--tol was not met" in err
    # the JSON record carries the verdict itself, and a met tolerance is quiet
    assert main(argv + ["1e-30", "--json"]) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["1e-9"]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("argv", [
    ["coeffs", "--axes", "1|-1|1"],
    ["coeffs", "--axes", "1|1|1", "--N", "-2"],
    ["coeffs", "--axes", "1|-1"],
    ["coeffs", "--axes", "2"],
])
def test_coeffs_bad_axes_or_charge_exit_2(argv, capsys):
    # every dimension checks its axes and charge, as the d = 2 path did; a
    # single axis, the segment, has no quadratic form
    code = main(argv + ["--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["error"]["type"] == "ValueError"


def test_coeffs_valid_axes_unchanged():
    # the values the d = 2 closed form and the d = 3 lambda-integrals gave
    # before the check moved
    code, rec = record_of(["coeffs", "--axes", "2|1"])
    assert code == 0 and rec["values"] == {
        "alpha0": -0.09453489189183562,
        "alphas": [0.16666666666666669, 0.3333333333333333], "sum": 0.5}
    code, rec = record_of(["coeffs", "--axes", "1|1|1"])
    assert code == 0 and rec["values"]["alpha0"] == -1.5
    assert rec["values"]["alphas"] == [0.4999999999999999] * 3


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


def test_sample_chains_csv_matches_run_chain(tmp_path):
    # the lockstep chains of `sample --chains 3` write each chain's own
    # run_chain stream
    from coulomblab.gas import GasModel, run_chain

    out = tmp_path / "f.csv"
    code, _ = record_of(["sample", "--ensemble", "ginibre", "--n", "4",
                         "--sweeps", "200", "--seed", "5", "--chains", "3",
                         "--out", str(out)])
    assert code == 0
    lines = ["chain,sweep,particle,re,im"]
    for chain in range(3):
        state = run_chain(GasModel(2.0, 4, "ginibre"), 200, 5, chain=chain)
        for s_idx, row in enumerate(state.samples.tolist()):
            for p_idx, z in enumerate(row):
                lines.append(f"{chain},{s_idx},{p_idx},{z.real:.17g},{z.imag:.17g}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()



def test_sample_chains_step_scale_is_the_chain_mean():
    # every chain freezes its own adapted step; the record reports their mean
    from coulomblab.gas import GasModel, run_chains

    code, rec = record_of(["sample", "--ensemble", "ginibre", "--n", "16",
                           "--sweeps", "4000", "--seed", "3", "--chains", "4"])
    assert code == 0
    steps = [s.step_scale for s in run_chains(GasModel(2.0, 16, "ginibre"),
                                              4000, 3, range(4))]
    assert len(set(steps)) > 1
    assert rec["values"]["estimates"]["step_scale"] == float(np.mean(steps))


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
    code, rec = record_of(["potential", "--domain", "ellipse:a1=2,a2=1,N=1",
                           "--point", "2.02,0.05", "--oracle", "--tol", "1e-15"])
    assert code == 3
    assert rec["error"]["type"] == "QuadratureBudgetError"
    assert "best_value" in rec["error"]


def test_oracle_point_too_far_exit_2(capsys):
    # the point lies past the oracle's reach (some 1e152 body sizes), which
    # it refuses up front as an argument error
    code = main(["potential", "--domain", "ball:d=2,R=1,N=1", "--point=1e160,0",
                 "--oracle", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["error"]["type"] == "ValueError"
    assert "too far" in rec["error"]["message"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_budget_error_with_nan_estimate_is_strict_json(capsys):
    # the charge overflows the integrand, so every panel's error is nan and
    # the budget runs out with a nan estimate
    code = main(["potential", "--domain", "segment:R=1,N=1.7e308", "--point=3",
                 "--oracle", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 3 and rec["error"]["type"] == "QuadratureBudgetError"
    assert rec["error"]["best_value"] is None and rec["error"]["est_error"] is None


def test_check_record_with_numpy_verdict_is_strict_json(capsys, monkeypatch):
    # a criterion whose verdict is a numpy bool still gives a JSON boolean
    monkeypatch.setattr("coulomblab.acceptance.CRITERIA",
                        [(1, "numpy verdict", lambda: (np.True_, "max rel diff 0"))])
    code = main(["check", "--suite", "quick", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 0 and rec["values"]["criteria"][0]["passed"] is True


def test_hole_energy_without_closed_form_exit_2(capsys):
    code = main(["hole", "--domain", "ball:d=3,R=1", "--mode", "energy", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["command"] == "hole"
    assert rec["error"]["type"] == "UnsupportedRegionError"


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


def _run_fresh(code):
    """The stdout of `code` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(coulomblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that use it, so a fresh CLI
    # process does not pay for it
    out = _run_fresh("import coulomblab.cli, sys; "
                     "print(any(m.startswith('scipy') for m in sys.modules))")
    assert out.strip() == "False"


@pytest.mark.parametrize("module, absent", [
    ("coulomblab", ("coulomblab.",)),
    ("coulomblab.cli", tuple(f"coulomblab.{m.name}" for m in
                             pkgutil.iter_modules(coulomblab.__path__) if m.name != "cli")),
])
def test_import_loads_only_what_it_uses(module, absent):
    # the package loads no submodule, and the CLI none but itself: each
    # command imports the modules it runs
    out = _run_fresh(f"import {module}, sys; "
                     f"print(sorted(m for m in sys.modules if m.startswith({absent!r})))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], ["cli"]),
    (["potential", "--help"], ["cli"]),
    (["green", "--geometry", "disk", "--z", "2,0.5", "--w", "1.5,1"],
     ["cli", "conformal", "specfun"]),
    (["riesz", "--s", "0.5", "--N", "8"], ["cli", "riesz", "specfun"]),
    (["fluct", "--op", "cov"], ["_quad", "cli", "conformal", "fluctuations", "specfun"]),
    (["potential", "--domain", "ball:d=3,R=1", "--point", "0.1,0.2,0"],
     ["_quad", "cli", "domains", "specfun"]),
], ids=["help", "potential-help", "green", "riesz", "fluct", "potential"])
def test_command_loads_only_its_modules(argv, loaded):
    out = _run_fresh("import contextlib, io, sys\nfrom coulomblab import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    assert cli.main({argv!r}) == 0\n"
                     "print(sorted(m[11:] for m in sys.modules if m.startswith('coulomblab.')))")
    assert out.strip() == str(loaded)


def test_singularity_error_is_one_class():
    # conformal, fluctuations and riesz raise it without importing domains
    from coulomblab import domains, specfun
    assert domains.SingularityError is specfun.SingularityError
    assert "SingularityError" in domains.__all__


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(coulomblab.__path__)))
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is gone fails here, not in
    # a user's `from coulomblab.<module> import *`
    module = importlib.import_module(f"coulomblab.{name}")
    missing = [e for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert missing == []


def test_segment_point_of_two_coordinates_exit_2():
    base = ["potential", "--domain", "segment:R=1", "--json"]
    for extra in ([], ["--oracle"]):
        code, rec = record_of(base + ["--point", "0.3,5"] + extra)
        assert code == 2, extra
        assert "expected a point in dimension 1" in rec["error"]["message"]
    code, rec = record_of(base + ["--point", "0.3"])
    assert code == 0 and rec["value"] == 0.5 * (0.3 * 0.3 - 1.0) + 1.0


def test_one_dimensional_ball_oracle_is_the_segment_oracle():
    # int_{-1}^{1} |0.5 - y| / 2 dy = (1.5^2 + 0.5^2) / 4
    dom = UniformDomain(Ball(1, 1.0), 1.0)
    assert abs(potential_oracle(dom, [0.5], tol=1e-10).value - 0.625) < 1e-9
    assert abs(background_potential(dom, [0.5]) - 0.625) < 1e-9
    code, rec = record_of(["potential", "--domain", "ball:d=1,R=1", "--point", "0.5",
                           "--oracle", "--json"])
    assert code == 0 and abs(rec["value"] - 0.625) < 1e-9


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

    # an annulus ring-point oracle argv, with the oracle forced to exhaust
    # its budget
    def exhausted(*args, **kwargs):
        raise QuadratureBudgetError(0.25, 1e-3)

    monkeypatch.setattr("coulomblab.domains.potential_oracle", exhausted)
    code = main(["potential", "--domain", "annulus:R=1,c=0.5,N=1",
                 "--point", "0.7,0.0", "--oracle", "--tol", "1e-15", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 3
    assert rec["error"]["type"] == "QuadratureBudgetError"
    assert rec["error"]["best_value"] == 0.25


def _close(got, want):
    """Same structure; floats equal to 1e-12 relative."""
    if isinstance(want, dict):
        return isinstance(got, dict) and list(got) == list(want) and all(
            _close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w) for g, w in zip(got, want))
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12,
                                                       abs_tol=1e-15)
    return type(got) is type(want) and got == want


def test_record_layout_pinned():
    # one argv per handler branch; cli_records.json holds each record's key
    # sequence, inputs, method, provenance and value(s) (sample's runtime_ms
    # and the acceptance results of check are left out)
    path = os.path.join(os.path.dirname(__file__), "cli_records.json")
    with open(path) as fh:
        pinned = json.load(fh)
    for row in pinned:
        code, rec = record_of(row["argv"].split())
        assert code == 0, row["argv"]
        assert [k for k in rec if k != "json"] == row["keys"], row["argv"]
        assert json.dumps(rec["inputs"]) == json.dumps(row["inputs"]), row["argv"]
        assert rec["method"] == row["method"], row["argv"]
        assert rec["provenance"] == row["provenance"], row["argv"]
        assert (rec["tolerance"] is None) == row["tolerance_null"], row["argv"]
        if rec["command"] == "sample":
            assert rec["values"].pop("runtime_ms") > 0.0
        for key in ("value", "values"):
            if key in row:
                assert _close(rec[key], row[key]), (row["argv"], rec[key])
        if rec["command"] == "check":
            assert rec["values"]["passed"] and "error" not in rec
            assert rec["lines"]


# argv fuzzing: every subcommand but check, each option present or absent,
# values from small pools of valid, non-finite, empty, malformed and
# wrong-length entries (sizes capped so that no example takes over ~1 s)
_BAD = ["nan", "inf", "-inf", "", "x"]
_P2 = ["0.3,0.1", "-0.5,0.2", "2,1", "0.5", "1,2,3", "nan,0", "0,inf", "", ",", "a,b"]
_P3 = ["0.1,0.2,0.3", "-0.2,0,0.4", "2,0,0", "0.5,0.5", "1,2,3,4", "nan,0,0"]
_GEO = ["ball:d=2,R=1", "ball:d=3,R=1.5,N=2", "ellipse:a1=2,a2=1",
        "annulus:R=1,c=0.5", "rectangle:x0=0,x1=1,y0=0,y1=1", "segment:R=1",
        "hyperellipsoid:axes=1|2|1.5", "cuboid:x0=0,x1=1,y0=0,y1=1,z0=0,z1=1",
        "ball:d=2,R=nan", "ellipse:a1=inf,a2=1", "annulus:R=1,c=-inf",
        "hyperellipsoid:axes=1|nan", "ball:d=0,R=1", "ball:R=-1", "ball:d=x",
        "ball:d=2,R", "ball:bogus=1", "torus:R=1", "ellipse:a1=2", "",
        "ball:d=1,R=1"]
_MAPS = ["circle:R=1", "interval:L=1", "ellipse:a1=2,a2=1",
         "laurent:scale=1,coeffs=0|0.3", "ellipse:a1=1,a2=2", "ellipse:a1=nan,a2=1",
         "laurent:scale=inf,coeffs=0", "laurent:scale=1,coeffs=nan|0.1",
         "circle:R=0", "interval:L=-inf", "bogus:x=1", "ellipse", ""]
_AXES = ["1|1|2", "2|1|1", "1|1.5", "nan|1|2", "1|inf|2", "1||2", "-1|1|1", "", "x"]
_INT = ["1", "2", "0", "-1", "x", "nan"]


def _floats_pool(*good):
    return list(good) + _BAD


_FUZZ_OPTIONS = {
    "potential": {"--domain": _GEO, "--point": _P2 + _P3, "--oracle": None,
                  "--tol": _floats_pool("1e-4", "1e-8", "0", "-1")},
    "energy": {"--domain": _GEO, "--cube-self": None,
               "--points": ["0,0", "0,0;0.5,0.1", "-0.5,0.2;0.1,0", "0,0,0",
                            "nan,0", "0,0;;1,1", ";", "", "x"]},
    "coeffs": {"--axes": _AXES, "--N": _floats_pool("1", "2", "0", "-1")},
    "surface": {"--op": ["shell", "density", "potential", "projection", "identity",
                         "bogus"],
                "--d": ["2", "3"] + _INT, "--R": _floats_pool("1", "0.5", "0", "-1"),
                "--Q": _floats_pool("1", "-2"), "--axes": _AXES,
                "--point": _P3 + _P2 + ["2,0,0", "0.3"],
                "--case": ["constant-potential", "riesz-quadratic", "bogus"]},
    "green": {"--geometry": ["disk", "halfplane", "sphere", "halfspace"] + _MAPS,
              "--z": _P2 + _P3, "--w": _P2 + _P3,
              "--R": _floats_pool("1", "0.5", "0", "-1")},
    "capacity": {"--map": _MAPS, "--z": _P2 + ["3,0", "1,2,3"]},
    "droplet": {"--alpha": _floats_pool("0.2", "-0.3", "0.5"),
                "--area": _floats_pool("3.14", "1", "0"),
                "--induced-alpha": _floats_pool("1", "0.5", "0", "-1")},
    "fluct": {"--op": ["cue", "subblock", "cov", "mapped-cov", "surface", "bogus"],
              "--N": ["1", "5", "50", "0", "-3", "x"],
              "--beta": _floats_pool("2", "1", "0", "-1"),
              "--k": ["1", "3", "0", "-2", "x"],
              "--route": ["fourier", "quadrature", "bogus"],
              "--convention": ["contour", "background", "interval", "bogus"],
              "--map": _MAPS,
              "--geometry": ["disk", "ellipse:a1=2,a2=1", "circle:R=1",
                             "laurent:scale=1,coeffs=0|0.3", "interval:L=1",
                             "halfspace3d", "halfplane2d", "ellipse:a1=nan,a2=1",
                             "ellipse:a1=2", "bogus"],
              "--p1": ["0.3", "1.5", "1,0", "0.3,0.2", "-0.5,0.1", "1,2,3", "nan",
                       "inf,0", "", "x"],
              "--p2": ["2.5", "0.3", "0,1", "0.1,-0.4", "-2,1", "1,2,3", "-inf",
                       "0,nan", ""],
              "--smoothed": None},
    "riesz": {"--s": _floats_pool("0", "0.5", "-0.5", "1.5", "-2"),
              "--N": ["1", "5", "50", "0", "-1", "x"],
              "--R": _floats_pool("1", "2", "0", "-1"),
              "--op": ["background", "static", "point", "bogus"],
              "--x": _floats_pool("0.3", "0", "1.5"),
              "--mode": ["finite", "limit", "bogus"]},
    "balayage": {"--domain": _GEO, "--moment": ["0", "1", "2", "-1", "x"],
                 "--point": _P2 + _P3},
    "hole": {"--domain": _GEO, "--rho-b": _floats_pool("1", "0.5", "0", "-1"),
             "--beta": _floats_pool("2", "4", "0"),
             "--mode": ["energy", "gap", "tail", "bogus"],
             "--gamma": _floats_pool("3", "2", "1"), "--amp": _floats_pool("1", "0"),
             "--R-tail": _floats_pool("10", "1", "0")},
    "sample": {"--ensemble": ["ginibre", "elliptic", "induced", "contour", "sinh",
                              "bogus"],
               "--n": ["1", "3", "6", "0", "-1", "x"],
               "--sweeps": ["5", "20", "0", "-1", "x"],
               "--beta": _floats_pool("2", "1", "0", "-1"),
               "--seed": ["1", "7", "-1", "x"], "--chains": ["1", "2", "0", "x"],
               "--tau": _floats_pool("0.3", "1", "-1"),
               "--alpha": _floats_pool("1", "0", "-1"),
               "--c": _floats_pool("1", "0"), "--L": _floats_pool("5", "0", "-1"),
               "--map": _MAPS, "--record-every": ["1", "2", "0", "x"]},
}
# options that are always drawn, so that no example runs at a large default
_FUZZ_ALWAYS = {"sample": ("--n", "--sweeps")}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [command]
    for opt, pool in _FUZZ_OPTIONS[command].items():
        if opt not in _FUZZ_ALWAYS.get(command, ()) and not draw(st.booleans()):
            continue
        argv.append(opt)
        if pool is not None:
            argv.append(draw(st.sampled_from(pool)))
    return argv


def _reject_constant(name):
    raise ValueError(f"non-RFC 8259 JSON constant {name}")


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(_fuzz_argv())
def test_cli_contract_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    assert code in (0, 2, 3)
    rec = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert "command" in rec
    assert sum(key in rec for key in ("value", "values", "error")) == 1


@pytest.mark.parametrize("argv, option", [
    (["surface", "--op", "shell"], "--point"),
    (["surface", "--op", "projection", "--d", "2"], "--point"),
    (["surface", "--op", "density", "--point", "2,0,0"], "--axes"),
    (["surface", "--op", "potential", "--axes", "2|1|1"], "--point"),
    (["fluct", "--op", "mapped-cov"], "--map"),
])
def test_missing_option_exit_2(argv, option):
    code, rec = record_of(argv)
    assert code == 2 and rec["error"]["type"] == "ValueError"
    assert option in rec["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["green", "--geometry", "disk", "--z", "2,0,1", "--w", "3,0"],
    ["green", "--geometry", "ellipse:a1=2,a2=1", "--z", "3,0", "--w", "0,2,0"],
    ["capacity", "--map", "interval:L=1", "--z", "2,1,0"],
    ["fluct", "--op", "subblock", "--p1", "0.1,0.2,0.3", "--p2", "0.1"],
    ["fluct", "--op", "surface", "--geometry", "circle:R=1", "--p1", "1,0",
     "--p2", "0,1,0,2"],
])
def test_complex_point_of_three_coordinates_exit_2(argv):
    code, rec = record_of(argv)
    assert code == 2 and rec["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["green", "--geometry", "disk", "--z", "2,0", "--w", "3,0", "--R", "-1"],
    ["green", "--geometry", "disk", "--z", "2,0", "--w", "3,0", "--R", "0"],
    ["green", "--geometry", "sphere", "--z", "2,0,0", "--w", "3,0,0", "--R", "-1"],
    ["fluct", "--op", "surface", "--geometry", "halfspace3d", "--p1=1,2,3",
     "--p2", "0"],
    ["fluct", "--op", "surface", "--geometry", "halfspace3d"],
])
def test_out_of_range_input_exit_2(argv):
    # a radius <= 0 or a wall point without 2 coordinates has no answer
    code, rec = record_of(argv)
    assert code == 2 and rec["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["surface", "--op", "density", "--axes", "2|1|1", "--point", "2,0,0,5"],
    ["surface", "--op", "density", "--axes=-2|1|1", "--point=2,0,0"],
    ["surface", "--op", "density", "--axes", "2", "--point", "2"],
    ["surface", "--op", "potential", "--axes", "2|1|0", "--point", "0.5,0.2,0"],
    ["surface", "--op", "potential", "--axes", "2|1|1", "--point", "0.5,0.2"],
    ["surface", "--op", "shell", "--d", "3", "--point", "0.5,0.2"],
    ["surface", "--op", "shell", "--d", "3", "--R", "0", "--point", "0.5,0,0"],
    ["surface", "--op", "shell", "--d", "3", "--R", "-1", "--point", "0.5,0,0"],
    ["surface", "--op", "identity", "--case", "constant-potential", "--d", "2", "--R", "-1"],
    ["surface", "--op", "identity", "--case", "constant-potential", "--d", "2", "--R", "0"],
])
def test_surface_axes_and_point_checked_exit_2(argv):
    # axes as a hyperellipsoid's (two or more, all positive) and a point of
    # their dimension, as potential checks them, and a shell's or an
    # arcsine measure's radius R > 0
    code, rec = record_of(argv)
    assert code == 2 and rec["error"]["type"] == "ValueError", rec


@pytest.mark.parametrize("case", ["semicircle", "thin-slab"])
def test_surface_identity_case_not_reading_d_and_R_refused(case):
    # these cases ignore --d and --R, which the record would list as inputs
    code, rec = record_of(["surface", "--op", "identity", "--case", case, "--R", "2"])
    assert code == 2 and rec["error"]["type"] == "ArgumentError"


@pytest.mark.parametrize("argv", [
    ["potential", "--domain", "ball:d=2,R=1", "--point", "0,0", "--oracle",
     "--tol", "nan"],
    ["potential", "--domain", "ball:d=2,R=1", "--point", "inf,0"],
    ["potential", "--domain", "ball:d=2,R=nan", "--point", "0,0"],
    ["energy", "--domain", "ball:d=2,R=1", "--points", "0,0;nan,0"],
    ["coeffs", "--axes", "nan|1|2"],
    ["green", "--geometry", "ellipse:a1=inf,a2=1", "--z", "3,0", "--w", "0,2"],
    ["fluct", "--op", "mapped-cov", "--map", "laurent:scale=1,coeffs=0|nan"],
    ["fluct", "--op", "cue", "--p1=-inf"],
    ["balayage", "--domain", "ellipse:a1=2,a2=1", "--point", "3,nan"],
    ["hole", "--domain", "ball:d=2,R=1", "--mode", "tail", "--gamma", "inf",
     "--amp", "1", "--R-tail", "10"],
])
def test_non_finite_input_exit_2(argv, capsys):
    code = main(argv + ["--json"])
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2 and rec["error"]["type"] == "ValueError"


def test_non_finite_result_exit_3(capsys, monkeypatch):
    monkeypatch.setattr("coulomblab.domains.background_potential",
                        lambda u, p: math.nan)
    argv = ["potential", "--domain", "ball:d=2,R=1", "--point", "0,0"]
    code = main(argv + ["--json"])
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 3 and rec["error"]["type"] == "FloatingPointError"
    assert main(argv) == 3


def test_zero_beta_exit_2():
    code, rec = record_of(["fluct", "--op", "cov", "--beta", "0"])
    assert code == 2 and rec["error"]["type"] == "ZeroDivisionError"


def test_negative_beta_exit_2():
    for op in ("cov", "surface", "mapped-cov"):
        argv = ["fluct", "--op", op, "--beta", "-2"]
        if op == "mapped-cov":
            argv += ["--map", "ellipse:a1=2,a2=1"]
        code, rec = record_of(argv)
        assert code == 2 and rec["error"]["type"] == "ValueError", op


def test_help_exit_0(capsys):
    for argv in (["--help"], ["potential", "--help"], ["sample", "--help", "--json"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and out.startswith("usage: coulomblab") and err == ""
