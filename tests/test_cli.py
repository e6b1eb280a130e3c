import collections
import dataclasses
import functools
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geodkit import cli
from geodkit.adjust import LinearSystem, solve_linear
from geodkit.coords import GeodeticCoord, geodetic_to_ecef
from geodkit.core import GM_EARTH, get_ellipsoid
from geodkit.projections import lambert_forward, named_projection

GR = math.pi / 200.0


def run_cli(args, stdin=None, timeout=None):
    # a run past timeout seconds is killed and raises TimeoutExpired
    proc = subprocess.run(
        [sys.executable, "-m", "geodkit.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


class TestBasics:
    def test_version_and_listings(self):
        assert "geodkit" in run_cli(["--version"]).stdout
        out = run_cli(["--list-ellipsoids"]).stdout
        assert "grs80" in out and "clarke-1880-fr" in out
        out = run_cli(["--list-projections"]).stdout
        assert "lambert-nord-tn" in out

    def test_usage_error_exit_code(self):
        assert run_cli([]).returncode == 2
        proc = run_cli(
            ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "nonsense"],
            stdin="name,phi[gr],lam[gr],he[m]\nO,0,0,0\n",
        )
        assert proc.returncode == 2
        assert "input error" in proc.stderr

    def test_numerical_error_exit_code(self):
        # a point on the polar axis has no longitude: numerical error, code 3
        proc = run_cli(
            ["convert", "--from", "ecef", "--to", "geodetic", "--ell", "grs80"],
            stdin="name,x,y,z\nP,0,0,6356752.3\n",
        )
        assert proc.returncode == 3
        assert "PolarAxis" in proc.stderr


class TestConvert:
    def test_equator_row(self):
        proc = run_cli(
            ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "grs80"],
            stdin="name,phi[gr],lam[gr],he[m]\nO,0,0,0\n",
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "O,6378137,0,0"

    def test_round_trip_matches_library(self, grs80):
        from geodkit.coords import geodetic_to_ecef

        g = GeodeticCoord(47.123 * GR, 8.456 * GR, 321.0)
        proc = run_cli(
            ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "grs80"],
            stdin=f"name,phi[gr],lam[gr],he[m]\nP,{g.phi / GR!r},{g.lam / GR!r},{g.he}\n",
        )
        x, y, z = map(float, proc.stdout.splitlines()[1].split(",")[1:])
        ref = geodetic_to_ecef(grs80, g)
        assert x == pytest.approx(ref.x, abs=1e-5)
        assert y == pytest.approx(ref.y, abs=1e-5)
        assert z == pytest.approx(ref.z, abs=1e-5)

    def test_deterministic_output(self):
        stdin = "name,phi[gr],lam[gr],he[m]\nA,40.9193,11.9656,100\nB,-12.5,173.25,0\n"
        args = ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "wgs84"]
        assert run_cli(args, stdin=stdin).stdout == run_cli(args, stdin=stdin).stdout

    def test_reingestion_precision(self):
        stdin = "name,phi[gr],lam[gr],he[m]\nA,40.9193,11.9656,123.456\n"
        fwd = run_cli(
            ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "grs80"],
            stdin=stdin,
        ).stdout
        back = run_cli(
            ["convert", "--from", "ecef", "--to", "geodetic", "--ell", "grs80"],
            stdin=fwd,
        ).stdout
        _, phi, lam, he = back.splitlines()[1].split(",")
        assert float(phi) == pytest.approx(40.9193, abs=1e-9)
        assert float(lam) == pytest.approx(11.9656, abs=1e-9)
        assert float(he) == pytest.approx(123.456, abs=1e-4)


class TestProject:
    def test_forward_matches_library(self):
        proc = run_cli(
            ["project", "fwd", "--proj", "lambert-nord-tn"],
            stdin="name,phi[gr],lam[gr]\nA,40.9193,11.9656\n",
        )
        e, n = map(float, proc.stdout.splitlines()[1].split(",")[1:])
        ref = lambert_forward(
            named_projection("lambert-nord-tn"),
            GeodeticCoord(40.9193 * GR, 11.9656 * GR),
        )
        assert e == pytest.approx(ref.e, abs=1e-6)
        assert n == pytest.approx(ref.n, abs=1e-6)

    def test_inverse_round_trip(self):
        fwd = run_cli(
            ["project", "fwd", "--proj", "utm:32"],
            stdin="name,phi[gr],lam[gr]\nA,40.9193,11.9656\n",
        ).stdout
        inv = run_cli(["project", "inv", "--proj", "utm:32"], stdin=fwd).stdout
        _, phi, lam = inv.splitlines()[1].split(",")
        assert float(phi) == pytest.approx(40.9193, abs=1e-8)
        assert float(lam) == pytest.approx(11.9656, abs=1e-8)

    def test_json_projection_definition(self, tmp_path):
        from geodkit.projections import projection_to_json

        path = tmp_path / "proj.json"
        path.write_text(projection_to_json(named_projection("lambert-nord-tn")))
        via_json = run_cli(
            ["project", "fwd", "--proj-json", str(path)],
            stdin="name,phi[gr],lam[gr]\nA,40.9193,11.9656\n",
        ).stdout
        via_name = run_cli(
            ["project", "fwd", "--proj", "lambert-nord-tn"],
            stdin="name,phi[gr],lam[gr]\nA,40.9193,11.9656\n",
        ).stdout
        assert via_json == via_name

    def test_json_utm_zero_scale_factor_is_an_input_error(self, tmp_path):
        path = tmp_path / "proj.json"
        path.write_text(json.dumps({
            "type": "utm", "ellipsoid": {"a": 6378137.0, "inv_f": 298.257222101},
            "lam0_rad": 0.1, "k0": 0, "false_e": 500000.0, "false_n": 0.0}))
        proc = run_cli(["project", "fwd", "--proj-json", str(path)],
                       stdin="name,phi[gr],lam[gr]\nA,40.9193,11.9656\n")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "scale reduction factor" in proc.stderr

    def test_lambert_preset_rejects_another_ellipsoid(self):
        row = "name,phi[gr],lam[gr]\nA,40.9193,11.9656\n"
        proc = run_cli(["project", "fwd", "--proj", "lambert-nord-tn", "--ell", "wgs84"], stdin=row)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "ValueError" in proc.stderr
        own = run_cli(["project", "fwd", "--proj", "lambert-nord-tn", "--ell", "clarke-1880-fr"],
                      stdin=row)
        assert own.returncode == 0
        assert own.stdout == run_cli(["project", "fwd", "--proj", "lambert-nord-tn"], stdin=row).stdout


class TestGeodesic:
    def test_direct_inverse_chain(self):
        direct = run_cli(
            ["geodesic", "direct", "--ell", "clarke-1880-fr"],
            stdin="name,phi[gr],lam[gr],az[gr],s[m]\nL,40.45498299,9.59542429,249.310168,16255.206\n",
        ).stdout
        _, phi2, lam2, az2, s = direct.splitlines()[1].split(",")
        inv = run_cli(
            ["geodesic", "inverse", "--ell", "clarke-1880-fr"],
            stdin=f"name,phi1,lam1,phi2,lam2\nL,40.45498299,9.59542429,{phi2},{lam2}\n",
        ).stdout
        _, az1, _, s_back = inv.splitlines()[1].split(",")
        assert float(s_back) == pytest.approx(16255.206, abs=1e-3)
        assert float(az1) == pytest.approx(249.310168, abs=1e-6)

    def test_meridian_lines_run_and_invert(self):
        # a line along a meridian, north or south, is solved in closed form
        direct = run_cli(["geodesic", "direct"],
                         stdin="name,phi,lam,az,s[m]\nP,40,10,0,1000\nQ,40,10,200,1000\n")
        assert (direct.returncode, direct.stderr) == (0, "")
        ends = [line.split(",") for line in direct.stdout.splitlines()[1:]]
        assert [(e[0], e[2], e[3], e[4]) for e in ends] == [("P", "10", "0", "1000"),
                                                           ("Q", "10", "200", "1000")]
        inv = run_cli(["geodesic", "inverse"], stdin="name,phi1,lam1,phi2,lam2\n" + "".join(
            f"{e[0]},40,10,{e[1]},{e[2]}\n" for e in ends))
        assert inv.returncode == 0
        # 12 printed digits hold phi2 to about 1e-5 m
        assert [float(line.split(",")[3]) for line in inv.stdout.splitlines()[1:]] == \
            pytest.approx([1000.0, 1000.0], abs=1e-4)


class TestReduce:
    def test_pipeline(self):
        proc = run_cli(
            ["reduce", "--scale", "0.999850371", "--rigorous"],
            stdin="name,dp,ha,hb\nL,20130.858,235.07,507.75\n",
        )
        _, de, dr = proc.stdout.splitlines()[1].split(",")
        assert float(de) == pytest.approx(20127.8474, abs=1e-3)
        assert float(dr) == pytest.approx(20124.8357, abs=1e-3)
        stepwise = run_cli(
            ["reduce", "--scale", "0.999850371", "--wave", "light"],
            stdin="name,dp,ha,hb\nL,20130.858,235.07,507.75\n",
        )
        _, de2, dr2 = stepwise.stdout.splitlines()[1].split(",")
        assert float(de2) == pytest.approx(float(de), abs=2e-3)


def _main_on(argv, text, tmp_path, capsys) -> tuple:
    """Exit code and stderr of cli.main in-process on the CSV input `text`."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    code = cli.main([*argv, "-i", str(path), "-o", str(tmp_path / "out.csv")])
    return code, capsys.readouterr().err


# each bad option value on a 1-row and on a header-only input: the option is
# checked before any row is read, so both exit 2 with the same message
ONE_ROW_OR_NONE = {"1 row": "\nA,40,10,0\n", "0 rows": "\n"}


@pytest.mark.parametrize("rows", sorted(ONE_ROW_OR_NONE))
@pytest.mark.parametrize("scale", ["-1", "0", "-0", "nan", "inf", "-inf"])
def test_reduce_scale_must_be_finite_and_positive(scale, rows, tmp_path, capsys):
    code, err = _main_on(["reduce", f"--scale={scale}"], "name,dp,ha,hb" + ONE_ROW_OR_NONE[rows],
                         tmp_path, capsys)
    assert code == 2
    assert err == f"input error: ValueError: --scale must be finite and > 0, got {float(scale)}\n"


@pytest.mark.parametrize("rows", sorted(ONE_ROW_OR_NONE))
@pytest.mark.parametrize("shift", ["1,2", "1,2,3,4", "nan,0,0", "0,inf,0", "0,0,-1e400",
                                   "a,b,c", "", "1,,2"])
def test_molodensky_shift_must_be_three_finite_numbers(shift, rows, tmp_path, capsys):
    code, err = _main_on(["datum", "molodensky", f"--shift={shift}"],
                         "name,phi,lam,he" + ONE_ROW_OR_NONE[rows], tmp_path, capsys)
    assert code == 2
    assert err == ("input error: ValueError: --shift must be three finite numbers dX,dY,dZ, "
                   f"got {shift!r}\n")


ORBIT_ELEMENTS = {"a": 7e6, "e": 0.01, "i": 1.0, "raan": 0.5, "arg_perigee": 0.2}


@pytest.mark.parametrize("options,error", [
    # epoch 0 propagates, so each error below comes from the check, not the orbit
    (["--epochs=0,inf"], "--epochs must be finite numbers t1,t2,..., got '0,inf'"),
    (["--epochs=0,nan"], "--epochs must be finite numbers t1,t2,..., got '0,nan'"),
    (["--epochs=0,-1e400"], "--epochs must be finite numbers t1,t2,..., got '0,-1e400'"),
    (["--epochs=0,x"], "--epochs must be finite numbers t1,t2,..., got '0,x'"),
    (["--epochs=0,,60"], "--epochs must be finite numbers t1,t2,..., got '0,,60'"),
    (["--epochs=0", "--frame", "ecef", "--gst-rad=nan"], "--gst-rad must be finite, got nan"),
    (["--epochs=0", "--frame", "ecef", "--spin", "--gst-rad=-inf"],
     "--gst-rad must be finite, got -inf"),
    (["--epochs=0", "--gst-rad=inf"], "--gst-rad must be finite, got inf"),
])
def test_orbit_options_must_be_finite(options, error, tmp_path, capsys):
    path = tmp_path / "elements.json"
    path.write_text(json.dumps(ORBIT_ELEMENTS))
    code = cli.main(["orbit", "--elements", str(path), *options])
    assert code == 2
    assert capsys.readouterr().err == f"input error: ValueError: {error}\n"


@pytest.mark.parametrize("mu", [-1, 0])
def test_orbit_mu_must_be_positive(mu, tmp_path, capsys):
    # a negative mu once reached mean_motion's sqrt: "math domain error"
    path = tmp_path / "elements.json"
    path.write_text(json.dumps({**ORBIT_ELEMENTS, "mu": mu}))
    code = cli.main(["orbit", "--elements", str(path), "--epochs=0"])
    assert code == 2
    assert capsys.readouterr().err == (
        "input error: ValueError: gravitational parameter mu must be > 0\n")


@pytest.mark.parametrize("a", [1e-300, 1e200, 1e-100])
def test_orbit_semi_major_axis_needs_a_finite_mean_motion(a, tmp_path, capsys):
    # a**3 underflows to 0 or overflows, or mu / a**3 overflows: an input error
    path = tmp_path / "elements.json"
    path.write_text(json.dumps({**ORBIT_ELEMENTS, "a": a}))
    code = cli.main(["orbit", "--elements", str(path), "--epochs=0,3600"])
    assert (code, capsys.readouterr()) == (2, ("", (
        f"input error: ValueError: semi-major axis {a!r} m gives no finite mean motion "
        "sqrt(mu / a^3) > 0\n")))


def test_orbit_defaults_t0_and_mu_in_the_value_type(tmp_path, capsys):
    from geodkit.orbits import OrbitalElements

    defaults = {f.name: f.default for f in dataclasses.fields(OrbitalElements)[5:]}
    assert defaults == {"t0": 0.0, "mu": GM_EARTH}
    outputs = []
    for elements in (ORBIT_ELEMENTS, {**ORBIT_ELEMENTS, **defaults}):
        path = tmp_path / "elements.json"
        path.write_text(json.dumps(elements))
        assert cli.main(["orbit", "--elements", str(path), "--epochs=0,3600,5000.5"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == "" and len(outputs[0].out) > 100


@pytest.mark.parametrize("elements,error", [
    ({"t0": "x"}, "'t0' must be a finite number, got 'x'"),
    ({"mu": None}, "'mu' must be a finite number, got None"),
    ({"t0": [1.0], "mu": None}, "'t0' must be a finite number, got [1.0]"),
    # t0 and mu are read before the five required keys
    ({"a": "y", "mu": True}, "'mu' must be a finite number, got True"),
])
def test_orbit_names_a_bad_t0_or_mu(elements, error, tmp_path, capsys):
    path = tmp_path / "elements.json"
    path.write_text(json.dumps({**ORBIT_ELEMENTS, **elements}))
    code = cli.main(["orbit", "--elements", str(path), "--epochs=0"])
    assert (code, capsys.readouterr().err) == (2, f"input error: ValueError: {error}\n")


@pytest.mark.parametrize("rows", ["\nP,980,1.5\n", "\n"])
@pytest.mark.parametrize("kind", ["ortho", "normal", "dynamic"])
@pytest.mark.parametrize("h_mean", ["nan", "inf", "-inf"])
def test_heights_h_mean_must_be_finite(h_mean, kind, rows, tmp_path, capsys):
    code, err = _main_on(["heights", kind, f"--h-mean={h_mean}"], "n,g,dh" + rows,
                         tmp_path, capsys)
    assert code == 2
    assert err == f"input error: ValueError: --h-mean must be finite, got {float(h_mean)}\n"


@pytest.mark.parametrize("rows", ["\nP,980,1.5\n", "\n"], ids=["1 row", "0 rows"])
@pytest.mark.parametrize("option,value", [("--phi-start", "nan"), ("--phi-end", "inf")])
def test_heights_latitudes_must_be_finite(option, value, rows, tmp_path, capsys):
    code, err = _main_on(["heights", "ortho", f"{option}={value}"], "n,g,dh" + rows,
                         tmp_path, capsys)
    assert code == 2
    assert err == f"input error: ValueError: {option} must be a finite number, got {value!r}\n"


@pytest.mark.parametrize("rows", ["\nS,20000000,0,0\n", "\n"], ids=["1 row", "0 rows"])
def test_dop_receiver_must_be_finite(rows, tmp_path, capsys):
    code, err = _main_on(["dop", "--receiver=nan,0"], "n,x,y,z" + rows, tmp_path, capsys)
    assert code == 2
    assert err == ("input error: ValueError: --receiver must be finite numbers phi,lam[,he], "
                   "got 'nan,0'\n")


# a list value that starts with "-" reads the same given as the next argument
# as in the --opt=value form, which argparse would take for an option string
def _both_forms(argv, option, value, text, tmp_path, capsys) -> str:
    """The output of argv with "option value" and with "option=value", which must
    be the same; each run exits 0."""
    outputs = []
    for form in ([option, value], [f"{option}={value}"]):
        code, err = _main_on([*argv, *form], text, tmp_path, capsys)
        assert (code, err) == (0, "")
        outputs.append((tmp_path / "out.csv").read_text())
    assert outputs[0] == outputs[1]
    return outputs[0]


def test_epochs_may_start_with_a_minus(tmp_path, capsys):
    path = tmp_path / "elements.json"
    path.write_text(json.dumps(ORBIT_ELEMENTS))
    out = _both_forms(["orbit", "--elements", str(path)], "--epochs", "-3600,0", "",
                      tmp_path, capsys)
    assert [line.split(",")[0] for line in out.splitlines()] == ["t[s]", "-3600", "0"]


def test_shift_may_start_with_a_minus(tmp_path, capsys):
    out = _both_forms(["datum", "molodensky"], "--shift", "-168,-60,320",
                      "name,phi,lam,he\nA,40,10,0\n", tmp_path, capsys)
    assert out.splitlines()[1].startswith("A,40.000")


def test_receiver_may_start_with_a_minus(tmp_path, capsys):
    # five satellites 20 000 km above points around the receiver at 33 S, 9 E
    wgs84 = get_ellipsoid("wgs84")
    rows = "".join(
        f"S{i},{p.x!r},{p.y!r},{p.z!r}\n" for i, p in enumerate(
            geodetic_to_ecef(wgs84, GeodeticCoord(math.radians(phi), math.radians(lam), 2e7))
            for phi, lam in ((-33, 9), (-8, 9), (-58, 9), (-33, 39), (-33, -21))))
    out = _both_forms(["dop", "--angle-unit", "deg"], "--receiver", "-33,9",
                      "name,x,y,z\n" + rows, tmp_path, capsys)
    assert json.loads(out)["gdop"] > 0


class TestDatum:
    PAIRS = (
        "name,x1,y1,z1,x2,y2,z2\n"
        "1,4300244.860,1062094.681,4574775.629,4300245.018,1062094.592,4574775.510\n"
        "2,4277737.502,1115558.251,4582961.996,4277737.661,1115558.164,4582961.878\n"
        "3,4276816.431,1081197.897,4591886.356,4276816.590,1081197.809,4591886.238\n"
        "4,4315183.431,1135854.241,4542857.520,4315183.590,1135854.153,4542857.402\n"
        "5,4285934.717,1110917.314,4576361.689,4285934.876,1110917.227,4576361.571\n"
        "6,4217271.349,1193915.699,4618635.464,4217271.512,1193915.612,4618635.348\n"
        "7,4292630.700,1079310.256,4579117.105,4292630.858,1079310.168,4579116.986\n"
    )

    def test_fit_then_apply(self, tmp_path):
        fit = run_cli(["datum", "bw-fit"], stdin=self.PAIRS)
        assert fit.returncode == 0
        params = json.loads(fit.stdout)
        assert params["rms_m"] < 5e-3
        pfile = tmp_path / "bw.json"
        pfile.write_text(fit.stdout)
        out = run_cli(
            ["datum", "bw-apply", "--params", str(pfile)],
            stdin="name,x,y,z\n1,4300244.860,1062094.681,4574775.629\n",
        )
        _, x, y, z = out.stdout.splitlines()[1].split(",")
        assert float(x) == pytest.approx(4300245.018, abs=5e-3)
        assert float(y) == pytest.approx(1062094.592, abs=5e-3)
        assert float(z) == pytest.approx(4574775.510, abs=5e-3)

    def test_direct_estimator(self):
        out = run_cli(["datum", "bw-direct"], stdin=self.PAIRS)
        assert out.returncode == 0
        params = json.loads(out.stdout)
        # translations of the fit are decimetre level on this network
        assert abs(params["tx"]) < 2.0 and abs(params["tz"]) < 2.0
        assert abs(params["m"]) < 1e-6

    def test_direct_estimator_rejects_collinear_set_in_polynomial_time(self):
        # 40 points on one line: 780 chords and 79 million chord triples,
        # none of them solvable; an exhaustive triple scan would take hours,
        # so the run is killed and the test fails after 20 s
        from geodkit.coords import EcefCoord
        from geodkit.datum import BursaWolfParams, bursa_wolf_apply

        rng = np.random.default_rng(40)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        src = np.array([4.3e6, 1.1e6, 4.6e6]) + np.outer(np.sort(rng.uniform(0, 5e4, 40)), direction)
        shift = BursaWolfParams(12.0, -7.0, 4.0, 3e-6, 2e-6, -1e-6, 2.5e-6)
        lines = ["name,x1,y1,z1,x2,y2,z2"]
        for k, p in enumerate(src):
            q = bursa_wolf_apply(shift, EcefCoord(*p))
            lines.append(",".join([str(k), *map(repr, map(float, p)), repr(q.x), repr(q.y), repr(q.z)]))
        proc = run_cli(["datum", "bw-direct"], stdin="\n".join(lines) + "\n", timeout=20)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "numerical error: SingularRotationSystem: no chord triple yields a solvable system"]

    def test_direct_estimator_stops_a_long_scan(self):
        # 100 points 5 m off one 50 km line: no bound is certified out of
        # reach, so the chord triple scan runs until its cap of 2^17 triples
        rng = np.random.default_rng(100)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        src = (np.array([4.3e6, 1.1e6, 4.6e6]) + np.outer(rng.uniform(0, 5e4, 100), direction)
               + rng.normal(0.0, 5.0, (100, 3)))
        lines = ["name,x1,y1,z1,x2,y2,z2"]
        lines += [",".join([str(k), *map(repr, p.tolist()), *map(repr, (p + 10.0).tolist())])
                  for k, p in enumerate(src)]
        proc = run_cli(["datum", "bw-direct"], stdin="\n".join(lines) + "\n", timeout=20)
        assert proc.returncode == 3
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("numerical error: ScanLimitReached: ")
        assert line.endswith("fit this set by least squares (datum bw-fit)")

    @pytest.mark.parametrize("rows", [
        ["1e308,1e308,1e308", "-1e308,1e308,-1e308", "1e308,-1e308,-1e308",
         "-1e308,-1e308,1e308"],
        ["1e308,0,0", "-1e308,0,0", "4300244.860,1062094.681,4574775.629",
         "4277737.502,1115558.251,4582961.996", "4276816.431,1081197.897,4591886.356",
         "4315183.431,1135854.241,4542857.520"],
    ])
    def test_direct_estimator_rejects_overflowing_chords(self, rows):
        # the parent printed NaN parameters with exit 0 for the second set, and
        # OpenBLAS DLASCL errors on stdout for the first
        stdin = "name,x1,y1,z1,x2,y2,z2\n" + "".join(
            f"{k},{row},{row}\n" for k, row in enumerate(rows))
        proc = run_cli(["datum", "bw-direct"], stdin=stdin)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "numerical error: OverflowError: a chord or its length overflows"]

    def test_molodensky(self):
        out = run_cli(
            [
                "datum", "molodensky", "--ell", "clarke-1880-fr", "--ell2", "wgs84",
                "--shift=-263,6,431",
            ],
            stdin="name,phi[gr],lam[gr],he[m]\nP,40,11,200\n",
        )
        assert out.returncode == 0
        _, phi, lam, he = out.stdout.splitlines()[1].split(",")
        from geodkit.datum import apply_molodensky

        ref = apply_molodensky(
            get_ellipsoid("clarke-1880-fr"), get_ellipsoid("wgs84"),
            GeodeticCoord(40 * GR, 11 * GR, 200.0), (-263.0, 6.0, 431.0),
        )
        assert float(phi) == pytest.approx(ref.phi / GR, abs=1e-9)
        assert float(he) == pytest.approx(ref.he, abs=1e-4)

    # a point at a pole, where the longitude shift divides by cos(phi) ~ 6e-17:
    # such rows printed an arbitrary longitude or named a latitude past the
    # pole that the input never held
    @pytest.mark.parametrize("form", [[], ["--abridged"]], ids=["standard", "abridged"])
    @pytest.mark.parametrize("row", ["P,100,250,0", "Q,100,250.000001,0", "P,100,10,0",
                                     "P,-100,10,0"])
    def test_molodensky_at_a_pole_exits_3(self, row, form, tmp_path, capsys):
        code, err = _main_on(["datum", "molodensky", "--shift=-168,-60,320", *form],
                             f"name,phi,lam,he\nA,40,10,0\n{row}\n", tmp_path, capsys)
        assert code == 3
        assert err == "numerical error: PolarAxis: point too close to the polar axis\n"
        assert not (tmp_path / "out.csv").exists()

    def test_helmert2d(self, tmp_path):
        fit = run_cli(
            ["datum", "helmert2d-fit"],
            stdin=(
                "name,e1,n1,e2,n2\n"
                "1,0,0,100.0,50.0\n"
                "2,1000,0,1100.02,50.01\n"
                "3,0,1000,99.99,1050.02\n"
                "4,1000,1000,1100.01,1050.03\n"
            ),
        )
        doc = json.loads(fit.stdout)
        assert doc["scale"] == pytest.approx(1.0, abs=1e-4)
        pfile = tmp_path / "h.json"
        pfile.write_text(fit.stdout)
        out = run_cli(
            ["datum", "helmert2d-apply", "--params", str(pfile)],
            stdin="name,e,n\n1,0,0\n",
        )
        _, e, n = out.stdout.splitlines()[1].split(",")
        assert float(e) == pytest.approx(100.0, abs=0.05)
        assert float(n) == pytest.approx(50.0, abs=0.05)

    @pytest.mark.parametrize("rows", sorted(ONE_ROW_OR_NONE))
    def test_helmert2d_apply_rejects_a_zero_scale(self, rows, tmp_path, capsys):
        # u = v = 0 would map every point to (tx, ty)
        pfile = tmp_path / "h.json"
        pfile.write_text(json.dumps({"tx": 0, "ty": 0, "u": 0, "v": 0}))
        code, err = _main_on(["datum", "helmert2d-apply", "--params", str(pfile)],
                             "name,e,n" + ONE_ROW_OR_NONE[rows], tmp_path, capsys)
        assert code == 2
        assert err == "input error: ValueError: u = v = 0 is a zero scale, which has no inverse\n"


class TestAdjust:
    def test_linear_system_fixture(self, tmp_path):
        # triangle adjustment fixture solved through the CLI; the same
        # system solved in-process must agree exactly
        from test_adjust import triangle_system

        a_mat, l_vec, p = triangle_system()
        doc = {"a": a_mat.tolist(), "k": (-l_vec).tolist(), "p": p.tolist()}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["adjust", "--system", str(path)])
        assert proc.returncode == 0
        result = json.loads(proc.stdout)
        ref = solve_linear(LinearSystem(a_mat, -l_vec, p))
        np.testing.assert_allclose(result["x"], ref.x, atol=1e-12)
        assert result["x"] == pytest.approx([0.62928, -0.91003, 0.94574], abs=5e-5)
        assert result["s2"] == pytest.approx(ref.s2, rel=1e-12)

    def test_leveling_network_files(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text(
            "name,x0,y0,z0,fixed\nA,0,0,3.048,true\nB,0,0,3,false\n"
            "C,0,0,3,false\nD,0,0,3,false\n"
        )
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "kind,from,to,value,sigma,set_id,dist_km\n"
            "leveling,A,C,1.878,,,6.44\n"
            "leveling,A,D,3.831,,,3.22\n"
            "leveling,C,D,1.954,,,3.22\n"
            "leveling,A,B,0.332,,,6.44\n"
            "leveling,B,D,3.530,,,3.22\n"
            "leveling,B,C,1.545,,,6.44\n"
        )
        proc = run_cli(["adjust", "--obs", str(obs), "--points", str(points)])
        assert proc.returncode == 0
        result = json.loads(proc.stdout)
        assert result["points"]["B"]["z"] == pytest.approx(3.36780, abs=1e-5)
        assert result["points"]["C"]["z"] == pytest.approx(4.92540, abs=1e-5)
        assert result["points"]["D"]["z"] == pytest.approx(6.88540, abs=1e-5)


# numbers json writes in full: -0.0, subnormals, the largest double, NaN and Infinity
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]))


@st.composite
def adjustment_results(draw):
    """A result's x, v, s2, cov (None, 1 x 1 or r x r) and iterations, and
    points with any names."""
    r = draw(st.integers(1, 5))
    x = draw(arrays(float, r, elements=JSON_FLOATS))
    v = draw(arrays(float, r + draw(st.integers(0, 3)), elements=JSON_FLOATS))
    size = draw(st.sampled_from([None, 1, r]))
    cov = None if size is None else draw(arrays(float, (size, size), elements=JSON_FLOATS))
    s2 = None if cov is None else draw(JSON_FLOATS)
    points = draw(st.dictionaries(st.text(), st.fixed_dictionaries(
        {"x": JSON_FLOATS, "y": JSON_FLOATS, "z": JSON_FLOATS}), max_size=3))
    result = collections.namedtuple("Result", "x v s2 cov iterations")
    return result(x, v, s2, cov, draw(st.integers(0, 10))), points


class TestAdjustmentJson:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(adjustment_results())
    def test_parts_join_to_the_indented_dump(self, result):
        # the document geodkit adjust wrote whole, as json.dumps(..., indent=2)
        res, points = result
        whole = json.dumps({
            "points": points,
            "x": [float(v) for v in res.x],
            "v": [float(v) for v in res.v],
            "s2": res.s2,
            "cov": [[float(c) for c in row] for row in res.cov] if res.cov is not None else None,
            "iterations": res.iterations,
        }, indent=2)
        parts = cli._adjustment_json(res, points=points)
        assert "\n".join(parts) == whole
        assert "\n".join(parts) == whole  # a second pass, as perfbench's tracer makes

    def test_300_unknowns_to_a_file_and_to_stdout(self, tmp_path):
        # a chain of 301 heights, one fixed, and 302 random chords: cov is
        # 300 x 300, written a row at a time with the bytes of one dump
        rng = np.random.default_rng(22)
        n = 301
        h = rng.uniform(50.0, 150.0, n).tolist()
        (tmp_path / "points.csv").write_text("name,x,y,z,fixed\n" + "".join(
            f"P{i},0,0,{h[i] if i == 0 else 0.0!r},{int(i == 0)}\n" for i in range(n)))
        pairs = [(i, i + 1) for i in range(n - 1)]
        pairs += [tuple(rng.choice(n, 2, replace=False)) for _ in range(n + 1)]
        (tmp_path / "obs.csv").write_text("kind,from,to,value,sigma,set_id,dist_km\n" + "".join(
            f"leveling,P{i},P{j},{h[j] - h[i] + float(rng.normal(0.0, 1e-3))!r},,,1.0\n"
            for i, j in pairs))
        args = ["adjust", "--obs", str(tmp_path / "obs.csv"), "--points", str(tmp_path / "points.csv")]
        to_stdout = run_cli(args)
        to_file = run_cli([*args, "-o", str(tmp_path / "out.json")])
        assert to_stdout.returncode == to_file.returncode == 0
        assert to_file.stdout == ""
        assert (tmp_path / "out.json").read_text() == to_stdout.stdout
        doc = json.loads(to_stdout.stdout)
        assert to_stdout.stdout == json.dumps(doc, indent=2) + "\n"
        assert np.array(doc["cov"]).shape == (300, 300)
        assert len(doc["points"]) == n and len(doc["x"]) == 300


class TestOrbitDopHeightsAstro:
    def test_orbit_propagation(self, tmp_path):
        from geodkit.orbits import OrbitalElements, elements_to_eci

        el = {"a": 26560e3, "e": 0.01, "i": 0.9599, "raan": 0.4, "arg_perigee": 1.2}
        path = tmp_path / "el.json"
        path.write_text(json.dumps(el))
        proc = run_cli(
            ["orbit", "--elements", str(path), "--epochs", "0,3600", "--frame", "eci"]
        )
        rows = proc.stdout.splitlines()
        ref = elements_to_eci(
            OrbitalElements(a=el["a"], e=el["e"], i=el["i"], raan=el["raan"],
                            arg_perigee=el["arg_perigee"]),
            3600.0,
        )
        vals = list(map(float, rows[2].split(",")[1:]))
        np.testing.assert_allclose(vals, ref, atol=1e-3)
        # terrestrial frame at a given sidereal angle
        from geodkit.orbits import eci_to_ecef

        gst = 0.75
        proc = run_cli(
            ["orbit", "--elements", str(path), "--epochs", "3600",
             "--frame", "ecef", "--gst-rad", str(gst)]
        )
        vals = list(map(float, proc.stdout.splitlines()[1].split(",")[1:]))
        np.testing.assert_allclose(vals, eci_to_ecef(ref, gst).as_array(), atol=1e-3)

    def test_dop(self):
        stdin = (
            "name,x,y,z\n"
            "1,15600e3,7540e3,20140e3\n"
            "2,18760e3,2750e3,18610e3\n"
            "3,17610e3,14630e3,13480e3\n"
            "4,19170e3,610e3,18390e3\n"
            "5,17800e3,-12000e3,14000e3\n"
        )
        proc = run_cli(
            ["dop", "--receiver", "45,10,0", "--angle-unit", "deg", "--ell", "wgs84"],
            stdin=stdin,
        )
        if proc.returncode == 0:
            doc = json.loads(proc.stdout)
            assert doc["gdop"] ** 2 == pytest.approx(
                doc["pdop"] ** 2 + doc["tdop"] ** 2, rel=1e-9
            )
        else:
            assert proc.returncode == 3  # constellation may be unusable

    def test_heights(self):
        proc = run_cli(
            [
                "heights", "ortho", "--phi-start", "0.78", "--phi-end", "0.80",
                "--h-mean", "850", "--angle-unit", "rad",
            ],
            stdin="station,g_gal,dh_m\n1,979.5,0.625\n2,979.4,0.625\n",
        )
        assert proc.returncode == 0
        from geodkit.heights import LevelLine, orthometric_height

        ref = orthometric_height(
            LevelLine([(979.5, 0.625), (979.4, 0.625)], 0.78, 0.80, 850.0)
        )
        assert float(proc.stdout.strip()) == pytest.approx(ref, rel=1e-12)

    def test_astro(self):
        proc = run_cli(
            ["astro", "hour-angle", "--hsl", "6h37m19.72s", "--alpha", "2h13m52.90s"]
        )
        assert float(proc.stdout.strip()) == pytest.approx(
            4 + 23 / 60 + 26.82 / 3600, abs=1e-9
        )
        proc = run_cli(
            ["astro", "sidereal", "--tu", "21", "--hsg0", "20h35m28s",
             "--lam", "0h20m57s"]
        )
        assert float(proc.stdout.strip()) == pytest.approx(17.99776, abs=1e-4)


# -- the tracer's contract -----------------------------------------------------
# perfbench's CLI tracer books a call as kernel time only when it goes through
# a geodkit function bound in the geodkit.cli namespace; each columnar command
# must reach its array kernel there, once, and on valid rows nothing else
FWD = ["40,10", "41,11", "39,9.5"]
COLUMNAR_CASES = [
    (["convert", "--from", "geodetic", "--to", "ecef"], ["40,10,0", "41,11,100", "39,9.5,200"]),
    (["convert", "--from", "ecef", "--to", "geodetic"],
     ["4e6,1e6,4.8e6", "4.1e6,1e6,4.7e6", "3.9e6,1.1e6,4.9e6"]),
    (["project", "fwd", "--proj", "lambert-nord-tn"], FWD),
    (["project", "inv", "--proj", "lambert-nord-tn"],
     ["500000,300000", "510000,310000", "490000,290000"]),
    (["project", "fwd", "--proj", "utm:32"], FWD),
    (["project", "inv", "--proj", "utm:32"],
     ["500000,4500000", "510000,4510000", "490000,4490000"]),
    (["geodesic", "direct"], ["40,10,50,10000", "41,11,150,20000", "39,9.5,250,5000"]),
    (["geodesic", "inverse"], ["40,10,40.1,10.1", "41,11,40.9,11.2", "39,9.5,39.2,9.4"]),
]


def _counted(fn, name, calls):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _columnar_calls(args, rows, tmp_path, monkeypatch) -> collections.Counter:
    """The calls of each geodkit function bound in the geodkit.cli namespace
    as args runs on rows."""
    calls = collections.Counter()
    for name, value in list(vars(cli).items()):
        if (callable(value) and not isinstance(value, type)
                and getattr(value, "__module__", "").startswith("geodkit.")
                and value.__module__ != "geodkit.cli"):
            monkeypatch.setattr(cli, name, _counted(value, name, calls))
    path = tmp_path / "in.csv"
    path.write_text("h" + ",h" * rows[0].count(",") + "\n"
                    + "".join(f"P{i},{row}\n" for i, row in enumerate(rows)))
    assert cli.main([*args, "-i", str(path), "-o", str(tmp_path / "out.csv")]) == 0
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 4
    return calls


@pytest.mark.parametrize("args,rows", COLUMNAR_CASES, ids=[" ".join(a) for a, _ in COLUMNAR_CASES])
def test_columnar_command_calls_one_kernel_through_the_cli_namespace(args, rows, tmp_path,
                                                                      monkeypatch):
    monkeypatch.setattr(cli, "_SCALAR_ROWS", 0)  # three rows down the array path
    calls = _columnar_calls(args, rows, tmp_path, monkeypatch)
    kernels = {k: n for k, n in calls.items() if k.endswith(("_array", "_columns"))}
    assert list(kernels.values()) == [1], calls
    assert set(calls) - set(kernels) <= {"get_ellipsoid", "named_projection"}, calls


@pytest.mark.parametrize("args,rows", COLUMNAR_CASES, ids=[" ".join(a) for a, _ in COLUMNAR_CASES])
def test_small_columnar_input_calls_the_scalar_api_once_a_row_through_the_cli_namespace(
        args, rows, tmp_path, monkeypatch):
    # three rows are a small input: no array kernel, one scalar API call a row
    calls = _columnar_calls(args, rows, tmp_path, monkeypatch)
    assert not [k for k in calls if k.endswith(("_array", "_columns"))], calls
    scalar = {k: n for k, n in calls.items() if k not in ("get_ellipsoid", "named_projection")}
    assert list(scalar.values()) == [len(rows)], calls


# a field longer than csv.field_size_limit() is an input error naming its data
# row, in every CSV reader; it once escaped as _csv.Error with a traceback
LONG_FIELD = "9" * (131072 + 1)


@pytest.mark.parametrize("args,rows", [
    (["convert", "--from", "geodetic", "--to", "ecef", "-i", "IN"],
     "n,phi,lam,he\nA,40,10,0\nB,LONG,10,0\n"),
    # a quoted field that spans lines takes the slower reader
    (["convert", "--from", "geodetic", "--to", "ecef", "-i", "IN"],
     'n,phi,lam,he\nA,40,10,0\n"B\nC",1,LONG,0\n'),
    (["adjust", "--obs", "OBS", "--points", "IN"],
     "n,x0,y0,z0,fixed\nA,0,0,0,1\nB,LONG,0,0,0\n"),
])
def test_field_over_the_csv_limit_exits_2_naming_the_row(args, rows, tmp_path):
    (tmp_path / "IN").write_text(rows.replace("LONG", LONG_FIELD))
    (tmp_path / "OBS").write_text("kind,from,to,value\nleveling,A,B,1.5\n")
    proc = run_cli([str(tmp_path / a) if a in ("IN", "OBS") else a for a in args])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("input error: ValueError: data row 2: "
                           "field larger than field limit (131072)\n")


@pytest.mark.parametrize("quoted", [
    'n,x,y,z\n# a "note" LONG\nA,4300244.86,1062094.681,4574775.629\n',
    'n,x,y,z\n# a note LONG\n"A",4300244.86,1062094.681,4574775.629\n',
    'n,x,y,z\n#x,"a note LONG\nover two lines"\nA,4300244.86,1062094.681,4574775.629\n',
], ids=["quote in the comment", "quoted name", "comment over two lines"])
def test_comment_over_the_csv_limit_is_dropped_with_or_without_quotes(quoted, tmp_path):
    # a quote sends the input to csv.reader, which once parsed the comment
    plain = "n,x,y,z\n# a note LONG\nA,4300244.86,1062094.681,4574775.629\n"
    outs = []
    for name, text in (("plain", plain), ("quoted", quoted)):
        (tmp_path / name).write_text(text.replace("LONG", LONG_FIELD))
        outs.append(run_cli(["convert", "--from", "ecef", "--to", "geodetic",
                             "-i", str(tmp_path / name)]))
    assert [proc.returncode for proc in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout and outs[0].stdout.count("\n") == 2


def test_importing_the_cli_loads_no_module_of_another_command():
    # convert, project and geodesic run on what `import geodkit.cli` loads;
    # every other command imports its own module when it runs
    code = "import sys, geodkit.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "geodkit.cli" in loaded
    deferred = {f"geodkit.{m}" for m in ("adjust", "datum", "heights", "orbits", "reductions",
                                         "sphere")}
    assert deferred.isdisjoint(loaded), sorted(deferred & set(loaded))
    # numpy stays a lazy module, and none of its submodules (numpy._core, ...) loads
    assert not [m for m in loaded if m.startswith("numpy.")], loaded
    # before 3.12 inspect is a stand-in that loads on first use; each use runs
    # in its own interpreter, so its first attribute goes through the stand-in
    for use, loads in STAND_IN_USES:
        code = STAND_IN_CHECK.format(use=use, loads=loads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, (use, proc.stderr)


# imports the CLI in a fresh interpreter, checks that inspect is a stand-in not
# loaded yet (from 3.12 dataclasses loads it at the first value type) without
# asking it for an attribute, runs one use, and checks that sys.modules then
# holds the real module if the use loads it (numpy may, as 2.x does), whose
# attributes the stand-in reads
STAND_IN_CHECK = """
import sys, types
import geodkit.cli
from geodkit.coords import GeodeticCoord
stand_in = sys.modules["inspect"]
if sys.version_info < (3, 12):
    assert type(stand_in) is geodkit.cli._OnFirstUse and "__file__" not in vars(stand_in)
    assert stand_in.__spec__.name == "inspect" and stand_in.__spec__.origin.endswith("inspect.py")
{use}
module = sys.modules["inspect"]
assert module is not stand_in or not {loads}
assert type(module) is types.ModuleType or module is stand_in
if module is not stand_in:
    assert module.__file__.endswith("inspect.py") and stand_in.signature is module.signature
"""
STAND_IN_USES = [
    ("from inspect import signature; assert str(signature(len)) == '(obj, /)'", True),
    ("import inspect; assert str(inspect.signature(len)) == '(obj, /)'", True),
    ("import dataclasses; c = GeodeticCoord(0.5, 0.25, 10.0)\n"
     "assert dataclasses.astuple(c) == (0.5, 0.25, 10.0)\n"
     "assert dataclasses.asdict(c) == {'phi': 0.5, 'lam': 0.25, 'he': 10.0}", False),
    # a dataclass without a docstring gets the one dataclasses writes
    ("import dataclasses\n@dataclasses.dataclass\nclass P:\n    x: int\n    y: str = ''\n"
     "assert P.__doc__ == \"P(x: int, y: str = '')\", P.__doc__", True),
    ("import numpy\nassert numpy.linalg.solve([[2.0, 0.0], [0.0, 4.0]], [1.0, 1.0]).tolist() == "
     "[0.5, 0.25]", False),
    # a patch of the real module shows through the stand-in that dataclasses
    # holds, and a patch through the stand-in reaches the real module
    ("import dataclasses\nfrom unittest import mock\nf = lambda *args: None\n"
     "with mock.patch('inspect.signature', f):\n    assert dataclasses.inspect.signature is f\n"
     "with mock.patch.object(dataclasses.inspect, 'signature', f):\n"
     "    assert sys.modules['inspect'].signature is f\n"
     "assert dataclasses.inspect.signature is sys.modules['inspect'].signature is not f", True),
]


# imports the CLI in a fresh interpreter whose path finder finds no numpy
HIDDEN_NUMPY_IMPORT = """
import sys
from importlib.machinery import PathFinder

class NoNumpy(PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name.partition(".")[0] != "numpy":
            return super().find_spec(name, path, target)

sys.meta_path[:] = [NoNumpy if f is PathFinder else f for f in sys.meta_path]
import geodkit.cli
"""


def test_without_numpy_the_import_names_numpy():
    # the lazy loader once took find_spec's None as a spec and raised
    # AttributeError: 'NoneType' object has no attribute 'loader'
    proc = subprocess.run([sys.executable, "-c", HIDDEN_NUMPY_IMPORT], capture_output=True,
                          text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"
    assert "AttributeError" not in proc.stderr


# runs the CLI in a fresh interpreter, then names on stderr the numpy
# modules it loaded
NUMPY_REPORTING_MAIN = """
import sys
from geodkit import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print("numpy modules:", *sorted(m for m in sys.modules if m.startswith("numpy.")), file=sys.stderr)
sys.exit(code)
"""
SHORT_INPUTS = {
    "geo.csv": "name,phi,lam,he[m]\nA,40.9193,11.9656,0\nB,41,11,100\nC,39,9.5,2000\n",
    "ecef.csv": "name,x[m],y[m],z[m]\nA,4e6,1e6,4.8e6\nB,4.1e6,1e6,4.7e6\nC,6378137,0,0\n",
    "geo2.csv": "name,phi,lam\nA,40,10\nB,41,11\nC,39,9.5\n",
    "lambert.csv": "name,e[m],n[m]\nA,500000,300000\nB,510000,310000\nC,490000,290000\n",
    "utm.csv": "name,e[m],n[m]\nA,500000,4500000\nB,510000,4510000\nC,490000,4490000\n",
    "direct.csv": "name,phi1,lam1,az1,s[m]\nA,40,10,50,10000\nB,41,11,150,20000\n",
    "inverse.csv": "name,phi1,lam1,phi2,lam2\nA,40,10,40.1,10.1\nB,41,11,40.9,11.2\n",
    "reduce.csv": "name,dp,ha,hb\nA,1000,100,120\nB,20000,1500,1600\n",
    "line.csv": "station,g_gal,dh_m\nA,979.8,1.5\nB,979.9,-2.25\n",
    "plane.csv": "name,e[m],n[m]\nA,500000,300000\nB,0,0\n",
    "proj.json": '{"type": "lambert", "ellipsoid": {"a": 6378249.2, "inv_f": 293.4660213},'
                 ' "phi0_rad": 0.6283185307, "lam0_rad": 0.1727875959, "k0": 0.999625544,'
                 ' "false_e": 500000.0, "false_n": 300000.0}',
    "params.json": '{"tx": -168.0, "ty": -60.0, "tz": 320.0, "m": 1.2e-6, "rx": 1e-6,'
                   ' "ry": -2e-6, "rz": 3e-6, "u": 1.00001, "v": 2e-5}',
    "short.csv": "name,phi,lam,he[m]\nP0,40.1,10.2,5\nP1,40.1\n",
    "polar.csv": "name,x,y,z\nP0,4000000,800000,4900000\nP1,0,0,6356752.3\n",
    "nonnum.csv": "name,phi,lam,he[m]\nP0,40.1,10.2,5\nP1,40.3,abc,0\n",
    "elements.json": '{"a": 26560e3, "e": 0.01, "i": 0.9599, "raan": 0.4, "arg_perigee": 1.2}',
}
NO_NUMPY_CASES = [
    (["convert", "--from", "geodetic", "--to", "ecef", "-i", "geo.csv"], 0),
    (["convert", "--from", "ecef", "--to", "geodetic", "-i", "ecef.csv"], 0),
    (["project", "fwd", "-i", "geo2.csv"], 0),
    (["project", "inv", "-i", "lambert.csv"], 0),
    (["project", "fwd", "--proj", "utm:32", "-i", "geo2.csv"], 0),
    (["project", "inv", "--proj", "utm:32", "-i", "utm.csv"], 0),
    (["project", "fwd", "--proj-json", "proj.json", "-i", "geo2.csv"], 0),
    (["project", "inv", "--proj-json", "proj.json", "-i", "lambert.csv"], 0),
    (["geodesic", "direct", "-i", "direct.csv"], 0),
    (["geodesic", "inverse", "-i", "inverse.csv"], 0),
    (["reduce", "--rigorous", "--scale", "1.0002", "-i", "reduce.csv"], 0),
    (["datum", "bw-apply", "--params", "params.json", "-i", "ecef.csv"], 0),
    (["datum", "molodensky", "--shift=-168,-60,320", "-i", "geo.csv"], 0),
    (["datum", "helmert2d-apply", "--params", "params.json", "-i", "plane.csv"], 0),
    (["heights", "ortho", "--phi-start", "40", "--phi-end", "41", "--h-mean", "500", "-i",
      "line.csv"], 0),
    (["heights", "normal", "--phi-start", "40", "--phi-end", "41", "--h-mean", "500", "-i",
      "line.csv"], 0),
    (["heights", "dynamic", "-i", "line.csv"], 0),
    (["astro", "hour-angle", "--hsl", "3h10m", "--alpha", "1h2m3s"], 0),
    (["astro", "hsl", "--hsg", "5h", "--lam", "0h40m"], 0),
    (["astro", "sidereal", "--tu", "12.5", "--hsg0", "6h", "--lam", "0h40m"], 0),
    (["orbit", "--elements", "elements.json", "--epochs", "0,3600,7200", "--frame", "eci"], 0),
    (["orbit", "--elements", "elements.json", "--epochs", "0,3600,7200", "--frame", "ecef",
      "--gst-rad", "0.75", "--spin"], 0),
    (["--version"], 0),
    (["--help"], 0),
    (["--list-ellipsoids"], 0),
    (["--list-projections"], 0),
    # the malformed calls of the benchmark's short workload
    (["project", "inv", "-i", "short.csv"], 2),
    (["convert", "--from", "geodetic", "--to", "ecef", "-i", "short.csv"], 2),
    (["convert", "--from", "ecef", "--to", "geodetic", "-i", "polar.csv"], 3),
    (["geodesic", "direct", "--ell", "ell-abcdef", "-i", "direct.csv"], 2),
    (["convert", "--from", "geodetic", "--to", "ecef", "-i", "nonnum.csv"], 2),
]


@pytest.mark.parametrize("args,code", NO_NUMPY_CASES, ids=[" ".join(a) for a, _ in NO_NUMPY_CASES])
def test_a_short_command_loads_no_numpy(args, code, tmp_path):
    # a few rows run through the scalar API, in a fresh interpreter
    for name, text in SHORT_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in SHORT_INPUTS else a for a in args]
    proc = subprocess.run([sys.executable, "-c", NUMPY_REPORTING_MAIN, *argv],
                          capture_output=True, text=True)
    *lines, numpy = proc.stderr.splitlines()
    assert proc.returncode == code and len(lines) == (code != 0), proc.stderr
    assert numpy == "numpy modules:", numpy
    assert proc.stdout if code == 0 else not proc.stdout


def test_a_short_command_on_stdin_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", NUMPY_REPORTING_MAIN, "convert", "--from",
                           "geodetic", "--to", "ecef"], input=SHORT_INPUTS["geo.csv"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "numpy modules:\n")
    assert proc.stdout.count("\n") == 4


CONVERT = ["convert", "--from", "geodetic", "--to", "ecef"]


@pytest.fixture(scope="module")
def rows_50k(tmp_path_factory):
    """A 50 000-row geodetic CSV and the output of cli.main on it in-process."""
    rng = np.random.default_rng(50)
    path = tmp_path_factory.mktemp("exit") / "in.csv"
    with open(path, "w") as fh:
        fh.write("name,phi,lam,he\n")
        for i, (phi, lam, he) in enumerate(zip(rng.uniform(-99, 99, 50_000).tolist(),
                                               rng.uniform(-199, 199, 50_000).tolist(),
                                               rng.uniform(-100, 3000, 50_000).tolist())):
            fh.write(f"P{i},{phi!r},{lam!r},{he!r}\n")
    out = path.with_name("main.csv")
    assert cli.main([*CONVERT, "-i", str(path), "-o", str(out)]) == 0
    return path, out.read_bytes()


def stdout_env(buffered: bool) -> dict:
    """The environment with stdout block-buffered, or unbuffered (-u)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_process_exit_keeps_every_byte(buffered, rows_50k, tmp_path):
    # python -m geodkit.cli ends with os._exit: stdout must be flushed and the
    # output file closed before it
    path, want = rows_50k
    for out in (None, tmp_path / "out.csv"):
        proc = subprocess.run([sys.executable, "-m", "geodkit.cli", *CONVERT, "-i", str(path),
                               *(["-o", str(out)] if out else [])],
                              capture_output=True, env=stdout_env(buffered))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (out.read_bytes() if out else proc.stdout) == want


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_reader_that_closes_the_pipe_early_gets_exit_2_and_one_line(buffered, rows_50k):
    proc = subprocess.Popen([sys.executable, "-m", "geodkit.cli", *CONVERT, "-i",
                             str(rows_50k[0])], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=stdout_env(buffered))
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.count("\n") == 1 and err.startswith("input error: BrokenPipeError: "), err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_flush_that_fails_exits_2_naming_the_error(tmp_path):
    # with stdout buffered the rows are written to the buffer and only the
    # flush at the exit fails, which the interpreter's teardown reported as
    # "Exception ignored" with exit 120
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "geodkit.cli", *CONVERT],
                              input="name,phi,lam,he\nA,40,10,0\n", stdout=full,
                              stderr=subprocess.PIPE, text=True, env=stdout_env(True))
    assert proc.returncode == 2
    assert proc.stderr == "input error: OSError: [Errno 28] No space left on device\n"


# the listings, and what argparse prints before it exits
LISTINGS = ["--list-ellipsoids", "--list-projections", "--version", "--help"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("option", LISTINGS)
def test_listing_to_a_full_disk_exits_2_naming_the_error(option, buffered):
    # a listing that cannot be written fails as a command's output does
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "geodkit.cli", option], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=stdout_env(buffered))
    assert proc.returncode == 2
    assert proc.stderr == "input error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("option", LISTINGS)
def test_listing_into_a_closed_pipe_exits_2_naming_the_error(option, buffered):
    read, write = os.pipe()
    os.close(read)  # closed before the listing is written, so every write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "geodkit.cli", option], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=stdout_env(buffered))
    finally:
        os.close(write)
    assert proc.returncode == 2
    err = proc.stderr
    assert err.count("\n") == 1 and err.startswith("input error: BrokenPipeError: "), err


@pytest.mark.parametrize("argv,code,out,err", [
    (["--version"], 0, f"geodkit {cli.__version__}\n", ""),
    (["convert", "--from", "ecef"], 2, "", "error: the following arguments are required: --to"),
], ids=["version", "usage-error"])
def test_argparse_exits_return_from_main(argv, code, out, err, capsys):
    # --help, --version and usage errors return their code from main(), so
    # run() ends them with os._exit too
    assert cli.main(argv) == code
    got = capsys.readouterr()
    assert got.out == out and err in got.err


COMMANDS = ["convert", "project", "geodesic", "reduce", "datum", "adjust", "orbit", "dop",
            "heights", "astro"]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_parser_with_one_subcommands_arguments_gives_its_help(command, capsys):
    def help_text(ap):
        with pytest.raises(SystemExit):
            ap.parse_args([command, "--help"])
        return capsys.readouterr()

    assert help_text(cli.build_parser(command)) == help_text(cli.build_parser())
    # every other subcommand is declared with no arguments
    other = COMMANDS[COMMANDS.index(command) - 1]
    assert cli.build_parser(command).parse_args([other]).command == other


@pytest.mark.parametrize("argv,command", [
    (["--help"], None), (["--version"], None), (["--list-projections"], None), ([], None),
    (["frobnicate", "-i", "x.csv"], "frobnicate"), (["convert", "--to", "ecef"], "convert"),
    (["-h", "astro"], "astro"), (["--", "orbit"], "orbit"), (["-1", "dop"], "dop"),
    (["datum", "bw-fit", "--bogus"], "datum"), (["heights", "--help"], "heights"),
])
def test_declaring_one_subcommands_arguments_changes_no_text(argv, command, monkeypatch,
                                                             capsys):
    # main() builds the parser for the first token that is no option; a
    # parser of every subcommand's arguments prints the same and exits alike
    narrowed = cli.main(argv), capsys.readouterr()
    full, commands = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: commands.append(command) or full())
    assert (cli.main(argv), capsys.readouterr()) == narrowed
    assert commands == [command]


def test_version_ends_without_the_interpreter_teardown():
    # an atexit handler runs only in the interpreter's usual exit
    proc = subprocess.run([sys.executable, "-c", "import atexit, sys; atexit.register(print, "
                           "'teardown', file=sys.stderr); sys.argv[1:] = ['--version']; "
                           "from geodkit.cli import run; run()"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"geodkit {cli.__version__}\n", "")


# the self-contained `printf ... | geodkit ...` examples of README.md, each
# followed there by its output as "#   " comment lines
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list:
    """(stdin, argv, documented output lines) of each piped README example."""
    lines = README.read_text().splitlines()
    return [(line[len("printf '"):line.rindex("'")].replace("\\n", "\n"),
             lines[i + 1].split()[1:],
             [out[4:] for out in itertools.takewhile(lambda s: s.startswith("#   "),
                                                     lines[i + 2:])])
            for i, line in enumerate(lines) if line.startswith("printf '")]


def test_readme_pipes_convert_project_geodesic_and_reduce():
    assert [argv[0] for _, argv, _ in readme_examples()] == [
        "convert", "project", "geodesic", "reduce"]


@pytest.mark.parametrize("text, argv, documented",
                         [pytest.param(*case, id=case[1][0]) for case in readme_examples()])
def test_readme_example_prints_its_documented_lines(text, argv, documented):
    proc = run_cli(argv, stdin=text)
    assert proc.returncode == 0 and proc.stderr == ""
    header, line = documented
    got = proc.stdout.splitlines()
    assert len(got) == 2 and got[0] == header
    (name, *values), (doc_name, *doc_values) = got[1].split(","), line.split(",")
    assert name == doc_name
    assert list(map(float, values)) == pytest.approx(list(map(float, doc_values)), rel=1e-9)


ECEF_INPUT = "name,x[m],y[m],z[m]\nA,4000000,1000000,4800000\n"
CONVERT_ECEF = "convert --from ecef --to geodetic"
CLOSED = "input error: OSError: [Errno 9] {} is closed\n"
# (shell arguments after python -m geodkit.cli, {d} standing for a directory
# with in.csv and polar.csv, exit code, stderr): a command that needs a
# closed stdin or stdout exits 2 with one line; a closed stderr, or one that
# takes no writes (open for reading), leaves the exit code as it was
CLOSED_STREAMS = {
    "stdin": (f"{CONVERT_ECEF} <&-", 2, CLOSED.format("stdin")),
    "stdin-file-input": (f"{CONVERT_ECEF} -i {{d}}/in.csv -o {{d}}/out.csv <&-", 0, ""),
    "stdout-file-output": (f"{CONVERT_ECEF} -i {{d}}/in.csv -o {{d}}/out.csv >&-", 0, ""),
    "stdout": (f"{CONVERT_ECEF} -i {{d}}/in.csv >&-", 2, CLOSED.format("stdout")),
    "stdout-version": ("--version >&-", 2, CLOSED.format("stdout")),
    "stdout-listing": ("--list-ellipsoids >&-", 2, CLOSED.format("stdout")),
    "stdout-usage-error": ("convert >&-", 2, "the following arguments are required"),
    "stderr-input-error": (f"{CONVERT_ECEF} -i {{d}}/missing.csv 2>&-", 2, ""),
    "stderr-numerical-error": (f"{CONVERT_ECEF} -i {{d}}/polar.csv 2>&-", 3, ""),
    "stderr-usage-error": ("convert 2>&-", 2, ""),
    "stderr-no-command": ("2>&-", 2, ""),
    "stderr-success": (f"{CONVERT_ECEF} -i {{d}}/in.csv -o {{d}}/out.csv 2>&-", 0, ""),
    "stderr-read-only": (f"{CONVERT_ECEF} -i {{d}}/missing.csv 2</dev/null", 2, ""),
    "stderr-read-only-numerical": (f"{CONVERT_ECEF} -i {{d}}/polar.csv 2</dev/null", 3, ""),
}


@pytest.mark.parametrize("case", sorted(CLOSED_STREAMS))
def test_a_closed_standard_stream_exits_with_a_documented_code(case, tmp_path):
    args, code, err = CLOSED_STREAMS[case]
    (tmp_path / "in.csv").write_text(ECEF_INPUT)
    (tmp_path / "polar.csv").write_text("name,x[m],y[m],z[m]\nN,0,0,0\n")
    proc = subprocess.run(["sh", "-c", f'exec "$0" -m geodkit.cli {args.format(d=tmp_path)}',
                           sys.executable], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    if case == "stdout-usage-error":  # argparse's usage text, and no line of ours
        assert err in proc.stderr and "OSError" not in proc.stderr
    else:
        assert proc.stderr == err
    if "out.csv" in args:
        expected = run_cli(CONVERT_ECEF.split(), stdin=ECEF_INPUT).stdout
        assert (tmp_path / "out.csv").read_text() == expected
