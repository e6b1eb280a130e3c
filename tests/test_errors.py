"""The error taxonomy and the CLI's exit-code contract.

Every exception class in geodkit is a NumericalError (an ArithmeticError),
so the CLI exits 3 on it; malformed input raises ValueError, KeyError or
OSError and exits 2.  No input may make the CLI exit otherwise.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodkit
from geodkit import adjust, cli, coords, core, datum, geodesics, orbits, projections, sphere
from geodkit.core import NumericalError

# every exception class in geodkit, with the builtin base it had before
# NumericalError existed
ERROR_CLASSES = {
    core.NonConvergence: RuntimeError,
    coords.PolarAxis: ValueError,
    sphere.DegenerateTriangle: ValueError,
    geodesics.PolarGeodesic: ValueError,
    geodesics.VertexExceeded: ValueError,
    geodesics.AntipodalUnsupported: ValueError,
    projections.ApexSingularity: ValueError,
    projections.OutOfZone: ValueError,
    datum.InsufficientPoints: ValueError,
    datum.RankDeficient: ValueError,
    datum.SingularRotationSystem: ValueError,
    datum.ZeroSpread: ValueError,
    datum.ScanLimitReached: RuntimeError,  # newer than NumericalError; a cap, as NonConvergence
    adjust.SingularNormal: ValueError,
    adjust.CoincidentPoints: ValueError,
    adjust.SingularJacobian: ValueError,
    adjust.SingularHessian: ValueError,
    adjust.IndefiniteHessian: ValueError,
    adjust.NoDescent: RuntimeError,
    adjust.MaxIterations: RuntimeError,
    adjust.SingularGeometry: ValueError,
}


def _defined_exception_classes():
    found = set()
    for info in pkgutil.iter_modules(geodkit.__path__):
        module = importlib.import_module(f"geodkit.{info.name}")
        for value in vars(module).values():
            if (inspect.isclass(value) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                found.add(value)
    return found


def test_every_error_class_is_numerical_and_keeps_its_builtin_base():
    assert _defined_exception_classes() == set(ERROR_CLASSES) | {NumericalError}
    for cls, builtin in ERROR_CLASSES.items():
        assert issubclass(cls, NumericalError) and issubclass(cls, ArithmeticError)
        assert issubclass(cls, builtin), cls
        with pytest.raises(builtin):
            raise cls("still caught by its old base")


def run(argv, tmp_path, text=None):
    """Exit code of cli.main in-process, reading `text` from the file named
    by the argument "IN", or from --input when there is none."""
    if text is not None:
        path = str(tmp_path / "in.csv")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [path if a == "IN" else a for a in argv] if "IN" in argv else [*argv, "-i", path]
    return cli.main([*argv, "-o", os.devnull])


# each CSV-reading command with a header and one valid data row; the
# second data row is cut to its first two fields
SHORT_ROW_CASES = {
    "convert fwd": (["convert", "--from", "geodetic", "--to", "ecef"], "n,phi,lam,he\nA,40,10,0\n"),
    "convert inv": (["convert", "--from", "ecef", "--to", "geodetic"],
                    "n,x,y,z\nA,4e6,1e6,4.8e6\n"),
    "project fwd": (["project", "fwd"], "n,phi,lam\nA,40,10\n"),
    "project inv": (["project", "inv"], "n,e,n\nA,600000,200000\n"),
    "geodesic direct": (["geodesic", "direct"], "n,phi,lam,az,s\nA,40,10,50,10000\n"),
    "geodesic inverse": (["geodesic", "inverse"], "n,phi1,lam1,phi2,lam2\nA,40,10,40.1,10.1\n"),
    "reduce": (["reduce"], "n,dp,ha,hb\nA,1000,10,20\n"),
    "datum bw-fit": (["datum", "bw-fit"], "n,x1,y1,z1,x2,y2,z2\nA,1,2,3,1,2,3\n"),
    "datum bw-direct": (["datum", "bw-direct"], "n,x1,y1,z1,x2,y2,z2\nA,1,2,3,1,2,3\n"),
    "datum bw-apply": (["datum", "bw-apply", "--params", "PARAMS"], "n,x,y,z\nA,4e6,1e6,4.8e6\n"),
    "datum molodensky": (["datum", "molodensky"], "n,phi,lam,he\nA,40,10,0\n"),
    "datum helmert2d-fit": (["datum", "helmert2d-fit"], "n,e1,n1,e2,n2\nA,1,2,1,2\n"),
    "datum helmert2d-apply": (["datum", "helmert2d-apply", "--params", "PARAMS"],
                              "n,e,n\nA,1,2\n"),
    "adjust --obs": (["adjust", "--points", "POINTS", "--obs", "IN"], "kind,from,to,value\n"
                     "leveling,A,B,1.5\n"),
    "adjust --points": (["adjust", "--obs", "OBS", "--points", "IN"],
                        "n,x0,y0,z0,fixed\nA,0,0,0,1\n"),
    "dop": (["dop", "--receiver", "40,10"], "n,x,y,z\nA,2e7,0,0\n"),
    "heights": (["heights", "ortho"], "n,g,dh\nA,980,1.5\n"),
}


@pytest.mark.parametrize("case", sorted(SHORT_ROW_CASES))
def test_short_row_exits_2_and_names_the_row(case, tmp_path, capsys):
    argv, text = SHORT_ROW_CASES[case]
    files = {
        "PARAMS": json.dumps({"tx": 0, "ty": 0, "tz": 0, "m": 0, "rx": 0, "ry": 0, "rz": 0,
                              "u": 1, "v": 0}),
        "POINTS": "n,x0,y0,z0,fixed\nA,0,0,0,1\nB,0,0,0,0\n",
        "OBS": "kind,from,to,value\nleveling,A,B,1.5\n",
    }
    for key, content in files.items():
        (tmp_path / key).write_text(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    short = text.splitlines()[1].split(",")[:2]
    assert run(argv, tmp_path, text + ",".join(short) + "\n") == 2
    err = capsys.readouterr().err
    assert "data row 2: expected at least" in err and "got 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,needs", [
    (["dop", "--receiver", "40", "-i", "SATS"], "--receiver"),
    (["astro", "sidereal", "--hsg0", "1h"], "--tu"),
    (["astro", "hour-angle", "--hsl", "1h"], "--alpha"),
    (["datum", "bw-apply", "-i", "SATS"], "--params"),
])
def test_malformed_option_exits_2_and_names_it(argv, needs, tmp_path, capsys):
    (tmp_path / "SATS").write_text("n,x,y,z\nA,2e7,0,0\n")
    argv = [str(tmp_path / a) if a == "SATS" else a for a in argv]
    assert run(argv, tmp_path) == 2
    assert needs in capsys.readouterr().err


@pytest.mark.parametrize("argv,text", [
    (["project", "inv", "--proj", "utm:32"], "n,e,n\nA,1e300,0\n"),
    (["geodesic", "direct"], "n,phi,lam,az,s\nA,40,10,50,1e300\n"),
    (["heights", "ortho"], "n,g,dh\nA,980,1e308\nB,980,1e308\n"),
    (["heights", "dynamic"], "n,g,dh\nA,1e300,1e300\n"),
    (["heights", "normal"], "n,g,dh\nA,1e300,1e300\nB,1e300,-1e300\n"),
    (["reduce", "--scale", "1e300"], "n,dp,ha,hb\nA,1e100,0,0\n"),
    # each case below once exited 2 with a ValueError, the first after
    # numpy's RuntimeWarning
    (["datum", "bw-apply", "--params", '{"tx":0,"ty":0,"tz":0,"m":1e-4,"rx":0,"ry":0,"rz":0}'],
     "n,x,y,z\nB,1.7976e308,0,0\n"),
    (["datum", "helmert2d-apply", "--params", '{"tx":0,"ty":0,"u":1,"v":1}'],
     "n,e,n\nB,1.79e308,1.79e308\n"),
])
def test_overflow_exits_3(argv, text, tmp_path, capsys):
    argv = list(argv)
    for i, arg in enumerate(argv):  # a JSON argument stands for a file holding it
        if arg.startswith("{"):
            (tmp_path / "params.json").write_text(arg)
            argv[i] = str(tmp_path / "params.json")
    assert run(argv, tmp_path, text) == 3
    err = capsys.readouterr().err
    assert "numerical error: OverflowError" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv,text", [
    (["geodesic", "inverse"], "n,phi1,lam1,phi2,lam2\nA,nan,200,40,10\n"),
    (["convert", "--from", "ecef", "--to", "geodetic"], "n,x,y,z\nA,nan,1e6,1e6\n"),
    (["project", "inv"], "n,e,n\nA,inf,200000\n"),
    # each case below once printed nan or inf and exited 0
    (["geodesic", "direct", "--angle-unit", "deg"], "n,phi,lam,az,s\nP,0,0,90,nan\n"),
    (["geodesic", "direct"], "n,phi,lam,az,s\nP,40,10,50,inf\n"),
    # a non-finite azimuth exited 0 (zero length), 2 or 3 (NonConvergence)
    (["geodesic", "direct"], "n,phi,lam,az,s\nP,0,0,nan,0\n"),
    (["geodesic", "direct"], "n,phi,lam,az,s\nP,40,10,nan,1000\n"),
    (["geodesic", "direct"], "n,phi,lam,az,s\nP,40,10,-inf,1000\n"),
    (["heights", "ortho"], "n,g,dh\nP,-8.1e-217,1e400\n"),
    (["heights", "ortho", "--phi-start", "nan"], "n,g,dh\nP,980,1.5\n"),
    (["heights", "ortho", "--phi-end", "inf"], "n,g,dh\nP,980,1.5\n"),
    (["heights", "dynamic", "--h-mean", "nan"], "n,g,dh\nP,980,1.5\n"),
    (["heights", "normal", "--h-mean", "inf"], "n,g,dh\nP,980,1.5\n"),
    (["reduce", "--scale", "nan"], "n,dp,ha,hb\nA,1000,10,20\n"),
    (["reduce", "--scale", "inf"], "n,dp,ha,hb\nA,1000,10,20\n"),
    (["reduce"], "n,dp,ha,hb\nA,nan,10,20\n"),
])
def test_non_finite_field_exits_2(argv, text, tmp_path, capsys):
    assert run(argv, tmp_path, text) == 2
    assert "input error: ValueError" in capsys.readouterr().err


# -- non-finite and mistyped values where data comes in ----------------------

NAN, INF = float("nan"), float("inf")
ELEMENTS = {"a": 7e6, "e": 0.01, "i": 1.0, "raan": 0.5, "arg_perigee": 0.2}
BURSA_WOLF = {"tx": 0, "ty": 0, "tz": 0, "m": 0, "rx": 0, "ry": 0, "rz": 0}
LAMBERT = {"type": "lambert", "ellipsoid": {"a": 6378137, "inv_f": 298.257},
           "phi0_rad": 0.7, "lam0_rad": 0.1}
CSV_INPUTS = {
    "XYZ": "n,x,y,z\nA,4e6,1e6,4.8e6\n",
    "EN": "n,e,n\nA,1,2\n",
    "PHILAM": "n,phi,lam\nA,40,10\n",
    "POINTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,0,0,0\nC,0,0,0,0\n",
}
ORBIT = ["orbit", "--epochs", "0,60", "--elements", "JSON"]
BW_APPLY = ["datum", "bw-apply", "--params", "JSON", "-i", "XYZ"]
PROJECT = ["project", "fwd", "--proj-json", "JSON", "-i", "PHILAM"]
SYSTEM = ["adjust", "--system", "JSON"]


def run_files(argv, tmp_path, capsys, files):
    """Exit code, stdout and stderr of cli.main with each upper-case argument
    that names a file in `files` (or CSV_INPUTS) replaced by its path."""
    files = {**CSV_INPUTS, **files}
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    code = cli.main([str(tmp_path / a) if a in files else a for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


# a mistyped or non-finite value in each JSON input; each exits 2 with a ValueError
BAD_JSON_CASES = {
    "orbit: a is a string": (ORBIT, {**ELEMENTS, "a": "7e6"}),
    "orbit: raan is a list": (ORBIT, {**ELEMENTS, "raan": [1]}),
    "orbit: top-level list": (ORBIT, [ELEMENTS]),
    "orbit: a is NaN": (ORBIT, {**ELEMENTS, "a": NAN}),
    "orbit: e is null": (ORBIT, {**ELEMENTS, "e": None}),
    "orbit: i is a bool": (ORBIT, {**ELEMENTS, "i": True}),
    "helmert2d-apply: tx is a string": (
        ["datum", "helmert2d-apply", "--params", "JSON", "-i", "EN"],
        {"tx": "1", "ty": 0, "u": 1, "v": 0}),
    "bw-apply: rx is a string": (BW_APPLY, {**BURSA_WOLF, "rx": "0"}),
    "bw-apply: units is a list": (BW_APPLY, {**BURSA_WOLF, "units": ["gr"]}),
    "project: a is a string": (
        PROJECT, {**LAMBERT, "ellipsoid": {"a": "6378137", "inv_f": 298.257}}),
    "project: top-level list": (PROJECT, [LAMBERT]),
    "project: ellipsoid is a list": (PROJECT, {**LAMBERT, "ellipsoid": [6378137, 298.257]}),
    "project: phi0 is an object": (PROJECT, {**LAMBERT, "phi0_rad": {"x": 1}}),
    "project: type is a list": (PROJECT, {**LAMBERT, "type": ["utm"]}),
    "system: top-level list": (SYSTEM, [{"a": [[1.0]], "k": [1.0]}]),
    "system: a is an object": (SYSTEM, {"a": {"x": 1}, "k": [1]}),
    "system: k holds a string": (SYSTEM, {"a": [[1.0], [2.0]], "k": ["1", 2]}),
    "system: p is a string": (SYSTEM, {"a": [[1.0], [2.0], [3.0]], "k": [1, 2, 3], "p": "1"}),
    "system: a holds NaN": (SYSTEM, {"a": [[1.0], [NAN]], "k": [1, 2]}),
    "system: k holds inf": (SYSTEM, {"a": [[1.0], [2.0]], "k": [1, INF]}),
    "system: p holds NaN": (SYSTEM, {"a": [[1.0], [2.0]], "k": [1, 2], "p": [1, NAN]}),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON_CASES))
def test_mistyped_or_non_finite_json_exits_2(case, tmp_path, capsys):
    argv, doc = BAD_JSON_CASES[case]
    code, out, err = run_files(argv, tmp_path, capsys, {"JSON": json.dumps(doc)})
    assert code == 2, err
    assert "input error: ValueError" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("p, code, error", [
    # a zero weight, not "no weights"; short ids keep the test names readable
    pytest.param(0, 2, "input error: ValueError: weights must be > 0",
                 id="0-2-weights must be > 0"),
    pytest.param(0.0, 2, "input error: ValueError: weights must be > 0",
                 id="0.0-2-weights must be > 0"),
    ([], 2, "input error: ValueError: weight vector length mismatch"),
    ("", 2, "input error: ValueError: 'p' must be"),
])
def test_adjust_system_falsy_p_is_a_weight(p, code, error, tmp_path, capsys):
    doc = {"a": [[1], [2]], "k": [1, 2], "p": p}
    got, out, err = run_files(SYSTEM, tmp_path, capsys, {"JSON": json.dumps(doc)})
    assert got == code and error in err, err
    assert out == ""


@pytest.mark.parametrize("argv, files, message", [
    (SYSTEM, {"JSON": json.dumps({"a": [], "k": []})}, "no observations"),
    (SYSTEM, {"JSON": json.dumps({"a": [[], []], "k": [1, 2]})}, "no unknowns"),
    (["adjust", "--points", "PTS", "--obs", "OBS"],
     {"PTS": "n,x0,y0,z0,fixed\nA,0,0,0,1\nB,0,0,5,1\n",
      "OBS": "kind,from,to,value,sigma\nleveling,A,B,5,0.01\n"}, "no unknowns"),
    (["adjust", "--points", "PTS", "--obs", "OBS"],
     {"PTS": "n,x0,y0,z0,fixed\nA,0,0,0,1\nB,0,0,5,0\n",
      "OBS": "kind,from,to,value,sigma\n"}, "no observations"),
])
def test_adjust_empty_system_exits_2_naming_it(argv, files, message, tmp_path, capsys):
    code, out, err = run_files(argv, tmp_path, capsys, files)
    assert code == 2 and f"input error: ValueError: the system has {message}" in err, err
    assert "LinAlgError" not in err and out == ""


@pytest.mark.parametrize("doc", [
    {"a": [[1.0], [1.0], [1.0]], "k": [1e300, -1e300, 0.0]},  # V'PV overflows
    {"a": [[1e200], [1e200]], "k": [1.0, 2.0]},  # A'PA overflows
])
def test_adjust_system_overflow_exits_3(doc, tmp_path, capsys):
    code, out, err = run_files(SYSTEM, tmp_path, capsys, {"JSON": json.dumps(doc)})
    assert code == 3 and "numerical error: OverflowError" in err
    assert "NaN" not in out and "Infinity" not in out
    assert err.count("\n") == 1  # no numpy RuntimeWarning before the message


@pytest.mark.parametrize("p, message", [
    # once printed "s2": -3.83 and a negative covariance with exit 0
    ([1, 1, -0.5], "weights must be > 0"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -0.5]], "weight matrix not positive definite"),
    ([[1, 0.5, 0], [0, 1, 0], [0, 0, 1]], "weight matrix not symmetric"),
])
def test_adjust_system_weights_not_positive_definite_exit_2(p, message, tmp_path, capsys):
    doc = {"a": [[1], [1], [1]], "k": [0, 1, -3], "p": p}
    code, out, err = run_files(SYSTEM, tmp_path, capsys, {"JSON": json.dumps(doc)})
    assert code == 2 and f"input error: ValueError: {message}" in err, err
    assert out == ""


@pytest.mark.parametrize("kind", ["distance2d", "direction", "distance3d"])
def test_adjust_row_from_a_point_to_itself_exits_2(kind, tmp_path, capsys):
    # once CoincidentPoints (exit 3) from the row builder
    files = {"OBS": f"kind,from,to,value\n{kind},A,A,5\ndistance2d,A,B,5\n",
             "PTS": "n,x0,y0,z0,fixed\nA,0,0,0,1\nB,3,4,0,0\n"}
    code, out, err = run_files(["adjust", "--points", "PTS", "--obs", "OBS"], tmp_path, capsys,
                               files)
    assert code == 2 and err == (f"input error: ValueError: obs data row 1: {kind} row from 'A' "
                                 "to itself\n"), err
    assert out == ""


@pytest.mark.parametrize("row", [
    "leveling,A,B,nan", "leveling,A,B,inf", "leveling,A,B,-inf", "leveling,A,B,1.5,nan",
    "leveling,A,B,1.5,inf", "leveling,A,B,1.5,-0.01", "leveling,A,B,1.5,,,nan",
    "leveling,A,B,1.5,,,0",
])
def test_adjust_non_finite_observation_exits_2(row, tmp_path, capsys):
    obs = f"kind,from,to,value,sigma,set_id,dist_km\n{row}\nleveling,B,C,1\nleveling,A,C,2.4\n"
    code, out, err = run_files(["adjust", "--points", "POINTS", "--obs", "OBS"], tmp_path,
                               capsys, {"OBS": obs})
    assert code == 2 and "input error: ValueError" in err
    assert out == ""


def test_adjust_non_finite_point_exits_2(tmp_path, capsys):
    files = {"OBS": "kind,from,to,value\nleveling,A,B,1\n",
             "PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,nan,0,0,0\n"}
    code, _, err = run_files(["adjust", "--points", "PTS", "--obs", "OBS"], tmp_path, capsys,
                             files)
    assert code == 2 and "coordinates must be finite" in err


@pytest.mark.parametrize("files, message", [
    # once a bare "could not convert string to float" or KeyError: 'Z'
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,abc,0,0\n", "OBS": "k,f,t,v\nleveling,A,B,1\n"},
     "ValueError: points data row 2: could not convert string to float: 'abc'"),
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,0,0,0\n",
      "OBS": "k,f,t,v,sigma\nleveling,A,B,1\n# c\nleveling,B,A,-1,abc\n"},
     "ValueError: obs data row 2: could not convert string to float: 'abc'"),
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,0,0,0\n",
      "OBS": "k,f,t,v\nleveling,A,B,1\nleveling,B,Z,x\nleveling,A,Y,1\n"},
     "KeyError: \"obs data row 2: unknown point 'Z'\""),
    # and once a bare message for a row the library rejects
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,0,0,0\n",
      "OBS": "k,f,t,v\nleveling,A,B,1\nlevelling,B,A,-1\nleveling,A,B,1\n"},
     "ValueError: obs data row 2: unknown observation kind 'levelling'"),
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,0,0,0\n",
      "OBS": "k,f,t,v,sigma\nleveling,A,B,1\nleveling,B,A,-1,-1\nleveling,A,B,1\n"},
     "ValueError: obs data row 2: sigma must be finite and > 0, got -1.0"),
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,inf,0,0\nC,0,0,0,0\n",
      "OBS": "k,f,t,v\nleveling,A,B,1\n"},
     "ValueError: points data row 2: point 'B': coordinates must be finite"),
    # a misspelled flag once freed A (exit 0, A moved from 10 to 3.0)
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,ture\nB,0,0,0,false\nC,0,0,5,true\n",
      "OBS": "k,f,t,v\nleveling,A,B,1\nleveling,B,C,1\n"},
     "ValueError: points data row 1: fixed must be one of 1, true, yes, 0, false, no or empty, "
     "got 'ture'"),
    # a z0 with no fixed column once read 10 as the flag (SingularNormal, exit 3)
    ({"PTS": "n,x0,y0,z0\nA,0,0,10\nB,0,0,0\n",
      "OBS": "k,f,t,v\nleveling,A,B,1\nleveling,B,A,-1\n"},
     "ValueError: points data row 1: fixed must be one of 1, true, yes, 0, false, no or empty, "
     "got '10'"),
    # a name given twice once replaced the first, freeing every point (exit 3)
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,true\nA,0,0,10,false\nB,0,0,0,false\nC,0,0,5,false\n",
      "OBS": "k,f,t,v\nleveling,A,B,1\nleveling,B,C,1\n"},
     "ValueError: points data row 2: point 'A' is added twice"),
    # a sixth point field was once dropped (A read as z0 10, the 99 gone, exit 0)
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,99,true\nB,0,0,0,false\n",
      "OBS": "k,f,t,v\nleveling,A,B,1\n"},
     "ValueError: points data row 1: 6 fields, expected at most 5 (name, x0, y0, z0, fixed)"),
    # and an obs field past dist_km (exit 0)
    ({"PTS": "n,x0,y0,z0,fixed\nA,0,0,10,1\nB,0,0,0,0\n",
      "OBS": "k,f,t,v,sigma,set_id,dist_km\nleveling,A,B,1\nleveling,A,B,1,,,1,junk\n"},
     "ValueError: obs data row 2: 8 fields, expected at most 7 "
     "(kind, from, to, value, sigma, set_id, dist_km)"),
])
def test_adjust_row_errors_name_the_file_and_row(files, message, tmp_path, capsys):
    code, out, err = run_files(["adjust", "--points", "PTS", "--obs", "OBS"], tmp_path, capsys,
                               files)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("fixed, free", [("1", "0"), ("TRUE", "False"), ("Yes", "no"),
                                         (" true ", "")])
def test_adjust_point_flags_are_read_in_any_case(fixed, free, tmp_path, capsys):
    # A and C fixed, B free, with z0 given and without it (an empty z0 is 0)
    files = {"PTS": f"n,x0,y0,z0,fixed\nA,0,0,10,{fixed}\nB,0,0,{free}\nC,0,0,12,{fixed}\n",
             "OBS": "k,f,t,v\nleveling,A,B,1\nleveling,B,C,1\n"}
    code, out, err = run_files(["adjust", "--points", "PTS", "--obs", "OBS"], tmp_path, capsys,
                               files)
    assert (code, err) == (0, "")
    points = json.loads(out)["points"]
    assert (points["A"]["z"], points["C"]["z"]) == (10.0, 12.0)
    assert points["B"]["z"] == pytest.approx(11.0)


def test_network_rejects_a_point_added_twice():
    net = adjust.Network()
    net.add_point("A", z0=10.0, fixed=True)
    with pytest.raises(ValueError, match="point 'A' is added twice"):
        net.add_point("A", z0=11.0)
    assert net.points["A"].fixed and net.points["A"].z0 == 10.0


def test_adjust_without_convergence_exits_3(tmp_path, capsys, monkeypatch):
    # a solve stopped short of its tolerance is no result
    monkeypatch.setattr(adjust.Network, "solve", functools.partialmethod(adjust.Network.solve,
                                                                          max_iter=1))
    files = {"PTS": "n,x0,y0,z0,fixed\nA,0,0,0,1\nB,1000,0,0,1\nP,650,900,0,0\n",
             "OBS": "k,f,t,v,sigma\ndistance2d,A,P,721.11,0.01\ndistance2d,B,P,848.53,0.01\n"}
    code, out, err = run_files(["adjust", "--points", "PTS", "--obs", "OBS"], tmp_path, capsys,
                               files)
    assert code == 3 and out == ""
    assert err.startswith("numerical error: MaxIterations: no convergence in 1 network "), err


@pytest.mark.parametrize("kwargs", [
    {"value": NAN}, {"value": INF}, {"sigma": NAN}, {"sigma": INF}, {"sigma": 0.0},
    {"dist_km": NAN}, {"dist_km": INF}, {"dist_km": 0.0}, {"dist_km": -1.0},
])
def test_observation_rejects_non_finite_or_non_positive(kwargs):
    with pytest.raises(ValueError):
        adjust.Observation(**{"kind": "leveling", "frm": "A", "to": "B", "value": 1.0, **kwargs})


@pytest.mark.parametrize("xyz", [(NAN, 0.0, 0.0), (0.0, INF, 0.0), (0.0, 0.0, -INF)])
def test_network_point_rejects_non_finite(xyz):
    with pytest.raises(ValueError, match="finite"):
        adjust.Network().add_point("P", *xyz)


@pytest.mark.parametrize("field", ["a", "k", "p"])
def test_linear_system_rejects_non_finite(field):
    system = {"a": np.ones((3, 1)), "k": np.zeros(3), "p": np.ones(3)}
    system[field] = system[field].copy()
    system[field][0] = NAN
    with pytest.raises(ValueError, match="finite"):
        adjust.LinearSystem(**system)


@pytest.mark.parametrize("field", ["a", "e", "i", "raan", "arg_perigee", "t0", "mu"])
def test_orbital_elements_reject_non_finite(field):
    with pytest.raises(ValueError, match="finite"):
        orbits.OrbitalElements(**{**ELEMENTS, field: NAN})


@pytest.mark.parametrize("m", [NAN, INF, -INF])
def test_solve_kepler_rejects_non_finite_mean_anomaly_at_once(m):
    with pytest.raises(ValueError, match="finite"):
        orbits.solve_kepler(m, 0.1)


@pytest.mark.parametrize("value", ["1", [1.0], {"x": 1.0}, True, None, NAN, INF, -INF, 10**400])
def test_json_number_rejects_non_numbers_naming_the_key(value):
    with pytest.raises(ValueError, match="'tx'"):
        core.json_number({"tx": value}, "tx")


def test_json_number_passes_ints_and_defaults():
    value = core.json_number({"a": 7}, "a")
    assert value == 7.0 and type(value) is float
    assert core.json_number({}, "k0", 0.9996) == 0.9996
    with pytest.raises(KeyError):
        core.json_number({}, "a")


@pytest.mark.parametrize("text", ["[]", "1", "null", '"x"'])
def test_parse_json_object_requires_an_object(text):
    with pytest.raises(ValueError, match="JSON object"):
        core.parse_json_object(text)


# -- fuzz -------------------------------------------------------------------

NUMBER = st.one_of(
    st.floats(-1e7, 1e7).map(repr),
    st.sampled_from(["0", "1", "40", "-12.5", "200", "6378137", "2e7"]),
)
CELL = st.one_of(
    NUMBER,
    # the last one is longer than csv.field_size_limit()
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e300", "-1e300", "", "9" * 131073]),
    st.sampled_from(["abc", "A", "B", "C", "true", "leveling", "distance2d", "direction",
                     "distance3d", "1h", "40gr"]),
)
ROW = st.lists(CELL, min_size=0, max_size=8)
TABLE = st.lists(ROW, min_size=0, max_size=6)
JSON_VALUE = st.one_of(
    st.floats(-1e7, 1e7),
    st.sampled_from([0, 1, 0.0, 1e-6, 0.5, 1.0, 7e6, 1e300, float("nan"), float("inf")]),
    st.sampled_from(["1", "abc", "", True, False, None, [], [1.0], {"x": 1.0}]),
)
NON_OBJECT = st.sampled_from([[], [1.0, 2.0], [{"a": 1.0}], "x", 3.0, None, True])
SUBCOMMANDS = [
    ["convert", "--from", "geodetic", "--to", "ecef"],
    ["convert", "--from", "ecef", "--to", "geodetic"],
    ["convert", "--from", "ecef", "--to", "ecef"],
    ["project", "fwd"], ["project", "inv"],
    ["project", "fwd", "--proj", "utm:32"], ["project", "inv", "--proj", "utm:32"],
    ["project", "fwd", "--proj-json", "@proj"], ["project", "inv", "--proj-json", "@proj"],
    ["geodesic", "direct"], ["geodesic", "inverse"],
    ["reduce"], ["reduce", "--rigorous", "--wave", "light"], ["reduce", "--scale=@cell"],
    ["datum", "bw-apply", "--params", "@params"], ["datum", "bw-fit"], ["datum", "bw-direct"],
    ["datum", "molodensky", "--shift=@cell3"], ["datum", "helmert2d-fit"],
    ["datum", "helmert2d-apply", "--params", "@params"],
    ["adjust", "--obs", "@csv", "--points", "@csv2"], ["adjust", "--system", "@system"],
    ["orbit", "--elements", "@elements", "--epochs=@cell3"],
    ["orbit", "--elements", "@elements", "--epochs=@cell", "--frame", "ecef", "--spin",
     "--gst-rad=@cell"],
    ["dop", "--receiver=@cell3"],
    ["heights", "ortho", "--phi-start=@cell", "--phi-end=@cell", "--h-mean=@cell"],
    ["heights", "normal", "--phi-start=@cell"], ["heights", "dynamic"],
    ["astro", "hour-angle", "--hsl=@cell", "--alpha=@cell"],
    ["astro", "hsl", "--hsg=@cell", "--lam=@cell"],
    ["astro", "sidereal", "--tu=@cell", "--hsg0=@cell"],
]


def _csv(header_width, rows):
    header = ",".join(f"c{i}" for i in range(header_width))
    return "\n".join([header, *(",".join(["P", *row]) for row in rows)]) + "\n"


def _json_doc(draw, doc):
    """`doc` as JSON text, or one time in eight a document that is not an object."""
    return json.dumps(draw(NON_OBJECT) if draw(st.integers(0, 7)) == 0 else doc)


@st.composite
def invocations(draw):
    template = draw(st.sampled_from(SUBCOMMANDS))
    files = {
        "csv": _csv(5, draw(TABLE)),
        "csv2": _csv(5, draw(TABLE)),
        "params": _json_doc(draw, {
            **{k: draw(JSON_VALUE) for k in ("tx", "ty", "tz", "m", "rx", "ry", "rz", "u", "v")},
            "units": draw(st.sampled_from(["rad", "gr", "arcsec", "x", ["gr"], 1.0])),
        }),
        "elements": _json_doc(draw, {k: draw(JSON_VALUE) for k in
                                     ("a", "e", "i", "raan", "arg_perigee")}),
        "proj": _json_doc(draw, {
            "type": draw(st.sampled_from(["lambert", "utm", ["utm"], 1.0])),
            "ellipsoid": draw(st.one_of(
                st.fixed_dictionaries({"a": JSON_VALUE, "inv_f": JSON_VALUE}), NON_OBJECT)),
            **{k: draw(JSON_VALUE) for k in ("phi0_rad", "lam0_rad", "k0", "false_e", "false_n")},
        }),
    }
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    system = {
        "a": [[draw(JSON_VALUE) for _ in range(cols)] for _ in range(rows)],
        "k": [draw(JSON_VALUE) for _ in range(draw(st.integers(rows - 1, rows + 1)))],
    }
    if draw(st.booleans()):
        system["p"] = draw(st.one_of(JSON_VALUE, st.lists(JSON_VALUE, min_size=rows,
                                                          max_size=rows)))
    files["system"] = _json_doc(draw, system)
    argv = []
    for arg in template:  # "--opt=value", so that a value such as "-inf" is not an option
        opt, _, value = arg.partition("=")
        if value == "@cell3":
            arg = f"{opt}=" + ",".join(draw(st.lists(CELL, min_size=1, max_size=4)))
        elif value == "@cell":
            arg = f"{opt}={draw(CELL)}"
        argv.append(arg)
    angle_unit = draw(st.sampled_from([None, *core.ANGLE_UNITS]))
    if angle_unit and template[0] not in ("reduce", "orbit", "astro"):
        argv += ["--angle-unit", angle_unit]
    return argv, files


@settings(derandomize=True, max_examples=400, deadline=None)
@given(invocations())
def test_cli_fuzz_exits_0_2_or_3(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(content)
        argv = [os.path.join(tmp, a[1:]) if a.startswith("@") else a for a in argv]
        out = os.path.join(tmp, "out")
        try:
            code = cli.main([*argv, "-i", os.path.join(tmp, "csv"), "-o", out])
        except SystemExit as exc:  # argparse rejects a non-numeric --h-mean or --gst-rad
            assert exc.code == 2
        else:
            assert code in (0, 2, 3)
            if code == 0:  # nan, inf, -inf, NaN, Infinity, -Infinity
                with open(out) as fh:
                    text = fh.read()
                assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), text
