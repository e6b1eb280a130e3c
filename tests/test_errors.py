"""The error taxonomy and the CLI's exit-code contract.

Every exception class in geodkit is a NumericalError (an ArithmeticError),
so the CLI exits 3 on it; malformed input raises ValueError, KeyError or
OSError and exits 2.  No input may make the CLI exit otherwise.
"""

import importlib
import inspect
import json
import os
import pkgutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodkit
from geodkit import adjust, cli, coords, core, datum, geodesics, projections, sphere
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
                              "u": 0, "v": 0}),
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
])
def test_overflow_exits_3(argv, text, tmp_path, capsys):
    assert run(argv, tmp_path, text) == 3
    assert "OverflowError" in capsys.readouterr().err


@pytest.mark.parametrize("argv,text", [
    (["geodesic", "inverse"], "n,phi1,lam1,phi2,lam2\nA,nan,200,40,10\n"),
    (["convert", "--from", "ecef", "--to", "geodetic"], "n,x,y,z\nA,nan,1e6,1e6\n"),
    (["project", "inv"], "n,e,n\nA,inf,200000\n"),
])
def test_non_finite_field_exits_2(argv, text, tmp_path, capsys):
    assert run(argv, tmp_path, text) == 2
    assert "input error: ValueError" in capsys.readouterr().err


# -- fuzz -------------------------------------------------------------------

NUMBER = st.one_of(
    st.floats(-1e7, 1e7).map(repr),
    st.sampled_from(["0", "1", "40", "-12.5", "200", "6378137", "2e7"]),
)
CELL = st.one_of(
    NUMBER,
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e300", "-1e300", ""]),
    st.sampled_from(["abc", "A", "B", "C", "true", "leveling", "distance2d", "direction",
                     "distance3d", "1h", "40gr"]),
)
ROW = st.lists(CELL, min_size=0, max_size=8)
TABLE = st.lists(ROW, min_size=0, max_size=6)
JSON_NUMBER = st.one_of(
    st.floats(-1e7, 1e7),
    st.sampled_from([0.0, 1e-6, 0.5, 1.0, 7e6, 1e300, float("nan"), float("inf")]),
)
SUBCOMMANDS = [
    ["convert", "--from", "geodetic", "--to", "ecef"],
    ["convert", "--from", "ecef", "--to", "geodetic"],
    ["convert", "--from", "ecef", "--to", "ecef"],
    ["project", "fwd"], ["project", "inv"],
    ["project", "fwd", "--proj", "utm:32"], ["project", "inv", "--proj", "utm:32"],
    ["project", "fwd", "--proj-json", "@proj"], ["project", "inv", "--proj-json", "@proj"],
    ["geodesic", "direct"], ["geodesic", "inverse"],
    ["reduce"], ["reduce", "--rigorous", "--wave", "light"],
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


@st.composite
def invocations(draw):
    template = draw(st.sampled_from(SUBCOMMANDS))
    files = {
        "csv": _csv(5, draw(TABLE)),
        "csv2": _csv(5, draw(TABLE)),
        "params": json.dumps({k: draw(JSON_NUMBER) for k in
                              ("tx", "ty", "tz", "m", "rx", "ry", "rz", "u", "v")}),
        "elements": json.dumps({k: draw(JSON_NUMBER) for k in
                                ("a", "e", "i", "raan", "arg_perigee")}),
        "proj": json.dumps({
            "type": draw(st.sampled_from(["lambert", "utm"])),
            "ellipsoid": {"a": draw(JSON_NUMBER), "inv_f": draw(JSON_NUMBER)},
            **{k: draw(JSON_NUMBER) for k in ("phi0_rad", "lam0_rad", "k0", "false_e", "false_n")},
        }),
    }
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    files["system"] = json.dumps({
        "a": [[draw(JSON_NUMBER) for _ in range(cols)] for _ in range(rows)],
        "k": [draw(JSON_NUMBER) for _ in range(draw(st.integers(rows - 1, rows + 1)))],
    })
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
        try:
            code = cli.main([*argv, "-i", os.path.join(tmp, "csv"), "-o", os.devnull])
        except SystemExit as exc:  # argparse rejects a non-numeric --h-mean or --gst-rad
            assert exc.code == 2
        else:
            assert code in (0, 2, 3)
