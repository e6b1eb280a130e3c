"""Array kernels against the scalar reference, and the columnar CLI built on them.

Each property draws rows from a kernel's validity domain, mixed with rows
that fail it (NaN, infinities, overflowing magnitudes, poles, the polar
axis, the cone apex, out-of-zone longitudes, coincident or antipodal
endpoints, negative lengths).  For every row it checks that the array
kernel flags the row when the scalar call raises, and flags no other row
but those of a closed-form branch it leaves to the scalar API (the
geodesic kernels' zero-length, equatorial and meridian lines); that
cli._settle raises the scalar's error class for the first failing row, or
gives the flagged rows the scalar's values; and that the values of the
other rows agree with the scalar results: to 1e-12 relative where the
result is a closed formula, and within the stopping tolerance of the loop
that decides it otherwise (stated with each kernel).  Relative errors are
taken against max(|value|, scale), the scale being 1 rad for angles and
the semi-major axis for lengths.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodkit import cli
from geodkit.coords import (
    EcefCoord,
    GeodeticCoord,
    _normalize_lon,
    ecef_to_geodetic,
    ecef_to_geodetic_array,
    geodetic_to_ecef,
    geodetic_to_ecef_array,
)
from geodkit.core import (
    EXP_MAX,
    get_ellipsoid,
    latitude_from_isometric,
    latitude_from_isometric_array,
)
from geodkit.geodesics import (
    clairaut_constant,
    geodesic_direct,
    geodesic_direct_array,
    geodesic_inverse,
    geodesic_inverse_array,
)
from geodkit.projections import (
    LambertDef,
    PlaneCoord,
    UtmDef,
    forward_columns,
    inverse_columns,
    lambert_forward,
    lambert_inverse,
    named_projection,
    utm_forward,
    utm_footpoint_latitude,
    utm_footpoint_latitude_array,
    utm_inverse,
)

GRS80 = get_ellipsoid("grs80")
CLARKE = get_ellipsoid("clarke-1880-fr")
A = GRS80.a
HALF_PI = math.pi / 2
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
BAD = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1.7e308]


def mixed(lo, hi, *special):
    """A float from [lo, hi], or now and then one of the failing values."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(BAD + list(special)))


def rows(*columns):
    return st.lists(st.tuples(*columns), min_size=1, max_size=25)


def check(rows_, array_out, scalar, tolerances, closed_form=lambda *row: False):
    """Compare an array kernel's (values..., failed) with scalar(row) per row.

    tolerances: (rel, scale) per output value.  closed_form(*row) tells the
    rows the kernel may flag although the scalar accepts them.  cli._settle
    must raise the scalar's error class for the first failing row, or, when
    no row fails, give each flagged row the scalar's values.
    """
    *values, failed = array_out
    refs = []
    for i, row in enumerate(rows_):
        try:
            ref = scalar(*row)
        except ArithmeticError as exc:  # NumericalError, OverflowError, ZeroDivisionError
            ref = exc
        except ValueError as exc:
            ref = exc
        refs.append(ref)
        if isinstance(ref, Exception):
            assert failed[i], f"row {row}: scalar raised {ref!r}, the array kernel passed it"
        elif failed[i]:
            assert closed_form(*row), f"row {row}: the array kernel failed a row the scalar accepts"
        else:
            for value, r, (rel, scale) in zip(values, ref, tolerances):
                v = float(value[i])
                if math.isnan(r):
                    assert math.isnan(v), (row, v, r)
                else:
                    assert abs(v - r) <= rel * max(abs(r), scale), (row, v, r)
    columns = [np.array(v, dtype=float) for v in values]
    errors = [ref for ref in refs if isinstance(ref, Exception)]
    if errors:
        with pytest.raises(type(errors[0])):
            cli._settle(failed, columns, lambda i: scalar(*rows_[i]))
    else:
        cli._settle(failed, columns, lambda i: scalar(*rows_[i]))
        for i in np.flatnonzero(failed):
            assert [c[i] for c in columns] == list(refs[i]), rows_[i]


def run(kernel, rows_, *args):
    return kernel(*args, *(np.array(c, dtype=float) for c in zip(*rows_)))


# -- the eight kernels ---------------------------------------------------------
@PROPERTY
@given(rows(mixed(-HALF_PI, HALF_PI, HALF_PI + 1e-9, 2.0), mixed(-10.0, 10.0),
            mixed(-1e4, 1e7)))
def test_geodetic_to_ecef_array(rows_):
    def scalar(phi, lam, he):
        p = geodetic_to_ecef(GRS80, GeodeticCoord(phi, lam, he))
        return p.x, p.y, p.z

    check(rows_, run(geodetic_to_ecef_array, rows_, GRS80), scalar, [(1e-12, A)] * 3)


@PROPERTY
@given(rows(mixed(-1e7, 1e7, 0.5, 0.0), mixed(-1e7, 1e7, -0.5, 0.0), mixed(-1e7, 1e7)))
def test_ecef_to_geodetic_array(rows_):
    # the latitude iteration stops at a 1e-12 rad step, and the height
    # follows the latitude through r / cos(phi) - N
    def scalar(x, y, z):
        g = ecef_to_geodetic(GRS80, EcefCoord(x, y, z))
        return g.phi, g.lam, g.he

    check(rows_, run(ecef_to_geodetic_array, rows_, GRS80), scalar,
          [(1e-12, 1.0), (1e-12, 1.0), (1e-12, A)])


LAMBERTS = [named_projection("lambert-nord-tn"), named_projection("lambert-sud-tn"),
            LambertDef(GRS80, -0.7, 0.3, 0.9999, 1e5, 2e5)]


@PROPERTY
@given(st.sampled_from(LAMBERTS),
       rows(mixed(-1.5, 1.5, HALF_PI, -HALF_PI), mixed(-1.0, 1.0)))
def test_lambert_forward_array(d, rows_):
    def scalar(phi, lam):
        p = lambert_forward(d, GeodeticCoord(phi, lam))
        return p.e, p.n

    check(rows_, run(forward_columns, rows_, d), scalar, [(1e-12, A)] * 2)


@PROPERTY
@given(st.sampled_from(LAMBERTS), rows(mixed(-2e6, 2e6, 0.0), mixed(-2e6, 2e6, 0.0)))
def test_lambert_inverse_array(d, rows_):
    # the latitude comes from a fixed point stopping at a 1e-12 rad step;
    # 0.0 in a draw stands for the apex, which is at offset (0, k0 r0)
    rows_ = [(d.false_e + e, d.false_n + (n if n else d.k0 * d.r0)) for e, n in rows_]

    def scalar(e, n):
        g = lambert_inverse(d, PlaneCoord(e, n))
        return g.phi, g.lam

    check(rows_, run(inverse_columns, rows_, d), scalar, [(1e-12, 1.0)] * 2)


UTMS = [named_projection("utm:32", get_ellipsoid("wgs84")), named_projection("utm:33s"),
        UtmDef(GRS80, 0.1, 0.9996, 500000.0, 0.0)]


def _unchecked_utm(**values) -> UtmDef:
    """A UtmDef built past __post_init__, which rejects the values the
    kernels' masks must still handle."""
    d = object.__new__(UtmDef)
    for name, value in values.items():
        object.__setattr__(d, name, value)
    return d


ZERO_K0_UTM = _unchecked_utm(ell=GRS80, lam0=0.1, k0=0.0, false_e=500000.0, false_n=0.0)


@PROPERTY
@given(st.sampled_from(UTMS), rows(mixed(-1.4, 1.4, HALF_PI), mixed(-0.07, 0.07, 0.2, -1.0)))
def test_utm_forward_array(d, rows_):
    rows_ = [(phi, d.lam0 + dlam) for phi, dlam in rows_]

    def scalar(phi, lam):
        p = utm_forward(d, GeodeticCoord(phi, lam))
        return p.e, p.n

    check(rows_, run(forward_columns, rows_, d), scalar, [(1e-12, A)] * 2)


@PROPERTY
@given(st.sampled_from(UTMS + [ZERO_K0_UTM]),
       rows(mixed(1.6e5, 8.4e5, 1e50, -1e110), mixed(-9e6, 9e6, 1e8, -3e7)))
def test_utm_inverse_array(d, rows_):
    # footpoint Newton stops at a 1e-13 rad step, the latitude fixed point at
    # 1e-12 rad; a zero scale factor makes every row a division by zero
    def scalar(e, n):
        g = utm_inverse(d, PlaneCoord(e, n))
        return g.phi, g.lam

    check(rows_, run(inverse_columns, rows_, d), scalar, [(1e-12, 1.0)] * 2)


@PROPERTY
@given(st.sampled_from([CLARKE, GRS80]),
       rows(mixed(-1.2, 1.2, 0.0, 0.0), mixed(-4.0, 4.0),
            mixed(0.0, 2 * math.pi, 0.0, math.pi, HALF_PI, 3 * HALF_PI),
            mixed(0.0, 3e5, 0.0, -1.0, 1e300)))
def test_geodesic_direct_array(ell, rows_):
    # Newton on the arc integral stops when it is met to 1e-7 m over
    # a (1 - e2): sin(phi2) agrees to that, about 1e-14
    def scalar(phi, lam, az, s):
        sol = geodesic_direct(ell, GeodeticCoord(phi, lam), az, s)
        return sol.phi2, sol.lam2, sol.az2, sol.s

    def closed_form(phi, lam, az, s):  # zero length or an equatorial line
        return s == 0.0 or math.isinf(clairaut_constant(ell, phi, az).k2)

    check(rows_, run(geodesic_direct_array, rows_, ell), scalar,
          [(1e-12, 1.0), (1e-12, 1.0), (1e-12, 1.0), (1e-12, A)], closed_form)


@PROPERTY
@given(st.sampled_from([CLARKE, GRS80]),
       rows(mixed(-1.2, 1.2, 0.0), mixed(-4.0, 4.0), mixed(-0.05, 0.05, 0.0),
            mixed(-0.05, 0.05, 0.0, math.pi)))
def test_geodesic_inverse_array(ell, rows_):
    # the secant matches the longitude gap to 1e-11 rad, then polishes
    # while the residual still drops: azimuths and length agree to 1e-11
    rows_ = [(phi, lam, phi + dphi if phi else 0.0, lam + dlam)
             for phi, lam, dphi, dlam in rows_]

    def scalar(phi1, lam1, phi2, lam2):
        sol = geodesic_inverse(ell, GeodeticCoord(phi1, lam1), GeodeticCoord(phi2, lam2))
        return sol.az1, sol.az2, sol.s

    def closed_form(phi1, lam1, phi2, lam2):  # a meridian or the equator
        dlam = _normalize_lon(GeodeticCoord(phi2, lam2).lam - GeodeticCoord(phi1, lam1).lam)
        return dlam == 0.0 or phi1 == phi2 == 0.0

    check(rows_, run(geodesic_inverse_array, rows_, ell), scalar,
          [(1e-11, 1.0), (1e-11, 1.0), (1e-11, A)], closed_form)


@pytest.mark.parametrize("ell", [GRS80, get_ellipsoid("wgs84")])
def test_latitude_from_isometric_array(ell):
    # values at and beyond the overflow of exp; the fixed point stops at a
    # 1e-12 rad step
    iso = [EXP_MAX, 709.8, EXP_MAX + 1.0, math.nan, math.inf, -math.inf, 0.0, -3.2, 40.0, 1e6]
    check([(x,) for x in iso], latitude_from_isometric_array(ell, np.array(iso)),
          lambda x: (latitude_from_isometric(ell, x),), [(1e-12, 1.0)])


def test_utm_footpoint_latitude_array():
    # Newton stops at a 1e-13 rad step
    d = UTMS[0]
    y = [0.0, -5e6, 9.9e6, 1e7, 2e7, 1e300, math.inf, -math.inf, math.nan]
    check([(v,) for v in y], utm_footpoint_latitude_array(d, np.array(y)),
          lambda v: (utm_footpoint_latitude(d, v),), [(1e-12, 1.0)])


def test_failure_mask_marks_the_failing_rows():
    x, y, z = np.array([0.0, 7e6, math.nan]), np.array([0.0, 0.0, 1.0]), np.array([6e6, 0.0, 1.0])
    *_, failed = ecef_to_geodetic_array(GRS80, x, y, z)
    assert failed.tolist() == [True, False, True]


# -- the columnar CLI ----------------------------------------------------------
def test_settle_resolves_flagged_rows_in_file_order():
    # a flagged row the scalar API accepts takes its values; the first one
    # it rejects raises; a parse error is raised only after all earlier rows
    column = np.array([1.0, math.nan, 3.0, math.nan])

    def scalar_row(i):
        if i == 3:
            raise OverflowError("row 4")
        return (2.0,)

    parse_error = ValueError("data row 5: could not convert string to float: 'x'")
    with pytest.raises(ValueError, match="data row 5"):
        cli._settle(np.array([False, True, False, False]), [column], scalar_row, parse_error)
    assert column[:3].tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(OverflowError, match="row 4"):
        cli._settle(np.array([False, True, False, True]), [column], scalar_row, parse_error)


def cli_run(args, text, tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return subprocess.run([sys.executable, "-m", "geodkit.cli", *args, "-i", str(path)],
                          capture_output=True, text=True)


ECEF_ROWS = "name,x[m],y[m],z[m]\nA,4000000,1000000,4800000\n"


def test_parse_error_before_numerical_error_names_its_row(tmp_path):
    text = ECEF_ROWS + "B,4000000,abc,4800000\nC,0,0,6356752.3\n"
    proc = cli_run(["convert", "--from", "ecef", "--to", "geodetic"], text, tmp_path)
    assert proc.returncode == 2
    assert "input error: ValueError: data row 2: could not convert string to float: 'abc'" \
        in proc.stderr
    assert proc.stdout == ""


def test_numerical_error_before_parse_error_wins(tmp_path):
    text = ECEF_ROWS + "B,0,0,6356752.3\nC,4000000,abc,4800000\n"
    proc = cli_run(["convert", "--from", "ecef", "--to", "geodetic"], text, tmp_path)
    assert proc.returncode == 3
    assert "numerical error: PolarAxis" in proc.stderr
    assert proc.stdout == ""


def test_first_failing_row_decides_between_kernel_errors(tmp_path):
    # row 2 leaves the zone (numerical, 3) before row 3's pole (input, 2)
    text = "name,phi[gr],lam[gr]\nA,40,10\nB,40,40\nC,100,10\nD,x,10\n"
    proc = cli_run(["project", "fwd", "--proj", "utm:32"], text, tmp_path)
    assert proc.returncode == 3 and "numerical error: OutOfZone" in proc.stderr
    proc = cli_run(["project", "fwd", "--proj", "lambert-nord-tn"], text, tmp_path)
    assert proc.returncode == 2
    assert "input error: ValueError: isometric latitude undefined at the poles" in proc.stderr


def with_params(args, tmp_path):
    """args with "@params" replaced by the path of a parameter file."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"tx": 1.0, "ty": 2.0, "tz": 3.0, "m": 1e-6, "rx": 1e-6,
                                "ry": 0.0, "rz": 0.0, "u": 1.0, "v": 1e-6}))
    return [str(path) if a == "@params" else a for a in args]


# the row-by-row commands: a valid row, then a row float() rejects and a row
# the scalar API rejects, in either order; the first of the two decides
ROW_CASES = [
    (["reduce"], "A,1000,10,20", "B,1e300,0,0", (3, "numerical error: OverflowError")),
    (["datum", "bw-apply", "--params", "@params"], "A,4e6,1e6,4.8e6", "B,inf,1e6,4.8e6",
     (2, "input error: ValueError: non-finite coordinate")),
    (["datum", "molodensky"], "A,40,10,0", "B,300,10,0",
     (2, "input error: ValueError: latitude")),
    (["datum", "helmert2d-apply", "--params", "@params"], "A,1,2", "B,nan,2",
     (2, "input error: ValueError: non-finite plane coordinate")),
]


@pytest.mark.parametrize("args, good, bad, error", ROW_CASES)
def test_row_commands_raise_the_first_failing_row(args, good, bad, error, tmp_path):
    args = with_params(args, tmp_path)
    width = good.count(",")
    header, unparsed = "h" + ",h" * width, "C" + ",abc" * width
    proc = cli_run(args, f"{header}\n{good}\n{unparsed}\n{bad}\n", tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "input error: ValueError: data row 2: could not convert string to float: 'abc'" \
        in proc.stderr
    proc = cli_run(args, f"{header}\n{good}\n{bad}\n{unparsed}\n", tmp_path)
    assert (proc.returncode, proc.stdout) == (error[0], "") and error[1] in proc.stderr


EMPTY_CASES = [
    (["convert", "--from", "geodetic", "--to", "ecef"], "name,phi,lam,he", "name,x[m],y[m],z[m]"),
    (["convert", "--from", "ecef", "--to", "geodetic"], "name,x,y,z",
     "name,phi[gr],lam[gr],he[m]"),
    (["project", "fwd", "--proj", "lambert-nord-tn"], "name,phi,lam", "name,e[m],n[m]"),
    (["project", "inv", "--proj", "utm:32"], "name,e,n", "name,phi[gr],lam[gr]"),
    (["geodesic", "direct"], "name,phi,lam,az,s", "name,phi2[gr],lam2[gr],az2[gr],s[m]"),
    (["geodesic", "inverse"], "name,phi1,lam1,phi2,lam2", "name,az1[gr],az2[gr],s[m]"),
    (["reduce"], "name,dp,ha,hb", "name,de[m],dr[m]"),
    (["datum", "bw-apply", "--params", "@params"], "name,x,y,z", "name,x[m],y[m],z[m]"),
    (["datum", "molodensky"], "name,phi,lam,he", "name,phi[gr],lam[gr],he[m]"),
    (["datum", "helmert2d-apply", "--params", "@params"], "name,e,n", "name,e[m],n[m]"),
]


@pytest.mark.parametrize("args, header, out_header", EMPTY_CASES)
def test_header_without_rows_prints_the_header(args, header, out_header, tmp_path):
    proc = cli_run(with_params(args, tmp_path), header + "\n", tmp_path)
    assert proc.returncode == 0 and proc.stdout == out_header + "\n", proc.stderr


def _fmt(x):
    return f"{x:.12g}"


def _scalar_lines(args, rows_):
    """The output lines the row-by-row CLI printed, from the scalar API."""
    f = math.pi / 200.0
    lam = named_projection("lambert-nord-tn")
    out = []
    for name, *v in rows_:
        if args[0] == "convert" and args[2] == "geodetic":
            p = geodetic_to_ecef(GRS80, GeodeticCoord(v[0] * f, v[1] * f, v[2]))
            vals = (p.x, p.y, p.z)
        elif args[0] == "convert":
            g = ecef_to_geodetic(GRS80, EcefCoord(*v))
            vals = (g.phi / f, g.lam / f, g.he)
        elif args[1] == "fwd":
            p = lambert_forward(lam, GeodeticCoord(v[0] * f, v[1] * f))
            vals = (p.e, p.n)
        elif args[1] == "inv":
            g = lambert_inverse(lam, PlaneCoord(*v))
            vals = (g.phi / f, g.lam / f)
        elif args[1] == "direct":
            sol = geodesic_direct(CLARKE, GeodeticCoord(v[0] * f, v[1] * f), v[2] * f, v[3])
            vals = (sol.phi2 / f, sol.lam2 / f, sol.az2 / f, sol.s)
        else:
            sol = geodesic_inverse(CLARKE, GeodeticCoord(v[0] * f, v[1] * f),
                                   GeodeticCoord(v[2] * f, v[3] * f))
            vals = (sol.az1 / f, sol.az2 / f, sol.s)
        out.append(",".join([name, *map(_fmt, vals)]))
    return out


@pytest.mark.parametrize("args", [
    ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "grs80"],
    ["convert", "--from", "ecef", "--to", "geodetic", "--ell", "grs80"],
    ["project", "fwd"], ["project", "inv"], ["geodesic", "direct"], ["geodesic", "inverse"],
])
def test_columnar_output_matches_the_scalar_rows(args, tmp_path):
    # each value within 2 units of its 12th significant digit of the scalar
    # path's, and the output identical between two runs
    rng = np.random.default_rng(7)
    n = 300
    phi, lam = rng.uniform(37, 42, n), rng.uniform(7.5, 13, n)
    if args[0] == "convert" and args[2] == "ecef":
        p = [geodetic_to_ecef(GRS80, GeodeticCoord(a * math.pi / 200, b * math.pi / 200, h))
             for a, b, h in zip(phi, lam, rng.uniform(0, 2000, n))]
        cols = [[q.x for q in p], [q.y for q in p], [q.z for q in p]]
    elif args[0] == "convert":
        cols = [phi, lam, rng.uniform(0, 2000, n)]
    elif args[1] == "inv":
        d = named_projection("lambert-nord-tn")
        p = [lambert_forward(d, GeodeticCoord(a * math.pi / 200, b * math.pi / 200))
             for a, b in zip(phi, lam)]
        cols = [[q.e for q in p], [q.n for q in p]]
    elif args[0] == "project":
        cols = [phi, lam]
    else:
        # azimuth bands clear of meridian and parallel tangency, in grads
        bands = np.array([[6.4, 86.0], [114.6, 191.0], [210.1, 286.5], [318.3, 388.3]])
        pick = bands[rng.integers(0, 4, n)]
        cols = [phi, lam, rng.uniform(pick[:, 0], pick[:, 1]), rng.uniform(1e3, 1e5, n)]
        if args[1] == "inverse":  # join each start to the direct solution's end
            f = math.pi / 200.0
            ends = [geodesic_direct(CLARKE, GeodeticCoord(a * f, b * f), az * f, s)
                    for a, b, az, s in zip(*cols)]
            cols[2:] = [[e.phi2 / f for e in ends], [e.lam2 / f for e in ends]]
    rows_ = [(f"P{i}", *map(float, r)) for i, r in enumerate(zip(*cols))]
    text = "h" + ",h" * len(cols) + "\n" + "".join(
        ",".join([r[0], *map(repr, r[1:])]) + "\n" for r in rows_)
    proc = cli_run(args, text, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cli_run(args, text, tmp_path).stdout
    got = proc.stdout.splitlines()[1:]
    for line, ref in zip(got, _scalar_lines(args, rows_), strict=True):
        if line == ref:
            continue
        for a, b in zip(line.split(",")[1:], ref.split(",")[1:], strict=True):
            a, b = float(a), float(b)
            unit = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 11)
            assert abs(a - b) <= 2 * unit, (line, ref)
