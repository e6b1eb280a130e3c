"""Array kernels against the scalar reference, and the columnar CLI built on them.

Each property draws rows from a kernel's validity domain, mixed with rows
that fail it (NaN, infinities, overflowing magnitudes, poles, the polar
axis, the cone apex, out-of-zone longitudes, coincident or antipodal
endpoints, negative lengths, slope distances no longer than the height
difference).  For every row it checks that the array kernel flags the row
when the scalar call raises, and flags no other row but those of a
closed-form branch it leaves to the scalar API (the geodesic kernels'
zero-length, equatorial and meridian lines); that cli._settle raises the
scalar's error class for the first failing row, or gives the flagged rows
the scalar's values; and that the values of the other rows agree with the
scalar results: bitwise where the formula uses only arithmetic and square
roots (Bursa-Wolf, Helmert, the distance reductions), to 1e-12 relative
where it is another closed formula, and within the stopping tolerance of
the loop that decides it otherwise (stated with each kernel).  Relative
errors are taken against max(|value|, scale), the scale being 1 rad for
angles and the semi-major axis for lengths.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from geodkit.datum import (
    BursaWolfParams,
    Helmert2DParams,
    apply_molodensky,
    bursa_wolf_apply,
    bursa_wolf_columns,
    helmert2d_apply,
    helmert2d_columns,
    molodensky_columns,
)
from geodkit.geodesics import (
    PolarGeodesic,
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
from geodkit.reductions import (
    DistanceObservation,
    reduce_columns,
    reduce_to_ellipsoid,
    reduce_to_plane,
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
    inputs = [np.array(c, dtype=float) for c in zip(*rows_)]
    errors = [ref for ref in refs if isinstance(ref, Exception)]
    if errors:
        with pytest.raises(type(errors[0])):
            cli._settle(failed, columns, scalar, *inputs)
    else:
        cli._settle(failed, columns, scalar, *inputs)
        for i in np.flatnonzero(failed):
            assert [c[i] for c in columns] == list(refs[i]), rows_[i]


def run(kernel, rows_, *args):
    return kernel(*args, *(np.array(c, dtype=float) for c in zip(*rows_)))


# -- the twelve kernels --------------------------------------------------------
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

    def closed_form(phi, lam, az, s):  # zero length, a meridian or an equatorial line
        try:
            return s == 0.0 or math.isinf(clairaut_constant(ell, phi, az).k2)
        except PolarGeodesic:
            return True

    check(rows_, run(geodesic_direct_array, rows_, ell), scalar,
          [(1e-12, 1.0), (1e-12, 1.0), (1e-12, 1.0), (1e-12, A)], closed_form)


@PROPERTY
@given(st.sampled_from([CLARKE, GRS80]),
       rows(mixed(-1.2, 1.2, 0.0), mixed(-4.0, 4.0), mixed(-0.05, 0.05, 0.0),
            mixed(-0.05, 0.05, 0.0, math.pi)))
def test_geodesic_inverse_array(ell, rows_):
    # Newton on C matches the longitude gap to 1e-11 rad, then keeps one more
    # step if it lowers the residual: azimuths and length agree to 1e-11
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


# the third set overflows near 1.8e308
BURSA_WOLF = [BursaWolfParams(-168.0, -60.0, 320.0, 1.2e-6, 1e-6, -2e-6, 3e-6),
              BursaWolfParams(10.0, -5.0, 3.0, -9e-4, 0.05, -0.05, 0.02),
              BursaWolfParams(0.0, 0.0, 0.0, 1e-4, 0.0, 0.0, 0.0)]


@PROPERTY
@given(st.sampled_from(BURSA_WOLF),
       rows(*[mixed(-1e7, 1e7, 1.7976e308, -1.7976e308)] * 3))
def test_bursa_wolf_columns(p, rows_):
    def scalar(x, y, z):
        q = bursa_wolf_apply(p, EcefCoord(x, y, z))
        return q.x, q.y, q.z

    check(rows_, run(bursa_wolf_columns, rows_, p), scalar, [(0.0, A)] * 3)


WGS84 = get_ellipsoid("wgs84")


@PROPERTY
@given(st.sampled_from([(CLARKE, WGS84), (WGS84, GRS80)]),
       st.sampled_from([(-168.0, -60.0, 320.0), (0.0, 0.0, 431.0), (-263.0, 6.0, 431.0)]),
       st.booleans(),
       rows(mixed(-1.5, 1.5, HALF_PI, -HALF_PI, HALF_PI + 1e-6, -2.0), mixed(-10.0, 10.0),
            mixed(-1e4, 1e7, 1e300)))
# a latitude past the pole that the shift brings back into range: only the
# test of the input rejects it
@example((CLARKE, WGS84), (-168.0, -60.0, 320.0), False, [(HALF_PI + 1e-6, 3.0, 0.0)])
def test_molodensky_columns(ells, t, abridged, rows_):
    # a pole row, whatever its longitude, fails in both forms (PolarAxis)
    ell1, ell2 = ells

    def scalar(phi, lam, he):
        g = apply_molodensky(ell1, ell2, GeodeticCoord(phi, lam, he), t, abridged)
        return g.phi, g.lam, g.he

    def kernel(*columns):
        return molodensky_columns(ell1, ell2, *columns, t, abridged)

    check(rows_, run(kernel, rows_), scalar, [(1e-12, 1.0), (1e-12, 1.0), (1e-12, A)])


# the last set overflows near 1.8e308
HELMERTS = [Helmert2DParams(12.5, -3.25, 1.00001, 2e-5),
            Helmert2DParams(1e5, -2e5, -0.7, 0.7),
            Helmert2DParams(0.0, 0.0, 1.0, 1.0)]


@PROPERTY
@given(st.sampled_from(HELMERTS), rows(mixed(-1e7, 1e7, 1.79e308), mixed(-1e7, 1e7, 1.79e308)))
def test_helmert2d_columns(p, rows_):
    def scalar(e, n):
        q = helmert2d_apply(p, PlaneCoord(e, n))
        return q.e, q.n

    check(rows_, run(helmert2d_columns, rows_, p), scalar, [(0.0, A)] * 2)


@PROPERTY
@given(st.sampled_from([None, "light", "micro"]), st.booleans(),
       st.sampled_from([1.0, 0.9996, 1e300]),
       rows(mixed(0.0, 1e5, 0.0, -5.0, 1e102, 1e103, 1e300), mixed(-1e4, 1e4, -1e7),
            mixed(-1.0, 1.0, 1.0, -1.0, 1.0 - 2**-52, 1.5)))
def test_reduce_columns(wave, rigorous, scale, rows_):
    # the third draw is the height difference as a fraction of dp: 1 - 2**-52
    # is a line a hair off the vertical, 1 and 1.5 a slope distance no longer
    # than the height difference; an altitude of -1e7 m, below the centre of
    # the earth, leaves the rigorous formula undefined; 1e103 m overflows D0^3
    rows_ = [(dp, ha, ha + f * dp) for dp, ha, f in rows_]

    def scalar(dp, ha, hb):
        de = reduce_to_ellipsoid(DistanceObservation(dp, ha, hb, wave), rigorous)
        return de, reduce_to_plane(de, scale)

    def kernel(*columns):
        return reduce_columns(*columns, scale, wave, rigorous)

    check(rows_, run(kernel, rows_), scalar, [(0.0, A)] * 2)


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
    # it rejects raises
    column, inputs = np.array([1.0, math.nan, 3.0, math.nan]), np.array([10.0, 20.0, 30.0, 40.0])

    def scalar(x):
        if x == 40.0:
            raise OverflowError("row 4")
        return (x / 10.0,)

    cli._settle(np.array([False, True, False, False]), [column], scalar, inputs)
    assert column[:3].tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(OverflowError, match="row 4"):
        cli._settle(np.array([False, True, False, True]), [column], scalar, inputs)


@pytest.mark.parametrize("block", range(1, 8))
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9])
def test_rows_raise_a_parse_error_once_the_rows_before_it_are_out(block, k, tmp_path,
                                                                   monkeypatch):
    # every row before data row k comes out, in blocks of at most `block`
    # rows, and the next request raises the error naming row k; the text
    # field after the numeric columns is never parsed
    rows = [f"P{i},{i}.5,{-i},note" for i in range(1, 10)]
    rows[k - 1] = f"P{k},{k}.5,x,note"
    path = tmp_path / "in.csv"
    path.write_text("name,a,b,note\n" + "\n".join(rows) + "\n")
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
    monkeypatch.setattr(cli, "_SCALAR_ROWS", 0)  # the array path's blocks
    got = []
    with pytest.raises(ValueError) as exc:
        for names, columns in cli._rows(str(path), 4).columns(2):
            got.append((names, [c.tolist() for c in columns]))
    assert str(exc.value) == f"data row {k}: could not convert string to float: 'x'"
    assert all(len(names) <= block for names, _ in got)
    assert [name for names, _ in got for name in names] == [f"P{i}" for i in range(1, k)]
    assert [v for _, (a, _) in got for v in a] == [i + 0.5 for i in range(1, k)]
    assert [v for _, (_, b) in got for v in b] == [-i for i in range(1, k)]


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


# reduce and the datum transformations: a valid row, then a row float()
# rejects and a row the scalar API rejects, in either order; the first of
# the two decides
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
