"""The CLI's block pipeline against the whole-file path it replaced.

Every CSV-to-CSV command keeps its input as raw lines and runs each block
of rows through np.loadtxt (or csv.reader and float()), one array-kernel
call and _settle, and the formatting.  The reference below is the
whole-file path: it parses every row and checks the widths of all of them.
For convert, project and geodesic it then makes one kernel call; for
reduce and the datum transformations it makes one scalar call per row, so
there it is the scalar oracle of their kernels.  With the block size
patched to 1..7, every kind of row lands on either side of a block
boundary, and both paths must give the same stdout, exit code and
stderr.  At the end, np.loadtxt is checked against
csv.reader and float() on the fields where they part.
"""

import contextlib
import csv
import io
import os
import sys
import tempfile
import tracemalloc
from dataclasses import astuple
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodkit import cli, datum, reductions


# -- the whole-file path -------------------------------------------------------
def reference_read_csv(path):
    if path in (None, "-"):
        rows = [r for r in csv.reader(io.StringIO(sys.stdin.read()))]
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    rows = [row for row in rows if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError("empty input")
    return rows[0], rows[1:]


def reference_float_columns(rows, count):
    return [np.fromiter(map(float, map(itemgetter(j), rows)), dtype=float, count=len(rows))
            for j in range(1, count + 1)]


def reference_read_columns(path, width, count):
    rows = reference_read_csv(path)[1]
    if rows and min(map(len, rows)) < width:
        i, row = next((i, row) for i, row in enumerate(rows, 1) if len(row) < width)
        raise ValueError(f"data row {i}: expected at least {width} fields, got {len(row)}")
    prefixes = [row[0] + "," for row in rows]
    try:
        return prefixes, reference_float_columns(rows, count), None
    except ValueError:
        pass
    for i, row in enumerate(rows):
        try:
            [float(v) for v in row[1:count + 1]]
        except ValueError as exc:
            return (prefixes, reference_float_columns(rows[:i], count),
                    ValueError(f"data row {i + 1}: {exc}"))


def reference_settle(failed, outputs, scalar, parse_error, *inputs):
    """cli._settle on the whole file, then the parse error: it is raised
    only once every row before it has passed."""
    cli._settle(failed, outputs, scalar, *inputs)
    if parse_error is not None:
        raise parse_error


def reference_table(header, prefixes, *columns):
    row = "{}" + ",".join(["{:.12g}"] * len(columns))
    return [header, *map(row.format, prefixes, *(c.tolist() for c in columns))]


def reference_write_lines(lines, path):
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def reference_cmd_convert(args):
    unit = args.angle_unit
    factor = cli.ANGLE_UNITS[unit]
    prefixes, (a, b, c), parse_error = reference_read_columns(args.input, 4, 3)
    ell = cli.get_ellipsoid(args.ell)
    if args.frm == "geodetic" and args.to == "ecef":
        phi, lam = a * factor, b * factor
        *xyz, failed = cli.geodetic_to_ecef_array(ell, phi, lam, c)
        reference_settle(failed, xyz, lambda *g: astuple(cli.geodetic_to_ecef(
            ell, cli.GeodeticCoord(*g))), parse_error, phi, lam, c)
        out = reference_table("name,x[m],y[m],z[m]", prefixes, *xyz)
    elif args.frm == "ecef" and args.to == "geodetic":
        phi, lam, he, failed = cli.ecef_to_geodetic_array(ell, a, b, c)
        reference_settle(failed, (phi, lam, he), lambda *p: astuple(cli.ecef_to_geodetic(
            ell, cli.EcefCoord(*p))), parse_error, a, b, c)
        out = reference_table(f"name,phi[{unit}],lam[{unit}],he[m]", prefixes,
                              phi / factor, lam / factor, he)
    else:
        raise ValueError(f"unsupported conversion {args.frm} -> {args.to}")
    reference_write_lines(out, args.output)


def reference_cmd_project(args):
    unit = args.angle_unit
    factor = cli.ANGLE_UNITS[unit]
    proj = cli._projection(args)
    prefixes, (a, b), parse_error = reference_read_columns(args.input, 3, 2)
    if args.direction == "fwd":
        phi, lam = a * factor, b * factor
        e, n, failed = cli.forward_columns(proj, phi, lam)
        reference_settle(failed, (e, n), lambda *g: astuple(cli.forward(
            proj, cli.GeodeticCoord(*g))), parse_error, phi, lam)
        out = reference_table("name,e[m],n[m]", prefixes, e, n)
    else:
        phi, lam, failed = cli.inverse_columns(proj, a, b)
        reference_settle(failed, (phi, lam), lambda *p: astuple(cli.inverse(
            proj, cli.PlaneCoord(*p)))[:2], parse_error, a, b)
        out = reference_table(f"name,phi[{unit}],lam[{unit}]", prefixes,
                              phi / factor, lam / factor)
    reference_write_lines(out, args.output)


def reference_cmd_geodesic(args):
    unit = args.angle_unit
    factor = cli.ANGLE_UNITS[unit]
    ell = cli.get_ellipsoid(args.ell)
    prefixes, cols, parse_error = reference_read_columns(args.input, 5, 4)
    phi1, lam1 = cols[0] * factor, cols[1] * factor
    if args.problem == "direct":
        az1, s1 = cols[2] * factor, cols[3]
        phi2, lam2, az2, s, failed = cli.geodesic_direct_array(ell, phi1, lam1, az1, s1)
        def direct(phi, lam, az, length):
            sol = cli.geodesic_direct(ell, cli.GeodeticCoord(phi, lam), az, length)
            return sol.phi2, sol.lam2, sol.az2, sol.s

        reference_settle(failed, (phi2, lam2, az2, s), direct, parse_error, phi1, lam1, az1, s1)
        out = reference_table(f"name,phi2[{unit}],lam2[{unit}],az2[{unit}],s[m]", prefixes,
                              phi2 / factor, lam2 / factor, az2 / factor, s)
    else:
        phi2, lam2 = cols[2] * factor, cols[3] * factor
        az1, az2, s, failed = cli.geodesic_inverse_array(ell, phi1, lam1, phi2, lam2)
        reference_settle(failed, (az1, az2, s), lambda p1, l1, p2, l2: astuple(
            cli.geodesic_inverse(ell, cli.GeodeticCoord(p1, l1), cli.GeodeticCoord(p2, l2)))[2:],
            parse_error, phi1, lam1, phi2, lam2)
        out = reference_table(f"name,az1[{unit}],az2[{unit}],s[m]", prefixes,
                              az1 / factor, az2 / factor, s)
    reference_write_lines(out, args.output)


def reference_per_row(args, header, count, row):
    """The commands that run the scalar API on each row: row(*values) of
    every row before a parse error, in file order, then that error."""
    prefixes, columns, parse_error = reference_read_columns(args.input, count + 1, count)
    values = [row(*v) for v in zip(*(c.tolist() for c in columns))]
    if parse_error is not None:
        raise parse_error
    reference_write_lines(reference_table(header, prefixes, *map(np.array, zip(*values))),
                          args.output)


def reference_cmd_reduce(args):
    def row(dp, ha, hb):
        obs = reductions.DistanceObservation(dp, ha, hb, wave=args.wave)
        de = reductions.reduce_to_ellipsoid(obs, rigorous=args.rigorous)
        return de, reductions.reduce_to_plane(de, args.scale)

    reference_per_row(args, "name,de[m],dr[m]", 3, row)


def reference_cmd_datum(args):
    if args.op == "bw-apply":
        params = cli._read_param_file(args.params)

        def row(*xyz):
            out = datum.bursa_wolf_apply(params, cli.EcefCoord(*xyz))
            return out.x, out.y, out.z

        reference_per_row(args, "name,x[m],y[m],z[m]", 3, row)
    elif args.op == "molodensky":
        unit = args.angle_unit
        factor = cli.ANGLE_UNITS[unit]
        ell1, ell2 = cli.get_ellipsoid(args.ell), cli.get_ellipsoid(args.ell2)
        shift = tuple(map(float, args.shift.split(",")))

        def row(phi, lam, he):
            g = datum.apply_molodensky(ell1, ell2,
                                       cli.GeodeticCoord(phi * factor, lam * factor, he),
                                       shift, abridged=args.abridged)
            return g.phi / factor, g.lam / factor, g.he

        reference_per_row(args, f"name,phi[{unit}],lam[{unit}],he[m]", 3, row)
    else:
        assert args.op == "helmert2d-apply", args.op
        doc = cli._read_json(args.params)
        params = datum.Helmert2DParams(*(cli.json_number(doc, k) for k in ("tx", "ty", "u", "v")))

        def row(e, n):
            out = datum.helmert2d_apply(params, cli.PlaneCoord(e, n))
            return out.e, out.n

        reference_per_row(args, "name,e[m],n[m]", 2, row)


REFERENCE = {"cmd_convert": reference_cmd_convert, "cmd_project": reference_cmd_project,
             "cmd_geodesic": reference_cmd_geodesic, "cmd_reduce": reference_cmd_reduce,
             "cmd_datum": reference_cmd_datum}
# the parameter file of datum bw-apply and helmert2d-apply: each reads its own keys
PARAMS = ('{"tx": -168.0, "ty": -60.0, "tz": 320.0, "m": 1.2e-6, "rx": 1e-6, "ry": -2e-6, '
          '"rz": 3e-6, "u": 1.00001, "v": 2e-5}')


def outcome(argv, text, block=None):
    """(exit code, stdout, stderr) of cli.main with `text` as its input file:
    the block pipeline with `block` rows per block, or the whole-file path
    when block is None.  An argument "PARAMS" names a file holding PARAMS."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with open(os.path.join(tmp, "params.json"), "w") as fh:
            fh.write(PARAMS)
        argv = [os.path.join(tmp, "params.json") if a == "PARAMS" else a for a in argv]
        if block is None:
            for name, fn in REFERENCE.items():
                stack.enter_context(mock.patch.object(cli, name, fn))
        else:
            stack.enter_context(mock.patch.object(cli, "_BLOCK_ROWS", block))
        out, err = io.StringIO(), io.StringIO()
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main([*argv, "-i", path])
    return code, out.getvalue(), err.getvalue()


def assert_same_as_whole_file(argv, text, block):
    got = outcome(argv, text, block)
    assert got == outcome(argv, text), (argv, text)
    return got


# -- the property ---------------------------------------------------------------
# per command: argv, fields per row, rows that pass, rows that fail in the
# kernel or the scalar API (exit 2 or 3)
COMMANDS = {
    "convert fwd": (["convert", "--from", "geodetic", "--to", "ecef"], 4,
                    ["40,10,0", "41.5,-12,100", "-30,150,2000", "0,0,0", "100,0,0"],
                    ["101,0,0", "40,10,nan", "40,inf,0"]),
    "convert inv": (["convert", "--from", "ecef", "--to", "geodetic"], 4,
                    ["4e6,1e6,4.8e6", "6378137,0,0", "-2e6,3e6,-5e6"],
                    ["0,0,6356752.3", "0,0,0", "nan,1,1", "1,1,inf"]),  # polar axis first
    "project fwd": (["project", "fwd"], 3, ["40,10", "55,2", "45,-3"],
                    ["101,0", "40,inf", "-90,0"]),
    "project inv": (["project", "inv"], 3, ["600000,200000", "500000,300000"],
                    ["inf,200000", "nan,0"]),
    "project fwd utm": (["project", "fwd", "--proj", "utm:32"], 3, ["40,10", "45,9"],
                        ["40,60", "40,nan"]),
    "project inv utm": (["project", "inv", "--proj", "utm:32"], 3,
                        ["500000,4500000", "510000,4510000"], ["1e300,0", "0,inf"]),
    "geodesic direct": (["geodesic", "direct"], 5,
                        ["40,10,50,10000", "41,11,150,20000", "0,0,100,5000", "40,10,0,1000"],
                        ["40,10,50,-1", "101,0,0,1000", "40,10,50,nan", "40,10,50,1e300"]),
    "geodesic inverse": (["geodesic", "inverse"], 5,
                         ["40,10,40.1,10.1", "41,11,40.9,11.2", "10,0,20,0"],
                         ["40,10,40,10", "0,0,0,199", "101,0,40,10", "40,nan,40,10"]),
    # the commands whose reference runs the scalar API on each row
    "reduce": (["reduce", "--rigorous", "--wave", "light"], 4,
               ["1000,100,120", "20000,1500,1600", "1e10,0,0"],
               ["-5,0,0", "100,0,200", "nan,0,0", "1e300,0,0"]),
    "datum bw-apply": (["datum", "bw-apply", "--params", "PARAMS"], 4,
                       ["4e6,1e6,4.8e6", "6378137,0,0", "1e300,0,0"],
                       ["nan,0,0", "1,inf,1", "1.7976931e308,0,0"]),  # the last overflows
    "datum molodensky": (["datum", "molodensky", "--shift=-168,-60,320"], 4,
                         ["40,10,0", "-30,150,2000", "40,10,1e300"],
                         ["101,0,0", "100,0,0", "40,nan,0"]),
    "datum molodensky abridged": (["datum", "molodensky", "--abridged", "--angle-unit", "deg",
                                   "--shift=-168,-60,320"], 4,
                                  ["40,10,0", "-30,150,2000", "0,-179.5,-50"],
                                  ["91,0,0", "90,0,0", "40,10,inf"]),
    "datum helmert2d-apply": (["datum", "helmert2d-apply", "--params", "PARAMS"], 3,
                              ["500000,300000", "0,0", "-1e5,4e6"],
                              ["nan,1", "0,-inf", "1.7976931e308,1.7976931e308"]),
}
KINDS = ["valid"] * 5 + ["fails", "short", "text", "quoted", "comment", "blank"]
COMMENTS = ["#", "# a comment, with commas", '#x,"spans\nlines"', '#"q"']


@st.composite
def inputs(draw):
    """(argv, CSV text): a header, then rows of every kind, with LF or CRLF."""
    argv, width, valid, failing = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    header = ",".join(["h"] * width)
    if draw(st.booleans()):
        header = f'"{header}"'
    lines = [draw(st.sampled_from(["", "#"])) for _ in range(draw(st.integers(0, 1)))] + [header]
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(KINDS))
        fields = [f"P{i}", *draw(st.sampled_from(failing if kind == "fails" else valid)).split(",")]
        if kind == "short":
            fields = fields[:draw(st.integers(1, width - 1))]
        elif kind == "text":
            fields[draw(st.integers(1, width - 1))] = draw(st.sampled_from(["abc", "", " ", "4O"]))
        elif kind == "quoted":
            j = draw(st.integers(0, width - 1))
            fields[j] = '"' + (draw(st.sampled_from(["P,1", "P\n1", 'P""1', "P\r\n1"]))
                               if j == 0 else fields[j]) + '"'
        lines.append({"comment": draw(st.sampled_from(COMMENTS)), "blank": ""}.get(
            kind, ",".join(fields)))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if not draw(st.integers(0, 7)):
        ends[-1] = ""
    return argv, "".join(map(str.__add__, lines, ends))


@settings(derandomize=True, max_examples=650, deadline=None)
@given(inputs(), st.integers(1, 7))
def test_blocks_match_the_whole_file_path(case, block):
    assert_same_as_whole_file(*case, block)


def test_the_inputs_reach_every_outcome():
    # the strategy above yields successes, numerical errors and input errors
    codes = set()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(inputs())
    def collect(case):
        codes.add(outcome(*case)[0])

    collect()
    assert codes == {0, 2, 3}


# -- error order across blocks --------------------------------------------------
POLAR = "P,0,0,6356752.3"  # ecef -> geodetic on the polar axis: PolarAxis
CONVERT_INV = ["convert", "--from", "ecef", "--to", "geodetic"]
GOOD_XYZ = [f"Q{i},4e6,{i}e5,4.8e6" for i in range(5)]


@pytest.mark.parametrize("block", [1, 2, 3, 7, 8192])
@pytest.mark.parametrize("argv,lines,error", [
    # a short row anywhere beats a failing row before it
    (CONVERT_INV, [POLAR, *GOOD_XYZ, "S,1"],
     "input error: ValueError: data row 7: expected at least 4 fields, got 2"),
    # and a parse error before it
    (CONVERT_INV, [*GOOD_XYZ, "T,x,1,1", *GOOD_XYZ, "S,1"],
     "input error: ValueError: data row 12: expected at least 4 fields, got 2"),
    # the first failing row in file order wins; rows after a parse error never run
    (CONVERT_INV, [*GOOD_XYZ, POLAR, "T,x,1,1"], "numerical error: PolarAxis"),
    (CONVERT_INV, [*GOOD_XYZ, "T,x,1,1", POLAR],
     "input error: ValueError: data row 6: could not convert string to float: 'x'"),
    # convert reads before it looks up the ellipsoid
    ([*CONVERT_INV, "--ell", "nonsense"], [*GOOD_XYZ, "S,1"],
     "input error: ValueError: data row 6: expected at least 4 fields, got 2"),
    # geodesic and project resolve the ellipsoid or projection first
    (["geodesic", "direct", "--ell", "nonsense"], ["A,40,10,50,1000", "S,1"],
     "input error: KeyError"),
    (["project", "fwd", "--proj", "nonsense"], ["A,40,10", "S,1"], "input error: KeyError"),
    (["datum", "molodensky", "--ell2", "nonsense"], ["A,40,10,0", "S,1"], "input error: KeyError"),
    # a command that runs the scalar API on each row keeps the same order
    (["datum", "molodensky"], ["A,40,10,0", "B,101,0,0", "T,x,1,1", "S,1"],
     "input error: ValueError: data row 4: expected at least 4 fields, got 2"),
    (["datum", "molodensky"], ["A,40,10,0", "T,x,1,1", "B,101,0,0"],
     "input error: ValueError: data row 2: could not convert string to float: 'x'"),
    (["datum", "molodensky"], ["A,40,10,0", "B,101,0,0", "T,x,1,1"],
     "input error: ValueError: latitude"),
])
def test_error_order_holds_across_blocks(argv, lines, error, block):
    width = {"geodesic": 5, "convert": 4, "datum": 4}.get(argv[0], 3)
    text = ",".join(["h"] * width) + "\n" + "\n".join(lines) + "\n"
    code, out, err = assert_same_as_whole_file(argv, text, block)
    assert code in (2, 3) and out == "" and err.startswith(error), err


def test_field_over_the_csv_limit_beats_every_other_error():
    # a csv error is an input error, raised before any row is computed
    long_field = "9" * (csv.field_size_limit() + 1)
    text = "h,h,h,h\n" + "\n".join([POLAR, "S,1", f"L,{long_field},1,1"]) + "\n"
    for block in (1, 2, 8192):
        assert outcome(CONVERT_INV, text, block) == (
            2, "", "input error: ValueError: data row 3: field larger than field limit "
                   f"({csv.field_size_limit()})\n")


# -- working memory -------------------------------------------------------------
ROWS = 50_000
# bytes of Python allocations per input row at the peak of a geodesic command,
# tracemalloc's figure: the input lines, the output text and one block.  It
# measures 222 (direct) and 224 (inverse) with np.loadtxt reading each block;
# the bound is 283 plus 25%, 283 being what it measured when csv.reader parsed
# each block.  The whole-file path held every parsed row: 548 for both.
PEAK_BYTES_PER_ROW = 354


def _write_rows(path, columns):
    with open(path, "w") as fh:
        fh.write(",".join(["name", *("v" for _ in columns)]) + "\n")
        fh.writelines(f"P{i}," + ",".join(map(repr, row)) + "\n"
                      for i, row in enumerate(zip(*(c.tolist() for c in columns))))


def _geodesic_input(problem, path) -> str:
    """Write the ROWS-row input of a geodesic command to path; return path."""
    # lines of 1-100 km, azimuths clear of meridians and parallels
    rng = np.random.default_rng(7)
    phi, lam = rng.uniform(-60, 60, ROWS), rng.uniform(-200, 200, ROWS)
    az, s = rng.uniform(10, 80, ROWS) + 100 * rng.integers(0, 4, ROWS), rng.uniform(1e3, 1e5, ROWS)
    columns = [phi, lam, az, s]
    if problem == "inverse":  # from each start point to its line's end point
        gr = cli.ANGLE_UNITS["gr"]
        ends = cli.geodesic_direct_array(cli.get_ellipsoid("clarke-1880-fr"),
                                         phi * gr, lam * gr, az * gr, s)
        columns = [phi, lam, ends[0] / gr, ends[1] / gr]
    _write_rows(path, columns)
    return path


def _peak_bytes_per_row(argv) -> float:
    tracemalloc.start()
    try:
        code = cli.main([*argv, "-o", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak / ROWS


@pytest.mark.parametrize("problem", ["direct", "inverse"])
def test_geodesic_working_memory_per_row(problem, tmp_path):
    path = _geodesic_input(problem, str(tmp_path / "in.csv"))
    per_row = _peak_bytes_per_row(["geodesic", problem, "-i", path])
    assert per_row < PEAK_BYTES_PER_ROW, f"{per_row:.0f} B per row"


def test_geodesic_working_memory_per_row_from_stdin(tmp_path, monkeypatch):
    # stdin once went through a StringIO, whose 4-byte-per-character buffer
    # took the peak to 466 B per row
    with open(_geodesic_input("direct", str(tmp_path / "in.csv"))) as fh:
        monkeypatch.setattr(sys, "stdin", fh)
        per_row = _peak_bytes_per_row(["geodesic", "direct"])
    assert per_row < PEAK_BYTES_PER_ROW, f"{per_row:.0f} B per row"


# -- np.loadtxt against csv.reader and float() ---------------------------------
LIMIT = csv.field_size_limit()
# fields on either side of what np.loadtxt, csv.reader and float() accept; a
# quote, a NUL or \x1c-\x1f anywhere sends the whole input to csv.reader
FIELDS = ["1_0", " 1.5 ", "\xa01.5", "\t-2\x0b", "nan", "-nan", "-inf", "Infinity", "1e999",
          "-1e-400", "5e-324", "-0", "١٢", "inf\r", "2\r\n", "", " ", "0x10", "1d3", "\0",
          "1\0", "\x1c1", "1\x1f", '"3"', "1" * LIMIT, "9" * (LIMIT + 1)]
NUMBER = st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str))
FIELD = st.one_of(NUMBER, st.sampled_from(FIELDS),
                  st.text(st.sampled_from("09.eE+-_ \t\xa0,"), max_size=5))


def parsed(text, count, block, fallback=False):
    """The names and the columns' bytes of each block _Rows.columns yields
    on `text`, `block` rows at a time, and the message of the ValueError it
    raises, or None; with fallback, np.loadtxt raises on every block."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        stack.enter_context(mock.patch.object(cli, "_BLOCK_ROWS", block))
        if fallback:
            stack.enter_context(mock.patch.object(np, "loadtxt", side_effect=ValueError))
        blocks = []
        try:
            for names, columns in cli._Rows(path, count + 1).columns(count):
                assert all(c.dtype == float and c.flags.c_contiguous for c in columns)
                blocks.append((names, [c.tobytes() for c in columns]))
        except ValueError as exc:
            return blocks, str(exc)
    return blocks, None


@st.composite
def tables(draw):
    """(CSV text, numeric columns read): rows of numbers and, one in four,
    rows of random fields, some short, with LF, CRLF or lone CR endings."""
    count = draw(st.integers(2, 4))
    lines = [",".join(["h"] * (count + 1))]
    for i in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 3)):
            fields = draw(st.lists(NUMBER, min_size=count, max_size=count + 1))
        else:
            fields = draw(st.lists(FIELD, min_size=count - 1, max_size=count + 1))
        names = [f"P{i}"] * 12 + ["", " Q", "\0", "\x1d"]
        lines.append(",".join([draw(st.sampled_from(names)), *fields]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)), count


@settings(derandomize=True, max_examples=400, deadline=None)
@given(tables(), st.integers(1, 4))
def test_loadtxt_matches_csv_reader_and_float(table, block):
    text, count = table
    assert parsed(text, count, block) == parsed(text, count, block, fallback=True)


EDGE_CASES = {
    **{f"field {f!r}": f"h,h,h\nP,1,{f}\nQ,2,3\n" for f in
       ["1_0", " 1.5 ", "\xa01.5", "nan", "-inf", "1e999", "١٢", "inf\r", "", "\x1c1", "1\x1f"]},
    "lone CR endings": "h,h,h\rP,1,2\rQ,3,4\r",
    "CRLF endings": "h,h,h\r\nP,1,2\r\nQ,3,4",
    "NUL in a name": "h,h,h\nP\0,1,2\nQ,3,4\n",
    "NUL in a number": "h,h,h\nP,1\0,2\nQ,3,4\n",
    "NUL in an extra field": "h,h,h\nP,1,2,\0\nQ,3,4\n",
    "field of the csv limit": f"h,h,h\nP,1,{'1' * LIMIT}\nQ,3,4\n",
    "number over the csv limit": f"h,h,h\nP,1,{'1' * (LIMIT + 1)}\nQ,3,4\n",
    "extra field over the csv limit": f"h,h,h\nP,1,2,{'x' * (LIMIT + 1)}\nQ,3,4\n",
    "short row": "h,h,h\nP,1\nQ,3,4\n",
}


@pytest.mark.parametrize("block", [1, 8192])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_loadtxt_matches_csv_reader_and_float_on_the_edge_cases(case, block):
    text = EDGE_CASES[case]
    assert parsed(text, 2, block) == parsed(text, 2, block, fallback=True)


def test_loadtxt_reads_the_fields_float_accepts():
    # every row here takes the fast path: csv.reader is not called
    fields = [" 1.5 ", "\xa01.5", "\t-2\x0b", "nan", "-inf", "Infinity", "1e999", "-0", "inf"]
    text = "h,h,h\n" + "".join(f"P{i},{f},{f}\r\n" for i, f in enumerate(fields[:-1]))
    text += f"Q,1,{fields[-1]}\r"
    with mock.patch.object(cli._Rows, "_parse", side_effect=AssertionError):
        (names, columns), = parsed(text, 2, 8192)[0]
    assert names == [f"P{i}" for i in range(len(fields) - 1)] + ["Q"]
    expected = np.array([float(f) for f in fields])
    assert columns[1] == expected.tobytes()
    assert columns[0] == np.array([*expected[:-1], 1.0]).tobytes()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_fallback_on_every_block_writes_the_same_bytes(command):
    # three blocks of the first two valid rows: the same stdout whether
    # np.loadtxt reads each block or csv.reader and float() do
    argv, width, valid, _ = COMMANDS[command]
    rows = [f"P{i},{valid[i % 2]}" for i in range(7)]
    text = ",".join(["h"] * width) + "\n" + "\n".join(rows) + "\n"
    fast = outcome(argv, text, 3)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        assert outcome(argv, text, 3) == fast
    assert fast[0] == 0 and fast[1].count("\n") == 8, fast
