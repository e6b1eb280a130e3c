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
stderr.  These few-row inputs take the array path: the tests that reach
a kernel, a fork or a share patch cli._SCALAR_ROWS to 0, as outcome()
does.  A small input's path, the scalar API on each row, is then held to
the array path's output to one unit of the 12th significant digit.  With
the usable CPUs patched too, an input of several blocks runs in shares,
all but the first in forked children, which must give the same and leave
no process behind.  Then np.loadtxt is checked against
csv.reader and float() on the fields where they part, and argparse's help
and usage-error text is pinned.
"""

import contextlib
import csv
import gc
import io
import math
import os
import pickle
import resource
import signal
import subprocess
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
    if path in (None, "-"):  # lines end at LF, CR or CRLF, as in a file
        rows = list(csv.reader(io.StringIO(sys.stdin.read(), newline="")))
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


def outcome(argv, text, block=None, stdin=False, to_file=False, scalar_rows=0):
    """(exit code, stdout, stderr) of cli.main with `text`, str or bytes, as
    its input file, or on stdin: the block pipeline with `block` rows per
    block, or the whole-file path when block is None.  The pipeline takes
    scalar_rows as cli._SCALAR_ROWS: at 0, the default, every input runs
    through the array kernels.  An argument "PARAMS" names a file holding
    PARAMS.  With to_file, the output goes to a file (-o) and its text, or
    None if there is none, stands for stdout."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") if isinstance(text, bytes) else open(path, "w", newline="") as fh:
            fh.write(text)
        with open(os.path.join(tmp, "params.json"), "w") as fh:
            fh.write(PARAMS)
        argv = [os.path.join(tmp, "params.json") if a == "PARAMS" else a for a in argv]
        if block is None:
            for name, fn in REFERENCE.items():
                stack.enter_context(mock.patch.object(cli, name, fn))
        else:
            stack.enter_context(mock.patch.object(cli, "_BLOCK_ROWS", block))
            stack.enter_context(mock.patch.object(cli, "_SCALAR_ROWS", scalar_rows))
        if stdin:  # as the interpreter's stdin: bad bytes are escaped
            stack.enter_context(mock.patch.object(sys, "stdin", stack.enter_context(
                io.TextIOWrapper(open(path, "rb"), errors="surrogateescape", newline="\n"))))
        out, err = io.StringIO(), io.StringIO()
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        output = os.path.join(tmp, "out.csv")
        code = cli.main([*argv, "-i", "-" if stdin else path, *(["-o", output] * to_file)])
        written = out.getvalue()
        if to_file:
            written = None
            if os.path.exists(output):
                with open(output, newline="") as fh:
                    written = fh.read()
    return code, written, err.getvalue()


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


# -- the small-input path against the array path ---------------------------------
# per command: the range of each numeric column of its random rows, angles in
# grads but for the abridged Molodensky's degrees
DOMAINS = {
    "convert fwd": [(-100, 100), (-400, 400), (-1e4, 1e5)],
    "convert inv": [(-7e6, 7e6)] * 3,
    "project fwd": [(30, 50), (0, 25)],
    "project inv": [(3e5, 7e5), (1e5, 5e5)],
    "project fwd utm": [(-90, 90), (5, 15)],
    "project inv utm": [(2e5, 8e5), (-9e6, 9e6)],
    "geodesic direct": [(-100, 100), (-200, 200), (0, 400), (0, 2e6)],
    "geodesic inverse": [(-100, 100), (-200, 200), (-100, 100), (-200, 200)],
    "reduce": [(1, 1e5), (0, 4000), (0, 4000)],
    "datum bw-apply": [(-7e6, 7e6)] * 3,
    "datum molodensky": [(-100, 100), (-400, 400), (-1e3, 1e4)],
    "datum molodensky abridged": [(-90, 90), (-180, 180), (-1e3, 1e4)],
    "datum helmert2d-apply": [(-1e7, 1e7)] * 2,
}


@st.composite
def small_inputs(draw):
    """(argv, CSV text) of a table command on 1-10 rows: random ones in its
    domain, among its valid and failing rows."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, width, valid, failing = COMMANDS[command]
    lines = [",".join(["h"] * width)]
    for i in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random"] * 6 + ["valid", "fails"]))
        if kind == "random":
            row = ",".join(repr(draw(st.floats(lo, hi))) for lo, hi in DOMAINS[command])
        else:
            row = draw(st.sampled_from(valid if kind == "valid" else failing))
        lines.append(f"P{i},{row}")
    return argv, "\n".join(lines) + "\n"


def assert_within_a_unit_of_the_12th_digit(got, want):
    """The same exit code, stderr and names, and each printed value within
    one unit of its 12th significant digit."""
    assert (got[0], got[2]) == (want[0], want[2])
    lines, wanted = got[1].splitlines(), want[1].splitlines()
    assert len(lines) == len(wanted) and lines[:1] == wanted[:1]  # the header
    for line, ref in zip(lines[1:], wanted[1:]):
        fields, ref_fields = line.split(","), ref.split(",")
        assert fields[0] == ref_fields[0] and len(fields) == len(ref_fields), (line, ref)
        for a, b in zip(map(float, fields[1:]), map(float, ref_fields[1:])):
            if a != b:
                unit = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 11)
                assert abs(a - b) <= unit, (line, ref)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(small_inputs())
def test_a_small_input_prints_what_the_array_path_prints(case):
    # the scalar API on each row of a small input, against the array kernels
    # and _settle on the same rows
    small = outcome(*case, cli._BLOCK_ROWS, scalar_rows=cli._SCALAR_ROWS)
    assert_within_a_unit_of_the_12th_digit(small, outcome(*case, cli._BLOCK_ROWS))


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


# per command with angle inputs: its input columns, an angle having no tag
ANGLE_INPUTS = {"convert fwd": ["phi", "lam", "he[m]"], "project fwd": ["phi", "lam"],
                "geodesic direct": ["phi1", "lam1", "az1", "s[m]"],
                "geodesic inverse": ["phi1", "lam1", "phi2", "lam2"],
                "datum molodensky": ["phi", "lam", "he[m]"]}


def tagged(command, rows, unit=None, where=slice(None)):
    """CSV text of rows under a header that tags the angle columns at
    `where` among the command's angle inputs with unit, if one is given."""
    columns = ANGLE_INPUTS[command]
    angles = [c for c in columns if not c.endswith("]")][where] if unit else []
    header = [f"{c}[{unit}]" if c in angles else c for c in columns]
    return "name," + ",".join(header) + "\n" + "".join(f"P{i},{r}\n" for i, r in enumerate(rows))


@pytest.mark.parametrize("command", sorted(ANGLE_INPUTS))
def test_a_header_tag_of_the_angle_unit_reads_as_an_untagged_header(command):
    argv, _, valid, _ = COMMANDS[command]
    untagged = outcome(argv, tagged(command, valid), 2)
    assert untagged[0] == 0 and untagged[1].count("\n") == len(valid) + 1, untagged
    assert outcome(argv, tagged(command, valid, "gr"), 2) == untagged
    assert outcome(argv, tagged(command, valid, "gr", slice(-1, None)), 2) == untagged
    # a header narrower than the rows tags only its own columns
    narrow = f"name,{ANGLE_INPUTS[command][0]}[gr]\n" + tagged(command, valid).partition("\n")[2]
    assert outcome(argv, narrow, 2) == untagged
    deg = [*argv, "--angle-unit", "deg"]
    assert outcome(deg, tagged(command, valid, "deg"), 2) == outcome(deg, tagged(command, valid), 2)


@pytest.mark.parametrize("where", [slice(0, 1), slice(-1, None)], ids=["first", "last"])
@pytest.mark.parametrize("command", sorted(ANGLE_INPUTS))
def test_a_header_tag_of_another_unit_exits_2_and_writes_nothing(command, where, tmp_path):
    # before any block runs, so the -o file is left as it was; the input's
    # own errors, a short row here, come first
    argv, width, valid, _ = COMMANDS[command]
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    text = tagged(command, valid, "deg", where)
    column = [c for c in ANGLE_INPUTS[command] if not c.endswith("]")][where][0]
    for rows, error in [(text, f"header: column {column}[deg] is in deg, but --angle-unit is gr"),
                        (text + "S,1\n", f"data row {len(valid) + 1}: expected at least {width} "
                                         "fields, got 2")]:
        path.write_text(rows)
        out.write_bytes(b"kept\r\n")
        err = io.StringIO()
        with mock.patch.object(cli, "_BLOCK_ROWS", 2), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "-i", str(path), "-o", str(out)])
        assert (code, err.getvalue()) == (2, f"input error: ValueError: {error}\n")
        assert out.read_bytes() == b"kept\r\n"


# -- shares across CPUs ---------------------------------------------------------
@contextlib.contextmanager
def usable_cpus(count):
    """count usable CPUs for _shared; yields the pids this process forks."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    with mock.patch.object(os, "sched_getaffinity", return_value=set(range(count)), create=True), \
            mock.patch.object(os, "fork", counted):
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a row that fails in each way, for convert --from ecef: exit 2, 2 and 3
FAILING = {"short": "S,1", "text": "T,x,1,1", "numerical": POLAR}


@pytest.mark.parametrize("later", [None, *((kind, row) for kind in FAILING for row in (2, 5))])
@pytest.mark.parametrize("first", [None, *FAILING])
def test_shares_match_the_whole_file_path(first, later):
    # 6 rows in blocks of 2 on 3 CPUs: this process runs rows 0-1, one child
    # rows 2-3 and another rows 4-5; a short row anywhere wins, raised as the
    # input is read, before any fork; then the first failing row
    rows = [*GOOD_XYZ, GOOD_XYZ[0]]
    if first:
        rows[1] = FAILING[first]
    if later:
        later, row = later
        rows[row] = FAILING[later]
    text = "h,h,h,h\n" + "\n".join(rows) + "\n"
    with usable_cpus(3) as forks:
        got = outcome(CONVERT_INV, text, 2)
    kinds = [kind for kind in (first, later) if kind]
    assert forks == [] if "short" in kinds else len(forks) == 2
    assert_no_child_left()
    assert got == outcome(CONVERT_INV, text)
    assert got[0] == (0 if not kinds else 2 if "short" in kinds
                      else {"numerical": 3, "text": 2}[kinds[0]]), got


@pytest.mark.parametrize("error_row,short_row", [(0, 2), (4, 6)], ids=["first", "later"])
def test_a_short_row_after_an_error_in_the_same_share_wins(error_row, short_row):
    # 8 rows in blocks of 2 on 2 CPUs: two blocks a share, an error in the
    # first block of a share and a short row in its second, which raises as
    # the input is read, so nothing forks
    rows = [*GOOD_XYZ, *GOOD_XYZ[:3]]
    rows[error_row], rows[short_row] = POLAR, "S,1"
    text = "h,h,h,h\n" + "\n".join(rows) + "\n"
    with usable_cpus(2) as forks:
        got = outcome(CONVERT_INV, text, 2)
    assert forks == []
    assert_no_child_left()
    assert got == outcome(CONVERT_INV, text) == (
        2, "", f"input error: ValueError: data row {short_row + 1}: expected at least 4 fields, "
               "got 2\n")


def test_a_quoted_input_is_split_into_csv_rows():
    # csv.reader reads a child's share of such an input too: np.loadtxt
    # would keep the quotes of a name
    rows = [GOOD_XYZ[0], '"Q,1",4e6,1e5,4.8e6', '"Q2",6378137,0,0', GOOD_XYZ[1]]
    text = "h,h,h,h\n" + "\n".join(rows) + "\n"
    with usable_cpus(2) as forks:
        got = outcome(CONVERT_INV, text, 2)
    assert len(forks) == 1
    assert_no_child_left()
    assert got == outcome(CONVERT_INV, text) and got[0] == 0 and "\nQ2," in got[1]


@pytest.mark.parametrize("fails", [False, True], ids=["valid", "fails"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_table_command_runs_in_shares(command, fails):
    # 7 rows in 4 blocks of 2 on 3 CPUs: shares of 1, 1 and 2 blocks
    argv, width, valid, failing = COMMANDS[command]
    rows = [f"P{i},{valid[i % 2]}" for i in range(7)]
    if fails:
        rows[5] = f"F,{failing[0]}"
    text = ",".join(["h"] * width) + "\n" + "\n".join(rows) + "\n"
    with usable_cpus(3) as forks:
        got = outcome(argv, text, 2)
    assert len(forks) == 2
    assert_no_child_left()
    assert got == outcome(argv, text) and (got[0] != 0) == fails, got


def test_one_block_runs_in_this_process():
    text = "h,h,h,h\n" + "\n".join(GOOD_XYZ) + "\n"
    with usable_cpus(4) as forks:
        got = outcome(CONVERT_INV, text, 8192)
    assert forks == [] and got == outcome(CONVERT_INV, text)


def test_a_short_row_in_the_last_block_raises_before_any_block_runs(monkeypatch):
    # 4 rows in 2 blocks of 2 on 2 CPUs, the short row last: it raises as the
    # input is read, so nothing forks and no row reaches the kernel
    calls, kernel = [], cli.ecef_to_geodetic_array
    monkeypatch.setattr(cli, "ecef_to_geodetic_array", lambda *a: calls.append(a) or kernel(*a))
    text = "h,h,h,h\n" + "\n".join([*GOOD_XYZ[:3], "S,1,2"]) + "\n"
    with usable_cpus(2) as forks:
        got = outcome(CONVERT_INV, text, 2)
    assert (forks, calls) == ([], [])
    assert got == outcome(CONVERT_INV, text) == (
        2, "", "input error: ValueError: data row 4: expected at least 4 fields, got 3\n")


@pytest.mark.parametrize("rows,error", [
    (GOOD_XYZ[:4], "OSError: [Errno 9] stdout is closed"),
    ([*GOOD_XYZ[:3], "S,1,2"], "ValueError: data row 4: expected at least 4 fields, got 3"),
], ids=["closed", "short-row-first"])
def test_a_closed_stdout_raises_before_any_block_runs(rows, error, monkeypatch, tmp_path):
    # 4 rows in 2 blocks of 2 on 2 CPUs into a closed stdout: it is found
    # once the input has been read, so nothing forks, no row reaches the
    # kernel and nothing is spooled; the input's own errors come first
    calls, kernel = [], cli.ecef_to_geodetic_array
    monkeypatch.setattr(cli, "ecef_to_geodetic_array", lambda *a: calls.append(a) or kernel(*a))
    monkeypatch.setattr(cli, "_Spool", mock.Mock(side_effect=AssertionError))
    path = tmp_path / "in.csv"
    path.write_text("h,h,h,h\n" + "\n".join(rows) + "\n")
    err = io.StringIO()
    with usable_cpus(2) as forks, mock.patch.object(cli, "_BLOCK_ROWS", 2), \
            mock.patch.object(cli, "_SCALAR_ROWS", 0), \
            mock.patch.object(sys, "stdout", None), contextlib.redirect_stderr(err):
        code = cli.main([*CONVERT_INV, "-i", str(path)])
    assert (forks, calls) == ([], [])
    assert (code, err.getvalue()) == (2, f"input error: {error}\n")


@pytest.mark.parametrize("system", [True, False], ids=["system", "network"])
def test_a_closed_stdout_raises_before_adjust_solves(system, monkeypatch, tmp_path):
    from geodkit import adjust

    monkeypatch.setattr(adjust, "solve_linear", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(adjust.Network, "solve", mock.Mock(side_effect=AssertionError))
    (tmp_path / "sys.json").write_text('{"a": [[1.0], [1.0]], "k": [0.5, -0.5]}')
    (tmp_path / "points.csv").write_text("name,x0,y0,z0,fixed\nA,0,0,3,true\nB,0,0,3,false\n")
    (tmp_path / "obs.csv").write_text("kind,from,to,value,sigma,set_id,dist_km\n"
                                      "leveling,A,B,0.3,,,6\nleveling,B,A,-0.3,,,6\n")
    args = (["--system", str(tmp_path / "sys.json")] if system else
            ["--obs", str(tmp_path / "obs.csv"), "--points", str(tmp_path / "points.csv")])
    err = io.StringIO()
    with mock.patch.object(sys, "stdout", None), contextlib.redirect_stderr(err):
        code = cli.main(["adjust", *args])
    assert (code, err.getvalue()) == (2, "input error: OSError: [Errno 9] stdout is closed\n")


@pytest.mark.parametrize("base", [ArithmeticError, KeyError])
def test_an_error_that_does_not_pickle_crosses_by_name(base, monkeypatch):
    class Unpicklable(base):  # a local class: pickle cannot name it
        pass

    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(Unpicklable("row B"))
    kernel = cli.ecef_to_geodetic_array

    def failing(ell, x, *yz):
        if (x == 5.0).any():
            raise Unpicklable("row B")
        return kernel(ell, x, *yz)

    monkeypatch.setattr(cli, "ecef_to_geodetic_array", failing)
    text = "h,h,h,h\n" + "\n".join([*GOOD_XYZ[:3], "B,5,0,0"]) + "\n"
    with usable_cpus(2) as forks:
        got = outcome(CONVERT_INV, text, 2)
    assert len(forks) == 1
    assert_no_child_left()
    assert got == outcome(CONVERT_INV, text) == (
        (3, "", "numerical error: Unpicklable: row B\n") if base is ArithmeticError
        else (2, "", "input error: Unpicklable: 'row B'\n"))


@pytest.mark.parametrize("fails", ["pipe", "fork"])
@pytest.mark.parametrize("row", [None, "text", "numerical"])
def test_a_share_whose_fork_fails_runs_here(fails, row):
    # 10 rows in blocks of 2 on 3 CPUs: the second pipe or fork raises (a
    # process or descriptor limit), and this process runs that share itself
    rows = [*GOOD_XYZ, *GOOD_XYZ]
    if row:
        rows[8] = FAILING[row]
    text = "h,h,h,h\n" + "\n".join(rows) + "\n"
    calls = []
    with usable_cpus(3) as forks:
        real = getattr(os, fails)

        def second_fails():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real()
        with mock.patch.object(os, fails, second_fails):
            got = outcome(CONVERT_INV, text, 2)
    assert len(calls) == 2 and len(forks) == 1
    assert_no_child_left()
    with usable_cpus(1):
        assert got == outcome(CONVERT_INV, text, 2)
    assert got[0] == {None: 0, "text": 2, "numerical": 3}[row], got


@pytest.fixture(scope="module")
def two_blocks(tmp_path_factory):
    """A CSV of convert --from ecef rows one longer than a block."""
    path = tmp_path_factory.mktemp("shares") / "in.csv"
    with open(path, "w") as fh:
        fh.write("h,h,h,h\n")
        fh.writelines(f"Q{i},4e6,{i},4.8e6\n" for i in range(cli._BLOCK_ROWS + 1))
    return str(path)


@pytest.mark.parametrize("flags", [[], ["-W", "error::DeprecationWarning"],
                                   ["-W", "always::DeprecationWarning"]])
def test_a_run_in_shares_writes_nothing_to_stderr(flags, two_blocks):
    # Python 3.12 warns at a fork in a process with threads, numpy's BLAS
    # pool being one, and shows it under python -m geodkit.cli
    proc = subprocess.run([sys.executable, *flags, "-m", "geodkit.cli", *CONVERT_INV,
                           "-i", two_blocks], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(two_blocks) as fh:
        assert proc.stdout == outcome(CONVERT_INV, fh.read())[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_run_in_shares_into_a_full_disk_exits_2_with_one_line(two_blocks):
    proc = subprocess.run([sys.executable, "-m", "geodkit.cli", *CONVERT_INV, "-i", two_blocks,
                           "-o", "/dev/full"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "input error: OSError: [Errno 28] No space left on device\n"


def test_field_over_the_csv_limit_beats_every_other_error():
    # a csv error is an input error, raised before any row is computed
    long_field = "9" * (csv.field_size_limit() + 1)
    text = "h,h,h,h\n" + "\n".join([POLAR, "S,1", f"L,{long_field},1,1"]) + "\n"
    for block in (1, 2, 8192):
        assert outcome(CONVERT_INV, text, block) == (
            2, "", "input error: ValueError: data row 3: field larger than field limit "
                   f"({csv.field_size_limit()})\n")


def yielded(path):
    """The header _read_csv returns and the data rows _read_rows reads from
    its return, block by block, as csv.reader parses them."""
    read = cli._read_csv(path)
    with mock.patch.object(cli, "_read_csv", return_value=read):
        return read[0], cli._read_rows(path, 0)


def stdin_of(text):
    """A stand-in for sys.stdin holding text.  Like the interpreter's, its
    text layer splits lines at LF only; _read_csv reads its bytes."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), newline="\n")


@pytest.mark.parametrize("name", ["P", '"P"'], ids=["plain", "quoted"])
def test_read_csv_raises_the_csv_error_itself(name, tmp_path):
    # the blocks never meet a csv error: _read_csv raises it as it reads the
    # input, naming its data row; a comment over the limit is no error
    path, head = tmp_path / "in.csv", f"h,h,h\n# {'x' * LIMIT}\n{name},1,2\n"
    path.write_text(head + "Q,3,4\n")
    assert yielded(str(path)) == (["h", "h", "h"], [["P", "1", "2"], ["Q", "3", "4"]])
    path.write_text(head + f"Q,3,{'9' * (LIMIT + 1)}\n")
    error = rf"^data row 2: field larger than field limit \({LIMIT}\)$"
    with pytest.raises(ValueError, match=error):
        cli._read_csv(str(path))


# what the plain scan takes as one line: no quote, NUL, \x1c-\x1f, CR or LF
# inside it, and "#", CR or LF does not start it
PLAIN_FIELD = st.one_of(st.sampled_from(["", " ", "1.5", " -2 ", "é", "点", "#"]), st.text(
    st.characters(blacklist_characters='",\r\n\0\x1c\x1d\x1e\x1f', blacklist_categories=("Cs",)),
    max_size=4))
PLAIN_LINE = st.builds(lambda fields, end: ",".join(fields) + end,
                       st.lists(PLAIN_FIELD, min_size=1, max_size=6),
                       st.sampled_from(["\n", "\r\n", ""])).filter(lambda line: line[:1] not in "#\r\n")


@settings(derandomize=True, max_examples=500, deadline=None)
@given(PLAIN_LINE)
def test_a_plain_line_has_its_comma_count_plus_one_fields(line):
    # the plain scan counts a row's fields as its commas + 1: empty fields,
    # spaces, a trailing comma and any line end included
    assert line.count(",") + 1 == len(next(csv.reader([line])))


@st.composite
def ragged_inputs(draw):
    """CSV bytes of rows 1-6 fields wide among comment and blank lines, a
    quoted row or a bare CR sometimes sending the input to csv.reader."""
    lines = [draw(st.sampled_from(SKIPPED)) for _ in range(draw(st.integers(0, 2)))] + ["h,h,h"]
    for i in range(draw(st.integers(0, 14))):
        row = ",".join([f"P{i}", *draw(st.lists(PLAIN_FIELD, max_size=5))])
        lines.append(draw(st.sampled_from([row] * 12 + [f'"{row}"', *SKIPPED])))
    ends = [draw(st.sampled_from(["\n", "\r\n"] * 4 + ["\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from(["\n", "\r\n", ""]))
    return "".join(map(str.__add__, lines, ends)).encode()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ragged_inputs(), st.sampled_from([16, 32, 64, 1 << 18]))
def test_read_csv_finds_the_field_count_lows_csv_reader_gives(data, chunk):
    # each data row narrower than every row before it, from the scan's comma
    # counts over chunks of a few lines, or from the rows of csv.reader
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        lows, low = [], np.inf
        for i, row in enumerate(reference_read_csv(path)[1], 1):
            if len(row) < low:
                lows.append((i, len(row)))
                low = len(row)
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert cli._read_csv(path)[1].lows == lows, data


def test_a_block_reads_the_same_rows_in_any_order_and_again():
    # the reader keeps no cursor: each block of a file or of stdin, read in
    # a shuffled order and twice, holds the rows csv.reader gives for its
    # numbers, on inputs plain and for csv.reader, from scans of 16 B to
    # 256 KB in blocks of 1-7 rows
    kinds = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(ragged_inputs(), st.booleans(), st.sampled_from([16, 32, 64, 1 << 12, 1 << 18]),
           st.integers(1, 7), st.randoms(use_true_random=False))
    def check(data, stdin, chunk, block, rng):
        with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
            path = os.path.join(tmp, "in.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            expected = reference_read_csv(path)[1]
            if stdin:
                stack.enter_context(mock.patch.object(sys, "stdin", stdin_of(data.decode())))
            stack.enter_context(mock.patch.object(cli, "_CHUNK", chunk))
            stack.enter_context(mock.patch.object(cli, "_BLOCK_ROWS", block))
            rows = cli._read_csv("-" if stdin else path)[1]
            order = [*rows.blocks] * 2
            rng.shuffle(order)
            for i in order:
                assert list(csv.reader(rows.lines(i))) == expected[i * block:(i + 1) * block]
            assert rows.blocks == range(-(-len(expected) // block)) and len(rows) == len(expected)
            kinds.add((stdin, rows.plain))

    check()
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}


H3 = ["h", "h", "h"]


@pytest.mark.parametrize("text,rows", [
    # a lone CR ends a line, inside a row, after a header field, a comment or
    # nothing (a blank line)
    ("h,h,h\nP,1\r2,3\n", [H3, ["P", "1"], ["2", "3"]]),
    ("h\rh,h\nP,1,2\n", [["h"], ["h", "h"], ["P", "1", "2"]]),
    ("h,h,h\r\nP,1,2\r\r\nQ,3,4\r", [H3, ["P", "1", "2"], ["Q", "3", "4"]]),
    ("h,h,h\n#a\rb\n\rP,1\nQ,3,4\n", [H3, ["b"], ["P", "1"], ["Q", "3", "4"]]),
    ("h,h,h\n#c\rA,4e6,1\n", [H3, ["A", "4e6", "1"]]),
    ('h,h,h\n"A",4e6\r\rB,4e6,2\n', [H3, ["A", "4e6"], ["B", "4e6", "2"]]),
])
def test_read_csv_splits_stdin_as_it_splits_a_file(text, rows, monkeypatch, tmp_path):
    # one line rule, LF, CR or CRLF, whichever way the input comes
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(sys, "stdin", stdin_of(text))
    assert yielded("-") == yielded(str(path)) == (rows[0], rows[1:])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ragged_inputs(), st.integers(1, 7))
def test_convert_reads_stdin_as_it_reads_a_file(data, block):
    # end to end, lone CR line ends included: the same stdout, exit code and
    # stderr from -i - as from -i path, on bytes that decode either way
    assert outcome(CONVERT_INV, data, block, stdin=True) == outcome(CONVERT_INV, data, block)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_file_truncated_after_the_scan_exits_2(cpus, tmp_path):
    # the scan keeps where each block starts; a block that no longer holds
    # its rows is an input error, raised before anything is written
    path = tmp_path / "in.csv"
    path.write_text("h,h,h,h\n" + "".join(f"Q{i},4e6,{i},4.8e6\n" for i in range(12)))
    read_csv = cli._read_csv

    def truncating(path):
        scanned = read_csv(path)
        os.truncate(path, 90)  # in the second block of four rows, part way into a row
        return scanned
    out, err = io.StringIO(), io.StringIO()
    with usable_cpus(cpus), mock.patch.object(cli, "_read_csv", truncating), \
            mock.patch.object(cli, "_BLOCK_ROWS", 4), mock.patch.object(cli, "_SCALAR_ROWS", 0), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*CONVERT_INV, "-i", str(path)])
    assert_no_child_left()
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "input error: OSError: the input changed while it was read\n"


# -- output spools ---------------------------------------------------------------
# names in and out of ASCII, one outside the BMP; stdin escapes a byte that
# is not UTF-8 to a lone surrogate, which only stdout (a StringIO here) takes
SPOOLED_NAMES = ["Q", "Pé", "点", "Q\U0001f30d"]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_spooled_output_matches_the_whole_file_path(cpus, stdin, to_file):
    # 7 rows in 4 blocks of 2 on 1-3 CPUs: each share spools its lines, and
    # this process copies them out in share order
    names = SPOOLED_NAMES + ["Q\udcff"] * (stdin and not to_file)
    rows = [f"{names[i % len(names)]}{i},4e6,{i}e5,4.8e6" for i in range(7)]
    data = ("h,h,h,h\n" + "\n".join(rows) + "\n").encode("utf-8", "surrogateescape")
    with usable_cpus(cpus) as forks:
        got = outcome(CONVERT_INV, data, 2, stdin, to_file)
    assert len(forks) == cpus - 1
    assert_no_child_left()
    assert got == outcome(CONVERT_INV, data, stdin=stdin, to_file=to_file)
    assert got[0] == 0 and got[1].count("\n") == 8, got
    assert all(f"\n{names[i % len(names)]}{i}," in got[1] for i in range(7)), got


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text(st.characters(blacklist_categories=())))
def test_a_spool_round_trips_any_str(text):
    # lone surrogates, CR and CRLF included: the copy goes through the
    # destination's text stream, which here is a StringIO
    out = io.StringIO()
    with cli._Spool() as spool, contextlib.redirect_stdout(out):
        spool.count = spool.write(text)
        spool.seek(0)
        cli._write_lines([spool], "-")
    assert out.getvalue() == text and len(spool) == len(text)


def open_fds() -> dict:
    """Each descriptor this process holds, and what it points to."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(FileNotFoundError):  # the listing's own
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
    return fds


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("kind", [None, *FAILING])
def test_a_run_in_shares_leaves_no_spool_and_no_partial_output(kind, tmp_path, monkeypatch):
    # 6 rows in blocks of 2 on 3 CPUs, the failing row in the second child's
    # share: the -o file that was there stays byte for byte, every spool is
    # closed once main() returns, and the temp directory is left empty.
    rows = [*GOOD_XYZ, GOOD_XYZ[0]]
    if kind:
        rows[5] = FAILING[kind]
    path, out, spools = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "spools"
    path.write_text("h,h,h,h\n" + "\n".join(rows) + "\n")
    out.write_bytes(b"kept\r\n\xff")
    spools.mkdir()
    monkeypatch.setenv("TMPDIR", str(spools))
    monkeypatch.setattr(tempfile, "tempdir", None)  # tempfile reads TMPDIR once
    fds, err = open_fds(), io.StringIO()
    with usable_cpus(3) as forks, mock.patch.object(cli, "_BLOCK_ROWS", 2), \
            mock.patch.object(cli, "_SCALAR_ROWS", 0), contextlib.redirect_stderr(err):
        code = cli.main([*CONVERT_INV, "-i", str(path), "-o", str(out)])
    assert forks == [] if kind == "short" else len(forks) == 2
    assert_no_child_left()
    assert code == {None: 0, "short": 2, "text": 2, "numerical": 3}[kind], err.getvalue()
    if kind:
        assert out.read_bytes() == b"kept\r\n\xff"
    else:
        assert out.read_text() == outcome(CONVERT_INV, path.read_text())[1]
    assert not [link for link in open_fds().values() if link.startswith(str(spools))]
    assert open_fds() == fds
    assert os.listdir(spools) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("row", [0, 2], ids=["this-share", "child-share"])
@pytest.mark.parametrize("kind", sorted(FAILING))
def test_a_failed_run_closes_its_input_without_a_collection(kind, row, tmp_path):
    # 4 rows in blocks of 2 on 2 CPUs, the failing row in this process's
    # share or in the child's: with gc off, the input is closed once main()
    # returns, so no frame in the error's traceback refers back to the error
    rows = GOOD_XYZ[:4]
    rows[row] = FAILING[kind]
    path = tmp_path / "in.csv"
    path.write_text("h,h,h,h\n" + "\n".join(rows) + "\n")
    enabled = gc.isenabled()
    gc.disable()
    try:
        with usable_cpus(2) as forks, mock.patch.object(cli, "_BLOCK_ROWS", 2), \
                mock.patch.object(cli, "_SCALAR_ROWS", 0), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*CONVERT_INV, "-i", str(path)])
        left = [link for link in open_fds().values() if link == os.path.realpath(path)]
    finally:
        if enabled:
            gc.enable()
    assert forks == [] if kind == "short" else len(forks) == 1
    assert_no_child_left()
    assert code == {"short": 2, "text": 2, "numerical": 3}[kind]
    assert left == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("at", ["kernel", "message"])
def test_a_share_killed_before_it_reports_exits_2_with_one_line(at, tmp_path, monkeypatch):
    # 4 rows in blocks of 2 on 2 CPUs: the child kills its process in its
    # kernel call, or half way through its message, so its pipe ends with no
    # whole message; the run is an input error naming the share and its wait
    # status, the -o file stays as it was, and no child, spool or descriptor
    # is left
    parent, kernel, dump = os.getpid(), cli.ecef_to_geodetic_array, pickle.dump

    def killing(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return kernel(*args)

    def half(result, fh):
        if os.getpid() != parent:
            fh.write(pickle.dumps(result)[:4])
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return dump(result, fh)
    if at == "kernel":
        monkeypatch.setattr(cli, "ecef_to_geodetic_array", killing)
    else:
        monkeypatch.setattr(pickle, "dump", half)
    path, out, spools = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "spools"
    path.write_text("h,h,h,h\n" + "\n".join(GOOD_XYZ[:4]) + "\n")
    out.write_bytes(b"kept\n")
    spools.mkdir()
    monkeypatch.setenv("TMPDIR", str(spools))
    monkeypatch.setattr(tempfile, "tempdir", None)  # tempfile reads TMPDIR once
    fds, err = open_fds(), io.StringIO()
    with usable_cpus(2) as forks, mock.patch.object(cli, "_BLOCK_ROWS", 2), \
            mock.patch.object(cli, "_SCALAR_ROWS", 0), contextlib.redirect_stderr(err):
        code = cli.main([*CONVERT_INV, "-i", str(path), "-o", str(out)])
    assert len(forks) == 1
    assert_no_child_left()
    assert (code, err.getvalue()) == (2, "input error: OSError: share 2 of 2 ended with no "
                                         f"result, wait status {int(signal.SIGKILL)}\n")
    assert out.read_bytes() == b"kept\n"
    assert open_fds() == fds
    assert os.listdir(spools) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_killed_run_leaves_no_spool(two_blocks, tmp_path):
    # the output is copied out of the spools into a pipe nobody reads, so
    # the process blocks there with its spools open: they are in TMPDIR,
    # have no name, and a kill leaves nothing behind
    proc = subprocess.Popen([sys.executable, "-m", "geodkit.cli", *CONVERT_INV, "-i", two_blocks],
                            stdout=subprocess.PIPE, env={**os.environ, "TMPDIR": str(tmp_path)})
    try:
        assert proc.stdout.read(100)
        fd_dir = f"/proc/{proc.pid}/fd"
        links = [os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)]
        assert [link for link in links if link.startswith(str(tmp_path))]
        assert os.listdir(tmp_path) == []
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
    assert os.listdir(tmp_path) == []


def test_a_spool_that_cannot_be_written_exits_2_and_writes_nothing(two_blocks, tmp_path):
    # a file size limit on the process stands in for a full temp directory:
    # the spool write fails in its share, and the -o file is left as it was
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    limit = 64 << 10  # each share spools about 200 kB
    proc = subprocess.run([sys.executable, "-m", "geodkit.cli", *CONVERT_INV, "-i", two_blocks,
                           "-o", str(out)], capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE,
                                                                (limit, limit)))
    assert proc.returncode == 2
    assert proc.stderr == "input error: OSError: [Errno 27] File too large\n"
    assert out.read_text() == "kept\n"


# -- block ranges against the whole-file path ----------------------------------
# names in and out of ASCII, and one with a byte that is not UTF-8 (\xff, as
# surrogateescape writes it): a file with it is a decoding error, stdin
# escapes it; comment and blank lines go in among the rows
NAMES = ["P{}", "Pé{}", "点{}", "P\udcff{}"]
SKIPPED = ["", "#", "# x, y", "#é"]


@st.composite
def plain_inputs(draw):
    """(argv, CSV bytes, on stdin?): rows that pass or fail among comment and
    blank lines, with LF or CRLF line ends, or a bare CR, which ends a line
    of a file and only the last line of stdin, and one in eight with no end
    on the last line."""
    stdin = draw(st.booleans())
    argv, width, valid, failing = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    lines = [draw(st.sampled_from(SKIPPED)) for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(["h"] * width))
    for i in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 5 + ["fails", "skipped"]))
        if kind == "skipped":
            lines.append(draw(st.sampled_from(SKIPPED)))
        else:
            name = draw(st.sampled_from(NAMES[:3] * 6 + NAMES[3:])).format(i)
            lines.append(f"{name},{draw(st.sampled_from(failing if kind == 'fails' else valid))}")
    ends = [draw(st.sampled_from(["\n", "\r\n"] + ["\r"] * (not stdin))) for _ in lines]
    ends[-1] = draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
    if draw(st.integers(0, 7)):
        ends[-1] = ends[-1] or "\n"
    return argv, "".join(map(str.__add__, lines, ends)).encode("utf-8", "surrogateescape"), stdin


@settings(derandomize=True, max_examples=300, deadline=None)
@given(plain_inputs(), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([32, 64, 1 << 18, 1 << 20]))
def test_block_ranges_match_the_whole_file_path(case, block, cpus, chunk):
    # blocks of 1-4 rows in shares on 1-3 CPUs, so the skipped lines fall on
    # and across block and share cuts, and a scan in chunks of a few lines
    argv, data, stdin = case
    with usable_cpus(cpus), mock.patch.object(cli, "_CHUNK", chunk):
        got = outcome(argv, data, block, stdin)
    assert_no_child_left()
    assert got == outcome(argv, data, stdin=stdin), (argv, data, stdin)


def test_the_plain_inputs_reach_both_readers():
    # most take the byte ranges; a bare CR inside a file's line sends an
    # input to csv.reader, and so does a byte that does not decode
    kinds = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(plain_inputs())
    def collect(case):
        argv, data, stdin = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                with mock.patch.object(cli, "_SCALAR_ROWS", 0):
                    kinds.add(cli._read_csv(path)[1].plain)
            except ValueError as exc:
                kinds.add(type(exc))

    collect()
    assert kinds == {True, False, UnicodeDecodeError}


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_the_block_and_scan_sizes_move_only_the_cuts(stdin):
    # 20 000 rows, names in and out of ASCII, in blocks of 4096 rows from a
    # 256 KB scan, and in the 8192-row blocks of a 1 MB scan: the same bytes
    rows = [f"{SPOOLED_NAMES[i % 4]}{i},{4e6 + i!r},{i * 10.5!r},4.8e6" for i in range(20_000)]
    data = ("h,h,h,h\n" + "\n".join(rows) + "\n").encode()
    assert (cli._BLOCK_ROWS, cli._CHUNK) == (4096, 1 << 18)
    got = outcome(CONVERT_INV, data, cli._BLOCK_ROWS, stdin)
    with mock.patch.object(cli, "_CHUNK", 1 << 20):
        assert outcome(CONVERT_INV, data, 8192, stdin) == got
    assert got[0] == 0 and got[1].count("\n") == 20_001, got[0]


# -- working memory -------------------------------------------------------------
ROWS = 50_000
# bytes of Python allocations per input row at the peak of a geodesic command,
# tracemalloc's figure: the input lines, the output text and one block.  It
# measures 222 (direct) and 224 (inverse) with np.loadtxt reading each block;
# the bound is 283 plus 25%, 283 being what it measured when csv.reader parsed
# each block.  The whole-file path held every parsed row: 548 for both.
PEAK_BYTES_PER_ROW = 354
# the same in one share of a file's rows: the output text and one block
ONE_SHARE_BYTES_PER_ROW = 180


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


def _peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        code = cli.main([*argv, "-o", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def _peak_bytes_per_row(argv) -> float:
    return _peak_bytes(argv) / ROWS


@pytest.mark.parametrize("problem", ["direct", "inverse"])
def test_geodesic_working_memory_per_row(problem, tmp_path):
    path = _geodesic_input(problem, str(tmp_path / "in.csv"))
    per_row = _peak_bytes_per_row(["geodesic", problem, "-i", path])
    assert per_row < PEAK_BYTES_PER_ROW, f"{per_row:.0f} B per row"


def test_geodesic_working_memory_per_row_in_one_share(tmp_path):
    # one process that reads a file holds one block of it at a time: 154 B
    # per row, against 223 when it held every line of its input
    path = _geodesic_input("direct", str(tmp_path / "in.csv"))
    with usable_cpus(1):
        per_row = _peak_bytes_per_row(["geodesic", "direct", "-i", path])
    assert per_row < ONE_SHARE_BYTES_PER_ROW, f"{per_row:.0f} B per row"


def test_geodesic_working_memory_in_one_share_does_not_grow_with_the_rows(tmp_path):
    # one block of input and one of output: four times the rows (the same
    # lines under other names) peak within 10% of the ROWS-row run, where
    # holding the output text took 8.4 MB to 18.2 MB
    path = _geodesic_input("direct", str(tmp_path / "in.csv"))
    with open(path) as fh:
        header, *lines = fh
    with open(tmp_path / "4x.csv", "w") as fh:
        fh.write(header)
        for k in range(4):
            fh.writelines(f"R{k}{line}" for line in lines)
    with usable_cpus(1):
        peaks = [_peak_bytes(["geodesic", "direct", "-i", p]) for p in (path, fh.name)]
    assert peaks[1] < 1.1 * peaks[0], peaks


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
        stack.enter_context(mock.patch.object(cli, "_SCALAR_ROWS", 0))
        if fallback:
            stack.enter_context(mock.patch.object(np, "loadtxt", side_effect=ValueError))
        blocks = []
        try:
            for names, columns in cli._rows(path, count + 1).columns(count):
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


# -- argparse's text -------------------------------------------------------------
# what argparse prints for help and usage errors, byte for byte at 80 columns,
# as CPython 3.11 formats it: a parser built only for the command given would
# print other usage lines (the top-level usage names every command)
TOP_USAGE = """\
usage: geodkit [-h] [--version] [--list-ellipsoids] [--list-projections]
               {convert,project,geodesic,reduce,datum,adjust,orbit,dop,heights,astro}
               ...
"""
TOP_HELP = TOP_USAGE + """
Geodetic computations on CSV and JSON files, read from a file or stdin and
printed to stdout unless --output names a file. A CSV header tags the unit of
each column, as in phi[gr]. Numbers are written with 12 significant digits.
Exit codes: 0 success, 2 input or usage error, 3 numerical error.

positional arguments:
  {convert,project,geodesic,reduce,datum,adjust,orbit,dop,heights,astro}
    convert             geodetic <-> ECEF over CSV
    project             map projection forward/inverse
    geodesic            geodesic direct/inverse problems
    reduce              distance reductions
    datum               datum transformations
    adjust              least-squares adjustment
    orbit               two-body propagation
    dop                 dilution of precision
    heights             height systems
    astro               sidereal time arithmetic

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
  --list-ellipsoids     list ellipsoids and exit
  --list-projections    list projections and exit
"""
SUBCOMMAND_HELP = {
    "convert": """\
usage: geodkit convert [-h] --from {geodetic,ecef} --to {geodetic,ecef}
                       [--ell ELL] [--input INPUT] [--output OUTPUT]
                       [--angle-unit {gr,deg,rad,dmgr,arcsec}]

options:
  -h, --help            show this help message and exit
  --from {geodetic,ecef}
  --to {geodetic,ecef}
  --ell ELL
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
  --angle-unit {gr,deg,rad,dmgr,arcsec}
""",
    "project": """\
usage: geodkit project [-h] [--proj PROJ] [--proj-json PROJ_JSON] [--ell ELL]
                       [--input INPUT] [--output OUTPUT]
                       [--angle-unit {gr,deg,rad,dmgr,arcsec}]
                       {fwd,inv}

positional arguments:
  {fwd,inv}

options:
  -h, --help            show this help message and exit
  --proj PROJ
  --proj-json PROJ_JSON
                        JSON projection definition file
  --ell ELL
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
  --angle-unit {gr,deg,rad,dmgr,arcsec}
""",
    "geodesic": """\
usage: geodkit geodesic [-h] [--ell ELL] [--input INPUT] [--output OUTPUT]
                        [--angle-unit {gr,deg,rad,dmgr,arcsec}]
                        {direct,inverse}

positional arguments:
  {direct,inverse}

options:
  -h, --help            show this help message and exit
  --ell ELL
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
  --angle-unit {gr,deg,rad,dmgr,arcsec}
""",
    "reduce": """\
usage: geodkit reduce [-h] [--wave {light,micro}] [--scale SCALE] [--rigorous]
                      [--input INPUT] [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --wave {light,micro}
  --scale SCALE
  --rigorous            closed sea-level formula; it skips the ray-curvature
                        correction, so --wave has no effect with it
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
""",
    "datum": """\
usage: geodkit datum [-h] [--params PARAMS] [--ell ELL] [--ell2 ELL2]
                     [--shift SHIFT] [--abridged] [--input INPUT]
                     [--output OUTPUT] [--angle-unit {gr,deg,rad,dmgr,arcsec}]
                     {bw-apply,bw-fit,bw-direct,molodensky,helmert2d-fit,helmert2d-apply}

positional arguments:
  {bw-apply,bw-fit,bw-direct,molodensky,helmert2d-fit,helmert2d-apply}

options:
  -h, --help            show this help message and exit
  --params PARAMS
  --ell ELL
  --ell2 ELL2
  --shift SHIFT         dX,dY,dZ metres (molodensky)
  --abridged
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
  --angle-unit {gr,deg,rad,dmgr,arcsec}
""",
    "adjust": """\
usage: geodkit adjust [-h] [--system SYSTEM] [--obs OBS] [--points POINTS]
                      [--no-direction-scaling] [--input INPUT]
                      [--output OUTPUT]
                      [--angle-unit {gr,deg,rad,dmgr,arcsec}]

options:
  -h, --help            show this help message and exit
  --system SYSTEM       JSON file with A, K and optional P
  --obs OBS             CSV kind,from,to,value,sigma,set_id,dist_km
  --points POINTS       CSV name,x0,y0[,z0],fixed
  --no-direction-scaling
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
  --angle-unit {gr,deg,rad,dmgr,arcsec}
""",
    "orbit": """\
usage: geodkit orbit [-h] --elements ELEMENTS --epochs EPOCHS
                     [--frame {eci,ecef}] [--gst-rad GST_RAD] [--spin]
                     [--input INPUT] [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --elements ELEMENTS   JSON orbital elements
  --epochs EPOCHS       comma-separated epochs, s
  --frame {eci,ecef}
  --gst-rad GST_RAD
  --spin                advance GST with the earth rotation rate
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
""",
    "dop": """\
usage: geodkit dop [-h] --receiver RECEIVER [--ell ELL] [--input INPUT]
                   [--output OUTPUT] [--angle-unit {gr,deg,rad,dmgr,arcsec}]

options:
  -h, --help            show this help message and exit
  --receiver RECEIVER   phi,lam[,he]
  --ell ELL
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
  --angle-unit {gr,deg,rad,dmgr,arcsec}
""",
    "heights": """\
usage: geodkit heights [-h] [--phi-start PHI_START] [--phi-end PHI_END]
                       [--h-mean H_MEAN] [--input INPUT] [--output OUTPUT]
                       [--angle-unit {gr,deg,rad,dmgr,arcsec}]
                       {ortho,normal,dynamic}

positional arguments:
  {ortho,normal,dynamic}

options:
  -h, --help            show this help message and exit
  --phi-start PHI_START
  --phi-end PHI_END
  --h-mean H_MEAN
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
  --angle-unit {gr,deg,rad,dmgr,arcsec}
""",
    "astro": """\
usage: geodkit astro [-h] [--hsl HSL] [--alpha ALPHA] [--hsg HSG]
                     [--hsg0 HSG0] [--lam LAM] [--tu TU] [--input INPUT]
                     [--output OUTPUT]
                     {hour-angle,hsl,sidereal}

positional arguments:
  {hour-angle,hsl,sidereal}

options:
  -h, --help            show this help message and exit
  --hsl HSL
  --alpha ALPHA
  --hsg HSG
  --hsg0 HSG0
  --lam LAM
  --tu TU
  --input INPUT, -i INPUT
  --output OUTPUT, -o OUTPUT
""",
}


def usage_of(command: str) -> str:
    return SUBCOMMAND_HELP[command].partition("\n\n")[0] + "\n"


ARGPARSE_CASES = {
    "help": (["--help"], 0, TOP_HELP, ""),
    **{f"{c} help": ([c, "--help"], 0, SUBCOMMAND_HELP[c], "") for c in SUBCOMMAND_HELP},
    "no command": ([], 2, "", TOP_USAGE),
    "unknown command": (["frobnicate"], 2, "", TOP_USAGE + (
        "geodkit: error: argument command: invalid choice: 'frobnicate' (choose from "
        + ", ".join(f"'{c}'" for c in SUBCOMMAND_HELP) + ")\n")),
    "extra argument": ([*CONVERT_INV, "extra"], 2, "",
                       TOP_USAGE + "geodkit: error: unrecognized arguments: extra\n"),
    "missing options": (["convert"], 2, "", usage_of("convert")
                        + "geodkit convert: error: the following arguments are required: "
                        "--from, --to\n"),
    "missing option": (["orbit", "--epochs", "0"], 2, "", usage_of("orbit")
                       + "geodkit orbit: error: the following arguments are required: "
                       "--elements\n"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the text CPython 3.11 prints")
@pytest.mark.parametrize("case", sorted(ARGPARSE_CASES))
def test_argparse_prints_the_pinned_text(case, monkeypatch):
    argv, code, stdout, stderr = ARGPARSE_CASES[case]
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == code
    assert (out.getvalue(), err.getvalue()) == (stdout, stderr)


def test_top_help_is_for_users(monkeypatch):
    # on any Python: the help lists all ten commands and none of the
    # module's own names, which its docstring keeps for readers of the code
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--help"]) == 0
    text = out.getvalue()
    assert [c for c in SUBCOMMAND_HELP if f"\n    {c} " in text] == [*SUBCOMMAND_HELP]
    assert len(SUBCOMMAND_HELP) == 10
    for internal in ("_Spool", "_table", "_Rows", "_shared", "os._exit", "tracer"):
        assert internal not in text
    assert "--list-ellipsoids     list" in text and "--list-projections    list" in text
