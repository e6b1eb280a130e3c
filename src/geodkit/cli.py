"""Batch command-line frontend.

Subcommands operate on CSV (comma separator, dot decimal, header row with
unit tags such as ``phi[gr]``) or JSON files and print to stdout unless an
output path is given.  Numeric output uses 12 significant digits so runs
are reproducible byte for byte.

Every CSV command keeps its input as raw lines and parses it in blocks of
rows (_Rows), so the working memory is the input text, the output text and
one block: one np.loadtxt call, or csv.reader and float() where loadtxt
would read the block otherwise, and for every parse error.  Each
CSV-to-CSV command (convert, project, geodesic, reduce, and datum
bw-apply, molodensky and helmert2d-apply) declares its numeric columns,
angle or not, its scalar API call on one row and its array kernel, and
runs through one table runner, _table, which formats a block with one
"%s,%.12g,..." template.  dop, heights and the datum fits read their
columns through _Rows too; adjust takes its rows from the same
reader and parses their mixed names and numbers itself.  Output is all or
nothing: it is written once, after the last block has passed, and the
first failing data row in file order decides the error, which is the one
the scalar API raises on that row.  Errors in the input itself come first,
as if the whole file were read before any row is computed: a field longer
than csv.field_size_limit(), then a row with too few fields.

Exit codes: 0 success, 2 input/usage error, 3 numerical error.  The class
of the exception decides: any ArithmeticError, which includes every
geodkit.core.NumericalError, exits 3; ValueError, KeyError and OSError exit
2.  The error class name goes to stderr, and a CSV row that is too short,
has a field too long or has a field float() rejects is named by its
data-row number (1 is the first row after the header).  ``adjust`` also
names the file, points or obs, of a field float() rejects, of an
observation to an unknown point and of a row the library rejects.

Start-up and exit: importing this module loads numpy and the modules of
convert, project and geodesic (core, coords, projections, geodesics),
whose kernels stay bound in this namespace, where the benchmark's CLI
tracer and the tests find them.  Every other command imports its own
module when it runs (adjust, datum, heights, orbits, reductions, sphere),
so this module does not re-export their names.  run(), the process entry,
ends with os._exit once main() has returned and stdout is flushed: that
skips the interpreter's teardown, 15-20 ms a call (``import numpy`` alone
took 128/162 ms, min/median of 25 runs, and 112/143 ms with os._exit).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from functools import partial
from operator import attrgetter

import numpy as np

from . import __version__
from .coords import (
    EcefCoord,
    GeodeticCoord,
    ecef_to_geodetic,
    ecef_to_geodetic_array,
    geodetic_to_ecef,
    geodetic_to_ecef_array,
)
from .core import (
    ANGLE_UNITS,
    GM_EARTH,
    OMEGA_GPS,
    REGISTRY,
    Angle,
    get_ellipsoid,
    json_number,
    parse_json_object,
)
from .geodesics import (
    geodesic_direct,
    geodesic_direct_array,
    geodesic_inverse,
    geodesic_inverse_array,
)
from .projections import (
    PlaneCoord,
    forward,
    forward_columns,
    inverse,
    inverse_columns,
    list_projections,
    named_projection,
    projection_from_json,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# data rows per block of the CSV commands: small enough that a block's
# parsed rows and kernel temporaries stay a few MB, large enough that the
# per-block calls cost nothing next to the per-row work
_BLOCK_ROWS = 8192


def _csv_error(exc, row: int) -> ValueError:
    return ValueError(f"data row {row}: {exc}" if row else f"header: {exc}")


def _records(lines) -> list:
    """The header and data rows of lines that hold quotes, each as the text
    of its record: a quoted field may span lines.  In a record that starts
    with "#", a comment, csv.reader sees each run of characters other than
    quotes, commas and line ends as one "#": no field of it is long."""
    records, start, end = [], 0, 0  # csv.reader reads the record lines[start:end]

    def comments_masked():
        nonlocal end
        comment = False
        for end, line in enumerate(lines, 1):
            comment = line.startswith("#") if end - 1 == start else comment
            yield re.sub(r'[^",\r\n]+', "#", line) if comment else line

    try:
        for row in csv.reader(comments_masked()):
            if row and not row[0].startswith("#"):
                records.append("".join(lines[start:end]))
            start = end
    except csv.Error as exc:
        raise _csv_error(exc, len(records)) from None
    return records


class _CsvRows(list):
    """Data rows that np.loadtxt would read otherwise than csv.reader and
    float(): a quote, a NUL (Python 3.10's csv rejects it) or \\x1c-\\x1f."""


def _read_csv(path):
    """The header row of a CSV input and its data rows as raw text.

    Blank lines and rows whose first field starts with "#" are dropped.
    Each data row is the text of one CSV record, line ending included, so
    one csv.reader over the list yields one row per element.
    """
    if path in (None, "-"):
        lines = list(sys.stdin)
    else:
        with open(path, newline="") as fh:
            lines = list(fh)
    text = "".join(lines)  # one scan of it for each character tested
    quoted, csv_only = '"' in text, any(c in text for c in '"\0\x1c\x1d\x1e\x1f')
    del text
    if quoted:
        lines = _records(lines)
    else:  # without quotes each line is a record, and "#", "\r" or "\n" starts no row
        lines = [line for line in lines if line[0] not in "#\r\n"]
    if csv_only:
        lines = _CsvRows(lines)
    if not lines:
        raise ValueError("empty input")
    try:
        header = next(csv.reader(lines[:1]))
    except csv.Error as exc:
        raise _csv_error(exc, 0) from None
    del lines[0]
    return header, lines


class _Rows:
    """The data rows of a CSV input, taken block by block from its raw
    lines, each checked to hold at least `width` fields.

    As a context manager it keeps the input's own errors first: an exception
    raised in the with-block gives way to a csv error or a short row among
    the rows not yet parsed.  Only that error path parses them early.
    """

    def __init__(self, path, width: int):
        self.width = width
        self.lines = _read_csv(path)[1]
        self.taken = 0  # data rows taken so far

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, Exception):
            for _ in self.blocks():
                pass

    def _take(self) -> list:
        """The next block of raw rows, [] once all are taken; they leave
        self.lines, so their text is freed while the output grows."""
        block = self.lines[:_BLOCK_ROWS]
        del self.lines[:_BLOCK_ROWS]
        self.taken += len(block)
        return block

    def _parse(self, lines, width: int = 0) -> list:
        """lines, the block taken last, parsed; the first row with fewer than
        width fields raises, once the rows after it have no csv error."""
        reader = csv.reader(lines)
        try:
            rows = list(reader)
        except csv.Error as exc:
            row, self.lines = self.taken - len(lines) + reader.line_num, []
            raise _csv_error(exc, row) from None
        if min(map(len, rows)) < width:
            i, row = next((i, row) for i, row in enumerate(rows) if len(row) < width)
            i += self.taken - len(rows) + 1
            while lines := self._take():
                self._parse(lines)
            raise ValueError(f"data row {i}: expected at least {width} fields, got {len(row)}")
        return rows

    def blocks(self):
        """Each block of rows, parsed by csv.reader, in file order."""
        while lines := self._take():
            yield self._parse(lines, self.width)

    def columns(self, count: int):
        """(names, columns) per block: column j holds field j as a float, for
        j in 1..count.

        One np.loadtxt reads a block, unless a line is as long as
        csv.field_size_limit() or the input is a _CsvRows; then, or if it
        raises a ValueError, csv.reader and float() parse the block.  A row
        with a field float() rejects ends the blocks: the rows before it come
        as the last block, and the ValueError naming it is raised when the
        next block is asked for, so only once those rows have passed.
        """
        plain = not isinstance(self.lines, _CsvRows)
        while lines := self._take():
            try:
                if not plain or max(map(len, lines)) >= csv.field_size_limit():
                    raise ValueError
                names, error = [line.partition(",")[0] for line in lines], None
                values = np.loadtxt(lines, delimiter=",", usecols=range(1, count + 1),
                                    comments=None, ndmin=2, dtype=float)
            except ValueError:
                rows, values, error = self._parse(lines, self.width), [], None
                for i, row in enumerate(rows):
                    try:
                        values.append([float(v) for v in row[1:count + 1]])
                    except ValueError as exc:
                        error = ValueError(f"data row {self.taken - len(rows) + i + 1}: {exc}")
                        break
                names = [row[0] for row in rows[:len(values)]]
                values = np.array(values, dtype=float).reshape(-1, count)
            yield names, [c.copy() for c in values.T]  # one contiguous array a column
            if error:
                raise error


def _read_rows(path, width: int) -> list:
    """The data rows of a CSV input, each checked to hold at least `width` fields."""
    return [row for block in _Rows(path, width).blocks() for row in block]


def _settle(failed, outputs, scalar, *inputs) -> None:
    """Run scalar(*row) on each row an array kernel flagged, in file order,
    row being that row's floats in inputs, and put its values into outputs.

    scalar is the scalar API's call on one row, so the first failing row
    raises the error the scalar API raises on it.  A flagged row it accepts
    takes its values: the geodesic kernels flag the lines the scalar API
    solves in closed form, and numpy's elementary functions can differ from
    the C library's in the last bit, so a loop at the edge of its tolerance
    may end otherwise there.
    """
    for i in np.flatnonzero(failed).tolist():
        for column, value in zip(outputs, scalar(*(float(c[i]) for c in inputs))):
            column[i] = value


def _map_rows(path, count: int, row) -> list:
    """row(*values) of each data row of a CSV input, in file order, values
    being the row's numeric columns 1..count."""
    with _Rows(path, count + 1) as rows:
        return [r for _, columns in rows.columns(count)
                for r in map(row, *(c.tolist() for c in columns))]


def _table(rows, unit, inputs, outputs, scalar, kernel) -> list:
    """The header and, per block of rows, one string of their output lines:
    each row's name and outputs to 12 digits.

    inputs and outputs name the numeric columns as the header tags them; one
    with no unit tag is an angle in unit, multiplied into radians on input
    and divided back on output.  kernel(*inputs) returns the output columns
    and a mask of the rows to _settle with scalar, the scalar API's call on
    one row, which returns a tuple.
    """
    factor = ANGLE_UNITS.get(unit)
    angle_in = [not c.endswith("]") for c in inputs]
    angle_out = [not c.endswith("]") for c in outputs]
    out = ["name," + ",".join(c + (f"[{unit}]" if a else "") for c, a in zip(outputs, angle_out))]
    line = "%s," + ",".join(["%.12g"] * len(outputs))
    with rows:
        for names, columns in rows.columns(len(inputs)):
            columns = [c * factor if a else c for c, a in zip(columns, angle_in)]
            *values, failed = kernel(*columns)
            _settle(failed, values, scalar, *columns)
            values = [(v / factor if a else v).tolist() for v, a in zip(values, angle_out)]
            out.append("\n".join(map(line.__mod__, zip(names, *values))))
    return out


def _read_json(path) -> dict:
    with open(path) as fh:
        return parse_json_object(fh.read())


def _json_array(doc: dict, key: str) -> np.ndarray:
    """doc[key], a number or nested lists of numbers, as a float array."""
    value = np.array(doc[key], dtype=object)
    if not all(type(v) in (int, float) for v in value.flat):
        raise ValueError(f"{key!r} must be a number or nested lists of numbers")
    return value.astype(float)


def _option(args, name: str) -> str:
    """The value of --name, which the chosen operation needs."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{args.command} {args.op} needs --{name}")
    return value


def _write_lines(lines, path):
    """Write each of lines, which may hold several lines, and a newline."""
    with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _projection(args):
    if args.proj_json:
        with open(args.proj_json) as fh:
            return projection_from_json(fh.read())
    ell = get_ellipsoid(args.ell) if args.ell else None
    return named_projection(args.proj, ell)


# the numeric columns of the CSV commands; a name without a unit tag is an
# angle in --angle-unit
_GEODETIC, _ECEF, _PLANE = ("phi", "lam", "he[m]"), ("x[m]", "y[m]", "z[m]"), ("e[m]", "n[m]")
# the scalar API's results as plain tuples of those columns
_GEO, _XYZ, _EN = attrgetter("phi", "lam", "he"), attrgetter("x", "y", "z"), attrgetter("e", "n")
_DIRECT, _INVERSE = attrgetter("phi2", "lam2", "az2", "s"), attrgetter("az1", "az2", "s")


def cmd_convert(args):
    rows = _Rows(args.input, 4)
    with rows:  # an unknown ellipsoid or conversion gives way to the input's own errors
        ell = get_ellipsoid(args.ell)
        if args.frm == args.to:
            raise ValueError(f"unsupported conversion {args.frm} -> {args.to}")
    if args.frm == "geodetic":
        out = _table(rows, args.angle_unit, _GEODETIC, _ECEF,
                     lambda *g: _XYZ(geodetic_to_ecef(ell, GeodeticCoord(*g))),
                     partial(geodetic_to_ecef_array, ell))
    else:
        out = _table(rows, args.angle_unit, _ECEF, _GEODETIC,
                     lambda *p: _GEO(ecef_to_geodetic(ell, EcefCoord(*p))),
                     partial(ecef_to_geodetic_array, ell))
    _write_lines(out, args.output)


def cmd_project(args):
    proj = _projection(args)
    rows = _Rows(args.input, 3)
    if args.direction == "fwd":
        out = _table(rows, args.angle_unit, _GEODETIC[:2], _PLANE,
                     lambda *g: _EN(forward(proj, GeodeticCoord(*g))),
                     partial(forward_columns, proj))
    else:
        out = _table(rows, args.angle_unit, _PLANE, _GEODETIC[:2],
                     lambda *p: _GEO(inverse(proj, PlaneCoord(*p)))[:2],
                     partial(inverse_columns, proj))
    _write_lines(out, args.output)


def cmd_geodesic(args):
    ell = get_ellipsoid(args.ell)
    rows = _Rows(args.input, 5)
    if args.problem == "direct":
        out = _table(rows, args.angle_unit, ("phi1", "lam1", "az1", "s[m]"),
                     ("phi2", "lam2", "az2", "s[m]"), lambda phi, lam, *az_s: _DIRECT(
                         geodesic_direct(ell, GeodeticCoord(phi, lam), *az_s)),
                     partial(geodesic_direct_array, ell))
    else:
        out = _table(rows, args.angle_unit, ("phi1", "lam1", "phi2", "lam2"),
                     ("az1", "az2", "s[m]"), lambda p1, l1, p2, l2: _INVERSE(geodesic_inverse(
                         ell, GeodeticCoord(p1, l1), GeodeticCoord(p2, l2))),
                     partial(geodesic_inverse_array, ell))
    _write_lines(out, args.output)


def cmd_reduce(args):
    from . import reductions

    if not 0.0 < args.scale < np.inf:
        raise ValueError(f"--scale must be finite and > 0, got {args.scale}")

    def row(dp, ha, hb):
        obs = reductions.DistanceObservation(dp, ha, hb, wave=args.wave)
        de = reductions.reduce_to_ellipsoid(obs, rigorous=args.rigorous)
        return de, reductions.reduce_to_plane(de, args.scale)

    out = _table(_Rows(args.input, 4), None, ("dp[m]", "ha[m]", "hb[m]"), ("de[m]", "dr[m]"), row,
                 partial(reductions.reduce_columns, scale_m=args.scale, wave=args.wave,
                         rigorous=args.rigorous))
    _write_lines(out, args.output)


def _read_param_file(path):
    """The datum.BursaWolfParams of a JSON file."""
    from . import datum

    doc = _read_json(path)
    units = doc.get("units", "rad")
    if not isinstance(units, str) or units not in ANGLE_UNITS:
        raise ValueError(f"units must be one of {', '.join(ANGLE_UNITS)}, got {units!r}")
    shift = [json_number(doc, k) for k in ("tx", "ty", "tz", "m")]
    rotation = [json_number(doc, k) * ANGLE_UNITS[units] for k in ("rx", "ry", "rz")]
    return datum.BursaWolfParams(*shift, *rotation)


def _read_pairs_csv(path, coord, dims: int) -> list:
    """The (system 1, system 2) coordinate pairs of a CSV input."""
    return _map_rows(path, 2 * dims, lambda *v: (coord(*v[:dims]), coord(*v[dims:])))


def _numbers(option: str, text: str, form: str, count: int = 0) -> tuple:
    """text, the value of option, as comma-separated finite numbers, count
    of them if count is given; the error says they must be form."""
    try:
        t = tuple(map(float, text.split(",")))
    except ValueError:
        t = ()
    if not t or count and len(t) != count or not np.isfinite(t).all():
        raise ValueError(f"{option} must be {form}, got {text!r}")
    return t


def _finite(option: str, value: float) -> float:
    if not np.isfinite(value):
        raise ValueError(f"{option} must be finite, got {value}")
    return value


def cmd_datum(args):
    from . import datum

    if args.op == "bw-apply":
        params = _read_param_file(_option(args, "params"))
        out = _table(_Rows(args.input, 4), None, _ECEF, _ECEF,
                     lambda *xyz: _XYZ(datum.bursa_wolf_apply(params, EcefCoord(*xyz))),
                     partial(datum.bursa_wolf_columns, params))
    elif args.op in ("bw-fit", "bw-direct"):
        pairs = _read_pairs_csv(args.input, EcefCoord, 3)
        if args.op == "bw-fit":
            res = datum.bursa_wolf_estimate(pairs)
            p = res.params
        else:
            p = datum.bursa_wolf_direct(pairs)
        doc = {
            "tx": p.tx, "ty": p.ty, "tz": p.tz, "m": p.m_scale,
            "rx": p.rx, "ry": p.ry, "rz": p.rz, "units": "rad",
        }
        if args.op == "bw-fit":
            doc.update(s2=res.s2, rms_m=float(np.sqrt(np.mean(res.residuals**2))))
        out = [json.dumps(doc, indent=2)]
    elif args.op == "molodensky":
        ell1 = get_ellipsoid(args.ell)
        ell2 = get_ellipsoid(args.ell2)
        t = _numbers("--shift", args.shift, "three finite numbers dX,dY,dZ", 3)
        out = _table(_Rows(args.input, 4), args.angle_unit, _GEODETIC, _GEODETIC,
                     lambda *g: _GEO(datum.apply_molodensky(ell1, ell2, GeodeticCoord(*g), t,
                                                            abridged=args.abridged)),
                     partial(datum.molodensky_columns, ell1, ell2, t=t, abridged=args.abridged))
    elif args.op == "helmert2d-fit":
        pairs = _read_pairs_csv(args.input, PlaneCoord, 2)
        res = datum.helmert2d_estimate(pairs)
        p = res.params
        out = [json.dumps({
            "tx": p.tx, "ty": p.ty, "u": p.u, "v": p.v,
            "scale": p.scale, "theta_rad": p.theta, "s2": res.s2,
        }, indent=2)]
    else:  # helmert2d-apply
        doc = _read_json(_option(args, "params"))
        p = datum.Helmert2DParams(*(json_number(doc, k) for k in ("tx", "ty", "u", "v")))
        out = _table(_Rows(args.input, 3), None, _PLANE, _PLANE,
                     lambda *en: _EN(datum.helmert2d_apply(p, PlaneCoord(*en))),
                     partial(datum.helmert2d_columns, p))
    _write_lines(out, args.output)


def _adjustment_json(res, **extra) -> str:
    return json.dumps({
        **extra,
        "x": [float(v) for v in res.x],
        "v": [float(v) for v in res.v],
        "s2": res.s2,
        "cov": [[float(c) for c in row] for row in res.cov] if res.cov is not None else None,
        "iterations": res.iterations,
    }, indent=2)


@contextmanager
def _naming(where: str):
    """Prefix where to the message of a ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def cmd_adjust(args):
    from .adjust import LinearSystem, Network, Observation, solve_linear

    if args.system:
        doc = _read_json(args.system)
        res = solve_linear(LinearSystem(
            _json_array(doc, "a"), _json_array(doc, "k"),
            _json_array(doc, "p") if "p" in doc else None,
        ))
        _write_lines([_adjustment_json(res)], args.output)
        return
    if not (args.obs and args.points):
        raise ValueError("adjust needs --system or both --obs and --points")
    net = Network(scale_directions=not args.no_direction_scaling)
    for n, row in enumerate(_read_rows(args.points, 4), 1):
        with _naming(f"points data row {n}"):
            vals = [float(v) if v else 0.0 for v in row[1:-1]]
            fixed = row[-1].strip().lower() in ("1", "true", "yes")
            x0, y0 = vals[:2]
            z0 = vals[2] if len(vals) > 2 else 0.0
            net.add_point(row[0], x0, y0, z0, fixed)
    unit = args.angle_unit
    for n, row in enumerate(_read_rows(args.obs, 4), 1):
        kind, frm, to = row[0], row[1], row[2]
        for name in (frm, to):
            if name not in net.points:
                raise KeyError(f"obs data row {n}: unknown point {name!r}")
        with _naming(f"obs data row {n}"):
            value = float(row[3])
            sigma = float(row[4]) if len(row) > 4 and row[4] else None
            dist_km = float(row[6]) if len(row) > 6 and row[6] else None
            if kind == "direction":
                value *= ANGLE_UNITS[unit]
            if kind == "direction" and sigma is not None:
                sigma *= ANGLE_UNITS[unit]
            set_id = row[5] if len(row) > 5 and row[5] else None
            net.add_observation(Observation(kind, frm, to, value, sigma, set_id, dist_km))
    res = net.solve()
    points = {name: {"x": p.x0, "y": p.y0, "z": p.z0} for name, p in sorted(net.points.items())}
    _write_lines([_adjustment_json(res, points=points)], args.output)


def cmd_orbit(args):
    from .orbits import OrbitalElements, eci_to_ecef, elements_to_eci

    epochs = _numbers("--epochs", args.epochs, "finite numbers t1,t2,...")
    gst_rad = _finite("--gst-rad", args.gst_rad)
    doc = _read_json(args.elements)
    el = OrbitalElements(
        *(json_number(doc, k) for k in ("a", "e", "i", "raan", "arg_perigee")),
        t0=json_number(doc, "t0", 0.0), mu=json_number(doc, "mu", GM_EARTH),
    )
    out = ["t[s],x[m],y[m],z[m]"]
    for t in epochs:
        x = elements_to_eci(el, t)
        if args.frame == "ecef":
            gst = gst_rad + OMEGA_GPS * (t - el.t0) if args.spin else gst_rad
            x = eci_to_ecef(x, gst).as_array()
        out.append(f"{_fmt(t)},{_fmt(x[0])},{_fmt(x[1])},{_fmt(x[2])}")
    _write_lines(out, args.output)


def cmd_dop(args):
    from .adjust import dop

    unit = args.angle_unit
    ell = get_ellipsoid(args.ell)
    fields = _numbers("--receiver", args.receiver, "finite numbers phi,lam[,he]")
    if len(fields) not in (2, 3):
        raise ValueError(f"--receiver needs phi,lam[,he], got {args.receiver!r}")
    receiver = GeodeticCoord(fields[0] * ANGLE_UNITS[unit], fields[1] * ANGLE_UNITS[unit],
                             fields[2] if len(fields) > 2 else 0.0)
    r = dop(_map_rows(args.input, 3, EcefCoord), receiver, ell)
    _write_lines(
        [json.dumps({"gdop": r.gdop, "pdop": r.pdop, "tdop": r.tdop,
                     "hdop": r.hdop, "vdop": r.vdop}, indent=2)],
        args.output,
    )


def cmd_heights(args):
    from .heights import LevelLine, dynamic_height, normal_height, orthometric_height

    unit = args.angle_unit
    h_mean = _finite("--h-mean", args.h_mean)
    phi_start, phi_end = (
        _numbers(option, text, "a finite number", 1)[0] * ANGLE_UNITS[unit] if text else 0.0
        for option, text in (("--phi-start", args.phi_start), ("--phi-end", args.phi_end)))
    segments = _map_rows(args.input, 2, lambda g, dh: (g, dh))
    line = LevelLine(segments, phi_start=phi_start, phi_end=phi_end, h_mean=h_mean)
    if args.kind == "ortho":
        value = orthometric_height(line)
    elif args.kind == "normal":
        value = normal_height(line, phi_start, h_mean)
    else:
        value = dynamic_height(line)
    _write_lines([_fmt(value)], args.output)


def cmd_astro(args):
    from .sphere import hour_angle, hsl_from_greenwich, sidereal_from_universal

    def hours(name):
        return Angle.parse(_option(args, name)).hours

    if args.op == "hour-angle":
        value = hour_angle(hours("hsl"), hours("alpha"))
    elif args.op == "hsl":
        value = hsl_from_greenwich(hours("hsg"), hours("lam"))
    else:  # sidereal
        value = sidereal_from_universal(float(_option(args, "tu")), hours("hsg0"), hours("lam"))
    _write_lines([_fmt(value)], args.output)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geodkit", description=__doc__)
    ap.add_argument("--version", action="version", version=f"geodkit {__version__}")
    ap.add_argument("--list-ellipsoids", action="store_true")
    ap.add_argument("--list-projections", action="store_true")
    sub = ap.add_subparsers(dest="command")

    def common(p, angle=True):
        p.add_argument("--input", "-i", default="-")
        p.add_argument("--output", "-o", default="-")
        if angle:
            p.add_argument("--angle-unit", choices=list(ANGLE_UNITS), default="gr")

    p = sub.add_parser("convert", help="geodetic <-> ECEF over CSV")
    p.add_argument("--from", dest="frm", required=True, choices=["geodetic", "ecef"])
    p.add_argument("--to", required=True, choices=["geodetic", "ecef"])
    p.add_argument("--ell", default="grs80")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("project", help="map projection forward/inverse")
    p.add_argument("direction", choices=["fwd", "inv"])
    p.add_argument("--proj", default="lambert-nord-tn")
    p.add_argument("--proj-json", help="JSON projection definition file")
    p.add_argument("--ell", default=None)
    common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("geodesic", help="geodesic direct/inverse problems")
    p.add_argument("problem", choices=["direct", "inverse"])
    p.add_argument("--ell", default="clarke-1880-fr")
    common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("reduce", help="distance reductions")
    p.add_argument("--wave", choices=["light", "micro"], default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--rigorous", action="store_true", help="closed sea-level formula; it "
                   "skips the ray-curvature correction, so --wave has no effect with it")
    common(p, angle=False)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("datum", help="datum transformations")
    p.add_argument("op", choices=["bw-apply", "bw-fit", "bw-direct", "molodensky",
                                  "helmert2d-fit", "helmert2d-apply"])
    p.add_argument("--params")
    p.add_argument("--ell", default="clarke-1880-fr")
    p.add_argument("--ell2", default="wgs84")
    p.add_argument("--shift", default="0,0,0", help="dX,dY,dZ metres (molodensky)")
    p.add_argument("--abridged", action="store_true")
    common(p)
    p.set_defaults(func=cmd_datum)

    p = sub.add_parser("adjust", help="least-squares adjustment")
    p.add_argument("--system", help="JSON file with A, K and optional P")
    p.add_argument("--obs", help="CSV kind,from,to,value,sigma,set_id,dist_km")
    p.add_argument("--points", help="CSV name,x0,y0[,z0],fixed")
    p.add_argument("--no-direction-scaling", action="store_true")
    common(p)
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("orbit", help="two-body propagation")
    p.add_argument("--elements", required=True, help="JSON orbital elements")
    p.add_argument("--epochs", required=True, help="comma-separated epochs, s")
    p.add_argument("--frame", choices=["eci", "ecef"], default="eci")
    p.add_argument("--gst-rad", type=float, default=0.0)
    p.add_argument("--spin", action="store_true",
                   help="advance GST with the earth rotation rate")
    common(p, angle=False)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("dop", help="dilution of precision")
    p.add_argument("--receiver", required=True, help="phi,lam[,he]")
    p.add_argument("--ell", default="wgs84")
    common(p)
    p.set_defaults(func=cmd_dop)

    p = sub.add_parser("heights", help="height systems")
    p.add_argument("kind", choices=["ortho", "normal", "dynamic"])
    p.add_argument("--phi-start")
    p.add_argument("--phi-end")
    p.add_argument("--h-mean", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_heights)

    p = sub.add_parser("astro", help="sidereal time arithmetic")
    p.add_argument("op", choices=["hour-angle", "hsl", "sidereal"])
    p.add_argument("--hsl")
    p.add_argument("--alpha")
    p.add_argument("--hsg")
    p.add_argument("--hsg0")
    p.add_argument("--lam", default="0h")
    p.add_argument("--tu")
    common(p, angle=False)
    p.set_defaults(func=cmd_astro)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.list_ellipsoids:
        for key in sorted(REGISTRY):
            e = REGISTRY[key]
            print(f"{key}: a={_fmt(e.a)} 1/f={_fmt(e.inv_f)}")
        return 0
    if args.list_projections:
        for name in list_projections():
            print(name)
        return 0
    if not getattr(args, "func", None):
        ap.print_usage(sys.stderr)
        return 2
    try:
        args.func(args)
    except ArithmeticError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def run():
    """The process entry of ``geodkit`` and ``python -m geodkit.cli``.

    Runs main(), flushes stdout and stderr and ends the process with
    os._exit, so the call skips the interpreter's teardown.  Every output
    file is closed by then and geodkit registers no atexit handler.  A
    stdout flush that fails exits 2, named on stderr as main() names a
    failed write.  An exception that escapes main(), argparse's SystemExit
    included, takes the interpreter's usual exit, with its teardown.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # reported as main() reports a failed write
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
