"""Batch command-line frontend.

Subcommands operate on CSV (comma separator, dot decimal, a header row
that tags units, as ``phi[gr]``: --angle-unit gives the input angles' unit,
and an input angle column tagged with another is an error) or JSON files
and print to stdout unless an output path is given.  Numbers are printed
to 12 significant digits, so runs repeat byte for byte.

Every CSV command reads its input by block number through one reader,
_Rows, which no read changes: block i is read from the file when asked for
(stdin is held whole) and parsed by one np.loadtxt call, or by csv.reader
and float() where loadtxt would read the input otherwise or rejects a
field.  A line ends at LF, CR or CRLF, in stdin as in a file.  Each
CSV-to-CSV command (convert, project, geodesic, reduce, and datum bw-apply,
molodensky and helmert2d-apply) declares its numeric columns, angle or not,
its scalar API call on one row and its array kernel, and runs through one
table runner, _table, which formats rows with one "%s,%.12g,..." template.
A small input, one that the first read takes whole with at most
_SCALAR_ROWS (256) line ends, is parsed by csv.reader and float() alone,
and _table runs the scalar call on each of its rows in place of the
kernel: numpy's import (about 100 ms) outweighs 256 of the slowest scalar
rows (geodesic inverse, about 30 us each).
_table runs an input of two blocks or more in one share per usable CPU, a
range of block numbers, all but the first in forked children, each of which
answers only with its exit status; a share that failed in its child, or
could not fork, runs again in this process, which raises its error
(_shared).  Each share writes its lines to its own _Spool, an unnamed
temp file in TMPDIR that needs room for the
output (a full one exits 2), so a process holds one 4096-row block of input
and one of output, and the scan a 256 KB window.  dop, heights and the
datum fits read their columns through _Rows too; adjust parses the mixed
names and numbers of its rows itself.  Output is all or nothing: the spools
are copied out once all shares pass.  Reading the input raises its csv,
decoding and short-row errors; after that the first failing data row in
file order decides the error, the one the scalar API raises on that row.

Exit codes: 0 success, 2 input/usage error, 3 numerical error.  The class
of the exception decides: any ArithmeticError, which includes every
geodkit.core.NumericalError, exits 3; ValueError, KeyError and OSError exit
2, and so does a closed stdin or stdout that a command needs (a closed
stderr loses the message, not the code).  The error class name goes to
stderr, and a CSV row that is too short, has a field too long or has a
field float() rejects is named by its data-row number (1 is the first row
after the header).  ``adjust`` also names the file, points or obs, of a
field float() rejects, of a row with too many fields, of an observation to
an unknown point and of a row the library rejects.

Start-up and exit: importing this module loads the modules of convert,
project and geodesic (core, coords, projections, geodesics), whose kernels
and scalar calls stay bound in this namespace, where the benchmark's CLI
tracer and the tests find them.  It neither loads numpy (core.np loads it
on its first attribute use) nor compiles dataclass methods (core.Value),
nor before Python 3.12 inspect (the stand-in below loads it on first use):
it takes a median 8.3 ms after site, 15.7 ms with inspect (30 alternating
-X importtime runs, 3.11, 2-vCPU Xeon).  So --help, --version, the
listings, astro and orbit never import numpy, nor do heights and the table
commands on a small input; a larger input, dop, adjust and the datum fits
do.  Every other command imports its own module when it runs (adjust,
datum, heights, orbits, reductions, sphere), so this module does not
re-export their names.  run(), the process entry, ends with os._exit once
main() has written and flushed every output inside its one try: that skips
the interpreter's teardown, 15-20 ms a call (``import numpy`` alone took
128/162 ms, min/median of 25 runs, and 112/143 ms with os._exit).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import re
import sys
import warnings
import weakref
from contextlib import contextmanager, nullcontext, redirect_stdout, suppress
from functools import partial
from importlib.util import find_spec
from itertools import islice
from operator import attrgetter
from types import ModuleType, SimpleNamespace


class _OnFirstUse(ModuleType):
    """A module's stand-in that imports it at the first attribute use, then passes every use on."""

    def __getattr__(self, attr):
        if sys.modules.get(self.__name__) is self:
            del sys.modules[self.__name__]
        return getattr(__import__(self.__name__), attr)

    def __setattr__(self, attr, value):  # the real module, loaded by __getattr__
        setattr(sys.modules[self.__getattr__("__name__")], attr, value)

    def __delattr__(self, attr):
        delattr(sys.modules[self.__getattr__("__name__")], attr)


# before 3.12 dataclasses uses inspect only to write the docstring of a class without
# one, and every value type has one; .core is the first module here to import dataclasses
if sys.version_info < (3, 12) and "inspect" not in sys.modules:
    vars(_stand_in := _OnFirstUse("inspect"))["__spec__"] = find_spec("inspect")
    sys.modules["inspect"] = _stand_in

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
    np,
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


_NUMBER = "%.12g"  # every number the CLI prints: 12 significant digits
_fmt = _NUMBER.__mod__


# data rows per block of the CSV commands, the rows of input and of output a
# process holds: a block's lines, values, kernel temporaries and output lines
# take 2-3 MB, and the per-block calls cost nothing next to the per-row work
_BLOCK_ROWS = 4096
# bytes per step of _read_csv's scan, above csv.field_size_limit() (131072)
_CHUNK = 1 << 18
# line ends (LF or CR) at most in a small input, one that csv.reader reads and
# the scalar API computes without numpy: a row costs 30 us at most there
# (geodesic inverse), and import numpy about 100 ms
_SCALAR_ROWS = 256


def _records(lines) -> tuple:
    """The header and data rows of lines that csv.reader must read, each as
    the text of its record (a quoted field may span lines), and their lows
    (_Rows).  In a record that starts with "#", a comment, csv.reader sees
    each run of characters other than quotes, commas and line ends as one
    "#": no field of it is long."""
    records, lows, low, start, end = [], [], math.inf, 0, 0  # csv.reader reads lines[start:end]

    def comments_masked():
        nonlocal end
        comment = False
        for end, line in enumerate(lines, 1):
            comment = line.startswith("#") if end - 1 == start else comment
            yield re.sub(r'[^",\r\n]+', "#", line) if comment else line

    try:
        for row in csv.reader(comments_masked()):
            if row and not row[0].startswith("#"):
                if records and len(row) < low:
                    lows.append((len(records), low := len(row)))
                records.append("".join(lines[start:end]))
            start = end
    except csv.Error as exc:  # in the header, or in data row len(records)
        row = len(records)
        raise ValueError(f"data row {row}: {exc}" if row else f"header: {exc}") from None
    return records, lows


class _Rows(SimpleNamespace):
    """The header and data rows of a CSV input, read by block number, in any
    order, as often as asked: block(i), i in blocks, holds the lines of data
    rows i * _BLOCK_ROWS + 1 on, with the comment and blank lines among them
    (between two byte offsets of a plain input), or a slice of the records of
    one csv.reader must read, which np.loadtxt may not (plain is False).
    len() is the count of data rows; lows holds each data row narrower than
    every row before it, as (data-row number, fields).  A small input (small
    is True) is never plain, and its columns are lists: numpy stays unloaded."""

    def __len__(self) -> int:
        return self.count

    def lines(self, i: int) -> list:
        """Block i's raw rows; a plain input's lines come without their ends."""
        block, count = self.block(i), min(_BLOCK_ROWS, self.count - i * _BLOCK_ROWS)
        if len(block) != count:  # comment and blank lines
            block = [line for line in block if line and line[0] not in "#\r"]
        if len(block) != count:  # a short read, or lines the scan did not see
            raise OSError("the input changed while it was read")
        return block

    def _parse(self, lines) -> list:
        """lines, the rows of one block, parsed by csv.reader."""
        return list(csv.reader(lines))

    def columns(self, count: int, blocks=None):
        """(names, columns) per block of blocks, every block by default, in
        order: column j holds field j as a float, for j in 1..count.

        One np.loadtxt reads a block of a plain input; otherwise,
        or if it raises a ValueError, csv.reader and float() parse the block,
        into lists of floats for a small input and into arrays otherwise.
        A row with a field float() rejects ends the blocks: the rows before it
        come as the last block, and the ValueError naming it is raised when
        the next block is asked for, so only once those rows have passed.
        """
        plain, small = self.plain, self.small
        for i in self.blocks if blocks is None else blocks:
            lines = self.lines(i)
            try:
                if not plain:
                    raise ValueError
                names, error = [line.partition(",")[0] for line in lines], None
                values = np.loadtxt(lines, delimiter=",", usecols=range(1, count + 1),
                                    comments=None, ndmin=2, dtype=float)
            except ValueError:
                rows, values, error = self._parse(lines), [], None
                for k, row in enumerate(rows):
                    try:
                        values.append([float(v) for v in row[1:count + 1]])
                    except ValueError as exc:
                        error = f"data row {i * _BLOCK_ROWS + k + 1}: {exc}"
                        break
                names = [row[0] for row in rows[:len(values)]]
                if not small:
                    values = np.array(values, dtype=float).reshape(-1, count)
            lines = rows = None  # the raw block goes before its rows are computed
            if small:
                yield names, [[row[j] for row in values] for j in range(count)]
            else:
                yield names, [c.copy() for c in values.T]  # one contiguous array a column
            names = values = None  # and its rows go before the next block is read
            if error:  # raised here, so this frame holds no exception its traceback holds
                raise ValueError(error)


def _read_csv(path):
    """The header row of a CSV input and its data rows, as _Rows; blank lines
    and rows whose first field starts with "#" are dropped.  One scan, _CHUNK
    bytes at a time, keeps where each block starts in a file, which stays open;
    stdin, or a pipe, is read whole into bytes first.

    The first read decides, before any numpy, whether the input is small: it
    came whole in that read (under _CHUNK bytes), with at most _SCALAR_ROWS
    line ends, LF and CR counted apart.  csv.reader reads a small input
    through _records, as below, and no scan runs.

    Lines end at LF, CR or CRLF, in stdin as in a file.  csv.reader reads every
    row here instead, through _records, when loadtxt would read them otherwise
    or csv.reader may reject them: in an input with a quote, a NUL, \\x1c-\\x1f
    or a CR inside a line (not before an LF nor last), a line of _CHUNK bytes
    or one as long as csv.field_size_limit(), or bytes that do not decode (or
    decode to U+FFFD).  So every csv or decoding error is raised here.  A plain
    row has its comma count + 1 fields, as csv.reader splits it.
    """
    stdin = path in (None, "-")
    fh = text = _std("stdin") if stdin else open(path, newline="")  # text: where csv.reader reads
    codec = fh.encoding, fh.errors
    if stdin or not (fh.seekable() and hasattr(os, "pread")):  # a pipe has no offsets
        data = fh.buffer.read()
        text = io.TextIOWrapper(io.BytesIO(data), *codec, newline="")
        read = lambda size, offset: data[offset:offset + size]  # noqa: E731
    else:
        read = partial(os.pread, fh.fileno())
    if not stdin:
        weakref.finalize(read, fh.close)  # the file closes with the last block reader
    header, offsets, lows, low, count, pos = None, [], [], math.inf, 0, 0  # low: the last of lows
    chunk = read(_CHUNK, pos)
    small = len(chunk) < _CHUNK and chunk.count(b"\n") + chunk.count(b"\r") <= _SCALAR_ROWS
    while chunk and not small:  # each chunk but the last ends at a line end
        end = len(chunk) if len(chunk) < _CHUNK else chunk.rfind(b"\n") + 1 or _CHUNK
        b = np.frombuffer(chunk, np.uint8, end)
        lfs = np.flatnonzero(b == 10)
        ends = np.append(lfs[lfs < end - 1] + 1, end)
        starts = np.append(0, ends[:-1])
        fields = np.add.reduceat((b == 44).view(np.uint8), starts, dtype=np.int32) + 1
        kept = ~np.isin(b[starts], (35, 13, 10))  # "#", "\r" or "\n" starts no row
        starts, ends, fields = starts[kept] + pos, ends[kept] + pos, fields[kept]
        if (any(c in chunk for c in b'"\0\x1c\x1d\x1e\x1f')
                or np.count_nonzero(b[:-1] == 13) != np.count_nonzero(b[lfs[lfs > 0] - 1] == 13)
                or (ends - starts).max(initial=0) >= min(csv.field_size_limit(), _CHUNK)
                or "\ufffd" in str(memoryview(chunk)[:end], codec[0], "replace")):
            break  # a byte for csv.reader, a CR inside a line, a long line or bad bytes
        if header is None and starts.size:
            header = next(csv.reader([chunk[starts[0] - pos:ends[0] - pos].decode(*codec)]))
            starts, fields = starts[1:], fields[1:]
        if fields.size and fields.min() < low:  # a row narrower than every row before it
            below = np.minimum.accumulate(np.append(low, fields))
            new = np.flatnonzero(fields < below[:-1])
            lows += zip((new + count + 1).tolist(), fields[new].tolist())
            low = below[-1]
        offsets += starts[-count % _BLOCK_ROWS::_BLOCK_ROWS].tolist()
        count, pos = count + starts.size, pos + end
        chunk = read(_CHUNK, pos)
    if chunk:  # csv.reader must read the input
        lines, lows = _records(list(text))
        header, count = next(csv.reader(lines[:1]), None), len(lines) - 1
        offsets = [*range(1, count + 1, _BLOCK_ROWS), count + 1]
        rows = lambda start, end: lines[start:end]  # noqa: E731
    else:
        def rows(start, end):  # the lines of bytes start:end, each without its end
            data = read(end - start, start)
            return data.decode(*codec).rstrip("\n").split("\n") if len(data) == end - start else []
        offsets.append(pos)
    if header is None:
        raise ValueError("empty input")
    return header, _Rows(header=header, block=lambda i: rows(offsets[i], offsets[i + 1]),
                         blocks=range(len(offsets) - 1), count=count, plain=not chunk, lows=lows,
                         small=small)


def _rows(path, width: int) -> _Rows:
    """The data rows of a CSV input; the first with fewer than `width` fields
    raises at once, as _read_csv raises any csv error: before any block runs."""
    rows = _read_csv(path)[1]
    for row, fields in rows.lows:
        if fields < width:
            raise ValueError(f"data row {row}: expected at least {width} fields, got {fields}")
    return rows


def _std(name: str):
    """sys.stdin or sys.stdout, which is None in a process started with it closed."""
    if (stream := getattr(sys, name)) is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    return stream


def _to_stdout(path) -> bool:
    """Whether path, an --output, names stdout; a closed one raises."""
    return path in (None, "-") and _std("stdout") is not None


class _Spool(io.TextIOWrapper):
    """The output text of one share, in an unnamed temp file in TMPDIR, which
    goes when it is closed or the process ends; UTF-8 with surrogatepass
    holds any str.  len() is the size of its file in bytes, what has been
    flushed to it."""

    def __init__(self):
        import tempfile  # only a table command spools
        super().__init__(tempfile.TemporaryFile(), "utf-8", "surrogatepass", newline="")

    def __len__(self) -> int:
        return os.fstat(self.fileno()).st_size


def _read_rows(path, width: int) -> list:
    """The data rows of a CSV input, each checked to hold at least `width` fields."""
    rows = _rows(path, width)
    return [row for i in rows.blocks for row in rows._parse(rows.lines(i))]


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
    rows = _rows(path, count + 1)
    return [r for _, columns in rows.columns(count)
            for r in map(row, *(c if rows.small else c.tolist() for c in columns))]


def _shared(blocks, body, out) -> None:
    """Run body(share, spool) on each share, a contiguous sub-range of blocks
    (a range of block numbers), one per usable CPU, then out(spools) once
    every share has passed.  body writes its share's output to its own _Spool,
    made before any fork.  Each share but the first runs in a forked child,
    which exits 0 once its spool is flushed, or 1 if the share raised.  This
    process runs again, after its own share and in file order, each share
    whose child exited 1 or that could not fork (a process limit), so the
    error raised is the share's own, at the cost of up to one share's work
    again; a child that ends otherwise (killed) is an OSError.  Raises the
    first error in file order, once the children still running are killed:
    the shares after a failing one cannot change the error.  Every spool is
    closed and every child reaped on return."""

    def run(share, spool):
        body(share, spool)
        spool.flush()  # a full temp directory fails here, in this share

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shares = max(1, min(cpus or 1, len(blocks)) if hasattr(os, "fork") else 1)
    ranges = [blocks[len(blocks) * k // shares:len(blocks) * (k + 1) // shares]
              for k in range(shares)]
    spools, children = [], {}  # one spool per share; share number: pid of its child
    try:
        for _ in range(shares):
            spools.append(_Spool())
        for k, (share, spool) in enumerate(zip(ranges[1:], spools[1:]), 2):
            with warnings.catch_warnings():  # 3.12 warns of BLAS threads, to stderr under -m
                warnings.filterwarnings("ignore", "This process .*use of fork", DeprecationWarning)
                try:
                    pid = os.fork()
                except OSError:  # a process limit: this process runs the share
                    continue
            if not pid:  # exit 0 once the share has passed, else 1
                with suppress(BaseException):
                    run(share, spool)
                    os._exit(0)
                os._exit(1)
            children[k] = pid
        run(ranges[0], spools[0])
        for k, (share, spool) in enumerate(zip(ranges[1:], spools[1:]), 2):
            # a share that did not fork runs here, as one whose child exited 1
            status = os.waitpid(children.pop(k), 0)[1] if k in children else 1 << 8
            if status == 0:
                continue
            if os.waitstatus_to_exitcode(status) != 1:  # killed, say
                raise OSError(f"share {k} of {shares} ended with no result, wait status {status}")
            spool.seek(0)  # what the child wrote goes
            spool.truncate()
            run(share, spool)
        for spool in spools:
            spool.seek(0)
        out(spools)
    except BaseException:  # the error is decided: end the other shares now
        import signal

        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in children.values():
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()


def _table(rows, path, unit, inputs, outputs, scalar, kernel) -> None:
    """Write to path the header and each row's name and outputs to 12 digits,
    run in shares (_shared), each holding one block of output at a time.

    inputs and outputs name the numeric columns as the header tags them; one
    with no unit tag is an angle in unit, multiplied into radians on input
    and divided back on output; an input header that tags one with another
    unit raises.  kernel(*inputs) returns the output columns and a mask of
    the rows to _settle with scalar, the scalar API's call on one row, which
    returns a tuple.  A small input (_read_csv) runs scalar on every row
    instead, and loads no numpy.
    """
    factor = ANGLE_UNITS.get(unit)
    angle_in = [not c.endswith("]") for c in inputs]
    angle_out = [not c.endswith("]") for c in outputs]
    for a, field in zip(angle_in, rows.header[1:]):
        if a and (tag := re.search(r"\[([^][]*)\]\s*$", field)) and tag[1] != unit:
            raise ValueError(f"header: column {field} is in {tag[1]}, but --angle-unit is {unit}")
    line = "%s," + ",".join([_NUMBER] * len(outputs)) + "\n"

    def share(blocks, spool) -> None:
        for names, columns in rows.columns(len(inputs), blocks):
            if rows.small:
                columns = [[v * factor for v in c] if a else c for c, a in zip(columns, angle_in)]
                values = zip(*map(scalar, *columns))
                values = [[v / factor for v in c] if a else c for c, a in zip(values, angle_out)]
            else:
                columns = [c * factor if a else c for c, a in zip(columns, angle_in)]
                *values, failed = kernel(*columns)
                _settle(failed, values, scalar, *columns)
                values = [(v / factor if a else v).tolist() for v, a in zip(values, angle_out)]
            text = map(line.__mod__, zip(names, *values))
            while part := "".join(islice(text, 1024)):
                spool.write(part)
            names = columns = values = text = None  # the next block is read without this one

    header = "name," + ",".join(c + (f"[{unit}]" if a else "") for c, a in zip(outputs, angle_out))
    _to_stdout(path)  # a closed stdout raises before any block runs
    _shared(rows.blocks, share, lambda spools: _write_lines([header, *spools], path))


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
    """Write each of lines, which may hold several lines, and a newline; a
    _Spool's text, whose lines end in newlines, is copied in as it is."""
    with nullcontext(sys.stdout) if _to_stdout(path) else open(path, "w") as fh:
        for line in lines:
            if isinstance(line, _Spool):
                import shutil  # only a table command spools
                shutil.copyfileobj(line, fh)
            else:
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
    rows = _rows(args.input, 4)  # the input's own errors come before an unknown ellipsoid
    ell = get_ellipsoid(args.ell)
    if args.frm == args.to:
        raise ValueError(f"unsupported conversion {args.frm} -> {args.to}")
    if args.frm == "geodetic":
        _table(rows, args.output, args.angle_unit, _GEODETIC, _ECEF,
               lambda *g: _XYZ(geodetic_to_ecef(ell, GeodeticCoord(*g))),
               partial(geodetic_to_ecef_array, ell))
    else:
        _table(rows, args.output, args.angle_unit, _ECEF, _GEODETIC,
               lambda *p: _GEO(ecef_to_geodetic(ell, EcefCoord(*p))),
               partial(ecef_to_geodetic_array, ell))


def cmd_project(args):
    proj = _projection(args)
    rows = _rows(args.input, 3)
    if args.direction == "fwd":
        _table(rows, args.output, args.angle_unit, _GEODETIC[:2], _PLANE,
               lambda *g: _EN(forward(proj, GeodeticCoord(*g))),
               partial(forward_columns, proj))
    else:
        _table(rows, args.output, args.angle_unit, _PLANE, _GEODETIC[:2],
               lambda *p: _GEO(inverse(proj, PlaneCoord(*p)))[:2],
               partial(inverse_columns, proj))


def cmd_geodesic(args):
    ell = get_ellipsoid(args.ell)
    rows = _rows(args.input, 5)
    if args.problem == "direct":
        _table(rows, args.output, args.angle_unit, ("phi1", "lam1", "az1", "s[m]"),
               ("phi2", "lam2", "az2", "s[m]"), lambda phi, lam, *az_s: _DIRECT(
                   geodesic_direct(ell, GeodeticCoord(phi, lam), *az_s)),
               partial(geodesic_direct_array, ell))
    else:
        _table(rows, args.output, args.angle_unit, ("phi1", "lam1", "phi2", "lam2"),
               ("az1", "az2", "s[m]"), lambda p1, l1, p2, l2: _INVERSE(geodesic_inverse(
                   ell, GeodeticCoord(p1, l1), GeodeticCoord(p2, l2))),
               partial(geodesic_inverse_array, ell))


def cmd_reduce(args):
    from . import reductions

    if not 0.0 < args.scale < math.inf:
        raise ValueError(f"--scale must be finite and > 0, got {args.scale}")

    def row(dp, ha, hb):
        obs = reductions.DistanceObservation(dp, ha, hb, wave=args.wave)
        de = reductions.reduce_to_ellipsoid(obs, rigorous=args.rigorous)
        return de, reductions.reduce_to_plane(de, args.scale)

    _table(_rows(args.input, 4), args.output, None, ("dp[m]", "ha[m]", "hb[m]"), ("de[m]", "dr[m]"),
           row, partial(reductions.reduce_columns, scale_m=args.scale, wave=args.wave,
                        rigorous=args.rigorous))


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
    if not t or count and len(t) != count or not all(map(math.isfinite, t)):
        raise ValueError(f"{option} must be {form}, got {text!r}")
    return t


def _finite(option: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{option} must be finite, got {value}")
    return value


def cmd_datum(args):
    import json

    from . import datum

    if args.op == "bw-apply":
        params = _read_param_file(_option(args, "params"))
        return _table(_rows(args.input, 4), args.output, None, _ECEF, _ECEF,
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
        return _table(_rows(args.input, 4), args.output, args.angle_unit, _GEODETIC, _GEODETIC,
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
        return _table(_rows(args.input, 3), args.output, None, _PLANE, _PLANE,
                      lambda *en: _EN(datum.helmert2d_apply(p, PlaneCoord(*en))),
                      partial(datum.helmert2d_columns, p))
    _write_lines(out, args.output)


class _Passes:
    """An iterable that calls parts() afresh on each pass, so a caller may
    count the parts before _write_lines writes them (perfbench's tracer
    does) and no pass holds them all."""

    def __init__(self, parts):
        self.parts = parts

    def __iter__(self):
        return self.parts()


def _adjustment_json(res, **extra):
    """The text json.dumps(doc, indent=2) gives for res and extra, in parts
    for _write_lines, which ends each with a newline: the document without
    cov, cut where cov goes, and between its halves one part per row of cov
    (each row through json's C encoder, whose numbers, NaN and Infinity
    included, are those the indenting one writes), so no pass holds more
    than one row's text.  For a network, x is the last iteration's
    correction, rounding noise below Network.solve's tol."""
    import json

    cov = res.cov
    text = json.dumps({**extra, "x": res.x.tolist(), "v": res.v.tolist(), "s2": res.s2,
                       "cov": None, "iterations": res.iterations}, indent=2)
    if cov is None:
        return [text]
    head, _, tail = text.rpartition('\n  "cov": null,\n')  # cov is the last key but one

    def parts():
        yield head + '\n  "cov": ['
        for i, row in enumerate(cov, 1):
            numbers = json.dumps(row.tolist())[1:-1].replace(", ", ",\n      ")
            yield f"    [\n      {numbers}\n    ]" + ("," if i < len(cov) else "")
        yield "  ],\n" + tail

    return _Passes(parts)


# whether a point is fixed, by the last field of its row in any case
_FIXED = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False, "": False}


@contextmanager
def _naming(where: str):
    """Prefix where to the message of a ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _at_most(row, names: tuple) -> None:
    """Reject a row with more fields than names."""
    if len(row) > len(names):
        raise ValueError(f"{len(row)} fields, expected at most {len(names)} "
                         f"({', '.join(names)})")


def cmd_adjust(args):
    from .adjust import LinearSystem, Network, Observation, solve_linear

    if args.system:
        doc = _read_json(args.system)
        system = LinearSystem(_json_array(doc, "a"), _json_array(doc, "k"),
                              _json_array(doc, "p") if "p" in doc else None)
        _to_stdout(args.output)  # a closed stdout raises before the solve
        return _write_lines(_adjustment_json(solve_linear(system)), args.output)
    if not (args.obs and args.points):
        raise ValueError("adjust needs --system or both --obs and --points")
    net = Network(scale_directions=not args.no_direction_scaling)
    for n, row in enumerate(_read_rows(args.points, 4), 1):
        with _naming(f"points data row {n}"):
            _at_most(row, ("name", "x0", "y0", "z0", "fixed"))
            vals = [float(v) if v else 0.0 for v in row[1:-1]]
            fixed = _FIXED.get(row[-1].strip().lower())
            if fixed is None:
                raise ValueError("fixed must be one of 1, true, yes, 0, false, no or empty, "
                                 f"got {row[-1]!r}")
            x0, y0 = vals[:2]
            z0 = vals[2] if len(vals) > 2 else 0.0
            net.add_point(row[0], x0, y0, z0, fixed)
    factor = ANGLE_UNITS[args.angle_unit]
    for n, row in enumerate(_read_rows(args.obs, 4), 1):
        with _naming(f"obs data row {n}"):
            _at_most(row, ("kind", "from", "to", "value", "sigma", "set_id", "dist_km"))
        kind, frm, to = row[0], row[1], row[2]
        for name in (frm, to):
            if name not in net.points:
                raise KeyError(f"obs data row {n}: unknown point {name!r}")
        with _naming(f"obs data row {n}"):
            value = float(row[3])
            sigma = float(row[4]) if len(row) > 4 and row[4] else None
            dist_km = float(row[6]) if len(row) > 6 and row[6] else None
            if kind == "direction":  # and its sigma, if given
                value, sigma = value * factor, sigma and sigma * factor
            set_id = row[5] if len(row) > 5 and row[5] else None
            net.add_observation(Observation(kind, frm, to, value, sigma, set_id, dist_km))
    _to_stdout(args.output)  # a closed stdout raises before the solve
    res = net.solve()
    points = {name: {"x": p.x0, "y": p.y0, "z": p.z0} for name, p in sorted(net.points.items())}
    _write_lines(_adjustment_json(res, points=points), args.output)


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
            x = _XYZ(eci_to_ecef(x, gst))
        out.append(f"{_fmt(t)},{_fmt(x[0])},{_fmt(x[1])},{_fmt(x[2])}")
    _write_lines(out, args.output)


def cmd_dop(args):
    import json

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


_DESCRIPTION = """Geodetic computations on CSV and JSON files, read from a file or
stdin and printed to stdout unless --output names a file. A CSV header tags the
unit of each column, as in phi[gr]. Numbers are written with 12 significant
digits. Exit codes: 0 success, 2 input or usage error, 3 numerical error."""


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every subcommand's parser, with the arguments of command only if given: argparse reads
    those of the first argv token that is no option, and rejects one that names no subcommand."""
    ap = argparse.ArgumentParser(prog="geodkit", description=_DESCRIPTION)
    ap.add_argument("--version", action="version", version=f"geodkit {__version__}")
    ap.add_argument("--list-ellipsoids", action="store_true", help="list ellipsoids and exit")
    ap.add_argument("--list-projections", action="store_true", help="list projections and exit")
    sub = ap.add_subparsers(dest="command")

    def declared(name, text):  # name's subparser, if its arguments are declared
        p = sub.add_parser(name, help=text)
        return p if command in (None, name) else None

    def common(p, angle=True):
        p.add_argument("--input", "-i", default="-")
        p.add_argument("--output", "-o", default="-")
        if angle:
            p.add_argument("--angle-unit", choices=list(ANGLE_UNITS), default="gr")

    if p := declared("convert", "geodetic <-> ECEF over CSV"):
        p.add_argument("--from", dest="frm", required=True, choices=["geodetic", "ecef"])
        p.add_argument("--to", required=True, choices=["geodetic", "ecef"])
        p.add_argument("--ell", default="grs80")
        common(p)
        p.set_defaults(func=cmd_convert)

    if p := declared("project", "map projection forward/inverse"):
        p.add_argument("direction", choices=["fwd", "inv"])
        p.add_argument("--proj", default="lambert-nord-tn")
        p.add_argument("--proj-json", help="JSON projection definition file")
        p.add_argument("--ell", default=None)
        common(p)
        p.set_defaults(func=cmd_project)

    if p := declared("geodesic", "geodesic direct/inverse problems"):
        p.add_argument("problem", choices=["direct", "inverse"])
        p.add_argument("--ell", default="clarke-1880-fr")
        common(p)
        p.set_defaults(func=cmd_geodesic)

    if p := declared("reduce", "distance reductions"):
        p.add_argument("--wave", choices=["light", "micro"], default=None)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--rigorous", action="store_true", help="closed sea-level formula; it "
                       "skips the ray-curvature correction, so --wave has no effect with it")
        common(p, angle=False)
        p.set_defaults(func=cmd_reduce)

    if p := declared("datum", "datum transformations"):
        p.add_argument("op", choices=["bw-apply", "bw-fit", "bw-direct", "molodensky",
                                      "helmert2d-fit", "helmert2d-apply"])
        p.add_argument("--params")
        p.add_argument("--ell", default="clarke-1880-fr")
        p.add_argument("--ell2", default="wgs84")
        p.add_argument("--shift", default="0,0,0", help="dX,dY,dZ metres (molodensky)")
        p.add_argument("--abridged", action="store_true")
        common(p)
        p.set_defaults(func=cmd_datum)

    if p := declared("adjust", "least-squares adjustment"):
        p.add_argument("--system", help="JSON file with A, K and optional P")
        p.add_argument("--obs", help="CSV kind,from,to,value,sigma,set_id,dist_km")
        p.add_argument("--points", help="CSV name,x0,y0[,z0],fixed")
        p.add_argument("--no-direction-scaling", action="store_true")
        common(p)
        p.set_defaults(func=cmd_adjust)

    if p := declared("orbit", "two-body propagation"):
        p.add_argument("--elements", required=True, help="JSON orbital elements")
        p.add_argument("--epochs", required=True, help="comma-separated epochs, s")
        p.add_argument("--frame", choices=["eci", "ecef"], default="eci")
        p.add_argument("--gst-rad", type=float, default=0.0)
        p.add_argument("--spin", action="store_true",
                       help="advance GST with the earth rotation rate")
        common(p, angle=False)
        p.set_defaults(func=cmd_orbit)

    if p := declared("dop", "dilution of precision"):
        p.add_argument("--receiver", required=True, help="phi,lam[,he]")
        p.add_argument("--ell", default="wgs84")
        common(p)
        p.set_defaults(func=cmd_dop)

    if p := declared("heights", "height systems"):
        p.add_argument("kind", choices=["ortho", "normal", "dynamic"])
        p.add_argument("--phi-start")
        p.add_argument("--phi-end")
        p.add_argument("--h-mean", type=float, default=0.0)
        common(p)
        p.set_defaults(func=cmd_heights)

    if p := declared("astro", "sidereal time arithmetic"):
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
    argv = sys.argv[1:] if argv is None else list(argv)
    ap, printed = build_parser(next((a for a in argv if a[:1] != "-"), None)), io.StringIO()
    # argparse reads a value such as "-3600,0", "-1e-3" or "-0h40m" as an option
    # string, so one after an option is joined to it: "--epochs=-3600,0"
    for i in range(len(argv) - 1, 0, -1):
        if argv[i][:1] == "-" and argv[i - 1][:2] == "--" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        try:
            with redirect_stdout(printed):  # argparse would drop a write that fails
                args = ap.parse_args(argv)
        except SystemExit as exc:  # after --help, --version or a usage error
            if printed.tell():  # --help or --version
                _std("stdout").write(printed.getvalue())
                sys.stdout.flush()
            return exc.code
        if not (args.list_ellipsoids or args.list_projections or getattr(args, "func", None)):
            ap.print_usage(sys.stderr)
            return 2
        if args.list_ellipsoids:
            _write_lines([f"{key}: a={_fmt(e.a)} 1/f={_fmt(e.inv_f)}"
                          for key, e in sorted(REGISTRY.items())], None)
        elif args.list_projections:
            _write_lines(list_projections(), None)
        else:
            args.func(args)
        if sys.stdout is not None:  # a buffered write fails here, not after main()
            sys.stdout.flush()
    except ArithmeticError as exc:
        code, error = 3, f"numerical error: {type(exc).__name__}: {exc}"
    except (OSError, ValueError, KeyError) as exc:
        code, error = 2, f"input error: {type(exc).__name__}: {exc}"
    else:
        return 0
    with suppress(OSError):  # a stderr that takes no writes loses the line
        print(error, file=sys.stderr)
    return code


def run():
    """The process entry of ``geodkit`` and ``python -m geodkit.cli``.

    Runs main(), flushes stderr and ends the process with os._exit, so the
    call skips the interpreter's teardown.  main() has flushed stdout and
    closed every output file by then, argparse's --help, --version and
    usage errors included, and geodkit registers no atexit handler.  An
    exception that escapes main() takes the interpreter's usual exit, with
    its teardown.
    """
    if sys.stderr is None:  # started with it closed; else print() would write to stdout
        sys.stderr = open(os.devnull, "w")
    code = main()
    with suppress(OSError):  # a descriptor that takes no writes
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
