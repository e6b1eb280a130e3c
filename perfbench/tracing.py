"""Tracing by wrapping geodkit's public functions where callers look them up.

A function is wrapped under every module-level name that refers to it
(``geodkit.cli.geodetic_to_ecef`` and ``geodkit.coords.geodetic_to_ecef``
are separate bindings of one function), so a call is counted whichever
module makes it.  Coarse calls (a command, a CSV read, a network solve, a
datum fit) are kept as spans (name, start, end, parent, run id) in memory
and written out at the end.  Per-point kernels run up to a million times in
a traced round, so they are aggregated into call counts and summed time
instead of one span each.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# The per-call kernels the per-layer metrics report, as <module>.<function>.
KERNELS = (
    "core.meridian_arc",
    "core.meridian_arc_coefficients",
    "core.latitude_from_isometric",
    "coords.geodetic_to_ecef",
    "coords.ecef_to_geodetic",
    "projections.lambert_forward",
    "projections.lambert_inverse",
    "projections.utm_forward",
    "projections.utm_inverse",
    "projections.utm_footpoint_latitude",
    "geodesics.geodesic_direct",
    "geodesics.geodesic_inverse",
    "orbits.solve_kepler",
)
MODULES = ("core", "sphere", "coords", "geodesics", "projections", "reductions",
           "datum", "adjust", "orbits", "heights", "cli")


def geodkit_modules() -> dict:
    return {name: importlib.import_module(f"geodkit.{name}") for name in MODULES}


def normal_flops(a_shape, p_ndim: int) -> int:
    """Flops to form A'P once, then A'PA and A'PK, from the stored shapes.

    A is n x r.  A dense n x n P costs 2 r n^2 for A'P; a weight vector
    costs r n.  The count is computed, not measured.
    """
    n, r = a_shape
    at_p = 2 * r * n * n if p_ndim == 2 else r * n
    return at_p + 2 * r * r * n + 2 * r * n


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.calls = defaultdict(lambda: [0, 0])  # key -> [calls, ns]
        self.values = defaultdict(float)          # key -> accumulated value
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------
    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None,
                          self.run_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return wrapper

    def _counter(self, keys, fn):
        buckets = [self.calls[k] for k in keys]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                for b in buckets:
                    b[0] += 1
                    b[1] += dt
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def span_durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    # -- instrumentation -----------------------------------------------------
    def instrument_kernels(self, mods: dict, skip_module: str | None = None) -> None:
        """Count every binding of the KERNELS and GeodeticCoord constructions."""
        for key in KERNELS:
            mod_name, fn_name = key.split(".")
            target = getattr(mods[mod_name], fn_name)
            for owner_name, owner in mods.items():
                if owner_name == skip_module:
                    continue
                for attr, value in list(vars(owner).items()):
                    if value is target:
                        self._patch(owner, attr, self._counter([key], target))
        coord_cls = mods["coords"].GeodeticCoord
        post_init = coord_cls.__post_init__
        bucket = self.calls["coords.GeodeticCoord"]

        def counted(obj):
            bucket[0] += 1
            post_init(obj)
        self._patch(coord_cls, "__post_init__", counted)

    def instrument_cli(self, mods: dict) -> None:
        """Spans for the CLI's stages; geodkit calls made by the CLI are kernel time."""
        cli = mods["cli"]
        self.instrument_kernels(mods, skip_module="cli")
        kernel_names = {k.split(".")[1]: k for k in KERNELS}
        for attr, value in list(vars(cli).items()):
            if attr.startswith("cmd_"):
                self._patch(cli, attr, self._span("cli.command", value))
            elif (callable(value) and not isinstance(value, type)
                  and getattr(value, "__module__", "").startswith("geodkit.")
                  and value.__module__ != "geodkit.cli"):
                keys = ["cli.kernel"] + ([kernel_names[attr]] if attr in kernel_names else [])
                self._patch(cli, attr, self._counter(keys, value))
        self._patch(cli, "build_parser", self._span("cli.build_parser", cli.build_parser))
        network = mods["adjust"].Network
        self._patch(network, "solve", self._counter(["cli.kernel"], network.solve))

        read, write = cli._read_csv, cli._write_lines
        values = self.values

        def read_csv(path):
            header, rows = read(path)
            values["cli.rows"] += len(rows)
            if path not in (None, "-"):
                values["cli.bytes_in"] += os.path.getsize(path)
            return header, rows

        def write_lines(lines, path):
            values["cli.bytes_out"] += sum(len(line) + 1 for line in lines)
            return write(lines, path)
        self._patch(cli, "_read_csv", self._span("cli.read", read_csv))
        self._patch(cli, "_write_lines", self._span("cli.write", write_lines))

    def instrument_library(self, mods: dict) -> None:
        """Spans for solves and datum fits, counters for the per-point kernels."""
        self.instrument_kernels(mods)
        adjust, datum = mods["adjust"], mods["datum"]
        values = self.values
        solve_linear = adjust.solve_linear

        def traced_solve_linear(system):
            values["adjust.weight_bytes"] = max(values["adjust.weight_bytes"],
                                                float(system.p.nbytes))
            values["adjust.normal_flops"] += normal_flops(system.a.shape, system.p.ndim)
            return solve_linear(system)
        self._patch(adjust, "solve_linear", self._span("adjust.solve_linear", traced_solve_linear))
        solve = adjust.Network.solve

        def traced_solve(net, *args, **kwargs):
            result = solve(net, *args, **kwargs)
            values["adjust.iterations"] += result.iterations
            values["adjust.solves"] += 1
            return result
        self._patch(adjust.Network, "solve", self._span("adjust.Network.solve", traced_solve))
        for name in ("bursa_wolf_estimate", "helmert2d_estimate", "bursa_wolf_direct"):
            self._patch(datum, name, self._span(f"datum.{name}", getattr(datum, name)))

    # -- output --------------------------------------------------------------
    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {"run_id": self.run_id,
               "spans": [dict(zip(("name", "start", "end", "parent", "run"), s))
                         for s in self.spans],
               "calls": {k: v for k, v in self.calls.items()},
               "values": dict(self.values)}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


IMPORT_MARK = "perfbench: geodkit.cli imported"


def parse_importtime(stderr: str) -> tuple:
    """(numpy ms, geodkit ms, remaining stderr) from ``-X importtime`` output.

    Only top-level entries before IMPORT_MARK count; their cumulative time
    includes what they imported.  The traced child imports numpy, then
    geodkit.cli, so geodkit's figure excludes numpy, and modules that only
    the instrumentation imports afterwards are left out.
    """
    numpy_us = geodkit_us = 0
    rest = []
    counting = True
    for line in stderr.splitlines():
        if line == IMPORT_MARK:
            counting = False
            continue
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line.split("|")
        if not counting or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        pkg = parts[2].rstrip()
        if pkg.startswith("  "):
            continue
        pkg = pkg.strip()
        if pkg == "numpy":
            numpy_us += int(parts[1])
        elif pkg == "geodkit" or pkg.startswith("geodkit."):
            geodkit_us += int(parts[1])
    return numpy_us / 1000.0, geodkit_us / 1000.0, "\n".join(rest)


def cli_child_main(t_start: float) -> int:
    """Body of a traced CLI child: ``traced_cli.py STATS RUN_ID -- CLI ARGS``.

    Mirrors ``python -m geodkit.cli``: an exception that escapes main()
    prints a traceback and exits 1.
    """
    stats_path, run_id = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    import numpy  # noqa: F401  imported first so the import split is clean
    import geodkit.cli

    print(IMPORT_MARK, file=sys.stderr, flush=True)
    mods = geodkit_modules()
    tracer = Tracer(run_id)
    tracer.instrument_cli(mods)
    try:
        rc = geodkit.cli.main(argv)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            rc = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            rc = 1
    except Exception:
        import traceback

        traceback.print_exc()
        rc = 1
    finally:
        sys.stdout.flush()
        tracer.dump(stats_path, {"t_start": t_start})
    return rc
