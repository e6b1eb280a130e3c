"""The per-layer metrics of a traced run, in one fixed list for every workload.

A layer a workload does not exercise reports 0 (no calls, no time).  Times
and counts are per traced round, so runs of different length compare.
"""

from __future__ import annotations

from common import p50
from tracing import KERNELS

CLI = [("cli.interpreter_ms", "ms"), ("cli.import_numpy_ms", "ms"),
       ("cli.import_geodkit_ms", "ms"), ("cli.build_parser_ms", "ms"),
       ("cli.read_s", "s"), ("cli.write_s", "s"), ("cli.kernel_s", "s"), ("cli.self_s", "s"),
       ("cli.rows", "count"), ("cli.bytes_in", "bytes"), ("cli.bytes_out", "bytes")]
FUNCS = [(f"{k}.{what}", unit) for k in KERNELS
         for what, unit in (("calls", "count"), ("us_per_call", "us"))]
RATIOS = [("core.coeff_builds_per_arc", "ratio"), ("coords.geodetic_coords_per_row", "ratio")]
ADJUST = [(f"adjust.solve_s.lev{n}", "s") for n in (250, 500, 1000, 2000)] + [
    ("adjust.solve_s.plane", "s"), ("adjust.solve_linear_s", "s"), ("adjust.assemble_s", "s"),
    ("adjust.iterations", "count"), ("adjust.weight_bytes", "bytes"),
    ("adjust.normal_flops", "flop-computed")]
DATUM = [("datum.bursa_wolf_estimate_ms", "ms"), ("datum.helmert2d_estimate_ms", "ms"),
         ("datum.bursa_wolf_direct_ms", "ms"), ("datum.bursa_wolf_direct_reject_ms", "ms")]
TRACE = [("trace.overhead_s", "s")]
PER_LAYER = CLI + FUNCS + RATIOS + ADJUST + DATUM + TRACE


def _median(values) -> float:
    return p50(values) if values else 0.0


def kernel_metrics(calls: dict, rounds: int, rows: float) -> dict:
    """Calls and microseconds per call of each kernel, and the two ratios.

    calls maps a kernel key to [calls, nanoseconds] summed over the traced
    rounds; rows is the number of input rows (or scalar points) per round.
    """
    out = {}
    for key in KERNELS:
        n, ns = calls.get(key, (0, 0))
        out[f"{key}.calls"] = n / rounds
        out[f"{key}.us_per_call"] = ns / n / 1e3 if n else 0.0
    arcs = calls.get("core.meridian_arc", (0, 0))[0]
    builds = calls.get("core.meridian_arc_coefficients", (0, 0))[0]
    out["core.coeff_builds_per_arc"] = builds / arcs if arcs else 0.0
    coords = calls.get("coords.GeodeticCoord", (0, 0))[0] / rounds
    out["coords.geodetic_coords_per_row"] = coords / rows if rows else 0.0
    return out


def cli_metrics(stats: list, rounds: int) -> dict:
    """Per-layer figures from the stats files of traced CLI children."""
    def spans(name):
        return [s["end"] - s["start"] for doc in stats for s in doc["spans"]
                if s["name"] == name and s["end"] is not None]

    def value(key):
        return sum(doc["values"].get(key, 0.0) for doc in stats) / rounds

    calls = {}
    for doc in stats:
        for key, (n, ns) in doc["calls"].items():
            acc = calls.setdefault(key, [0, 0])
            acc[0] += n
            acc[1] += ns
    read, write, command = (sum(spans(n)) / rounds for n in ("cli.read", "cli.write",
                                                            "cli.command"))
    kernel = calls.get("cli.kernel", (0, 0))[1] / 1e9 / rounds
    out = {
        "cli.interpreter_ms": _median([d["interpreter_ms"] for d in stats]),
        "cli.import_numpy_ms": _median([d["import_numpy_ms"] for d in stats]),
        "cli.import_geodkit_ms": _median([d["import_geodkit_ms"] for d in stats]),
        "cli.build_parser_ms": _median(spans("cli.build_parser")) * 1e3,
        "cli.read_s": read, "cli.write_s": write, "cli.kernel_s": kernel,
        "cli.self_s": command - read - write - kernel,
        "cli.rows": value("cli.rows"), "cli.bytes_in": value("cli.bytes_in"),
        "cli.bytes_out": value("cli.bytes_out"),
    }
    out.update(kernel_metrics(calls, rounds, out["cli.rows"]))
    return out


def complete(values: dict) -> dict:
    """Every per-layer metric, 0 where the workload did not reach the layer."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
