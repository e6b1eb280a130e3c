"""geodkit benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload from the root of a geodkit checkout for about S seconds
(whole rounds, at least the workload's MIN_ROUNDS), checks every result,
and prints each metric by name with its unit.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A result file with the machine, versions and seed goes to
.perfbench/results/.

Workloads (all closed loops with one client, one CLI child at a time):
  cli-bulk   8 commands on 100k-row CSV files, each a fresh CLI process
  cli-small  44 short CLI invocations per round, 8 with malformed input
  library    network solves, datum fits, a collinear rejection and a
             scalar kernel loop, in-process
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import gen
import layers
import selftest
from cli_workloads import CliBulk, CliSmall
from common import (SETUP_REPEATS, SRC, WORK, Speed, Tally, environment, metric, p50,
                    write_json)
from library import Library

WORKLOADS = {w.name: w for w in (CliBulk, CliSmall, Library)}


def run(workload, seconds: float, trace: bool, tally: Tally) -> dict:
    wall, norm = [], []
    for _ in range(SETUP_REPEATS):
        _, w, n = workload.speed.measure(workload.setup)
        wall.append(w)
        norm.append(n)
    start = time.perf_counter()
    if trace:
        workload.run_round(tally, traced=False)  # the untraced baseline of the overhead
    rounds = 0
    while rounds < (1 if trace else workload.MIN_ROUNDS) or time.perf_counter() - start < seconds:
        workload.run_round(tally, traced=trace)
        rounds += 1
    return {"setup_s": p50(norm), "wall_setup_s": p50(wall), "setup_samples_s": norm,
            "wall_setup_samples_s": wall, "measured_s": time.perf_counter() - start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "geodkit", "cli.py")):
        print(f"error: no geodkit sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        broken = selftest.problems(workdir)
        if broken:
            print("error: benchmark self-test failed: " + "; ".join(broken), file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](args.seed, workdir, Speed())
        tally = Tally()
        try:
            timing = run(workload, args.seconds, bool(args.trace), tally)
        except (gen.IllPosed, RuntimeError, ImportError, OSError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {"setup_s": (timing["setup_s"], "s")}
    info = {"failed_ratio": (tally.failed / tally.attempted, "ratio"),
            "wall_setup_s": (timing["wall_setup_s"], "s"),
            "probe_ms": (p50(workload.speed.probes) * 1e3, "ms"),
            **workload.informational()}
    if args.trace:
        metrics = layers.complete(workload.per_layer())
    else:
        e2e.update(workload.end_to_end())
        metrics = {k: metric(v, u) for k, (v, u) in e2e.items()}

    stem = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    write_json(stem + ".json", {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "timing": timing,
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "failures": tally.failures, "metrics": metrics,
        "informational": {k: metric(v, u) for k, (v, u) in info.items()}})
    if args.trace:
        write_json(stem + ".spans.json", workload.spans())

    for label in tally.failures[:10]:
        print(f"# failed: {label}")
    for name, m in list(metrics.items()) + [(k, metric(v, u)) for k, (v, u) in info.items()]:
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
