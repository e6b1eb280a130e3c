"""Self-test of the benchmark's checkers: a corrupted output row and an exit
code of 1 must each be counted as failed.  ``python3 perfbench/selftest.py``
runs it alone; every benchmark run runs it first and stops if it fails.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import oracles
from cli_workloads import exit_problem, write_csv
from common import Tally, run_child


def problems(workdir: str) -> list:
    """Descriptions of the checks that let a bad result through; empty when all hold."""
    found = []
    phi = np.array([0.70, 0.66, 0.64])
    lam = np.array([0.16, 0.15, 0.18])
    he = np.array([10.0, 250.0, 1800.0])
    truth = oracles.geodetic_to_ecef("grs80", phi, lam, he)
    path = os.path.join(workdir, "selftest.csv")

    def check():
        return oracles.close("ecef", oracles.read_table(path, 4), truth, oracles.TOL_ECEF_M)

    write_csv(path, "name,x[m],y[m],z[m]", list(truth.T))
    if check() is not None:
        found.append(f"a correct table was rejected: {check()}")
    with open(path) as fh:
        good = fh.read().splitlines()
    x = good[2].split(",")
    corrupt = {
        "value off by 1 m": f"{x[0]},{float(x[1]) + 1.0},{x[2]},{x[3]}",
        "non-numeric field": f"{x[0]},{x[1]},abc,{x[3]}",
        "short row": f"{x[0]},{x[1]},{x[2]}",
    }
    for what, row in corrupt.items():
        with open(path, "w") as fh:
            fh.write("\n".join(good[:2] + [row] + good[3:]) + "\n")
        tally = Tally()
        try:
            problem = check()
        except ValueError as exc:
            problem = f"unreadable output: {exc}"
        tally.record("selftest", problem, silent=True)
        if tally.failed != 1:
            found.append(f"corrupted row ({what}) was not counted as failed")

    rec = run_child([sys.executable, "-c", "raise IndexError('list index out of range')"],
                    os.path.join(workdir, "selftest.out"), os.path.join(workdir, "selftest.err"))
    tally = Tally()
    tally.record("selftest", exit_problem(rec["rc"], rec["stderr"], (2,)))
    if rec["rc"] != 1 or tally.failed != 1:
        found.append(f"exit code {rec['rc']} with a traceback was not counted as failed")
    tally = Tally()
    tally.record("selftest", exit_problem(1, "", (0,)))
    if tally.failed != 1:
        found.append("a bare exit code 1 was not counted as failed")
    if exit_problem(2, "input error: ValueError: x", (2,)) is not None:
        found.append("an expected exit 2 was counted as failed")
    return found


if __name__ == "__main__":
    from common import WORK

    os.makedirs(WORK, exist_ok=True)
    found = problems(WORK)
    for line in found:
        print(f"FAIL {line}")
    print("selftest: ok" if not found else f"selftest: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
