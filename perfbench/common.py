"""Shared pieces of the benchmark: paths, statistics, run records, environment."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3


def child_env() -> dict:
    """Environment for CLI children: the checkout's sources first on the path.

    BLAS and OpenMP thread settings are inherited untouched (not pinned).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children start from cached bytecode, as installed
    return env


def run_child(argv: list, out_path: str, err_path: str) -> dict:
    """Run one child process to completion; stdout and stderr go to files.

    Returns the exit code, wall time from spawn to reaped exit, the child's
    own peak resident memory (from wait4) and its stderr text.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "r", errors="replace") as fh:
        stderr = fh.read()
    return {"rc": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss,
            "stderr": stderr, "t_spawn": t_spawn}


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


# On a shared virtual machine the CPU speed drifts by up to half over
# minutes, with other tenants' load.  Each timed operation is therefore
# bracketed by two probes, one just before and one just after: a fixed
# pure-Python loop.  A normalized time is the wall time scaled to the speed
# at which the probe takes PROBE_REF_S, about its duration on a quiet 2-vCPU
# Xeon KVM guest under CPython 3.11.  Wall times are reported alongside.
PROBE_REF_S = 0.002


def _spin() -> float:
    s = 0.0
    for i in range(20000):
        s += math.sin(i) * math.sqrt(i)
    return s


class Speed:
    """Times operations and normalizes them by the probes around each one."""

    def __init__(self):
        self.probes: list[float] = []
        self._probed_at = -math.inf

    def probe(self) -> float:
        """Median of three timings of the loop: the interpreter's current speed."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _spin()
            times.append(time.perf_counter() - t0)
        self.probes.append(statistics.median(times))
        self._probed_at = time.perf_counter()
        return self.probes[-1]

    def measure(self, fn, *args):
        """(result, wall seconds, normalized seconds) of fn(*args).

        The closing probe of one operation opens the next when it is less
        than half a second old.  An exception from fn propagates after the
        closing probe.
        """
        recent = time.perf_counter() - self._probed_at < 0.5
        before = self.probes[-1] if recent else self.probe()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            after = self.probe()
        return result, wall, wall * PROBE_REF_S / (0.5 * (before + after))


def best_round(rounds: list) -> float:
    """Sum over a round's operations of each one's best time over the rounds.

    Contention the probes do not see, such as another tenant on the second
    CPU while BLAS runs two threads, only ever adds time; the best of the
    repeats is the steadiest estimate of what the work itself costs.
    """
    best = {}
    for r in rounds:
        for slot, seconds in r.items():
            best[slot] = min(seconds, best.get(slot, seconds))
    return sum(best.values())


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations, plus silently wrong results.

    A failed operation is one whose check did not pass: a wrong exit code,
    a traceback, an unexpected exception or a wrong value.  ``wrong`` counts
    only the operations that reported success but returned a wrong value;
    it decides the ``correct`` flag of the result line.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def record(self, label: str, problem: str | None, silent: bool = False):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.wrong += int(silent)
            if len(self.failures) < 50:
                self.failures.append(f"{label}: {problem}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning a dict
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": False,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
