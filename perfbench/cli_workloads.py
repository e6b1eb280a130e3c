"""The two CLI workloads: one fresh ``python -m geodkit.cli`` process per command.

``cli-bulk`` streams generated 100k-row CSV files through convert, project
and geodesic, each forward command followed by its inverse on the forward
output.  ``cli-small`` fires short invocations (1-10 rows) over every
subcommand, a fixed share of them with malformed input.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

import gen
import oracles
import layers
from common import ROOT, best_round, p50, p90, run_child
from oracles import GRAD
from tracing import parse_importtime

SHIM = os.path.join(ROOT, "perfbench", "traced_cli.py")
LAUNCHER = os.path.join(ROOT, "perfbench", "launcher.py")
BULK_ROWS = 100_000


def _fmt(x) -> str:
    return repr(float(x))


def write_csv(path: str, header: str, columns: list) -> None:
    """Rows named P0, P1, ...; values written with repr, so they read back exactly."""
    names = [f"P{i}" for i in range(len(columns[0]))]
    cols = [[_fmt(v) for v in col] for col in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(",".join(row) for row in zip(names, *cols)) + "\n")


def exit_problem(rc: int, stderr: str, expect) -> str | None:
    """The CLI's documented exit codes: 0, 2 or 3, never a traceback."""
    if "Traceback (most recent call last)" in stderr:
        return f"traceback on stderr (exit {rc})"
    if rc not in (0, 2, 3):
        return f"exit {rc} outside {{0, 2, 3}}"
    if rc not in expect:
        return f"exit {rc}, expected {sorted(expect)}"
    return None


class CliSession:
    """Runs CLI children, times them and checks them; collects traced stats."""

    def __init__(self, workdir: str, speed):
        self.workdir = workdir
        self.speed = speed
        self.tally = None
        self.traced = False
        self.round_walls: dict = {}          # label -> (wall, normalized), current round
        self.walls: list[tuple] = []         # (wall, normalized) of every untraced invocation
        self.rss_kb = 0
        self.stats: list[dict] = []          # traced children's stats files
        self.count = 0
        self.prefix = ""                     # names the input block in labels
        self._launcher = None

    def spawn(self, argv: list, out: str, err: str) -> dict:
        """run_child through the launcher process, so RSS figures are the child's own."""
        if self._launcher is None:
            self._launcher = subprocess.Popen([sys.executable, LAUNCHER], cwd=ROOT, text=True,
                                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._launcher.stdin.write(json.dumps({"argv": argv, "out": out, "err": err}) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        return json.loads(reply)

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait()
            self._launcher.stdout.close()
            self._launcher = None

    def invoke(self, label: str, args: list, expect=(0,), check=None, error_class=None):
        """Run one command; returns the stdout path when it succeeded and checked out.

        error_class: the exception class name a rejection must report on stderr.
        """
        label = self.prefix + label
        self.count += 1
        out = os.path.join(self.workdir, f"out{self.count % 2}.txt")
        err = os.path.join(self.workdir, "err.txt")
        if self.traced:
            stats = os.path.join(self.workdir, "stats.json")
            argv = [sys.executable, "-X", "importtime", SHIM, stats, str(self.count), "--", *args]
        else:
            argv = [sys.executable, "-m", "geodkit.cli", *args]
        rec, wall, norm = self.speed.measure(self.spawn, argv, out, err)
        timing = (rec["wall_s"], rec["wall_s"] * norm / wall)
        stderr = rec["stderr"]
        if self.traced:
            numpy_ms, geodkit_ms, stderr = parse_importtime(stderr)
            try:
                with open(stats) as fh:
                    doc = json.load(fh)
                os.remove(stats)
            except (OSError, ValueError):
                doc = {"spans": [], "calls": {}, "values": {}, "t_start": rec["t_spawn"]}
            doc.update(import_numpy_ms=numpy_ms, import_geodkit_ms=geodkit_ms,
                       interpreter_ms=(doc["t_start"] - rec["t_spawn"]) * 1e3)
            self.stats.append(doc)
        else:
            self.walls.append(timing)
            self.rss_kb = max(self.rss_kb, rec["rss_kb"])
        self.round_walls[label] = timing
        problem = exit_problem(rec["rc"], stderr, expect)
        if problem is None and error_class and error_class not in stderr:
            problem = f"stderr does not name {error_class}"
        # exit 0 with a wrong result, or with bad input accepted, is a silent failure
        silent = problem is not None and rec["rc"] == 0
        if problem is None and rec["rc"] == 0 and check is not None:
            try:
                problem = check(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            silent = problem is not None
        self.tally.record(label, problem, silent=silent)
        return out if problem is None and rec["rc"] == 0 else None


class CliWorkload:
    """Round bookkeeping and metrics shared by the two CLI workloads."""

    def __init__(self, seed: int, workdir: str, speed):
        self.seed = seed
        self.workdir = workdir
        self.speed = speed
        self.session = CliSession(workdir, speed)
        self.rounds = {False: [], True: []}   # traced? -> {label: (wall, normalized)}

    def warm_up(self) -> None:
        """One --version call, which also compiles the sources' bytecode."""
        warm = run_child([sys.executable, "-m", "geodkit.cli", "--version"],
                         os.path.join(self.workdir, "warm.out"),
                         os.path.join(self.workdir, "warm.err"))
        if warm["rc"] != 0:
            raise RuntimeError(f"geodkit CLI does not start: {warm['stderr'][-500:]}")

    def close(self) -> None:
        self.session.close()

    def run_round(self, tally, traced: bool) -> None:
        cli = self.session
        cli.tally, cli.traced, cli.round_walls = tally, traced, {}
        self._round(cli)
        self.rounds[traced].append(dict(cli.round_walls))

    def _request_ms(self, which: int) -> list:
        """The request samples: every untraced invocation."""
        return [t[which] * 1e3 for t in self.session.walls]

    def _times(self, which: int) -> dict:
        """Round and request figures from wall (0) or normalized (1) times."""
        ms = self._request_ms(which)
        rounds = [{k: t[which] for k, t in r.items()} for r in self.rounds[False]]
        return {"round_s": (best_round(rounds), "s"),
                "request_ms_p50": (p50(ms), "ms"), "request_ms_p90": (p90(ms), "ms")}

    def end_to_end(self) -> dict:
        times = self._times(1)
        return {"round_s": times["round_s"], "request_ms_p50": times["request_ms_p50"],
                "peak_rss_mb": (self.session.rss_kb / 1024.0, "MB")}

    def informational(self) -> dict:
        return {"request_ms_p90": self._times(1)["request_ms_p90"],
                **{f"wall_{k}": v for k, v in self._times(0).items()},
                "invocations": (len(self.session.walls), "count")}

    def per_layer(self) -> dict:
        out = layers.cli_metrics(self.session.stats, len(self.rounds[True]))
        out["trace.overhead_s"] = (p50([sum(t[0] for t in r.values()) for r in self.rounds[True]])
                                   - p50([sum(t[0] for t in r.values())
                                          for r in self.rounds[False]]))
        return out

    def spans(self) -> list:
        return [s for doc in self.session.stats for s in doc["spans"]]


def _angles(table, cols):
    return [table[:, c] * GRAD for c in cols]


# -- cli-bulk ------------------------------------------------------------------
class CliBulk(CliWorkload):
    """Eight commands per round, each timed at its best over at least two rounds."""

    name = "cli-bulk"
    COMMANDS = 8
    MIN_ROUNDS = 2

    def _request_ms(self, which: int) -> list:
        """One sample per command, its best over the rounds, as round_s takes it.

        Eight commands of 1-3 s each are too few for the median of single
        timings to hold still under the host's drifting speed.
        """
        best = {}
        for r in self.rounds[False]:
            for label, t in r.items():
                best[label] = min(t[which] * 1e3, best.get(label, math.inf))
        return list(best.values())

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pts = gen.points(rng, BULK_ROWS)
        self.lines = gen.geodesic_lines(rng, BULK_ROWS)
        self.geo = os.path.join(self.workdir, "geo.csv")
        write_csv(self.geo, "name,phi[gr],lam[gr],he[m]",
                  [self.pts["phi"] / GRAD, self.pts["lam"] / GRAD, self.pts["he"]])
        self.geo2 = os.path.join(self.workdir, "geo2.csv")
        write_csv(self.geo2, "name,phi[gr],lam[gr]", [self.pts["phi"] / GRAD, self.pts["lam"] / GRAD])
        self.geod = os.path.join(self.workdir, "geod.csv")
        write_csv(self.geod, "name,phi[gr],lam[gr],az[gr],s[m]",
                  [self.lines["phi"] / GRAD, self.lines["lam"] / GRAD,
                   self.lines["az"] / GRAD, self.lines["s"]])
        self.warm_up()

    OUTPUTS = ("ecef.csv", "geo_back.csv", "lambert.csv", "lambert_back.csv", "utm.csv",
               "utm_back.csv", "gd.csv", "gi.csv", "gi_out.csv")

    def _round(self, cli: CliSession) -> None:
        w = self.workdir
        pts, lines = self.pts, self.lines
        for name in self.OUTPUTS:  # no check may pass on an earlier round's file
            if os.path.exists(os.path.join(w, name)):
                os.remove(os.path.join(w, name))
        truth_geo = [pts["phi"], pts["lam"]]

        def path(name):
            return os.path.join(w, name)

        def geo_back_check(out_file, ncols, with_height):
            t = oracles.read_table(out_file, ncols)
            return oracles.first_problem(
                oracles.close("round trip", _angles(t, (0, 1)), truth_geo,
                              oracles.TOL_RAD, angular=True),
                oracles.close("height", t[:, 2], pts["he"], oracles.TOL_HEIGHT_M)
                if with_height else None)

        ecef_truth = oracles.geodetic_to_ecef("grs80", pts["phi"], pts["lam"], pts["he"])
        cli.invoke("convert geodetic->ecef",
                   ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "grs80",
                    "-i", self.geo, "-o", path("ecef.csv")],
                   check=lambda _: oracles.close("ecef", oracles.read_table(path("ecef.csv"), 4),
                                                 ecef_truth, oracles.TOL_ECEF_M))
        cli.invoke("convert ecef->geodetic",
                   ["convert", "--from", "ecef", "--to", "geodetic", "--ell", "grs80",
                    "-i", path("ecef.csv"), "-o", path("geo_back.csv")],
                   check=lambda _: geo_back_check(path("geo_back.csv"), 4, True))
        for proj, extra in (("lambert-nord-tn", []), ("utm:32", ["--ell", "wgs84"])):
            tag = proj.split(":")[0]
            cli.invoke(f"project fwd {proj}",
                       ["project", "fwd", "--proj", proj, *extra, "-i", self.geo2,
                        "-o", path(f"{tag}.csv")],
                       check=lambda _, t=tag: oracles.finite_rows(
                           oracles.read_table(path(f"{t}.csv"), 3), BULK_ROWS))
            cli.invoke(f"project inv {proj}",
                       ["project", "inv", "--proj", proj, *extra, "-i", path(f"{tag}.csv"),
                        "-o", path(f"{tag}_back.csv")],
                       check=lambda _, t=tag: geo_back_check(path(f"{t}_back.csv"), 3, False))

        direct = cli.invoke("geodesic direct",
                            ["geodesic", "direct", "-i", self.geod, "-o", path("gd.csv")],
                            check=lambda _: oracles.close(
                                "geodesic s", oracles.read_table(path("gd.csv"), 5)[:, 3],
                                lines["s"], oracles.TOL_GEODESIC_S_M))
        # the inverse problem joins each start point to the direct solution's end point
        try:
            with open(path("gd.csv")) as fh:
                ends = [line.split(",")[1:3] for line in fh.read().splitlines()[1:]]
            if len(ends) != BULK_ROWS:
                raise ValueError("direct output has the wrong row count")
        except (OSError, ValueError):
            ends = None
        if direct is None or ends is None:
            cli.tally.record("geodesic inverse", "no direct solution to invert")
            return
        with open(path("gi.csv"), "w") as fh:
            fh.write("name,phi1[gr],lam1[gr],phi2[gr],lam2[gr]\n")
            fh.write("\n".join(f"P{i},{_fmt(a)},{_fmt(b)},{e[0]},{e[1]}" for i, (a, b, e) in
                               enumerate(zip(lines["phi"] / GRAD, lines["lam"] / GRAD, ends)))
                     + "\n")

        def inverse_check(_):
            t = oracles.read_table(path("gi_out.csv"), 4)
            return oracles.first_problem(
                oracles.close("geodesic s", t[:, 2], lines["s"], oracles.TOL_GEODESIC_S_M),
                oracles.close("geodesic az1", t[:, 0] * GRAD, lines["az"],
                              oracles.TOL_GEODESIC_AZ, angular=True))
        cli.invoke("geodesic inverse",
                   ["geodesic", "inverse", "-i", path("gi.csv"), "-o", path("gi_out.csv")],
                   check=inverse_check)

    def informational(self) -> dict:
        rows = self.COMMANDS * BULK_ROWS * len(self.rounds[False])
        return {**super().informational(),
                "rows_per_s": (rows / sum(t[0] for t in self.session.walls), "1/s")}


# -- cli-small -----------------------------------------------------------------
def _hms(hours: float) -> str:
    """Hours as 'XhYmZ.ZZZZs', with minutes and seconds below 60."""
    h, rest = divmod(round(hours * 36_000_000), 36_000_000)
    m, rest = divmod(rest, 600_000)
    return f"{h}h{m}m{rest / 10_000:.4f}s"


class CliSmall(CliWorkload):
    """Two blocks of 22 invocations per round, each covering every subcommand once.

    Block A carries its short row to ``project inv``, block B carries it to
    ``convert``.  Both carry a polar-axis point, an unknown ellipsoid and a
    non-numeric field: 4 malformed invocations in 22.  A round runs both
    blocks, so the mix of invocations, and with it the share that fails,
    is the same whatever number of rounds fits in a run.
    """

    name = "cli-small"
    BLOCKS = ("A", "B")
    MIN_ROUNDS = 3  # at least 100 invocations

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.blocks = [self._make_block(rng, tag) for tag in self.BLOCKS]
        self.warm_up()

    def _make_block(self, rng, tag: str) -> dict:
        d = os.path.join(self.workdir, tag)
        os.makedirs(d, exist_ok=True)

        def n_rows():
            return int(rng.integers(1, 11))

        def f(name):
            return os.path.join(d, name)

        b = {"dir": d, "tag": tag}
        b["pts"] = gen.points(rng, n_rows())
        p = b["pts"]
        write_csv(f("geo.csv"), "name,phi[gr],lam[gr],he[m]",
                  [p["phi"] / GRAD, p["lam"] / GRAD, p["he"]])
        write_csv(f("geo2.csv"), "name,phi[gr],lam[gr]", [p["phi"] / GRAD, p["lam"] / GRAD])
        b["lines"] = gen.geodesic_lines(rng, n_rows())
        ln = b["lines"]
        write_csv(f("geod.csv"), "name,phi[gr],lam[gr],az[gr],s[m]",
                  [ln["phi"] / GRAD, ln["lam"] / GRAD, ln["az"] / GRAD, ln["s"]])
        n = n_rows()
        dp = rng.uniform(500.0, 30000.0, n)
        ha = rng.uniform(1500.0, 3000.0, n)
        hb = ha + rng.uniform(-1.0, 1.0, n) * np.minimum(0.2 * dp, 1500.0)
        gen.require(bool(np.all(dp > 1.2 * np.abs(hb - ha))), "slope shorter than its rise")
        b["reduce"] = {"dp": dp, "ha": ha, "hb": hb, "scale": 1.0 + rng.normal(0, 2e-4)}
        r = b["reduce"]
        write_csv(f("reduce.csv"), "name,dp,ha,hb", [r["dp"], r["ha"], r["hb"]])

        bw = gen.bursa_wolf_pairs(rng, int(rng.integers(5, 11)))
        b["bw"] = bw
        write_csv(f("pairs.csv"), "name,x1,y1,z1,x2,y2,z2",
                  [*bw["src"].T, *bw["dst"].T])
        write_csv(f("src.csv"), "name,x[m],y[m],z[m]", list(bw["src"].T))
        with open(f("params.json"), "w") as fh:
            json.dump({**bw["truth"], "units": "rad"}, fh)
        hs = gen.helmert_pairs(rng, int(rng.integers(3, 11)))
        b["helmert"] = hs
        write_csv(f("hpairs.csv"), "name,e1,n1,e2,n2", [*hs["src"].T, *hs["dst"].T])

        lev = gen.leveling_network(rng, int(rng.integers(5, 10)))
        b["lev"] = lev
        with open(f("points.csv"), "w") as fh:
            fh.write("name,x0,y0,z0,fixed\n")
            fh.write(f"P0,0,0,{_fmt(lev['h'][0])},true\n")
            fh.write("".join(f"P{i},0,0,0,false\n" for i in range(1, lev["n"])))
        with open(f("obs.csv"), "w") as fh:
            fh.write("kind,from,to,value,sigma,set_id,dist_km\n")
            for (i, j), dh, km in zip(lev["edges"], lev["dh"], lev["dist_km"]):
                fh.write(f"leveling,P{i},P{j},{_fmt(dh)},,,{_fmt(km)}\n")

        el = {"a": float(rng.uniform(7.0e6, 4.2e7)), "e": float(rng.uniform(0.0, 0.3)),
              "i": float(rng.uniform(0.0, math.pi)), "raan": float(rng.uniform(0, 2 * math.pi)),
              "arg_perigee": float(rng.uniform(0, 2 * math.pi))}
        b["orbit"] = {"el": el, "epochs": np.round(rng.uniform(0, 86400.0, n_rows()), 3)}
        with open(f("elements.json"), "w") as fh:
            json.dump(el, fh)

        phi_r, lam_r = math.radians(rng.uniform(33, 37)), math.radians(rng.uniform(8, 11))
        recv = oracles.geodetic_to_ecef("wgs84", phi_r, lam_r, 0.0)
        k = int(rng.integers(5, 11))
        el_ang = np.radians(rng.uniform(15, 85, k))
        az = (np.arange(k) + rng.uniform(0.0, 0.5, k)) * (2.0 * math.pi / k)  # all around
        enu = np.stack([np.cos(el_ang) * np.sin(az), np.cos(el_ang) * np.cos(az),
                        np.sin(el_ang)], axis=-1)
        sats = recv + 2.0e7 * enu @ oracles.enu_rotation(phi_r, lam_r)
        b["dop"] = {"phi": phi_r, "lam": lam_r, "recv": recv, "sats": sats}
        gdop = oracles.dop(recv, phi_r, lam_r, sats)["gdop"]
        gen.require(gdop < 100.0, f"constellation too weak (GDOP {gdop:.1f})")
        write_csv(f("sats.csv"), "name,x,y,z", list(sats.T))

        n = n_rows()
        b["heights"] = {"g": rng.uniform(979.0, 980.5, n), "dh": rng.uniform(-5.0, 5.0, n),
                        "phi_start": rng.uniform(35, 42), "phi_end": rng.uniform(35, 42),
                        "h_mean": rng.uniform(0, 2000)}
        h = b["heights"]
        write_csv(f("line.csv"), "station,g_gal,dh_m", [h["g"], h["dh"]])
        b["astro"] = {"hsl": rng.uniform(0, 24), "alpha": rng.uniform(0, 24)}

        # malformed inputs, each among valid rows
        if tag == "A":
            with open(f("short.csv"), "w") as fh:
                fh.write("name,e[m],n[m]\nP0,500100.5,300200.25\nP1,500123.4\n")
            b["short"] = ["project", "inv", "-i", f("short.csv")]
        else:
            with open(f("short.csv"), "w") as fh:
                fh.write("name,phi[gr],lam[gr],he[m]\nP0,40.1,10.2,5\nP1,40.1\n")
            b["short"] = ["convert", "--from", "geodetic", "--to", "ecef", "-i", f("short.csv")]
        with open(f("polar.csv"), "w") as fh:
            fh.write("name,x,y,z\nP0,4000000,800000,4900000\n"
                     f"P1,0,0,{_fmt(rng.uniform(6.3e6, 6.4e6))}\n")
        with open(f("nonnum.csv"), "w") as fh:
            fh.write(f"name,phi[gr],lam[gr],he[m]\nP0,40.1,10.2,5\nP1,40.{n},abc,0\n")
        b["bad_ell"] = "ell-" + "".join(rng.choice(list("abcdefghij"), 6))
        return b

    def informational(self) -> dict:
        wall = self._times(0)
        return {**super().informational(),
                "invocation_ms_p50": wall["request_ms_p50"],
                "invocation_ms_p90": wall["request_ms_p90"]}

    def _round(self, cli: CliSession) -> None:
        for b in self.blocks:
            cli.prefix = f"{b['tag']}: "
            self._block(cli, b)
        cli.prefix = ""

    def _block(self, cli: CliSession, b: dict) -> None:
        d = b["dir"]

        def f(name):
            return os.path.join(d, name)

        p, ln = b["pts"], b["lines"]
        truth_geo = [p["phi"], p["lam"]]

        def geo_back(out, ncols, height):
            t = oracles.read_table(out, ncols)
            return oracles.first_problem(
                oracles.close("round trip", _angles(t, (0, 1)), truth_geo,
                              oracles.TOL_RAD, angular=True),
                oracles.close("height", t[:, 2], p["he"], oracles.TOL_HEIGHT_M) if height else None)

        ecef_truth = oracles.geodetic_to_ecef("grs80", p["phi"], p["lam"], p["he"])
        out = cli.invoke("convert geodetic->ecef",
                         ["convert", "--from", "geodetic", "--to", "ecef", "--ell", "grs80",
                          "-i", f("geo.csv")],
                         check=lambda o: oracles.close("ecef", oracles.read_table(o, 4),
                                                       ecef_truth, oracles.TOL_ECEF_M))
        self._copy(out, f("ecef.csv"))
        cli.invoke("convert ecef->geodetic",
                   ["convert", "--from", "ecef", "--to", "geodetic", "--ell", "grs80",
                    "-i", f("ecef.csv")], check=lambda o: geo_back(o, 4, True))
        for proj, extra in (("lambert-nord-tn", []), ("utm:32", ["--ell", "wgs84"])):
            out = cli.invoke(f"project fwd {proj}",
                             ["project", "fwd", "--proj", proj, *extra, "-i", f("geo2.csv")],
                             check=lambda o: oracles.finite_rows(oracles.read_table(o, 3),
                                                                 len(p["phi"])))
            self._copy(out, f("plane.csv"))
            cli.invoke(f"project inv {proj}",
                       ["project", "inv", "--proj", proj, *extra, "-i", f("plane.csv")],
                       check=lambda o: geo_back(o, 3, False))

        out = cli.invoke("geodesic direct", ["geodesic", "direct", "-i", f("geod.csv")],
                         check=lambda o: oracles.close("s", oracles.read_table(o, 5)[:, 3],
                                                       ln["s"], oracles.TOL_GEODESIC_S_M))
        ends = []
        if out is not None:
            with open(out) as fh:
                ends = [line.split(",")[1:3] for line in fh.read().splitlines()[1:]]
        with open(f("gi.csv"), "w") as fh:
            fh.write("name,phi1[gr],lam1[gr],phi2[gr],lam2[gr]\n")
            fh.write("".join(f"P{i},{_fmt(a)},{_fmt(c)},{e[0]},{e[1]}\n" for i, (a, c, e) in
                             enumerate(zip(ln["phi"] / GRAD, ln["lam"] / GRAD, ends))))
        cli.invoke("geodesic inverse", ["geodesic", "inverse", "-i", f("gi.csv")],
                   check=lambda o: oracles.first_problem(
                       oracles.close("s", oracles.read_table(o, 4)[:, 2], ln["s"],
                                     oracles.TOL_GEODESIC_S_M),
                       oracles.close("az1", oracles.read_table(o, 4)[:, 0] * GRAD, ln["az"],
                                     oracles.TOL_GEODESIC_AZ, angular=True)))

        r = b["reduce"]
        de = oracles.reduce_rigorous(r["dp"], r["ha"], r["hb"])
        cli.invoke("reduce", ["reduce", "--rigorous", "--scale", _fmt(r["scale"]),
                              "-i", f("reduce.csv")],
                   check=lambda o: oracles.close("de, dr", oracles.read_table(o, 3),
                                                 np.stack([de, r["scale"] * de], axis=-1), 1e-6))

        bw = b["bw"]

        def bw_fit(o):
            with open(o) as fh:
                doc = json.load(fh)
            return oracles.close("bw-fit", oracles.bursa_wolf_apply(doc, bw["src"]),
                                 bw["exact"], 6 * bw["sigma"])
        cli.invoke("datum bw-fit", ["datum", "bw-fit", "-i", f("pairs.csv")], check=bw_fit)
        cli.invoke("datum bw-apply", ["datum", "bw-apply", "--params", f("params.json"),
                                      "-i", f("src.csv")],
                   check=lambda o: oracles.close("bw-apply", oracles.read_table(o, 4),
                                                 bw["exact"], oracles.TOL_ECEF_M))
        hs = b["helmert"]

        def helmert_fit(o):
            with open(o) as fh:
                doc = json.load(fh)
            return oracles.close("helmert2d-fit", oracles.helmert2d_apply(doc, hs["src"]),
                                 hs["exact"], 6 * hs["sigma"])
        cli.invoke("datum helmert2d-fit", ["datum", "helmert2d-fit", "-i", f("hpairs.csv")],
                   check=helmert_fit)

        lev = b["lev"]

        def adjust_check(o):
            with open(o) as fh:
                doc = json.load(fh)
            got = [doc["points"][f"P{i}"]["z"] for i in range(lev["n"])]
            tol = oracles.leveling_tolerance(lev["sigma"][: lev["n"] - 1])
            err = np.abs(np.array(got) - lev["h"])
            return f"height off by {err.max():.3e} m" if np.any(err > tol) else None
        cli.invoke("adjust", ["adjust", "--obs", f("obs.csv"), "--points", f("points.csv")],
                   check=adjust_check)

        orb = b["orbit"]
        cli.invoke("orbit", ["orbit", "--elements", f("elements.json"),
                             "--epochs", ",".join(_fmt(t) for t in orb["epochs"])],
                   check=lambda o: oracles.close(
                       "orbit", oracles.read_table(o, 4),
                       oracles.orbit_eci(orb["el"], orb["epochs"]), 1e-2))

        dp = b["dop"]

        def dop_check(o):
            with open(o) as fh:
                doc = json.load(fh)
            want = oracles.dop(dp["recv"], dp["phi"], dp["lam"], dp["sats"])
            return oracles.close("dop", [doc[k] for k in sorted(want)],
                                 [want[k] for k in sorted(want)], 1e-7)
        cli.invoke("dop", ["dop", "--receiver",
                           f"{_fmt(math.degrees(dp['phi']))},{_fmt(math.degrees(dp['lam']))},0",
                           "--angle-unit", "deg", "--ell", "wgs84", "-i", f("sats.csv")],
                   check=dop_check)

        h = b["heights"]

        def single(o):
            with open(o) as fh:
                return float(fh.read().strip())
        ortho = oracles.orthometric(h["dh"], h["phi_start"] * GRAD, h["phi_end"] * GRAD,
                                    h["h_mean"])
        cli.invoke("heights ortho", ["heights", "ortho", "--phi-start", _fmt(h["phi_start"]),
                                     "--phi-end", _fmt(h["phi_end"]), "--h-mean",
                                     _fmt(h["h_mean"]), "-i", f("line.csv")],
                   check=lambda o: oracles.close("ortho", single(o), ortho, 1e-8))
        dyn = oracles.dynamic(h["g"], h["dh"])
        cli.invoke("heights dynamic", ["heights", "dynamic", "-i", f("line.csv")],
                   check=lambda o: oracles.close("dynamic", single(o), dyn, 1e-8))

        a = b["astro"]
        hsl, alpha = _hms(a["hsl"]), _hms(a["alpha"])
        want = (_parse_hms(hsl) - _parse_hms(alpha)) % 24.0
        cli.invoke("astro hour-angle", ["astro", "hour-angle", "--hsl", hsl, "--alpha", alpha],
                   check=lambda o: oracles.close("hour angle", single(o), want, 1e-9))

        cli.invoke("malformed: short row", b["short"], expect=(2,))
        cli.invoke("malformed: polar axis", ["convert", "--from", "ecef", "--to", "geodetic",
                                             "-i", f("polar.csv")], expect=(3,),
                   error_class="PolarAxis")
        cli.invoke("malformed: unknown ellipsoid",
                   ["geodesic", "direct", "--ell", b["bad_ell"], "-i", f("geod.csv")], expect=(2,))
        cli.invoke("malformed: non-numeric field",
                   ["convert", "--from", "geodetic", "--to", "ecef", "-i", f("nonnum.csv")],
                   expect=(2,))

    @staticmethod
    def _copy(src, dst) -> None:
        """Feed a forward output to its inverse; a missing one becomes an empty input."""
        text = ""
        if src is not None:
            with open(src) as fh:
                text = fh.read()
        with open(dst, "w") as fh:
            fh.write(text)


def _parse_hms(text: str) -> float:
    h, rest = text.split("h")
    m, rest = rest.split("m")
    return int(h) + int(m) / 60.0 + float(rest.rstrip("s")) / 3600.0
