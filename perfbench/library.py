"""The ``library`` workload: geodkit called in-process through its public functions.

One round solves four leveling networks and one plane network, fits the
three datum estimators on well-posed point sets and times the rejection of
a collinear 9-point set by ``bursa_wolf_direct``.  Before each step, and
after the last, it makes passes of scalar kernel calls, one point per
call, over a fixed set of points, so the scalar latencies sample the whole
round.  Imports are paid in set-up.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import gen
import oracles
import layers
from common import SRC, best_round, p50, p90, self_peak_rss_mb
from tracing import Tracer, geodkit_modules

LEVELING_SIZES = (250, 500, 1000, 2000)
DATUM_SIZES = (6, 10, 20)
SCALAR_POINTS = 100
SCALAR_PASSES = 5       # scalar passes before each step and after the last


def _import_geodkit() -> dict:
    """Import geodkit afresh, so every set-up pays the import."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "geodkit" or m.startswith("geodkit.")]:
        del sys.modules[name]
    return geodkit_modules()


class Library:
    name = "library"
    MIN_ROUNDS = 1

    def __init__(self, seed: int, workdir: str, speed):
        self.seed = seed
        self.speed = speed
        self.rounds = {False: [], True: []}   # traced? -> per-round records
        self.tracers: list[Tracer] = []

    def close(self) -> None:
        pass

    # -- set-up ----------------------------------------------------------------
    def setup(self) -> None:
        self.mods = _import_geodkit()
        rng = np.random.default_rng(self.seed)
        self.leveling = [gen.leveling_network(rng, n) for n in LEVELING_SIZES]
        self.plane = gen.plane_network(rng)
        self.bw_sets = [gen.bursa_wolf_pairs(rng, n) for n in DATUM_SIZES]
        self.helmert_sets = [gen.helmert_pairs(rng, n) for n in DATUM_SIZES]
        self.collinear = gen.collinear_pairs(rng)
        pts = gen.points(rng, SCALAR_POINTS)
        lines = gen.geodesic_lines(rng, SCALAR_POINTS)
        self.scalar_rows = list(zip(
            pts["phi"].tolist(), pts["lam"].tolist(), pts["he"].tolist(), lines["az"].tolist(),
            lines["s"].tolist(), rng.uniform(-20.0, 20.0, SCALAR_POINTS).tolist(),
            rng.uniform(0.0, 0.9, SCALAR_POINTS).tolist()))

    # -- one round -------------------------------------------------------------
    def run_round(self, tally, traced: bool) -> None:
        rec = {"slots": {}, "wall_slots": {}, "solve_s": {}, "fit_ms": {}, "reject_ms": [],
               "point_ms": [], "norm_point_ms": [], "scalar_s": 0.0, "scalar_calls": 0}
        tracer = Tracer(run_id=sum(len(r) for r in self.rounds.values()))
        if traced:
            tracer.instrument_library(self.mods)
        steps = [lambda i=i: self._leveling(tally, rec, i) for i in range(len(self.leveling))]
        steps += [lambda: self._plane(tally, rec), lambda: self._datum(tally, rec),
                  lambda: self._reject(tally, rec)]
        try:
            for step in steps + [None]:
                for _ in range(SCALAR_PASSES):
                    self._scalar(tally, rec)
                if step is not None:
                    step()
        finally:
            tracer.restore()
        rec["round_s"] = sum(rec["wall_slots"].values()) + sum(rec["solve_s"].values())
        self.rounds[traced].append(rec)
        if traced:
            self.tracers.append(tracer)

    def _timed(self, rec, slot: str, fn, *args):
        """(result, wall seconds); the slot keeps the wall and the normalized time."""
        result, wall, norm = self.speed.measure(fn, *args)
        rec["slots"][slot], rec["wall_slots"][slot] = norm, wall
        return result, wall

    @staticmethod
    def _solve(rec, label: str, net) -> None:
        """Wall time only: a solve stays out of round_s (see end_to_end)."""
        t0 = time.perf_counter()
        net.solve()
        rec["solve_s"][label] = time.perf_counter() - t0

    def _leveling(self, tally, rec, k: int) -> None:
        adjust = self.mods["adjust"]
        net_in = self.leveling[k]
        label = f"lev{net_in['n']}"
        net = adjust.Network()
        for i in range(net_in["n"]):
            net.add_point(f"P{i}", 0.0, 0.0, float(net_in["h"][0]) if i == 0 else 0.0, i == 0)
        for (i, j), dh, km in zip(net_in["edges"], net_in["dh"], net_in["dist_km"]):
            net.add_observation(adjust.Observation("leveling", f"P{i}", f"P{j}", float(dh),
                                                   dist_km=float(km)))
        try:
            self._solve(rec, label, net)
        except Exception as exc:  # a failed solve is counted, not fatal
            tally.record(label, f"{type(exc).__name__}: {exc}")
            return
        got = np.array([net.points[f"P{i}"].z0 for i in range(net_in["n"])])
        err = np.abs(got - net_in["h"])
        bad = err > oracles.leveling_tolerance(net_in["sigma"][: net_in["n"] - 1])
        tally.record(label, f"{int(bad.sum())} heights off by up to {err.max():.3e} m"
                     if bad.any() else None, silent=True)

    def _plane(self, tally, rec) -> None:
        adjust = self.mods["adjust"]
        p = self.plane
        net = adjust.Network()
        for k in range(p["n"]):
            net.add_point(f"Q{k}", float(p["approx"][k, 0]), float(p["approx"][k, 1]), 0.0,
                          k in p["fixed"])
        for (i, j), d in zip(p["edges"], p["dist"]):
            net.add_observation(adjust.Observation("distance2d", f"Q{i}", f"Q{j}", d,
                                                   sigma=p["sigma_d"]))
        for a, b, reading in p["directions"]:
            net.add_observation(adjust.Observation("direction", f"Q{a}", f"Q{b}", reading,
                                                   sigma=p["sigma_r"], set_id="1"))
        try:
            self._solve(rec, "plane", net)
        except Exception as exc:
            tally.record("plane", f"{type(exc).__name__}: {exc}")
            return
        got = np.array([[net.points[f"Q{k}"].x0, net.points[f"Q{k}"].y0] for k in range(p["n"])])
        # noise is 2 mm and 3e-6 rad on 1 km sides; the approximations start 0.3 m off
        tally.record("plane", oracles.close("plane coordinates", got, p["xy"], 0.05), silent=True)

    def _fit(self, tally, rec, label: str, fn, pairs, src, exact, tol, apply) -> None:
        try:
            res, dt = self._timed(rec, f"{label}:{len(pairs)}", fn, pairs)
        except Exception as exc:
            tally.record(label, f"{type(exc).__name__}: {exc}")
            return
        rec["fit_ms"].setdefault(label, []).append(dt * 1e3)
        tally.record(label, oracles.close(f"{label} n={len(pairs)}", apply(res, src), exact, tol),
                     silent=True)

    def _datum(self, tally, rec) -> None:
        datum = self.mods["datum"]
        ecef = self.mods["coords"].EcefCoord
        plane = self.mods["projections"].PlaneCoord

        def bw_apply(res, src):
            p = getattr(res, "params", res)
            return oracles.bursa_wolf_apply({"tx": p.tx, "ty": p.ty, "tz": p.tz, "m": p.m_scale,
                                             "rx": p.rx, "ry": p.ry, "rz": p.rz}, src)

        def helmert_apply(res, src):
            p = res.params
            return oracles.helmert2d_apply({"tx": p.tx, "ty": p.ty, "u": p.u, "v": p.v}, src)

        for bw in self.bw_sets:
            noisy = [(ecef(*a), ecef(*b)) for a, b in zip(bw["src"], bw["dst"])]
            exact = [(ecef(*a), ecef(*b)) for a, b in zip(bw["src"], bw["exact"])]
            self._fit(tally, rec, "bursa_wolf_estimate", datum.bursa_wolf_estimate, noisy,
                      bw["src"], bw["exact"], 6 * bw["sigma"], bw_apply)
            # the direct estimator fits three chords exactly, so it gets exact data;
            # the tolerance covers the first-order model's truncation
            self._fit(tally, rec, "bursa_wolf_direct", datum.bursa_wolf_direct, exact,
                      bw["src"], bw["exact"], 0.01, bw_apply)
        for hs in self.helmert_sets:
            pairs = [(plane(*a), plane(*b)) for a, b in zip(hs["src"], hs["dst"])]
            self._fit(tally, rec, "helmert2d_estimate", datum.helmert2d_estimate, pairs,
                      hs["src"], hs["exact"], 6 * hs["sigma"], helmert_apply)

    def _reject(self, tally, rec) -> None:
        datum = self.mods["datum"]
        ecef = self.mods["coords"].EcefCoord
        col = self.collinear
        pairs = [(ecef(*a), ecef(*b)) for a, b in zip(col["src"], col["dst"])]

        def attempt():
            try:
                datum.bursa_wolf_direct(pairs)
            except datum.SingularRotationSystem:
                return None
            except Exception as exc:
                return f"raised {type(exc).__name__}, not SingularRotationSystem"
            return "collinear set accepted"
        problem, dt = self._timed(rec, "reject", attempt)
        rec["reject_ms"].append(dt * 1e3)
        tally.record("collinear rejection", problem, silent=problem == "collinear set accepted")

    def _pass(self) -> tuple:
        """Nine kernel calls per point, looked up on their modules at each call."""
        m = self.mods
        core, coords, proj, geo, orbits = (m["core"], m["coords"], m["projections"],
                                           m["geodesics"], m["orbits"])
        grs80 = core.get_ellipsoid("grs80")
        clarke = core.get_ellipsoid("clarke-1880-fr")
        lambert = proj.named_projection("lambert-nord-tn")
        utm = proj.named_projection("utm:32", core.get_ellipsoid("wgs84"))
        coord = coords.GeodeticCoord
        latencies, out = [], []
        clock = time.perf_counter
        for phi, lam, he, az, s, mean_anomaly, e in self.scalar_rows:
            t0 = clock()
            g = coord(phi, lam, he)
            back = coords.ecef_to_geodetic(grs80, coords.geodetic_to_ecef(grs80, g))
            lam_back = proj.lambert_inverse(lambert, proj.lambert_forward(lambert, g))
            utm_back = proj.utm_inverse(utm, proj.utm_forward(utm, g))
            fwd = geo.geodesic_direct(clarke, g, az, s)
            inv = geo.geodesic_inverse(clarke, g, coord(fwd.phi2, fwd.lam2))
            big_e = orbits.solve_kepler(mean_anomaly, e)
            latencies.append(clock() - t0)
            out.append((back, lam_back, utm_back, inv, big_e))
        return latencies, out

    def _scalar(self, tally, rec) -> None:
        (latencies, out), wall, norm = self.speed.measure(self._pass)
        slot = f"scalar{len(rec['point_ms'])}"
        rec["slots"][slot], rec["wall_slots"][slot] = norm, wall
        rec["point_ms"].append([1e3 * t for t in latencies])
        rec["norm_point_ms"].append([1e3 * t * norm / wall for t in latencies])
        rec["scalar_s"] += wall
        rec["scalar_calls"] += 9 * len(latencies)
        for (phi, lam, he, az, s, mean_anomaly, e), (back, lam_back, utm_back, inv, big_e) \
                in zip(self.scalar_rows, out):
            problem = oracles.first_problem(
                oracles.close("ecef round trip", [back.phi, back.lam], [phi, lam],
                              oracles.TOL_RAD, angular=True),
                oracles.close("ecef height", back.he, he, oracles.TOL_HEIGHT_M),
                oracles.close("lambert round trip", [lam_back.phi, lam_back.lam], [phi, lam],
                              oracles.TOL_RAD, angular=True),
                oracles.close("utm round trip", [utm_back.phi, utm_back.lam], [phi, lam],
                              oracles.TOL_RAD, angular=True),
                oracles.close("geodesic s", inv.s, s, oracles.TOL_GEODESIC_S_M),
                oracles.close("geodesic az1", inv.az1, az, oracles.TOL_GEODESIC_AZ, angular=True),
                None if oracles.kepler_residual(mean_anomaly, e, big_e) < 1e-9
                else "kepler residual",
            )
            tally.record("scalar point", problem, silent=True)

    # -- metrics ---------------------------------------------------------------
    def _times(self, slots: str, points: str) -> dict:
        """Round and request figures; a request is one point through the nine kernels."""
        plain = self.rounds[False]
        ms = [t for r in plain for lat in r[points] for t in lat]
        return {"round_s": (best_round([r[slots] for r in plain]), "s"),
                "request_ms_p50": (p50(ms), "ms"), "request_ms_p90": (p90(ms), "ms")}

    def end_to_end(self) -> dict:
        """round_s leaves out the solves: OpenBLAS runs them on two threads, and
        on a shared 2-vCPU guest another tenant on the second CPU stretched the
        same round from 6 s to 17 s within minutes, which no single-thread
        probe sees.  Their wall times are the informational solve_s and the
        adjust.* layer metrics."""
        times = self._times("slots", "norm_point_ms")
        return {"round_s": times["round_s"], "request_ms_p50": times["request_ms_p50"],
                "peak_rss_mb": (self_peak_rss_mb(), "MB")}

    def informational(self) -> dict:
        plain = self.rounds[False] or self.rounds[True]
        fits = [ms for r in plain for v in r["fit_ms"].values() for ms in v]
        return {
            "request_ms_p90": self._times("slots", "norm_point_ms")["request_ms_p90"],
            **{f"wall_{k}": v for k, v in self._times("wall_slots", "point_ms").items()},
            "solve_s": (p50([sum(r["solve_s"].values()) for r in plain]), "s"),
            "datum_fit_ms": (p50(fits) if fits else 0.0, "ms"),
            "reject_ms": (p50([ms for r in plain for ms in r["reject_ms"]]), "ms"),
            "scalar_calls_per_s": (sum(r["scalar_calls"] for r in plain)
                                   / sum(r["scalar_s"] for r in plain), "1/s"),
            "scalar_points": (SCALAR_POINTS, "count"),
            "scalar_passes": (sum(len(r["point_ms"]) for r in self.rounds[False]), "count"),
        }

    def per_layer(self) -> dict:
        traced = self.rounds[True]
        rounds = len(traced)
        calls, values = {}, {}
        for tracer in self.tracers:
            for key, (n, ns) in tracer.calls.items():
                acc = calls.setdefault(key, [0, 0])
                acc[0] += n
                acc[1] += ns
            for key, v in tracer.values.items():
                values[key] = max(values.get(key, 0.0), v) if key == "adjust.weight_bytes" \
                    else values.get(key, 0.0) + v
        passes = sum(len(r["point_ms"]) for r in traced) / rounds
        out = layers.kernel_metrics(calls, rounds, SCALAR_POINTS * passes)
        for label in [f"lev{n}" for n in LEVELING_SIZES] + ["plane"]:
            times = [r["solve_s"][label] for r in traced if label in r["solve_s"]]
            out[f"adjust.solve_s.{label}"] = p50(times) if times else 0.0
        linear = sum(sum(t.span_durations("adjust.solve_linear")) for t in self.tracers)
        solves = sum(sum(t.span_durations("adjust.Network.solve")) for t in self.tracers)
        out["adjust.solve_linear_s"] = linear / rounds
        out["adjust.assemble_s"] = (solves - linear) / rounds
        out["adjust.iterations"] = (values.get("adjust.iterations", 0.0)
                                    / max(values.get("adjust.solves", 0.0), 1.0))
        out["adjust.weight_bytes"] = values.get("adjust.weight_bytes", 0.0)
        out["adjust.normal_flops"] = values.get("adjust.normal_flops", 0.0) / rounds
        for name in ("bursa_wolf_estimate", "helmert2d_estimate", "bursa_wolf_direct"):
            fits = [ms for r in traced for ms in r["fit_ms"].get(name, [])]
            out[f"datum.{name}_ms"] = p50(fits) if fits else 0.0
        out["datum.bursa_wolf_direct_reject_ms"] = p50([ms for r in traced
                                                        for ms in r["reject_ms"]])
        out["trace.overhead_s"] = (p50([r["round_s"] for r in traced])
                                   - p50([r["round_s"] for r in self.rounds[False]]))
        return out

    def spans(self) -> list:
        return [dict(zip(("name", "start", "end", "parent", "run"), s))
                for t in self.tracers for s in t.spans]
