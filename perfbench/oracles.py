"""Checks that do not depend on geodkit's code path.

Each check returns None when the result is right and a short description of
the problem otherwise.  The reference formulas are written here in numpy
from their textbook definitions; none of them calls geodkit.
"""

from __future__ import annotations

import math

import numpy as np

GRAD = math.pi / 200.0
TWO_PI = 2.0 * math.pi

# (a, f) of the ellipsoids the workloads use, from their defining constants
ELLIPSOIDS = {
    "grs80": (6378137.0, 1.0 / 298.257222101),
    "wgs84": (6378137.0, 1.0 / 298.257223563),
    "clarke-1880-fr": (6378249.2, (6378249.2 - 6356515.0) / 6378249.2),
}

# Tolerances: README figures where it gives one, widened only by the
# rounding of 12 significant digits in the CLI's CSV output.
TOL_RAD = 1e-9          # projection and ECEF round trips (README)
TOL_ECEF_M = 1e-3       # 12 digits of a 6.4e6 m coordinate carry 1e-5 m
TOL_HEIGHT_M = 1e-3
TOL_GEODESIC_S_M = 1e-3  # README: direct and inverse agree to sub-millimetre
TOL_GEODESIC_AZ = 1e-7   # 1e-5 m endpoint rounding over lines of >= 1 km


def geodetic_to_ecef(ell: str, phi, lam, he):
    a, f = ELLIPSOIDS[ell]
    e2 = f * (2.0 - f)
    n = a / np.sqrt(1.0 - e2 * np.sin(phi) ** 2)
    return np.stack([(n + he) * np.cos(phi) * np.cos(lam),
                     (n + he) * np.cos(phi) * np.sin(lam),
                     (n * (1.0 - e2) + he) * np.sin(phi)], axis=-1)


def angle_diff(a, b):
    """|a - b| on the circle, radians."""
    return np.abs((np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi)


def read_table(path: str, ncols: int) -> np.ndarray:
    """Numeric columns 1..ncols-1 of a CSV with a header and a name column.

    Raises ValueError on a short, long or non-numeric row.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"row width differs from {ncols}")
    return np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), ncols - 1)


def close(label: str, got, want, tol: float, angular: bool = False):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{label}: shape {got.shape} != {want.shape}"
    if not np.all(np.isfinite(got)):
        return f"{label}: non-finite value"
    diff = angle_diff(got, want) if angular else np.abs(got - want)
    worst = float(diff.max()) if diff.size else 0.0
    if worst > tol:
        return f"{label}: max deviation {worst:.3e} > {tol:.1e}"
    return None


def finite_rows(table, n: int):
    if table.shape[0] != n:
        return f"{table.shape[0]} rows, expected {n}"
    if not np.all(np.isfinite(table)):
        return "non-finite value"
    return None


def first_problem(*problems):
    return next((p for p in problems if p is not None), None)


def bursa_wolf_apply(params: dict, xyz):
    """X2 = T + (1 + m) R X1 with the small-angle rotation matrix."""
    rx, ry, rz = params["rx"], params["ry"], params["rz"]
    rot = np.array([[1.0, rz, -ry], [-rz, 1.0, rx], [ry, -rx, 1.0]])
    t = np.array([params["tx"], params["ty"], params["tz"]])
    return t + (1.0 + params["m"]) * (np.asarray(xyz) @ rot.T)


def helmert2d_apply(params: dict, en):
    en = np.asarray(en)
    u, v = params["u"], params["v"]
    return np.stack([params["tx"] + u * en[:, 0] - v * en[:, 1],
                     params["ty"] + v * en[:, 0] + u * en[:, 1]], axis=-1)


def kepler_residual(mean_anomaly, e, big_e):
    return abs(big_e - e * math.sin(big_e) - mean_anomaly)


def orbit_eci(el: dict, t):
    """Two-body position by Newton on Kepler's equation, perifocal -> inertial."""
    t = np.asarray(t, dtype=float)
    n = math.sqrt(el.get("mu", 3.986005e14) / el["a"] ** 3)
    m = n * (t - el.get("t0", 0.0))
    e = el["e"]
    big_e = m + e * np.sin(m)
    for _ in range(60):
        big_e = big_e - (big_e - e * np.sin(big_e) - m) / (1.0 - e * np.cos(big_e))
    xi = el["a"] * (np.cos(big_e) - e)
    eta = el["a"] * math.sqrt(1.0 - e * e) * np.sin(big_e)
    co, so = math.cos(el["arg_perigee"]), math.sin(el["arg_perigee"])
    cr, sr = math.cos(el["raan"]), math.sin(el["raan"])
    ci, si = math.cos(el["i"]), math.sin(el["i"])
    p = np.array([cr * co - sr * so * ci, sr * co + cr * so * ci, so * si])
    q = np.array([-cr * so - sr * co * ci, -sr * so + cr * co * ci, co * si])
    return np.outer(xi, p) + np.outer(eta, q)


def enu_rotation(phi: float, lam: float) -> np.ndarray:
    """Rows: east, north, up unit vectors in ECEF."""
    sp, cp, sl, cl = math.sin(phi), math.cos(phi), math.sin(lam), math.cos(lam)
    return np.array([[-sl, cl, 0.0], [-sp * cl, -sp * sl, cp], [cp * cl, cp * sl, sp]])


def dop(receiver_xyz, phi, lam, sats) -> dict:
    los = np.asarray(sats) - receiver_xyz
    los /= np.linalg.norm(los, axis=1)[:, None]
    g = np.hstack([-los, np.ones((len(los), 1))])
    q = np.linalg.inv(g.T @ g)
    rot = enu_rotation(phi, lam)
    ql = rot @ q[:3, :3] @ rot.T
    return {"gdop": math.sqrt(np.trace(q)), "pdop": math.sqrt(np.trace(q[:3, :3])),
            "tdop": math.sqrt(q[3, 3]), "hdop": math.sqrt(ql[0, 0] + ql[1, 1]),
            "vdop": math.sqrt(ql[2, 2])}


def reduce_rigorous(dp, ha, hb, radius=6378000.0):
    """Sea-level chord D0 from the closed formula, then chord to arc."""
    dh = hb - ha
    d0 = dp * np.sqrt((1.0 - (dh / dp) ** 2) / ((1.0 + ha / radius) * (1.0 + hb / radius)))
    return d0 + d0 ** 3 / (24.0 * radius * radius)


def orthometric(dh, phi_start, phi_end, h_mean):
    phi_m = 0.5 * (phi_start + phi_end)
    return float(np.sum(dh)) - 0.0053 * math.sin(2.0 * phi_m) * h_mean * (phi_end - phi_start)


def dynamic(g, dh):
    s2 = math.sin(math.pi / 4) ** 2
    gamma45 = 978.0490 * (1.0 + 0.0052884 * s2 - 0.0000059 * math.sin(math.pi / 2) ** 2)
    return float(np.sum(np.asarray(g) * np.asarray(dh))) / gamma45


def leveling_tolerance(sigma_along_chain, k: float = 7.0):
    """k-sigma bound on each adjusted height's error.

    The least-squares estimate has no larger variance than the plain sum of
    the chain's observations from the fixed point, whose variance is the
    running sum of the chain's observation variances.
    """
    var = np.concatenate([[0.0], np.cumsum(np.asarray(sigma_along_chain) ** 2)])
    return k * np.sqrt(var) + 1e-9
