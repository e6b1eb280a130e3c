"""Seeded input generators.  Each builds only well-posed cases and asserts it.

Inputs come only from ``numpy.random.default_rng(seed)``; the same seed
gives the same inputs.  Region: northern Tunisia, inside both the
``lambert-nord-tn`` band and UTM zone 32 (central meridian 9 deg E).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from oracles import GRAD, bursa_wolf_apply, geodetic_to_ecef, helmert2d_apply


class IllPosed(AssertionError):
    """A generator produced a case outside its stated domain."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise IllPosed(what)


def points(rng, n: int) -> dict:
    """Geodetic points: phi 37..42 gr, lam 7.5..13 gr (5.6 gr inside zone 32), he 0..2000 m."""
    phi = rng.uniform(37.0, 42.0, n) * GRAD
    lam = rng.uniform(7.5, 13.0, n) * GRAD
    he = rng.uniform(0.0, 2000.0, n)
    require(bool(np.all(np.abs(lam - 9.0 * math.pi / 180) < math.radians(3.4))), "outside zone 32")
    return {"phi": phi, "lam": lam, "he": he}


def geodesic_lines(rng, n: int) -> dict:
    """Lines of 1..100 km whose azimuths keep clear of meridian and parallel tangency."""
    start = points(rng, n)
    bands = np.array([[0.1, 1.35], [1.8, 3.0], [3.3, 4.5], [5.0, 6.1]])
    pick = bands[rng.integers(0, 4, n)]
    az = rng.uniform(pick[:, 0], pick[:, 1])
    s = rng.uniform(1000.0, 100000.0, n)
    return {"phi": start["phi"], "lam": start["lam"], "az": az, "s": s}


def connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    todo = deque([0])
    while todo:
        for j in adj[todo.popleft()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == n


def leveling_network(rng, n: int, sigma_km: float = 1e-3) -> dict:
    """n points, 2n leveled lines: a chain through all points plus n+1 random chords.

    Point 0 is fixed, so the datum is defined; the chain keeps it connected.
    sigma_km is the standard deviation of a 1 km line (weight 1/dist_km).
    """
    require(n >= 5, "fewer than 5 points cannot carry 2n distinct lines")
    h = 100.0 + np.cumsum(rng.normal(0.0, 5.0, n))
    edges = [(i, i + 1) for i in range(n - 1)]
    taken = set(edges)
    while len(edges) < 2 * n:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j and (i, j) not in taken and (j, i) not in taken:
            taken.add((i, j))
            edges.append((i, j))
    dist = rng.uniform(0.5, 5.0, len(edges))
    sigma = sigma_km * np.sqrt(dist)
    dh = np.array([h[j] - h[i] for i, j in edges]) + rng.normal(0.0, 1.0, len(edges)) * sigma
    require(connected(n, edges), "leveling network disconnected")
    require(len(edges) == 2 * n, "leveling network needs 2n observations")
    return {"n": n, "h": h, "edges": edges, "dist_km": dist, "dh": dh, "sigma": sigma}


def plane_network(rng, side: int = 7, spacing: float = 1000.0) -> dict:
    """Triangulated grid of side x side points with distances and direction rounds.

    Every cell contributes its right, upper and diagonal edges, so the
    network is rigid; two fixed corners define position, rotation and scale.
    Each station observes one direction round (its own orientation unknown)
    to all its neighbours.  Approximate coordinates are the truth plus
    0.3 m noise; observations carry 2 mm and 3e-6 rad noise.
    """
    n = side * side
    xy = np.array([(c * spacing, r * spacing) for r in range(side) for c in range(side)], float)
    xy += rng.uniform(-0.2, 0.2, xy.shape) * spacing
    edges = []
    for r in range(side):
        for c in range(side):
            k = r * side + c
            if c + 1 < side:
                edges.append((k, k + 1))
            if r + 1 < side:
                edges.append((k, k + side))
            if c + 1 < side and r + 1 < side:
                edges.append((k, k + side + 1))
    require(connected(n, edges), "plane network disconnected")
    degree = np.bincount(np.array(edges).ravel(), minlength=n)
    require(bool(degree.min() >= 2), "plane point with fewer than two ties")
    fixed = {0, 1}
    sig_d, sig_r = 0.002, 3e-6
    dist = [float(np.hypot(*(xy[j] - xy[i]))) + rng.normal(0.0, sig_d) for i, j in edges]
    orient = rng.uniform(0.0, 2.0 * math.pi, n)
    directions = []
    for i, j in edges:
        for a, b in ((i, j), (j, i)):
            bearing = math.atan2(xy[b, 0] - xy[a, 0], xy[b, 1] - xy[a, 1])
            reading = (bearing - orient[a] + rng.normal(0.0, sig_r)) % (2.0 * math.pi)
            directions.append((a, b, reading))
    approx = xy + rng.normal(0.0, 0.3, xy.shape)
    approx[list(fixed)] = xy[list(fixed)]
    return {"n": n, "xy": xy, "approx": approx, "edges": edges, "dist": dist,
            "directions": directions, "fixed": fixed, "sigma_d": sig_d, "sigma_r": sig_r}


def bursa_wolf_truth(rng) -> dict:
    return {"tx": rng.normal(0, 100), "ty": rng.normal(0, 100), "tz": rng.normal(0, 100),
            "m": rng.normal(0, 5e-6), "rx": rng.normal(0, 5e-6),
            "ry": rng.normal(0, 5e-6), "rz": rng.normal(0, 5e-6)}


def bursa_wolf_pairs(rng, n: int, sigma: float = 0.01) -> dict:
    """n common points spread over the region; targets = truth transform + noise."""
    p = points(rng, n)
    src = geodetic_to_ecef("clarke-1880-fr", p["phi"], p["lam"], p["he"])
    centred = src - src.mean(axis=0)
    sv = np.linalg.svd(centred, compute_uv=False)
    require(bool(sv[1] > 1e-3 * sv[0]), "datum points nearly collinear")
    truth = bursa_wolf_truth(rng)
    exact = bursa_wolf_apply(truth, src)
    return {"src": src, "dst": exact + rng.normal(0.0, sigma, src.shape), "exact": exact,
            "truth": truth, "sigma": sigma}


def collinear_pairs(rng, n: int = 9) -> dict:
    """n points on one straight line: the rotation about that line is unobservable."""
    origin = geodetic_to_ecef("clarke-1880-fr", 38.0 * GRAD, 9.0 * GRAD, 0.0)
    direction = rng.normal(0.0, 1.0, 3)
    direction /= np.linalg.norm(direction)
    src = origin + np.outer(np.sort(rng.uniform(0.0, 50000.0, n)), direction)
    sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
    require(bool(sv[1] < 1e-6 * sv[0]), "collinear set is not collinear")
    return {"src": src, "dst": bursa_wolf_apply(bursa_wolf_truth(rng), src)}


def helmert_pairs(rng, n: int, sigma: float = 0.01) -> dict:
    # one point per strip in each axis, so the spread never collapses
    cells = (np.arange(n) + rng.uniform(0.0, 1.0, (2, n))) / n
    src = np.column_stack([480000 + 80000 * cells[0], 250000 + 100000 * rng.permutation(cells[1])])
    require(bool(np.ptp(src, axis=0).min() > 1000.0), "plane points without spread")
    theta = rng.normal(0.0, 1e-4)
    scale = 1.0 + rng.normal(0.0, 1e-5)
    truth = {"tx": rng.normal(0, 50), "ty": rng.normal(0, 50),
             "u": scale * math.cos(theta), "v": scale * math.sin(theta)}
    exact = helmert2d_apply(truth, src)
    return {"src": src, "dst": exact + rng.normal(0.0, sigma, src.shape), "exact": exact,
            "truth": truth, "sigma": sigma}
