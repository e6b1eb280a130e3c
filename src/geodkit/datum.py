"""Transformations between geodetic systems.

Three-dimensional: the 7-parameter similarity (Bursa-Wolf) model, with a
least-squares estimator and a direct closed-form estimator; the standard
and abridged curvilinear shift formulas (Molodensky).  Two-dimensional:
the 4-parameter Helmert similarity with its least-squares estimator.

Rotation sign convention: rx, ry, rz are positive counterclockwise and the
first-order rotation matrix is rows [1, rz, -ry; -rz, 1, rx; ry, -rx, 1].
Several libraries use the transposed convention; check before mixing
parameter sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ARCSEC, Ellipsoid, NumericalError, meridian_radius, prime_vertical_radius
from .coords import EcefCoord, GeodeticCoord
from .projections import PlaneCoord


class InsufficientPoints(NumericalError, ValueError):
    pass


class RankDeficient(NumericalError, ValueError):
    pass


class SingularRotationSystem(NumericalError, ValueError):
    pass


class ZeroSpread(NumericalError, ValueError):
    pass


_MAX_ROTATION = math.radians(3.0)


@dataclass(frozen=True)
class BursaWolfParams:
    """Translations (m), scale offset m_scale (unitless) and small rotations (rad)."""

    tx: float
    ty: float
    tz: float
    m_scale: float
    rx: float
    ry: float
    rz: float

    def __post_init__(self):
        if max(abs(self.rx), abs(self.ry), abs(self.rz)) >= _MAX_ROTATION:
            raise ValueError("rotations exceed the small-angle validity bound")
        if abs(self.m_scale) >= 1e-3:
            raise ValueError("scale offset exceeds the small-scale validity bound")

    def rotation_matrix(self) -> np.ndarray:
        rx, ry, rz = self.rx, self.ry, self.rz
        return np.array(
            [[1.0, rz, -ry], [-rz, 1.0, rx], [ry, -rx, 1.0]]
        )

    def translation(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tz])


@dataclass(frozen=True)
class Helmert2DParams:
    """Plane similarity X2 = T + s R(theta) X1 through u = s cos(theta), v = s sin(theta)."""

    tx: float
    ty: float
    u: float
    v: float

    @property
    def scale(self) -> float:
        return math.hypot(self.u, self.v)

    @property
    def theta(self) -> float:
        return math.atan2(self.v, self.u)


@dataclass(frozen=True)
class DatumShiftResult:
    params: object
    residuals: np.ndarray
    s2: float | None
    cov: np.ndarray | None


def bursa_wolf_apply(p: BursaWolfParams, x1: EcefCoord) -> EcefCoord:
    """X2 = T + (1 + m) R X1."""
    out = p.translation() + (1.0 + p.m_scale) * (p.rotation_matrix() @ x1.as_array())
    return EcefCoord.from_array(out)


def _bw_design_row_block(x: float, y: float, z: float) -> np.ndarray:
    return np.array(
        [
            [1.0, 0.0, 0.0, x, 0.0, -z, y],
            [0.0, 1.0, 0.0, y, z, 0.0, -x],
            [0.0, 0.0, 1.0, z, -y, x, 0.0],
        ]
    )


def bursa_wolf_estimate(pairs: list) -> DatumShiftResult:
    """Least-squares fit of the 7 parameters from common points.

    pairs: [(EcefCoord system 1, EcefCoord system 2), ...], n >= 3.
    The design matrix is the first-order one (scale and rotations enter
    linearly); sigma^2 = V'V/(3n-7) and cov = sigma^2 (A'A)^-1.
    """
    n = len(pairs)
    if 3 * n < 7 or n < 3:
        raise InsufficientPoints(f"{n} common points give {3 * n} equations < 7")
    a = np.vstack([_bw_design_row_block(p1.x, p1.y, p1.z) for p1, _ in pairs])
    l_vec = np.concatenate(
        [[p2.x - p1.x, p2.y - p1.y, p2.z - p1.z] for p1, p2 in pairs]
    )
    # equilibrate columns so the conditioning test sees geometry, not units
    scale = np.linalg.norm(a, axis=0)
    a_s = a / scale
    normal_s = a_s.T @ a_s
    if np.linalg.cond(normal_s) > 1e12:
        raise RankDeficient("normal matrix ill-conditioned (collinear network?)")
    u = np.linalg.solve(normal_s, a_s.T @ l_vec) / scale
    v = a @ u - l_vec
    dof = 3 * n - 7
    s2 = float(v @ v / dof) if dof > 0 else None
    cov = None
    if s2 is not None:
        cov = s2 * (np.linalg.inv(normal_s) / np.outer(scale, scale))
    params = BursaWolfParams(*u)
    return DatumShiftResult(params=params, residuals=v.reshape(n, 3), s2=s2, cov=cov)


def bursa_wolf_direct(pairs: list) -> BursaWolfParams:
    """Closed-form (first-order) parameter estimate without least squares.

    Scale: mean length ratio over all point pairs.  Rotations: a 3x3 system
    assembled from three different chords, the first nonsingular triple in
    lexicographic order.  Translations: per-point values averaged.
    """
    n = len(pairs)
    if n < 3:
        raise InsufficientPoints("need at least 3 common points")
    p1 = np.array([[p.x, p.y, p.z] for p, _ in pairs])
    p2 = np.array([[q.x, q.y, q.z] for _, q in pairs])

    chords = list(itertools.combinations(range(n), 2))
    ratios = []
    for i, j in chords:
        d1 = np.linalg.norm(p1[j] - p1[i])
        d2 = np.linalg.norm(p2[j] - p2[i])
        if d1 > 0:
            ratios.append(d2 / d1)
    one_plus_m = float(np.mean(ratios))
    m_scale = one_plus_m - 1.0

    def rotation_from_triple(triple, cond_limit: float):
        rows = []
        rhs = []
        for row_idx, (i, j) in enumerate(triple):
            dx, dy, dz = p1[j] - p1[i]
            dxp, dyp, dzp = p2[j] - p2[i]
            v = (1.0 - m_scale) * np.array([dxp, dyp, dzp]) - np.array([dx, dy, dz])
            coeff = [
                [0.0, -dz, dy],
                [dz, 0.0, -dx],
                [-dy, dx, 0.0],
            ][row_idx]
            rows.append(coeff)
            rhs.append(v[row_idx])
        mat = np.array(rows)
        if np.linalg.cond(mat) > cond_limit:
            return None
        return np.linalg.solve(mat, np.array(rhs))

    # first chord triple (lexicographic) whose 3x3 system is well conditioned;
    # relax the conditioning bound only if no triple qualifies
    rot = None
    for cond_limit in (10.0, 1e2, 1e4, 1e8):
        for triple in itertools.combinations(chords, 3):
            rot = rotation_from_triple(triple, cond_limit)
            if rot is not None:
                break
        if rot is not None:
            break
    if rot is None:
        raise SingularRotationSystem("no chord triple yields a solvable system")
    rx, ry, rz = (float(r) for r in rot)

    rot_matrix = np.array([[1.0, rz, -ry], [-rz, 1.0, rx], [ry, -rx, 1.0]])
    t_all = p2 - one_plus_m * (p1 @ rot_matrix.T)
    tx, ty, tz = (float(t) for t in t_all.mean(axis=0))
    return BursaWolfParams(tx, ty, tz, m_scale, rx, ry, rz)


def _molodensky_terms(ell1: Ellipsoid, ell2: Ellipsoid, g: GeodeticCoord, t: tuple) -> tuple:
    """What both Molodensky forms share: (da, df, n, rho, sin phi, cos phi)
    and the translation terms of dphi, dlam and dhe, in their sums' order."""
    dx, dy, dz = t
    n = prime_vertical_radius(ell1, g.phi)
    rho = meridian_radius(ell1, g.phi)
    sphi, cphi = math.sin(g.phi), math.cos(g.phi)
    slam, clam = math.sin(g.lam), math.cos(g.lam)
    shift = (
        -dx * sphi * clam - dy * sphi * slam + dz * cphi,
        -dx * slam + dy * clam,
        dx * cphi * clam + dy * cphi * slam + dz * sphi,
    )
    return ell2.a - ell1.a, ell2.f - ell1.f, n, rho, sphi, cphi, shift


def molodensky_standard(
    ell1: Ellipsoid, ell2: Ellipsoid, g: GeodeticCoord, t: tuple
) -> tuple:
    """Standard curvilinear datum shift (translations only, no scale/rotations).

    Returns (dphi_arcsec, dlam_arcsec, dhe_m) to add to the system-1
    coordinates; angular parts in sexagesimal arc-seconds.
    """
    da, df, n, rho, sphi, cphi, (dphi_t, dlam_t, dhe_t) = _molodensky_terms(ell1, ell2, g, t)
    a, f = ell1.a, ell1.f
    b_over_a = 1.0 - f
    dphi = (
        dphi_t
        + n * ell1.e2 * sphi * cphi * da / a
        + df * (rho / b_over_a + n * b_over_a) * sphi * cphi
    ) / ((rho + g.he) * math.sin(ARCSEC))
    dlam = dlam_t / ((n + g.he) * cphi * math.sin(ARCSEC))
    dhe = dhe_t - da * a / n + df * b_over_a * n * sphi * sphi
    return dphi, dlam, dhe


def molodensky_abridged(
    ell1: Ellipsoid, ell2: Ellipsoid, g: GeodeticCoord, t: tuple
) -> tuple:
    """Abridged form: heights dropped, first order in the flattening."""
    da, df, n, rho, sphi, cphi, (dphi_t, dlam_t, dhe_t) = _molodensky_terms(ell1, ell2, g, t)
    adf_fda = ell1.a * df + ell1.f * da
    dphi = (dphi_t + adf_fda * math.sin(2.0 * g.phi)) / (rho * math.sin(ARCSEC))
    dlam = dlam_t / (n * cphi * math.sin(ARCSEC))
    dhe = dhe_t + adf_fda * sphi * sphi - da
    return dphi, dlam, dhe


def apply_molodensky(
    ell1: Ellipsoid,
    ell2: Ellipsoid,
    g: GeodeticCoord,
    t: tuple,
    abridged: bool = False,
) -> GeodeticCoord:
    """System-2 geodetic coordinates of a system-1 point."""
    fn = molodensky_abridged if abridged else molodensky_standard
    dphi, dlam, dhe = fn(ell1, ell2, g, t)
    return GeodeticCoord(
        g.phi + dphi * ARCSEC, g.lam + dlam * ARCSEC, g.he + dhe
    )


def helmert2d_apply(p: Helmert2DParams, xy: PlaneCoord) -> PlaneCoord:
    """X2 = tx + u X1 - v Y1; Y2 = ty + v X1 + u Y1."""
    return PlaneCoord(
        p.tx + p.u * xy.e - p.v * xy.n,
        p.ty + p.v * xy.e + p.u * xy.n,
    )


def helmert2d_estimate(pairs: list) -> DatumShiftResult:
    """Least-squares 4-parameter plane similarity from common points.

    With the unknowns (tx, ty, u, v), point i contributes the design rows
    (1, 0, x_i, -y_i) and (0, 1, y_i, x_i).  Both point sets are reduced to
    their centroids, so sum x_i = sum y_i = 0 and the normal matrix is
    diagonal, diag(n, n, sum d_i^2, sum d_i^2): each unknown is solved on its
    own and no design matrix is formed.  Translations are de-reduced
    afterwards.  sigma0^2 = W'W/(n-4) needs n > 2.
    """
    n = len(pairs)
    if n < 2:
        raise InsufficientPoints("need at least 2 common points")
    src = np.array([[a.e, a.n] for a, _ in pairs])
    dst = np.array([[b.e, b.n] for _, b in pairs])
    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    x, y = (src - src_c).T
    xp, yp = (dst - dst_c).T
    d2 = float(np.sum(x * x + y * y))
    if d2 <= 0:
        raise ZeroSpread("all common points coincide")

    u = float(np.sum(x * xp + y * yp) / d2)
    v = float(np.sum(x * yp - y * xp) / d2)
    # reduced translations are zero by construction; de-reduce to the full frame
    tx = float(dst_c[0] - u * src_c[0] + v * src_c[1])
    ty = float(dst_c[1] - v * src_c[0] - u * src_c[1])
    params = Helmert2DParams(tx, ty, u, v)

    w = np.empty(2 * n)
    w[0::2] = (u * x - v * y) - xp
    w[1::2] = (v * x + u * y) - yp
    dof = 2 * n - 4  # two equations per point, four unknowns
    s2 = float(w @ w / dof) if dof > 0 else None
    cov = None
    if s2 is not None:
        cov = s2 * np.diag([1.0 / n, 1.0 / n, 1.0 / d2, 1.0 / d2])
    return DatumShiftResult(params=params, residuals=w.reshape(n, 2), s2=s2, cov=cov)


def helmert2d_min_distance(sigma0: float, sigma_u_target: float, n: int) -> float:
    """Smallest max centroid distance D compatible with a target rotation sigma.

    From sigma_u^2 = sigma0^2 / sum(d_i^2) and d_i <= D:
    D >= sigma0 / (sigma_u sqrt(n)).
    """
    if sigma_u_target <= 0 or n <= 0:
        raise ValueError("need sigma_u_target > 0 and n > 0")
    return sigma0 / (sigma_u_target * math.sqrt(n))
