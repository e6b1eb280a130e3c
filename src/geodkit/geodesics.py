"""Geodesic lines on the ellipsoid of revolution.

Direct and inverse problems are solved with the truncated elliptic-integral
series in t = sin(phi): the arc integrand is expanded to t^4 and the
longitude integrand to t^6.  Intended for lines up to a few hundred km;
the truncation error grows with distance and with proximity to the
geodesic's vertex latitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Ellipsoid,
    NonConvergence,
    NumericalError,
    meridian_arc,
    meridian_radius,
    prime_vertical_radius,
)
from .coords import GeodeticCoord, _normalize_lon


class PolarGeodesic(NumericalError, ValueError):
    """The line is a meridian (Clairaut constant ~ 0); use meridian_arc instead."""


class VertexExceeded(NumericalError, ValueError):
    """The requested arc crosses the vertex latitude where the series breaks."""


class AntipodalUnsupported(NumericalError, ValueError):
    """Longitude gap too close to half a turn for the series formulation."""


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GeodesicState:
    """Clairaut constant C (m), equatorial azimuth and squared modulus k2 >= 1."""

    C: float
    aze: float
    k2: float

    @property
    def k(self) -> float:
        return math.sqrt(self.k2)


@dataclass(frozen=True)
class GeodesicSolution:
    phi2: float
    lam2: float
    az1: float
    az2: float
    s: float


def _norm_az(az: float) -> float:
    az = az % TWO_PI
    return 0.0 if az == TWO_PI else az  # % can round up to the modulus


def clairaut_constant(ell: Ellipsoid, phi: float, az: float) -> GeodesicState:
    """Clairaut constant C = N cos(phi) sin(az) and derived line invariants.

    The sign of C carries the east/west sense of the line.  The equatorial
    azimuth is placed in the same north/south half-plane as az.
    """
    c = prime_vertical_radius(ell, phi) * math.cos(phi) * math.sin(az)
    if abs(c) < 1e-9:
        raise PolarGeodesic("meridian line; Clairaut constant vanishes")
    if abs(c) >= ell.a:
        # equatorial line: the vertex latitude collapses onto the line itself
        c = math.copysign(ell.a, c)
        aze = math.pi / 2 if c > 0 else 3.0 * math.pi / 2
        return GeodesicState(C=c, aze=aze, k2=math.inf)
    sin_aze = c / ell.a
    cos_aze = math.sqrt(1.0 - sin_aze * sin_aze)
    if math.cos(az) < 0:
        cos_aze = -cos_aze
    aze = _norm_az(math.atan2(sin_aze, cos_aze))
    k2 = (ell.a**2 - c * c * ell.e2) / (ell.a**2 - c * c)
    return GeodesicState(C=c, aze=aze, k2=k2)


def _arc_coeffs(e2: float, k2: float) -> tuple:
    """Coefficients (m, n) of the arc integrand 1 + m t^2 + n t^4."""
    m = (k2 + 3.0 * e2) / 2.0
    n = (3.0 * k2 * k2 + 6.0 * e2 * k2 + 15.0 * e2 * e2) / 8.0
    return m, n


def _lon_coeffs(e2: float, k2: float) -> tuple:
    """Coefficients (alpha, beta, gamma) of the longitude integrand."""
    e4 = e2 * e2
    e6 = e4 * e2
    k4 = k2 * k2
    k6 = k4 * k2
    alpha = (2.0 + k2 + e2) / 2.0
    beta = (8.0 + 4.0 * k2 + 4.0 * e2 + 3.0 * k4 + 2.0 * e2 * k2 + 3.0 * e4) / 8.0
    gamma = (16.0 + 8.0 * k2 + 8.0 * e2 + 6.0 * k4 + 4.0 * e2 * k2 + 6.0 * e4
             + 5.0 * k6 + 3.0 * k4 * e2 + 3.0 * k2 * e4 + 5.0 * e6) / 16.0
    return alpha, beta, gamma


def _arc_antider(t: float, m: float, n: float) -> float:
    return t + m * t**3 / 3.0 + n * t**5 / 5.0


def _lon_antider(t: float, a: float, b: float, g: float) -> float:
    return t + a * t**3 / 3.0 + b * t**5 / 5.0 + g * t**7 / 7.0


def _parallel_radius(ell: Ellipsoid, phi: float) -> float:
    return prime_vertical_radius(ell, phi) * math.cos(phi)


def geodesic_direct(
    ell: Ellipsoid, p1: GeodeticCoord, az1: float, s: float
) -> GeodesicSolution:
    """Point, arrival azimuth at distance s along the geodesic from p1.

    phi2 is found by Newton iteration on the truncated arc integral
    (seeded with its first-order solution), lam2 from the longitude series
    and az2 from sin(az2) = C / r(phi2).
    """
    if s < 0:
        raise ValueError("distance must be >= 0")
    if s == 0.0:
        return GeodesicSolution(p1.phi, p1.lam, _norm_az(az1), _norm_az(az1), 0.0)
    state = clairaut_constant(ell, p1.phi, az1)
    if math.isinf(state.k2):
        # equatorial line: stays on the equator
        direction = 1.0 if state.C > 0 else -1.0
        return GeodesicSolution(
            0.0, _normalize_lon(p1.lam + direction * s / ell.a),
            state.aze, state.aze, s,
        )
    if abs(math.cos(state.aze)) < 1e-9:
        # the start point is the vertex itself: the latitude integrand is
        # singular there and the series cannot leave the point
        raise VertexExceeded("line starts at its vertex latitude")
    e2 = ell.e2
    m, n = _arc_coeffs(e2, state.k2)
    t1 = math.sin(p1.phi)
    t_max = 1.0 / state.k  # sin of the vertex latitude
    rhs = s * math.cos(state.aze) / (ell.a * (1.0 - e2))
    target = _arc_antider(t1, m, n) + rhs

    t2 = t1 + rhs  # first-order seed
    # converge well below the 1e-4 m contract so round trips keep margin
    tol = 1e-7 * abs(math.cos(state.aze)) / (ell.a * (1.0 - e2))
    tol = max(tol, 1e-18)
    for _ in range(50):
        f = _arc_antider(t2, m, n) - target
        if abs(f) < tol:
            break
        t2 -= f / (1.0 + m * t2 * t2 + n * t2**4)
    else:
        raise NonConvergence("geodesic_direct: latitude iteration stalled")
    if abs(t2) >= min(t_max, 1.0) - 1e-12:
        raise VertexExceeded(
            f"arc reaches sin(phi) = {t2:.9f}, beyond the vertex bound {t_max:.9f}"
        )
    phi2 = math.asin(t2)

    alpha, beta, gamma = _lon_coeffs(e2, state.k2)
    dlam = (1.0 - e2) * math.tan(state.aze) * (
        _lon_antider(t2, alpha, beta, gamma) - _lon_antider(t1, alpha, beta, gamma)
    )
    lam2 = _normalize_lon(p1.lam + dlam)

    sin_az2 = state.C / _parallel_radius(ell, phi2)
    sin_az2 = min(1.0, max(-1.0, sin_az2))
    cos_az2 = math.sqrt(1.0 - sin_az2 * sin_az2)
    if math.cos(az1) < 0:
        cos_az2 = -cos_az2  # no vertex crossing inside the validity domain
    az2 = _norm_az(math.atan2(sin_az2, cos_az2))
    return GeodesicSolution(phi2, lam2, _norm_az(az1), az2, s)


def _seed_c(ell: Ellipsoid, phi: float, dlam_dphi: float) -> float:
    """|C| from the finite-difference slope of the line at latitude phi."""
    r = _parallel_radius(ell, phi)
    rho = meridian_radius(ell, phi)
    q = (r / rho) * dlam_dphi
    return r * abs(q) / math.sqrt(1.0 + q * q)


def geodesic_inverse(
    ell: Ellipsoid, p1: GeodeticCoord, p2: GeodeticCoord
) -> GeodesicSolution:
    """Azimuths and length of the geodesic from p1 to p2.

    The Clairaut constant is seeded from the mean of the finite-difference
    estimates at both endpoints and refined until the predicted longitude
    gap matches the actual one to 1e-11 rad.  Assumes the latitude varies
    monotonically along the line (no vertex crossing between the points).
    """
    dlam = _normalize_lon(p2.lam - p1.lam)
    dphi = p2.phi - p1.phi
    if dlam == 0.0 and dphi == 0.0:
        raise ValueError("endpoints coincide")
    if abs(dlam) > math.pi * (1.0 - 0.5 * ell.e2):
        raise AntipodalUnsupported("longitude gap too large for the series")

    if dlam == 0.0:
        # meridian line
        s = abs(meridian_arc(ell, p2.phi) - meridian_arc(ell, p1.phi))
        az = 0.0 if dphi > 0 else math.pi
        return GeodesicSolution(p2.phi, p2.lam, az, az, s)
    if p1.phi == 0.0 and p2.phi == 0.0:
        # the equator is itself a geodesic
        az = math.pi / 2.0 if dlam > 0 else 3.0 * math.pi / 2.0
        return GeodesicSolution(p2.phi, p2.lam, az, az, abs(dlam) * ell.a)

    e2 = ell.e2
    t1, t2 = math.sin(p1.phi), math.sin(p2.phi)
    slope = dlam / dphi if dphi != 0.0 else math.inf
    if math.isinf(slope):
        c = min(_parallel_radius(ell, p1.phi), ell.a * (1.0 - 1e-12))
    else:
        c = 0.5 * (_seed_c(ell, p1.phi, slope) + _seed_c(ell, p2.phi, slope))
    c = math.copysign(min(c, ell.a * (1.0 - 1e-12)), dlam)

    def predicted_dlam(c_val: float) -> float:
        k2 = (ell.a**2 - c_val * c_val * e2) / (ell.a**2 - c_val * c_val)
        sin_aze = c_val / ell.a
        cos_aze = math.copysign(math.sqrt(1.0 - sin_aze * sin_aze), dphi)
        alpha, beta, gamma = _lon_coeffs(e2, k2)
        return (1.0 - e2) * (sin_aze / cos_aze) * (
            _lon_antider(t2, alpha, beta, gamma) - _lon_antider(t1, alpha, beta, gamma)
        )

    # secant refinement of C against the longitude gap; once below the
    # 1e-11 rad requirement, keep polishing while the residual still drops
    c_prev = c * 0.999
    f_prev = predicted_dlam(c_prev) - dlam
    f = predicted_dlam(c) - dlam
    converged = abs(f) < 1e-11
    polish = 0
    for _ in range(100):
        if converged and (polish >= 3 or abs(f) == 0.0):
            break
        denom = f - f_prev
        if denom == 0.0:
            break
        c_next = c - f * (c - c_prev) / denom
        c_next = math.copysign(min(abs(c_next), ell.a * (1.0 - 1e-12)), dlam)
        f_next = predicted_dlam(c_next) - dlam
        if converged and abs(f_next) >= abs(f):
            break
        c_prev, f_prev = c, f
        c, f = c_next, f_next
        if abs(f) < 1e-11:
            converged = True
            polish += 1
    if not converged:
        raise NonConvergence("geodesic_inverse: Clairaut constant did not converge")

    k2 = (ell.a**2 - c * c * e2) / (ell.a**2 - c * c)
    sin_aze = c / ell.a
    cos_aze = math.copysign(math.sqrt(1.0 - sin_aze * sin_aze), dphi)
    m, n = _arc_coeffs(e2, k2)
    s = ell.a * (1.0 - e2) * (_arc_antider(t2, m, n) - _arc_antider(t1, m, n)) / cos_aze

    def endpoint_az(phi: float) -> float:
        sin_az = min(1.0, max(-1.0, c / _parallel_radius(ell, phi)))
        cos_az = math.copysign(math.sqrt(1.0 - sin_az * sin_az), dphi)
        return _norm_az(math.atan2(sin_az, cos_az))

    return GeodesicSolution(p2.phi, p2.lam, endpoint_az(p1.phi), endpoint_az(p2.phi), s)
