"""Geodesic lines on the ellipsoid of revolution.

Direct and inverse problems are solved with the truncated elliptic-integral
series in t = sin(phi): the arc integrand is expanded to t^4 and the
longitude integrand to t^6.  Direct and inverse agree with each other, not
with the geodesic: the error of the direct problem's end point is a fixed
share of s that grows with the start latitude, 34.3 m on a 1 km line at
phi1 = 0.63 rad.  Against an RK4 integration of the geodesic equations
(tests/conftest.integrate_geodesic, 4000 steps), on GRS80 at azimuth 40 deg:

    phi1 (rad)   s = 1 km   100 km    500 km
    0.0          0.000 m    0.000 m   0.005 m
    0.3          0.79 m     88.8 m    704 m
    0.63         34.3 m     3.62 km   22.5 km
    1.0          342 m      35.6 km   209 km
    1.3          1.35 km    148 km    VertexExceeded
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Ellipsoid,
    NonConvergence,
    NumericalError,
    Value,
    _prime_vertical_radius,
    iterate,
    latitude_from_arc,
    meridian_arc,
    meridian_radius,
    np,
    npmath,
    quarter_meridian,
    quiet,
)
from .coords import GeodeticCoord, _normalize_lon, geodetic_columns


class PolarGeodesic(NumericalError, ValueError):
    """The line is a meridian (Clairaut constant ~ 0), which the series cannot
    follow; geodesic_direct and geodesic_inverse solve it with meridian_arc."""


class VertexExceeded(NumericalError, ValueError):
    """The requested arc crosses the vertex latitude where the series breaks."""


class AntipodalUnsupported(NumericalError, ValueError):
    """Longitude gap too close to half a turn for the series formulation."""


TWO_PI = 2.0 * math.pi
# |C| below which a line is a meridian, metres: an azimuth of half a turn
# rounds to within a double's spacing there, 4.4e-16 rad, which leaves up to
# 2.8e-9 m of C at the equator
_MERIDIAN_C = 1e-8
# |t| beyond which t**5 overflows: a direct seed raises OverflowError there, as ** does
_ARC_T_MAX = 4.476546622757235e61


@dataclass(init=False, repr=False, eq=False)
class GeodesicState(Value):
    """Clairaut constant C (m), equatorial azimuth and squared modulus k2 >= 1."""

    C: float
    aze: float
    k2: float

    def __init__(self, C, aze, k2):
        attrs = self.__dict__
        attrs["C"], attrs["aze"], attrs["k2"] = C, aze, k2

    @property
    def k(self) -> float:
        return math.sqrt(self.k2)


@dataclass(init=False, repr=False, eq=False)
class GeodesicSolution(Value):
    """End point (phi2, lam2), azimuths az1 at the start and az2 at the end, length s (m)."""

    phi2: float
    lam2: float
    az1: float
    az2: float
    s: float

    def __init__(self, phi2, lam2, az1, az2, s):
        attrs = self.__dict__
        attrs["phi2"], attrs["lam2"], attrs["az1"], attrs["az2"] = phi2, lam2, az1, az2
        attrs["s"] = s


def _norm_az(az):
    return az % TWO_PI % TWO_PI  # the second % maps a rounded-up modulus to 0


def _max(x, bound):
    """max(x, bound) as Python takes it: x unless bound > x."""
    if type(x) is not float and type(x) is np.ndarray:
        return np.where(bound > x, bound, x)
    return max(x, bound)


def _clamp_unit(x):
    """min(1, max(-1, x)) as Python takes it, so NaN becomes -1."""
    if type(x) is not float and type(x) is np.ndarray:
        x = np.where(x > -1.0, x, -1.0)
        return np.where(x < 1.0, x, 1.0)
    return min(1.0, max(-1.0, x))


def _parallel_radius(xp, ell: Ellipsoid, phi):
    return _prime_vertical_radius(xp, ell, phi) * xp.cos(phi)


def _k2(ell: Ellipsoid, c):
    """Squared modulus k2 = (a^2 - C^2 e2)/(a^2 - C^2) of the line with Clairaut constant C."""
    return (ell.a**2 - c * c * ell.e2) / (ell.a**2 - c * c)


def _line_constants(xp, ell: Ellipsoid, c, az) -> tuple:
    """Equatorial azimuth and k2 of a line with |C| < a, through azimuth az.

    The equatorial azimuth is placed in the same north/south half-plane as az.
    """
    sin_aze = c / ell.a
    cos_aze = xp.copysign(xp.sqrt(1.0 - sin_aze * sin_aze), xp.cos(az))
    return _norm_az(xp.atan2(sin_aze, cos_aze)), _k2(ell, c)


def clairaut_constant(ell: Ellipsoid, phi: float, az: float) -> GeodesicState:
    """Clairaut constant C = N cos(phi) sin(az) and derived line invariants.

    The sign of C carries the east/west sense of the line.  The equatorial
    azimuth is placed in the same north/south half-plane as az.
    """
    c = _parallel_radius(math, ell, phi) * math.sin(az)
    if abs(c) < _MERIDIAN_C:
        raise PolarGeodesic("meridian line; Clairaut constant vanishes")
    if abs(c) >= ell.a:
        # equatorial line: the vertex latitude collapses onto the line itself
        c = math.copysign(ell.a, c)
        aze = math.pi / 2 if c > 0 else 3.0 * math.pi / 2
        return GeodesicState(C=c, aze=aze, k2=math.inf)
    aze, k2 = _line_constants(math, ell, c, az)
    return GeodesicState(C=c, aze=aze, k2=k2)


def _arc_coeffs(e2: float, k2) -> tuple:
    """Coefficients (m, n) of the arc integrand 1 + m t^2 + n t^4."""
    m = (k2 + 3.0 * e2) / 2.0
    n = (3.0 * k2 * k2 + 6.0 * e2 * k2 + 15.0 * e2 * e2) / 8.0
    return m, n


def _lon_coeffs(e2: float, k2) -> tuple:
    """Coefficients (alpha, beta, gamma) of the longitude integrand.  16 gamma
    begins with 2 (8 beta) and 8 beta with 4 (2 alpha), term for term; a power
    of two scales exactly, so each nested sum has the bits of the written-out one."""
    e4 = e2 * e2
    k4 = k2 * k2
    a = 2.0 + k2 + e2
    b = 4.0 * a + 3.0 * k4 + 2.0 * e2 * k2 + 3.0 * e4
    g = 2.0 * b + 5.0 * (k4 * k2) + 3.0 * k4 * e2 + 3.0 * k2 * e4 + 5.0 * (e4 * e2)
    return a / 2.0, b / 8.0, g / 16.0


def _arc_integrand(t, m, n):
    return 1.0 + t * t * (m + n * t * t)


def _arc_antider(t, m, n):
    return t * (1.0 + t * t * (m / 3.0 + t * t * n / 5.0))


def _spans(t1, t2) -> tuple:
    """(t2^j - t1^j)/j for j = 1, 3, 5, 7, each as t2 - t1 times a sum of
    products, so a short span keeps its digits."""
    d = t2 - t1
    s, p = t1 * t1 + t2 * t2, t1 * t2
    pp = p * p
    q3 = s + p
    q5 = s * q3 - pp
    return d, d * q3 / 3.0, d * q5 / 5.0, d * (s * q5 - pp * q3) / 7.0


def _lon_sum(e2: float, k2, spans):
    """The longitude integral over spans, divided by (1 - e2) tan(aze)."""
    alpha, beta, gamma = _lon_coeffs(e2, k2)
    return spans[0] + alpha * spans[1] + beta * spans[2] + gamma * spans[3]


def _direct_setup(xp, ell: Ellipsoid, phi1, aze, k2, s) -> tuple:
    """Arc coefficients m, n, start t1 = sin(phi1), first-order seed of t2,
    the arc-integral target and the Newton tolerance of the direct problem."""
    e2 = ell.e2
    m, n = _arc_coeffs(e2, k2)
    t1 = xp.sin(phi1)
    rhs = s * xp.cos(aze) / (ell.a * (1.0 - e2))
    target = _arc_antider(t1, m, n) + rhs
    # converge well below the 1e-4 m contract so round trips keep margin
    tol = 1e-7 * abs(xp.cos(aze)) / (ell.a * (1.0 - e2))
    tol = _max(tol, 1e-18)
    return m, n, t1, t1 + rhs, target, tol


def _direct_end(xp, ell: Ellipsoid, lam1, c, aze, k2, az1, t1, t2) -> tuple:
    """phi2, lam2 and az2 once the arc integral has been solved for t2 = sin(phi2)."""
    phi2 = xp.asin(t2)
    dlam = (1.0 - ell.e2) * xp.tan(aze) * _lon_sum(ell.e2, k2, _spans(t1, t2))
    lam2 = _normalize_lon(lam1 + dlam)
    # no vertex crossing inside the validity domain: az2 heads as az1 does
    return phi2, lam2, _endpoint_az(xp, c, _parallel_radius(xp, ell, phi2), xp.cos(az1))


def _meridian_direct(ell: Ellipsoid, p1: GeodeticCoord, az1: float, s: float) -> GeodesicSolution:
    """The direct problem on a meridian, north if cos(az1) > 0, else south, in
    closed form: the end point's meridian arc is p1's plus or minus s."""
    arc = meridian_arc(ell, p1.phi) + math.copysign(s, math.cos(az1))
    if abs(arc) >= quarter_meridian(ell):
        raise VertexExceeded("meridian line reaches a pole")
    az = _norm_az(az1)
    return GeodesicSolution(latitude_from_arc(ell, arc), p1.lam, az, az, s)


def geodesic_direct(
    ell: Ellipsoid, p1: GeodeticCoord, az1: float, s: float
) -> GeodesicSolution:
    """Point, arrival azimuth at distance s along the geodesic from p1.

    phi2 is found by Newton iteration on the truncated arc integral
    (seeded with its first-order solution), lam2 from the longitude series
    and az2 from sin(az2) = C / r(phi2).  Zero-length, meridian and
    equatorial lines are solved in closed form.
    """
    if not math.isfinite(s):
        raise ValueError(f"non-finite distance {s}")
    if not math.isfinite(az1):
        raise ValueError(f"non-finite azimuth {az1}")
    if s < 0:
        raise ValueError("distance must be >= 0")
    if s == 0.0:
        return GeodesicSolution(p1.phi, p1.lam, _norm_az(az1), _norm_az(az1), 0.0)
    try:
        state = clairaut_constant(ell, p1.phi, az1)
    except PolarGeodesic:
        return _meridian_direct(ell, p1, az1, s)
    if math.isinf(state.k2):
        # equatorial line: stays on the equator
        direction = 1.0 if state.C > 0 else -1.0
        return GeodesicSolution(
            0.0, _normalize_lon(p1.lam + direction * s / ell.a),
            state.aze, state.aze, s,
        )
    m, n, t1, t2, target, tol = _direct_setup(math, ell, p1.phi, state.aze, state.k2, s)
    if abs(t2) > _ARC_T_MAX:
        raise OverflowError(f"seed sin(phi2) = {t2} overflows the arc series")
    t_max = 1.0 / state.k  # sin of the vertex latitude
    bound = min(t_max, 1.0) - 1e-12
    for _ in range(50):
        f = _arc_antider(t2, m, n) - target
        if abs(f) < tol:
            break
        t2 -= f / _arc_integrand(t2, m, n)
    else:
        # far past the vertex the residual can stay above tol by rounding
        if not abs(t2) >= bound:
            raise NonConvergence("geodesic_direct: latitude iteration stalled")
    if abs(t2) >= bound:
        raise VertexExceeded(
            f"arc reaches sin(phi) = {t2:.9f}, beyond the vertex bound {t_max:.9f}"
        )
    phi2, lam2, az2 = _direct_end(math, ell, p1.lam, state.C, state.aze, state.k2, az1, t1, t2)
    return GeodesicSolution(phi2, lam2, _norm_az(az1), az2, s)


@quiet
def geodesic_direct_array(ell: Ellipsoid, phi1, lam1, az1, s) -> tuple:
    """Array form of geodesic_direct over columns: (phi2, lam2, az2, s, failed).

    failed marks the rows the kernel leaves to the scalar form: every row
    where geodesic_direct raises (a start point GeodeticCoord rejects, a
    negative or non-finite s, a non-finite azimuth, a stalled Newton
    iteration or an arc beyond the vertex or a pole), and the zero-length,
    meridian and equatorial lines, which geodesic_direct solves in closed
    form.
    """
    phi1, lam1, ok = geodetic_columns(phi1, lam1)
    az1, s = np.asarray(az1, dtype=float), np.asarray(s, dtype=float)
    c = _parallel_radius(npmath, ell, phi1) * np.sin(az1)
    aze, k2 = _line_constants(npmath, ell, c, az1)
    # an infinite azimuth makes c NaN, which fails both |c| tests
    general = ok & (s > 0.0) & (s < np.inf) & (np.abs(c) >= _MERIDIAN_C) & (np.abs(c) < ell.a)

    m, n, t1, t2, target, tol = _direct_setup(npmath, ell, phi1, aze, k2, s)

    def step(t2, m, n, target, tol):
        f = _arc_antider(t2, m, n) - target
        done = np.abs(f) < tol
        return np.where(done, t2, t2 - f / _arc_integrand(t2, m, n)), done

    t2, stalled = iterate(step, (t2,), (m, n, target, tol), general, 50)
    t_max = 1.0 / np.sqrt(k2)
    failed = ~general | stalled | (np.abs(t2) >= np.minimum(t_max, 1.0) - 1e-12)
    phi2, lam2, az2 = _direct_end(npmath, ell, lam1, c, aze, k2, az1, t1, t2)
    return phi2, lam2, az2, s, failed


def _seed_c(xp, ell: Ellipsoid, phi, r, dlam_dphi):
    """|C| from the finite-difference slope of the line at phi, of parallel radius r."""
    rho = meridian_radius(ell, phi)
    q = (r / rho) * dlam_dphi
    return r * abs(q) / xp.sqrt(1.0 + q * q)


def _aze_sin_cos(xp, ell: Ellipsoid, c, dphi) -> tuple:
    """sin and cos of the equatorial azimuth of the line from its Clairaut
    constant, cos taking the sign of the latitude change."""
    sin_aze = c / ell.a
    return sin_aze, xp.copysign(xp.sqrt(1.0 - sin_aze * sin_aze), dphi)


def _dlam_slope(xp, ell: Ellipsoid, c, spans, dphi) -> tuple:
    """Longitude gap of the line with Clairaut constant c over spans, and its
    derivative in c: d tan(aze)/dc = 1/(a cos^3 aze), and k2 moves alpha,
    beta and gamma by dk2/dc = 2 c a^2 (1 - e2)/(a^2 - c^2)^2."""
    e2, a = ell.e2, ell.a
    w = 1.0 - e2
    sin_aze, cos_aze = _aze_sin_cos(xp, ell, c, dphi)
    tan_aze = sin_aze / cos_aze
    k2 = _k2(ell, c)
    lon = _lon_sum(e2, k2, spans)
    h = a * a - c * c
    db = 4.0 + 6.0 * k2 + 2.0 * e2  # 8 dbeta/dk2; 16 dgamma/dk2 = 2 db + ...
    dlon = (0.5 * spans[1] + db / 8.0 * spans[2]
            + (2.0 * db + k2 * (15.0 * k2 + 6.0 * e2) + 3.0 * e2 * e2) / 16.0 * spans[3])
    return (w * tan_aze * lon, w * (lon / (a * cos_aze * cos_aze * cos_aze)
                                    + tan_aze * dlon * 2.0 * c * a * a * w / (h * h)))


def _endpoint_az(xp, c, r, dphi):
    sin_az = _clamp_unit(c / r)
    cos_az = xp.copysign(xp.sqrt(1.0 - sin_az * sin_az), dphi)
    return _norm_az(xp.atan2(sin_az, cos_az))


def _step_keeps_f(ell: Ellipsoid, c, f, df):
    """Whether the Newton step -f/df from c cannot raise |f|: f' sums terms of one sign that
    bend by multiples of 1/(|C| (a^2 - C^2)), so |f''| <= G |f'|, G = 16 a^2/(|C| (a^2 - C^2)),
    and a step D = f/f' leaves at most (G|D|/2) exp(G|D|) |f|, below |f| once G|D| <= 1/2."""
    a2 = ell.a * ell.a
    return 32.0 * a2 * abs(f) <= abs(c) * (a2 - c * c) * abs(df)


def _inverse_end(xp, ell: Ellipsoid, c, r1, r2, spans, dphi) -> tuple:
    """az1, az2 and length s of the line with Clairaut constant c, end parallel radii r1, r2."""
    _, cos_aze = _aze_sin_cos(xp, ell, c, dphi)
    m, n = _arc_coeffs(ell.e2, _k2(ell, c))
    d1, d3, d5, _ = spans
    s = ell.a * (1.0 - ell.e2) * (d1 + m * d3 + n * d5) / cos_aze
    return _endpoint_az(xp, c, r1, dphi), _endpoint_az(xp, c, r2, dphi), s


def geodesic_inverse(
    ell: Ellipsoid, p1: GeodeticCoord, p2: GeodeticCoord
) -> GeodesicSolution:
    """Azimuths and length of the geodesic from p1 to p2.

    The Clairaut constant C is seeded from the mean of the finite-difference
    estimates at both endpoints and refined by Newton steps, on the series'
    analytic slope in C, until the predicted longitude gap matches the actual
    one to 1e-11 rad; the last step is taken where _step_keeps_f or it lowers |f|.
    Assumes the latitude varies monotonically along the line (no vertex
    crossing between the points).
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

    lim = ell.a * (1.0 - 1e-12)
    spans = _spans(math.sin(p1.phi), math.sin(p2.phi))
    r1, r2 = _parallel_radius(math, ell, p1.phi), _parallel_radius(math, ell, p2.phi)
    slope = dlam / dphi if dphi != 0.0 else math.inf
    if math.isinf(slope):
        c = min(r1, lim)
    else:
        c = 0.5 * (_seed_c(math, ell, p1.phi, r1, slope) + _seed_c(math, ell, p2.phi, r2, slope))
    c = math.copysign(min(c, lim), dlam)

    # Newton steps on C against the longitude gap
    f, df = _dlam_slope(math, ell, c, spans, dphi)
    f -= dlam
    for _ in range(100):
        if df == 0.0 or abs(f) < 1e-11:
            break
        c = math.copysign(min(abs(c - f / df), lim), dlam)
        f, df = _dlam_slope(math, ell, c, spans, dphi)
        f -= dlam
    if not abs(f) < 1e-11:
        raise NonConvergence("geodesic_inverse: Clairaut constant did not converge")
    c_next = math.copysign(min(abs(c - f / df), lim), dlam) if df else c
    if (_step_keeps_f(ell, c, f, df)
            or abs(_dlam_slope(math, ell, c_next, spans, dphi)[0] - dlam) < abs(f)):
        c = c_next

    az1, az2, s = _inverse_end(math, ell, c, r1, r2, spans, dphi)
    return GeodesicSolution(p2.phi, p2.lam, az1, az2, s)


def _newton_array(ell: Ellipsoid, phi1, phi2, r1, r2, spans, dphi, dlam, active) -> tuple:
    """The seed and Newton steps of geodesic_inverse on the active rows: (c, converged)."""
    lim = ell.a * (1.0 - 1e-12)
    slope = np.where(dphi != 0.0, dlam / dphi, np.inf)
    c = np.where(np.isinf(slope), np.minimum(r1, lim), 0.5 * (
        _seed_c(npmath, ell, phi1, r1, slope) + _seed_c(npmath, ell, phi2, r2, slope)))
    c = np.copysign(np.minimum(c, lim), dlam)
    f, df = _dlam_slope(npmath, ell, c, spans, dphi)
    f = f - dlam

    def step(c, f, df, d1, d3, d5, d7, dphi, dlam):
        c = np.copysign(np.minimum(np.abs(c - f / df), lim), dlam)
        f, df = _dlam_slope(npmath, ell, c, (d1, d3, d5, d7), dphi)
        f = f - dlam
        return c, f, df, (df == 0.0) | (np.abs(f) < 1e-11)

    running = active & ~((df == 0.0) | (np.abs(f) < 1e-11))
    c, f, df, _ = iterate(step, (c, f, df), (*spans, dphi, dlam), running, 100)
    c_next = np.where(df != 0.0, np.copysign(np.minimum(np.abs(c - f / df), lim), dlam), c)
    take = _step_keeps_f(ell, c, f, df)
    seen = np.flatnonzero(active & ~take)  # the rows whose last step is evaluated
    f_next = _dlam_slope(npmath, ell, c_next[seen], [d[seen] for d in spans], dphi[seen])[0]
    take[seen] = np.abs(f_next - dlam[seen]) < np.abs(f[seen])
    return np.where(take, c_next, c), np.abs(f) < 1e-11


@quiet
def geodesic_inverse_array(ell: Ellipsoid, phi1, lam1, phi2, lam2) -> tuple:
    """Array form of geodesic_inverse over columns: (az1, az2, s, failed).

    failed marks the rows the kernel leaves to the scalar form: every row
    where geodesic_inverse raises (an endpoint GeodeticCoord rejects,
    coincident endpoints, a longitude gap too close to half a turn, or
    Newton steps on C that do not converge), and the meridian and
    equator lines, which geodesic_inverse solves in closed form.
    """
    phi1, lam1, ok1 = geodetic_columns(phi1, lam1)
    phi2, lam2, ok2 = geodetic_columns(phi2, lam2)
    dlam = _normalize_lon(lam2 - lam1)
    dphi = phi2 - phi1
    failed = (~(ok1 & ok2) | (dlam == 0.0) | ((phi1 == 0.0) & (phi2 == 0.0))
              | (np.abs(dlam) > math.pi * (1.0 - 0.5 * ell.e2)))
    spans = _spans(np.sin(phi1), np.sin(phi2))
    r1, r2 = _parallel_radius(npmath, ell, phi1), _parallel_radius(npmath, ell, phi2)
    c, converged = _newton_array(ell, phi1, phi2, r1, r2, spans, dphi, dlam, ~failed)
    az1, az2, s = np.where(failed, np.nan, _inverse_end(npmath, ell, c, r1, r2, spans, dphi))
    return az1, az2, s, failed | ~converged
