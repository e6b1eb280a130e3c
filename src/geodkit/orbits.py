"""Two-body satellite motion: Kepler's equation, anomalies, frames.

Purely Keplerian: no perturbations, no ephemeris handling.  Times are
seconds past the perigee epoch t0; angles radians; GST conversions accept
hours at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .core import GM_EARTH, SIDEREAL_RATIO_GST, NonConvergence, np
from .coords import EcefCoord
from .sphere import normalize_hours

# stopping rule of solve_kepler: |M - (E - e sin E)| below this, in radians
_KEPLER_TOL = 1e-13


@dataclass(frozen=True)
class OrbitalElements:
    """a (m), eccentricity, inclination, RAAN, argument of perigee, perigee epoch, mu."""

    a: float
    e: float
    i: float
    raan: float
    arg_perigee: float
    t0: float = 0.0
    mu: float = GM_EARTH

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("orbital elements must be finite")
        if self.a <= 0:
            raise ValueError("semi-major axis must be > 0")
        if not 0.0 <= self.e < 1.0:
            raise ValueError("eccentricity must be in [0, 1)")
        if not 0.0 <= self.i <= math.pi:
            raise ValueError("inclination must be in [0, pi]")


def mean_motion(el: OrbitalElements) -> float:
    """n = sqrt(mu / a^3), rad/s."""
    return math.sqrt(el.mu / el.a**3)


def period(el: OrbitalElements) -> float:
    return 2.0 * math.pi / mean_motion(el)


def solve_kepler(mean_anomaly: float, e: float) -> float:
    """Eccentric anomaly E with E - e sin E = M.

    Newton-style corrections dE = (M - E + e sin E)/(1 - e cos E) seeded
    with E = M + e sin M, the last taken from a residual under _KEPLER_TOL;
    falls back to bisection when the correction misbehaves (high eccentricity near perigee).
    """
    if not 0.0 <= e < 1.0:
        raise ValueError("eccentricity must be in [0, 1)")
    if not math.isfinite(mean_anomaly):
        raise ValueError(f"mean anomaly must be finite, got {mean_anomaly}")
    m_wrapped = math.fmod(mean_anomaly, 2.0 * math.pi)
    turns = mean_anomaly - m_wrapped
    big_e = m_wrapped + e * math.sin(m_wrapped)
    for _ in range(50):
        err = m_wrapped - big_e + e * math.sin(big_e)
        delta = err / (1.0 - e * math.cos(big_e))
        if abs(delta) > 1.0:
            break  # Newton diverging; bisect instead
        big_e += delta
        if abs(err) < _KEPLER_TOL:
            return big_e + turns
    else:
        raise NonConvergence("solve_kepler: Newton stalled")

    lo, hi = m_wrapped - abs(e) - 1e-12, m_wrapped + abs(e) + 1e-12
    f = lambda x: x - e * math.sin(x) - m_wrapped
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(f(mid)) < _KEPLER_TOL:
            return mid + turns
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    raise NonConvergence("solve_kepler: bisection stalled")


def true_anomaly(eccentric_anomaly: float, e: float) -> float:
    """nu from tan(nu) = sqrt(1-e^2) sin E / (cos E - e), in E's half-plane."""
    s = math.sqrt(1.0 - e * e) * math.sin(eccentric_anomaly)
    c = math.cos(eccentric_anomaly) - e
    nu = math.atan2(s, c)
    # nu and E never separate by more than half a turn: recover E's winding
    turns = round((eccentric_anomaly - nu) / (2.0 * math.pi))
    return nu + turns * 2.0 * math.pi


def position_in_plane(el: OrbitalElements, t: float) -> tuple:
    """(xi, eta, r): orbital-plane coordinates and radius at time t.

    xi = a (cos E - e), eta = a sqrt(1-e^2) sin E, r = a (1 - e cos E).
    """
    m = mean_motion(el) * (t - el.t0)
    big_e = solve_kepler(m, el.e)
    xi = el.a * (math.cos(big_e) - el.e)
    eta = el.a * math.sqrt(1.0 - el.e**2) * math.sin(big_e)
    r = el.a * (1.0 - el.e * math.cos(big_e))
    return xi, eta, r


def perifocal_to_inertial_coeffs(el: OrbitalElements) -> tuple:
    """(P_X, P_Y, Q_X, Q_Y) combination coefficients of (xi, eta)."""
    co, so = math.cos(el.arg_perigee), math.sin(el.arg_perigee)
    cr, sr = math.cos(el.raan), math.sin(el.raan)
    ci = math.cos(el.i)
    p_x = cr * co - sr * so * ci
    p_y = -cr * so - sr * co * ci
    q_x = sr * co + cr * so * ci
    q_y = -sr * so + cr * co * ci
    return p_x, p_y, q_x, q_y


def elements_to_eci(el: OrbitalElements, t: float) -> np.ndarray:
    """Inertial position at time t (m)."""
    xi, eta, _ = position_in_plane(el, t)
    p_x, p_y, q_x, q_y = perifocal_to_inertial_coeffs(el)
    si = math.sin(el.i)
    so, co = math.sin(el.arg_perigee), math.cos(el.arg_perigee)
    return np.array(
        [
            p_x * xi + p_y * eta,
            q_x * xi + q_y * eta,
            xi * si * so + eta * si * co,
        ]
    )


def eci_to_ecef(x_eci, gst: float) -> EcefCoord:
    """Rotate an inertial vector into the terrestrial frame by the GST angle."""
    c, s = math.cos(gst), math.sin(gst)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return EcefCoord.from_array(rot @ np.asarray(x_eci, dtype=float))


def gst_hours(ut_hours: float, hsg0_hours: float) -> float:
    """Greenwich sidereal time (hours) = 1.002737909 UT + HSG(0h), in [0, 24)."""
    return normalize_hours(SIDEREAL_RATIO_GST * ut_hours + hsg0_hours)


def vis_viva(el: OrbitalElements, r: float) -> float:
    """Speed on the orbit at radius r: v = sqrt(mu (2/r - 1/a))."""
    if not el.a * (1.0 - el.e) - 1e-6 <= r <= el.a * (1.0 + el.e) + 1e-6:
        raise ValueError("radius outside the orbit's perigee/apogee range")
    return math.sqrt(el.mu * (2.0 / r - 1.0 / el.a))
