"""Height systems: orthometric, normal, dynamic; normal gravity and potential.

A leveling line is the list of (gravity, height increment) pairs measured
along the path, plus the start/end latitudes and a mean altitude.  Gravity
values are in gal, increments in metres; geopotential numbers come out in
gpu (1 gpu = 1 kgal.m).
"""

from __future__ import annotations

import math

from .core import A_SEMI, J2, MEAN_RADIUS, Value, _store
from .core import GM_EARTH as GM
from .core import OMEGA_GRS80 as OMEGA

# sin^2(2 phi) coefficient of the 1930 normal gravity formula; the
# compatibility value 0.000059 appears in some prints and overstates the
# mid-latitude term by an order of magnitude (~52 mgal at 45 degrees).
CASSINI_SIN2_2PHI = 0.0000059
CASSINI_SIN2_2PHI_PRINTED = 0.000059


class LevelLine(Value):
    """Measured leveling segments (g in gal, dh in m) and line geometry."""

    segments: tuple
    phi_start: float = 0.0
    phi_end: float = 0.0
    h_mean: float = 0.0

    def __init__(self, segments, phi_start=0.0, phi_end=0.0, h_mean=0.0):
        _store(self, segments=tuple((float(g), float(dh)) for g, dh in segments),
               phi_start=phi_start, phi_end=phi_end, h_mean=h_mean)
        values = [v for segment in self.segments for v in segment]
        if not all(map(math.isfinite, [self.phi_start, self.phi_end, self.h_mean, *values])):
            raise ValueError("non-finite leveling line field")

    @property
    def sum_dh(self) -> float:
        return sum(dh for _, dh in self.segments)

    @property
    def sum_g_dh(self) -> float:
        """Sum of g dh in gal.m."""
        return sum(g * dh for g, dh in self.segments)


def _height(value: float) -> float:
    """value, unless sums and products of finite fields left the float range."""
    if not math.isfinite(value):
        raise OverflowError(f"height overflows: {value}")
    return value


def geopotential_number(line: LevelLine) -> float:
    """C = sum g dh, returned in gpu (kgal.m)."""
    return line.sum_g_dh / 1000.0


def orthometric_correction(line: LevelLine) -> float:
    """dH = -0.0053 sin(2 phi_m) H_m dphi, metres (dphi in radians)."""
    phi_m = 0.5 * (line.phi_start + line.phi_end)
    dphi = line.phi_end - line.phi_start
    return -0.0053 * math.sin(2.0 * phi_m) * line.h_mean * dphi


def orthometric_height(line: LevelLine) -> float:
    """Leveled increments plus the orthometric correction."""
    return _height(line.sum_dh + orthometric_correction(line))


def cassini_gravity(phi: float, printed_coefficient: bool = False) -> float:
    """Normal gravity at sea level, gal.

    gamma0 = 978.0490 (1 + 0.0052884 sin^2 phi - c sin^2 2phi) with
    c = 5.9e-6; printed_coefficient selects the 5.9e-5 variant found in
    some sources (an order of magnitude off at mid-latitudes).
    """
    c = CASSINI_SIN2_2PHI_PRINTED if printed_coefficient else CASSINI_SIN2_2PHI
    s = math.sin(phi)
    s2 = math.sin(2.0 * phi)
    return 978.0490 * (1.0 + 0.0052884 * s * s - c * s2 * s2)


def normal_height(
    line: LevelLine, phi: float, h_approx: float, radius: float = MEAN_RADIUS
) -> float:
    """H_n = (sum g dh) / gamma_m with gamma_m = gamma0 (1 - H/R)."""
    if h_approx >= radius:
        raise ValueError("height must be below the earth radius")
    gamma_m = cassini_gravity(phi) * (1.0 - h_approx / radius)
    return _height(line.sum_g_dh / gamma_m)


def dynamic_height(line: LevelLine) -> float:
    """H_d = (sum g dh) / gamma0(45 deg)."""
    return _height(line.sum_g_dh / cassini_gravity(math.pi / 4.0))


def gps_height(h_ortho: float, geoid_undulation: float) -> float:
    """Ellipsoidal height from orthometric height and geoid undulation."""
    return h_ortho + geoid_undulation


def ortho_from_gps(he: float, geoid_undulation: float) -> float:
    return he - geoid_undulation


def undulation_from_gps(he: float, h_ortho: float) -> float:
    return he - h_ortho


def normal_potential(
    r: float,
    theta: float,
    gm: float = GM,
    a: float = A_SEMI,
    omega: float = OMEGA,
    j2: float = J2,
) -> float:
    """Closed normal potential W(r, theta) in m^2/s^2 (theta = colatitude).

    W = (GM/r)(1 - J2 (a/r)^2 P2(cos theta)) + (omega^2/2) r^2 sin^2 theta
    with P2(x) = (3x^2 - 1)/2.
    """
    if r <= 0:
        raise ValueError("radius must be > 0")
    x = math.cos(theta)
    p2 = 0.5 * (3.0 * x * x - 1.0)
    s = math.sin(theta)
    return gm / r * (1.0 - j2 * (a / r) ** 2 * p2) + 0.5 * omega**2 * r**2 * s * s
