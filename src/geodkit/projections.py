"""Conformal plane representations: tangent Lambert conic and UTM.

Both projections expose forward/inverse mappings, the point scale factor,
the meridian convergence and (for Lambert) the arc-to-chord correction.
A numerical Tissot check is provided to verify conformality of any mapping.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .core import (
    ARCSEC,
    Ellipsoid,
    NonConvergence,
    NumericalError,
    get_ellipsoid,
    isometric_latitude,
    latitude_from_isometric,
    meridian_arc,
    meridian_radius,
    prime_vertical_radius,
)
from .coords import GeodeticCoord, _normalize_lon


class ApexSingularity(NumericalError, ValueError):
    """Plane point coincides with the cone apex; the inverse is undefined."""


class OutOfZone(NumericalError, ValueError):
    """Longitude too far from the UTM central meridian."""


@dataclass(frozen=True)
class PlaneCoord:
    e: float
    n: float

    def __post_init__(self):
        if not (math.isfinite(self.e) and math.isfinite(self.n)):
            raise ValueError(f"non-finite plane coordinate ({self.e}, {self.n})")


@dataclass(frozen=True)
class LambertDef:
    """Tangent Lambert conic with scale reduction factor and false offsets.

    axis_convention selects the raw plane axes: 'standard' has x east /
    y north of the natural origin; 'stt' has x north / y west, with the
    false constants applied as E = false_e - y, N = false_n + x.  The
    final (E, N) pair is identical either way.
    """

    ell: Ellipsoid
    phi0: float
    lam0: float
    k0: float = 1.0
    false_e: float = 0.0
    false_n: float = 0.0
    axis_convention: str = "standard"
    n: float = field(init=False, repr=False)
    r0: float = field(init=False, repr=False)
    l0: float = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < abs(self.phi0) < math.pi / 2:
            raise ValueError("tangent cone needs 0 < |phi0| < pi/2")
        if not 0.99 < self.k0 < 1.01:
            raise ValueError("scale reduction factor out of range")
        if self.axis_convention not in ("standard", "stt"):
            raise ValueError("axis_convention must be 'standard' or 'stt'")
        object.__setattr__(self, "n", math.sin(self.phi0))
        object.__setattr__(
            self,
            "r0",
            prime_vertical_radius(self.ell, self.phi0) / math.tan(self.phi0),
        )
        object.__setattr__(self, "l0", isometric_latitude(self.ell, self.phi0))


def _lambert_polar(d: LambertDef, g: GeodeticCoord) -> tuple:
    omega = (_normalize_lon(g.lam - d.lam0)) * d.n
    iso = isometric_latitude(d.ell, g.phi)
    radius = d.r0 * math.exp(-d.n * (iso - d.l0))
    return radius, omega


def lambert_raw_xy(d: LambertDef, g: GeodeticCoord) -> tuple:
    """Plane coordinates before the false offsets, per the axis convention."""
    radius, omega = _lambert_polar(d, g)
    x_east = d.k0 * radius * math.sin(omega)
    y_north = d.k0 * (d.r0 - radius * math.cos(omega))
    if d.axis_convention == "stt":
        return y_north, -x_east  # x north, y west
    return x_east, y_north


def lambert_forward(d: LambertDef, g: GeodeticCoord) -> PlaneCoord:
    x, y = lambert_raw_xy(d, g)
    if d.axis_convention == "stt":
        return PlaneCoord(d.false_e - y, d.false_n + x)
    return PlaneCoord(d.false_e + x, d.false_n + y)


def lambert_inverse(d: LambertDef, p: PlaneCoord) -> GeodeticCoord:
    x = (p.e - d.false_e) / d.k0
    y = (p.n - d.false_n) / d.k0
    # sign(r0) carries the cone orientation (southern cones have r0 < 0)
    s = math.copysign(1.0, d.r0)
    radius = math.hypot(x, d.r0 - y)
    if radius < 1e-6:
        raise ApexSingularity("point at the cone apex")
    omega = math.atan2(s * x, s * (d.r0 - y))
    lam = d.lam0 + omega / d.n
    iso = d.l0 + math.log(abs(d.r0) / radius) / d.n
    phi = latitude_from_isometric(d.ell, iso)
    return GeodeticCoord(phi, lam, 0.0)


def lambert_scale(d: LambertDef, phi: float) -> float:
    """Point scale factor m(phi) = k0 sin(phi0) R(phi) / (N(phi) cos(phi))."""
    iso = isometric_latitude(d.ell, phi)
    radius = d.r0 * math.exp(-d.n * (iso - d.l0))
    return d.k0 * d.n * radius / (prime_vertical_radius(d.ell, phi) * math.cos(phi))


def lambert_convergence(d: LambertDef, lam: float) -> float:
    """Meridian convergence gamma = (lam - lam0) sin(phi0)."""
    return _normalize_lon(lam - d.lam0) * d.n


def lambert_arc_to_chord(d: LambertDef, p1: GeodeticCoord, p2: GeodeticCoord) -> float:
    """Arc-to-chord correction at p1 for the sight p1 -> p2, radians (signed).

    The correction is half the chord length times the curvature of the
    projected geodesic evaluated at the point one third of the way from p1,
    where the image curvature is (R0 - R)/ (N0 rho0) per unit easting.
    The returned value is added to the grid bearing of the curve tangent to
    obtain the chord bearing (G = Az - gamma + Dv convention).
    """
    phi_t = p1.phi + (p2.phi - p1.phi) / 3.0
    lam_t = p1.lam + _normalize_lon(p2.lam - p1.lam) / 3.0
    radius_t, _ = _lambert_polar(d, GeodeticCoord(phi_t, lam_t))
    n0 = prime_vertical_radius(d.ell, d.phi0)
    rho0 = meridian_radius(d.ell, d.phi0)
    q1 = lambert_forward(d, p1)
    q2 = lambert_forward(d, p2)
    de = q2.e - q1.e
    # K in 1/km with lengths in km; K * d(easting)_km is in sexagesimal seconds
    k_factor = 0.5 * ((d.r0 - radius_t) / 1000.0) / (
        (n0 / 1000.0) * (rho0 / 1000.0) * math.sin(ARCSEC)
    )
    return k_factor * (de / 1000.0) * ARCSEC


@dataclass(frozen=True)
class UtmDef:
    """Transverse Mercator in 6-degree zones (k0 = 0.9996, 500 km false easting)."""

    ell: Ellipsoid
    lam0: float
    k0: float = 0.9996
    false_e: float = 500000.0
    false_n: float = 0.0

    @classmethod
    def from_zone(
        cls, ell: Ellipsoid, zone: int, k0: float = 0.9996, southern: bool = False
    ) -> "UtmDef":
        if not 1 <= zone <= 60:
            raise ValueError("UTM zone must be in 1..60")
        lam0 = math.radians(6.0 * zone - 183.0)
        return cls(ell, lam0, k0, 500000.0, 10000000.0 if southern else 0.0)

    @property
    def zone(self) -> int:
        return int(round((math.degrees(self.lam0) + 183.0) / 6.0))


_MAX_ZONE_HALF_WIDTH = math.radians(3.5)


def _utm_direct_coeffs(ell: Ellipsoid, phi: float) -> tuple:
    """Series coefficients a1..a8 of the direct transverse Mercator mapping."""
    n = prime_vertical_radius(ell, phi)
    c = math.cos(phi)
    s = math.sin(phi)
    t2 = math.tan(phi) ** 2
    eta2 = ell.ep2 * c * c
    eta4 = eta2 * eta2
    a1 = n * c
    a2 = -0.5 * n * c * s
    a3 = -(n * c**3 / 6.0) * (1.0 + eta2 - t2)
    a4 = (n * c**3 * s / 24.0) * (5.0 - t2 + 9.0 * eta2 + 4.0 * eta4)
    a5 = (n * c**5 / 120.0) * (
        5.0 - 18.0 * t2 + t2 * t2 + 14.0 * eta2 - 58.0 * eta2 * t2 + 13.0 * eta4
    )
    a6 = -(n * c**5 * s / 720.0) * (
        61.0 - 58.0 * t2 + t2 * t2 + 270.0 * eta2 - 330.0 * t2 * eta2
        + 200.0 * eta4 - 232.0 * t2 * eta4
    )
    a7 = -(n * c**7 / 5040.0) * (
        61.0 + 131.0 * t2 + 179.0 * t2 * t2 + 331.0 * eta2 - 3298.0 * t2 * eta2
    )
    a8 = (n * c**7 * s / 40320.0) * (
        165.0 - 61.0 * t2 + 537.0 * t2 * t2 + 9679.0 * eta2 - 23278.0 * t2 * eta2
        + 9244.0 * eta4 + 358.0 * t2 * t2 * eta2 - 19788.0 * t2 * eta4
    )
    return a1, a2, a3, a4, a5, a6, a7, a8


def utm_forward(d: UtmDef, g: GeodeticCoord) -> PlaneCoord:
    lam = _normalize_lon(g.lam - d.lam0)
    if abs(lam) > _MAX_ZONE_HALF_WIDTH:
        raise OutOfZone(f"longitude {lam} rad from the central meridian")
    a1, a2, a3, a4, a5, a6, a7, a8 = _utm_direct_coeffs(d.ell, g.phi)
    x = a1 * lam - a3 * lam**3 + a5 * lam**5 - a7 * lam**7
    y = (meridian_arc(d.ell, g.phi) - a2 * lam**2 + a4 * lam**4
         - a6 * lam**6 + a8 * lam**8)
    return PlaneCoord(d.k0 * x + d.false_e, d.k0 * y + d.false_n)


def utm_footpoint_latitude(
    d: UtmDef, y: float, tol: float = 1e-13, max_iter: int = 50
) -> float:
    """Latitude whose meridian arc equals y, by Newton (d beta / d phi = rho)."""
    phi = y / (d.ell.a * (1.0 - d.ell.e2))
    for _ in range(max_iter):
        delta = (meridian_arc(d.ell, phi) - y) / meridian_radius(d.ell, phi)
        phi -= delta
        if abs(delta) < tol:
            return phi
    raise NonConvergence("utm_footpoint_latitude: Newton did not converge")


def utm_inverse(d: UtmDef, p: PlaneCoord) -> GeodeticCoord:
    x = (p.e - d.false_e) / d.k0
    y = (p.n - d.false_n) / d.k0
    phi_f = utm_footpoint_latitude(d, y)
    n = prime_vertical_radius(d.ell, phi_f)
    c = math.cos(phi_f)
    t = math.tan(phi_f)
    t2 = t * t
    eta2 = d.ell.ep2 * c * c
    b1 = 1.0 / (n * c)
    b2 = t / (2.0 * n**2 * c)
    b3 = (1.0 + 2.0 * t2 + eta2) / (6.0 * n**3 * c)
    b4 = t * (5.0 + 6.0 * t2 + eta2 - 4.0 * eta2 * eta2) / (24.0 * n**4 * c)
    b5 = (5.0 + 28.0 * t2 + 6.0 * eta2 + 24.0 * t2 * t2 + 8.0 * eta2 * t2) / (
        120.0 * n**5 * c
    )
    b6 = t * (61.0 + 180.0 * t2 + 46.0 * eta2 + 120.0 * t2 * t2 + 48.0 * eta2 * t2) / (
        720.0 * n**6 * c
    )
    b7 = (61.0 + 622.0 * t2 + 107.0 * eta2 + 1320.0 * t2 * t2
          + 1538.0 * eta2 * t2 + 46.0 * eta2 * eta2) / (5040.0 * n**7 * c)
    lam = d.lam0 + b1 * x - b3 * x**3 + b5 * x**5 - b7 * x**7
    iso = (isometric_latitude(d.ell, phi_f) - b2 * x**2 + b4 * x**4 - b6 * x**6)
    phi = latitude_from_isometric(d.ell, iso)
    return GeodeticCoord(phi, lam, 0.0)


def utm_scale(d: UtmDef, g: GeodeticCoord) -> float:
    """m = k0 sqrt(1 + dlam^2 (1 + e'^2 cos^2 phi) cos^2 phi)."""
    lam = _normalize_lon(g.lam - d.lam0)
    c2 = math.cos(g.phi) ** 2
    return d.k0 * math.sqrt(1.0 + lam * lam * (1.0 + d.ell.ep2 * c2) * c2)


def utm_convergence(d: UtmDef, g: GeodeticCoord) -> float:
    """Meridian convergence: tan(gamma) = (lam - lam0) sin(phi)."""
    return math.atan(_normalize_lon(g.lam - d.lam0) * math.sin(g.phi))


def tissot_moduli(forward, ell: Ellipsoid, g: GeodeticCoord, h: float = 1e-6) -> tuple:
    """Central-difference scale factors along the meridian and the parallel.

    ``forward`` maps GeodeticCoord -> PlaneCoord.  For a conformal mapping
    the two moduli agree to the truncation error of the differences.
    """
    pn = forward(GeodeticCoord(g.phi + h, g.lam))
    ps = forward(GeodeticCoord(g.phi - h, g.lam))
    pe = forward(GeodeticCoord(g.phi, g.lam + h))
    pw = forward(GeodeticCoord(g.phi, g.lam - h))
    ds_meridian = 2.0 * h * meridian_radius(ell, g.phi)
    ds_parallel = 2.0 * h * prime_vertical_radius(ell, g.phi) * math.cos(g.phi)
    m_meridian = math.hypot(pn.e - ps.e, pn.n - ps.n) / ds_meridian
    m_parallel = math.hypot(pe.e - pw.e, pe.n - pw.n) / ds_parallel
    return m_meridian, m_parallel


# National presets: the two Tunisian tangent Lambert zones share the
# 11 gr origin meridian and the 500 km / 300 km false constants.
def _lambert_nord_tn() -> LambertDef:
    return LambertDef(
        ell=get_ellipsoid("clarke-1880-fr"),
        phi0=40.0 * math.pi / 200.0,
        lam0=11.0 * math.pi / 200.0,
        k0=0.999625544,
        false_e=500000.0,
        false_n=300000.0,
        axis_convention="stt",
    )


def _lambert_sud_tn() -> LambertDef:
    return LambertDef(
        ell=get_ellipsoid("clarke-1880-fr"),
        phi0=37.0 * math.pi / 200.0,
        lam0=11.0 * math.pi / 200.0,
        k0=0.999625769,
        false_e=500000.0,
        false_n=300000.0,
        axis_convention="stt",
    )


_UTM_RE = re.compile(r"^utm:(\d{1,2})(s?)$")


def named_projection(name: str, ell: Ellipsoid | None = None):
    """Resolve a projection preset name to a LambertDef or UtmDef.

    Names: ``lambert-nord-tn``, ``lambert-sud-tn`` and ``utm:<zone>``
    (optionally ``utm:<zone>s`` for the southern hemisphere).  UTM presets
    default to the Clarke 1880 French ellipsoid unless one is supplied.
    """
    key = name.strip().lower()
    if key == "lambert-nord-tn":
        return _lambert_nord_tn()
    if key == "lambert-sud-tn":
        return _lambert_sud_tn()
    m = _UTM_RE.match(key)
    if m:
        return UtmDef.from_zone(
            ell or get_ellipsoid("clarke-1880-fr"),
            int(m.group(1)),
            southern=bool(m.group(2)),
        )
    raise KeyError(f"unknown projection {name!r}")


def list_projections() -> list:
    return ["lambert-nord-tn", "lambert-sud-tn", "utm:<zone>[s]"]


def projection_to_json(d) -> str:
    if isinstance(d, LambertDef):
        doc = {
            "type": "lambert",
            "ellipsoid": {"a": d.ell.a, "inv_f": d.ell.inv_f, "name": d.ell.name},
            "phi0_rad": d.phi0,
            "lam0_rad": d.lam0,
            "k0": d.k0,
            "false_e": d.false_e,
            "false_n": d.false_n,
            "axis_convention": d.axis_convention,
        }
    elif isinstance(d, UtmDef):
        doc = {
            "type": "utm",
            "ellipsoid": {"a": d.ell.a, "inv_f": d.ell.inv_f, "name": d.ell.name},
            "lam0_rad": d.lam0,
            "k0": d.k0,
            "false_e": d.false_e,
            "false_n": d.false_n,
        }
    else:
        raise TypeError(f"not a projection definition: {d!r}")
    return json.dumps(doc, indent=2)


def projection_from_json(text: str):
    doc = json.loads(text)
    e = doc["ellipsoid"]
    ell = Ellipsoid.from_a_inv_f(e.get("name", "custom"), e["a"], e["inv_f"])
    if doc["type"] == "lambert":
        return LambertDef(
            ell=ell,
            phi0=doc["phi0_rad"],
            lam0=doc["lam0_rad"],
            k0=doc.get("k0", 1.0),
            false_e=doc.get("false_e", 0.0),
            false_n=doc.get("false_n", 0.0),
            axis_convention=doc.get("axis_convention", "standard"),
        )
    if doc["type"] == "utm":
        return UtmDef(
            ell=ell,
            lam0=doc["lam0_rad"],
            k0=doc.get("k0", 0.9996),
            false_e=doc.get("false_e", 500000.0),
            false_n=doc.get("false_n", 0.0),
        )
    raise ValueError(f"unknown projection type {doc['type']!r}")
