"""Conformal plane representations: tangent Lambert conic and UTM.

Both families share one pipeline: forward(d, g) and inverse(d, p) map a
point, forward_columns and inverse_columns map numpy columns and mask the
rows where the point form raises.  The pipeline owns the longitude
reduction and the false offsets.  A definition (LambertDef or UtmDef)
supplies only its formulas, as methods: _plane gives the offsets east and
north of the false origin, _in_zone tests the longitude, and _lam_iso
(raising) and _lam_iso_columns (masking) invert the offsets divided by k0.
The point scale factor, the meridian convergence and (for Lambert) the
arc-to-chord correction are per family.  A numerical Tissot check is
provided to verify conformality of any mapping.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields

from .core import (
    ARCSEC,
    Ellipsoid,
    NumericalError,
    Value,
    _prime_vertical_radius,
    _store,
    all_finite,
    get_ellipsoid,
    isometric_latitude,
    json_number,
    latitude_from_arc,
    latitude_from_arc_array,
    latitude_from_isometric,
    latitude_from_isometric_array,
    meridian_arc,
    meridian_radius,
    np,
    npmath,
    parse_json_object,
    prime_vertical_radius,
    quiet,
)
from .coords import GeodeticCoord, _normalize_lon, geodetic_columns


class ApexSingularity(NumericalError, ValueError):
    """Plane point coincides with the cone apex; the inverse is undefined."""


class OutOfZone(NumericalError, ValueError):
    """Longitude too far from the UTM central meridian."""


@dataclass(init=False, repr=False, eq=False)
class PlaneCoord(Value):
    """Plane easting e and northing n (m)."""

    e: float
    n: float

    def __init__(self, e, n):
        if not (math.isfinite(e) and math.isfinite(n)):
            raise ValueError(f"non-finite plane coordinate ({e}, {n})")
        attrs = self.__dict__
        attrs["e"], attrs["n"] = e, n


def _check_scale_and_offsets(k0, false_e, false_n) -> None:
    if not 0.99 < k0 < 1.01:
        raise ValueError("scale reduction factor out of range")
    if not (math.isfinite(false_e) and math.isfinite(false_n)):
        raise ValueError(f"non-finite false offsets ({false_e}, {false_n})")


@dataclass(init=False, repr=False, eq=False)
class LambertDef(Value):
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

    def __init__(self, ell, phi0, lam0, k0=1.0, false_e=0.0, false_n=0.0,
                 axis_convention="standard"):
        if not 0.0 < abs(phi0) < math.pi / 2:
            raise ValueError("tangent cone needs 0 < |phi0| < pi/2")
        _check_scale_and_offsets(k0, false_e, false_n)
        if axis_convention not in ("standard", "stt"):
            raise ValueError("axis_convention must be 'standard' or 'stt'")
        _store(self, ell=ell, phi0=phi0, lam0=lam0, k0=k0, false_e=false_e, false_n=false_n,
               axis_convention=axis_convention, n=math.sin(phi0),
               r0=prime_vertical_radius(ell, phi0) / math.tan(phi0),
               l0=isometric_latitude(ell, phi0))

    def _plane(self, xp, phi, dlam) -> tuple:
        radius = _cone_radius(xp, self, phi)
        omega = dlam * self.n
        x_east = self.k0 * radius * xp.sin(omega)
        y_north = self.k0 * (self.r0 - radius * xp.cos(omega))
        return x_east, y_north

    def _in_zone(self, dlam):
        return True  # the cone maps every longitude

    def _lam_iso(self, x, y) -> tuple:
        radius = math.hypot(x, self.r0 - y)
        if radius < 1e-6:
            raise ApexSingularity("point at the cone apex")
        return _lambert_lam_iso(math, self, x, y, radius)

    def _lam_iso_columns(self, x, y) -> tuple:
        # failed: the apex, or an infinite radius (log of 0)
        radius = np.hypot(x, self.r0 - y)
        lam, iso = _lambert_lam_iso(npmath, self, x, y, radius)
        return lam, iso, (radius < 1e-6) | ~np.isfinite(radius)


def _cone_radius(xp, d: LambertDef, phi):
    """Radius of the image of the parallel phi, R = R0 exp(-n (L(phi) - L0))."""
    iso = isometric_latitude(d.ell, phi)
    return d.r0 * xp.exp(-d.n * (iso - d.l0))


def lambert_raw_xy(d: LambertDef, g: GeodeticCoord) -> tuple:
    """Plane coordinates before the false offsets, per the axis convention."""
    x_east, y_north = d._plane(math, g.phi, _normalize_lon(g.lam - d.lam0))
    if d.axis_convention == "stt":
        return y_north, -x_east  # x north, y west
    return x_east, y_north


def _lambert_lam_iso(xp, d: LambertDef, x, y, radius) -> tuple:
    """Longitude and isometric latitude of the offsets x, y (off the apex)."""
    # sign(r0) carries the cone orientation (southern cones have r0 < 0)
    s = math.copysign(1.0, d.r0)
    omega = xp.atan2(s * x, s * (d.r0 - y))
    lam = d.lam0 + omega / d.n
    iso = d.l0 + xp.log(abs(d.r0) / radius) / d.n
    return lam, iso


def lambert_scale(d: LambertDef, phi: float) -> float:
    """Point scale factor m(phi) = k0 sin(phi0) R(phi) / (N(phi) cos(phi))."""
    radius = _cone_radius(math, d, phi)
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
    radius_t = _cone_radius(math, d, phi_t)
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


_MAX_ZONE_HALF_WIDTH = math.radians(3.5)
# rad: the inverse series' longitude of a point forward puts on the zone edge exceeds it by
# up to 4.6e-10 rad (at every latitude), so the inverse allows twice that beyond the edge
_ZONE_EDGE_SLACK = 1e-9
# |x| beyond which x**7 overflows: the inverse series raises OverflowError there, as ** does
_SERIES_X_MAX = 1.087396515837749e44


@dataclass(init=False, repr=False, eq=False)
class UtmDef(Value):
    """Transverse Mercator in 6-degree zones (k0 = 0.9996, 500 km false easting)."""

    ell: Ellipsoid
    lam0: float
    k0: float = 0.9996
    false_e: float = 500000.0
    false_n: float = 0.0

    def __init__(self, ell, lam0, k0=0.9996, false_e=500000.0, false_n=0.0):
        _check_scale_and_offsets(k0, false_e, false_n)
        _store(self, ell=ell, lam0=lam0, k0=k0, false_e=false_e, false_n=false_n)

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

    def _plane(self, xp, phi, dlam) -> tuple:
        a1, a2, a3, a4, a5, a6, a7, a8 = _utm_direct_coeffs(self.ell, phi)
        l2 = dlam * dlam
        x = dlam * (a1 - l2 * (a3 - l2 * (a5 - l2 * a7)))
        y = meridian_arc(self.ell, phi) - l2 * (a2 - l2 * (a4 - l2 * (a6 - l2 * a8)))
        return self.k0 * x, self.k0 * y

    def _in_zone(self, dlam):
        return abs(dlam) <= _MAX_ZONE_HALF_WIDTH

    def _lam_iso(self, x, y) -> tuple:
        phi_f = utm_footpoint_latitude(self, y)
        if not abs(phi_f) < math.pi / 2:
            raise OutOfZone(f"northing {y} m reaches the pole")
        if abs(x) > _SERIES_X_MAX:
            raise OverflowError(f"offset {x} m overflows the inverse series")
        lam, iso, wide = _utm_inverse_series(math, self, x, phi_f)
        if wide:
            raise OutOfZone(f"offset {x} m from the central meridian at latitude {phi_f}")
        return lam, iso

    def _lam_iso_columns(self, x, y) -> tuple:
        # failed: the footpoint fails, x overflows the series, or the point is out of the zone
        phi_f, failed = latitude_from_arc_array(self.ell, y)
        failed |= (np.abs(x) > _SERIES_X_MAX) | ~(np.abs(phi_f) < math.pi / 2)
        lam, iso, wide = _utm_inverse_series(npmath, self, x, phi_f)
        return lam, iso, failed | wide


def _utm_direct_coeffs(ell: Ellipsoid, phi) -> tuple:
    """Series coefficients a1..a8 of the direct transverse Mercator mapping."""
    xp = npmath if type(phi) is not float and type(phi) is np.ndarray else math
    n = _prime_vertical_radius(xp, ell, phi)
    c = xp.cos(phi)
    s = xp.sin(phi)
    t = xp.tan(phi)
    t2 = t * t
    c2 = c * c
    eta2 = ell.ep2 * c2
    eta4 = eta2 * eta2
    a1 = n * c
    a2 = -0.5 * n * c * s
    a3 = -(a1 * c2 / 6.0) * (1.0 + eta2 - t2)
    a4 = (a1 * c2 * s / 24.0) * (5.0 - t2 + 9.0 * eta2 + 4.0 * eta4)
    a5 = (a1 * c2 * c2 / 120.0) * (
        5.0 - 18.0 * t2 + t2 * t2 + 14.0 * eta2 - 58.0 * eta2 * t2 + 13.0 * eta4
    )
    a6 = -(a1 * c2 * c2 * s / 720.0) * (
        61.0 - 58.0 * t2 + t2 * t2 + 270.0 * eta2 - 330.0 * t2 * eta2
        + 200.0 * eta4 - 232.0 * t2 * eta4
    )
    a7 = -(a1 * c2 * c2 * c2 / 5040.0) * (
        61.0 + 131.0 * t2 + 179.0 * t2 * t2 + 331.0 * eta2 - 3298.0 * t2 * eta2
    )
    a8 = (a1 * c2 * c2 * c2 * s / 40320.0) * (
        165.0 - 61.0 * t2 + 537.0 * t2 * t2 + 9679.0 * eta2 - 23278.0 * t2 * eta2
        + 9244.0 * eta4 + 358.0 * t2 * t2 * eta2 - 19788.0 * t2 * eta4
    )
    return a1, a2, a3, a4, a5, a6, a7, a8


def utm_footpoint_latitude(d: UtmDef, y: float) -> float:
    """Latitude whose meridian arc equals y: core.latitude_from_arc on d's ellipsoid."""
    return latitude_from_arc(d.ell, y)


def _utm_inverse_series(xp, d: UtmDef, x, phi_f) -> tuple:
    """Longitude and isometric latitude of a point x east of footpoint latitude
    phi_f, as series in u = x / N(phi_f), and whether the point is out of the zone: by
    the series' longitude, or, where the series runs wild near the pole, by its first term
    u / cos(phi_f) beyond twice the zone (that term exceeds the longitude by 6e-4 or more)."""
    c = xp.cos(phi_f)
    t = xp.tan(phi_f)
    t2 = t * t
    eta2 = d.ell.ep2 * c * c
    u = x / _prime_vertical_radius(xp, d.ell, phi_f)
    u2 = u * u
    b3 = (1.0 + 2.0 * t2 + eta2) / 6.0
    b4 = (5.0 + 6.0 * t2 + eta2 - 4.0 * eta2 * eta2) / 24.0
    b5 = (5.0 + 28.0 * t2 + 6.0 * eta2 + 24.0 * t2 * t2 + 8.0 * eta2 * t2) / 120.0
    b6 = (61.0 + 180.0 * t2 + 46.0 * eta2 + 120.0 * t2 * t2 + 48.0 * eta2 * t2) / 720.0
    b7 = (61.0 + 622.0 * t2 + 107.0 * eta2 + 1320.0 * t2 * t2
          + 1538.0 * eta2 * t2 + 46.0 * eta2 * eta2) / 5040.0
    first = u / c
    dlam = first * (1.0 - u2 * (b3 - u2 * (b5 - u2 * b7)))
    iso = isometric_latitude(d.ell, phi_f) - t / c * u2 * (0.5 - u2 * (b4 - u2 * b6))
    wide = ((abs(first) > 2.0 * _MAX_ZONE_HALF_WIDTH)
            | (abs(dlam) > _MAX_ZONE_HALF_WIDTH + _ZONE_EDGE_SLACK))
    return d.lam0 + dlam, iso, wide


# -- the shared pipeline ---------------------------------------------------------
def forward(d, g: GeodeticCoord) -> PlaneCoord:
    """Plane coordinates of g under the definition d (LambertDef or UtmDef)."""
    dlam = _normalize_lon(g.lam - d.lam0)
    if not d._in_zone(dlam):
        raise OutOfZone(f"longitude {dlam} rad from the central meridian")
    x, y = d._plane(math, g.phi, dlam)
    return PlaneCoord(d.false_e + x, d.false_n + y)


@quiet
def forward_columns(d, phi, lam) -> tuple:
    """Array form of forward over columns: (e, n, failed).

    failed marks the rows where forward raises: an input GeodeticCoord
    rejects, a longitude out of the zone, or a non-finite result.
    """
    phi, lam, ok = geodetic_columns(phi, lam)
    dlam = _normalize_lon(lam - d.lam0)
    x, y = d._plane(npmath, phi, dlam)
    e, n = d.false_e + x, d.false_n + y
    return e, n, ~(ok & d._in_zone(dlam) & all_finite(e, n))


def inverse(d, p: PlaneCoord) -> GeodeticCoord:
    """Geodetic coordinates (height 0) of p under the definition d."""
    lam, iso = d._lam_iso((p.e - d.false_e) / d.k0, (p.n - d.false_n) / d.k0)
    return GeodeticCoord(latitude_from_isometric(d.ell, iso), lam, 0.0)


@quiet
def inverse_columns(d, e, n) -> tuple:
    """Array form of inverse over columns: (phi, lam, failed).

    failed marks the rows where inverse raises: a non-finite input
    (PlaneCoord), a point the family's _lam_iso rejects, a latitude
    iteration that fails, or a result GeodeticCoord rejects.
    """
    e, n = np.asarray(e, dtype=float), np.asarray(n, dtype=float)
    ok = all_finite(e, n)
    # non-finite rows go in as infinite offsets, which both families fail at once
    x = np.where(ok, e - d.false_e, np.inf) / d.k0
    y = np.where(ok, n - d.false_n, np.inf) / d.k0
    lam, iso, failed = d._lam_iso_columns(x, y)
    phi, iso_failed = latitude_from_isometric_array(d.ell, np.where(failed, np.nan, iso))
    phi, lam, valid = geodetic_columns(phi, lam)
    return phi, lam, ~(ok & valid) | failed | iso_failed


# the family-named forms, each a function of its own: perfbench's tracer
# counts the calls of a function under every name bound to it
def lambert_forward(d: LambertDef, g: GeodeticCoord) -> PlaneCoord:
    return forward(d, g)


def lambert_inverse(d: LambertDef, p: PlaneCoord) -> GeodeticCoord:
    return inverse(d, p)


def utm_forward(d: UtmDef, g: GeodeticCoord) -> PlaneCoord:
    return forward(d, g)


def utm_inverse(d: UtmDef, p: PlaneCoord) -> GeodeticCoord:
    return inverse(d, p)


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


# National presets, as (phi0 in gr, k0): the two Tunisian tangent Lambert
# zones share the 11 gr origin meridian and the 500 km / 300 km false
# constants.
_LAMBERT_PRESETS = {
    "lambert-nord-tn": (40.0, 0.999625544),
    "lambert-sud-tn": (37.0, 0.999625769),
}
_UTM_RE = re.compile(r"^utm:(\d{1,2})(s?)$")


def named_projection(name: str, ell: Ellipsoid | None = None):
    """Resolve a projection preset name to a LambertDef or UtmDef.

    Names: ``lambert-nord-tn``, ``lambert-sud-tn`` and ``utm:<zone>``
    (optionally ``utm:<zone>s`` for the southern hemisphere).  UTM presets
    default to the Clarke 1880 French ellipsoid unless one is supplied.
    The Lambert presets are defined on that ellipsoid: any other ``ell``
    is a ValueError.
    """
    key = name.strip().lower()
    clarke = get_ellipsoid("clarke-1880-fr")
    if key in _LAMBERT_PRESETS:
        if ell is not None and ell != clarke:
            raise ValueError(f"projection {name!r} is defined on {clarke.name}, not {ell.name}")
        phi0_gr, k0 = _LAMBERT_PRESETS[key]
        return LambertDef(
            ell=clarke,
            phi0=phi0_gr * math.pi / 200.0,
            lam0=11.0 * math.pi / 200.0,
            k0=k0,
            false_e=500000.0,
            false_n=300000.0,
            axis_convention="stt",
        )
    m = _UTM_RE.match(key)
    if m:
        return UtmDef.from_zone(
            ell or clarke,
            int(m.group(1)),
            southern=bool(m.group(2)),
        )
    raise KeyError(f"unknown projection {name!r}")


def list_projections() -> list:
    return [*_LAMBERT_PRESETS, "utm:<zone>[s]"]


# JSON documents: the family's type name, the ellipsoid, then one key per
# defining field, named as the field but for the two angles
_FAMILIES = {"lambert": LambertDef, "utm": UtmDef}
_JSON_KEYS = {"phi0": "phi0_rad", "lam0": "lam0_rad"}


def _json_fields(cls) -> list:
    """(field, JSON key) of each defining field of cls but the ellipsoid."""
    return [(f, _JSON_KEYS.get(f.name, f.name))
            for f in fields(cls) if f.init and f.name != "ell"]


def projection_to_json(d) -> str:
    import json

    kind = next((k for k, cls in _FAMILIES.items() if isinstance(d, cls)), None)
    if kind is None:
        raise TypeError(f"not a projection definition: {d!r}")
    doc = {"type": kind, "ellipsoid": {"a": d.ell.a, "inv_f": d.ell.inv_f, "name": d.ell.name}}
    doc.update((key, getattr(d, f.name)) for f, key in _json_fields(type(d)))
    return json.dumps(doc, indent=2)


def projection_from_json(text: str):
    doc = parse_json_object(text)
    e = doc["ellipsoid"]
    if not isinstance(e, dict):
        raise ValueError("'ellipsoid' must be a JSON object")
    ell = Ellipsoid.from_a_inv_f(
        e.get("name", "custom"), json_number(e, "a"), json_number(e, "inv_f")
    )
    # compared, not looked up, so that an unhashable type is a ValueError too
    cls = next((c for k, c in _FAMILIES.items() if doc["type"] == k), None)
    if cls is None:
        raise ValueError(f"unknown projection type {doc['type']!r}")
    values = {}
    for f, key in _json_fields(cls):
        default = None if f.default is MISSING else f.default
        values[f.name] = (json_number(doc, key, default) if f.type == "float"
                          else doc.get(key, default))
    return cls(ell=ell, **values)
