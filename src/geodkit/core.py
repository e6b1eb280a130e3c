"""Angle handling, reference ellipsoids and latitude/arc functions.

Every quantity crossing a function boundary in this package is in SI units
and radians.  Grads, degrees, decimilligrads and hour angles exist only at
the I/O boundary, through the :class:`Angle` helper.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass


class NumericalError(ArithmeticError):
    """A computation that cannot proceed on its (valid) input.

    Base of every error class in geodkit: singular or degenerate geometry,
    non-convergence, points outside a formula's domain.  Each subclass also
    keeps a builtin base (ValueError or RuntimeError) for callers that catch
    that.  The CLI exits with code 3 on any ArithmeticError.
    """


class NonConvergence(NumericalError, RuntimeError):
    """An iterative scheme failed to reach its tolerance within its cap."""


# exact unit definitions: 400 gr = 360 deg = 24 h = 2*pi rad
GRAD = math.pi / 200.0
DEG = math.pi / 180.0
DMGR = 1e-4 * GRAD
HOUR = 15.0 * DEG
ARCSEC = DEG / 3600.0

# radians per unit, keyed by the tag used in angle literals, CSV headers and
# parameter files
ANGLE_UNITS = {"gr": GRAD, "deg": DEG, "rad": 1.0, "dmgr": DMGR, "arcsec": ARCSEC}

_ANGLE_RE = re.compile(
    rf"""^\s*(?P<sign>[+-]?)\s*(?:
        (?P<hms>(?P<h>\d+(?:\.\d+)?)h(?:\s*(?P<hm>\d+(?:\.\d+)?)m(?:n)?)?(?:\s*(?P<hs>\d+(?:\.\d+)?)s)?) |
        (?P<dms>(?P<d>\d+(?:\.\d+)?)(?:°|d)(?:\s*(?P<dm>\d+(?:\.\d+)?)')?(?:\s*(?P<ds>\d+(?:\.\d+)?)(?:"|''))?) |
        (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*(?P<unit>{'|'.join(ANGLE_UNITS)})?
    )\s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Angle:
    """An angle stored in radians, convertible to the units used in the field.

    ``Angle.parse`` accepts suffixed literals such as ``"40.0gr"``,
    ``"36°54'"``, ``"12.5dmgr"`` and ``"2h13m52.9s"``; minutes and seconds
    must be below 60 and the value finite.
    """

    rad: float

    @classmethod
    def from_gr(cls, gr: float) -> "Angle":
        return cls(gr * GRAD)

    @classmethod
    def from_deg(cls, deg: float) -> "Angle":
        return cls(deg * DEG)

    @classmethod
    def from_dmgr(cls, dmgr: float) -> "Angle":
        return cls(dmgr * DMGR)

    @classmethod
    def from_hours(cls, hours: float) -> "Angle":
        return cls(hours * HOUR)

    @property
    def gr(self) -> float:
        return self.rad / GRAD

    @property
    def deg(self) -> float:
        return self.rad / DEG

    @property
    def dmgr(self) -> float:
        return self.rad / DMGR

    @property
    def hours(self) -> float:
        return self.rad / HOUR

    def __float__(self) -> float:
        return self.rad

    @classmethod
    def parse(cls, text: str) -> "Angle":
        m = _ANGLE_RE.match(text)
        if not m:
            raise ValueError(f"unparseable angle: {text!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        if m.group("num"):
            rad = float(m.group("num")) * ANGLE_UNITS[m.group("unit") or "rad"]
        else:
            hms = bool(m.group("hms"))
            whole, mnt, sec = m.group("h", "hm", "hs") if hms else m.group("d", "dm", "ds")
            mnt, sec = float(mnt or 0.0), float(sec or 0.0)
            if not (mnt < 60.0 and sec < 60.0):
                raise ValueError(f"minutes and seconds must be below 60: {text!r}")
            rad = (float(whole) + mnt / 60.0 + sec / 3600.0) * (HOUR if hms else DEG)
        if not math.isfinite(rad):
            raise ValueError(f"angle out of range: {text!r}")
        return cls(sign * rad)

    def format_hours(self, decimals: int = 2) -> str:
        return format_hours(self.hours, decimals)

    def format_sexagesimal(self, decimals: int = 2) -> str:
        sign = "-" if self.rad < 0 else ""
        total = abs(self.deg)
        d = int(total)
        mnt = (total - d) * 60.0
        mi = int(mnt)
        s = (mnt - mi) * 60.0
        if round(s, decimals) >= 60.0:  # carry after rounding
            s = 0.0
            mi += 1
        if mi >= 60:
            mi = 0
            d += 1
        return f"{sign}{d}°{mi:02d}'{s:0{3 + decimals}.{decimals}f}\""


def format_hours(hours: float, decimals: int = 2) -> str:
    """Render decimal hours as ``4h23m26.82s``."""
    sign = "-" if hours < 0 else ""
    total = abs(hours)
    h = int(total)
    mnt = (total - h) * 60.0
    m = int(mnt)
    s = (mnt - m) * 60.0
    if round(s, decimals) >= 60.0:
        s = 0.0
        m += 1
    if m >= 60:
        m = 0
        h += 1
    return f"{sign}{h}h{m:02d}m{s:0{3 + decimals}.{decimals}f}s"


@dataclass(frozen=True)
class Ellipsoid:
    """Reference ellipsoid of revolution, defined by (a, f).

    Derived quantities are always recomputed from (a, f):
    e2 = f(2-f), ep2 = e2/(1-e2), b = a(1-f).
    """

    name: str
    a: float
    f: float

    def __post_init__(self):
        if self.a <= 0 or not (0 <= self.f < 1):
            raise ValueError(f"invalid ellipsoid parameters a={self.a}, f={self.f}")

    @property
    def b(self) -> float:
        return self.a * (1.0 - self.f)

    @property
    def e2(self) -> float:
        return self.f * (2.0 - self.f)

    @property
    def e(self) -> float:
        return math.sqrt(self.e2)

    @property
    def ep2(self) -> float:
        return self.e2 / (1.0 - self.e2)

    @property
    def inv_f(self) -> float:
        return 1.0 / self.f if self.f else math.inf

    @classmethod
    def from_a_inv_f(cls, name: str, a: float, inv_f: float) -> "Ellipsoid":
        return cls(name, a, 1.0 / inv_f)

    @classmethod
    def from_a_b(cls, name: str, a: float, b: float) -> "Ellipsoid":
        return cls(name, a, (a - b) / a)

    @classmethod
    def from_a_e2(cls, name: str, a: float, e2: float) -> "Ellipsoid":
        return cls(name, a, 1.0 - math.sqrt(1.0 - e2))

    @classmethod
    def sphere(cls, radius: float = 6378000.0, name: str = "sphere") -> "Ellipsoid":
        return cls(name, radius, 0.0)


# Registry of classical ellipsoids.  Each entry is built from the parameters
# historically used to define it; the remaining values are derived.
_REGISTRY_DEFS = [
    ("clarke-1880-fr", "Clarke 1880 French", "ab", 6378249.200, 6356515.000),
    ("clarke-1880-en", "Clarke 1880 English", "invf", 6378249.145, 293.46500),
    ("hayford", "Hayford 1909 (International 1924)", "invf", 6378388.000, 297.00000),
    ("krassovsky", "Krassovsky", "invf", 6378245.000, 298.30000),
    ("grs67", "GRS 1967", "e2", 6378160.000, 0.0066946053),
    ("nwl8", "NWL 8", "invf", 6378145.000, 298.25000),
    ("wgs72", "WGS 72", "invf", 6378135.000, 298.26000),
    ("iag75", "IAG 1975", "invf", 6378140.000, 298.25700),
    ("apl", "APL Navigation", "invf", 6378144.000, 298.23000),
    ("grs80", "GRS 1980", "invf", 6378137.000, 298.257222101),
    ("wgs84", "WGS 84", "invf", 6378137.000, 298.257223563),
]

_ALIASES = {
    "international-1924": "hayford",
    "international": "hayford",
    "clarke-1880": "clarke-1880-fr",
}


def _build_registry() -> dict:
    reg = {}
    for key, name, kind, a, second in _REGISTRY_DEFS:
        if kind == "ab":
            ell = Ellipsoid.from_a_b(name, a, second)
        elif kind == "invf":
            ell = Ellipsoid.from_a_inv_f(name, a, second)
        else:
            ell = Ellipsoid.from_a_e2(name, a, second)
        reg[key] = ell
    return reg


REGISTRY = _build_registry()


def get_ellipsoid(name: str) -> Ellipsoid:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown ellipsoid {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def registry_to_json() -> str:
    doc = [{"name": k, "a": e.a, "inv_f": e.inv_f} for k, e in REGISTRY.items()]
    return json.dumps(doc, indent=2)


def registry_from_json(text: str) -> dict:
    doc = json.loads(text)
    return {
        row["name"]: Ellipsoid.from_a_inv_f(row["name"], row["a"], row["inv_f"])
        for row in doc
    }


def prime_vertical_radius(ell: Ellipsoid, phi: float) -> float:
    """Radius of curvature N in the prime vertical, a/sqrt(1 - e2 sin^2 phi)."""
    s = math.sin(phi)
    return ell.a / math.sqrt(1.0 - ell.e2 * s * s)


def meridian_radius(ell: Ellipsoid, phi: float) -> float:
    """Radius of curvature of the meridian, a(1-e2)/(1 - e2 sin^2 phi)^(3/2)."""
    s = math.sin(phi)
    w2 = 1.0 - ell.e2 * s * s
    return ell.a * (1.0 - ell.e2) / (w2 * math.sqrt(w2))


def parametric_latitude(ell: Ellipsoid, phi: float) -> float:
    """Reduced latitude psi with tan(psi) = (b/a) tan(phi), same quadrant as phi."""
    return math.atan2((1.0 - ell.f) * math.sin(phi), math.cos(phi))


def isometric_latitude(ell: Ellipsoid, phi: float) -> float:
    """Conformal latitude variable L(phi); dimensionless.

    L = ln tan(pi/4 + phi/2) - (e/2) ln((1 + e sin phi)/(1 - e sin phi)).
    On a sphere (e = 0) this is the Mercator latitude.
    """
    if abs(phi) >= math.pi / 2:
        raise ValueError("isometric latitude undefined at the poles")
    e = ell.e
    s = math.sin(phi)
    value = math.log(math.tan(math.pi / 4.0 + phi / 2.0))
    if e:
        value -= 0.5 * e * math.log((1.0 + e * s) / (1.0 - e * s))
    return value


def latitude_from_isometric(
    ell: Ellipsoid, iso: float, tol: float = 1e-12, max_iter: int = 50
) -> float:
    """Invert isometric_latitude by fixed-point iteration.

    Each step solves ln tan(pi/4 + phi/2) = iso + (e/2) ln((1+e sin phi_i)/(1-e sin phi_i))
    for the next iterate; stops when successive iterates differ by < tol rad.
    """
    e = ell.e
    phi = 2.0 * math.atan(math.exp(iso)) - math.pi / 2.0
    for _ in range(max_iter):
        s = math.sin(phi)
        corrected = iso
        if e:
            corrected += 0.5 * e * math.log((1.0 + e * s) / (1.0 - e * s))
        nxt = 2.0 * math.atan(math.exp(corrected)) - math.pi / 2.0
        if abs(nxt - phi) < tol:
            return nxt
        phi = nxt
    raise NonConvergence(f"latitude_from_isometric: no convergence for L={iso}")


def meridian_arc_coefficients(ell: Ellipsoid) -> tuple:
    """Series coefficients (C0, C2, ..., C12) of the meridian arc, through e^12."""
    e2 = ell.e2
    e4 = e2 * e2
    e6 = e4 * e2
    e8 = e4 * e4
    e10 = e8 * e2
    e12 = e8 * e4
    c0 = (1.0 + 3.0 / 4.0 * e2 + 45.0 / 64.0 * e4 + 175.0 / 256.0 * e6
          + 11025.0 / 16384.0 * e8 + 43659.0 / 65536.0 * e10
          + 693693.0 / 1048576.0 * e12)
    c2 = -(3.0 / 8.0 * e2 + 15.0 / 32.0 * e4 + 525.0 / 1024.0 * e6
           + 2205.0 / 4096.0 * e8 + 72765.0 / 131072.0 * e10
           + 297297.0 / 524288.0 * e12)
    c4 = (15.0 / 256.0 * e4 + 105.0 / 1024.0 * e6 + 2205.0 / 16384.0 * e8
          + 10395.0 / 65536.0 * e10 + 1486485.0 / 8388608.0 * e12)
    c6 = -(35.0 / 3072.0 * e6 + 315.0 / 12288.0 * e8
           + 31185.0 / 786432.0 * e10 + 165165.0 / 3145728.0 * e12)
    c8 = (315.0 / 131072.0 * e8 + 3465.0 / 524288.0 * e10
          + 99099.0 / 8388608.0 * e12)
    c10 = -(693.0 / 1310720.0 * e10 + 9009.0 / 5242880.0 * e12)
    c12 = 1001.0 / 8388608.0 * e12
    return c0, c2, c4, c6, c8, c10, c12


def meridian_arc(ell: Ellipsoid, phi: float) -> float:
    """Meridian arc length from the equator to latitude phi, metres (signed)."""
    c = meridian_arc_coefficients(ell)
    s = c[0] * phi
    for i, ck in enumerate(c[1:], start=1):
        s += ck * math.sin(2 * i * phi)
    return ell.a * (1.0 - ell.e2) * s


def quarter_meridian(ell: Ellipsoid) -> float:
    return meridian_arc(ell, math.pi / 2.0)
