"""Angle handling, reference ellipsoids and latitude/arc functions.

Every quantity crossing a function boundary in this package is in SI units
and radians.  Grads, degrees, decimilligrads and hour angles exist only at
the I/O boundary, through the :class:`Angle` helper.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields


def _lazy_numpy():
    """numpy as loaded already, or a module that loads it on its first
    attribute use (importlib.util.LazyLoader): a call that never touches an
    array never imports numpy.  Every module of the package takes np from here."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:  # not installed: raise numpy's own ModuleNotFoundError
        return importlib.import_module("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


class NumericalError(ArithmeticError):
    """A computation that cannot proceed on its (valid) input.

    Base of every error class in geodkit: singular or degenerate geometry,
    non-convergence, points outside a formula's domain.  Each subclass also
    keeps a builtin base (ValueError or RuntimeError) for callers that catch
    that.  The CLI exits with code 3 on any ArithmeticError.
    """


class NonConvergence(NumericalError, RuntimeError):
    """An iterative scheme failed to reach its tolerance within its cap."""


class Value:
    """Equality, hashing and repr over the fields that dataclasses.fields()
    marks compare or repr, and FrozenInstanceError on assignment or deletion.

    A value type is declared by subclassing Value, with a docstring and a
    hand-written __init__; __init_subclass__ makes it a dataclass that
    compiles no method (a frozen dataclass execs five or six at import).
    __init__ stores by object.__setattr__ (_store), except in the value types
    a scalar call builds, which write __dict__ (_NpMath).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        dataclass(cls, init=False, repr=False, eq=False)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in _value_fields(self.__class__)[0]])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in _value_fields(self.__class__)[1])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@functools.cache
def _value_fields(cls) -> tuple:
    """The names of cls's compared fields and of its shown fields."""
    return (tuple(f.name for f in fields(cls) if f.compare),
            tuple(f.name for f in fields(cls) if f.repr))


def _store(obj, **values) -> None:
    """Set the fields of a Value under construction."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


class _NpMath:
    """numpy's elementwise functions under the names of the math module.

    Each formula is written once against a namespace xp, math for floats
    and npmath for arrays, so the scalar API keeps its math results and the
    array kernels run the same expression.  A public formula picks xp from
    its argument, ``xp = npmath if type(phi) is np.ndarray else math``; a
    private helper such as _prime_vertical_radius takes xp from its caller.
    The value types a scalar call builds fill __dict__ directly, not by one
    object.__setattr__ per field.  These two rules cut a point through the
    benchmark's nine library kernels from 58.0 to 55.7 us.

    np loads numpy on its first use (_lazy_numpy), so each such type test
    asks ``type(phi) is not float`` first: a float call never touches np,
    and so never loads numpy, and any other type dispatches on ndarray as
    before.  For the same reason npmath looks each function up in numpy on
    its first use, and keeps it.

    The iterative solvers share their formulas this way, and the point loops
    their pass, which returns the next iterate and whether to stop: each
    scalar loop is written out, and its array form is that pass, driven by
    iterate.
    """

    _NAMES = {"sin": "sin", "cos": "cos", "tan": "tan", "asin": "arcsin", "atan": "arctan",
              "atan2": "arctan2", "sqrt": "sqrt", "exp": "exp", "log": "log", "hypot": "hypot",
              "copysign": "copysign", "tanh": "tanh"}

    def __getattr__(self, name: str):
        if name not in self._NAMES:
            raise AttributeError(name)
        value = getattr(np, self._NAMES[name])
        setattr(self, name, value)  # found in the instance from now on
        return value


npmath = _NpMath()


def all_finite(*columns) -> np.ndarray:
    """Rows where every column is finite."""
    return functools.reduce(np.logical_and, map(np.isfinite, columns))


def _libm(fn, *columns) -> np.ndarray:
    """fn from the math module, elementwise over columns: numpy's vectorized exp, log,
    atan, atan2 and hypot can differ from the C library's in the last bit, so an array form
    takes from here each value that reaches its result's last bit, and keeps the scalar bits."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), dtype=float,
                       count=columns[0].size)


# the largest x whose exp(x) is finite; math.exp raises OverflowError beyond
EXP_MAX = math.log(sys.float_info.max)


def iterate(step, state: tuple, consts: tuple, active: np.ndarray, max_iter: int) -> tuple:
    """Array form of a scalar loop that breaks per element.

    Each pass calls step(*state, *consts) on the active rows' values of each
    array, row-aligned, and takes back (*new_state, stop).  The new state is
    written to those rows, and the rows where stop holds retire: they are
    never passed again and keep the state their last pass returned, so each
    row sees the iterate sequence of the scalar loop.  The input arrays are
    not modified.  Returns (*state, running), running marking the rows still
    active after max_iter passes.
    """
    state = [a.copy() for a in state]
    running = active.copy()
    for _ in range(max_iter):
        idx = np.flatnonzero(running)
        if not idx.size:
            break
        *new, stop = step(*(a[idx] for a in state), *(c[idx] for c in consts))
        for a, value in zip(state, new):
            a[idx] = value
        running[idx[stop]] = False
    return (*state, running)


def quiet(kernel):
    """Silence numpy's floating-point warnings in an array kernel, which
    reports bad rows in its failure mask instead."""

    @functools.wraps(kernel)
    def wrapper(*args, **kwargs):
        with np.errstate(all="ignore"):
            return kernel(*args, **kwargs)
    return wrapper


# exact unit definitions: 400 gr = 360 deg = 24 h = 2*pi rad
GRAD = math.pi / 200.0
DEG = math.pi / 180.0
DMGR = 1e-4 * GRAD
HOUR = 15.0 * DEG
ARCSEC = DEG / 3600.0

# radians per unit, keyed by the tag used in angle literals, CSV headers and
# parameter files
ANGLE_UNITS = {"gr": GRAD, "deg": DEG, "rad": 1.0, "dmgr": DMGR, "arcsec": ARCSEC}

# physical constants, kept in this one table
GM_EARTH = 3.986005e14    # geocentric gravitational constant (GRS80), m^3 s^-2
EARTH_RADIUS = 6378000.0  # mean earth radius of the worked reductions and of Ellipsoid.sphere, m
MEAN_RADIUS = 6371000.0   # mean earth radius of normal_height's mean normal gravity, m
# closed normal potential constants (GRS80 set), with GM_EARTH and OMEGA_GRS80
A_SEMI = 6378137.00       # m
J2 = 108263e-8
# earth rotation rate, rad/s: GRS80's defining value (normal gravity, heights)
# and the GPS interface value of IS-GPS-200 (orbit --spin); each is the one its
# formulas were published with, and they differ by 1.5e-12 rad/s, 2e-8 relative
OMEGA_GRS80 = 7292115e-11
OMEGA_GPS = 7.2921151467e-5
# sidereal per solar time rate: 1 + 1/365.2422 of the positional-astronomy
# formulas (sphere), and 1.002737909 of the GST formula (gst_hours), the same
# rate rounded to nine decimals: 2.6e-10 lower, 22 us of GST per day
SIDEREAL_RATIO = 366.2422 / 365.2422
SIDEREAL_RATIO_GST = 1.002737909

# the pattern of Angle.parse, compiled on the first parse (re caches it)
_ANGLE_RE = rf"""^\s*(?P<sign>[+-]?)\s*(?:
        (?P<hms>(?P<h>\d+(?:\.\d+)?)h(?:\s*(?P<hm>\d+(?:\.\d+)?)m(?:n)?)?(?:\s*(?P<hs>\d+(?:\.\d+)?)s)?) |
        (?P<dms>(?P<d>\d+(?:\.\d+)?)(?:°|d)(?:\s*(?P<dm>\d+(?:\.\d+)?)')?(?:\s*(?P<ds>\d+(?:\.\d+)?)(?:"|''))?) |
        (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*(?P<unit>{'|'.join(ANGLE_UNITS)})?
    )\s*$"""


class Angle(Value):
    """An angle stored in radians, convertible to the units used in the field.

    ``Angle.parse`` accepts suffixed literals such as ``"40.0gr"``,
    ``"36°54'"``, ``"12.5dmgr"`` and ``"2h13m52.9s"``; minutes and seconds
    must be below 60 and the value finite.
    """

    rad: float

    def __init__(self, rad):
        _store(self, rad=rad)

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
        m = re.match(_ANGLE_RE, text, re.VERBOSE)
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
        d, mi, s = _sexagesimal(self.deg, decimals)
        return f"{sign}{d}°{mi:02d}'{s:0{3 + decimals}.{decimals}f}\""


def _sexagesimal(value: float, decimals: int) -> tuple:
    """Whole units, minutes and seconds of |value|, seconds rounded to
    decimals and carried into the minutes and the units."""
    total = abs(value)
    whole = int(total)
    mnt = (total - whole) * 60.0
    mi = int(mnt)
    s = (mnt - mi) * 60.0
    if round(s, decimals) >= 60.0:  # carry after rounding
        s = 0.0
        mi += 1
    if mi >= 60:
        mi = 0
        whole += 1
    return whole, mi, s


def format_hours(hours: float, decimals: int = 2) -> str:
    """Render decimal hours as ``4h23m26.82s``."""
    sign = "-" if hours < 0 else ""
    h, m, s = _sexagesimal(hours, decimals)
    return f"{sign}{h}h{m:02d}m{s:0{3 + decimals}.{decimals}f}s"


def meridian_arc_coefficients(ell: "Ellipsoid") -> tuple:
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


def _derived():
    return field(init=False, compare=False, repr=False)


class Ellipsoid(Value):
    """Reference ellipsoid of revolution, defined by (a, f).

    Derived quantities are computed once, from (a, f), at construction:
    e2 = f(2-f), e = sqrt(e2), ep2 = e2/(1-e2), b = a(1-f), inv_f = 1/f, the
    meridian-arc coefficients arc_coeffs, the conformal-latitude ones conformal_coeffs
    and newton_k = e2/(1-e2)^3, the scale of the loops' error bounds.  Equality,
    hashing and repr use (name, a, f) only.
    """

    name: str
    a: float
    f: float
    b: float = _derived()
    e2: float = _derived()
    e: float = _derived()
    ep2: float = _derived()
    inv_f: float = _derived()
    arc_coeffs: tuple = _derived()
    newton_k: float = _derived()
    conformal_coeffs: tuple = _derived()

    def __init__(self, name, a, f):
        if a <= 0 or not (0 <= f < 1):
            raise ValueError(f"invalid ellipsoid parameters a={a}, f={f}")
        e2 = f * (2.0 - f)
        _store(self, name=name, a=a, f=f, b=a * (1.0 - f), e2=e2, e=math.sqrt(e2),
               ep2=e2 / (1.0 - e2), inv_f=1.0 / f if f else math.inf,
               newton_k=e2 / (1.0 - e2) ** 3)
        a2, a4, a6 = (e2 * (1 / 2 + e2 * (5 / 24 + e2 * (1 / 12 + e2 * 13 / 360))),
                      e2 * e2 * (7 / 48 + e2 * (29 / 240 + e2 * 811 / 11520)),
                      e2 ** 3 * (7 / 120 + e2 * 81 / 1120))
        _store(self, arc_coeffs=meridian_arc_coefficients(self),
               conformal_coeffs=(a2 - a6, 2.0 * a4, 4.0 * a6))

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
    def sphere(cls, radius: float = EARTH_RADIUS, name: str = "sphere") -> "Ellipsoid":
        return cls(name, radius, 0.0)


# Registry of classical ellipsoids.  Each entry is built from the parameters
# historically used to define it; the remaining values are derived.
REGISTRY = {
    "clarke-1880-fr": Ellipsoid.from_a_b("Clarke 1880 French", 6378249.200, 6356515.000),
    "clarke-1880-en": Ellipsoid.from_a_inv_f("Clarke 1880 English", 6378249.145, 293.46500),
    "hayford": Ellipsoid.from_a_inv_f("Hayford 1909 (International 1924)", 6378388.000, 297.00000),
    "krassovsky": Ellipsoid.from_a_inv_f("Krassovsky", 6378245.000, 298.30000),
    "grs67": Ellipsoid.from_a_e2("GRS 1967", 6378160.000, 0.0066946053),
    "nwl8": Ellipsoid.from_a_inv_f("NWL 8", 6378145.000, 298.25000),
    "wgs72": Ellipsoid.from_a_inv_f("WGS 72", 6378135.000, 298.26000),
    "iag75": Ellipsoid.from_a_inv_f("IAG 1975", 6378140.000, 298.25700),
    "apl": Ellipsoid.from_a_inv_f("APL Navigation", 6378144.000, 298.23000),
    "grs80": Ellipsoid.from_a_inv_f("GRS 1980", 6378137.000, 298.257222101),
    "wgs84": Ellipsoid.from_a_inv_f("WGS 84", 6378137.000, 298.257223563),
}

_ALIASES = {
    "international-1924": "hayford",
    "international": "hayford",
    "clarke-1880": "clarke-1880-fr",
}


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
    import json

    doc = [{"name": k, "a": e.a, "inv_f": e.inv_f} for k, e in REGISTRY.items()]
    return json.dumps(doc, indent=2)


def registry_from_json(text: str) -> dict:
    import json

    doc = json.loads(text)
    return {
        row["name"]: Ellipsoid.from_a_inv_f(row["name"], row["a"], row["inv_f"])
        for row in doc
    }


def parse_json_object(text: str) -> dict:
    """JSON text whose top level must be an object (a dict once parsed)."""
    import json

    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def json_number(doc: dict, key: str, default: float | None = None) -> float:
    """doc[key] as a finite float, or default when the key is absent; any other
    value (str, list, object, bool, null, NaN, inf) is a ValueError naming the key."""
    if key not in doc and default is not None:
        return default
    value = doc[key]
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{key!r} must be a finite number, got {value!r:.40}")


def prime_vertical_radius(ell: Ellipsoid, phi):
    """Radius of curvature N in the prime vertical, a/sqrt(1 - e2 sin^2 phi)."""
    xp = npmath if type(phi) is not float and type(phi) is np.ndarray else math
    return _prime_vertical_radius(xp, ell, phi)


def _prime_vertical_radius(xp, ell: Ellipsoid, phi):
    s = xp.sin(phi)
    return ell.a / xp.sqrt(1.0 - ell.e2 * s * s)


def meridian_radius(ell: Ellipsoid, phi):
    """Radius of curvature of the meridian, a(1-e2)/(1 - e2 sin^2 phi)^(3/2)."""
    xp = npmath if type(phi) is not float and type(phi) is np.ndarray else math
    s = xp.sin(phi)
    w2 = 1.0 - ell.e2 * s * s
    return ell.a * (1.0 - ell.e2) / (w2 * xp.sqrt(w2))


def parametric_latitude(ell: Ellipsoid, phi: float) -> float:
    """Reduced latitude psi with tan(psi) = (b/a) tan(phi), same quadrant as phi."""
    return math.atan2((1.0 - ell.f) * math.sin(phi), math.cos(phi))


def _eccentric_term(xp, e: float, s):
    """(e/2) ln((1 + e s)/(1 - e s)) at s = sin phi, the ellipsoid's share of L(phi)."""
    return 0.5 * e * xp.log((1.0 + e * s) / (1.0 - e * s))


def isometric_latitude(ell: Ellipsoid, phi):
    """Conformal latitude variable L(phi); dimensionless.

    L = ln tan(pi/4 + phi/2) - (e/2) ln((1 + e sin phi)/(1 - e sin phi)).
    On a sphere (e = 0) this is the Mercator latitude.  L is undefined at
    the poles: a float there raises ValueError, an array holds NaN.
    """
    xp = npmath if type(phi) is not float and type(phi) is np.ndarray else math
    if xp is math and abs(phi) >= math.pi / 2:
        raise ValueError("isometric latitude undefined at the poles")
    value = xp.log(xp.tan(math.pi / 4.0 + phi / 2.0))
    if ell.e:
        value -= _eccentric_term(xp, ell.e, xp.sin(phi))
    if xp is not math:
        value = np.where(np.abs(phi) < math.pi / 2, value, np.nan)
    return value


def _isometric_seed(xp, ell: Ellipsoid, iso):
    """The latitude of conformal latitude chi = 2 atan(tanh(iso/2)) by Snyder's series to
    e2^4 (Map Projections: A Working Manual, eq. 3-5), chi + sin 2chi (A + cos 2chi (B + C cos
    2chi)) with (A, B, C) = conformal_coeffs: within 6e-11 rad on the registry's ellipsoids,
    and within 1e-10 of phi near the equator, where 2 atan(exp(iso)) - pi/2 would cancel."""
    chi = 2.0 * xp.atan(xp.tanh(0.5 * iso))
    a, b, c = ell.conformal_coeffs
    c2 = xp.cos(2.0 * chi)
    return chi + xp.sin(2.0 * chi) * (a + c2 * (b + c * c2))


def _isometric_step(xp, log2, ell: Ellipsoid, iso, phi) -> tuple:
    """One Newton pass of inverting L at phi: T = iso + (e/2) ln((1+e sin phi)/(1-e sin phi)),
    the next iterate phi + (g - phi)/(1 - G) on the map g = 2 atan(exp(T)) - pi/2, whose slope
    G = e2 cos^2(phi)/(1 - e2 sin^2 phi) is taken at g = phi, and whether the bound
    3 newton_k delta^2 on the error left is below _ISO_TOL: as |g' - G| <= e2 |e|, |g''| <=
    e2/(1-e2)^2 + e2^2 and 1 - G >= 1 - e2, the pass leaves at most K e^2 of an error e,
    K = 1.5 e2/(1-e2)^3 (measured: 0.75 e2), so 2K delta^2 while K delta is small.  It starts
    from phi rounded to 31 bits (pi/2 rounds down; 5e-10 rad at most) and takes g - phi as
    2 atan(c h/(1 + s h)), h = tanh((T - ln((1+s)/c))/2), so only its two logs reach the last
    bit of the result: the array form takes them from the C library (as log2, whose map costs
    a third of log's) and keeps the scalar bits."""
    e = ell.e
    if not e:
        return iso, phi, True
    phi = 4194305.0 * phi - (4194305.0 * phi - phi)  # Veltkamp's split: 31 bits
    s, c = xp.sin(phi), xp.cos(phi)
    # ln x = ln 2 log2 x; ln((1+s)/c) = -ln((1-s)/c), taken on |s|: s = -1 takes no log of 0
    target = iso + _LN2 * 0.5 * e * log2((1.0 + e * s) / (1.0 - e * s))
    h = xp.tanh(0.5 * (target - xp.copysign(_LN2 * log2((1.0 + abs(s)) / c), s)))
    delta = 2.0 * xp.atan(c * h / (1.0 + s * h)) * (1.0 - e * e * s * s) / (1.0 - e * e)
    return target, phi + delta, 3.0 * ell.newton_k * delta * delta < _ISO_TOL


# stopping rule of the isometric inversion, shared by its scalar and array forms:
_ISO_TOL = 1e-15  # the bound on the error left, rad
_ISO_MAX_ITER = 50

_LN2 = math.log(2.0)
_LIBM_LOG2 = functools.partial(_libm, math.log2)  # the array form's log2 (_isometric_step)


def latitude_from_isometric(ell: Ellipsoid, iso: float) -> float:
    """Invert isometric_latitude by Newton's method on its fixed-point map.

    Starts from _isometric_seed and stops once the bound on the error left is
    below _ISO_TOL rad: 1 pass for |phi| <= 1.55 on the registry's ellipsoids.
    """
    phi = _isometric_seed(math, ell, iso)
    for _ in range(_ISO_MAX_ITER):
        target, phi, done = _isometric_step(math, math.log2, ell, iso, phi)
        if EXP_MAX < target < math.inf:  # exp(T) overflows, as the array form flags
            raise OverflowError(f"latitude_from_isometric: exp overflows for L={iso}")
        if done:
            return phi
    raise NonConvergence(f"latitude_from_isometric: no convergence for L={iso}")


@quiet
def latitude_from_isometric_array(ell: Ellipsoid, iso) -> tuple:
    """Array form of latitude_from_isometric, with its stopping rule: (phi, failed).

    failed marks the rows where the scalar form raises: no convergence
    (NaN included) or an exp overflow.
    """
    iso = np.asarray(iso, dtype=float)
    failed = np.isnan(iso)

    def step(phi, _, iso):
        target, nxt, done = _isometric_step(npmath, _LIBM_LOG2, ell, iso, phi)
        overflow = np.isfinite(target) & (target > EXP_MAX)
        return nxt, overflow, done | overflow

    # a row whose T = L + eccentric term passes EXP_MAX (its seed is pi/2) is
    # flagged on the first pass, where the scalar form raises OverflowError
    phi, failed, running = iterate(step, (_isometric_seed(npmath, ell, iso), failed), (iso,),
                                   ~failed, _ISO_MAX_ITER)
    return phi, failed | running


def meridian_arc(ell: Ellipsoid, phi):
    """Meridian arc length from the equator to latitude phi, metres (signed)."""
    xp = npmath if type(phi) is not float and type(phi) is np.ndarray else math
    c0, c1, c2, c3, c4, c5, c6 = ell.arc_coeffs
    s = (c0 * phi + c1 * xp.sin(2 * phi) + c2 * xp.sin(4 * phi) + c3 * xp.sin(6 * phi)
         + c4 * xp.sin(8 * phi) + c5 * xp.sin(10 * phi) + c6 * xp.sin(12 * phi))
    return ell.a * (1.0 - ell.e2) * s


def quarter_meridian(ell: Ellipsoid) -> float:
    return meridian_arc(ell, math.pi / 2.0)


def _arc_step(ell: Ellipsoid, phi, y) -> tuple:
    """One Newton pass towards meridian_arc(phi) = y (d arc / d phi = rho): the next iterate,
    and whether the bound 1.5 newton_k delta^2 on the error left is below _ARC_TOL: Newton
    leaves K e^2 at most, K = max|rho'|/(2 min rho) = (3/4) e2 (1-e2)^-2.5, so 2K delta^2."""
    delta = (meridian_arc(ell, phi) - y) / meridian_radius(ell, phi)
    return phi - delta, 1.5 * ell.newton_k * delta * delta < _ARC_TOL


# stopping rule of the arc inversion, shared by its scalar and array forms
_ARC_TOL = 1e-15  # the bound on the error left, rad
_ARC_MAX_ITER = 50


def latitude_from_arc(ell: Ellipsoid, y: float) -> float:
    """Invert meridian_arc: the latitude whose arc from the equator is y metres,
    by Newton from y / (a(1 - e2)): at most 2 passes for |phi| <= 1.55."""
    phi = y / (ell.a * (1.0 - ell.e2))
    for _ in range(_ARC_MAX_ITER):
        phi, done = _arc_step(ell, phi, y)
        if done:
            return phi
    raise NonConvergence(f"latitude_from_arc: Newton did not converge for y={y}")


@quiet
def latitude_from_arc_array(ell: Ellipsoid, y) -> tuple:
    """Array form of latitude_from_arc, with its stopping rule: (phi, failed).

    failed marks the rows where the scalar form raises: an infinite y (the
    sine of infinity) or no convergence.
    """
    y = np.asarray(y, dtype=float)
    failed = np.isinf(y)

    phi, running = iterate(functools.partial(_arc_step, ell), (y / (ell.a * (1.0 - ell.e2)),),
                           (y,), ~failed, _ARC_MAX_ITER)
    return phi, failed | running
