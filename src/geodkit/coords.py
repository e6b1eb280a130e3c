"""Geodetic/Cartesian conversions, local topocentric frames, vertical deflection."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .core import (
    Ellipsoid,
    NonConvergence,
    NumericalError,
    Value,
    _libm,
    _prime_vertical_radius,
    _store,
    all_finite,
    iterate,
    np,
    npmath,
    quiet,
)


class PolarAxis(NumericalError, ValueError):
    """Point lies on (or within 1 m of) the polar axis; longitude undefined."""


def _normalize_lon(lam):
    """Wrap a longitude into (-pi, pi]; elementwise on an array."""
    if type(lam) is not float and type(lam) is np.ndarray:
        lam = np.fmod(lam, 2.0 * math.pi)
        return np.where(lam > math.pi, lam - 2.0 * math.pi,
                        np.where(lam <= -math.pi, lam + 2.0 * math.pi, lam))
    lam = math.fmod(lam, 2.0 * math.pi)
    if lam > math.pi:
        lam -= 2.0 * math.pi
    elif lam <= -math.pi:
        lam += 2.0 * math.pi
    return lam


_MAX_LATITUDE = math.pi / 2 + 1e-12


@dataclass(init=False, repr=False, eq=False)
class GeodeticCoord(Value):
    """Geodetic latitude, longitude (positive east) and ellipsoidal height."""

    phi: float
    lam: float
    he: float = 0.0

    # fields go straight into __dict__, as in each value type of a scalar call (npmath)
    def __init__(self, phi, lam, he=0.0):
        attrs = self.__dict__
        attrs["phi"], attrs["lam"], attrs["he"] = phi, lam, he
        self.__post_init__()

    def __post_init__(self):
        # written so that NaN fails the test
        if not abs(self.phi) <= _MAX_LATITUDE:
            raise ValueError(f"latitude {self.phi} outside [-pi/2, pi/2]")
        if not (math.isfinite(self.lam) and math.isfinite(self.he)):
            raise ValueError(f"non-finite longitude {self.lam} or height {self.he}")
        if not -math.pi < self.lam <= math.pi:  # fmod keeps such a lam, bit for bit
            self.__dict__["lam"] = _normalize_lon(self.lam)


def geodetic_columns(phi, lam, he=0.0) -> tuple:
    """Array form of GeodeticCoord(phi, lam, he): (phi, normalized lam, ok).

    ok marks the rows GeodeticCoord accepts, by the same tests: the latitude
    within [-pi/2, pi/2] (NaN fails), longitude and height finite.
    """
    phi, lam = np.asarray(phi, dtype=float), np.asarray(lam, dtype=float)
    ok = (np.abs(phi) <= _MAX_LATITUDE) & np.isfinite(lam) & np.isfinite(he)
    return phi, _normalize_lon(lam), ok


@dataclass(init=False, repr=False, eq=False)
class EcefCoord(Value):
    """Geocentric Cartesian coordinates X, Y, Z (m)."""

    x: float
    y: float
    z: float

    def __init__(self, x, y, z):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"non-finite coordinate ({x}, {y}, {z})")
        attrs = self.__dict__
        attrs["x"], attrs["y"], attrs["z"] = x, y, z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def _ecef(xp, ell: Ellipsoid, phi, lam, he) -> tuple:
    """Cartesian coordinates X = (N+he) cos phi cos lam, etc."""
    n = _prime_vertical_radius(xp, ell, phi)
    cphi = xp.cos(phi)
    return (
        (n + he) * cphi * xp.cos(lam),
        (n + he) * cphi * xp.sin(lam),
        (n * (1.0 - ell.e2) + he) * xp.sin(phi),
    )


def geodetic_to_ecef(ell: Ellipsoid, g: GeodeticCoord) -> EcefCoord:
    """Cartesian coordinates X = (N+he) cos phi cos lam, etc."""
    return EcefCoord(*_ecef(math, ell, g.phi, g.lam, g.he))


@quiet
def geodetic_to_ecef_array(ell: Ellipsoid, phi, lam, he) -> tuple:
    """Array form of geodetic_to_ecef over columns: (x, y, z, failed).

    failed marks the rows where GeodeticCoord or EcefCoord would reject
    the input or the result.
    """
    phi, lam, ok = geodetic_columns(phi, lam, he)
    x, y, z = _ecef(npmath, ell, phi, lam, he)
    return x, y, z, ~(ok & all_finite(x, y, z))


def _seed_run(xp, ell: Ellipsoid, r, z) -> tuple:
    """The run r (1 - e2 a / |p|) of the seed tan(phi_0) = z / run, and the loop's factor k:
    5 a newton_k / |p| (_ecef_step), or _ECEF_FIXED within 86 km of the centre, beyond 2.5."""
    q = ell.a / xp.sqrt(r * r + z * z)
    k = 5.0 * ell.newton_k * q
    return r * (1.0 - ell.e2 * q), k * (k <= 2.5) + _ECEF_FIXED * (k > 2.5)


def _ecef_step(xp, atan2, ell: Ellipsoid, phi, z, r, k) -> tuple:
    """One Newton pass phi + (g - phi)/(1 - g') on g = atan2(Z', r), Z' = Z + N e2 sin(phi),
    g' = e2 N cos(phi)/(W^2 (r + Z'^2/r)), W^2 = 1 - e2 sin^2 phi, and whether the bound
    k delta^2 on the error left is below _ECEF_TOL.  Iterates keep the sign of Z, so with
    b = e2 a (1-e2)^-1.5 / |p| >= g', |g''| <= b (1 + 3 e2)/(1 - e2) + 2 b^2: the pass leaves
    at most K e^2 of an error e, K = |g''|/(2 (1 - b)), so 2K delta^2 while K delta is small,
    and 2K <= 5 a newton_k / |p| = k where b <= 1/2."""
    s = xp.sin(phi)
    w2 = 1.0 - ell.e2 * s * s
    ne2 = ell.e2 * ell.a / xp.sqrt(w2)  # N e2
    zp = z + ne2 * s
    slope = (k < _ECEF_FIXED) * ne2 * xp.cos(phi) / (w2 * (r + zp * zp / r))
    delta = (atan2(zp, r) - phi) / (1.0 - slope)
    return phi + delta, k * delta * delta < _ECEF_TOL


def _height(xp, ell: Ellipsoid, phi, r, z):
    """he = r cos(phi) + z sin(phi) - a sqrt(1 - e2 sin^2 phi), at every latitude: its
    derivative in phi is 0 at the solution, so the loop's last residual (about
    1e-15 rad) does not show in he."""
    s = xp.sin(phi)
    return r * xp.cos(phi) + z * s - ell.a * xp.sqrt(1.0 - ell.e2 * s * s)


# stopping rule of the latitude loop, shared by its scalar and array forms: k delta^2 below the
# bound on the error left, rad; rows whose k is _ECEF_FIXED (elsewhere k <= 2.5) drop the
# slope and so take fixed-point passes, which stop on a step below 1e-12 rad
_ECEF_TOL = 1e-15
_ECEF_FIXED = _ECEF_TOL / 1e-12 ** 2
_ECEF_MAX_ITER = 50


def ecef_to_geodetic(ell: Ellipsoid, p: EcefCoord) -> GeodeticCoord:
    """Invert geodetic_to_ecef by Newton passes on the latitude (_ecef_step) from
    tan(phi_0) = Z / (r (1 - e2 a / |p|)), the latitude of the surface point near the
    ellipsoid and the geocentric one far from it: at most 2 from -500 m to 4e7 m of height."""
    r = math.hypot(p.x, p.y)
    if r < 1.0:
        raise PolarAxis("point too close to the polar axis")
    lam = math.atan2(p.y, p.x)
    run, k = _seed_run(math, ell, r, p.z)
    phi = math.atan2(p.z, run)
    for _ in range(_ECEF_MAX_ITER):
        phi, done = _ecef_step(math, math.atan2, ell, phi, p.z, r, k)
        if done:
            break
    else:
        raise NonConvergence("ecef_to_geodetic: latitude iteration did not converge")
    return GeodeticCoord(phi, lam, _height(math, ell, phi, r, p.z))


@quiet
def ecef_to_geodetic_array(ell: Ellipsoid, x, y, z) -> tuple:
    """Array form of ecef_to_geodetic over columns, with its stopping rule:
    (phi, lam, he, failed).

    failed marks the rows where the scalar form raises: a non-finite input
    (EcefCoord), the polar axis, no convergence, or a result GeodeticCoord
    rejects.
    """
    x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
    r = _libm(math.hypot, x, y)
    ok = all_finite(x, y, z) & ~(r < 1.0)
    lam = _libm(math.atan2, y, x)
    run, k = _seed_run(npmath, ell, r, z)
    step = functools.partial(_ecef_step, npmath, functools.partial(_libm, math.atan2), ell)
    phi, running = iterate(step, (_libm(math.atan2, z, run),), (z, r, k), ok, _ECEF_MAX_ITER)
    ok &= ~running
    he = _height(npmath, ell, phi, r, z)
    phi, lam, valid = geodetic_columns(phi, lam, he)
    return phi, lam, he, ~(ok & valid)


@dataclass(init=False, repr=False, eq=False)
class LocalFrame(Value):
    """Topocentric frame at an origin point.

    The rotation matrix rows are the east, north and up unit vectors
    expressed in the geocentric frame; it is orthonormal with det +1.
    """

    origin: GeodeticCoord
    rotation: np.ndarray = field(repr=False)

    def __init__(self, origin, rotation):
        rotation.setflags(write=False)
        _store(self, origin=origin, rotation=rotation)


def local_frame(origin: GeodeticCoord) -> LocalFrame:
    sphi, cphi = math.sin(origin.phi), math.cos(origin.phi)
    slam, clam = math.sin(origin.lam), math.cos(origin.lam)
    rot = np.array(
        [
            [-slam, clam, 0.0],
            [-sphi * clam, -sphi * slam, cphi],
            [cphi * clam, cphi * slam, sphi],
        ]
    )
    return LocalFrame(origin=origin, rotation=rot)


def ecef_vector_to_local(frame: LocalFrame, delta) -> np.ndarray:
    """Express a geocentric difference vector in (east, north, up) components."""
    return frame.rotation @ np.asarray(delta, dtype=float)


def local_vector_to_ecef(frame: LocalFrame, enu) -> np.ndarray:
    return frame.rotation.T @ np.asarray(enu, dtype=float)


def deviation_of_vertical(astro: tuple, geod: tuple) -> tuple:
    """North and east components of the deflection of the vertical.

    zeta = Phi - phi, eta = (Lam - lam) cos(phi), with (Phi, Lam) the
    astronomical and (phi, lam) the geodetic coordinates, radians.
    """
    big_phi, big_lam = astro
    phi, lam = geod
    return big_phi - phi, (big_lam - lam) * math.cos(phi)


def laplace_azimuth(aza: float, lam_g: float, lam_a: float, phi: float) -> float:
    """Geodetic azimuth from an astronomical one: Azg = Aza - (lam_g - lam_a) sin phi.

    Swapping lam_g and lam_a yields the opposite sign convention,
    Azg = Aza + (lam_a - lam_g) sin phi, which some station reductions use.
    """
    return aza - (lam_g - lam_a) * math.sin(phi)
