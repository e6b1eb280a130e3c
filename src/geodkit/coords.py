"""Geodetic/Cartesian conversions, local topocentric frames, vertical deflection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    Ellipsoid,
    NonConvergence,
    NumericalError,
    _prime_vertical_radius,
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


@dataclass(frozen=True, init=False)
class GeodeticCoord:
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
        self.__dict__["lam"] = _normalize_lon(self.lam)


def geodetic_columns(phi, lam, he=0.0) -> tuple:
    """Array form of GeodeticCoord(phi, lam, he): (phi, normalized lam, ok).

    ok marks the rows GeodeticCoord accepts, by the same tests: the latitude
    within [-pi/2, pi/2] (NaN fails), longitude and height finite.
    """
    phi, lam = np.asarray(phi, dtype=float), np.asarray(lam, dtype=float)
    ok = (np.abs(phi) <= _MAX_LATITUDE) & np.isfinite(lam) & np.isfinite(he)
    return phi, _normalize_lon(lam), ok


@dataclass(frozen=True, init=False)
class EcefCoord:
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

    @classmethod
    def from_array(cls, v) -> "EcefCoord":
        return cls(float(v[0]), float(v[1]), float(v[2]))


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


def _z_prime(xp, ell: Ellipsoid, z, phi):
    """Z' = Z + N e2 sin(phi_i); the next iterate is phi_{i+1} = atan(Z'/r)."""
    return z + _prime_vertical_radius(xp, ell, phi) * ell.e2 * xp.sin(phi)


def _libm(fn, *columns) -> np.ndarray:
    """fn from the math module, elementwise over columns.

    numpy's vectorized atan2 and hypot can differ from the C library's in
    the last bit.  The height r / cos(phi) - N cancels two numbers near
    6.4e6 m, which turns one ulp of phi into about 1e-9 m, so the ECEF
    kernel takes both from the C library, as the scalar path does.
    """
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), dtype=float,
                       count=columns[0].size)


# above this latitude the height is taken from Z, below it from r
_NEAR_POLE = math.radians(89.9)


def _height_from_z(xp, ell: Ellipsoid, phi, z):
    return z / xp.sin(phi) - _prime_vertical_radius(xp, ell, phi) * (1.0 - ell.e2)


def _height_from_r(xp, ell: Ellipsoid, phi, r):
    return r / xp.cos(phi) - _prime_vertical_radius(xp, ell, phi)


# stopping rule of the latitude fixed point, shared by its scalar and array forms
_ECEF_TOL = 1e-12
_ECEF_MAX_ITER = 50


def ecef_to_geodetic(ell: Ellipsoid, p: EcefCoord) -> GeodeticCoord:
    """Invert geodetic_to_ecef by fixed-point iteration on the latitude.

    Starts from Z' = Z and iterates Z' = Z + N e2 sin(phi_i),
    phi_{i+1} = atan(Z'/r) until the change is below _ECEF_TOL radians
    (3 to 4 passes in practice for terrestrial heights).
    """
    r = math.hypot(p.x, p.y)
    if r < 1.0:
        raise PolarAxis("point too close to the polar axis")
    lam = math.atan2(p.y, p.x)
    phi = math.atan2(p.z, r)
    for _ in range(_ECEF_MAX_ITER):
        nxt = math.atan2(_z_prime(math, ell, p.z, phi), r)
        if abs(nxt - phi) < _ECEF_TOL:
            phi = nxt
            break
        phi = nxt
    else:
        raise NonConvergence("ecef_to_geodetic: latitude iteration did not converge")
    if abs(phi) > _NEAR_POLE:
        he = _height_from_z(math, ell, phi, p.z)
    else:
        he = _height_from_r(math, ell, phi, r)
    return GeodeticCoord(phi, lam, he)


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

    def step(phi, z, r):
        nxt = _libm(math.atan2, _z_prime(npmath, ell, z, phi), r)
        return nxt, np.abs(nxt - phi) < _ECEF_TOL

    phi, running = iterate(step, (_libm(math.atan2, z, r),), (z, r), ok, _ECEF_MAX_ITER)
    ok &= ~running
    he = np.where(np.abs(phi) > _NEAR_POLE, _height_from_z(npmath, ell, phi, z),
                  _height_from_r(npmath, ell, phi, r))
    phi, lam, valid = geodetic_columns(phi, lam, he)
    return phi, lam, he, ~(ok & valid)


@dataclass(frozen=True)
class LocalFrame:
    """Topocentric frame at an origin point.

    The rotation matrix rows are the east, north and up unit vectors
    expressed in the geocentric frame; it is orthonormal with det +1.
    """

    origin: GeodeticCoord
    rotation: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.rotation.setflags(write=False)


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
