"""Geodetic/Cartesian conversions, local topocentric frames, vertical deflection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Ellipsoid, NonConvergence, NumericalError, prime_vertical_radius


class PolarAxis(NumericalError, ValueError):
    """Point lies on (or within 1 m of) the polar axis; longitude undefined."""


def _normalize_lon(lam: float) -> float:
    """Wrap a longitude into (-pi, pi]."""
    lam = math.fmod(lam, 2.0 * math.pi)
    if lam > math.pi:
        lam -= 2.0 * math.pi
    elif lam <= -math.pi:
        lam += 2.0 * math.pi
    return lam


@dataclass(frozen=True)
class GeodeticCoord:
    """Geodetic latitude, longitude (positive east) and ellipsoidal height."""

    phi: float
    lam: float
    he: float = 0.0

    def __post_init__(self):
        # written so that NaN fails the test
        if not abs(self.phi) <= math.pi / 2 + 1e-12:
            raise ValueError(f"latitude {self.phi} outside [-pi/2, pi/2]")
        if not (math.isfinite(self.lam) and math.isfinite(self.he)):
            raise ValueError(f"non-finite longitude {self.lam} or height {self.he}")
        object.__setattr__(self, "lam", _normalize_lon(self.lam))


@dataclass(frozen=True)
class EcefCoord:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinate ({self.x}, {self.y}, {self.z})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, v) -> "EcefCoord":
        return cls(float(v[0]), float(v[1]), float(v[2]))


def geodetic_to_ecef(ell: Ellipsoid, g: GeodeticCoord) -> EcefCoord:
    """Cartesian coordinates X = (N+he) cos phi cos lam, etc."""
    n = prime_vertical_radius(ell, g.phi)
    cphi = math.cos(g.phi)
    return EcefCoord(
        (n + g.he) * cphi * math.cos(g.lam),
        (n + g.he) * cphi * math.sin(g.lam),
        (n * (1.0 - ell.e2) + g.he) * math.sin(g.phi),
    )


def ecef_to_geodetic(
    ell: Ellipsoid, p: EcefCoord, tol: float = 1e-12, max_iter: int = 50
) -> GeodeticCoord:
    """Invert geodetic_to_ecef by fixed-point iteration on the latitude.

    Starts from Z' = Z and iterates Z' = Z + N e2 sin(phi_i),
    phi_{i+1} = atan(Z'/r) until the change is below tol radians
    (3 to 4 passes in practice for terrestrial heights).
    """
    r = math.hypot(p.x, p.y)
    if r < 1.0:
        raise PolarAxis("point too close to the polar axis")
    lam = math.atan2(p.y, p.x)
    phi = math.atan2(p.z, r)
    for _ in range(max_iter):
        n = prime_vertical_radius(ell, phi)
        z_prime = p.z + n * ell.e2 * math.sin(phi)
        nxt = math.atan2(z_prime, r)
        if abs(nxt - phi) < tol:
            phi = nxt
            break
        phi = nxt
    else:
        raise NonConvergence("ecef_to_geodetic: latitude iteration did not converge")
    n = prime_vertical_radius(ell, phi)
    if abs(phi) > math.radians(89.9):
        he = p.z / math.sin(phi) - n * (1.0 - ell.e2)
    else:
        he = r / math.cos(phi) - n
    return GeodeticCoord(phi, lam, he)


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
