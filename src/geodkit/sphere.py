"""Spherical trigonometry on the unit sphere and positional-astronomy time arithmetic."""

from __future__ import annotations

import math

from .core import SIDEREAL_RATIO, NumericalError, Value, _store

_DEGENERATE_TOL = 1e-12


class DegenerateTriangle(NumericalError, ValueError):
    """A triangle element collapsed to 0 or pi."""


class SphericalTriangle(Value):
    """Sides a, b, c (central angles) and opposite dihedral angles A, B, C."""

    a: float
    b: float
    c: float
    A: float
    B: float
    C: float

    def __init__(self, a, b, c, A, B, C):
        _store(self, a=a, b=b, c=c, A=A, B=B, C=C)

    @property
    def excess(self) -> float:
        return self.A + self.B + self.C - math.pi


def _clamped_acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


def solve_triangle_sas(b: float, c: float, A: float) -> SphericalTriangle:
    """Solve a spherical triangle from two sides and the included angle.

    a comes from the fundamental formula
    cos a = cos b cos c + sin b sin c cos A; B and C follow from the sine
    rule with their quadrant fixed by the cotangent (four-parts) formula.
    """
    for name, v in (("b", b), ("c", c), ("A", A)):
        if not _DEGENERATE_TOL < v < math.pi - _DEGENERATE_TOL:
            raise DegenerateTriangle(f"element {name}={v} outside (0, pi)")
    a = _clamped_acos(math.cos(b) * math.cos(c) + math.sin(b) * math.sin(c) * math.cos(A))
    if not _DEGENERATE_TOL < a < math.pi - _DEGENERATE_TOL:
        raise DegenerateTriangle(f"side a={a} degenerate")
    sinA = math.sin(A)
    # sinA * cot B = cot b sin c - cos c cos A  (and symmetrically for C)
    B = math.atan2(sinA, math.sin(c) / math.tan(b) - math.cos(c) * math.cos(A))
    C = math.atan2(sinA, math.sin(b) / math.tan(c) - math.cos(b) * math.cos(A))
    for name, v in (("B", B), ("C", C)):
        if not _DEGENERATE_TOL < v < math.pi - _DEGENERATE_TOL:
            raise DegenerateTriangle(f"angle {name}={v} degenerate")
    return SphericalTriangle(a=a, b=b, c=c, A=A, B=B, C=C)


def spherical_excess(area: float, radius: float) -> float:
    """Spherical excess in radians of a triangle of given area on a sphere."""
    if area < 0 or radius <= 0:
        raise ValueError("area must be >= 0 and radius > 0")
    return area / (radius * radius)


def triangle_closure(A: float, B: float, C: float, excess: float) -> float:
    """Signed misclosure A + B + C - pi - excess of an observed triangle."""
    return A + B + C - math.pi - excess


def cassini_soldner(phi: float, lam: float) -> tuple:
    """Cassini-Soldner coordinates (L, H) of a point on the unit sphere.

    L is the perpendicular arc from the point to the reference meridian
    (lam = 0), H the arc along that meridian from the equator to the foot
    of the perpendicular.  On the equator, (L, H) = (lam, 0).
    """
    if abs(phi) >= math.pi / 2:
        raise ValueError("|phi| must be < pi/2")
    L = math.asin(math.cos(phi) * math.sin(lam))
    H = math.atan2(math.sin(phi), math.cos(phi) * math.cos(lam))
    return L, H


def cassini_soldner_inverse(L: float, H: float) -> tuple:
    """Recover (phi, lam) from Cassini-Soldner coordinates on the unit sphere."""
    phi = math.asin(math.cos(L) * math.sin(H))
    lam = math.atan2(math.sin(L), math.cos(L) * math.cos(H))
    return phi, lam


def normalize_hours(hours: float) -> float:
    hours = hours % 24.0
    return 0.0 if hours == 24.0 else hours  # % can round up to the modulus


def hour_angle(hsl_hours: float, alpha_hours: float) -> float:
    """Hour angle AH = HSL - alpha, normalized to [0, 24h)."""
    return normalize_hours(hsl_hours - alpha_hours)


def hsl_from_greenwich(hsg_hours: float, lam_hours: float) -> float:
    """Local sidereal time from Greenwich sidereal time; lam positive east."""
    return normalize_hours(hsg_hours + lam_hours)


def sidereal_from_universal(tu_hours: float, hsg0_hours: float, lam_hours: float) -> float:
    """Local sidereal time at universal time TU.

    HSL = HSG(0h TU) + TU * 366.2422/365.2422 + lam, modulo 24 h.
    """
    if not 0.0 <= tu_hours < 24.0:
        raise ValueError("TU must be in [0, 24) hours")
    return normalize_hours(hsg0_hours + tu_hours * SIDEREAL_RATIO + lam_hours)
