"""Transformations between geodetic systems.

Three-dimensional: the 7-parameter similarity (Bursa-Wolf) model, with a
least-squares estimator and a direct closed-form estimator; the standard
and abridged curvilinear shift formulas (Molodensky).  Two-dimensional:
the 4-parameter Helmert similarity with its least-squares estimator.  The
formulas that apply a transformation take floats or numpy columns alike;
each *_columns form also returns a mask of the rows its scalar API rejects.

Rotation sign convention: rx, ry, rz are positive counterclockwise and the
first-order rotation matrix is rows [1, rz, -ry; -rz, 1, rx; ry, -rx, 1].
Several libraries use the transposed convention; check before mixing
parameter sets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from itertools import combinations, islice

from .core import (
    ARCSEC,
    Ellipsoid,
    NumericalError,
    Value,
    _prime_vertical_radius,
    _store,
    all_finite,
    meridian_radius,
    np,
    npmath,
    quiet,
)
from .coords import EcefCoord, GeodeticCoord, PolarAxis, geodetic_columns
from .projections import PlaneCoord


class InsufficientPoints(NumericalError, ValueError):
    pass


class RankDeficient(NumericalError, ValueError):
    pass


class SingularRotationSystem(NumericalError, ValueError):
    pass


class ZeroSpread(NumericalError, ValueError):
    pass


class ScanLimitReached(NumericalError, RuntimeError):
    """bursa_wolf_direct's triple scan met its cap without an answer."""


_MAX_ROTATION = math.radians(3.0)


@dataclass(init=False, repr=False, eq=False)
class BursaWolfParams(Value):
    """Translations (m), scale offset m_scale (unitless) and small rotations (rad)."""

    tx: float
    ty: float
    tz: float
    m_scale: float
    rx: float
    ry: float
    rz: float

    def __init__(self, tx, ty, tz, m_scale, rx, ry, rz):
        _store(self, tx=tx, ty=ty, tz=tz, m_scale=m_scale, rx=rx, ry=ry, rz=rz)
        # NaN would pass every bound below
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("Bursa-Wolf parameters must be finite")
        if max(abs(self.rx), abs(self.ry), abs(self.rz)) >= _MAX_ROTATION:
            raise ValueError("rotations exceed the small-angle validity bound")
        if abs(self.m_scale) >= 1e-3:
            raise ValueError("scale offset exceeds the small-scale validity bound")


@dataclass(init=False, repr=False, eq=False)
class Helmert2DParams(Value):
    """Plane similarity X2 = T + s R(theta) X1 through u = s cos(theta), v = s sin(theta)."""

    tx: float
    ty: float
    u: float
    v: float

    def __init__(self, tx, ty, u, v):
        _store(self, tx=tx, ty=ty, u=u, v=v)
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("Helmert parameters must be finite")
        if self.u == 0.0 and self.v == 0.0:
            raise ValueError("u = v = 0 is a zero scale, which has no inverse")

    @property
    def scale(self) -> float:
        return math.hypot(self.u, self.v)

    @property
    def theta(self) -> float:
        return math.atan2(self.v, self.u)


@dataclass(init=False, repr=False, eq=False)
class DatumShiftResult(Value):
    """Fitted parameters, residuals, variance factor and their covariance."""

    params: object
    residuals: np.ndarray
    s2: float | None
    cov: np.ndarray | None

    def __init__(self, params, residuals, s2, cov):
        _store(self, params=params, residuals=residuals, s2=s2, cov=cov)


def _bursa_wolf(p: BursaWolfParams, x, y, z) -> tuple:
    s = 1.0 + p.m_scale
    return (p.tx + s * (x + p.rz * y - p.ry * z),
            p.ty + s * (-p.rz * x + y + p.rx * z),
            p.tz + s * (p.ry * x - p.rx * y + z))


def bursa_wolf_apply(p: BursaWolfParams, x1: EcefCoord) -> EcefCoord:
    """X2 = T + (1 + m) R X1; OverflowError past the float range."""
    out = tuple(map(float, _bursa_wolf(p, x1.x, x1.y, x1.z)))
    if not all(map(math.isfinite, out)):
        raise OverflowError("transformed coordinate overflows")
    return EcefCoord(*out)


@quiet
def bursa_wolf_columns(p: BursaWolfParams, x, y, z) -> tuple:
    """Array form of bursa_wolf_apply over columns: (x, y, z, failed), failed
    marking a result that is not finite (so is that of a non-finite input)."""
    out = _bursa_wolf(p, x, y, z)
    return (*out, ~all_finite(*out))


def _bw_design_row_block(x: float, y: float, z: float) -> np.ndarray:
    return np.array(
        [
            [1.0, 0.0, 0.0, x, 0.0, -z, y],
            [0.0, 1.0, 0.0, y, z, 0.0, -x],
            [0.0, 0.0, 1.0, z, -y, x, 0.0],
        ]
    )


def bursa_wolf_estimate(pairs: list) -> DatumShiftResult:
    """Least-squares fit of the 7 parameters from common points.

    pairs: [(EcefCoord system 1, EcefCoord system 2), ...], n >= 3.
    The design matrix is the first-order one (scale and rotations enter
    linearly), solved by adjust.solve_linear with K = X1 - X2 and unit
    weights: sigma^2 = V'V/(3n-7) and cov = sigma^2 (A'A)^-1.  Its
    conditioning check on A'A scaled to a unit diagonal (the columns of A
    scaled to unit norm) rejects a condition number > 1e12 as
    RankDeficient; an overflowing A'A raises OverflowError.
    """
    from .adjust import LinearSystem, SingularNormal, solve_linear

    n = len(pairs)
    if 3 * n < 7 or n < 3:
        raise InsufficientPoints(f"{n} common points give {3 * n} equations < 7")
    a = np.vstack([_bw_design_row_block(p1.x, p1.y, p1.z) for p1, _ in pairs])
    k = np.concatenate([[p1.x - p2.x, p1.y - p2.y, p1.z - p2.z] for p1, p2 in pairs])
    try:
        res = solve_linear(LinearSystem(a, k))
    except SingularNormal:
        raise RankDeficient("normal matrix ill-conditioned (collinear network?)") from None
    return DatumShiftResult(BursaWolfParams(*res.x), res.v.reshape(n, 3), res.s2, res.cov)


# conditioning bounds of the rotation system, tightest first
_COND_LIMITS = (10.0, 1e2, 1e4, 1e8)
_EPS = sys.float_info.epsilon
_FIRST_BLOCK, _MAX_BLOCK = 16, 1 << 14
_SCAN_CAP = 1 << 17  # triples a scan may take: all C(91, 3) = 121 485 of 14 points


def _cross_rows(d: np.ndarray) -> np.ndarray:
    """The cross-product matrices [d_k]x of m chords, shape (m, 3, 3): row r
    holds the coefficients of component r of d_k x w."""
    rows = np.zeros((len(d), 3, 3))
    rows[:, 0, 1], rows[:, 0, 2] = -d[:, 2], d[:, 1]
    rows[:, 1, 0], rows[:, 1, 2] = d[:, 2], -d[:, 0]
    rows[:, 2, 0], rows[:, 2, 1] = -d[:, 1], d[:, 0]
    return rows


def _open_limits(d: np.ndarray, rows: np.ndarray) -> tuple:
    """The bounds of _COND_LIMITS that some chord triple may pass: a bound
    is left out when the certificate derived in bursa_wolf_direct proves
    that every triple's cond exceeds it."""
    big = np.abs(d).max(axis=1)
    if not big.any():
        return ()  # all chords have zero length, so every system is zero
    # each chord scaled by a power of two so that its largest component lies
    # in [0.5, 1): exact unless a component underflows
    e = np.ldexp(d, -np.frexp(big)[1][:, None])
    u = e[np.argmax(big)]
    u = u / np.linalg.norm(u)
    scaled = _cross_rows(e)
    s_up = np.linalg.norm(scaled @ u, axis=1)[:, None] + 16.0 * _EPS  # >= |e_k x u|
    h = np.linalg.norm(scaled, axis=2)
    zero_row = ~rows.any(axis=2)
    return tuple(limit for limit in _COND_LIMITS
                 if not np.all(zero_row | (2.0 * math.sqrt(3.0) * limit * s_up <= h)))


def _first_passing_triple(rows: np.ndarray, limits: tuple):
    """The chord triple (a, b, c) the nested scan over limits picks, or
    None: the first lexicographic triple with not cond > limits[0], else
    the first with not cond > limits[1], and so on.  One batched cond per
    block; the scan stops at the first block that passes limits[0].  It
    looks at no more than the first _SCAN_CAP triples, and raises
    ScanLimitReached if none of them passes limits[0] and triples are left."""
    triples = islice(combinations(range(len(rows)), 3), _SCAN_CAP)
    first, size = {}, _FIRST_BLOCK
    while block := list(islice(triples, size)):
        cond = np.linalg.cond(rows[np.array(block), [0, 1, 2]])
        for limit in limits:
            if limit not in first:
                hit = np.flatnonzero(~(cond > limit))
                if hit.size:
                    first[limit] = block[hit[0]]
        if limits[0] in first:
            break
        size = min(2 * size, _MAX_BLOCK)
    if limits[0] not in first and math.comb(len(rows), 3) > _SCAN_CAP:
        raise ScanLimitReached(
            f"{_SCAN_CAP} chord triples scanned, none with cond <= {limits[0]:g}: "
            "fit this set by least squares (datum bw-fit)")
    return next((first[limit] for limit in limits if limit in first), None)


def bursa_wolf_direct(pairs: list) -> BursaWolfParams:
    """Closed-form (first-order) parameter estimate without least squares.

    Scale: mean length ratio over the point pairs (chords) of nonzero
    length.  Translations: per-point values averaged.  Rotations: chords
    are the pairs (i, j), i < j, in lexicographic order; a triple of chords
    a < b < c gives the 3x3 system M whose row r is row r of the
    cross-product matrix [d]x of its r-th chord d.  For each bound in
    (10, 1e2, 1e4, 1e8) in turn, the first triple in lexicographic order
    whose M passes ``not np.linalg.cond(M) > bound`` is solved; if none
    passes at 1e8, SingularRotationSystem.

    Certificate, O(n^2).  Take a unit vector u (the direction of the chord
    with the largest component), s_k = |d_k x u| and the row norms h_kr of
    [d_k]x (h_kr^2 = |d_k|^2 - d_kr^2).  Component r of M u is component
    r of d x u, so, if s_k <= tau h_kr on every nonzero row, summing over
    a triple's rows gives |M u|^2 <= tau^2 |M|_F^2 <= 3 tau^2 sigma_max^2
    (a zero row, from a zero-length chord or a chord along an axis, adds
    exactly zero to both sides).  With tau = 1 / (2 sqrt(3) bound), every
    triple's exact cond is then at least twice the bound, and no triple
    can pass it.  The margin, that factor of 2: each chord is scaled by a
    power of two to a largest component in [0.5, 1), exact unless a
    component underflows, so the computed d x u errs by a few eps
    absolute, which the 16 eps added to each s_k covers, and the norms and
    |u| by a few eps relative.  LAPACK's singular values are exact for
    M + E with |E| <= p eps |M|, p modest for 3x3, which moves
    sigma_min / sigma_max by far less than the 0.5e-8 the factor leaves at
    the loosest bound, so the computed cond exceeds the bound too.  The
    bounds so proved out of reach are skipped; if all four are, as for a
    collinear set, SingularRotationSystem is raised without a scan.
    A chord or chord length that overflows to inf raises OverflowError
    first, before any LAPACK call.

    Scan.  Otherwise the triples come from itertools.combinations, and
    each triple's cond is computed once, by np.linalg.cond on blocks of
    stacked systems (bitwise equal to one call per system).  The first
    triple passing each bound left is recorded, and the scan stops at the
    first block that holds one passing the tightest bound left.  An input
    with no triple passing that bound scans all C(n(n-1)/2, 3) triples up
    to exactly the first _SCAN_CAP = 2^17 (every set of up to 14 points).
    If triples are left past the cap, ScanLimitReached is raised, so the
    worst case is 2^17 conds (0.3 s), not n^6; a set answered within the
    cap gets the full scan's parameters.
    """
    n = len(pairs)
    if n < 3:
        raise InsufficientPoints("need at least 3 common points")
    p1 = np.array([[p.x, p.y, p.z] for p, _ in pairs])
    p2 = np.array([[q.x, q.y, q.z] for _, q in pairs])
    i, j = np.triu_indices(n, 1)  # chords, lexicographic
    with np.errstate(over="ignore"):  # an overflow raises below
        d1, d2 = p1[j] - p1[i], p2[j] - p2[i]
        # per-chord norms: norm(axis=1) sums the squares in another order
        len1 = np.array([np.linalg.norm(x) for x in d1])
        len2 = np.array([np.linalg.norm(x) for x in d2])
    if not (np.isfinite(len1).all() and np.isfinite(len2).all()):
        raise OverflowError("a chord or its length overflows")
    rows = _cross_rows(d1)
    limits = _open_limits(d1, rows)
    triple = _first_passing_triple(rows, limits) if limits else None
    if triple is None:
        raise SingularRotationSystem("no chord triple yields a solvable system")

    one_plus_m = float(np.mean(len2[len1 > 0] / len1[len1 > 0]))
    m_scale = one_plus_m - 1.0

    a, b, c = triple
    v = (1.0 - m_scale) * d2 - d1
    mat = np.stack([rows[a, 0], rows[b, 1], rows[c, 2]])
    rot = np.linalg.solve(mat, np.array([v[a, 0], v[b, 1], v[c, 2]]))
    rx, ry, rz = (float(r) for r in rot)

    rot_matrix = np.array([[1.0, rz, -ry], [-rz, 1.0, rx], [ry, -rx, 1.0]])
    t_all = p2 - one_plus_m * (p1 @ rot_matrix.T)
    tx, ty, tz = (float(t) for t in t_all.mean(axis=0))
    return BursaWolfParams(tx, ty, tz, m_scale, rx, ry, rz)


def _molodensky(xp, ell1: Ellipsoid, ell2: Ellipsoid, phi, lam, he, t: tuple,
                abridged: bool) -> tuple:
    """(dphi_arcsec, dlam_arcsec, dhe_m) of either form; the translation
    terms come first in each sum."""
    dx, dy, dz = t
    a, f, da, df = ell1.a, ell1.f, ell2.a - ell1.a, ell2.f - ell1.f
    n, rho = _prime_vertical_radius(xp, ell1, phi), meridian_radius(ell1, phi)
    sphi, cphi, slam, clam = xp.sin(phi), xp.cos(phi), xp.sin(lam), xp.cos(lam)
    dphi = -dx * sphi * clam - dy * sphi * slam + dz * cphi
    dlam = -dx * slam + dy * clam
    dhe = dx * cphi * clam + dy * cphi * slam + dz * sphi
    if abridged:
        adf_fda = a * df + f * da
        return ((dphi + adf_fda * xp.sin(2.0 * phi)) / (rho * math.sin(ARCSEC)),
                dlam / (n * cphi * math.sin(ARCSEC)), dhe + adf_fda * sphi * sphi - da)
    b_over_a = 1.0 - f
    dphi = (
        dphi
        + n * ell1.e2 * sphi * cphi * da / a
        + df * (rho / b_over_a + n * b_over_a) * sphi * cphi
    ) / ((rho + he) * math.sin(ARCSEC))
    return (dphi, dlam / ((n + he) * cphi * math.sin(ARCSEC)),
            dhe - da * a / n + df * b_over_a * n * sphi * sphi)


def molodensky_standard(
    ell1: Ellipsoid, ell2: Ellipsoid, g: GeodeticCoord, t: tuple
) -> tuple:
    """Standard curvilinear datum shift (translations only, no scale/rotations).

    Returns (dphi_arcsec, dlam_arcsec, dhe_m) to add to the system-1
    coordinates; angular parts in sexagesimal arc-seconds.
    """
    return _molodensky(math, ell1, ell2, g.phi, g.lam, g.he, t, False)


def molodensky_abridged(
    ell1: Ellipsoid, ell2: Ellipsoid, g: GeodeticCoord, t: tuple
) -> tuple:
    """Abridged form: heights dropped, first order in the flattening."""
    return _molodensky(math, ell1, ell2, g.phi, g.lam, g.he, t, True)


def _near_axis(xp, ell: Ellipsoid, phi, he):
    """Whether a point lies within 1 m of the polar axis, |(N + he) cos(phi)|
    < 1 m, where the longitude shift divides by about 0: the rule
    coords.ecef_to_geodetic applies."""
    return abs((_prime_vertical_radius(xp, ell, phi) + he) * xp.cos(phi)) < 1.0


def _shifted(xp, ell1, ell2, phi, lam, he, t: tuple, abridged: bool) -> tuple:
    dphi, dlam, dhe = _molodensky(xp, ell1, ell2, phi, lam, he, t, abridged)
    return phi + dphi * ARCSEC, lam + dlam * ARCSEC, he + dhe


def apply_molodensky(
    ell1: Ellipsoid,
    ell2: Ellipsoid,
    g: GeodeticCoord,
    t: tuple,
    abridged: bool = False,
) -> GeodeticCoord:
    """System-2 geodetic coordinates of a system-1 point; PolarAxis for a
    point within 1 m of the polar axis."""
    if _near_axis(math, ell1, g.phi, g.he):
        raise PolarAxis("point too close to the polar axis")
    return GeodeticCoord(*_shifted(math, ell1, ell2, g.phi, g.lam, g.he, t, abridged))


@quiet
def molodensky_columns(ell1: Ellipsoid, ell2: Ellipsoid, phi, lam, he, t: tuple,
                       abridged: bool = False) -> tuple:
    """Array form of apply_molodensky over columns: (phi, lam, he, failed),
    failed marking an input or result GeodeticCoord rejects, or an input
    within 1 m of the polar axis."""
    phi, lam, ok = geodetic_columns(phi, lam, he)
    ok &= ~_near_axis(npmath, ell1, phi, he)
    phi, lam, he = _shifted(npmath, ell1, ell2, phi, lam, he, t, abridged)
    phi, lam, valid = geodetic_columns(phi, lam, he)
    return phi, lam, he, ~(ok & valid)


def _helmert2d(p: Helmert2DParams, e, n) -> tuple:
    return p.tx + p.u * e - p.v * n, p.ty + p.v * e + p.u * n


def helmert2d_apply(p: Helmert2DParams, xy: PlaneCoord) -> PlaneCoord:
    """X2 = tx + u X1 - v Y1; Y2 = ty + v X1 + u Y1; OverflowError past the float range."""
    out = _helmert2d(p, xy.e, xy.n)
    if not all(map(math.isfinite, out)):
        raise OverflowError("transformed plane coordinate overflows")
    return PlaneCoord(*out)


@quiet
def helmert2d_columns(p: Helmert2DParams, e, n) -> tuple:
    """Array form of helmert2d_apply over columns: (e, n, failed), failed
    marking a result that is not finite (so is that of a non-finite input)."""
    out = _helmert2d(p, e, n)
    return (*out, ~all_finite(*out))


def helmert2d_estimate(pairs: list) -> DatumShiftResult:
    """Least-squares 4-parameter plane similarity from common points.

    With the unknowns (tx, ty, u, v), point i contributes the design rows
    (1, 0, x_i, -y_i) and (0, 1, y_i, x_i).  Both point sets are reduced to
    their centroids, so sum x_i = sum y_i = 0 and the normal matrix is
    diagonal, diag(n, n, sum d_i^2, sum d_i^2): each unknown is solved on its
    own, in closed form with no design matrix and no adjust.solve_linear.
    Translations are de-reduced afterwards.  sigma0^2 = W'W/(n-4) needs n > 2.
    """
    n = len(pairs)
    if n < 2:
        raise InsufficientPoints("need at least 2 common points")
    src = np.array([[a.e, a.n] for a, _ in pairs])
    dst = np.array([[b.e, b.n] for _, b in pairs])
    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    x, y = (src - src_c).T
    xp, yp = (dst - dst_c).T
    d2 = float(np.sum(x * x + y * y))
    # coincident points can keep the rounding error of their mean once centred
    if d2 <= 0 or (src == src[0]).all():
        raise ZeroSpread("all common points coincide")
    if (dst == dst[0]).all():
        raise ZeroSpread("all target points coincide")

    u = float(np.sum(x * xp + y * yp) / d2)
    v = float(np.sum(x * yp - y * xp) / d2)
    if u == 0.0 and v == 0.0:  # e.g. a square mapped onto its mirror image
        raise ZeroSpread("the fitted scale is zero")
    # reduced translations are zero by construction; de-reduce to the full frame
    tx = float(dst_c[0] - u * src_c[0] + v * src_c[1])
    ty = float(dst_c[1] - v * src_c[0] - u * src_c[1])
    params = Helmert2DParams(tx, ty, u, v)

    w = np.empty(2 * n)
    w[0::2] = (u * x - v * y) - xp
    w[1::2] = (v * x + u * y) - yp
    dof = 2 * n - 4  # two equations per point, four unknowns
    s2 = float(w @ w / dof) if dof > 0 else None
    cov = None
    if s2 is not None:
        cov = s2 * np.diag([1.0 / n, 1.0 / n, 1.0 / d2, 1.0 / d2])
    return DatumShiftResult(params=params, residuals=w.reshape(n, 2), s2=s2, cov=cov)


def helmert2d_min_distance(sigma0: float, sigma_u_target: float, n: int) -> float:
    """Smallest max centroid distance D compatible with a target rotation sigma.

    From sigma_u^2 = sigma0^2 / sum(d_i^2) and d_i <= D:
    D >= sigma0 / (sigma_u sqrt(n)).
    """
    if sigma_u_target <= 0 or n <= 0:
        raise ValueError("need sigma_u_target > 0 and n > 0")
    return sigma0 / (sigma_u_target * math.sqrt(n))
