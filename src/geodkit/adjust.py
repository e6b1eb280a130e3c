"""Least-squares engine.

Linear Gauss-Markov solver for observation equations A X + K = V with
weights P, builders for the classical survey observation rows
(plane distance, direction with orientation unknown, spatial distance,
leveling), damped Gauss-Newton and Newton iterations for nonlinear
problems, a second-order (curvature) check of nonlinear minima, and the
satellite-geometry dilution-of-precision figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coords import (
    EcefCoord,
    GeodeticCoord,
    ecef_vector_to_local,
    geodetic_to_ecef,
    local_frame,
)
from .core import Ellipsoid, NumericalError


class SingularNormal(NumericalError, ValueError):
    pass


class CoincidentPoints(NumericalError, ValueError):
    pass


class SingularJacobian(NumericalError, ValueError):
    pass


class SingularHessian(NumericalError, ValueError):
    pass


class IndefiniteHessian(NumericalError, ValueError):
    """The Hessian is not positive definite; fall back to gauss_newton."""


class NoDescent(NumericalError, RuntimeError):
    """Step halving exhausted without decreasing the residual norm."""


class MaxIterations(NumericalError, RuntimeError):
    pass


class SingularGeometry(NumericalError, ValueError):
    """Satellite constellation is (nearly) coplanar or too small."""


def _weights(p, n: int) -> np.ndarray:
    """Weights as given: a vector of n for None, a scalar or a vector (the
    diagonal of P), and the n x n matrix only when a full one is given."""
    p = np.asarray(1.0 if p is None else p, dtype=float)
    if p.ndim == 0:
        return np.full(n, float(p))
    if p.ndim == 1 and p.shape[0] != n:
        raise ValueError("weight vector length mismatch")
    if p.ndim > 1 and p.shape != (n, n):
        raise ValueError("weight matrix shape mismatch")
    return p


def _weigh(m, p) -> np.ndarray:
    """M P for a weight vector (a diagonal P) or a full weight matrix.  The
    product is C-ordered either way, so (M P) X takes one BLAS path and gives
    the bits the dense diagonal gave."""
    if p.ndim == 1:
        return np.multiply(m, p, order="C")
    return m @ p


@dataclass(frozen=True)
class LinearSystem:
    """Observation equations A X + K = V with weights P.

    K is "calculated minus observed"; rows n must be >= unknowns r.
    P may be given as None (unit weights), a scalar, a diagonal vector or a
    full matrix.  A scalar or a vector is kept as a vector of n weights; a
    matrix is stored and used only when one is given.  A, K and P must be
    finite, with at least one observation and one unknown.
    """

    a: np.ndarray
    k: np.ndarray
    p: np.ndarray = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        k = np.asarray(self.k, dtype=float).ravel()
        if k.shape[0] == 0:
            raise ValueError("the system has no observations")
        if a.shape[1] == 0:
            raise ValueError("the system has no unknowns (every point fixed?)")
        if a.shape[0] != k.shape[0]:
            raise ValueError("A and K row counts differ")
        if a.shape[0] < a.shape[1]:
            raise ValueError("fewer observations than unknowns")
        p = _weights(self.p, a.shape[0])
        if not all(np.isfinite(q).all() for q in (a, k, p)):
            raise ValueError("A, K and P must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class AdjustmentResult:
    """Estimated corrections, residuals, variance factor and covariance."""

    x: np.ndarray
    v: np.ndarray
    s2: float | None
    cov: np.ndarray | None
    normal: np.ndarray = field(default=None, repr=False)
    iterations: int = 0
    trace: list = field(default=None, repr=False)


def solve_linear(sys: LinearSystem) -> AdjustmentResult:
    """Weighted least squares: X = -(A'PA)^-1 A'PK, V = AX + K.

    s2 = V'PV/(n-r) (absent when n == r) and cov = s2 (A'PA)^-1.
    The solution satisfies the renormalization condition A'PV = 0.
    """
    a, k, p = sys.a, sys.k, sys.p
    n, r = a.shape
    atp = _weigh(a.T, p)
    normal = atp @ a
    if not np.isfinite(normal).all():
        raise OverflowError("normal matrix overflows")
    scale = np.sqrt(np.diag(normal))
    if np.any(scale <= 0) or np.linalg.cond(normal / np.outer(scale, scale)) > 1e12:
        raise SingularNormal("normal matrix singular or ill-conditioned")
    rhs = atp @ k
    try:
        chol = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        raise SingularNormal("normal matrix not positive definite") from None
    x = -np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    v = a @ x + k
    dof = n - r
    s2 = float(_weigh(v, p) @ v / dof) if dof > 0 else None
    if not (np.isfinite(v).all() and math.isfinite(s2 or 0.0)):
        raise OverflowError("residuals or V'PV overflow")
    cov = s2 * np.linalg.inv(normal) if s2 is not None else None
    return AdjustmentResult(x=x, v=v, s2=s2, cov=cov, normal=normal, iterations=1)


def obs_distance2d(p1, p2, observed: float) -> tuple:
    """Row of a plane-distance observation between approximate points.

    Returns (coefficients on (dx1, dy1, dx2, dy2), constant D0 - Dobs).
    """
    x1, y1 = p1
    x2, y2 = p2
    dx, dy = x1 - x2, y1 - y2
    d0 = math.hypot(dx, dy)
    if d0 == 0.0:
        raise CoincidentPoints("distance between coincident points")
    coeffs = np.array([dx / d0, dy / d0, -dx / d0, -dy / d0])
    return coeffs, d0 - observed


def obs_direction2d(
    p1, p2, reading: float, v0: float, scale_by_distance: bool = True
) -> tuple:
    """Row of a direction observation from p1 to p2 with orientation unknown dV.

    The grid bearing model is G = reading + V; coefficients apply to
    (dx1, dy1, dx2, dy2, dV) and the constant is G0 - reading - V0.
    With scale_by_distance the whole row is multiplied by the distance so
    that its residual is metric, homogeneous with distance rows.
    """
    x1, y1 = p1
    x2, y2 = p2
    d = math.hypot(x2 - x1, y2 - y1)
    if d == 0.0:
        raise CoincidentPoints("direction between coincident points")
    g0 = math.atan2(x2 - x1, y2 - y1) % (2.0 * math.pi)
    c, s = math.cos(g0), math.sin(g0)
    coeffs = np.array([-c / d, s / d, c / d, -s / d, -1.0])
    const = g0 - reading - v0
    const = (const + math.pi) % (2.0 * math.pi) - math.pi  # wrap to (-pi, pi]
    if scale_by_distance:
        return coeffs * d, const * d
    return coeffs, const


def obs_distance3d(p1, p2, observed: float) -> tuple:
    """Row of a spatial-distance observation; coefficients on (dX1..dZ1, dX2..dZ2)."""
    q1 = np.asarray(p1, dtype=float)
    q2 = np.asarray(p2, dtype=float)
    delta = q2 - q1
    d0 = float(np.linalg.norm(delta))
    if d0 == 0.0:
        raise CoincidentPoints("distance between coincident points")
    u = delta / d0
    coeffs = np.concatenate([-u, u])
    return coeffs, d0 - observed


def obs_leveling(dh_calc: float, dh_obs: float, dist_km: float) -> tuple:
    """Row of a leveled height difference H_B - H_A.

    Returns (coefficients on (dH_A, dH_B), constant, weight); the weight is
    1/dist_km up to a common factor, since the variance of a leveling run
    grows with its length.
    """
    if dist_km <= 0:
        raise ValueError("leveling distance must be > 0")
    return np.array([-1.0, 1.0]), dh_calc - dh_obs, 1.0 / dist_km


def gauss_newton(
    model,
    jacobian,
    observed,
    x0,
    p=None,
    tol: float = 1e-10,
    max_iter: int = 50,
    max_halvings: int = 20,
) -> AdjustmentResult:
    """Damped Gauss-Newton for min ||observed - model(x)||^2_P.

    Iterates x <- x + (J'PJ)^-1 J'P e with e = observed - model(x); each
    step is halved (up to max_halvings) until the weighted residual norm
    does not increase.  Stops when the step norm drops below tol.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(observed, dtype=float).ravel()
    w = _weights(p, y.shape[0])

    def sq_norm(res):
        return float(_weigh(res, w) @ res)

    trace = [x.copy()]
    e = y - np.asarray(model(x), dtype=float).ravel()
    eps = float(np.finfo(float).eps)
    for it in range(1, max_iter + 1):
        j = np.atleast_2d(np.asarray(jacobian(x), dtype=float))
        jtw = _weigh(j.T, w)
        normal = jtw @ j
        try:
            chol = np.linalg.cholesky(normal)
        except np.linalg.LinAlgError:
            raise SingularJacobian("J'PJ not positive definite") from None
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, jtw @ e))
        step_norm = float(np.linalg.norm(step))

        def result():
            n, r = j.shape
            dof = n - r
            s2 = sq_norm(e) / dof if dof > 0 else None
            cov = s2 * np.linalg.inv(normal) if s2 is not None else None
            return AdjustmentResult(
                x=x, v=-e, s2=s2, cov=cov, normal=normal, iterations=it, trace=trace
            )

        if step_norm < tol:
            return result()
        base = sq_norm(e)
        factor = 1.0
        for _ in range(max_halvings + 1):
            x_new = x + factor * step
            e_new = y - np.asarray(model(x_new), dtype=float).ravel()
            # the slack admits rounding-level ties near the residual floor
            if sq_norm(e_new) <= base * (1.0 + 1e-12):
                break
            factor *= 0.5
        else:
            raise NoDescent("line search exhausted without residual decrease")
        improvement = base - sq_norm(e_new)
        x, e = x_new, e_new
        trace.append(x.copy())
        if improvement <= 8.0 * eps * base and step_norm < 1e-6 * (
            1.0 + float(np.linalg.norm(x))
        ):
            # the residual stopped improving with a micro-step: the rounding
            # floor sits above tol, so this is convergence
            return result()
    raise MaxIterations(f"no convergence in {max_iter} Gauss-Newton iterations")


def newton_minimize(
    gradient, hessian, x0, tol: float = 1e-12, max_iter: int = 100
) -> tuple:
    """Newton iteration x <- x - H^-1 grad for a C2 objective.

    Returns (x, trace).  Raises IndefiniteHessian when H is not positive
    definite at an iterate (callers may fall back to gauss_newton) and
    SingularHessian when it cannot be factorized at all.
    """
    x = np.asarray(x0, dtype=float).copy()
    trace = [x.copy()]
    for _ in range(max_iter):
        g = np.asarray(gradient(x), dtype=float).ravel()
        h = np.atleast_2d(np.asarray(hessian(x), dtype=float))
        if not np.all(np.isfinite(h)) or np.linalg.matrix_rank(h) < h.shape[0]:
            raise SingularHessian("Hessian singular at iterate")
        try:
            chol = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            raise IndefiniteHessian("Hessian not positive definite at iterate") from None
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, g))
        x = x - step
        trace.append(x.copy())
        if np.linalg.norm(step) < tol:
            return x, trace
    raise MaxIterations(f"no convergence in {max_iter} Newton iterations")


def _numeric_hessian_tensor(fn, x, n_out: int):
    """Central-difference second derivatives of a vector function."""
    x = np.asarray(x, dtype=float)
    m = x.size
    tensor = np.empty((n_out, m, m))
    steps = [1e-5 * (1.0 + abs(xi)) for xi in x]
    f0 = np.asarray(fn(x), dtype=float)
    for i in range(m):
        hi = steps[i]
        ei = np.zeros(m)
        ei[i] = hi
        for jj in range(i, m):
            hj = steps[jj]
            ej = np.zeros(m)
            ej[jj] = hj
            if i == jj:
                fpp = np.asarray(fn(x + ei), dtype=float)
                fmm = np.asarray(fn(x - ei), dtype=float)
                d2 = (fpp - 2.0 * f0 + fmm) / (hi * hi)
            else:
                fpp = np.asarray(fn(x + ei + ej), dtype=float)
                fpm = np.asarray(fn(x + ei - ej), dtype=float)
                fmp = np.asarray(fn(x - ei + ej), dtype=float)
                fmm = np.asarray(fn(x - ei - ej), dtype=float)
                d2 = (fpp - fpm - fmp + fmm) / (4.0 * hi * hj)
            tensor[:, i, jj] = d2
            tensor[:, jj, i] = d2
    return tensor


@dataclass(frozen=True)
class CurvatureCheck:
    """Second-order verdict on a nonlinear least-squares stationary point."""

    g: np.ndarray
    h: np.ndarray
    b: np.ndarray
    positive_definite: bool


def pazman_check(
    model, jacobian, observed, x_hat, p=None, second_derivatives=None
) -> CurvatureCheck:
    """Curvature-corrected information matrix B = G - H at a stationary point.

    G_ab = <dzeta/dXa, dzeta/dXb>_P is the first-order information matrix;
    H_ab = <L - zeta, d2 zeta/dXa dXb>_P the residual-curvature coupling.
    B positive definite certifies a strict local least-squares minimum.
    Second derivatives default to central differences with step
    1e-5 (1 + |x|).
    """
    x = np.asarray(x_hat, dtype=float)
    y = np.asarray(observed, dtype=float).ravel()
    w = _weights(p, y.shape[0])
    j = np.atleast_2d(np.asarray(jacobian(x), dtype=float))
    g = _weigh(j.T, w) @ j
    resid_w = _weigh(y - np.asarray(model(x), dtype=float).ravel(), w)
    if second_derivatives is not None:
        tensor = np.asarray(second_derivatives(x), dtype=float)
    else:
        tensor = _numeric_hessian_tensor(model, x, y.shape[0])
    m = x.size
    h = np.empty((m, m))
    for i in range(m):
        for jj in range(m):
            h[i, jj] = resid_w @ tensor[:, i, jj]
    b = g - h
    try:
        np.linalg.cholesky(0.5 * (b + b.T))
        pd = True
    except np.linalg.LinAlgError:
        pd = False
    return CurvatureCheck(g=g, h=h, b=b, positive_definite=pd)


# unknown axes per point, in the order the obs_* coefficients of each kind
# come; a direction row adds its round's orientation unknown last
_AXES = {"distance2d": ("x", "y"), "direction": ("x", "y"),
         "distance3d": ("x", "y", "z"), "leveling": ("z",)}
# the NetworkPoint field each coordinate correction goes to
_FIELDS = {"x": "x0", "y": "y0", "z": "z0"}


@dataclass(frozen=True)
class Observation:
    """One survey measurement for the network assembler.

    kind: distance2d | direction | distance3d | leveling.  Directions carry
    a set_id grouping rounds that share one orientation unknown; leveling
    rows carry the line length in km (their weight is proportional to its
    inverse when no sigma is given).  value must be finite, sigma and
    dist_km finite and > 0 when given.
    """

    kind: str
    frm: str
    to: str
    value: float
    sigma: float | None = None
    set_id: str | None = None
    dist_km: float | None = None

    def __post_init__(self):
        if self.kind not in _AXES:
            raise ValueError(f"unknown observation kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"observed value must be finite, got {self.value}")
        for name in ("sigma", "dist_km"):
            value = getattr(self, name)
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass
class NetworkPoint:
    name: str
    x0: float = 0.0
    y0: float = 0.0
    z0: float = 0.0
    fixed: bool = False


class Network:
    """Assembles survey observations into observation equations and solves them.

    Unknowns are the coordinate corrections of free points (plane for
    distance2d/direction rows, spatial for distance3d rows, the height z
    for leveling rows, one z unknown per point whichever kinds see it) and
    one orientation unknown per (station, set_id) of direction rounds,
    numbered in order of first appearance.  Nonlinear rows are re-linearized after each solution until
    the corrections die out.
    """

    def __init__(self, scale_directions: bool = True):
        self.points: dict[str, NetworkPoint] = {}
        self.observations: list[Observation] = []
        self.scale_directions = scale_directions

    def add_point(self, name, x0=0.0, y0=0.0, z0=0.0, fixed=False):
        if not all(math.isfinite(c) for c in (x0, y0, z0)):
            raise ValueError(f"point {name!r}: coordinates must be finite")
        self.points[name] = NetworkPoint(name, x0, y0, z0, fixed)

    def add_observation(self, obs: Observation):
        self.observations.append(obs)

    @staticmethod
    def _keys(obs: Observation) -> list:
        """Unknown keys of an observation, in the order of its coefficients."""
        axes = _AXES[obs.kind]
        keys = [(axis, name) for name in (obs.frm, obs.to) for axis in axes]
        if obs.kind == "direction":
            keys.append(("v", obs.frm, obs.set_id or ""))
        return keys

    def _unknown_index(self):
        index = {}
        for obs in self.observations:
            for key in self._keys(obs):
                if key not in index and (key[0] == "v" or not self.points[key[1]].fixed):
                    index[key] = len(index)
        return index

    def _orientations(self) -> dict:
        """Orientation unknowns, seeded with each round's mean reading offset."""
        seeds = {}
        for obs in self.observations:
            if obs.kind == "direction":
                p1, p2 = self.points[obs.frm], self.points[obs.to]
                g0 = math.atan2(p2.x0 - p1.x0, p2.y0 - p1.y0) % (2.0 * math.pi)
                seeds.setdefault(self._keys(obs)[-1], []).append(
                    (g0 - obs.value) % (2.0 * math.pi)
                )
        orientations = {}
        for key, group in seeds.items():
            base = group[0]
            centered = [(s - base + math.pi) % (2.0 * math.pi) - math.pi for s in group]
            orientations[key] = base + float(np.mean(centered))
        return orientations

    def _build(self, index, orientations):
        m = len(self.observations)
        a, k, w = np.zeros((m, len(index))), np.empty(m), np.empty(m)
        for i, obs in enumerate(self.observations):
            keys = self._keys(obs)
            p1, p2 = self.points[obs.frm], self.points[obs.to]
            w[i] = 1.0 / obs.sigma**2 if obs.sigma else 1.0
            if obs.kind == "distance2d":
                coeffs, k[i] = obs_distance2d((p1.x0, p1.y0), (p2.x0, p2.y0), obs.value)
            elif obs.kind == "direction":
                coeffs, k[i] = obs_direction2d(
                    (p1.x0, p1.y0), (p2.x0, p2.y0), obs.value, orientations[keys[-1]],
                    scale_by_distance=self.scale_directions,
                )
                if obs.sigma and self.scale_directions:
                    w[i] = 1.0 / (obs.sigma * math.hypot(p2.x0 - p1.x0, p2.y0 - p1.y0)) ** 2
            elif obs.kind == "distance3d":
                coeffs, k[i] = obs_distance3d(
                    (p1.x0, p1.y0, p1.z0), (p2.x0, p2.y0, p2.z0), obs.value
                )
            else:  # leveling
                coeffs, k[i], lw = obs_leveling(p2.z0 - p1.z0, obs.value, obs.dist_km or 1.0)
                if not obs.sigma:
                    w[i] = lw
            for key, c in zip(keys, coeffs):
                if key in index:
                    a[i, index[key]] = c
        return a, k, w

    def solve(self, tol: float = 1e-8, max_iter: int = 10) -> AdjustmentResult:
        index = self._unknown_index()
        orientations = self._orientations()
        for iteration in range(1, max_iter + 1):
            a, k, w = self._build(index, orientations)
            result = solve_linear(LinearSystem(a, k, w))
            for key, idx in index.items():
                if key[0] == "v":
                    orientations[key] += result.x[idx]
                else:
                    point, name = self.points[key[1]], _FIELDS[key[0]]
                    setattr(point, name, getattr(point, name) + result.x[idx])
            if np.abs(result.x).max() < tol:
                break
        return replace(result, iterations=iteration, trace=[index, dict(orientations)])


@dataclass(frozen=True)
class DopResult:
    gdop: float
    pdop: float
    tdop: float
    hdop: float
    vdop: float


def dop(sat_positions: list, receiver: GeodeticCoord, ell: Ellipsoid) -> DopResult:
    """Dilution-of-precision figures for a constellation seen from a receiver.

    Builds the single-epoch geometry matrix with rows (-unit line of sight, 1),
    takes Q = (A'A)^-1, reads GDOP/PDOP/TDOP from its diagonal and rotates
    the position block into the local frame for HDOP/VDOP.  Satellites below
    the horizon are ignored; fewer than 4 usable ones (or a coplanar set)
    raise SingularGeometry.
    """
    recv = geodetic_to_ecef(ell, receiver).as_array()
    frame = local_frame(receiver)
    rows = []
    for sat in sat_positions:
        vec = sat.as_array() - recv if isinstance(sat, EcefCoord) else np.asarray(sat) - recv
        dist = np.linalg.norm(vec)
        if dist == 0.0:
            continue
        if ecef_vector_to_local(frame, vec)[2] <= 0.0:
            continue  # below horizon
        rows.append(np.append(-vec / dist, 1.0))
    if len(rows) < 4:
        raise SingularGeometry("fewer than 4 satellites above the horizon")
    a = np.array(rows)
    normal = a.T @ a
    if np.linalg.cond(normal) > 1e10:
        raise SingularGeometry("coplanar constellation")
    q = np.linalg.inv(normal)
    gdop = math.sqrt(np.trace(q))
    pdop = math.sqrt(q[0, 0] + q[1, 1] + q[2, 2])
    tdop = math.sqrt(q[3, 3])
    q_local = frame.rotation @ q[:3, :3] @ frame.rotation.T
    hdop = math.sqrt(q_local[0, 0] + q_local[1, 1])
    vdop = math.sqrt(q_local[2, 2])
    return DopResult(gdop=gdop, pdop=pdop, tdop=tdop, hdop=hdop, vdop=vdop)
