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
from functools import cached_property, partial

from .coords import (
    EcefCoord,
    GeodeticCoord,
    ecef_vector_to_local,
    geodetic_to_ecef,
    local_frame,
)
from .core import Ellipsoid, NumericalError, Value, _store, np


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
    diagonal of P), and the n x n matrix only when a full one is given.
    Finite weights must be > 0, a matrix symmetric positive definite."""
    p = np.asarray(1.0 if p is None else p, dtype=float)
    if p.ndim == 0:
        p = np.full(n, float(p))
    if p.ndim == 1 and p.shape[0] != n:
        raise ValueError("weight vector length mismatch")
    if p.ndim > 1 and p.shape != (n, n):
        raise ValueError("weight matrix shape mismatch")
    if p.ndim == 1 and (p <= 0).any():
        raise ValueError("weights must be > 0")
    if p.ndim > 1 and np.isfinite(p).all():
        if not np.array_equal(p, p.T):
            raise ValueError("weight matrix not symmetric")
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            raise ValueError("weight matrix not positive definite") from None
    return p


def _weigh(m, p) -> np.ndarray:
    """M P for a weight vector (a diagonal P) or a full weight matrix.  The
    product is C-ordered either way, so (M P) X takes one BLAS path and gives
    the bits the dense diagonal gave."""
    if p.ndim == 1:
        return np.multiply(m, p, order="C")
    return m @ p


def check_condition(sym: np.ndarray, bound: float, error: Exception) -> np.ndarray:
    """Eigenvalues of the symmetric matrix sym, ascending, after raising
    error when sym is not finite or its 2-norm condition number
    max|lambda| / min|lambda| is not <= bound.

    For a symmetric matrix the |eigenvalues| are its singular values, so
    this is the ratio np.linalg.cond takes from an SVD, at about a third of
    the cost.  Both are backward stable, so they agree to about cond * eps
    relative (1e-12 at cond 1e4; 1e-4 at a bound of 1e12, 1e-6 at 1e10):
    only a matrix that close to the bound can get the other verdict.  The
    signs are left to the caller: an indefinite matrix passes when it is
    well conditioned, the zero matrix never.  eigvalsh reads one triangle
    of a copy of the whole matrix, so solve_linear calls this only up to
    256 unknowns; past that the factor of _factor, which holds the lower
    triangle in 128-column panels, about r^2/2 doubles, decides alone.
    """
    if not np.isfinite(sym).all():
        raise error
    lam = np.linalg.eigvalsh(sym)
    size = np.abs(lam)
    if not bound * size.min() >= size.max() > 0:
        raise error
    return lam


class LinearSystem(Value):
    """Observation equations A X + K = V with weights P.

    K is "calculated minus observed"; rows n must be >= unknowns r.
    P may be given as None (unit weights), a scalar, a diagonal vector or a
    full matrix.  A scalar or a vector is kept as a vector of n weights; a
    matrix is stored and used only when one is given.  A, K and P must be
    finite, with at least one observation and one unknown.

    Row-sparse form, for networks whose rows touch a few unknowns each:
    with cols, A is n x k and holds each row's coefficients, and cols
    (integers, the same shape) the unknown each one multiplies, -1 for a
    padding slot, which holds 0.  An unknown listed twice in a row adds
    its coefficients.  The unknowns are 0 .. cols.max(), and P must be a
    vector.  A then takes O(n k) memory instead of O(n r).

    weights_checked: P is what _weights returned for these n rows, so its
    sign, symmetry and Cholesky checks are not run again (gauss_newton
    checks P once per fit, not once per step).
    """

    a: np.ndarray
    k: np.ndarray
    p: np.ndarray = None
    cols: np.ndarray = None

    def __init__(self, a, k, p=None, cols=None, *, weights_checked=False):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        k = np.asarray(k, dtype=float).ravel()
        if k.shape[0] == 0:
            raise ValueError("the system has no observations")
        if a.shape[0] != k.shape[0]:
            raise ValueError("A and K row counts differ")
        if cols is not None:
            cols = np.asarray(cols)
            if cols.shape != a.shape or cols.dtype.kind not in "iu":
                raise ValueError("cols must be integers of the shape of A")
            if (cols < -1).any() or a[cols < 0].any():
                raise ValueError("padding slots (cols -1) must hold 0")
        _store(self, a=a, k=k, cols=cols)
        if self.unknowns == 0:
            raise ValueError("the system has no unknowns (every point fixed?)")
        if a.shape[0] < self.unknowns:
            raise ValueError("fewer observations than unknowns")
        p = p if weights_checked else _weights(p, a.shape[0])
        if cols is not None and p.ndim > 1:
            raise ValueError("the row-sparse form takes a weight vector")
        if not all(np.isfinite(q).all() for q in (a, k, p)):
            raise ValueError("A, K and P must be finite")
        _store(self, p=p)

    @property
    def unknowns(self) -> int:
        return self.a.shape[1] if self.cols is None else int(self.cols.max(initial=-1)) + 1


class AdjustmentResult(Value):
    """Estimated corrections, residuals and variance factor of a system.
    From Network.solve, x is the last iteration's correction, rounding
    noise below its tol, and v and s2 are that iteration's; from
    gauss_newton, x is the estimate, v = model(x) - observed there, trace
    the iterates and system the last step's.

    Its normal matrix N and cov = s2 N^-1 (None when s2 is; the inverse
    scaled in place) are computed when first read and then kept: work a
    caller who never reads them skips.  Both are whole r x r arrays, even
    where the solve held only the lower triangle of N.
    """

    x: np.ndarray
    v: np.ndarray
    s2: float | None
    system: LinearSystem = field(default=None, repr=False)
    iterations: int = 0
    trace: list = field(default=None, repr=False)

    def __init__(self, x, v, s2, system=None, iterations=0, trace=None):
        _store(self, x=x, v=v, s2=s2, system=system, iterations=iterations, trace=trace)

    @cached_property
    def normal(self) -> np.ndarray:
        return _normal_equations(self.system)[0]

    @cached_property
    def cov(self) -> np.ndarray | None:
        if self.s2 is None:
            return None
        inv = np.linalg.inv(self.normal)
        inv *= self.s2
        return inv


_BLOCK, _SMALL = 128, 256  # columns per block; unknowns that take eigvalsh


def _normal_equations(sys: LinearSystem, panels: bool = False) -> tuple:
    """A'PA and A'PK: matrix products in the dense form; in the row-sparse
    form summed by bincount from each row's coefficient products, O(n k^2)
    work and O(r^2) memory.  The product of coefficients i and j is formed
    as (a_i a_j) p_row for both (i, j) and (j, i), so A'PA is symmetric.

    With panels, A'PA comes as its lower triangle in panels of 128 columns,
    about r^2/2 doubles: panel b is the (r - 128b) x 128 (or narrower, the
    last) block of rows 128b on and columns 128b to 128b + 127.  The dense
    form takes each panel's product; the row-sparse form sums only the
    products of i >= j, in the order and so to the bits of the whole
    matrix's lower triangle, and leaves the diagonal blocks' upper
    triangles 0."""
    a, k, p, cols, r = sys.a, sys.k, sys.p, sys.cols, sys.unknowns
    shapes = [(r - j, min(_BLOCK, r - j)) for j in range(0, r, _BLOCK)]
    # the panels lie one after another in one buffer: panels and temporaries
    # allocated apart took fresh pages on every solve, about 8000 faults at
    # 2000 unknowns
    starts = np.cumsum([0] + [h * w for h, w in shapes])

    def cut(buf: np.ndarray) -> list:
        return [buf[o:o + h * w].reshape(h, w) for o, (h, w) in zip(starts, shapes)]

    if cols is None:
        atp = _weigh(a.T, p)
        if not panels:
            return atp @ a, atp @ k
        normal = cut(np.empty(starts[-1]))
        for j, q in zip(range(0, r, _BLOCK), normal):
            np.matmul(atp[j:], a[:, j:j + _BLOCK], out=q)
        return normal, atp @ k
    live = cols >= 0
    pair = live[:, :, None] & live[:, None, :]
    row, col = np.broadcast_arrays(cols[:, :, None], cols[:, None, :])
    if panels:
        pair &= row >= col
    row, col = row[pair], col[pair]
    prod = (a[:, :, None] * a[:, None, :] * p[:, None, None])[pair]
    rhs = np.bincount(cols[live], (a * (p * k)[:, None])[live], minlength=r)
    if not panels:
        return np.bincount(row * r + col, prod, minlength=r * r).reshape(r, r), rhs
    j = col - col % _BLOCK
    flat = starts[j // _BLOCK] + (row - j) * np.minimum(_BLOCK, r - j) + col - j
    return cut(np.bincount(flat, prod, minlength=starts[-1])), rhs


def _top_ritz(apply, r: int) -> float:
    """Largest eigenvalue of Q' apply(Q), Q an orthonormal basis of the block
    Krylov space of three products from a fixed random r x 8 start: a lower
    bound on the symmetric operator's, equal to it to rounding when r <= 8."""
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((r, 8)))[0]
    basis, images = q, apply(q)
    for _ in range(2):
        q = np.linalg.qr(np.hstack([basis, images[:, -q.shape[1]:]]))[0][:, basis.shape[1]:]
        basis, images = np.hstack([basis, q]), np.hstack([images, apply(q)])
    return float(np.linalg.eigvalsh(basis.T @ images)[-1])


def _factor(panels: list) -> tuple:
    """Cholesky-factor in place the symmetric S whose lower triangle panels
    holds, cut as _normal_equations cuts it; the diagonal blocks' upper
    triangles are first made their lower triangles' mirror.  Left-looking:
    each panel takes off the products of the earlier panels' rows, one
    earlier panel at a time, in an r x 128 work array that then keeps the
    diagonal blocks' inverses.  Returns (solve, kappa): solve(b) = S^-1 b
    by block forward and back substitution on the factor, and kappa, the
    top Ritz value of S (taken first) times that of S^-1, a lower bound on
    S's condition number; (None, inf) when S has no Cholesky factor."""
    r = len(panels[0])
    spans = [(j, j + q.shape[1], q) for j, q in zip(range(0, r, _BLOCK), panels)]
    for j, e, q in spans:
        upper = np.triu_indices(e - j, 1)
        q[upper] = q.T[upper]

    def product(x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        for j, e, q in spans:
            y[j:] += q @ x[j:e]
            y[j:e] += q[e - j:].T @ x[e:]
        return y

    # rows j on of work: panel b's update, then rows j to e its block's inverse
    lam_max, work = _top_ritz(product, r), np.empty((r, _BLOCK))
    try:
        for b, (j, e, q) in enumerate(spans):
            update = work[j:, : e - j]
            for i, _, earlier in spans[:b]:
                q -= np.matmul(earlier[j - i:], earlier[j - i:e - i].T, out=update)
            q[: e - j] = np.linalg.cholesky(q[: e - j])
            update[: e - j] = np.linalg.inv(q[: e - j])
            q[e - j:] = np.matmul(q[e - j:], update[: e - j].T, out=update[e - j:])
    except np.linalg.LinAlgError:
        return None, math.inf
    blocks = [(j, e, q[e - j:], work[j:e, : e - j]) for j, e, q in spans]

    def solve(b: np.ndarray) -> np.ndarray:
        y = b.copy()
        for j, e, below, inv in blocks:
            y[j:e] = inv @ y[j:e]
            y[e:] -= below @ y[j:e]
        for j, e, below, inv in reversed(blocks):
            y[j:e] = inv.T @ (y[j:e] - below.T @ y[e:])
        return y

    return solve, lam_max * _top_ritz(solve, r)


@np.errstate(over="ignore", invalid="ignore")
def solve_linear(sys: LinearSystem) -> AdjustmentResult:
    """Weighted least squares: X = -(A'PA)^-1 A'PK, V = AX + K.

    s2 = V'PV/(n-r) (absent when n == r); result.normal = A'PA and
    cov = s2 (A'PA)^-1 are computed on first read.  The solution satisfies
    the renormalization condition A'PV = 0.

    N = A'PA comes from a matrix product in the dense form and from the
    rows' nonzeros in the row-sparse form (see LinearSystem), which keeps
    memory at O(r^2) whatever n is.  N must be finite with a positive
    diagonal, and S = D^-1 N D^-1 (N scaled in place, D = sqrt(diag N)) a
    condition number <= 1e12 and positive eigenvalues, else SingularNormal.
    Up to 256 unknowns check_condition on S decides and np.linalg.solve
    gives X.  Past that N is built as its lower triangle in 128-column
    panels, about r^2/2 doubles (see _normal_equations), and S is
    Cholesky-factored in them in place: the factor decides, and block
    substitutions give X.  A factorization that fails or a condition
    estimate above 1e12 raises "singular or ill-conditioned": N = A'PA
    from positive definite weights is positive semidefinite, so that is
    the verdict eigvalsh gives it.  An overflowing N, A'PK or V'PV raises
    OverflowError, without numpy's warnings.
    """
    a, k, p, cols = sys.a, sys.k, sys.p, sys.cols
    n, r = a.shape[0], sys.unknowns
    large = r > _SMALL
    singular = SingularNormal("normal matrix singular or ill-conditioned")
    scaled, rhs = _normal_equations(sys, panels=large)
    panels = scaled if large else [scaled]  # the whole N is one panel
    if not all(np.isfinite(q).all() for q in panels):
        raise OverflowError("normal matrix overflows")
    diag = np.concatenate([np.diagonal(q) for q in panels])
    if not np.all(diag > 0):
        raise singular
    scale = np.sqrt(diag)
    for j, q in zip(range(0, r, _BLOCK), panels):
        q /= scale[j:, None]
        q /= scale[j:j + q.shape[1]]
    if large:
        solve, kappa = _factor(panels)
        if not kappa <= 1e12:
            raise singular
    elif check_condition(scaled, 1e12, singular)[0] <= 0:
        raise SingularNormal("normal matrix not positive definite")
    else:
        solve = partial(np.linalg.solve, scaled)
    x = -solve(rhs / scale) / scale
    v = (a @ x if cols is None else (a * np.append(x, 0.0)[cols]).sum(axis=1)) + k
    dof = n - r
    s2 = float(_weigh(v, p) @ v / dof) if dof > 0 else None
    if not (np.isfinite(v).all() and math.isfinite(s2 or 0.0)):
        raise OverflowError("residuals or V'PV overflow")
    return AdjustmentResult(x=x, v=v, s2=s2, system=sys, iterations=1)


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
    const = (const + math.pi) % (2.0 * math.pi) - math.pi  # wrap to [-pi, pi)
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
    does not increase.  Stops when the step norm drops below tol.  Each
    step is solve_linear's on LinearSystem(J, -e, P); SingularJacobian when
    J'PJ fails its check.
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
        try:
            lin = solve_linear(LinearSystem(j, -e, w, weights_checked=True))
        except SingularNormal:
            raise SingularJacobian("J'PJ singular, ill-conditioned or indefinite") from None
        step_norm = float(np.linalg.norm(lin.x))
        if step_norm < tol:
            break
        base = sq_norm(e)
        factor = 1.0
        for _ in range(max_halvings + 1):
            x_new = x + factor * lin.x
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
            break
    else:
        raise MaxIterations(f"no convergence in {max_iter} Gauss-Newton iterations")
    dof = j.shape[0] - j.shape[1]
    s2 = sq_norm(e) / dof if dof > 0 else None
    return AdjustmentResult(x=x, v=-e, s2=s2, system=lin.system, iterations=it, trace=trace)


def newton_minimize(
    gradient, hessian, x0, tol: float = 1e-12, max_iter: int = 100
) -> tuple:
    """Newton iteration x <- x - H^-1 grad for a C2 objective.

    Returns (x, trace).  H is taken as symmetric.  Raises SingularHessian
    when check_condition finds cond(H) > 1/(m eps) for m unknowns (the
    tolerance of np.linalg.matrix_rank) and IndefiniteHessian when H is not
    positive definite (callers may fall back to gauss_newton).
    """
    x = np.asarray(x0, dtype=float).copy()
    trace = [x.copy()]
    for _ in range(max_iter):
        g = np.asarray(gradient(x), dtype=float).ravel()
        h = np.atleast_2d(np.asarray(hessian(x), dtype=float))
        lam = check_condition(h, 1.0 / (h.shape[0] * np.finfo(float).eps),
                              SingularHessian("Hessian singular at iterate"))
        if lam[0] <= 0:
            raise IndefiniteHessian("Hessian not positive definite at iterate")
        step = np.linalg.solve(h, g)
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


class CurvatureCheck(Value):
    """Second-order verdict on a nonlinear least-squares stationary point."""

    g: np.ndarray
    h: np.ndarray
    b: np.ndarray
    positive_definite: bool

    def __init__(self, g, h, b, positive_definite):
        _store(self, g=g, h=h, b=b, positive_definite=positive_definite)


def pazman_check(
    model, jacobian, observed, x_hat, p=None, second_derivatives=None
) -> CurvatureCheck:
    """Curvature-corrected information matrix B = G - H at a stationary point.

    G_ab = <dzeta/dXa, dzeta/dXb>_P is the first-order information matrix;
    H_ab = <L - zeta, d2 zeta/dXa dXb>_P the residual-curvature coupling.
    B positive definite (a Cholesky attempt; nothing is solved) certifies a
    strict local least-squares minimum.  Second derivatives default to
    central differences with step 1e-5 (1 + |x|).
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


class Observation(Value):
    """One survey measurement for the network assembler.

    kind: distance2d | direction | distance3d | leveling.  Directions carry
    a set_id grouping rounds that share one orientation unknown; leveling
    rows carry the line length in km (their weight is proportional to its
    inverse when no sigma is given).  value must be finite, sigma and
    dist_km finite and > 0 when given; frm == to only for leveling.
    """

    kind: str
    frm: str
    to: str
    value: float
    sigma: float | None = None
    set_id: str | None = None
    dist_km: float | None = None

    def __init__(self, kind, frm, to, value, sigma=None, set_id=None, dist_km=None):
        if kind not in _AXES:
            raise ValueError(f"unknown observation kind {kind!r}")
        if frm == to and kind != "leveling":
            raise ValueError(f"{kind} row from {frm!r} to itself")
        if not math.isfinite(value):
            raise ValueError(f"observed value must be finite, got {value}")
        for name, size in (("sigma", sigma), ("dist_km", dist_km)):
            if size is not None and not (size > 0 and math.isfinite(size)):
                raise ValueError(f"{name} must be finite and > 0, got {size}")
        _store(self, kind=kind, frm=frm, to=to, value=value, sigma=sigma, set_id=set_id,
               dist_km=dist_km)


@dataclass
class NetworkPoint:
    """A network point's name, approximate coordinates and fixed flag; solve
    updates the coordinates in place."""

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

    Each observation row has 1 to 6 nonzero coefficients, so the rows are
    assembled in the row-sparse form of LinearSystem (n x 6 at most, never
    the dense n x r matrix), and a solve holds O(r^2) memory: past 256
    unknowns the lower triangle of the scaled normal matrix in 128-column
    panels, about r^2/2 doubles, factored in place.
    """

    def __init__(self, scale_directions: bool = True):
        self.points: dict[str, NetworkPoint] = {}
        self.observations: list[Observation] = []
        self.scale_directions = scale_directions

    def add_point(self, name, x0=0.0, y0=0.0, z0=0.0, fixed=False):
        if name in self.points:
            raise ValueError(f"point {name!r} is added twice")
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

    def _unknowns(self) -> tuple:
        """(index, cols): the unknowns by key, numbered in order of first
        appearance, and for each observation row the unknown each of its
        coefficients goes to, -1 for a fixed point's coordinate and for the
        padding of rows narrower than the widest kind."""
        index, rows = {}, []
        for obs in self.observations:
            keys = self._keys(obs)
            for key in keys:
                if key not in index and (key[0] == "v" or not self.points[key[1]].fixed):
                    index[key] = len(index)
            rows.append([index.get(key, -1) for key in keys])
        cols = np.full((len(rows), max(map(len, rows), default=0)), -1)
        for i, row in enumerate(rows):
            cols[i, : len(row)] = row
        return index, cols

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

    def _build(self, cols, orientations) -> tuple:
        """This iteration's row-sparse A (coefficients in the slots of cols,
        see LinearSystem), K and weights."""
        a, k, w = np.zeros(cols.shape), np.empty(len(cols)), np.empty(len(cols))
        for i, obs in enumerate(self.observations):
            p1, p2 = self.points[obs.frm], self.points[obs.to]
            w[i] = 1.0 / obs.sigma**2 if obs.sigma else 1.0
            if obs.kind == "distance2d":
                coeffs, k[i] = obs_distance2d((p1.x0, p1.y0), (p2.x0, p2.y0), obs.value)
            elif obs.kind == "direction":
                coeffs, k[i] = obs_direction2d(
                    (p1.x0, p1.y0), (p2.x0, p2.y0), obs.value,
                    orientations[self._keys(obs)[-1]],
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
            a[i, : len(coeffs)] = coeffs
        a[cols < 0] = 0.0  # fixed points' coordinates are no unknowns
        return a, k, w

    def solve(self, tol: float = 1e-8, max_iter: int = 10) -> AdjustmentResult:
        """Iterate solve_linear on the row-sparse rows, moving the points and
        orientations by each solution, until max |x| < tol; MaxIterations if
        that takes more than max_iter solutions.  Memory is O(r^2) for r
        unknowns; the result's normal and cov are computed when read, and
        its x is the last solution's correction."""
        index, cols = self._unknowns()
        orientations = self._orientations()
        for iteration in range(1, max_iter + 1):
            a, k, w = self._build(cols, orientations)
            result = solve_linear(LinearSystem(a, k, w, cols=cols))
            for key, idx in index.items():
                if key[0] == "v":
                    orientations[key] += result.x[idx]
                else:
                    point, name = self.points[key[1]], _FIELDS[key[0]]
                    setattr(point, name, getattr(point, name) + result.x[idx])
            if np.abs(result.x).max() < tol:
                return replace(result, iterations=iteration, trace=[index, dict(orientations)])
        raise MaxIterations(f"no convergence in {max_iter} network iterations: "
                            f"max |x| = {np.abs(result.x).max():.6g} >= tol = {tol:g}")


class DopResult(Value):
    """Geometric, position, time, horizontal and vertical dilution of precision."""

    gdop: float
    pdop: float
    tdop: float
    hdop: float
    vdop: float

    def __init__(self, gdop, pdop, tdop, hdop, vdop):
        _store(self, gdop=gdop, pdop=pdop, tdop=tdop, hdop=hdop, vdop=vdop)


def dop(sat_positions: list, receiver: GeodeticCoord, ell: Ellipsoid) -> DopResult:
    """Dilution-of-precision figures for a constellation seen from a receiver.

    Builds the single-epoch geometry matrix with rows (-unit line of sight, 1),
    takes Q = (A'A)^-1, reads GDOP/PDOP/TDOP from its diagonal and rotates
    the position block into the local frame for HDOP/VDOP.  Satellites below
    the horizon are ignored; fewer than 4 usable ones, or an A'A whose
    condition number exceeds 1e10 (check_condition; a coplanar set), raise
    SingularGeometry.  Q itself is wanted, so it is not left to solve_linear.
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
    check_condition(normal, 1e10, SingularGeometry("coplanar constellation"))
    q = np.linalg.inv(normal)
    gdop = math.sqrt(np.trace(q))
    pdop = math.sqrt(q[0, 0] + q[1, 1] + q[2, 2])
    tdop = math.sqrt(q[3, 3])
    q_local = frame.rotation @ q[:3, :3] @ frame.rotation.T
    hdop = math.sqrt(q_local[0, 0] + q_local[1, 1])
    vdop = math.sqrt(q_local[2, 2])
    return DopResult(gdop=gdop, pdop=pdop, tdop=tdop, hdop=hdop, vdop=vdop)
