import copy
import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geodkit import adjust
from geodkit.adjust import (
    _FIELDS,
    CoincidentPoints,
    IndefiniteHessian,
    LinearSystem,
    MaxIterations,
    Network,
    NoDescent,
    Observation,
    SingularGeometry,
    SingularHessian,
    SingularJacobian,
    SingularNormal,
    check_condition,
    dop,
    gauss_newton,
    newton_minimize,
    obs_direction2d,
    obs_distance2d,
    obs_distance3d,
    obs_leveling,
    pazman_check,
    solve_linear,
)
from geodkit.coords import (
    EcefCoord,
    GeodeticCoord,
    geodetic_to_ecef,
    local_frame,
    local_vector_to_ecef,
)

GR = math.pi / 200.0


def triangle_system():
    """Triangle side/angle adjustment: two sides and three angles observed.

    Unknowns are the three side corrections in units of 0.1 mm; angle
    residuals are in units of 0.1 gr.  The design matrix is linearized at
    the observed sides, with the third side seeded from the sine rule.
    """
    unit = 2000.0 / math.pi  # rad -> 0.1 gr
    a0, b0 = 964.8, 1155.0
    ang_a, ang_b, ang_c = 63.042 * GR, 99.802 * GR, 37.008 * GR
    c0 = a0 * math.sin(ang_c) / math.sin(ang_a)

    def angle_eq(opp, adj1, adj2, ang):
        s = math.sin(ang)
        d_opp = opp / (adj1 * adj2 * s)
        d_adj1 = -(opp**2 + adj1**2 - adj2**2) / (2.0 * adj1**2 * adj2 * s)
        d_adj2 = -(opp**2 + adj2**2 - adj1**2) / (2.0 * adj1 * adj2**2 * s)
        misclosure = (
            adj1**2 + adj2**2 - opp**2 - 2.0 * adj1 * adj2 * math.cos(ang)
        ) / (2.0 * adj1 * adj2 * s)
        return d_opp, d_adj1, d_adj2, misclosure

    da_a, da_b, da_c, k_a = angle_eq(a0, b0, c0, ang_a)
    db_b, db_c, db_a, k_b = angle_eq(b0, c0, a0, ang_b)
    dc_c, dc_a, dc_b, k_c = angle_eq(c0, a0, b0, ang_c)
    a_mat = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [da_a * unit, da_b * unit, da_c * unit],
            [db_a * unit, db_b * unit, db_c * unit],
            [dc_a * unit, dc_b * unit, dc_c * unit],
        ]
    )
    l_vec = np.array([0.0, 0.0, k_a * unit, k_b * unit, k_c * unit])
    p = np.diag([0.277, 0.160, 1.524, 1.524, 1.524])
    return a_mat, l_vec, p


class TestSolveLinear:
    def test_consistent_system(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 3))
        x0 = np.array([1.0, -2.0, 0.5])
        sys = LinearSystem(a, -a @ x0)
        res = solve_linear(sys)
        np.testing.assert_allclose(res.x, x0, atol=1e-12)
        np.testing.assert_allclose(res.v, 0.0, atol=1e-12)
        assert res.s2 == pytest.approx(0.0, abs=1e-24)

    def test_zero_redundancy(self):
        a = np.eye(3)
        res = solve_linear(LinearSystem(a, np.ones(3)))
        assert res.s2 is None and res.cov is None

    def test_singular_normal(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularNormal):
            solve_linear(LinearSystem(a, np.ones(3)))

    def test_renormalization_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, r = rng.integers(4, 12), rng.integers(1, 4)
            a = rng.normal(size=(n, r))
            k = rng.normal(size=n)
            p = np.diag(rng.uniform(0.1, 5.0, n))
            res = solve_linear(LinearSystem(a, k, p))
            lhs = np.abs(a.T @ p @ res.v).max()
            bound = 1e-8 * np.abs(a).max() * np.abs(p).max() * max(
                np.linalg.norm(res.v), 1e-12
            )
            assert lhs <= bound
            cov = res.cov
            if cov is not None:
                np.testing.assert_allclose(cov, cov.T, atol=1e-12)
                assert np.all(np.linalg.eigvalsh(cov) > -1e-12)

    def test_triangle_network(self):
        # the printed reference matrices of this adjustment carry their own
        # few-1e-3 rounding; the frozen values below come from solving the
        # exactly-built system (verified against a 50-digit solver)
        a_mat, l_vec, p = triangle_system()
        res = solve_linear(LinearSystem(a_mat, -l_vec, p))
        assert res.x == pytest.approx([0.62928, -0.91003, 0.94574], abs=5e-5)
        assert np.abs(a_mat.T @ p @ res.v).max() < 1e-8


def _outcome(a, k, p):
    """The bytes of every result field of solve_linear, or the error it raised."""
    try:
        res = solve_linear(LinearSystem(a, k, p))
    except SingularNormal as exc:
        return type(exc)
    return [None if q is None else np.asarray(q).tobytes()
            for q in (res.x, res.v, res.s2, res.cov, res.normal)]


@st.composite
def weighted_systems(draw):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(n, 4)))
    a = draw(arrays(float, (n, r), elements=st.floats(-10.0, 10.0)))
    k = draw(arrays(float, n, elements=st.floats(-100.0, 100.0)))
    w = draw(arrays(float, n, elements=st.floats(0.01, 100.0)))
    return a, k, w, draw(st.floats(0.01, 100.0))


class TestWeights:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(weighted_systems())
    def test_vector_and_matrix_weights_give_the_same_bits(self, system):
        a, k, w, c = system
        assert _outcome(a, k, w) == _outcome(a, k, np.diag(w))
        assert _outcome(a, k, c) == _outcome(a, k, np.full(len(k), c))

    def test_scalar_and_vector_weights_stay_a_vector(self):
        a, k = np.ones((5, 2)), np.zeros(5)
        a[:, 1] = np.arange(5)
        assert LinearSystem(a, k, np.arange(1.0, 6.0)).p.shape == (5,)
        assert LinearSystem(a, k, 2.0).p.shape == (5,)
        assert LinearSystem(a, k).p.shape == (5,)
        assert LinearSystem(a, k, np.eye(5)).p.shape == (5, 5)

    @pytest.mark.parametrize("p, message", [
        (0.0, "weights must be > 0"),
        (-1.0, "weights must be > 0"),
        ([1.0, 0.0, 2.0], "weights must be > 0"),
        ([1.0, 1.0, -0.5], "weights must be > 0"),
        (np.diag([1.0, 1.0, 0.0]), "not positive definite"),
        (np.diag([1.0, 1.0, -0.5]), "not positive definite"),
        ([[2.0, 0.0, 0.0], [1e-9, 2.0, 0.0], [0.0, 0.0, 2.0]], "not symmetric"),
    ])
    def test_weights_not_positive_definite(self, p, message):
        a, k = np.ones((3, 1)), np.array([0.0, 1.0, -3.0])
        with pytest.raises(ValueError, match=message):
            LinearSystem(a, k, p)
        with pytest.raises(ValueError, match=message):
            gauss_newton(lambda x: a @ x, lambda x: a, -k, np.zeros(1), p=p)
        with pytest.raises(ValueError, match=message):
            pazman_check(lambda x: a @ x, lambda x: a, -k, np.zeros(1), p=p)

    def test_weight_shape_mismatch(self):
        a, k = np.ones((3, 1)), np.zeros(3)
        with pytest.raises(ValueError, match="weight vector length mismatch"):
            LinearSystem(a, k, np.ones(4))
        with pytest.raises(ValueError, match="weight matrix shape mismatch"):
            LinearSystem(a, k, np.ones((3, 4)))


def reference_solve_linear(a, k, p):
    """The dense solve Network.solve used before the row-sparse form: SVD
    condition number, Cholesky and two general solves on its factor.
    Returns (x, v, s2, normal)."""
    n, r = a.shape

    def weigh(m):
        return m @ p if np.ndim(p) == 2 else m * p

    atp = weigh(a.T)
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
    s2 = float(weigh(v) @ v / dof) if dof > 0 else None
    return x, v, s2, normal


def reference_build(net, index, orientations):
    """The dense n x r design matrix, K and weights of a network."""
    m = len(net.observations)
    a, k, w = np.zeros((m, len(index))), np.empty(m), np.empty(m)
    for i, obs in enumerate(net.observations):
        keys = net._keys(obs)
        p1, p2 = net.points[obs.frm], net.points[obs.to]
        w[i] = 1.0 / obs.sigma**2 if obs.sigma else 1.0
        if obs.kind == "distance2d":
            coeffs, k[i] = obs_distance2d((p1.x0, p1.y0), (p2.x0, p2.y0), obs.value)
        elif obs.kind == "direction":
            coeffs, k[i] = obs_direction2d(
                (p1.x0, p1.y0), (p2.x0, p2.y0), obs.value, orientations[keys[-1]],
                scale_by_distance=net.scale_directions)
            if obs.sigma and net.scale_directions:
                w[i] = 1.0 / (obs.sigma * math.hypot(p2.x0 - p1.x0, p2.y0 - p1.y0)) ** 2
        elif obs.kind == "distance3d":
            coeffs, k[i] = obs_distance3d((p1.x0, p1.y0, p1.z0), (p2.x0, p2.y0, p2.z0),
                                          obs.value)
        else:
            coeffs, k[i], lw = obs_leveling(p2.z0 - p1.z0, obs.value, obs.dist_km or 1.0)
            if not obs.sigma:
                w[i] = lw
        for key, c in zip(keys, coeffs):
            if key in index:
                a[i, index[key]] = c
    return a, k, w


def reference_unknowns(net) -> dict:
    index = {}
    for obs in net.observations:
        for key in net._keys(obs):
            if key not in index and (key[0] == "v" or not net.points[key[1]].fixed):
                index[key] = len(index)
    return index


def reference_network_solve(net, tol=1e-8, max_iter=10):
    """Network.solve with the dense assembly and solve above; moves the
    points the same way.  Returns the last iteration's (x, v, s2, normal)."""
    index = reference_unknowns(net)
    orientations = net._orientations()
    for _ in range(max_iter):
        x, v, s2, normal = reference_solve_linear(*reference_build(net, index, orientations))
        for key, idx in index.items():
            if key[0] == "v":
                orientations[key] += x[idx]
            else:
                point, name = net.points[key[1]], _FIELDS[key[0]]
                setattr(point, name, getattr(point, name) + x[idx])
        if np.abs(x).max() < tol:
            break
    return x, v, s2, normal


def _bearing(p, q) -> float:
    return math.atan2(q[0] - p[0], q[1] - p[1]) % (2 * math.pi)


def leveling_network(rng, n: int, fixed: bool = True) -> Network:
    """A chain through n points plus n random lines, 1 mm/sqrt(km); heights
    start at 0 but for the fixed first point."""
    net = Network()
    h = 100.0 + np.cumsum(rng.normal(0.0, 5.0, n))
    for i in range(n):
        net.add_point(f"P{i}", z0=float(h[0]) if i == 0 else 0.0, fixed=fixed and i == 0)
    lines = [(i, i + 1) for i in range(n - 1)]
    lines += [tuple(int(j) for j in rng.choice(n, 2, replace=False)) for _ in range(n)]
    for i, j in lines:
        km = float(rng.uniform(0.5, 5.0))
        sigma = 1e-3 * math.sqrt(km)
        dh = float(h[j] - h[i] + rng.normal(0.0, sigma))
        net.add_observation(Observation("leveling", f"P{i}", f"P{j}", dh,
                                        sigma if rng.random() < 0.5 else None, dist_km=km))
    return net


def plane_network(rng, n: int, fixed: int = 2) -> Network:
    """n points in 2 km, all distances and 0 to 2 direction rounds per
    station; the first `fixed` points are fixed, the others start 0.3 m off."""
    net = Network(scale_directions=bool(rng.random() < 0.8))
    xy = rng.uniform(0.0, 2000.0, (n, 2))
    for i in range(n):
        off = (0.0, 0.0) if i < fixed else rng.normal(0.0, 0.3, 2)
        net.add_point(f"Q{i}", *(xy[i] + off), fixed=i < fixed)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(xy[i], xy[j]) + rng.normal(0.0, 2e-3)
            net.add_observation(Observation("distance2d", f"Q{i}", f"Q{j}", d, 2e-3))
    for i in range(n):
        for round_id in range(int(rng.integers(0, 3))):
            zero = rng.uniform(0.0, 2 * math.pi)
            for j in range(n):
                if j != i:
                    reading = (_bearing(xy[i], xy[j]) - zero + rng.normal(0.0, 3e-6)) % (
                        2 * math.pi)
                    net.add_observation(Observation("direction", f"Q{i}", f"Q{j}", reading,
                                                    3e-6, set_id=str(round_id)))
    return net


def chain_plane_network(rng, n: int) -> Network:
    """n free points in 2 km, a chain of distances and n + 1 random ones:
    2n unknowns, as many rows, and a datum defect (a shift and a turn)."""
    net = Network()
    xy = rng.uniform(0.0, 2000.0, (n, 2))
    for i in range(n):
        net.add_point(f"Q{i}", *xy[i])
    lines = [(i, i + 1) for i in range(n - 1)]
    lines += [tuple(int(j) for j in rng.choice(n, 2, replace=False)) for _ in range(n + 1)]
    for i, j in lines:
        d = math.dist(xy[i], xy[j]) + rng.normal(0.0, 2e-3)
        net.add_observation(Observation("distance2d", f"Q{i}", f"Q{j}", d, 2e-3))
    return net


ANCHORS = np.array([[0.0, 0.0, 0.0], [1500.0, 0.0, 40.0], [0.0, 1500.0, -30.0],
                    [1400.0, 1300.0, 600.0]])


def spatial_network(rng, n: int, mixed: bool = False) -> Network:
    """n free points seen by distance3d rows from four fixed anchors; mixed
    adds distance2d rows between free points, leveling lines and a direction
    round from an anchor."""
    net = Network()
    truth = rng.uniform(0.0, 1500.0, (n, 3)) * [1.0, 1.0, 0.3]
    for a, p in enumerate(ANCHORS):
        net.add_point(f"A{a}", *p, fixed=True)
    for i in range(n):
        net.add_point(f"F{i}", *(truth[i] + rng.normal(0.0, 0.1, 3)))
    for i in range(n):
        for a in range(len(ANCHORS)):
            d = float(np.linalg.norm(truth[i] - ANCHORS[a])) + rng.normal(0.0, 2e-3)
            net.add_observation(Observation("distance3d", f"A{a}", f"F{i}", d, 2e-3))
    if mixed:
        zero = rng.uniform(0.0, 2 * math.pi)
        for i in range(n):
            j = int(rng.integers(0, n))
            if j != i:
                d = math.dist(truth[i][:2], truth[j][:2]) + rng.normal(0.0, 2e-3)
                net.add_observation(Observation("distance2d", f"F{i}", f"F{j}", d, 2e-3))
            dh = float(truth[i][2] - ANCHORS[0][2] + rng.normal(0.0, 1e-3))
            net.add_observation(Observation("leveling", "A0", f"F{i}", dh, dist_km=1.0))
            reading = (_bearing(ANCHORS[3], truth[i]) - zero + rng.normal(0.0, 3e-6)) % (
                2 * math.pi)
            net.add_observation(Observation("direction", "A3", f"F{i}", reading, 3e-6,
                                            set_id="r"))
        for a in (1, 2):
            reading = (_bearing(ANCHORS[3], ANCHORS[a]) - zero) % (2 * math.pi)
            net.add_observation(Observation("direction", "A3", f"A{a}", reading, 3e-6,
                                            set_id="r"))
    return net


NETWORKS = {
    "leveling": leveling_network,
    "plane": plane_network,
    "distance3d": spatial_network,
    "mixed": lambda rng, n: spatial_network(rng, n, mixed=True),
}


def _coordinates(net) -> np.ndarray:
    return np.array([[p.x0, p.y0, p.z0] for p in net.points.values()])


def _outcome_class(solve, net):
    try:
        solve(net)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return None


class TestRowSparseNetworkSolve:
    """Network.solve against the dense reference it replaced."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(NETWORKS)), st.integers(3, 12), st.integers(0, 2**32 - 1))
    def test_matches_the_dense_reference(self, kind, n, seed):
        net = NETWORKS[kind](np.random.default_rng(seed), n)
        ref_net = copy.deepcopy(net)
        res = net.solve()
        _, ref_v, ref_s2, _ = reference_network_solve(ref_net)
        coords, ref_coords = _coordinates(net), _coordinates(ref_net)
        assert np.linalg.norm(coords - ref_coords) <= 1e-12 * np.linalg.norm(ref_coords)
        # v and s2 are differences of the adjusted coordinates, so the
        # coordinates' rounding (1e-14 of their norm, about 50 eps) is their
        # floor: residuals of 2 mm between points 2 km apart differ by up to
        # 1.5e-10 of their own norm.  The s2 bound is the v bound's first-order
        # image, |d s2| <= 2 |P v| |d v| / dof.
        tol_v = 1e-12 * np.linalg.norm(ref_v) + 1e-14 * np.linalg.norm(ref_coords)
        assert np.linalg.norm(res.v - ref_v) <= tol_v
        dof = len(res.v) - len(res.x)
        p = reference_build(ref_net, reference_unknowns(ref_net), ref_net._orientations())[2]
        tol_s2 = 1e-12 * ref_s2 + 2.0 * np.linalg.norm(p * ref_v) * tol_v / dof
        assert abs(res.s2 - ref_s2) <= tol_s2

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(NETWORKS)), st.integers(3, 12), st.integers(0, 2**32 - 1))
    def test_scattered_normal_matrix_is_dense_atpa(self, kind, n, seed):
        net = NETWORKS[kind](np.random.default_rng(seed), n)
        index, cols = net._unknowns()
        orientations = net._orientations()
        assert index == reference_unknowns(net)
        res = solve_linear(LinearSystem(*net._build(cols, orientations), cols=cols))
        a, k, w = reference_build(net, index, orientations)
        dense = (a.T * w) @ a
        assert np.abs(res.normal - dense).max() <= 1e-14 * np.abs(dense).max()
        assert np.array_equal(res.normal, res.normal.T)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(NETWORKS)), st.integers(3, 8), st.integers(0, 2**32 - 1))
    def test_cov_is_computed_on_first_read(self, kind, n, seed):
        res = NETWORKS[kind](np.random.default_rng(seed), n).solve()
        assert "cov" not in vars(res)
        cov = res.cov
        assert cov.tobytes() == (res.s2 * np.linalg.inv(res.normal)).tobytes()
        assert res.cov is cov

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(st.sampled_from([("leveling", 300, 400), ("distance3d", 90, 120), ("mixed", 90, 110)]),
           st.integers(0, 2**32 - 1))
    def test_factored_solve_matches_the_dense_reference(self, kind_sizes, seed):
        # past 256 unknowns the scaled N is factored in place and the
        # condition number estimated from the factor
        kind, lo, hi = kind_sizes
        rng = np.random.default_rng(seed)
        net = NETWORKS[kind](rng, int(rng.integers(lo, hi + 1)))
        assert len(net._unknowns()[0]) > adjust._SMALL
        ref_net = copy.deepcopy(net)
        res = net.solve()
        _, ref_v, ref_s2, _ = reference_network_solve(ref_net)
        coords, ref_coords = _coordinates(net), _coordinates(ref_net)
        assert np.linalg.norm(coords - ref_coords) <= 1e-12 * np.linalg.norm(ref_coords)
        tol_v = 1e-12 * np.linalg.norm(ref_v) + 1e-14 * np.linalg.norm(ref_coords)
        assert np.linalg.norm(res.v - ref_v) <= tol_v
        assert res.s2 == pytest.approx(ref_s2, rel=1e-9)

    def test_large_datum_defect_raises_as_before(self):
        net = leveling_network(np.random.default_rng(3), 300, fixed=False)
        assert len(net._unknowns()[0]) > adjust._SMALL
        with pytest.raises(SingularNormal, match="normal matrix singular or ill-conditioned"):
            copy.deepcopy(net).solve()
        assert _outcome_class(reference_network_solve, net) is SingularNormal

    @pytest.mark.parametrize("build", [lambda rng: leveling_network(rng, 1000, fixed=False),
                                       lambda rng: chain_plane_network(rng, 500)],
                             ids=["leveling", "plane"])
    def test_large_datum_defects_are_judged_by_the_factor(self, build, monkeypatch):
        # 1000 unknowns and no point fixed: the factor's verdict is the only
        # one, so no eigvalsh runs on S (the Ritz values' 24 x 24 ones stay)
        # and the solve holds the panels, never S whole
        net = build(np.random.default_rng(3))
        u = len(net._unknowns()[0])
        assert u == 1000
        widths = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: widths.append(m.shape[-1]) or eigvalsh(m))
        tracemalloc.start()
        try:
            with pytest.raises(SingularNormal, match="^normal matrix singular or ill-conditioned$"):
                net.solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert widths and max(widths) <= adjust._SMALL
        assert peak < 0.9 * u * u * 8

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.sampled_from(["leveling", "plane one fixed", "plane none fixed"]),
           st.integers(5, 8), st.integers(0, 2**32 - 1))
    def test_datum_defects_raise_as_before(self, kind, n, seed):
        # no fixed point leaves the network free to shift (and rotate): N is
        # singular; from 5 points on, the distances alone outnumber the unknowns
        rng = np.random.default_rng(seed)
        if kind == "leveling":
            net = leveling_network(rng, n, fixed=False)
        else:
            net = plane_network(rng, n, fixed=1 if kind == "plane one fixed" else 0)
        got = _outcome_class(Network.solve, copy.deepcopy(net))
        assert got is SingularNormal
        assert got is _outcome_class(reference_network_solve, net)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_indefinite_weights_raise_at_construction(self, r, extra, seed):
        # a full weight matrix with a negative eigenvalue, which once made N
        # indefinite or gave a negative s2, is rejected before any solve
        rng = np.random.default_rng(seed)
        n = r + extra
        a, k = rng.normal(size=(n, r)), rng.normal(size=n)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        signs = rng.choice([-1.0, 1.0], n)
        signs[rng.integers(n)] = -1.0
        p = (q * signs * rng.uniform(0.5, 2.0, n)) @ q.T
        p = 0.5 * (p + p.T)
        with pytest.raises(ValueError, match="weight matrix not positive definite"):
            LinearSystem(a, k, p)
        with pytest.raises(ValueError, match="weight matrix not positive definite"):
            gauss_newton(lambda x: a @ x, lambda x: a, -k, np.zeros(r), p=p)

    def test_large_leveling_solve_in_quadratic_memory(self):
        # 1000 points, 2000 lines, 999 unknowns: the dense 2000 x 999 design
        # matrix and an inverse per iteration peaked at 68.7 MB
        net = leveling_network(np.random.default_rng(1000), 1000)
        u = 999
        tracemalloc.start()
        try:
            res = net.solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.x.shape == (u,)
        # the lower triangle of the scaled N in 128-column panels, factored
        # in place, and one u x 128 work array: 0.85; one u x u array peaked
        # at 1.28, and before it the normal matrix, a scaled copy and
        # eigvalsh's and solve's copies at 3.4-3.8
        assert peak < 0.9 * u * u * 8


class TestConditionBounds:
    """Each eigvalsh condition check, on both sides of its bound, with
    np.linalg.cond (the SVD ratio) as the oracle.  The two agree to about
    cond * eps relative, so the cases sit 1% off the bound."""

    def test_check_condition(self):
        for bound in (1e10, 1e12):
            for factor, rejected in ((1.01, True), (0.99, False)):
                sym = np.diag([1.0, 1.0 / (factor * bound), 0.5])
                assert bool(np.linalg.cond(sym) > bound) is rejected
                if rejected:
                    with pytest.raises(SingularNormal):
                        check_condition(sym, bound, SingularNormal("x"))
                else:
                    lam = check_condition(sym, bound, SingularNormal("x"))
                    assert lam.tolist() == sorted(lam.tolist())
        with pytest.raises(SingularNormal):
            check_condition(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e12, SingularNormal("x"))
        # an indefinite matrix passes the check; its signs are the caller's
        assert check_condition(np.array([[1.0, 2.0], [2.0, 1.0]]), 10.0,
                               SingularNormal("x")).tolist() == pytest.approx([-1.0, 3.0])

    def test_solve_linear_bound(self):
        # scaled N = [[1, c], [c, 1]] has cond (1 + c) / (1 - c)
        for factor, rejected in ((1.01, True), (0.99, False)):
            target = factor * 1e12
            c = (target - 1.0) / (target + 1.0)
            a = np.array([[1.0, c], [0.0, math.sqrt(1.0 - c * c)], [0.0, 0.0]])
            normal = a.T @ a
            scale = np.sqrt(np.diag(normal))
            assert bool(np.linalg.cond(normal / np.outer(scale, scale)) > 1e12) is rejected
            if rejected:
                with pytest.raises(SingularNormal, match="singular or ill-conditioned"):
                    solve_linear(LinearSystem(a, np.ones(3)))
            else:
                assert np.isfinite(solve_linear(LinearSystem(a, np.ones(3))).x).all()

    def test_indefinite_normal_matrix(self):
        # weights that make N indefinite are rejected with the system; the
        # solver's own verdict still holds for a P set past that check
        p = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="not positive definite"):
            LinearSystem(np.eye(2), np.ones(2), p)
        system = LinearSystem(np.eye(2), np.ones(2))
        object.__setattr__(system, "p", p)
        with pytest.raises(SingularNormal, match="not positive definite"):
            solve_linear(system)


def planted_spd(rng, r: int, kappa: float) -> np.ndarray:
    """A symmetric positive definite r x r matrix with random eigenvectors
    and log-uniform eigenvalues from 1 to kappa, both ends included."""
    lam = kappa ** rng.uniform(0.0, 1.0, r)
    lam[0], lam[-1] = kappa, 1.0
    q = np.linalg.qr(rng.normal(size=(r, r)))[0]
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


SIZES = st.one_of(st.sampled_from([1, 127, 128, 129, 255, 256, 257, 383, 384, 385, 513]),
                  st.integers(1, 300))


def panels_of(m: np.ndarray) -> list:
    """The lower triangle of m in the 128-column panels _factor takes, the
    diagonal blocks' upper triangles 0, as the row-sparse form builds them."""
    lower = np.tril(m)
    return [lower[j:, j:j + adjust._BLOCK].copy() for j in range(0, len(m), adjust._BLOCK)]


def lower_of(panels: list) -> np.ndarray:
    """The lower triangle the panels hold, as one array."""
    r = len(panels[0])
    lower = np.zeros((r, r))
    for j, q in zip(range(0, r, adjust._BLOCK), panels):
        lower[j:, j:j + q.shape[1]] = q
    return np.tril(lower)


class TestFactorization:
    """The blocked in-place Cholesky factor of the lower-triangle panels,
    its substitutions and the condition estimate that solve_linear takes
    past 256 unknowns."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(SIZES, st.integers(0, 2**32 - 1))
    def test_factor_and_solves_match_numpy(self, r, seed):
        rng = np.random.default_rng(seed)
        m = planted_spd(rng, r, 1e3)
        factor = panels_of(m)
        solve = adjust._factor(factor)[0]
        ref = np.linalg.cholesky(m)
        assert np.abs(lower_of(factor) - ref).max() <= 1e-12 * np.abs(ref).max()
        for b in (rng.normal(size=r), rng.normal(size=(r, 3))):
            ref = np.linalg.solve(m, b)
            got = solve(b)
            assert got.shape == b.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_indefinite_matrix_has_no_factor(self):
        m = planted_spd(np.random.default_rng(4), 300, 10.0)
        m[200, 200] = -1.0
        assert adjust._factor(panels_of(m)) == (None, math.inf)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
    def test_estimate_is_exact_up_to_8_unknowns(self, r, log_kappa, seed):
        m = planted_spd(np.random.default_rng(seed), r, 10.0**log_kappa)
        lam = np.linalg.eigvalsh(m)
        cond = lam[-1] / lam[0]
        kappa = adjust._factor(panels_of(m))[1]
        assert kappa == pytest.approx(cond, rel=100 * cond * np.finfo(float).eps)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(9, 300), st.floats(0.0, 16.0), st.integers(0, 2**32 - 1))
    def test_estimate_verdict_matches_eigvalsh(self, r, log_kappa, seed):
        # check_condition's verdict at 1e12, away from the bound; the
        # estimate is a lower bound, so it is also never above cond
        assume(not 11.0 <= log_kappa <= 13.0)
        m = planted_spd(np.random.default_rng(seed), r, 10.0**log_kappa)
        lam = np.linalg.eigvalsh(m)
        passed = bool(lam[0] > 0 and lam[-1] <= 1e12 * lam[0])
        kappa = adjust._factor(panels_of(m))[1]
        assert (kappa <= 1e12) is passed
        if log_kappa < 8.0:
            assert kappa <= lam[-1] / lam[0] * (1.0 + 1e-6)

    def test_large_rejections_keep_their_messages(self):
        # the estimate rejects or the factorization fails: both raise the
        # message eigvalsh gives every N that checked weights make, which is
        # positive semidefinite; the indefinite P is set past that check
        r = 300
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(r, r)))[0]
        for lam in (np.geomspace(1.0, 1e-14, r), np.r_[-1.0, np.linspace(1.0, 10.0, r - 1)]):
            system = LinearSystem(np.eye(r), np.ones(r))
            object.__setattr__(system, "p", (q * lam) @ q.T)
            with pytest.raises(SingularNormal, match="singular or ill-conditioned"):
                solve_linear(system)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(257, 400), st.floats(6.0, 15.0), st.integers(0, 2**32 - 1))
    def test_large_verdict_is_eigvalsh_verdict(self, r, log_kappa, seed):
        # N = P, planted SPD, away from the bound: the factor rejects exactly
        # the systems whose scaled N eigvalsh finds above 1e12
        assume(not 11.0 <= log_kappa <= 13.0)
        rng = np.random.default_rng(seed)
        p = planted_spd(rng, r, 10.0**log_kappa)
        scale = np.sqrt(np.diag(p))
        lam = np.linalg.eigvalsh(p / scale[:, None] / scale)
        rejected = not (lam[0] > 0 and lam[-1] <= 1e12 * lam[0])
        system = LinearSystem(np.eye(r), rng.normal(size=r), p)
        if rejected:
            with pytest.raises(SingularNormal, match="singular or ill-conditioned"):
                solve_linear(system)
        else:
            assert np.isfinite(solve_linear(system).x).all()

    @pytest.mark.parametrize("weights", ["unit", "vector", "matrix"])
    def test_large_dense_form_matches_lstsq(self, weights):
        # past 256 unknowns the dense form builds each panel from A'P, where
        # the networks above take the row-sparse form's bincount
        rng = np.random.default_rng(300)
        n, r = 600, 300
        a, k, w = rng.normal(size=(n, r)), rng.normal(size=n), rng.uniform(0.5, 2.0, n)
        p = {"unit": None, "vector": w, "matrix": np.diag(w)}[weights]
        root = np.ones(n) if p is None else np.sqrt(w)
        ref = -np.linalg.lstsq(a * root[:, None], k * root, rcond=None)[0]
        ref_v = a @ ref + k
        ref_s2 = float(root**2 * ref_v @ ref_v / (n - r))
        res = solve_linear(LinearSystem(a, k, p))
        assert np.linalg.norm(res.x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(res.v - ref_v) <= 1e-12 * np.linalg.norm(ref_v)
        assert res.s2 == pytest.approx(ref_s2, rel=1e-9)


class TestRowSparseSystem:
    def test_same_solution_as_the_dense_form(self):
        a = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        k, w = np.array([0.1, -0.2, 0.3, 0.05]), np.array([1.0, 2.0, 0.5, 4.0])
        cols = np.array([[0, 2, -1], [1, 2, -1], [0, 1, -1], [2, -1, -1]])
        vals = np.array([[1.0, -1.0, 0.0], [2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [3.0, 0.0, 0.0]])
        dense = solve_linear(LinearSystem(a, k, w))
        sparse = solve_linear(LinearSystem(vals, k, w, cols=cols))
        np.testing.assert_allclose(sparse.x, dense.x, rtol=1e-14)
        np.testing.assert_allclose(sparse.v, dense.v, rtol=1e-13, atol=1e-16)
        assert sparse.s2 == pytest.approx(dense.s2, rel=1e-13)
        np.testing.assert_allclose(sparse.cov, dense.cov, rtol=1e-13)

    def test_repeated_unknown_adds_its_coefficients(self):
        k = np.array([1.0, 2.0, 4.0])
        sparse = solve_linear(LinearSystem([[1.0, 1.0], [2.0, 0.0], [1.0, 2.0]], k,
                                           cols=[[0, 0], [0, -1], [0, 0]]))
        dense = solve_linear(LinearSystem([[2.0], [2.0], [3.0]], k))
        np.testing.assert_allclose(sparse.x, dense.x, rtol=1e-15)

    def test_malformed_rows(self):
        k = np.zeros(2)
        with pytest.raises(ValueError, match="cols must be integers"):
            LinearSystem(np.ones((2, 2)), k, cols=np.zeros((2, 3), int))
        with pytest.raises(ValueError, match="cols must be integers"):
            LinearSystem(np.ones((2, 2)), k, cols=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="padding slots"):
            LinearSystem(np.ones((2, 2)), k, cols=[[0, -1], [0, 1]])
        with pytest.raises(ValueError, match="padding slots"):
            LinearSystem(np.zeros((2, 2)), k, cols=[[0, -2], [0, 1]])
        with pytest.raises(ValueError, match="no unknowns"):
            LinearSystem(np.zeros((2, 2)), k, cols=np.full((2, 2), -1))
        with pytest.raises(ValueError, match="fewer observations"):
            LinearSystem(np.ones((2, 2)), k, cols=[[0, 1], [2, 1]])
        with pytest.raises(ValueError, match="weight vector"):
            LinearSystem(np.ones((2, 2)), k, np.eye(2), cols=[[0, 1], [0, 1]])


class TestObservationRows:
    def test_distance_axis_aligned(self):
        coeffs, const = obs_distance2d((0.0, 0.0), (100.0, 0.0), 99.0)
        np.testing.assert_allclose(coeffs, [-1.0, 0.0, 1.0, 0.0])
        assert const == pytest.approx(1.0)

    def test_distance_rejects_coincident(self):
        with pytest.raises(CoincidentPoints):
            obs_distance2d((1.0, 2.0), (1.0, 2.0), 5.0)

    def test_distance_gradient_matches_finite_differences(self):
        rng = random.Random(2)
        for _ in range(10):
            p1 = (rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            p2 = (rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            coeffs, _ = obs_distance2d(p1, p2, 0.0)
            h = 1e-3

            def dist(x1, y1, x2, y2):
                return math.hypot(x1 - x2, y1 - y2)

            grads = []
            base = [p1[0], p1[1], p2[0], p2[1]]
            for i in range(4):
                hi = list(base)
                lo = list(base)
                hi[i] += h
                lo[i] -= h
                grads.append((dist(*hi) - dist(*lo)) / (2 * h))
            np.testing.assert_allclose(coeffs, grads, atol=1e-8)

    def test_network_distance_row(self):
        # 10156.963 m measured between two stations of the southern-zone
        # network, reduced to the plane before building the row
        p1 = (545659.571, 308398.079)
        p3 = (535930.419, 305481.021)
        d_plane = 10156.963 * 0.999972  # ellipsoid to plane at ~0.028 mm/m
        coeffs, const = obs_distance2d(p1, p3, d_plane)
        d0 = math.hypot(p1[0] - p3[0], p1[1] - p3[1])
        assert const == pytest.approx(d0 - d_plane, rel=1e-12)
        assert np.hypot(*coeffs[:2]) == pytest.approx(1.0, rel=1e-12)

    def test_direction_due_north(self):
        coeffs, const = obs_direction2d(
            (0.0, 0.0), (0.0, 500.0), 0.1, 0.0, scale_by_distance=False
        )
        np.testing.assert_allclose(coeffs, [-1 / 500.0, 0.0, 1 / 500.0, 0.0, -1.0])
        assert const == pytest.approx(-0.1)

    def test_direction_gradient_matches_finite_differences(self):
        p1, p2 = (100.0, -50.0), (400.0, 800.0)
        coeffs, _ = obs_direction2d(p1, p2, 0.0, 0.0, scale_by_distance=False)
        h = 1e-4

        def bearing(x1, y1, x2, y2):
            return math.atan2(x2 - x1, y2 - y1)

        base = [p1[0], p1[1], p2[0], p2[1]]
        for i in range(4):
            hi, lo = list(base), list(base)
            hi[i] += h
            lo[i] -= h
            fd = (bearing(*hi) - bearing(*lo)) / (2 * h)
            assert coeffs[i] == pytest.approx(fd, abs=1e-8)

    def test_direction_distance_scaling(self):
        raw, k_raw = obs_direction2d((0.0, 0.0), (300.0, 400.0), 0.2, 0.0,
                                     scale_by_distance=False)
        scl, k_scl = obs_direction2d((0.0, 0.0), (300.0, 400.0), 0.2, 0.0,
                                     scale_by_distance=True)
        np.testing.assert_allclose(scl, raw * 500.0)
        assert k_scl == pytest.approx(k_raw * 500.0)

    def test_distance3d_row(self):
        coeffs, const = obs_distance3d((0, 0, 0), (0, 0, 10.0), 9.0)
        np.testing.assert_allclose(coeffs, [0, 0, -1, 0, 0, 1])
        assert const == pytest.approx(1.0)
        rng = np.random.default_rng(3)
        p1, p2 = rng.normal(size=3) * 1e3, rng.normal(size=3) * 1e3
        coeffs, _ = obs_distance3d(p1, p2, 0.0)
        h = 1e-3
        for i in range(6):
            q1, q2 = p1.copy(), p2.copy()
            r1, r2 = p1.copy(), p2.copy()
            if i < 3:
                q1[i] += h
                r1[i] -= h
            else:
                q2[i - 3] += h
                r2[i - 3] -= h
            fd = (np.linalg.norm(q2 - q1) - np.linalg.norm(r2 - r1)) / (2 * h)
            assert coeffs[i] == pytest.approx(fd, abs=1e-8)

    def test_leveling_weight_rule(self):
        _, _, w1 = obs_leveling(0.0, 1.0, 1.0)
        _, _, w2 = obs_leveling(0.0, 1.0, 2.0)
        assert w1 == 2.0 * w2
        coeffs, const, _ = obs_leveling(0.5, 0.4, 1.0)
        np.testing.assert_allclose(coeffs, [-1.0, 1.0])
        assert const == pytest.approx(0.1)


class TestLevelingNetworks:
    def test_polygon_with_fixed_origin(self):
        # leveled polygon: A fixed at 3.048 m, instrument 2 mm/km, weights
        # inverse to line length.  Expected heights/deviations frozen from
        # an independently coded normal-equation solve below.
        net = Network()
        net.add_point("A", z0=3.048, fixed=True)
        for name in "BCD":
            net.add_point(name, z0=3.0)
        data = [
            ("A", "C", 1.878, 6.44), ("A", "D", 3.831, 3.22),
            ("C", "D", 1.954, 3.22), ("A", "B", 0.332, 6.44),
            ("B", "D", 3.530, 3.22), ("B", "C", 1.545, 6.44),
        ]
        for frm, to, dh, dist in data:
            net.add_observation(Observation("leveling", frm, to, dh, dist_km=dist))
        res = net.solve()

        # independent oracle: assemble and solve the weighted normal
        # equations explicitly for (H_B, H_C, H_D)
        idx = {"B": 0, "C": 1, "D": 2}
        n_mat = np.zeros((3, 3))
        rhs = np.zeros(3)
        for frm, to, dh, dist in data:
            row = np.zeros(3)
            const = dh
            if frm in idx:
                row[idx[frm]] = -1.0
            else:
                const -= 3.048 * 0  # A enters through the constant below
            if to in idx:
                row[idx[to]] = 1.0
            offset = (3.048 if frm == "A" else 0.0) * -1.0 + (3.048 if to == "A" else 0.0)
            w = 1.0 / dist
            n_mat += w * np.outer(row, row)
            rhs += w * row * (dh - offset)
        h_oracle = np.linalg.solve(n_mat, rhs)
        assert net.points["B"].z0 == pytest.approx(h_oracle[0], abs=1e-9)
        assert net.points["C"].z0 == pytest.approx(h_oracle[1], abs=1e-9)
        assert net.points["D"].z0 == pytest.approx(h_oracle[2], abs=1e-9)
        # frozen values from that oracle
        assert net.points["B"].z0 == pytest.approx(3.36780, abs=1e-5)
        assert net.points["C"].z0 == pytest.approx(4.92540, abs=1e-5)
        assert net.points["D"].z0 == pytest.approx(6.88540, abs=1e-5)
        assert res.s2 is not None
        # standard deviations from cov = s2 N^-1
        sd = np.sqrt(np.diag(res.cov))
        sd_oracle = np.sqrt(res.s2 * np.diag(np.linalg.inv(n_mat)))
        np.testing.assert_allclose(sorted(sd), sorted(sd_oracle), rtol=1e-9)

    def test_adjusted_loops_close(self):
        net = Network()
        net.add_point("A", z0=0.0, fixed=True)
        for name in "BCD":
            net.add_point(name, z0=0.0)
        obs = [
            ("A", "B", 0.509), ("B", "D", 1.058), ("A", "C", 3.362),
            ("D", "C", 1.783), ("B", "C", 2.829),
        ]
        for frm, to, dh in obs:
            net.add_observation(Observation("leveling", frm, to, dh, dist_km=1.0))
        net.solve()
        h = {name: net.points[name].z0 for name in "ABCD"}
        # the adjusted field is exact: every loop of adjusted differences closes
        loop = (h["B"] - h["A"]) + (h["D"] - h["B"]) + (h["C"] - h["D"]) + (h["A"] - h["C"])
        assert loop == pytest.approx(0.0, abs=1e-12)


    def test_line_from_a_point_to_itself_moves_no_height(self):
        # H_B - H_B has zero derivative; the dense assembly wrote the row's two
        # coefficients into one column, the +1 overwrote the -1, and B moved
        # to 11.35 instead of the mean of the two real lines
        net = Network()
        net.add_point("A", z0=10.0, fixed=True)
        net.add_point("B", z0=11.0)
        for frm, to, dh in (("A", "B", 1.0), ("B", "B", 0.5), ("A", "B", 1.2)):
            net.add_observation(Observation("leveling", frm, to, dh, dist_km=1.0))
        res = net.solve()
        assert net.points["B"].z0 == pytest.approx(11.1, abs=1e-12)
        np.testing.assert_allclose(res.v, [0.1, -0.5, -0.1], atol=1e-12)


class TestDirectionNetworks:
    def build_quadrilateral(self):
        # synthetic quadrilateral with full rounds at each station; the
        # observed directions are generated from the true geometry, then
        # perturbed, so the adjustment has genuine residuals
        pts = {
            "A": (0.0, 0.0), "B": (4000.0, 500.0),
            "D": (4500.0, 3800.0), "C": (300.0, 3500.0),
        }
        rng = random.Random(8)
        net = Network(scale_directions=True)
        for name, (x, y) in pts.items():
            # fix two points to remove the datum defect
            net.add_point(name, x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5),
                          fixed=name in ("A", "B"))
        sights = {
            "A": ["B", "C", "D"], "B": ["D", "C", "A"],
            "C": ["A", "B", "D"], "D": ["C", "B", "A"],
        }
        sigma = 6.2e-4 * GR
        for station, targets in sights.items():
            x0, y0 = pts[station]
            zero = None
            for tgt in targets:
                x1, y1 = pts[tgt]
                bearing = math.atan2(x1 - x0, y1 - y0) % (2 * math.pi)
                if zero is None:
                    zero = bearing  # first target defines the plate zero
                reading = (bearing - zero) % (2 * math.pi) + rng.gauss(0.0, sigma)
                net.add_observation(
                    Observation("direction", station, tgt, reading, sigma=sigma,
                                set_id="s1")
                )
        return net

    def test_station_residuals_sum_to_zero(self):
        net = self.build_quadrilateral()
        res = net.solve()
        index, _ = res.trace
        # renormalization on each orientation column: for rounds sharing one
        # sigma, the distance-scaled residuals weighted per row sum to zero
        a_rows = {}
        k = 0
        for obs in net.observations:
            a_rows.setdefault(obs.frm, []).append(k)
            k += 1
        for station, rows in a_rows.items():
            p1 = net.points[station]
            total = 0.0
            for i, obs in enumerate(net.observations):
                if i in rows:
                    p2 = net.points[obs.to]
                    d = math.hypot(p2.x0 - p1.x0, p2.y0 - p1.y0)
                    sigma = obs.sigma * d
                    total += res.v[i] * d / sigma**2
            assert total == pytest.approx(0.0, abs=1e-6)

    def test_converges_and_recovers_geometry(self):
        net = self.build_quadrilateral()
        res = net.solve()
        assert res.iterations < 10
        assert abs(net.points["C"].x0 - 300.0) < 1.5
        assert abs(net.points["C"].y0 - 3500.0) < 1.5
        assert res.s2 == pytest.approx(1.0, rel=5.0)  # sigma consistent scale


class TestSpatialNetwork:
    def test_trilateration_3d(self):
        # one free point observed by spatial distances from four fixed ones;
        # known-point rows drop the fixed columns automatically
        anchors = {
            "A": (0.0, 0.0, 0.0), "B": (1000.0, 0.0, 10.0),
            "C": (0.0, 1000.0, -5.0), "D": (800.0, 900.0, 500.0),
        }
        truth = np.array([321.0, 456.0, 78.0])
        net = Network()
        for name, xyz in anchors.items():
            net.add_point(name, *xyz, fixed=True)
        net.add_point("P", 300.0, 400.0, 0.0)
        for name, xyz in anchors.items():
            dist = float(np.linalg.norm(truth - np.asarray(xyz)))
            net.add_observation(Observation("distance3d", name, "P", dist, sigma=0.01))
        res = net.solve()
        p = net.points["P"]
        np.testing.assert_allclose([p.x0, p.y0, p.z0], truth, atol=1e-6)
        assert len(res.x) == 3  # fixed anchors contribute no unknowns


def trilateration() -> Network:
    """Three fixed points and one free point P at (400, 600), seeded 250 m
    and 300 m off."""
    net = Network()
    for name, xy in {"A": (0.0, 0.0), "B": (1000.0, 0.0), "C": (0.0, 1000.0)}.items():
        net.add_point(name, *xy, fixed=True)
        net.add_observation(Observation("distance2d", name, "P", math.dist(xy, (400.0, 600.0)),
                                        sigma=0.01))
    net.add_point("P", 650.0, 900.0)
    return net


class TestNetworkConvergence:
    def test_converges_from_a_seed_hundreds_of_metres_off(self):
        net = trilateration()
        res = net.solve()
        assert 1 < res.iterations < 10
        assert [net.points["P"].x0, net.points["P"].y0] == pytest.approx([400.0, 600.0],
                                                                          abs=1e-6)

    def test_max_iter_short_of_tol_raises(self):
        # once returned the first step's result, max |x| = 267 m, as if converged
        with pytest.raises(MaxIterations, match=r"no convergence in 1 network iterations: "
                                                r"max \|x\| = 266\.\d+ >= tol = 1e-08"):
            trilateration().solve(max_iter=1)


class TestMixedNetwork:
    """All four kinds in one network, one fixed point, two direction sets."""

    TRUTH = {
        "A": (0.0, 0.0, 0.0), "B": (1000.0, 80.0, 0.0), "C": (150.0, 1100.0, 0.0),
        "R": (-50.0, 2500.0, 0.0), "G1": (1000.0, 0.0, 300.0), "G2": (0.0, 1000.0, -200.0),
        "G3": (900.0, 1000.0, 600.0), "F": (400.0, 500.0, 250.0),
        "H1": (0.0, 0.0, 12.5), "H2": (0.0, 0.0, 17.25),
    }
    FIXED = ("A", "R", "G1", "G2", "G3")

    def build(self):
        net = Network()
        for k, (name, (x, y, z)) in enumerate(self.TRUTH.items()):
            fixed = name in self.FIXED
            off = 0.0 if fixed else 0.1 * (1 + k % 3)
            net.add_point(name, x + off, y - off, z + off, fixed=fixed)

        def dist(a, b, dims):
            return math.dist(self.TRUTH[a][:dims], self.TRUTH[b][:dims])

        def bearing(a, b):
            (xa, ya, _), (xb, yb, _) = self.TRUTH[a], self.TRUTH[b]
            return math.atan2(xb - xa, yb - ya) % (2 * math.pi)

        def add(kind, a, b, set_id=None):
            if kind == "leveling":
                value = self.TRUTH[b][2] - self.TRUTH[a][2]
            elif kind == "direction":  # plate zero 0.3 rad off the grid bearing
                value = (bearing(a, b) - 0.3) % (2 * math.pi)
            else:
                value = dist(a, b, 3 if kind == "distance3d" else 2)
            net.add_observation(Observation(kind, a, b, value, sigma=0.01, set_id=set_id,
                                            dist_km=1.0 if kind == "leveling" else None))

        add("leveling", "A", "H1")
        add("distance2d", "A", "B")
        add("direction", "A", "R", "s1")
        add("distance3d", "G1", "F")
        add("direction", "B", "C", "s2")
        add("direction", "A", "B", "s1")
        add("distance2d", "B", "C")
        add("distance2d", "A", "C")
        add("direction", "A", "C", "s1")
        add("direction", "B", "A", "s2")
        add("direction", "B", "R", "s2")
        for anchor in ("A", "G2", "G3"):
            add("distance3d", anchor, "F")
        add("leveling", "H1", "H2")
        add("leveling", "A", "H2")
        return net

    def test_unknowns_keep_the_documented_order(self):
        # free-point coordinates and orientation unknowns, numbered in order
        # of first appearance over the observations and, within one, in the
        # order of its coefficients
        net = self.build()
        res = net.solve()
        index, orientations = res.trace
        assert list(index) == [
            ("z", "H1"), ("x", "B"), ("y", "B"), ("v", "A", "s1"),
            ("x", "F"), ("y", "F"), ("z", "F"),
            ("x", "C"), ("y", "C"), ("v", "B", "s2"), ("z", "H2"),
        ]
        assert list(index.values()) == list(range(len(index)))
        assert set(orientations) == {("v", "A", "s1"), ("v", "B", "s2")}
        for name, xyz in self.TRUTH.items():
            p = net.points[name]
            if name.startswith("H"):
                assert p.z0 == pytest.approx(xyz[2], abs=1e-9)
            elif name in "BCF":
                np.testing.assert_allclose([p.x0, p.y0], xyz[:2], atol=1e-6)
        assert net.points["F"].z0 == pytest.approx(250.0, abs=1e-6)
        for key in orientations:
            assert orientations[key] == pytest.approx(0.3, abs=1e-9)


    def test_distance3d_and_leveling_share_one_height_unknown(self):
        # a point seen by 3-D distances and a leveling line has one vertical
        # unknown; with two, both corrections went into z0 and the solve
        # stopped at max_iter off the truth
        truth = {"A": (0.0, 0.0, 0.0), "B": (1000.0, 0.0, 50.0), "C": (0.0, 1000.0, 120.0),
                 "D": (1000.0, 1000.0, -30.0), "P": (400.0, 600.0, 78.0)}
        net = Network()
        for name, (x, y, z) in truth.items():
            if name == "P":
                net.add_point(name, x + 0.3, y - 0.2, z + 0.5)
            else:
                net.add_point(name, x, y, z, fixed=True)
        for a in "ABCD":
            net.add_observation(Observation("distance3d", a, "P",
                                            math.dist(truth[a], truth["P"]), sigma=0.001))
        net.add_observation(Observation("leveling", "A", "P", 78.0, sigma=0.001, dist_km=1.0))
        res = net.solve()
        assert list(res.trace[0]) == [("x", "P"), ("y", "P"), ("z", "P")]
        assert res.iterations < 10
        assert net.points["P"].z0 == pytest.approx(78.0, abs=1e-9)


class TestGaussNewton:
    def test_linear_model_single_step(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(10, 3))
        x_true = np.array([0.5, -1.0, 2.0])
        y = a @ x_true + rng.normal(0, 0.01, 10)
        res_gn = gauss_newton(lambda x: a @ x, lambda x: a, y, x0=np.zeros(3))
        res_lin = solve_linear(LinearSystem(a, -y))
        # the step is solve_linear's, and the second one is below tol
        assert res_gn.x.tobytes() == res_lin.x.tobytes()
        assert res_gn.iterations <= 2

    def test_nan_jacobian_raises_at_once(self):
        calls = []

        def model(x):
            calls.append(x)
            return np.array([x[0], x[0] + x[1], x[1]])

        jac = lambda x: np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            gauss_newton(model, jac, np.ones(3), x0=np.zeros(2))
        assert len(calls) == 1  # no line search ran

    def test_zero_jacobian_column(self):
        jac = lambda x: np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(SingularJacobian):
            gauss_newton(lambda x: jac(x) @ x, jac, np.ones(3), x0=np.zeros(2))

    def test_fewer_rows_than_unknowns(self):
        jac = lambda x: np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="fewer observations than unknowns"):
            gauss_newton(lambda x: jac(x) @ x, jac, np.ones(1), x0=np.zeros(3))

    def test_descent_is_monotone(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-5, 5, (12, 2))
        truth = np.array([1.0, 2.0])

        def model(x):
            return np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])

        def jac(x):
            d = model(x)
            return np.c_[-(pts[:, 0] - x[0]) / d, -(pts[:, 1] - x[1]) / d]

        y = model(truth) + rng.normal(0, 0.05, 12)
        res = gauss_newton(model, jac, y, x0=np.array([4.0, -4.0]))
        norms = [np.linalg.norm(y - model(x)) for x in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_circle_fit_matches_algebraic_solution(self):
        rng = np.random.default_rng(3)
        truth = np.array([4.0, -2.0, 5.0])
        ang = rng.uniform(0, 2 * math.pi, 10)
        pts = np.c_[
            truth[0] + truth[2] * np.cos(ang), truth[1] + truth[2] * np.sin(ang)
        ]
        pts += rng.normal(0, 0.01, pts.shape)

        def model(x):
            return np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1]) - x[2]

        def jac(x):
            d = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
            return np.c_[
                -(pts[:, 0] - x[0]) / d, -(pts[:, 1] - x[1]) / d, -np.ones(len(pts))
            ]

        res = gauss_newton(model, jac, np.zeros(10), x0=np.array([3.0, -1.0, 4.0]))
        # algebraic (Kasa) oracle
        a = np.c_[pts[:, 0], pts[:, 1], np.ones(10)]
        b = -(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        dd, ee, ff = np.linalg.lstsq(a, b, rcond=None)[0]
        center = np.array([-dd / 2, -ee / 2])
        radius = math.sqrt(center @ center - ff)
        np.testing.assert_allclose(res.x, [*center, radius], atol=1e-3)

    def test_trisection_from_perturbed_start(self):
        known = np.array([[0.0, 0.0], [10.0, 0.0], [4.0, 8.0]])
        truth = np.array([3.5, 4.2])

        def model(x):
            return 0.5 * np.sum((x - known) ** 2, axis=1)

        def jac(x):
            return x - known

        observed = model(truth) + np.array([0.03, -0.02, 0.015])
        res = gauss_newton(model, jac, observed, x0=truth + np.array([2.0, -1.5]),
                           tol=1e-12)
        grad = jac(res.x).T @ (model(res.x) - observed)
        assert np.linalg.norm(grad) < 1e-10

    def test_tol_zero_returns_at_the_rounding_floor(self):
        # no step norm is below 0, so the fit ends where the residual stops
        # improving with a micro-step; that exit keeps the step it just took
        known = np.array([[0.0, 0.0], [10.0, 0.0], [4.0, 8.0], [9.0, 7.0]])
        truth = np.array([3.5, 4.2])

        def model(x):
            return 0.5 * np.sum((x - known) ** 2, axis=1)

        observed = model(truth) + np.array([0.03, -0.02, 0.015, 0.01])
        x0 = truth + np.array([2.0, -1.5])
        res = gauss_newton(model, lambda x: x - known, observed, x0, tol=0.0)
        assert 2 <= res.iterations < 50 and len(res.trace) == res.iterations + 1
        assert res.x.tobytes() == res.trace[-1].tobytes()
        v = model(res.x) - observed
        assert res.v.tobytes() == v.tobytes() and res.s2 == float(v @ v) / 2
        ref = gauss_newton(model, lambda x: x - known, observed, x0)
        assert len(ref.trace) == ref.iterations < res.iterations
        np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-10)

    def test_full_weight_matrix_is_checked_once_per_fit(self, monkeypatch):
        rng = np.random.default_rng(6)
        t = np.linspace(0.0, 1.0, 60)

        def model(x):
            return x[0] * np.exp(x[1] * t) + x[2]

        def jac(x):
            return np.c_[np.exp(x[1] * t), x[0] * t * np.exp(x[1] * t), np.ones_like(t)]

        y = model([2.0, -1.5, 0.3]) + rng.normal(0, 1e-3, t.size)
        b = rng.normal(size=(t.size, t.size)) / np.sqrt(t.size)
        p = b @ b.T + np.eye(t.size)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m) or cholesky(m))
        res = gauss_newton(model, jac, y, [1.8, -1.4, 0.25], p)
        assert res.iterations >= 2 and len(calls) == 1
        # each step's system checking P again, as every step once did: same bits
        monkeypatch.setattr(adjust, "LinearSystem",
                            lambda a, k, p, weights_checked: LinearSystem(a, k, p))
        ref = gauss_newton(model, jac, y, [1.8, -1.4, 0.25], p)
        assert len(calls) == 2 + ref.iterations
        assert res.x.tobytes() == ref.x.tobytes() and res.s2 == ref.s2

    def test_step_is_halved_when_the_full_step_raises_the_residual(self):
        # atan(x) against 0 from x = 2: the full step lands at -3.54, where
        # |atan| = 1.30 exceeds atan(2) = 1.11; half of it lands at -0.77
        res = gauss_newton(np.arctan, lambda x: np.diag(1.0 / (1.0 + x * x)),
                           np.zeros(1), x0=np.array([2.0]), tol=1e-12)
        full = -math.atan(2.0) * 5.0
        assert res.trace[1][0] == pytest.approx(2.0 + 0.5 * full, rel=1e-12)
        assert abs(res.x[0]) < 1e-12

    def test_wrong_sign_jacobian_raises_no_descent(self):
        # every step points uphill, so no halving lowers the residual
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        with pytest.raises(NoDescent, match="line search exhausted"):
            gauss_newton(lambda x: a @ x, lambda x: -a, np.ones(3), x0=np.zeros(2))

    def test_max_iter_bounds_the_iterations(self):
        with pytest.raises(MaxIterations, match="no convergence in 1 Gauss-Newton iterations"):
            gauss_newton(np.arctan, lambda x: np.diag(1.0 / (1.0 + x * x)),
                         np.zeros(1), x0=np.array([2.0]), max_iter=1)


class TestNewton:
    def test_quadratic_single_step(self):
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, -2.0])
        x, trace = newton_minimize(lambda x: h @ x - b, lambda x: h, [7.0, -9.0])
        np.testing.assert_allclose(x, np.linalg.solve(h, b), atol=1e-12)
        # one productive step; the second only confirms convergence
        np.testing.assert_allclose(trace[1], x, atol=1e-12)
        assert len(trace) <= 3

    def test_quartic_saddle_problem(self):
        # f(u,v) = u^4 + 6uv + 1.5v^2 + 36v + 405 from (2, -10): Newton
        # reaches the strict minimum (3, -18); each iterate obeys the
        # closed-form recurrence u' = (u^3+9)/J, v' = -(2u^3+18u^2)/J with
        # J = 1.5 (u^2 - 1)
        grad = lambda x: np.array([4 * x[0] ** 3 + 6 * x[1], 6 * x[0] + 3 * x[1] + 36])
        hess = lambda x: np.array([[12 * x[0] ** 2, 6.0], [6.0, 3.0]])
        x, trace = newton_minimize(grad, hess, [2.0, -10.0])
        np.testing.assert_allclose(x, [3.0, -18.0], atol=1e-12)
        for k in range(len(trace) - 1):
            u, v = trace[k]
            j = 1.5 * (u * u - 1.0)
            np.testing.assert_allclose(
                trace[k + 1],
                [(u**3 + 9.0) / j, -(2.0 * u**3 + 18.0 * u * u) / j],
                atol=1e-9,
            )
        errs = [np.linalg.norm(np.asarray(t) - [3.0, -18.0]) for t in trace]
        ratios = [
            errs[k + 1] / errs[k] ** 2 for k in range(len(errs) - 1) if errs[k] > 1e-7
        ]
        assert max(ratios) < 1.0  # empirically quadratic decay

    def test_indefinite_hessian_reported(self):
        grad = lambda x: np.array([4 * x[0] ** 3 + 6 * x[1], 6 * x[0] + 3 * x[1] + 36])
        hess = lambda x: np.array([[12 * x[0] ** 2, 6.0], [6.0, 3.0]])
        with pytest.raises(IndefiniteHessian):
            newton_minimize(grad, hess, [0.5, 0.0])  # inside |u| < 1


def reference_newton_step(h, g):
    """The checks newton_minimize made before check_condition: an SVD rank,
    a Cholesky and two general solves on its factor."""
    if not np.all(np.isfinite(h)) or np.linalg.matrix_rank(h) < h.shape[0]:
        return SingularHessian
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return IndefiniteHessian
    return np.linalg.solve(chol.T, np.linalg.solve(chol, g))


@st.composite
def hessians(draw):
    """Symmetric m x m matrices: Q diag(lam) Q' with cond <= 1e12 and
    eigenvalues of either sign, or integer B B' of rank < m (exactly
    singular in floating point, the zero matrix included)."""
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        b = rng.integers(-3, 4, size=(m, draw(st.integers(0, m - 1)))).astype(float)
        return b @ b.T, rng.normal(size=m)
    q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    lam = 10.0 ** rng.uniform(0.0, draw(st.sampled_from([0.0, 4.0, 11.9])), m)
    if draw(st.booleans()):
        lam *= rng.choice([-1.0, 1.0], m)
    h = (q * lam) @ q.T
    return 0.5 * (h + h.T), rng.normal(size=m)


class TestNewtonVerdicts:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hessians())
    def test_matches_rank_and_cholesky_reference(self, case):
        h, g = case
        expected = reference_newton_step(h, g)
        steps = []

        def gradient(x):
            steps.append(x.copy())
            return g

        try:
            x, _ = newton_minimize(gradient, lambda x: h, np.zeros(len(g)), max_iter=2)
        except (SingularHessian, IndefiniteHessian) as exc:
            assert type(exc) is expected
            return
        except MaxIterations:
            x = steps[1]
        # the first step x1 = -H^-1 g of both: two backward-stable solves
        assert isinstance(expected, np.ndarray)
        tol = 1e2 * np.linalg.cond(h) * np.finfo(float).eps
        assert np.linalg.norm(x + expected) <= tol * np.linalg.norm(expected)


class TestCurvatureCheck:
    def trisection(self):
        known = np.array([[0.0, 0.0], [10.0, 0.0], [4.0, 8.0]])

        def model(x):
            return 0.5 * np.sum((x - known) ** 2, axis=1)

        def jac(x):
            return x - known

        return known, model, jac

    def test_linear_model_gives_b_equal_g(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        chk = pazman_check(
            lambda x: a @ x, lambda x: a, np.array([1.0, 2.0, 3.0]), np.array([0.3, 0.4])
        )
        # numeric second differences of a linear model leave only roundoff
        np.testing.assert_allclose(chk.h, 0.0, atol=2e-5)
        np.testing.assert_allclose(chk.b, chk.g, atol=2e-5)
        assert chk.positive_definite

    def test_small_residual_solution_is_certified(self):
        known, model, jac = self.trisection()
        truth = np.array([3.5, 4.2])
        observed = model(truth) + np.array([0.05, -0.04, 0.03])
        res = gauss_newton(model, jac, observed, x0=truth + 0.5, tol=1e-12)
        chk = pazman_check(model, jac, observed, res.x)
        assert chk.positive_definite
        # G for this model is exactly sum of (x-a_i)(x-a_i)^T
        g_exact = sum(np.outer(res.x - k, res.x - k) for k in known)
        np.testing.assert_allclose(chk.g, g_exact, rtol=1e-4)

    def test_large_opposite_residual_breaks_certification(self):
        # construct an exact stationary point whose residual lies in the
        # null space of J^T and exceeds the curvature bound: B = G - (sum w) I
        # turns indefinite once sum(w) passes the smallest eigenvalue of G
        known, model, jac = self.trisection()
        x_bar = np.array([4.0, 3.0])
        j = jac(x_bar)
        null = np.linalg.svd(j.T)[2][-1]  # vector with J^T w = 0
        g = pazman_check(model, jac, model(x_bar), x_bar).g
        lam_min = np.linalg.eigvalsh(g).min()
        w = null * (3.0 * lam_min / null.sum())
        observed = model(x_bar) + w
        assert np.abs(j.T @ w).max() < 1e-6 * np.abs(w).max() * np.abs(j).max()
        chk = pazman_check(model, jac, observed, x_bar)
        assert not chk.positive_definite
        np.testing.assert_allclose(chk.h, w.sum() * np.eye(2), rtol=1e-5)


class TestDop:
    def synthetic_constellation(self, receiver, ell, el_az_list):
        recv = geodetic_to_ecef(ell, receiver).as_array()
        frame = local_frame(receiver)
        sats = []
        for az_deg, el_deg in el_az_list:
            a, e = math.radians(az_deg), math.radians(el_deg)
            enu = 2.0e7 * np.array(
                [math.cos(e) * math.sin(a), math.cos(e) * math.cos(a), math.sin(e)]
            )
            sats.append(EcefCoord(*(recv + local_vector_to_ecef(frame, enu))))
        return sats

    def test_trace_identities(self, wgs84):
        rng = random.Random(42)
        recv = GeodeticCoord(0.6, 0.2, 0.0)
        for _ in range(25):
            sats = self.synthetic_constellation(
                recv, wgs84,
                [(rng.uniform(0, 360), rng.uniform(10, 85)) for _ in range(rng.randint(4, 9))],
            )
            try:
                r = dop(sats, recv, wgs84)
            except SingularGeometry:
                continue
            assert r.gdop**2 == pytest.approx(r.pdop**2 + r.tdop**2, abs=1e-10)
            assert r.hdop**2 + r.vdop**2 == pytest.approx(r.pdop**2, abs=1e-10)

    def test_against_direct_inversion_oracle(self, wgs84):
        recv = GeodeticCoord(36.8 * math.pi / 180, 10.2 * math.pi / 180, 0.0)
        el_az = [(0, 60), (90, 40), (180, 35), (270, 50), (45, 15), (200, 75)]
        sats = self.synthetic_constellation(recv, wgs84, el_az)
        r = dop(sats, recv, wgs84)
        # oracle: build the geometry matrix explicitly and invert once
        recv_ecef = geodetic_to_ecef(wgs84, recv).as_array()
        rows = []
        for s in sats:
            vec = s.as_array() - recv_ecef
            rows.append(np.append(-vec / np.linalg.norm(vec), 1.0))
        q = np.linalg.inv(np.array(rows).T @ np.array(rows))
        frame = local_frame(recv)
        q_local = frame.rotation @ q[:3, :3] @ frame.rotation.T
        assert r.gdop == pytest.approx(math.sqrt(np.trace(q)), rel=1e-12)
        assert r.hdop == pytest.approx(math.sqrt(q_local[0, 0] + q_local[1, 1]), rel=1e-12)
        assert r.vdop == pytest.approx(math.sqrt(q_local[2, 2]), rel=1e-12)

    def test_satellite_below_the_horizon_is_skipped(self, wgs84):
        recv = GeodeticCoord(0.6, 0.2, 0.0)
        el_az = [(0, 60), (90, 40), (180, 35), (270, 50), (45, 15)]
        above = dop(self.synthetic_constellation(recv, wgs84, el_az), recv, wgs84)
        with_below = dop(self.synthetic_constellation(recv, wgs84, el_az + [(120, -10)]),
                         recv, wgs84)
        assert dataclasses.astuple(with_below) == dataclasses.astuple(above)

    def test_identity_geometry(self, wgs84):
        # A'A = I4 would give GDOP = 2, PDOP = sqrt(3), TDOP = 1; verified
        # on the algebra directly since no physical constellation gives it
        q = np.linalg.inv(np.eye(4))
        assert math.sqrt(np.trace(q)) == 2.0
        assert math.sqrt(q[0, 0] + q[1, 1] + q[2, 2]) == pytest.approx(math.sqrt(3.0))
        assert math.sqrt(q[3, 3]) == 1.0

    def test_conditioning_bound(self, wgs84):
        # satellites at one elevation lie on a cone: A'A is singular.  Spread
        # the elevations by delta, find where cond(A'A) crosses 1e10 with
        # np.linalg.cond as the oracle, and check dop 2% on either side.
        recv = GeodeticCoord(0.6, 0.2, 0.0)
        rng = np.random.default_rng(7)
        azimuths, signs = rng.uniform(0.0, 360.0, 7), rng.choice([-1.0, 1.0], 7)
        ecef = geodetic_to_ecef(wgs84, recv).as_array()

        def sats(delta):
            return self.synthetic_constellation(
                recv, wgs84, [(az, 30.0 + delta * s) for az, s in zip(azimuths, signs)])

        def cond(delta):
            rows = []
            for sat in sats(delta):
                vec = sat.as_array() - ecef
                rows.append(np.append(-vec / np.linalg.norm(vec), 1.0))
            a = np.array(rows)
            return np.linalg.cond(a.T @ a)

        lo, hi = 1e-9, 1.0  # degrees: cond(lo) > 1e10 > cond(hi)
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if cond(mid) > 1e10 else (lo, mid)
        assert cond(lo / 1.02) > 1.01e10 and cond(hi * 1.02) < 0.99e10
        with pytest.raises(SingularGeometry, match="coplanar"):
            dop(sats(lo / 1.02), recv, wgs84)
        assert dop(sats(hi * 1.02), recv, wgs84).gdop > 0

    def test_below_horizon_filtered_and_errors(self, wgs84):
        recv = GeodeticCoord(0.5, 0.5, 0.0)
        sats = self.synthetic_constellation(
            recv, wgs84, [(0, -30), (90, -40), (180, -35), (270, -50), (0, 60)]
        )
        with pytest.raises(SingularGeometry):
            dop(sats, recv, wgs84)
