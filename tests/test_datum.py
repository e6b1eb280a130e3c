import dataclasses
import itertools
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodkit import datum
from geodkit.adjust import check_condition
from geodkit.coords import (
    EcefCoord,
    GeodeticCoord,
    PolarAxis,
    ecef_to_geodetic,
    geodetic_columns,
    geodetic_to_ecef,
)
from geodkit.core import ARCSEC, get_ellipsoid, meridian_radius, npmath, prime_vertical_radius
from geodkit.datum import (
    BursaWolfParams,
    Helmert2DParams,
    InsufficientPoints,
    RankDeficient,
    SingularRotationSystem,
    apply_molodensky,
    bursa_wolf_apply,
    bursa_wolf_direct,
    bursa_wolf_estimate,
    helmert2d_apply,
    helmert2d_estimate,
    helmert2d_min_distance,
    molodensky_abridged,
    molodensky_standard,
)
from geodkit.projections import PlaneCoord

GR = math.pi / 200.0

# seven common points of a national network in two 3D systems
POINTS_S1 = [
    (4300244.860, 1062094.681, 4574775.629),
    (4277737.502, 1115558.251, 4582961.996),
    (4276816.431, 1081197.897, 4591886.356),
    (4315183.431, 1135854.241, 4542857.520),
    (4285934.717, 1110917.314, 4576361.689),
    (4217271.349, 1193915.699, 4618635.464),
    (4292630.700, 1079310.256, 4579117.105),
]
POINTS_S2 = [
    (4300245.018, 1062094.592, 4574775.510),
    (4277737.661, 1115558.164, 4582961.878),
    (4276816.590, 1081197.809, 4591886.238),
    (4315183.590, 1135854.153, 4542857.402),
    (4285934.876, 1110917.227, 4576361.571),
    (4217271.512, 1193915.612, 4618635.348),
    (4292630.858, 1079310.168, 4579116.986),
]
TARGETS = [
    (4351694.594, 1056274.819, 4526994.706),
    (4319956.455, 1095408.043, 4548544.867),
    (4303467.472, 1110727.257, 4560823.460),
    (4202413.995, 1221146.648, 4625014.614),
]


def network_pairs():
    return [(EcefCoord(*a), EcefCoord(*b)) for a, b in zip(POINTS_S1, POINTS_S2)]


class TestBursaWolfApply:
    def test_identity(self):
        p = BursaWolfParams(0, 0, 0, 0, 0, 0, 0)
        x = EcefCoord(4.3e6, 1.1e6, 4.5e6)
        out = bursa_wolf_apply(p, x)
        assert (out.x, out.y, out.z) == (x.x, x.y, x.z)

    def test_pure_translation(self):
        p = BursaWolfParams(0, 0, 1.0, 0, 0, 0, 0)
        out = bursa_wolf_apply(p, EcefCoord(1.0, 2.0, 3.0))
        assert (out.x, out.y, out.z) == (1.0, 2.0, 4.0)

    def test_rotation_convention(self):
        # positive rz turns the frame counterclockwise: the x axis of the
        # new frame picks up a +rz*y contribution
        p = BursaWolfParams(0, 0, 0, 0, 0, 0, 1e-6)
        out = bursa_wolf_apply(p, EcefCoord(1e6, 2e6, 0.0))
        assert out.x == pytest.approx(1e6 + 2.0, rel=1e-9)
        assert out.y == pytest.approx(2e6 - 1.0, rel=1e-9)

    def test_validity_bounds(self):
        with pytest.raises(ValueError):
            BursaWolfParams(0, 0, 0, 0, 0.1, 0, 0)
        with pytest.raises(ValueError):
            BursaWolfParams(0, 0, 0, 0.01, 0, 0, 0)
        with pytest.raises(ValueError, match="^Bursa-Wolf parameters must be finite"):
            BursaWolfParams(0, 0, 0, math.nan, math.nan, 0, 0)

    @pytest.mark.parametrize("field", range(7))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_raise(self, field, bad):
        # NaN passes every bound, inf passes the translation ones
        values = [0.0] * 7
        values[field] = bad
        with pytest.raises(ValueError, match="^Bursa-Wolf parameters must be finite"):
            BursaWolfParams(*values)


class TestBursaWolfEstimate:
    def test_exact_recovery_on_synthetic_data(self):
        rng = np.random.default_rng(1)
        truth = BursaWolfParams(10.0, -5.0, 3.0, 2e-6, 1e-6, -2e-6, 1.5e-6)
        pts = [
            EcefCoord(*(rng.uniform(-1, 1, 3) * 3e6 + np.array([4e6, 1e6, 4.5e6])))
            for _ in range(6)
        ]
        res = bursa_wolf_estimate([(q, bursa_wolf_apply(truth, q)) for q in pts])
        est = res.params
        assert est.tx == pytest.approx(truth.tx, abs=1e-7)
        assert est.ty == pytest.approx(truth.ty, abs=1e-7)
        assert est.tz == pytest.approx(truth.tz, abs=1e-7)
        assert est.m_scale == pytest.approx(truth.m_scale, abs=1e-13)
        assert est.rx == pytest.approx(truth.rx, abs=1e-10)
        vec_est = np.array([est.tx, est.ty, est.tz, est.m_scale, est.rx, est.ry, est.rz])
        vec_true = np.array([truth.tx, truth.ty, truth.tz, truth.m_scale,
                             truth.rx, truth.ry, truth.rz])
        assert np.linalg.norm(vec_est - vec_true) < 1e-9 * np.linalg.norm(vec_true)
        assert np.abs(res.residuals).max() < 1e-7

    def test_network_fit_quality(self):
        res = bursa_wolf_estimate(network_pairs())
        rms = np.sqrt(np.mean(res.residuals**2, axis=0))
        assert np.all(rms < 5e-3)  # under 5 mm per coordinate
        assert res.s2 is not None and res.s2 > 0
        # residual orthogonality A'V = 0
        a = np.vstack(
            [
                np.array(
                    [
                        [1, 0, 0, p.x, 0, -p.z, p.y],
                        [0, 1, 0, p.y, p.z, 0, -p.x],
                        [0, 0, 1, p.z, -p.y, p.x, 0],
                    ]
                )
                for p, _ in network_pairs()
            ]
        )
        l_norm = np.linalg.norm(res.residuals)
        assert np.abs(a.T @ res.residuals.ravel()).max() < 1e-8 * max(1.0, l_norm) * np.abs(a).max()

    def test_transform_targets_consistent(self):
        res = bursa_wolf_estimate(network_pairs())
        rms = float(np.sqrt(np.mean(res.residuals**2)))
        for p1, p2 in network_pairs():
            out = bursa_wolf_apply(res.params, p1)
            err = max(abs(out.x - p2.x), abs(out.y - p2.y), abs(out.z - p2.z))
            assert err < 3.0 * rms + 1e-6
        # transformed extension points stay in the common-point bounding box
        for t in TARGETS:
            out = bursa_wolf_apply(res.params, EcefCoord(*t))
            assert abs(out.x - t[0]) < 1.0  # shifts are decimetre level here
            assert abs(out.y - t[1]) < 1.0
            assert abs(out.z - t[2]) < 1.0

    def test_conditioning_bound(self):
        # points pushed off a 50 km line by delta: the rotation about the line
        # is undetermined at delta = 0.  Find where the column-scaled A'A
        # crosses cond 1e12 with np.linalg.cond as the oracle, and check the
        # estimator 2% on either side.
        rng = np.random.default_rng(12)
        offsets = rng.normal(size=(6, 3))

        def pairs(delta):
            return _with_targets(near_collinear(np.random.default_rng(5), 6, 0.0)
                                 + delta * offsets)

        def cond(delta):
            a = np.vstack([datum._bw_design_row_block(p.x, p.y, p.z) for p, _ in pairs(delta)])
            a_s = a / np.linalg.norm(a, axis=0)
            return np.linalg.cond(a_s.T @ a_s)

        lo, hi = 1e-9, 1e3  # metres: cond(lo) > 1e12 > cond(hi)
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if cond(mid) > 1e12 else (lo, mid)
        assert cond(lo / 1.02) > 1.01e12 and cond(hi * 1.02) < 0.99e12
        with pytest.raises(RankDeficient):
            bursa_wolf_estimate(pairs(lo / 1.02))
        assert bursa_wolf_estimate(pairs(hi * 1.02)).s2 is not None

    def test_points_on_a_coordinate_axis(self):
        # a zero column of A: the column scaling divided by zero, and the SVD
        # of the NaN matrix raised numpy's LinAlgError
        pairs = [(EcefCoord(x, 0.0, 0.0), EcefCoord(x + 1.0, 0.0, 0.0))
                 for x in (1e6, 2e6, 3e6, 4e6)]
        with pytest.raises(RankDeficient):
            bursa_wolf_estimate(pairs)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            bursa_wolf_estimate(network_pairs()[:2])


class TestBursaWolfDirect:
    def test_identity_data(self):
        pts = [EcefCoord(4e6, 1e6, 4.5e6), EcefCoord(4.1e6, 1.2e6, 4.4e6),
               EcefCoord(3.9e6, 0.9e6, 4.6e6), EcefCoord(4.2e6, 1.1e6, 4.3e6)]
        p = bursa_wolf_direct([(q, q) for q in pts])
        assert abs(p.m_scale) < 1e-12
        for v in (p.tx, p.ty, p.tz, p.rx, p.ry, p.rz):
            assert abs(v) < 1e-6

    def test_synthetic_recovery_first_order(self):
        rng = np.random.default_rng(2)
        truth = BursaWolfParams(12.0, -7.0, 4.0, 3e-6, 2e-6, -1e-6, 2.5e-6)
        pts = [
            EcefCoord(*(rng.uniform(-1, 1, 3) * 2e6 + np.array([4e6, 1e6, 4.5e6])))
            for _ in range(5)
        ]
        est = bursa_wolf_direct([(q, bursa_wolf_apply(truth, q)) for q in pts])
        assert est.m_scale == pytest.approx(truth.m_scale, abs=1e-9)
        assert est.rx == pytest.approx(truth.rx, abs=1e-9)
        assert est.ry == pytest.approx(truth.ry, abs=1e-9)
        assert est.rz == pytest.approx(truth.rz, abs=1e-9)
        assert est.tx == pytest.approx(truth.tx, abs=1e-3)

    def test_agrees_with_least_squares_on_network(self):
        res = bursa_wolf_estimate(network_pairs())
        direct = bursa_wolf_direct(network_pairs())
        sd = np.sqrt(np.diag(res.cov))
        lsq = res.params
        diffs = np.array(
            [
                direct.tx - lsq.tx, direct.ty - lsq.ty, direct.tz - lsq.tz,
                direct.m_scale - lsq.m_scale,
                direct.rx - lsq.rx, direct.ry - lsq.ry, direct.rz - lsq.rz,
            ]
        )
        assert np.all(np.abs(diffs) < 10.0 * sd)


def reference_bursa_wolf_direct(pairs: list):
    """The exhaustive scan bursa_wolf_direct replaces: for each bound, every
    chord triple in lexicographic order, one cond per triple.  Returns the
    parameters and the bound the chosen triple passed."""
    n = len(pairs)
    if n < 3:
        raise InsufficientPoints("need at least 3 common points")
    p1 = np.array([[p.x, p.y, p.z] for p, _ in pairs])
    p2 = np.array([[q.x, q.y, q.z] for _, q in pairs])

    chords = list(itertools.combinations(range(n), 2))
    ratios = []
    for i, j in chords:
        d1 = np.linalg.norm(p1[j] - p1[i])
        d2 = np.linalg.norm(p2[j] - p2[i])
        if not (math.isfinite(d1) and math.isfinite(d2)):
            raise OverflowError("a chord or its length overflows")
        if d1 > 0:
            ratios.append(d2 / d1)
    one_plus_m = float(np.mean(ratios))
    m_scale = one_plus_m - 1.0

    def rotation_from_triple(triple, cond_limit: float):
        rows = []
        rhs = []
        for row_idx, (i, j) in enumerate(triple):
            dx, dy, dz = p1[j] - p1[i]
            dxp, dyp, dzp = p2[j] - p2[i]
            v = (1.0 - m_scale) * np.array([dxp, dyp, dzp]) - np.array([dx, dy, dz])
            coeff = [
                [0.0, -dz, dy],
                [dz, 0.0, -dx],
                [-dy, dx, 0.0],
            ][row_idx]
            rows.append(coeff)
            rhs.append(v[row_idx])
        mat = np.array(rows)
        if np.linalg.cond(mat) > cond_limit:
            return None
        return np.linalg.solve(mat, np.array(rhs))

    rot = None
    for cond_limit in (10.0, 1e2, 1e4, 1e8):
        for triple in itertools.combinations(chords, 3):
            rot = rotation_from_triple(triple, cond_limit)
            if rot is not None:
                break
        if rot is not None:
            break
    if rot is None:
        raise SingularRotationSystem("no chord triple yields a solvable system")
    rx, ry, rz = (float(r) for r in rot)

    rot_matrix = np.array([[1.0, rz, -ry], [-rz, 1.0, rx], [ry, -rx, 1.0]])
    t_all = p2 - one_plus_m * (p1 @ rot_matrix.T)
    tx, ty, tz = (float(t) for t in t_all.mean(axis=0))
    return BursaWolfParams(tx, ty, tz, m_scale, rx, ry, rz), cond_limit


CENTRE = np.array([4.3e6, 1.1e6, 4.6e6])
SHIFT = BursaWolfParams(12.0, -7.0, 4.0, 3e-6, 2e-6, -1e-6, 2.5e-6)
AXES = [np.eye(3)[k] for k in range(3)]


def _with_targets(src: np.ndarray) -> list:
    return [(EcefCoord(*p), bursa_wolf_apply(SHIFT, EcefCoord(*p))) for p in src]


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def well_posed(rng, n: int) -> np.ndarray:
    return CENTRE + rng.uniform(-5e4, 5e4, (n, 3))


def coplanar(rng, n: int) -> np.ndarray:
    e1, e2 = _unit(rng), _unit(rng)
    return CENTRE + np.outer(rng.uniform(-5e4, 5e4, n), e1) + np.outer(rng.uniform(-5e4, 5e4, n), e2)


def near_collinear(rng, n: int, noise: float, direction=None) -> np.ndarray:
    """Points on a 50 km line, pushed off it by noise metres at random."""
    direction = _unit(rng) if direction is None else direction
    line = CENTRE + np.outer(rng.uniform(0.0, 5e4, n), direction)
    return line + noise * rng.normal(size=(n, 3))


def _outcome(fn, pairs):
    """('params', exact bits) or ('raises', class, message)."""
    try:
        p = fn(pairs)
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc), str(exc))
    return ("params", np.array(dataclasses.astuple(p)).tobytes())


def assert_same_as_reference(pairs: list):
    """Same outcome as the exhaustive scan, and the certificate leaves open
    every bound the scan finds a triple for.  Returns the bound the scan's
    triple passed, or None."""
    bounds = []

    def reference(q):
        params, bound = reference_bursa_wolf_direct(q)
        bounds.append(bound)
        return params

    assert _outcome(bursa_wolf_direct, pairs) == _outcome(reference, pairs)
    if not bounds:
        return None
    p1 = np.array([[p.x, p.y, p.z] for p, _ in pairs])
    i, j = np.triu_indices(len(p1), 1)
    d = p1[j] - p1[i]
    passed = {bound for bound in (10.0, 1e2, 1e4, 1e8) if bound >= bounds[0]}
    assert passed <= set(datum._open_limits(d, datum._cross_rows(d)))
    return bounds[0]


HUGE_OR_SMALL = st.tuples(
    st.sampled_from([-1.0, 1.0]), st.one_of(st.floats(1e307, 1.7e308), st.floats(0.0, 1e6)),
).map(lambda t: t[0] * t[1])

SETS = {
    "well-posed": lambda rng, n, noise: well_posed(rng, n),
    "coplanar": lambda rng, n, noise: coplanar(rng, n),
    "near-collinear": near_collinear,
    "collinear along an axis": lambda rng, n, noise: near_collinear(
        rng, n, noise * 1e-3, AXES[rng.integers(3)]),
    "duplicate points": lambda rng, n, noise: near_collinear(rng, n, noise)[rng.integers(0, n, n)],
}


def reference_bursa_wolf_estimate(pairs: list):
    """The estimator before it went through adjust.solve_linear: columns of
    A scaled to unit norm, its own condition check, solve and covariance."""
    n = len(pairs)
    if 3 * n < 7 or n < 3:
        raise InsufficientPoints(f"{n} common points give {3 * n} equations < 7")
    a = np.vstack([datum._bw_design_row_block(p1.x, p1.y, p1.z) for p1, _ in pairs])
    l_vec = np.concatenate([[p2.x - p1.x, p2.y - p1.y, p2.z - p1.z] for p1, p2 in pairs])
    scale = np.linalg.norm(a, axis=0)
    singular = RankDeficient("normal matrix ill-conditioned (collinear network?)")
    if not scale.all():
        raise singular
    a_s = a / scale
    normal_s = a_s.T @ a_s
    check_condition(normal_s, 1e12, singular)
    u = np.linalg.solve(normal_s, a_s.T @ l_vec) / scale
    v = a @ u - l_vec
    dof = 3 * n - 7
    s2 = float(v @ v / dof) if dof > 0 else None
    cov = None if s2 is None else s2 * (np.linalg.inv(normal_s) / np.outer(scale, scale))
    return datum.DatumShiftResult(BursaWolfParams(*u), v.reshape(n, 3), s2, cov)


def scaled_cond(pairs: list) -> float:
    """cond of A'A with the columns of A scaled to unit norm (inf for a zero
    column), by SVD."""
    a = np.vstack([datum._bw_design_row_block(p.x, p.y, p.z) for p, _ in pairs])
    scale = np.linalg.norm(a, axis=0)
    if not scale.all():
        return math.inf
    a_s = a / scale
    return float(np.linalg.cond(a_s.T @ a_s))


class TestBursaWolfEstimateAgainstReference:
    """bursa_wolf_estimate through solve_linear against the estimator it
    replaced, on sets from well-posed to collinear."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SETS)), st.integers(3, 40), st.integers(0, 2**32 - 1),
           st.floats(-12.0, 4.0), st.floats(-4.0, -1.0))
    def test_matches_the_reference(self, kind, n, seed, shape_exp, noise_exp):
        rng = np.random.default_rng(seed)
        exact = _with_targets(SETS[kind](rng, n, 10.0**shape_exp))
        noise = rng.normal(0.0, 10.0**noise_exp, (n, 3))
        pairs = [(p, EcefCoord(*(q.as_array() + e))) for (p, q), e in zip(exact, noise)]
        # the two condition checks agree to about 1e-4 relative at the 1e12
        # bound, so only sets that close to it may get different verdicts
        assume(not 5e11 < scaled_cond(pairs) < 2e12)
        try:
            ref = reference_bursa_wolf_estimate(pairs)
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc)):
                bursa_wolf_estimate(pairs)
            return
        res = bursa_wolf_estimate(pairs)
        # both solve the column-scaled normal equations backward stably, so
        # the scaled unknowns D x are at most about cond * eps * |D x| apart
        # (0.85 of it at most in 3000 sets), the residuals A x - L that much
        # times |A D^-1| <= sqrt(7), and the standard deviations cond * eps
        # relative.  With millimetre noise on points 6000 km from the
        # origin, that is up to 2e-5 sigma at cond 1e11.
        a = np.vstack([datum._bw_design_row_block(p.x, p.y, p.z) for p, _ in pairs])
        d = np.linalg.norm(a, axis=0)
        x, x_ref = (np.array(dataclasses.astuple(r.params)) for r in (res, ref))
        forward = 10.0 * scaled_cond(pairs) * np.finfo(float).eps
        assert np.abs(d * (x - x_ref)).max() <= forward * np.linalg.norm(d * x_ref)
        assert (np.linalg.norm(res.residuals - ref.residuals)
                <= forward * np.linalg.norm(d * x_ref))
        assert res.s2 == pytest.approx(ref.s2, rel=1e-9)
        np.testing.assert_allclose(np.sqrt(np.diag(res.cov)), np.sqrt(np.diag(ref.cov)),
                                   rtol=forward + 1e-12)

    def test_network_matches_the_reference(self):
        res, ref = bursa_wolf_estimate(network_pairs()), reference_bursa_wolf_estimate(
            network_pairs())
        np.testing.assert_allclose(dataclasses.astuple(res.params),
                                   dataclasses.astuple(ref.params), rtol=1e-9)
        np.testing.assert_allclose(np.diag(res.cov), np.diag(ref.cov), rtol=1e-9)
        np.testing.assert_allclose(res.residuals, ref.residuals, rtol=0, atol=1e-9)
        assert res.s2 == pytest.approx(ref.s2, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBursaWolfDirectAgainstExhaustiveScan:
    """bursa_wolf_direct picks the triple the exhaustive scan picks, and its
    certificate never drops a bound the scan finds a triple for."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(SETS)), st.integers(3, 6), st.integers(0, 2**32 - 1),
           st.floats(-12.0, 4.0))
    def test_generated_sets(self, kind, n, seed, noise_exp):
        # the noise sweep takes the best triples' cond from about 1e16 to 1
        rng = np.random.default_rng(seed)
        assert_same_as_reference(_with_targets(SETS[kind](rng, n, 10.0**noise_exp)))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.lists(st.tuples(*[HUGE_OR_SMALL] * 3), min_size=3, max_size=5),
           st.floats(0.5, 1.0))
    def test_sets_whose_chords_overflow(self, points, shrink):
        # coordinates of either sign near 1e308: a chord between opposite
        # signs overflows; targets shrink towards the origin and stay finite
        pairs = [(EcefCoord(*p), EcefCoord(*(shrink * np.array(p)))) for p in points]
        assert_same_as_reference(pairs)

    def test_noise_sweep_reaches_every_bound(self):
        # the generated near-collinear sets are accepted at each of the four
        # bounds and rejected, so the property above sees every branch
        seen = set()
        for k, noise_exp in enumerate(np.linspace(-12.0, 4.0, 33)):
            pairs = _with_targets(near_collinear(np.random.default_rng(k), 5, 10.0**noise_exp))
            seen.add(assert_same_as_reference(pairs))
        assert seen == {10.0, 1e2, 1e4, 1e8, None}

    def test_triple_blocks_are_the_lexicographic_triples(self):
        # blocks of 16 doubling to 16 384, over rows of one a and across b
        for m in (0, 1, 2, 3, 7, 40):
            got = [(a, int(b), int(c)) for a, bs, cs in datum._triple_blocks(m)
                   for b, c in zip(bs, cs)]
            assert got == list(itertools.combinations(range(m), 3))

    def test_large_well_posed_set_in_small_memory(self):
        # 300 points: 44 850 chords and 1.5e13 chord triples; materializing
        # the chord pairs of the triple scan would take gigabytes
        pairs = _with_targets(well_posed(np.random.default_rng(300), 300))
        tracemalloc.start()
        try:
            outcome = _outcome(bursa_wolf_direct, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        params, _ = reference_bursa_wolf_direct(pairs)
        assert outcome == ("params", np.array(dataclasses.astuple(params)).tobytes())

    @pytest.mark.parametrize("points", [
        # every chord between opposite signs overflows
        [(1e308, 1e308, 1e308), (-1e308, 1e308, -1e308), (1e308, -1e308, -1e308),
         (-1e308, -1e308, 1e308)],
        # one overflowing chord among ordinary ones: the mean length ratio was inf/inf
        [(1e308, 0.0, 0.0), (-1e308, 0.0, 0.0), tuple(CENTRE)]
        + [tuple(p) for p in CENTRE + 1e4 * np.eye(3)],
        # finite chords whose lengths overflow
        [(0.0, 0.0, 0.0), (1e200, 1e200, 0.0), (0.0, 1e200, 1e200), (1e200, 0.0, 1e200)],
    ])
    def test_overflowing_chords_raise_before_any_lapack_call(self, points, monkeypatch):
        # the parent returned NaN parameters for the second set, and LAPACK's
        # cond of an infinite chord system printed DLASCL errors to stdout
        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")
        for name in ("cond", "solve", "svd"):
            monkeypatch.setattr(np.linalg, name, lapack)
        pairs = [(EcefCoord(*p), EcefCoord(*p)) for p in points]
        with pytest.raises(OverflowError, match="overflows"):
            bursa_wolf_direct(pairs)

    def test_collinear_benchmark_size_is_certified(self):
        # 12 collinear points: the exhaustive scan takes 4 x 45 760 conds, about 9 s
        pairs = _with_targets(near_collinear(np.random.default_rng(3), 12, 0.0))
        start = time.perf_counter()
        with pytest.raises(SingularRotationSystem):
            bursa_wolf_direct(pairs)
        assert time.perf_counter() - start < 0.1


class TestMolodensky:
    def test_identity(self, wgs84):
        g = GeodeticCoord(0.7, 0.2, 120.0)
        out = molodensky_standard(wgs84, wgs84, g, (0.0, 0.0, 0.0))
        assert out == (0.0, 0.0, 0.0)

    def test_pure_z_shift_at_equator(self, wgs84):
        g = GeodeticCoord(0.0, 0.4, 50.0)
        dz = 100.0
        dphi, dlam, dhe = molodensky_standard(wgs84, wgs84, g, (0.0, 0.0, dz))
        rho = meridian_radius(wgs84, 0.0)
        assert dphi == pytest.approx(dz / ((rho + g.he) * math.sin(ARCSEC)), rel=1e-12)
        assert dlam == 0.0
        assert dhe == 0.0

    def test_standard_against_exact_path(self, clarke_fr, wgs84):
        rng = random.Random(10)
        for _ in range(10):
            g = GeodeticCoord(
                rng.uniform(-1.2, 1.2), rng.uniform(-3, 3), rng.uniform(0, 1000)
            )
            t = tuple(rng.uniform(-500, 500) for _ in range(3))
            approx = apply_molodensky(clarke_fr, wgs84, g, t)
            p = geodetic_to_ecef(clarke_fr, g)
            exact = ecef_to_geodetic(wgs84, EcefCoord(p.x + t[0], p.y + t[1], p.z + t[2]))
            rho = meridian_radius(clarke_fr, g.phi) + g.he
            n = prime_vertical_radius(clarke_fr, g.phi) + g.he
            assert abs(approx.phi - exact.phi) * rho < 0.3
            assert abs(approx.lam - exact.lam) * n * math.cos(g.phi) < 0.3
            assert abs(approx.he - exact.he) < 0.3

    def test_abridged_close_to_standard_at_low_heights(self, clarke_fr, wgs84):
        # the dropped terms are O(he/R + f a df) ~ up to a metre for this
        # large ellipsoid change; sub-metre agreement is the contract
        rng = random.Random(11)
        for _ in range(10):
            g = GeodeticCoord(rng.uniform(-1.2, 1.2), rng.uniform(-3, 3),
                              rng.uniform(0, 1000))
            t = tuple(rng.uniform(-300, 300) for _ in range(3))
            std = molodensky_standard(clarke_fr, wgs84, g, t)
            abr = molodensky_abridged(clarke_fr, wgs84, g, t)
            rho = meridian_radius(clarke_fr, g.phi)
            n = prime_vertical_radius(clarke_fr, g.phi)
            assert abs(std[0] - abr[0]) * ARCSEC * rho < 1.5
            assert abs(std[1] - abr[1]) * ARCSEC * n * math.cos(g.phi) < 1.5
            assert abs(std[2] - abr[2]) < 1.5

    def test_abridged_zero_input(self, wgs84):
        g = GeodeticCoord(0.5, 0.1, 0.0)
        assert molodensky_abridged(wgs84, wgs84, g, (0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_matching_truncation_consistency(self, wgs84):
        # with he = 0 and a tiny flattening difference the two forms agree
        # to well under a millimetre of the remaining quadratic terms
        ell2 = get_ellipsoid("grs80")
        rng = random.Random(12)
        for _ in range(20):
            g = GeodeticCoord(rng.uniform(-1.3, 1.3), rng.uniform(-3, 3), 0.0)
            t = tuple(rng.uniform(-50, 50) for _ in range(3))
            std = molodensky_standard(wgs84, ell2, g, t)
            abr = molodensky_abridged(wgs84, ell2, g, t)
            rho = meridian_radius(wgs84, g.phi)
            assert abs(std[0] - abr[0]) * ARCSEC * rho < 1e-3
            assert abs(std[2] - abr[2]) < 1e-3

    # the rows at a pole of the CLI test of the same name, in gr
    POLE_ROWS = [(100, 250), (100, 250.000001), (100, 10), (-100, 10)]
    SHIFT = (-168.0, -60.0, 320.0)

    @pytest.mark.parametrize("abridged", [False, True])
    @pytest.mark.parametrize("phi, lam", POLE_ROWS)
    def test_pole_is_on_the_polar_axis(self, clarke_fr, wgs84, phi, lam, abridged):
        g = GeodeticCoord(phi * GR, lam * GR, 0.0)
        with pytest.raises(PolarAxis):
            apply_molodensky(clarke_fr, wgs84, g, self.SHIFT, abridged)
        *_, failed = datum.molodensky_columns(clarke_fr, wgs84, np.array([g.phi]),
                                              np.array([g.lam]), np.zeros(1), self.SHIFT,
                                              abridged)
        assert failed.tolist() == [True]

    @pytest.mark.parametrize("abridged", [False, True])
    def test_within_a_metre_of_the_axis(self, wgs84, abridged):
        n_pole = prime_vertical_radius(wgs84, math.pi / 2)
        for d, inside in ((0.5, True), (0.99, True), (1.01, False), (2.0, False)):
            for sign in (1.0, -1.0):
                g = GeodeticCoord(sign * math.acos(d / n_pole), math.pi, 0.0)
                *_, failed = datum.molodensky_columns(
                    wgs84, wgs84, np.array([g.phi]), np.array([g.lam]), np.zeros(1),
                    (0.0, 0.0, 0.0), abridged)
                assert failed.tolist() == [inside], (d, sign)
                if inside:
                    with pytest.raises(PolarAxis):
                        apply_molodensky(wgs84, wgs84, g, (0.0, 0.0, 0.0), abridged)
                else:
                    apply_molodensky(wgs84, wgs84, g, (0.0, 0.0, 0.0), abridged)

    @pytest.mark.parametrize("abridged", [False, True])
    def test_rows_off_the_axis_keep_their_values(self, clarke_fr, wgs84, abridged):
        # the axis test is all that changed: off the axis both forms give
        # what the shift formula, datum._shifted, gives, bit for bit
        rng = np.random.default_rng(20)
        n_pole = prime_vertical_radius(clarke_fr, math.pi / 2)
        near = np.arccos(np.geomspace(2.0, 1e3, 50) / n_pole)  # 2 m to 1 km off the axis
        phi = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 1000), near, -near])
        lam = rng.uniform(-4.0, 4.0, phi.size)
        he = np.concatenate([rng.uniform(-1e4, 1e7, 1000), np.zeros(2 * near.size)])

        phi_in, lam_in, ok = geodetic_columns(phi, lam, he)
        want = datum._shifted(npmath, clarke_fr, wgs84, phi_in, lam_in, he, self.SHIFT, abridged)
        want_phi, want_lam, valid = geodetic_columns(*want)
        got = datum.molodensky_columns(clarke_fr, wgs84, phi, lam, he, self.SHIFT, abridged)
        for g, w in zip(got, (want_phi, want_lam, want[2], ~(ok & valid))):
            np.testing.assert_array_equal(g, w)

        for row in zip(phi.tolist(), lam.tolist(), he.tolist()):
            g = GeodeticCoord(*row)
            try:
                want = GeodeticCoord(*datum._shifted(math, clarke_fr, wgs84, g.phi, g.lam,
                                                     g.he, self.SHIFT, abridged))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    apply_molodensky(clarke_fr, wgs84, g, self.SHIFT, abridged)
            else:
                assert apply_molodensky(clarke_fr, wgs84, g, self.SHIFT, abridged) == want


class TestHelmert2D:
    def test_apply_identity_and_similarity(self):
        ident = Helmert2DParams(0.0, 0.0, 1.0, 0.0)
        p = helmert2d_apply(ident, PlaneCoord(12.0, -7.0))
        assert (p.e, p.n) == (12.0, -7.0)
        sim = Helmert2DParams(5.0, -3.0, 2.0 * math.cos(0.3), 2.0 * math.sin(0.3))
        a, b = PlaneCoord(0.0, 0.0), PlaneCoord(10.0, 4.0)
        qa, qb = helmert2d_apply(sim, a), helmert2d_apply(sim, b)
        d_before = math.hypot(b.e - a.e, b.n - a.n)
        d_after = math.hypot(qb.e - qa.e, qb.n - qa.n)
        assert d_after == pytest.approx(sim.scale * d_before, rel=1e-12)

    def test_scale_and_angle_from_matrix(self):
        p = Helmert2DParams(-21.662, -627.748, 0.999988149, -0.000025928)
        assert p.scale == pytest.approx(
            math.hypot(0.999988149, 0.000025928), rel=1e-12
        )
        assert p.theta == pytest.approx(
            math.atan2(-0.000025928, 0.999988149), rel=1e-12
        )
        assert p.theta / (GR * 1e-4) == pytest.approx(-16.5065, abs=1e-3)

    def test_exact_recovery(self):
        truth = Helmert2DParams(100.0, -50.0, 1.00002 * math.cos(1e-4),
                                1.00002 * math.sin(1e-4))
        src = [PlaneCoord(0, 0), PlaneCoord(1000, 100), PlaneCoord(400, 900),
               PlaneCoord(-500, 300)]
        res = helmert2d_estimate([(s, helmert2d_apply(truth, s)) for s in src])
        assert res.params.tx == pytest.approx(truth.tx, abs=1e-9)
        assert res.params.u == pytest.approx(truth.u, abs=1e-13)
        assert np.abs(res.residuals).max() < 1e-9
        assert res.s2 == pytest.approx(0.0, abs=1e-18)

    def test_insufficient_and_coincident(self):
        with pytest.raises(InsufficientPoints):
            helmert2d_estimate([(PlaneCoord(0, 0), PlaneCoord(1, 1))])
        from geodkit.datum import ZeroSpread

        with pytest.raises(ZeroSpread):
            helmert2d_estimate(
                [(PlaneCoord(2, 2), PlaneCoord(1, 1)), (PlaneCoord(2, 2), PlaneCoord(1, 1))]
            )

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_raise(self, field, bad):
        values = [0.0, 0.0, 1.0, 0.0]
        values[field] = bad
        with pytest.raises(ValueError, match="^Helmert parameters must be finite"):
            Helmert2DParams(*values)

    @pytest.mark.parametrize("u,v", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])
    def test_zero_scale_raises(self, u, v):
        with pytest.raises(ValueError, match="zero scale"):
            Helmert2DParams(1.0, 2.0, u, v)
        Helmert2DParams(1.0, 2.0, 5e-324, 0.0)  # the smallest scale is accepted

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.1, 0.1), (7e5, -3.3e6)])
    def test_coincident_points_raise_zero_spread(self, point):
        # centred, three copies of (0.1, 0.1) keep their mean's rounding error,
        # -1.4e-17, which fitted u = 8 to coincident sources; coincident targets
        # fit u = v = 0, which maps every point onto one
        from geodkit.datum import ZeroSpread

        spread = [PlaneCoord(0, 0), PlaneCoord(1000, 100), PlaneCoord(400, 900)]
        same = [PlaneCoord(*point)] * 3
        with pytest.raises(ZeroSpread, match="all common points coincide"):
            helmert2d_estimate(list(zip(same, spread)))
        with pytest.raises(ZeroSpread, match="all target points coincide"):
            helmert2d_estimate(list(zip(spread, same)))

    def test_mirror_image_fits_a_zero_scale(self):
        # a square onto its mirror image: sum (x x' + y y') = sum (x y' - y x') = 0
        from geodkit.datum import ZeroSpread

        src = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        pairs = [(PlaneCoord(e, n), PlaneCoord(e, -n)) for e, n in src]
        with pytest.raises(ZeroSpread, match="the fitted scale is zero"):
            helmert2d_estimate(pairs)

    def test_monte_carlo_variance_laws(self):
        # empirical variances of the translation and of u over noise draws
        # match sigma0^2/n and sigma0^2/sum(d^2)
        rng = np.random.default_rng(42)
        n_pts = 6
        src = rng.uniform(-5e4, 5e4, (n_pts, 2))
        src -= src.mean(axis=0)  # centroid at the origin: tx is centroid-frame
        theta, scale = 3e-5, 1.0000234
        truth = Helmert2DParams(120.0, -45.0, scale * math.cos(theta),
                                scale * math.sin(theta))
        sigma0 = 0.05
        txs, us = [], []
        for _ in range(1000):
            pairs = []
            for x, y in src:
                q = helmert2d_apply(truth, PlaneCoord(x, y))
                pairs.append(
                    (PlaneCoord(x, y),
                     PlaneCoord(q.e + rng.normal(0, sigma0), q.n + rng.normal(0, sigma0)))
                )
            res = helmert2d_estimate(pairs)
            txs.append(res.params.tx)
            us.append(res.params.u)
        d2 = float(np.sum(src**2))
        assert np.var(txs) == pytest.approx(sigma0**2 / n_pts, rel=0.10)
        assert np.var(us) == pytest.approx(sigma0**2 / d2, rel=0.10)

    def test_design_rule(self):
        # D >= sigma0 / (sigma_u sqrt(n)) is the algebraic lower bound of
        # the max centroid distance compatible with a target rotation sigma
        sigma0, sigma_u, n = 0.02, 1e-7, 8
        d = helmert2d_min_distance(sigma0, sigma_u, n)
        assert d == pytest.approx(sigma0 / (sigma_u * math.sqrt(n)), rel=1e-12)
        # with all points at distance d the rotation variance meets the target
        assert sigma0**2 / (n * d * d) == pytest.approx(sigma_u**2, rel=1e-12)
