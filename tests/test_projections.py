import json
import math
import random

import numpy as np
import pytest

from geodkit.core import get_ellipsoid, meridian_arc
from geodkit.coords import GeodeticCoord
from geodkit.projections import (
    ApexSingularity,
    LambertDef,
    OutOfZone,
    PlaneCoord,
    UtmDef,
    inverse_columns,
    lambert_arc_to_chord,
    lambert_convergence,
    lambert_forward,
    lambert_inverse,
    lambert_raw_xy,
    lambert_scale,
    named_projection,
    projection_from_json,
    projection_to_json,
    tissot_moduli,
    utm_convergence,
    utm_footpoint_latitude,
    utm_forward,
    utm_inverse,
    utm_scale,
)
from geodkit.reductions import (
    DistanceObservation,
    correction_chord_to_arc,
    reduce_to_plane,
    rigorous_sea_level,
)

from conftest import integrate_geodesic

GR = math.pi / 200.0
DMGR = GR * 1e-4


@pytest.fixture(scope="module")
def lambert_unit(clarke_fr):
    """Tangent Lambert at 40 gr / 11 gr, unit scale, no offsets."""
    return LambertDef(clarke_fr, 40 * GR, 11 * GR)


class TestLambertForward:
    def test_origin_maps_to_false_origin(self, clarke_fr):
        d = LambertDef(clarke_fr, 40 * GR, 11 * GR, k0=0.9997, false_e=5e5, false_n=3e5)
        p = lambert_forward(d, GeodeticCoord(40 * GR, 11 * GR))
        assert p.e == pytest.approx(5e5, abs=1e-9)
        assert p.n == pytest.approx(3e5, abs=1e-9)

    def test_reference_point(self, lambert_unit):
        # (40.9193 gr, 11.9656 gr): frozen from a 50-digit evaluation of the
        # closed formulas (R0 exp(-n dL) polar mapping)
        p = lambert_forward(lambert_unit, GeodeticCoord(40.9193 * GR, 11.9656 * GR))
        assert p.e == pytest.approx(77539.1646052273, abs=1e-4)
        assert p.n == pytest.approx(92156.1802602605, abs=1e-4)

    def test_network_points_south_zone(self, clarke_fr):
        # three control points in the southern zone (phi0 = 37 gr, unit
        # scale, 500/300 km constants); frozen from the same oracle
        d = LambertDef(
            clarke_fr, 37 * GR, 11 * GR, k0=1.0,
            false_e=500000.0, false_n=300000.0,
        )
        expected = {
            (37.08306094, 11.54516843): (545659.57101218, 308398.07917157),
            (37.12290536, 11.28615241): (523956.41381682, 312297.42188844),
            (37.05424612, 11.42887620): (535930.41924463, 305481.02140438),
        }
        for (phi, lam), (e, n) in expected.items():
            p = lambert_forward(d, GeodeticCoord(phi * GR, lam * GR))
            assert p.e == pytest.approx(e, abs=1e-4)
            assert p.n == pytest.approx(n, abs=1e-4)

    def test_stt_and_standard_agree_on_final_coordinates(self, clarke_fr):
        kwargs = dict(phi0=40 * GR, lam0=11 * GR, k0=0.999625544,
                      false_e=5e5, false_n=3e5)
        std = LambertDef(clarke_fr, axis_convention="standard", **kwargs)
        stt = LambertDef(clarke_fr, axis_convention="stt", **kwargs)
        g = GeodeticCoord(41.2 * GR, 10.3 * GR)
        ps, pt = lambert_forward(std, g), lambert_forward(stt, g)
        assert ps.e == pytest.approx(pt.e, abs=1e-9)
        assert ps.n == pytest.approx(pt.n, abs=1e-9)
        # but the raw axes differ: stt x is the standard y (north), stt y west
        xs, ys = lambert_raw_xy(std, g)
        xt, yt = lambert_raw_xy(stt, g)
        assert xt == pytest.approx(ys, abs=1e-9)
        assert yt == pytest.approx(-xs, abs=1e-9)


class TestLambertInverse:
    def test_false_origin_maps_back(self, clarke_fr):
        d = LambertDef(clarke_fr, 40 * GR, 11 * GR, k0=0.999625544,
                       false_e=5e5, false_n=3e5)
        g = lambert_inverse(d, PlaneCoord(5e5, 3e5))
        assert g.phi == pytest.approx(40 * GR, abs=1e-12)
        assert g.lam == pytest.approx(11 * GR, abs=1e-12)

    def test_round_trip_band(self, lambert_unit):
        rng = random.Random(4)
        for _ in range(200):
            g = GeodeticCoord(
                (40 + rng.uniform(-2.5, 2.5)) * GR, (11 + rng.uniform(-3, 3)) * GR
            )
            p = lambert_forward(lambert_unit, g)
            back = lambert_inverse(lambert_unit, p)
            assert abs(back.phi - g.phi) < 1e-9
            assert abs(back.lam - g.lam) < 1e-9
            fwd = lambert_forward(lambert_unit, back)
            assert math.hypot(fwd.e - p.e, fwd.n - p.n) < 1e-5

    def test_southern_hemisphere_round_trip(self, grs80):
        d = LambertDef(grs80, -35 * GR, 20 * GR, k0=0.9998, false_e=1e5, false_n=2e5)
        rng = random.Random(21)
        for _ in range(50):
            g = GeodeticCoord(
                (-35 + rng.uniform(-2, 2)) * GR, (20 + rng.uniform(-3, 3)) * GR
            )
            back = lambert_inverse(d, lambert_forward(d, g))
            assert abs(back.phi - g.phi) < 1e-9
            assert abs(back.lam - g.lam) < 1e-9
        assert lambert_scale(d, -35 * GR) == pytest.approx(0.9998, abs=1e-12)

    @pytest.mark.parametrize("e,n", [(math.nan, 3e5), (5e5, math.inf)])
    def test_non_finite_plane_point_rejected(self, e, n):
        with pytest.raises(ValueError):
            PlaneCoord(e, n)

    def test_apex_rejected(self, lambert_unit):
        apex = PlaneCoord(0.0, lambert_unit.r0)
        with pytest.raises(ApexSingularity):
            lambert_inverse(lambert_unit, apex)

    def test_station_to_target_chain(self):
        """Full reduction chain from a slope distance to the target longitude.

        Station A = (478022.43, 444702.22) in the northern-zone grid; the
        slope distance 20130.858 m (altitudes 235.07/507.75 m) reduces
        through the rigorous path and the 0.999850371 scale; the
        astro-to-grid bearing chain uses the station-form longitude
        correction and the given chord correction 0.00188 gr.  The target
        longitude reproduces the published 10.92884 gr.  (The published
        azimuth prints 89.68499 gr; the chain only closes with 59.68499 gr,
        a first-digit misprint, and the residual below reflects the
        published rounding.)
        """
        proj = named_projection("lambert-nord-tn")
        obs = DistanceObservation(20130.858, 235.07, 507.75)
        d0 = rigorous_sea_level(obs)
        de = d0 + correction_chord_to_arc(d0)
        dr = reduce_to_plane(de, 0.999850371)
        assert dr == pytest.approx(20124.836, abs=1e-3)

        aza = 59.68499 * GR
        azg = aza + (10.72453 - 10.72574) * GR * math.sin(41.44903 * GR)
        bearing = azg - lambert_convergence(proj, 10.72453 * GR) + 0.00188 * GR
        xb = 478022.43 + dr * math.sin(bearing)
        yb = 444702.22 + dr * math.cos(bearing)
        gb = lambert_inverse(proj, PlaneCoord(xb, yb))
        assert gb.lam / GR == pytest.approx(10.92884, abs=1e-3)


class TestLambertScale:
    def test_reference_table_unit_scale(self, lambert_unit):
        assert lambert_scale(lambert_unit, 40 * GR) == pytest.approx(1.0, abs=1e-12)
        assert lambert_scale(lambert_unit, 42.5 * GR) == pytest.approx(
            1.000775720, abs=1e-8
        )
        assert lambert_scale(lambert_unit, 37.5 * GR) == pytest.approx(
            1.000760827, abs=1e-8
        )

    def test_reference_table_reduced_scale(self, clarke_fr):
        d = LambertDef(clarke_fr, 40 * GR, 11 * GR, k0=0.999625544)
        assert lambert_scale(d, 40 * GR) == pytest.approx(0.999625544, abs=1e-9)
        assert lambert_scale(d, 42.5 * GR) == pytest.approx(1.000400974, abs=1e-8)
        assert lambert_scale(d, 37.5 * GR) == pytest.approx(1.000386086, abs=1e-8)

    def test_minimum_at_origin_parallel(self, lambert_unit):
        m0 = lambert_scale(lambert_unit, 40 * GR)
        for dphi in (0.05, -0.05, 0.3, -0.3, 1.0, -1.0):
            assert lambert_scale(lambert_unit, (40 + dphi) * GR) > m0
        h = 1e-7
        slope = (
            lambert_scale(lambert_unit, 40 * GR + h)
            - lambert_scale(lambert_unit, 40 * GR - h)
        ) / (2 * h)
        assert slope == pytest.approx(0.0, abs=1e-7)

    def test_quadratic_distortion_model(self, lambert_unit, clarke_fr):
        from geodkit.core import meridian_radius, prime_vertical_radius

        n0 = prime_vertical_radius(clarke_fr, 40 * GR)
        r0 = meridian_radius(clarke_fr, 40 * GR)
        phi = 41 * GR
        dist = meridian_arc(clarke_fr, phi) - meridian_arc(clarke_fr, 40 * GR)
        approx = dist * dist / (2 * n0 * r0)
        exact = lambert_scale(lambert_unit, phi) - 1.0
        assert abs(exact - approx) < 2e-6


class TestLambertConvergence:
    def test_trivials(self, lambert_unit):
        assert lambert_convergence(lambert_unit, 11 * GR) == pytest.approx(0.0, abs=1e-15)
        assert lambert_convergence(lambert_unit, 12 * GR) / GR == pytest.approx(
            math.sin(40 * GR), rel=1e-12
        )
        assert lambert_convergence(lambert_unit, 12 * GR) / GR == pytest.approx(
            0.587785, abs=1e-6
        )

    def test_antisymmetry(self, lambert_unit):
        plus = lambert_convergence(lambert_unit, 11.7 * GR)
        minus = lambert_convergence(lambert_unit, 10.3 * GR)
        assert plus == pytest.approx(-minus, rel=1e-12)


class TestArcToChord:
    def test_symmetric_line_through_origin_parallel(self, lambert_unit):
        a = GeodeticCoord(40 * GR, 10.5 * GR)
        b = GeodeticCoord(40 * GR, 11.5 * GR)
        assert abs(lambert_arc_to_chord(lambert_unit, a, b)) / DMGR < 0.05

    def test_against_dense_projection_oracle(self, lambert_unit, clarke_fr):
        # project the true geodesic densely; the bearing difference between
        # the chord and the tangent at the start is the reference value
        a = GeodeticCoord(40.9193 * GR, 11.9656 * GR)
        az, s = 55.7631 * GR, 5421.32

        def image(frac):
            if frac == 0.0:
                g = a
            else:
                st = integrate_geodesic(
                    clarke_fr, a.phi, a.lam, az, s * frac,
                    steps=max(64, int(1200 * frac)),
                )
                g = GeodeticCoord(st[0], st[1])
            p = lambert_forward(lambert_unit, g)
            return p.e, p.n

        x0, y0 = image(0.0)
        x1, y1 = image(1.0)
        chord = math.atan2(x1 - x0, y1 - y0)
        xe, ye = image(1e-4)
        tangent = math.atan2(xe - x0, ye - y0)
        dv_ref = chord - tangent
        assert dv_ref / DMGR == pytest.approx(3.06, abs=0.05)

        b_state = integrate_geodesic(clarke_fr, a.phi, a.lam, az, s)
        dv = lambert_arc_to_chord(lambert_unit, a, GeodeticCoord(b_state[0], b_state[1]))
        assert dv == pytest.approx(dv_ref, abs=0.1 * DMGR)

    def test_sign_flips_with_direction(self, lambert_unit):
        a = GeodeticCoord(41.0 * GR, 10.6 * GR)
        b = GeodeticCoord(41.2 * GR, 11.4 * GR)
        fwd = lambert_arc_to_chord(lambert_unit, a, b)
        rev = lambert_arc_to_chord(lambert_unit, b, a)
        assert fwd != 0.0
        assert math.copysign(1.0, fwd) == -math.copysign(1.0, rev)

    def test_gisement_chain_closes(self, lambert_unit, clarke_fr):
        # bearing chain G = Az - gamma + Dv against the chord bearing of the
        # projected endpoints (endpoint from the geodesic integration oracle)
        a = GeodeticCoord(40.9193 * GR, 11.9656 * GR)
        az, s = 55.7631 * GR, 5421.32
        st = integrate_geodesic(clarke_fr, a.phi, a.lam, az, s)
        b = GeodeticCoord(st[0], st[1])
        pa = lambert_forward(lambert_unit, a)
        pb = lambert_forward(lambert_unit, b)
        chord = math.atan2(pb.e - pa.e, pb.n - pa.n)
        chain = (
            az
            - lambert_convergence(lambert_unit, a.lam)
            + lambert_arc_to_chord(lambert_unit, a, b)
        )
        assert abs(chain - chord) / DMGR < 0.2


class TestUtmForward:
    def test_central_meridian(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        g = GeodeticCoord(40 * GR, d.lam0)
        p = utm_forward(d, g)
        assert p.e == pytest.approx(500000.0, abs=1e-9)
        assert p.n == pytest.approx(0.9996 * meridian_arc(clarke_fr, 40 * GR), rel=1e-12)

    def test_reference_point_full_series(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        p = utm_forward(d, GeodeticCoord(40.9193 * GR, 11.9656 * GR))
        assert p.e == pytest.approx(657770.34, abs=0.10)
        assert p.n == pytest.approx(4076891.20, abs=0.10)

    def test_reference_point_truncated_series(self, clarke_fr):
        # historical 3-coefficient variant with the two-term meridian arc
        from geodkit.projections import _utm_direct_coeffs

        d = UtmDef.from_zone(clarke_fr, 32)
        phi, lam = 40.9193 * GR, 11.9656 * GR
        a1, a2, a3 = _utm_direct_coeffs(clarke_fr, phi)[:3]
        dl = lam - d.lam0
        g = clarke_fr.a * (1 - clarke_fr.e2) * (
            1.0051353 * phi - 0.0025731 * math.sin(2 * phi)
        )
        x = a1 * dl - a3 * dl**3
        y = g - a2 * dl**2
        assert x == pytest.approx(157833.48, abs=0.01)
        assert y == pytest.approx(4078512.97, abs=0.01)

    def test_out_of_zone(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        with pytest.raises(OutOfZone):
            utm_forward(d, GeodeticCoord(40 * GR, d.lam0 + math.radians(4.0)))

    def test_zone_longitudes(self, wgs84):
        assert UtmDef.from_zone(wgs84, 31).lam0 == pytest.approx(math.radians(3.0))
        assert UtmDef.from_zone(wgs84, 32).lam0 == pytest.approx(math.radians(9.0))
        assert UtmDef.from_zone(wgs84, 1).lam0 == pytest.approx(math.radians(-177.0))
        assert UtmDef.from_zone(wgs84, 32).zone == 32
        with pytest.raises(ValueError):
            UtmDef.from_zone(wgs84, 61)
        south = UtmDef.from_zone(wgs84, 32, southern=True)
        assert south.false_n == 10000000.0

    @pytest.mark.parametrize("k0, false_e, false_n", [
        (0.0, 500000.0, 0.0), (-5.0, 500000.0, 0.0), (1.01, 500000.0, 0.0), (math.nan, 500000.0, 0.0),
        (0.9996, math.inf, 0.0), (0.9996, 500000.0, math.nan)])
    def test_definition_rejects_bad_scale_or_offsets(self, wgs84, k0, false_e, false_n):
        # the same ranges as LambertDef's
        with pytest.raises(ValueError):
            UtmDef(wgs84, 0.1, k0, false_e, false_n)


class TestUtmInverse:
    def test_central_meridian_equator(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        g = utm_inverse(d, PlaneCoord(500000.0, 0.0))
        assert g.phi == pytest.approx(0.0, abs=1e-12)
        assert g.lam == pytest.approx(d.lam0, abs=1e-12)

    def test_round_trip_zone(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        rng = random.Random(8)
        for _ in range(150):
            g = GeodeticCoord(
                rng.uniform(0.1, 1.2), d.lam0 + math.radians(rng.uniform(-3, 3))
            )
            p = utm_forward(d, g)
            back = utm_inverse(d, p)
            assert abs(back.phi - g.phi) < 1e-9
            assert abs(back.lam - g.lam) < 1e-9

    def test_same_parallel_reference_points(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        g_a = utm_inverse(d, PlaneCoord(657770.34, 4076891.20))
        g_b = utm_inverse(d, PlaneCoord(660531.74, 4076942.76))
        assert g_b.phi == pytest.approx(g_a.phi, abs=1e-8)
        assert g_a.phi == pytest.approx(40.9193 * GR, abs=1e-8)

    def test_southern_hemisphere_round_trip(self, grs80):
        d = UtmDef.from_zone(grs80, 34, southern=True)
        rng = random.Random(22)
        for _ in range(50):
            g = GeodeticCoord(
                rng.uniform(-1.2, -0.1), d.lam0 + math.radians(rng.uniform(-3, 3))
            )
            p = utm_forward(d, g)
            assert p.n > 0  # false northing keeps coordinates positive
            back = utm_inverse(d, p)
            assert abs(back.phi - g.phi) < 1e-9
            assert abs(back.lam - g.lam) < 1e-9

    def test_footpoint_latitude(self, grs80):
        d = UtmDef.from_zone(grs80, 32)
        for phi in (0.1, 0.5, 1.0, 1.4):
            y = meridian_arc(grs80, phi)
            assert utm_footpoint_latitude(d, y) == pytest.approx(phi, abs=1e-12)

    @pytest.mark.parametrize("southern", [False, True], ids=["utm:32", "utm:32s"])
    def test_a_point_comes_back_only_within_the_zone(self, wgs84, southern):
        # a 25 km x 100 km grid over the zone: near the pole a few hundred km
        # east is far outside it, and beyond the pole the footpoint runs past
        # pi/2; those points raise OutOfZone, as forward does, and every other
        # one goes back through forward within 1 mm
        d = UtmDef.from_zone(wgs84, 32, southern=southern)
        e = np.repeat(np.arange(100000.0, 900001.0, 25000.0), 101)
        n = np.tile(np.arange(0.0, 10000001.0, 100000.0), 33)
        phi, lam, failed = inverse_columns(d, e, n)
        returned = 0
        for i, (ei, ni) in enumerate(zip(e.tolist(), n.tolist())):
            try:
                g = utm_inverse(d, PlaneCoord(ei, ni))
            except OutOfZone:
                assert failed[i], (ei, ni)
                continue
            assert not failed[i] and abs(g.phi - phi[i]) <= 1e-15 and g.lam == lam[i]
            p = utm_forward(d, g)
            assert math.hypot(p.e - ei, p.n - ni) < 1e-3, (ei, ni)
            returned += 1
        assert returned == 2000

    @pytest.mark.parametrize("deg", [0.0, 45.0, 80.0, 89.9])
    @pytest.mark.parametrize("dlam", [3.4999, 3.5])
    @pytest.mark.parametrize("southern", [False, True], ids=["north", "south"])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["west", "east"])
    def test_a_point_at_the_zone_edge_comes_back(self, wgs84, deg, dlam, southern, side):
        # the inverse series' first term exceeds the longitude (by 6e-4 relative on the
        # equator, 1.2e-3 at 80 deg), and its sum by up to 4.6e-10 rad on the edge, so
        # neither may decide the zone edge as forward does
        d = UtmDef.from_zone(wgs84, 32, southern=southern)
        g = GeodeticCoord(math.radians(-deg if southern else deg),
                          d.lam0 + side * math.radians(dlam))
        p = utm_forward(d, g)
        back = utm_inverse(d, p)
        phi, lam, failed = inverse_columns(d, np.array([p.e]), np.array([p.n]))
        assert not failed[0] and phi[0] == back.phi and lam[0] == back.lam
        assert abs(back.phi - g.phi) < 1e-9 and abs(back.lam - g.lam) < 1e-9

    @pytest.mark.parametrize("e, n", [(300000.0, 9900000.0), (900000.0, 9990000.0),
                                      (500000.0, 10001000.0)])
    def test_a_point_near_or_past_the_pole_is_out_of_zone(self, wgs84, e, n):
        # these came back as points near the south pole, or as a ValueError
        d = UtmDef.from_zone(wgs84, 32)
        with pytest.raises(OutOfZone):
            utm_inverse(d, PlaneCoord(e, n))
        assert inverse_columns(d, np.array([e]), np.array([n]))[2].tolist() == [True]


class TestUtmScaleAndConvergence:
    def test_scale_trivial(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        assert utm_scale(d, GeodeticCoord(0.7, d.lam0)) == 0.9996

    def test_scale_monotone_in_offset(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        values = [
            utm_scale(d, GeodeticCoord(40 * GR, d.lam0 + math.radians(x)))
            for x in (0.0, 0.5, 1.0, 2.0, 3.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_scale_against_tissot(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        # the closed formula truncates at (dlam)^2: agreement tightens
        # quickly toward the central meridian
        g_near = GeodeticCoord(40 * GR, d.lam0 + math.radians(0.5))
        _, m_par = tissot_moduli(lambda q: utm_forward(d, q), clarke_fr, g_near)
        assert utm_scale(d, g_near) == pytest.approx(m_par, abs=1e-9)
        g_far = GeodeticCoord(40 * GR, d.lam0 + math.radians(2.0))
        _, m_far = tissot_moduli(lambda q: utm_forward(d, q), clarke_fr, g_far)
        assert utm_scale(d, g_far) == pytest.approx(m_far, abs=5e-7)

    def test_convergence(self, clarke_fr):
        d = UtmDef.from_zone(clarke_fr, 32)
        assert utm_convergence(d, GeodeticCoord(0.8, d.lam0)) == 0.0
        assert utm_convergence(d, GeodeticCoord(0.0, d.lam0 + 0.03)) == 0.0
        g = GeodeticCoord(40.9193 * GR, 11.9656 * GR)
        expected = math.atan((g.lam - d.lam0) * math.sin(g.phi))
        assert utm_convergence(d, g) == pytest.approx(expected, rel=1e-14)


class TestTissot:
    def test_conformality_bands(self, clarke_fr):
        lamb = LambertDef(clarke_fr, 40 * GR, 11 * GR, k0=0.999625544)
        utm = UtmDef.from_zone(clarke_fr, 32)
        rng = random.Random(12)
        for _ in range(40):
            g = GeodeticCoord((40 + rng.uniform(-2.5, 2.5)) * GR,
                              (11 + rng.uniform(-2, 2)) * GR)
            m1, m2 = tissot_moduli(lambda q: lambert_forward(lamb, q), clarke_fr, g)
            assert abs(m1 - m2) / m1 < 1e-6
            g2 = GeodeticCoord(rng.uniform(0.2, 1.2),
                               utm.lam0 + math.radians(rng.uniform(-3, 3)))
            u1, u2 = tissot_moduli(lambda q: utm_forward(utm, q), clarke_fr, g2)
            assert abs(u1 - u2) / u1 < 1e-6

    def test_lambert_at_origin_parallel(self, clarke_fr):
        lamb = LambertDef(clarke_fr, 40 * GR, 11 * GR, k0=0.999625544)
        m1, m2 = tissot_moduli(
            lambda q: lambert_forward(lamb, q), clarke_fr,
            GeodeticCoord(40 * GR, 11.4 * GR),
        )
        assert m1 == pytest.approx(0.999625544, abs=1e-8)
        assert m2 == pytest.approx(0.999625544, abs=1e-8)

    def test_broken_projection_detected(self, clarke_fr):
        lamb = LambertDef(clarke_fr, 40 * GR, 11 * GR)

        def broken(g):
            p = lambert_forward(lamb, g)
            return PlaneCoord(2.0 * p.e, p.n)

        m1, m2 = tissot_moduli(broken, clarke_fr, GeodeticCoord(40 * GR, 11.5 * GR))
        assert abs(m1 - m2) / m1 > 0.1


class TestPresets:
    def test_tunisia_parameters(self):
        north = named_projection("lambert-nord-tn")
        assert north.phi0 == pytest.approx(40 * GR)
        assert north.lam0 == pytest.approx(11 * GR)
        assert north.k0 == 0.999625544
        assert (north.false_e, north.false_n) == (500000.0, 300000.0)
        assert north.ell.name == "Clarke 1880 French"
        south = named_projection("lambert-sud-tn")
        assert south.phi0 == pytest.approx(37 * GR)
        assert south.k0 == 0.999625769

    def test_utm_preset(self):
        d = named_projection("utm:32")
        assert isinstance(d, UtmDef)
        assert d.k0 == 0.9996
        assert d.false_e == 500000.0
        assert d.ell.name == "Clarke 1880 French"
        d2 = named_projection("utm:32", get_ellipsoid("wgs84"))
        assert d2.ell.name == "WGS 84"
        with pytest.raises(KeyError):
            named_projection("bonne")

    def test_lambert_preset_keeps_its_ellipsoid(self, clarke_fr, wgs84):
        assert named_projection("lambert-sud-tn", clarke_fr) == named_projection("lambert-sud-tn")
        with pytest.raises(ValueError, match="Clarke 1880 French, not WGS 84"):
            named_projection("lambert-nord-tn", wgs84)

    def test_json_round_trip(self, clarke_fr):
        for d in (
            LambertDef(clarke_fr, 40 * GR, 11 * GR, k0=0.999625544,
                       false_e=5e5, false_n=3e5, axis_convention="stt"),
            UtmDef.from_zone(clarke_fr, 32),
        ):
            back = projection_from_json(projection_to_json(d))
            g = GeodeticCoord(40.3 * GR, 10.8 * GR)
            if isinstance(d, LambertDef):
                p1, p2 = lambert_forward(d, g), lambert_forward(back, g)
            else:
                p1, p2 = utm_forward(d, g), utm_forward(back, g)
            assert p1.e == pytest.approx(p2.e, abs=1e-6)
            assert p1.n == pytest.approx(p2.n, abs=1e-6)
