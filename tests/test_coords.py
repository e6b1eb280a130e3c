import math
import random

import numpy as np
import pytest

from geodkit.core import Ellipsoid, prime_vertical_radius
from geodkit.coords import (
    EcefCoord,
    GeodeticCoord,
    PolarAxis,
    deviation_of_vertical,
    ecef_to_geodetic,
    ecef_vector_to_local,
    geodetic_to_ecef,
    laplace_azimuth,
    local_frame,
    local_vector_to_ecef,
)
from geodkit.geodesics import geodesic_direct, geodesic_inverse

GR = math.pi / 200.0


class TestGeodeticCoord:
    def test_longitude_normalized(self):
        g = GeodeticCoord(0.1, math.pi + 0.2)
        assert g.lam == pytest.approx(-math.pi + 0.2, rel=1e-12)
        assert GeodeticCoord(0.0, -3 * math.pi).lam == pytest.approx(math.pi)

    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            GeodeticCoord(2.0, 0.0)

    @pytest.mark.parametrize("phi,lam,he", [
        (math.nan, 0.0, 0.0), (0.1, math.nan, 0.0), (0.1, math.inf, 0.0),
        (0.1, 0.2, math.nan), (0.1, 0.2, -math.inf),
    ])
    def test_non_finite_rejected(self, phi, lam, he):
        with pytest.raises(ValueError):
            GeodeticCoord(phi, lam, he)


@pytest.mark.parametrize("xyz", [(math.nan, 1e6, 1e6), (1e6, math.inf, 1e6), (1e6, 1e6, -math.inf)])
def test_ecef_non_finite_rejected(xyz):
    with pytest.raises(ValueError):
        EcefCoord(*xyz)


class TestEcefConversions:
    def test_forward_trivials(self, grs80):
        p = geodetic_to_ecef(grs80, GeodeticCoord(0.0, 0.0, 0.0))
        assert (p.x, p.y, p.z) == (grs80.a, 0.0, 0.0)
        pole = geodetic_to_ecef(grs80, GeodeticCoord(math.pi / 2, 0.7, 0.0))
        assert pole.x == pytest.approx(0.0, abs=1e-9)
        assert pole.y == pytest.approx(0.0, abs=1e-9)
        assert pole.z == pytest.approx(grs80.b, rel=1e-12)

    def test_inverse_trivials(self, grs80):
        g = ecef_to_geodetic(grs80, EcefCoord(grs80.a, 0.0, 0.0))
        assert g.phi == pytest.approx(0.0, abs=1e-15)
        assert g.lam == 0.0
        assert g.he == pytest.approx(0.0, abs=1e-9)

    def test_polar_axis_error(self, grs80):
        with pytest.raises(PolarAxis):
            ecef_to_geodetic(grs80, EcefCoord(0.0, 0.0, 6356752.0))

    def test_reference_point(self):
        # conversion of (4300244.860, 1062094.681, 4574775.629) on the
        # a = 6378137 / e2 = 0.00669438 ellipsoid; expected values frozen
        # from an independent closed-form (Bowring) evaluation
        ell = Ellipsoid.from_a_e2("ref", 6378137.0, 0.00669438)
        p = EcefCoord(4300244.860, 1062094.681, 4574775.629)
        g = ecef_to_geodetic(ell, p)
        r = math.hypot(p.x, p.y)
        theta = math.atan2(p.z * ell.a, r * ell.b)
        phi_oracle = math.atan2(
            p.z + ell.ep2 * ell.b * math.sin(theta) ** 3,
            r - ell.e2 * ell.a * math.cos(theta) ** 3,
        )
        assert g.phi == pytest.approx(phi_oracle, abs=1e-11)
        assert g.phi / GR == pytest.approx(51.24094, abs=1e-5)
        assert g.lam / GR == pytest.approx(15.41503, abs=1e-5)
        assert g.he == pytest.approx(715.18, abs=1e-2)
        back = geodetic_to_ecef(ell, g)
        assert back.x == pytest.approx(p.x, abs=1e-4)
        assert back.y == pytest.approx(p.y, abs=1e-4)
        assert back.z == pytest.approx(p.z, abs=1e-4)

    def test_round_trip_1000_random_points(self, wgs84):
        rng = random.Random(5)
        for _ in range(1000):
            g = GeodeticCoord(
                rng.uniform(-1.55, 1.55),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-5000.0, 9000.0),
            )
            p = geodetic_to_ecef(wgs84, g)
            back = ecef_to_geodetic(wgs84, p)
            assert abs(back.phi - g.phi) < 1e-11
            assert abs(back.lam - g.lam) < 1e-11
            assert abs(back.he - g.he) < 1e-4

    def test_high_altitude_points(self, wgs84):
        # the fixed-point scheme must hold up to satellite altitudes
        for he in (1e5, 1e6, 9.9e6):
            g = GeodeticCoord(0.9, -2.1, he)
            back = ecef_to_geodetic(wgs84, geodetic_to_ecef(wgs84, g))
            assert abs(back.phi - g.phi) < 1e-11
            assert abs(back.he - he) < 1e-3

    def test_converges_in_six_iterations(self, wgs84):
        rng = random.Random(6)
        for _ in range(50):
            g = GeodeticCoord(rng.uniform(-1.4, 1.4), rng.uniform(-3, 3), rng.uniform(0, 1e4))
            p = geodetic_to_ecef(wgs84, g)
            # max_iter=6 must suffice for terrestrial heights
            back = ecef_to_geodetic(wgs84, p, max_iter=6)
            assert abs(back.phi - g.phi) < 1e-11

    def test_reprojection_consistency(self, grs80):
        rng = random.Random(9)
        for _ in range(1000):
            g = GeodeticCoord(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3), rng.uniform(0, 5e3))
            p = geodetic_to_ecef(grs80, g)
            n = prime_vertical_radius(grs80, g.phi)
            assert math.hypot(p.x, p.y) == pytest.approx(
                (n + g.he) * math.cos(g.phi), abs=1e-9 * max(1.0, abs(n))
            )


class TestLocalFrame:
    def test_axes_at_origin(self):
        f = local_frame(GeodeticCoord(0.0, 0.0))
        np.testing.assert_allclose(f.rotation @ [1, 0, 0], [0, 0, 1], atol=1e-15)  # up
        np.testing.assert_allclose(f.rotation @ [0, 1, 0], [1, 0, 0], atol=1e-15)  # east
        np.testing.assert_allclose(f.rotation @ [0, 0, 1], [0, 1, 0], atol=1e-15)  # north

    def test_orthonormal_100_random(self):
        rng = random.Random(3)
        for _ in range(100):
            f = local_frame(GeodeticCoord(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)))
            r = f.rotation
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_vector_round_trip(self):
        f = local_frame(GeodeticCoord(0.6, -1.1))
        v = np.array([120.0, -40.0, 7.0])
        np.testing.assert_allclose(
            ecef_vector_to_local(f, local_vector_to_ecef(f, v)), v, atol=1e-10
        )

    def test_up_vector_maps_to_unit_up(self, grs80):
        g = GeodeticCoord(0.7, 0.3)
        f = local_frame(g)
        up_ecef = local_vector_to_ecef(f, [0.0, 0.0, 543.0])
        enu = ecef_vector_to_local(f, up_ecef)
        np.testing.assert_allclose(enu, [0.0, 0.0, 543.0], atol=1e-10)

    def test_azimuth_matches_geodesic_module(self, grs80):
        # the bearing of a short chord in the local frame agrees with the
        # geodesic azimuth between its endpoints
        p1 = GeodeticCoord(math.radians(8.0), math.radians(30.0), 0.0)
        sol = geodesic_direct(grs80, p1, math.radians(40.0), 800.0)
        p2 = GeodeticCoord(sol.phi2, sol.lam2, 0.0)
        delta = geodetic_to_ecef(grs80, p2).as_array() - geodetic_to_ecef(grs80, p1).as_array()
        enu = ecef_vector_to_local(local_frame(p1), delta)
        az_frame = math.atan2(enu[0], enu[1])
        inv = geodesic_inverse(grs80, p1, p2)
        assert inv.az1 == pytest.approx(az_frame, abs=1e-6)


class TestDeflections:
    def test_deviation_trivials(self):
        assert deviation_of_vertical((0.4, 1.0), (0.4, 1.0)) == (0.0, 0.0)
        zeta, eta = deviation_of_vertical((0.4, 1.001), (0.4, 1.0))
        assert eta > 0.0

    def test_deviation_station_values(self):
        # station with astronomic (10.72574, 41.45052) gr and geodetic
        # (10.72453, 41.44903) gr coordinates
        phi, lam = 10.72453 * GR, 41.44903 * GR
        phi_a, lam_a = 10.72574 * GR, 41.45052 * GR
        zeta, eta = deviation_of_vertical((phi_a, lam_a), (phi, lam))
        assert zeta / GR == pytest.approx(0.00121, abs=1e-9)
        assert eta / GR == pytest.approx(0.00149 * math.cos(phi), abs=1e-9)

    def test_laplace_trivials(self):
        assert laplace_azimuth(0.5, 1.0, 1.0, 0.7) == 0.5
        assert laplace_azimuth(0.5, 1.1, 1.0, 0.0) == 0.5  # equator

    def test_laplace_both_sign_conventions(self):
        aza = 89.68499 * GR
        lam_g, lam_a, phi = 10.72453 * GR, 10.72574 * GR, 41.44903 * GR
        default = laplace_azimuth(aza, lam_g, lam_a, phi)
        assert default == pytest.approx(aza - (lam_g - lam_a) * math.sin(phi))
        # swapping the longitudes gives the opposite convention
        swapped = laplace_azimuth(aza, lam_a, lam_g, phi)
        assert swapped == pytest.approx(aza + (lam_g - lam_a) * math.sin(phi))
        assert default + swapped == pytest.approx(2 * aza)
