import math
import random

import pytest
from scipy.integrate import quad

from geodkit.core import Ellipsoid, meridian_arc, prime_vertical_radius
from geodkit.coords import GeodeticCoord
from geodkit.geodesics import (
    AntipodalUnsupported,
    PolarGeodesic,
    clairaut_constant,
    geodesic_direct,
    geodesic_inverse,
)

from conftest import integrate_geodesic

GR = math.pi / 200.0

# worked line on Clarke 1880 French; the published latitude value carries a
# first-digit misprint (10.45... for 40.45...): 40.45498299 gr reproduces the
# published constant, equatorial azimuth and modulus to all printed digits
LINE_PHI1 = 40.45498299 * GR
LINE_LAM1 = 9.59542429 * GR
LINE_AZ1 = 249.310168 * GR
LINE_S = 16255.206


class TestClairaut:
    def test_equatorial_start(self, grs80):
        st = clairaut_constant(grs80, 0.0, math.pi / 2)
        assert st.C == grs80.a
        assert st.aze == math.pi / 2
        assert math.isinf(st.k2)
        sol = geodesic_direct(grs80, GeodeticCoord(0.0, 0.1), math.pi / 2, 1000.0)
        assert sol.phi2 == 0.0
        assert sol.lam2 == pytest.approx(0.1 + 1000.0 / grs80.a, rel=1e-12)

    def test_worked_line_constants(self, clarke_fr):
        st = clairaut_constant(clarke_fr, LINE_PHI1, LINE_AZ1)
        assert st.C == pytest.approx(-3594478.080, abs=1e-3)
        assert st.aze / GR == pytest.approx(238.1131471, abs=1e-7)
        assert st.k == pytest.approx(1.209227584, abs=1e-7)

    def test_meridian_raises(self, grs80):
        with pytest.raises(PolarGeodesic):
            clairaut_constant(grs80, 0.5, 0.0)

    def test_k2_exceeds_one(self, grs80):
        rng = random.Random(2)
        for _ in range(50):
            phi = rng.uniform(-1.4, 1.4)
            az = rng.uniform(0.05, math.pi - 0.05)
            st = clairaut_constant(grs80, phi, az)
            assert st.k2 > 1.0


class TestDirect:
    def test_zero_distance(self, clarke_fr):
        p = GeodeticCoord(0.3, 0.4)
        sol = geodesic_direct(clarke_fr, p, 1.0, 0.0)
        assert (sol.phi2, sol.lam2, sol.s) == (p.phi, p.lam, 0.0)
        assert sol.az2 == pytest.approx(1.0)

    def test_worked_line_clairaut_conservation(self, clarke_fr):
        p1 = GeodeticCoord(LINE_PHI1, LINE_LAM1)
        st = clairaut_constant(clarke_fr, LINE_PHI1, LINE_AZ1)
        for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
            sol = geodesic_direct(clarke_fr, p1, LINE_AZ1, LINE_S * frac)
            r = prime_vertical_radius(clarke_fr, sol.phi2) * math.cos(sol.phi2)
            assert r * math.sin(sol.az2) == pytest.approx(st.C, abs=1e-6)

    def test_sphere_limit_vs_great_circle(self):
        # near the equator the truncated series converges fast; compare with
        # the closed-form great circle on an almost-spherical ellipsoid
        sph = Ellipsoid("near-sphere", 6378000.0, 5e-13)
        phi1, lam1, az, s = math.radians(2.0), 0.3, math.radians(50.0), 30000.0
        sol = geodesic_direct(sph, GeodeticCoord(phi1, lam1), az, s)
        delta = s / sph.a
        phi2 = math.asin(
            math.sin(phi1) * math.cos(delta)
            + math.cos(phi1) * math.sin(delta) * math.cos(az)
        )
        dlam = math.atan2(
            math.sin(az) * math.sin(delta) * math.cos(phi1),
            math.cos(delta) - math.sin(phi1) * math.sin(phi2),
        )
        assert sol.phi2 == pytest.approx(phi2, abs=1e-9)
        assert sol.lam2 == pytest.approx(lam1 + dlam, abs=1e-9)

    def test_matches_ode_integration_near_equator(self, grs80):
        # absolute check of the series against an independent RK4 geodesic
        p1 = GeodeticCoord(math.radians(3.0), 0.2)
        az, s = math.radians(40.0), 20000.0
        sol = geodesic_direct(grs80, p1, az, s)
        ref = integrate_geodesic(grs80, p1.phi, p1.lam, az, s)
        assert sol.phi2 == pytest.approx(ref[0], abs=1e-9)
        assert sol.lam2 == pytest.approx(ref[1], abs=1e-9)
        assert sol.az2 == pytest.approx(ref[2], abs=1e-9)

    def test_vertex_exceeded(self, grs80):
        from geodkit.geodesics import VertexExceeded

        p1 = GeodeticCoord(1.0, 0.0)  # 57 deg north, azimuth 80 deg: vertex close
        with pytest.raises(VertexExceeded):
            geodesic_direct(grs80, p1, math.radians(80.0), 2.0e6)

    def test_start_at_vertex_rejected(self, grs80):
        from geodkit.geodesics import VertexExceeded

        # a due-east line from a non-equatorial point starts at its vertex
        with pytest.raises(VertexExceeded):
            geodesic_direct(grs80, GeodeticCoord(0.7, 0.0), math.pi / 2, 5000.0)

    @pytest.mark.parametrize("phi_gr", [-99.0, -40.0, 0.0, 40.0, 99.0])
    @pytest.mark.parametrize("az_gr", [0.0, 200.0])
    def test_meridian_line_round_trip(self, clarke_fr, phi_gr, az_gr):
        # a line along a meridian, 200 gr rounding to just above pi, is solved
        # in closed form; geodesic_inverse's dlam = 0 closed form gives s back
        p1 = GeodeticCoord(phi_gr * GR, 10.0 * GR)
        sol = geodesic_direct(clarke_fr, p1, az_gr * GR, 1000.0)
        az = az_gr * GR % (2 * math.pi)
        assert (sol.lam2, sol.az1, sol.az2) == (p1.lam, az, az)
        assert (sol.phi2 > p1.phi) == (az_gr == 0.0)
        back = geodesic_inverse(clarke_fr, p1, GeodeticCoord(sol.phi2, sol.lam2))
        assert back.s == pytest.approx(1000.0, abs=1e-6)
        assert meridian_arc(clarke_fr, sol.phi2) - meridian_arc(clarke_fr, p1.phi) == \
            pytest.approx(1000.0 if az_gr == 0.0 else -1000.0, abs=1e-6)

    @pytest.mark.parametrize("phi_gr,az_gr", [(99.99, 0.0), (-99.99, 200.0)])
    def test_meridian_line_over_a_pole_rejected(self, clarke_fr, phi_gr, az_gr):
        from geodkit.geodesics import VertexExceeded

        # 0.01 gr of latitude is about 1000 m of meridian next to a pole
        p1 = GeodeticCoord(phi_gr * GR, 0.0)
        assert geodesic_direct(clarke_fr, p1, az_gr * GR, 900.0).phi2 == pytest.approx(
            math.copysign(math.pi / 2, phi_gr), abs=2e-5)
        with pytest.raises(VertexExceeded):
            geodesic_direct(clarke_fr, p1, az_gr * GR, 1100.0)


class TestInverse:
    def test_round_trip_200_short_lines(self, clarke_fr):
        rng = random.Random(17)
        checked = 0
        while checked < 200:
            phi = rng.uniform(-0.9, 0.9)
            lam = rng.uniform(-3.0, 3.0)
            # keep clear of meridian and parallel tangency directions
            az = rng.choice(
                [rng.uniform(0.1, 1.35), rng.uniform(1.8, 3.0),
                 rng.uniform(3.3, 4.5), rng.uniform(5.0, 6.1)]
            )
            s = rng.uniform(100.0, 100000.0)
            p1 = GeodeticCoord(phi, lam)
            sol = geodesic_direct(clarke_fr, p1, az, s)
            inv = geodesic_inverse(clarke_fr, p1, GeodeticCoord(sol.phi2, sol.lam2))
            assert abs(inv.s - s) < 1e-4
            assert abs(inv.az1 - az % (2 * math.pi)) < 1e-9
            assert abs(inv.az2 - sol.az2) < 1e-9
            checked += 1

    def test_worked_line(self, clarke_fr):
        p1 = GeodeticCoord(LINE_PHI1, LINE_LAM1)
        fwd = geodesic_direct(clarke_fr, p1, LINE_AZ1, LINE_S)
        inv = geodesic_inverse(clarke_fr, p1, GeodeticCoord(fwd.phi2, fwd.lam2))
        assert inv.s == pytest.approx(LINE_S, abs=1e-3)
        assert inv.az1 / GR == pytest.approx(LINE_AZ1 / GR, abs=1e-6)

    def test_meridian_line(self, clarke_fr):
        p1 = GeodeticCoord(0.3, 1.0)
        p2 = GeodeticCoord(0.5, 1.0)
        sol = geodesic_inverse(clarke_fr, p1, p2)
        assert sol.az1 == 0.0
        assert sol.s == pytest.approx(
            meridian_arc(clarke_fr, 0.5) - meridian_arc(clarke_fr, 0.3), rel=1e-14
        )
        back = geodesic_inverse(clarke_fr, p2, p1)
        assert back.az1 == pytest.approx(math.pi)

    def test_equator_line(self, grs80):
        p1 = GeodeticCoord(0.0, 0.2)
        p2 = GeodeticCoord(0.0, 0.3)
        sol = geodesic_inverse(grs80, p1, p2)
        assert sol.s == pytest.approx(0.1 * grs80.a, rel=1e-14)
        assert sol.az1 == pytest.approx(math.pi / 2)

    def test_identical_points_rejected(self, grs80):
        p = GeodeticCoord(0.2, 0.3)
        with pytest.raises(ValueError):
            geodesic_inverse(grs80, p, p)

    def test_antipodal_rejected(self, grs80):
        with pytest.raises(AntipodalUnsupported):
            geodesic_inverse(grs80, GeodeticCoord(0.1, 0.0), GeodeticCoord(0.1, 3.14))

    def test_same_parallel_line_not_silently_wrong(self, grs80):
        # the geodesic between two same-latitude points crosses its vertex,
        # where the monotone-latitude formulation breaks; the solver must
        # refuse rather than return a bogus line
        from geodkit.core import NonConvergence

        with pytest.raises(NonConvergence):
            geodesic_inverse(grs80, GeodeticCoord(0.7, 0.0), GeodeticCoord(0.7, 0.02))


class TestCircuitProperty:
    def test_equatorial_crossing_longitude_advance(self, grs80):
        # over a full circuit the longitude advances by
        # 2 pi - e^2 pi sin(aze) + O(e^4); checked by quadrature of the
        # exact longitude integrand (substituting k t = sin tau removes the
        # vertex singularity)
        e2 = grs80.e2
        for aze in (math.radians(30.0), math.radians(55.0), math.radians(75.0)):
            c = grs80.a * math.sin(aze)
            k2 = (grs80.a**2 - c * c * e2) / (grs80.a**2 - c * c)
            k = math.sqrt(k2)

            def integrand(tau):
                s2 = math.sin(tau) ** 2
                return 1.0 / ((1.0 - s2 / k2) * math.sqrt(1.0 - (e2 / k2) * s2))

            quarter, _ = quad(integrand, 0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
            advance = 4.0 * (1.0 - e2) * math.tan(aze) / k * quarter
            expected = 2.0 * math.pi - e2 * math.pi * math.sin(aze)
            # the residual is the genuine O(e^4) term, ~1e-5 rad for this e
            assert advance == pytest.approx(expected, abs=5e-5)
            assert abs(advance - expected) > 1e-7  # and it is not zero
