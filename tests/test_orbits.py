import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodkit.orbits import (
    GM_EARTH,
    OrbitalElements,
    eci_to_ecef,
    elements_to_eci,
    gst_hours,
    mean_motion,
    period,
    position_in_plane,
    solve_kepler,
    true_anomaly,
    vis_viva,
)


def gps_like():
    return OrbitalElements(a=26560e3, e=0.01, i=math.radians(55), raan=0.4,
                           arg_perigee=1.2)


class TestKeplerThirdLaw:
    def test_mean_motion_definition(self):
        el = gps_like()
        assert mean_motion(el) == pytest.approx(math.sqrt(el.mu / el.a**3), rel=1e-15)
        assert period(el) == pytest.approx(2 * math.pi / mean_motion(el), rel=1e-15)

    def test_gps_period_near_half_sidereal_day(self):
        t = period(gps_like())
        assert t / 3600.0 == pytest.approx(11.9666, abs=2e-3)  # ~11 h 58 min

    def test_doubling_a_scales_period(self):
        el = gps_like()
        el2 = OrbitalElements(a=2 * el.a, e=el.e, i=el.i, raan=el.raan,
                              arg_perigee=el.arg_perigee)
        assert period(el2) / period(el) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_low_orbit_period(self):
        # 800/1100 km altitude band over a 6371 km sphere
        a = (6371.0 + 950.0) * 1e3
        el = OrbitalElements(a=a, e=150.0 / 7321.0, i=0.9, raan=0.0, arg_perigee=0.0)
        assert period(el) == pytest.approx(
            2 * math.pi * math.sqrt(a**3 / GM_EARTH), rel=1e-12
        )
        assert period(el) / 60.0 == pytest.approx(103.9, abs=0.1)

    def test_element_validation(self):
        with pytest.raises(ValueError):
            OrbitalElements(a=-1.0, e=0.1, i=0.0, raan=0.0, arg_perigee=0.0)
        with pytest.raises(ValueError):
            OrbitalElements(a=7e6, e=1.1, i=0.0, raan=0.0, arg_perigee=0.0)
        for mu in (-1.0, 0.0):
            with pytest.raises(ValueError, match="mu must be > 0"):
                OrbitalElements(a=7e6, e=0.1, i=0.0, raan=0.0, arg_perigee=0.0, mu=mu)

    @pytest.mark.parametrize("a, mu", [(1e-300, GM_EARTH), (1e200, GM_EARTH),
                                       (1e-100, GM_EARTH), (1e100, 1e-300)])
    def test_a_semi_major_axis_needs_a_finite_mean_motion(self, a, mu):
        # a**3 underflows to 0 or overflows, or mu / a**3 overflows or
        # underflows to 0: n would raise, give a NaN anomaly or stand still
        with pytest.raises(ValueError) as excinfo:
            OrbitalElements(a=a, e=0.1, i=0.0, raan=0.0, arg_perigee=0.0, mu=mu)
        assert str(excinfo.value) == (
            f"semi-major axis {a!r} m gives no finite mean motion sqrt(mu / a^3) > 0")

    @pytest.mark.parametrize("a", [1e-95, 5e102])
    def test_extreme_semi_major_axes_with_a_mean_motion_are_kept(self, a):
        el = OrbitalElements(a=a, e=0.1, i=0.0, raan=0.0, arg_perigee=0.0)
        assert 0.0 < mean_motion(el) == math.sqrt(el.mu / a**3) < math.inf


class TestKeplerEquation:
    def test_trivials(self):
        assert solve_kepler(1.234, 0.0) == 1.234
        assert solve_kepler(0.0, 0.5) == 0.0

    def test_against_bisection_oracle(self):
        e, m = 0.1, 1.0
        big_e = solve_kepler(m, e)
        lo, hi = 0.0, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid - e * math.sin(mid) < m:
                lo = mid
            else:
                hi = mid
        assert big_e == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_residual_grid(self):
        for e in np.linspace(0.0, 0.97, 20):
            for m in np.linspace(0.0, 2 * math.pi, 25):
                big_e = solve_kepler(float(m), float(e))
                assert abs(big_e - e * math.sin(big_e) - m) < 1e-13

    @given(m=st.floats(0, 2 * math.pi), e=st.floats(0, 0.97))
    @example(m=4.051859869282249, e=0.6618373571395558)  # its stopping residual read 9.99e-14
    @settings(max_examples=150)
    def test_residual_property(self, m, e):
        big_e = solve_kepler(m, e)
        assert abs(big_e - e * math.sin(big_e) - m) < 1e-13

    def test_monotone_and_periodic(self):
        e = 0.6
        values = [solve_kepler(m, e) for m in np.linspace(0.0, 2 * math.pi, 50)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert solve_kepler(1.0 + 2 * math.pi, e) == pytest.approx(
            solve_kepler(1.0, e) + 2 * math.pi, abs=1e-12
        )


class TestAnomalies:
    def test_trivials(self):
        assert true_anomaly(0.0, 0.3) == 0.0
        assert true_anomaly(math.pi, 0.3) == pytest.approx(math.pi)

    def test_half_angle_oracle(self):
        for e in (0.05, 0.3, 0.7):
            for big_e in (0.3, 1.0, 2.2, 4.0, 5.9):
                nu = true_anomaly(big_e, e)
                lhs = math.tan(nu / 2.0)
                rhs = math.sqrt((1 + e) / (1 - e)) * math.tan(big_e / 2.0)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_quadrant_agreement(self):
        e = 0.4
        for big_e in np.linspace(0.05, math.pi - 0.05, 17):
            nu = true_anomaly(float(big_e), e)
            assert 0.0 < nu < math.pi
            assert (math.sin(nu) > 0) == (math.sin(big_e) > 0)


class TestPlanePosition:
    def test_perigee_apogee(self):
        el = OrbitalElements(a=1e7, e=0.2, i=0.0, raan=0.0, arg_perigee=0.0)
        xi, eta, r = position_in_plane(el, 0.0)
        assert (xi, eta) == (pytest.approx(el.a * (1 - el.e)), pytest.approx(0.0, abs=1e-6))
        assert r == pytest.approx(el.a * (1 - el.e))
        xi, eta, r = position_in_plane(el, period(el) / 2.0)
        assert xi == pytest.approx(-el.a * (1 + el.e))
        assert r == pytest.approx(el.a * (1 + el.e))

    def test_radius_identity(self):
        el = gps_like()
        rng = np.random.default_rng(2)
        for t in rng.uniform(0, period(el), 100):
            xi, eta, r = position_in_plane(el, float(t))
            assert math.hypot(xi, eta) == pytest.approx(r, rel=1e-9)


class TestFrames:
    def test_zero_angles_keep_plane_coordinates(self):
        el = OrbitalElements(a=1e7, e=0.1, i=0.0, raan=0.0, arg_perigee=0.0)
        t = 1234.5
        xi, eta, _ = position_in_plane(el, t)
        x = elements_to_eci(el, t)
        np.testing.assert_allclose(x, [xi, eta, 0.0], atol=1e-6)

    def test_polar_orbit_stays_in_xz_plane(self):
        el = OrbitalElements(a=1e7, e=0.05, i=math.pi / 2, raan=0.0, arg_perigee=0.0)
        for t in (0.0, 500.0, 2000.0, 4000.0):
            x = elements_to_eci(el, t)
            assert abs(x[1]) < 1e-6

    def test_rotation_preserves_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            el = OrbitalElements(
                a=float(rng.uniform(7e6, 4e7)),
                e=float(rng.uniform(0, 0.5)),
                i=float(rng.uniform(0, math.pi)),
                raan=float(rng.uniform(0, 2 * math.pi)),
                arg_perigee=float(rng.uniform(0, 2 * math.pi)),
            )
            t = float(rng.uniform(0, period(el)))
            _, _, r = position_in_plane(el, t)
            assert np.linalg.norm(elements_to_eci(el, t)) == pytest.approx(r, rel=1e-12)

    def test_eci_to_ecef_rotation(self):
        assert eci_to_ecef([1.0, 0.0, 0.0], 0.0).as_array() == pytest.approx([1, 0, 0])
        out = eci_to_ecef([1.0, 0.0, 0.0], math.pi / 2)
        np.testing.assert_allclose(out.as_array(), [0.0, -1.0, 0.0], atol=1e-15)
        back = eci_to_ecef(out.as_array(), -math.pi / 2)
        np.testing.assert_allclose(back.as_array(), [1.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_eci_to_ecef_takes_any_3_sequence(self, make):
        x = elements_to_eci(gps_like(), 3600.0)
        assert type(x) is tuple and [type(v) for v in x] == [float] * 3
        out = eci_to_ecef(make(x), 0.75)
        assert [type(v) for v in (out.x, out.y, out.z)] == [float] * 3
        assert out == eci_to_ecef(x, 0.75)
        # a 3x3 matrix product sums in another order: the last bit may differ
        c, s = math.cos(0.75), math.sin(0.75)
        rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(out.as_array(), rot @ np.array(x), rtol=0,
                                   atol=4 * np.finfo(float).eps * np.linalg.norm(x))

    def test_gst_rate(self):
        assert gst_hours(0.0, 6.5) == 6.5
        assert gst_hours(10.0, 6.5) == pytest.approx((6.5 + 10.02737909) % 24, abs=1e-12)

    @pytest.mark.parametrize("ut,hsg0", [(0.0, -1e-17), (-1e-15, 0.0), (0.0, 24.0)])
    def test_gst_in_0_24(self, ut, hsg0):
        # a bare % 24 rounds a tiny negative sum, as at (0, -1e-17), up to 24.0
        assert 0.0 <= gst_hours(ut, hsg0) < 24.0

    def test_earth_rates_come_from_core(self):
        from geodkit import core, heights, sphere

        assert (heights.OMEGA, core.OMEGA_GRS80, core.OMEGA_GPS) == (
            7292115e-11, 7292115e-11, 7.2921151467e-5)
        assert sphere.SIDEREAL_RATIO == core.SIDEREAL_RATIO == 366.2422 / 365.2422
        assert core.SIDEREAL_RATIO_GST == 1.002737909


class TestVisViva:
    def test_circular_orbit(self):
        el = OrbitalElements(a=7e6, e=0.0, i=0.0, raan=0.0, arg_perigee=0.0)
        assert vis_viva(el, 7e6) == pytest.approx(math.sqrt(el.mu / el.a), rel=1e-12)

    def test_apside_speed_ratio(self):
        el = OrbitalElements(a=1.2e7, e=0.3, i=0.0, raan=0.0, arg_perigee=0.0)
        vp = vis_viva(el, el.a * (1 - el.e))
        va = vis_viva(el, el.a * (1 + el.e))
        assert va / vp == pytest.approx((1 - el.e) / (1 + el.e), rel=1e-12)

    def test_low_orbit_band(self):
        # perigee 200 km, apogee 500 km over a 6371 km sphere
        a = (6371.0 + 200.0 + 6371.0 + 500.0) / 2.0 * 1e3
        e = (6371e3 + 500e3 - a) / a
        el = OrbitalElements(a=a, e=e, i=0.0, raan=0.0, arg_perigee=0.0)
        vp = vis_viva(el, a * (1 - e))
        va = vis_viva(el, a * (1 + e))
        assert vp == pytest.approx(7874.9, abs=0.5)
        assert va == pytest.approx(7531.1, abs=0.5)
        with pytest.raises(ValueError):
            vis_viva(el, a * (1 + e) + 1e5)


class TestConservationLaws:
    def test_areal_velocity_constant(self):
        el = gps_like()
        n = mean_motion(el)
        h = 0.5  # seconds

        def nu_at(t):
            m = n * (t - el.t0)
            return true_anomaly(solve_kepler(m, el.e), el.e)

        rng = np.random.default_rng(11)
        samples = []
        for t in rng.uniform(0.05 * period(el), 0.95 * period(el), 25):
            _, _, r = position_in_plane(el, float(t))
            dnu = (nu_at(t + h) - nu_at(t - h)) / (2 * h)
            samples.append(r * r * dnu)
        samples = np.array(samples)
        assert np.ptp(samples) / samples.mean() < 1e-9

    def test_energy_constant(self):
        el = gps_like()
        rng = np.random.default_rng(12)
        energies = []
        for t in rng.uniform(0, period(el), 25):
            _, _, r = position_in_plane(el, float(t))
            v = vis_viva(el, r)
            energies.append(0.5 * v * v - el.mu / r)
        energies = np.array(energies)
        assert np.ptp(energies) / abs(energies.mean()) < 1e-9
        assert energies.mean() == pytest.approx(-el.mu / (2 * el.a), rel=1e-9)
