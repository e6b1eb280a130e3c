import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from geodkit.core import (
    ANGLE_UNITS,
    Angle,
    Ellipsoid,
    GRAD,
    REGISTRY,
    format_hours,
    get_ellipsoid,
    isometric_latitude,
    iterate,
    latitude_from_isometric,
    meridian_arc,
    meridian_arc_coefficients,
    meridian_radius,
    npmath,
    parametric_latitude,
    prime_vertical_radius,
    quarter_meridian,
    registry_from_json,
    registry_to_json,
)

GR = math.pi / 200.0


class TestAngle:
    def test_exact_constants(self):
        assert Angle.from_gr(200.0).rad == pytest.approx(math.pi, rel=1e-15)
        assert Angle.from_gr(1.0).rad == GRAD
        assert Angle.from_dmgr(1e4).rad == pytest.approx(GRAD, rel=1e-16)
        assert Angle.from_hours(24.0).rad == pytest.approx(2 * math.pi, rel=1e-15)
        assert Angle.from_hours(1.0).deg == pytest.approx(15.0, rel=1e-15)

    @given(st.floats(-1e4, 1e4))
    def test_grad_round_trip(self, gr):
        back = Angle.from_gr(gr).gr
        assert back == pytest.approx(gr, rel=1e-15, abs=1e-18)

    @given(st.floats(-1e4, 1e4))
    def test_dmgr_round_trip(self, v):
        assert Angle.from_dmgr(v).dmgr == pytest.approx(v, rel=1e-15, abs=1e-18)

    @pytest.mark.parametrize(
        "text,gr",
        [
            ("40.0gr", 40.0),
            ("12.5dmgr", 12.5e-4),
            ("100gr", 100.0),
        ],
    )
    def test_parse_gr(self, text, gr):
        assert Angle.parse(text).gr == pytest.approx(gr, rel=1e-12)

    def test_parse_sexagesimal(self):
        assert Angle.parse("36°54'").deg == pytest.approx(36.9, rel=1e-12)
        assert Angle.parse("12°34'56.7\"").deg == pytest.approx(
            12 + 34 / 60 + 56.7 / 3600, rel=1e-12
        )
        assert Angle.parse("-0°30'").deg == pytest.approx(-0.5, rel=1e-12)

    def test_parse_hours(self):
        a = Angle.parse("2h13m52.9s")
        assert a.hours == pytest.approx(2 + 13 / 60 + 52.9 / 3600, rel=1e-12)
        assert Angle.parse("-0h20m57s").hours == pytest.approx(-(20 / 60 + 57 / 3600))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Angle.parse("12 parsecs")

    @pytest.mark.parametrize("text", ["1e400", "10d75'", "1h99m", "1h2m60s", "10°30'60\""])
    def test_parse_rejects_out_of_range(self, text):
        with pytest.raises(ValueError):
            Angle.parse(text)

    def test_unit_table_matches_historic_factors(self):
        # bitwise equal to the factors written out before the table existed,
        # so CLI output does not change
        assert ANGLE_UNITS == {"gr": math.pi / 200.0, "deg": math.pi / 180.0, "rad": 1.0,
                               "dmgr": GRAD * 1e-4, "arcsec": math.pi / 648000.0}
        assert Angle.parse("3arcsec").rad == 3 * (math.pi / 648000.0)

    def test_format_hours(self):
        assert format_hours(4 + 23 / 60 + 26.82 / 3600) == "4h23m26.82s"
        assert format_hours(12.0) == "12h00m00.00s"

    def test_format_sexagesimal(self):
        assert Angle.from_deg(36.9).format_sexagesimal() == "36°54'00.00\""

    def test_rounded_seconds_carry_into_minutes_and_units(self):
        assert format_hours(1.9999999999) == "2h00m00.00s"
        assert Angle.from_deg(59.99999999999).format_sexagesimal() == "60°00'00.00\""


class TestEllipsoid:
    # printed reference table: name -> (a, b, 1/f, e2)
    TABLE = {
        "clarke-1880-fr": (6378249.200, 6356515.000, 293.46602, 0.0068034877),
        "clarke-1880-en": (6378249.145, 6356514.8696, 293.46500, 0.00680351128),
        "hayford": (6378388.000, 6356911.940, 297.00000, 0.0067226700),
        "krassovsky": (6378245.000, 6356863.0188, 298.30000, 0.00669342162),
        "grs67": (6378160.000, 6356774.516, 298.24717, 0.0066946053),
        "nwl8": (6378145.000, 6356759.770, 298.25000, 0.0066945419),
        "wgs72": (6378135.000, 6356750.520, 298.26000, 0.0066943178),
        "iag75": (6378140.000, 6356755.288, 298.25700, 0.0066943850),
        "apl": (6378144.000, 6356757.339, 298.23000, 0.0066949901),
        "grs80": (6378137.000, 6356752.3141, 298.257222101, 0.0066943800229),
        "wgs84": (6378137.000, 6356752.3142, 298.257223563, 0.0066943799),
    }

    @pytest.mark.parametrize("key", sorted(TABLE))
    def test_registry_matches_reference_table(self, key):
        a, b, inv_f, e2 = self.TABLE[key]
        ell = get_ellipsoid(key)
        assert ell.a == a
        # the reference table's printed b for Hayford is 6.1 mm off its own
        # (a, 1/f) definition; every other row closes within a millimetre
        assert ell.b == pytest.approx(b, abs=7e-3 if key == "hayford" else 1e-3)
        assert ell.e2 == pytest.approx(e2, abs=1e-9)

    # f of each entry to the last bit: the constructor a row is defined by
    # (a and b, a and 1/f, or a and e2) rounds f its own way
    F_HEX = {
        "clarke-1880-fr": "0x1.bea2637ef59f6p-9",
        "clarke-1880-en": "0x1.bea2c95c7b0d4p-9",
        "hayford": "0x1.b951e2b18ff23p-9",
        "krassovsky": "0x1.b765864ec84d9p-9",
        "grs67": "0x1.b779734374700p-9",
        "nwl8": "0x1.b77861d9cdc98p-9",
        "wgs72": "0x1.b7749c3673876p-9",
        "iag75": "0x1.b775bde5b76ddp-9",
        "apl": "0x1.b77fed523e3bdp-9",
        "grs80": "0x1.b775a87362105p-9",
        "wgs84": "0x1.b775a84f3e128p-9",
    }

    def test_registry_flattenings_are_pinned(self):
        assert list(REGISTRY) == list(self.F_HEX)
        assert {key: ell.f.hex() for key, ell in REGISTRY.items()} == self.F_HEX

    @pytest.mark.parametrize("key", sorted(TABLE))
    def test_derived_identities(self, key):
        ell = get_ellipsoid(key)
        assert ell.e2 == pytest.approx((ell.a**2 - ell.b**2) / ell.a**2, rel=1e-14)
        assert ell.ep2 == pytest.approx((ell.a**2 - ell.b**2) / ell.b**2, rel=1e-14)
        assert 0.0 < ell.e2 < 1.0

    @pytest.mark.parametrize("key", sorted(TABLE) + ["sphere"])
    def test_cached_fields_equal_the_formulas(self, key):
        # the fields are computed once, with the expressions the properties used
        ell = Ellipsoid.sphere() if key == "sphere" else get_ellipsoid(key)
        e2 = ell.f * (2.0 - ell.f)
        assert ell.e2 == e2
        assert ell.e == math.sqrt(e2)
        assert ell.ep2 == e2 / (1.0 - e2)
        assert ell.b == ell.a * (1.0 - ell.f)
        assert ell.inv_f == (1.0 / ell.f if ell.f else math.inf)
        assert ell.arc_coeffs == meridian_arc_coefficients(ell)

    def test_equality_hash_and_repr_use_name_a_f(self):
        ell = get_ellipsoid("grs80")
        twin = Ellipsoid(ell.name, ell.a, ell.f)
        assert twin == ell and hash(twin) == hash(ell)
        assert hash(ell) == hash((ell.name, ell.a, ell.f))
        assert repr(ell) == f"Ellipsoid(name={ell.name!r}, a={ell.a!r}, f={ell.f!r})"
        assert Ellipsoid(ell.name, ell.a, ell.f * (1 + 1e-12)) != ell
        assert {ell: 1}[twin] == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Ellipsoid("bad", -1.0, 0.003)
        with pytest.raises(ValueError):
            Ellipsoid("bad", 6.4e6, 1.5)

    def test_aliases_and_unknown(self):
        assert get_ellipsoid("international-1924") is get_ellipsoid("hayford")
        with pytest.raises(KeyError):
            get_ellipsoid("mystery-spheroid")

    def test_json_round_trip(self):
        doc = registry_to_json()
        reg = registry_from_json(doc)
        assert set(reg) == set(REGISTRY)
        for key, ell in reg.items():
            assert ell.a == REGISTRY[key].a
            assert ell.f == pytest.approx(REGISTRY[key].f, rel=1e-12)


class TestRadii:
    def test_prime_vertical_trivials(self, clarke_fr):
        assert prime_vertical_radius(clarke_fr, 0.0) == clarke_fr.a
        pole = prime_vertical_radius(clarke_fr, math.pi / 2)
        assert pole == pytest.approx(clarke_fr.a / math.sqrt(1 - clarke_fr.e2), rel=1e-15)

    def test_prime_vertical_at_40gr(self, clarke_fr):
        # frozen from a 50-digit evaluation of a/sqrt(1 - e2 sin^2(40gr))
        assert prime_vertical_radius(clarke_fr, 40 * GR) == pytest.approx(
            6385758.62885366, abs=1e-6
        )

    def test_meridian_radius_trivials(self, clarke_fr):
        assert meridian_radius(clarke_fr, 0.0) == pytest.approx(
            clarke_fr.a * (1 - clarke_fr.e2), rel=1e-15
        )
        assert meridian_radius(clarke_fr, math.pi / 2) == pytest.approx(
            prime_vertical_radius(clarke_fr, math.pi / 2), rel=1e-14
        )

    def test_parallel_radius_derivative(self, grs80):
        # d(N cos phi)/dphi = -rho sin phi, by central differences
        h = 1e-6
        for phi in [0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, -0.4, -0.8, -1.2]:
            r = lambda p: prime_vertical_radius(grs80, p) * math.cos(p)
            fd = (r(phi + h) - r(phi - h)) / (2 * h)
            assert fd == pytest.approx(
                -meridian_radius(grs80, phi) * math.sin(phi), rel=1e-7
            )

    def test_n_dominates_rho(self, grs80):
        for phi in [i * 0.05 for i in range(-31, 32)]:
            assert prime_vertical_radius(grs80, phi) >= meridian_radius(grs80, phi)


class TestLatitudes:
    def test_parametric_trivials(self, grs80):
        assert parametric_latitude(grs80, 0.0) == 0.0
        sphere = Ellipsoid.sphere()
        for phi in (0.2, -0.7, 1.1):
            assert parametric_latitude(sphere, phi) == pytest.approx(phi, rel=1e-15)

    def test_parametric_grs80_45deg(self, grs80):
        expected = math.atan((grs80.b / grs80.a) * math.tan(math.radians(45.0)))
        assert parametric_latitude(grs80, math.radians(45.0)) == pytest.approx(
            expected, rel=1e-15
        )

    def test_isometric_trivials(self, clarke_fr):
        assert isometric_latitude(clarke_fr, 0.0) == pytest.approx(0.0, abs=1e-15)
        sphere = Ellipsoid.sphere()
        phi = 0.6
        assert isometric_latitude(sphere, phi) == pytest.approx(
            math.log(math.tan(math.pi / 4 + phi / 2)), rel=1e-15
        )

    def test_isometric_by_quadrature(self, clarke_fr):
        # dL = rho dphi/(N cos phi) integrated from 0
        phi = 40 * GR
        val, _ = quad(
            lambda p: meridian_radius(clarke_fr, p)
            / (prime_vertical_radius(clarke_fr, p) * math.cos(p)),
            0.0,
            phi,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        assert isometric_latitude(clarke_fr, phi) == pytest.approx(val, rel=1e-12)

    def test_isometric_domain(self, clarke_fr):
        with pytest.raises(ValueError):
            isometric_latitude(clarke_fr, math.pi / 2)

    def test_inverse_trivials(self, clarke_fr):
        assert latitude_from_isometric(clarke_fr, 0.0) == 0.0
        sphere = Ellipsoid.sphere()
        assert latitude_from_isometric(sphere, 1.0) == pytest.approx(
            2 * math.atan(math.e) - math.pi / 2, rel=1e-13
        )

    def test_round_trip_100_latitudes(self, clarke_fr):
        for i in range(100):
            phi = -89.0 * GR + i * (178.0 * GR / 99)
            back = latitude_from_isometric(clarke_fr, isometric_latitude(clarke_fr, phi))
            assert abs(back - phi) < 1e-12

    def test_converges_over_full_domain(self, clarke_fr):
        # |L| up to 10 (latitudes within ~5e-9 rad of the pole) must converge
        for iso in (-10.0, -6.0, -2.5, 2.5, 6.0, 10.0):
            phi = latitude_from_isometric(clarke_fr, iso)
            assert abs(isometric_latitude(clarke_fr, phi) - iso) < 1e-9

    @given(p1=st.floats(-1.4, 1.4), p2=st.floats(-1.4, 1.4))
    @settings(max_examples=60)
    def test_isometric_strictly_increasing_odd(self, p1, p2, grs80):
        l1 = isometric_latitude(grs80, p1)
        assert isometric_latitude(grs80, -p1) == pytest.approx(-l1, rel=1e-12, abs=1e-15)
        if p2 - p1 > 1e-9:  # below float resolution the values coincide
            assert l1 < isometric_latitude(grs80, p2)


class TestMeridianArc:
    def test_zero_and_odd(self, grs80):
        assert meridian_arc(grs80, 0.0) == 0.0
        for phi in (0.2, 0.8, 1.4):
            assert meridian_arc(grs80, -phi) == pytest.approx(
                -meridian_arc(grs80, phi), rel=1e-15
            )

    def test_quarter_meridian_vs_quadrature(self, grs80):
        ref, _ = quad(
            lambda p: meridian_radius(grs80, p), 0.0, math.pi / 2,
            epsabs=1e-8, epsrel=1e-13,
        )
        assert abs(quarter_meridian(grs80) - ref) < 1e-6

    def test_truncated_two_term_form(self, clarke_fr):
        # two-term series used in older computations stays within 15 m of
        # the full expansion at phi = 40.9193 gr
        phi = 40.9193 * GR
        g = clarke_fr.a * (1 - clarke_fr.e2) * (
            1.0051353 * phi - 0.0025731 * math.sin(2 * phi)
        )
        assert abs(g - meridian_arc(clarke_fr, phi)) < 15.0

    def test_strictly_increasing(self, clarke_fr):
        values = [meridian_arc(clarke_fr, -math.pi / 2 + i * math.pi / 40) for i in range(41)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_derivative_is_meridian_radius(self, grs80):
        import random

        rng = random.Random(11)
        h = 1e-6
        for _ in range(20):
            phi = rng.uniform(-1.5, 1.5)
            fd = (meridian_arc(grs80, phi + h) - meridian_arc(grs80, phi - h)) / (2 * h)
            assert fd == pytest.approx(meridian_radius(grs80, phi), rel=1e-4)


def reference_meridian_arc(ell, phi):
    """meridian_arc as a loop over its seven terms, the form its one-expression
    sum replaced: the same terms added in the same order."""
    xp = npmath if type(phi) is np.ndarray else math
    c = ell.arc_coeffs
    s = c[0] * phi
    for i, ck in enumerate(c[1:], start=1):
        s += ck * xp.sin(2 * i * phi)
    return ell.a * (1.0 - ell.e2) * s


def reference_prime_vertical_radius(ell, phi):
    """prime_vertical_radius with the formula in its own body, as it was
    before the body moved to the private helper that takes xp."""
    xp = npmath if type(phi) is np.ndarray else math
    s = xp.sin(phi)
    return ell.a / xp.sqrt(1.0 - ell.e2 * s * s)


@pytest.mark.parametrize("key", sorted(REGISTRY))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=16))
def test_arc_and_normal_radius_keep_the_bits_of_their_references(key, latitudes):
    ell, column = REGISTRY[key], np.array(latitudes)
    for fn, ref in ((meridian_arc, reference_meridian_arc),
                    (prime_vertical_radius, reference_prime_vertical_radius)):
        assert [fn(ell, phi).hex() for phi in latitudes] == [
            ref(ell, phi).hex() for phi in latitudes]
        assert fn(ell, column).tobytes() == ref(ell, column).tobytes()


class TestIterate:
    """core.iterate on a toy loop: halve x until it drops below 1, counting
    the passes; row i carries the constant id i."""

    @staticmethod
    def run(x, active, max_iter, passed=None):
        x = np.array(x, dtype=float)
        ids = np.arange(x.size)

        def step(x, count, ids):
            if passed is not None:
                passed.append(ids.tolist())
            half = x / 2.0
            return half, count + 1, half < 1.0

        count = np.zeros(x.size, dtype=int)
        return iterate(step, (x, count), (ids,), np.asarray(active), max_iter)

    def test_stopped_rows_are_not_passed_again_and_keep_their_last_state(self):
        passed = []
        x, count, running = self.run([1.5, 3.0, 12.0, 7.0], [True] * 4, 10, passed)
        assert passed == [[0, 1, 2, 3], [1, 2, 3], [2, 3], [2]]
        assert x.tolist() == [0.75, 0.75, 0.75, 0.875]
        assert count.tolist() == [1, 2, 4, 3]
        assert not running.any()

    def test_constants_reach_step_row_aligned_with_the_state(self):
        def step(x, tenfold, ids):
            assert (tenfold == 10.0 * ids).all() and (x == ids + 0.5).all()
            return x, ids % 2 == 0

        ids = np.arange(7)
        active = np.array([True, False, True, True, False, True, True])
        x, running = iterate(step, (ids + 0.5,), (10.0 * ids, ids), active, 5)
        assert running.tolist() == [False, False, False, True, False, True, False]
        assert x.tolist() == (ids + 0.5).tolist()

    def test_rows_still_running_after_max_iter_are_returned(self):
        passed = []
        x, count, running = self.run([1.5, 100.0, 2.5, 9.0], [True, True, False, True], 3, passed)
        assert len(passed) == 3
        assert running.tolist() == [False, True, False, True]
        # the inactive row keeps its input, the running rows their third pass
        assert x.tolist() == [0.75, 12.5, 2.5, 1.125]
        assert count.tolist() == [1, 3, 0, 3]

    def test_no_active_row_makes_no_pass(self):
        def step(*columns):
            raise AssertionError("step called with no active row")

        x = np.array([1.0, 2.0])
        out, running = iterate(step, (x,), (x,), np.zeros(2, dtype=bool), 50)
        assert out.tolist() == [1.0, 2.0] and not running.any()
        out, running = iterate(step, (x,), (x,), np.ones(2, dtype=bool), 0)
        assert out.tolist() == [1.0, 2.0] and running.all()

    def test_inputs_are_not_modified(self):
        x, count = np.array([1.5, 40.0, 3.0]), np.zeros(3, dtype=int)
        ids, active = np.arange(3), np.array([True, True, False])

        def step(x, count, ids):
            return x / 2.0, count + 1, x < 4.0

        out = iterate(step, (x, count), (ids,), active, 2)
        assert x.tolist() == [1.5, 40.0, 3.0] and count.tolist() == [0, 0, 0]
        assert ids.tolist() == [0, 1, 2] and active.tolist() == [True, True, False]
        assert out[0] is not x and out[1] is not count and out[2] is not active
