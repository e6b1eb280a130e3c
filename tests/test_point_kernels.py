"""The point kernels against the forms they replaced.

The UTM series and the truncated geodesic series evaluate their integer
powers as products (Horner form in dlam^2, (x/N)^2 and t^2, and the spans
(t2^j - t1^j)/j as t2 - t1 times sums of products), the isometric inversion
takes Newton passes on its fixed-point map, the ECEF latitude loop starts
from the latitude of the surface point, and the geodesic inverse takes
Newton steps on its Clairaut constant.  The earlier forms are kept here:
the ``**`` series and differences of powers, the fixed-point isometric
pass, the geocentric seed and the secant on C.  ``reference_forms``
patches the first three into the package, so a kernel run under it is the
kernel as it was; ``reference_secant_inverse`` is the secant.

Closed forms agree within 1e-12 relative, loops within their stopping
tolerance, and every changed kernel raises the reference's exception class
(or none) on inputs up to +-1e308, +-inf and NaN: a float power raises
OverflowError where a product gives inf, so each changed scalar kernel
raises OverflowError itself beyond the bound where the power overflowed.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodkit import coords, core, geodesics, projections
from geodkit.coords import EcefCoord, GeodeticCoord, _normalize_lon, ecef_to_geodetic
from geodkit.core import (
    EXP_MAX,
    REGISTRY,
    NonConvergence,
    get_ellipsoid,
    isometric_latitude,
    latitude_from_isometric,
    latitude_from_isometric_array,
    meridian_arc,
    npmath,
)
from geodkit.geodesics import (
    VertexExceeded,
    _arc_coeffs,
    geodesic_direct,
    geodesic_direct_array,
    geodesic_inverse,
)
from geodkit.projections import (
    PlaneCoord,
    forward_columns,
    inverse_columns,
    lambert_inverse,
    named_projection,
    utm_forward,
    utm_inverse,
)

WGS84 = get_ellipsoid("wgs84")
CLARKE = get_ellipsoid("clarke-1880-fr")
GRS80 = get_ellipsoid("grs80")
UTMS = [named_projection("utm:32", WGS84), named_projection("utm:32s", WGS84),
        named_projection("utm:32")]
LAMBERTS = [named_projection("lambert-nord-tn"), named_projection("lambert-sud-tn")]
HALF_ZONE = math.radians(3.5)
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


# -- the replaced forms -------------------------------------------------------------
def reference_utm_direct_coeffs(ell, phi):
    """projections._utm_direct_coeffs with its powers written as **."""
    xp = npmath if type(phi) is np.ndarray else math
    n = core._prime_vertical_radius(xp, ell, phi)
    c = xp.cos(phi)
    s = xp.sin(phi)
    t2 = xp.tan(phi) ** 2
    eta2 = ell.ep2 * c * c
    eta4 = eta2 * eta2
    a1 = n * c
    a2 = -0.5 * n * c * s
    a3 = -(n * c**3 / 6.0) * (1.0 + eta2 - t2)
    a4 = (n * c**3 * s / 24.0) * (5.0 - t2 + 9.0 * eta2 + 4.0 * eta4)
    a5 = (n * c**5 / 120.0) * (
        5.0 - 18.0 * t2 + t2 * t2 + 14.0 * eta2 - 58.0 * eta2 * t2 + 13.0 * eta4
    )
    a6 = -(n * c**5 * s / 720.0) * (
        61.0 - 58.0 * t2 + t2 * t2 + 270.0 * eta2 - 330.0 * t2 * eta2
        + 200.0 * eta4 - 232.0 * t2 * eta4
    )
    a7 = -(n * c**7 / 5040.0) * (
        61.0 + 131.0 * t2 + 179.0 * t2 * t2 + 331.0 * eta2 - 3298.0 * t2 * eta2
    )
    a8 = (n * c**7 * s / 40320.0) * (
        165.0 - 61.0 * t2 + 537.0 * t2 * t2 + 9679.0 * eta2 - 23278.0 * t2 * eta2
        + 9244.0 * eta4 + 358.0 * t2 * t2 * eta2 - 19788.0 * t2 * eta4
    )
    return a1, a2, a3, a4, a5, a6, a7, a8


def reference_utm_plane(d, xp, phi, dlam):
    """UtmDef._plane as a sum of powers of dlam."""
    a1, a2, a3, a4, a5, a6, a7, a8 = reference_utm_direct_coeffs(d.ell, phi)
    x = a1 * dlam - a3 * dlam**3 + a5 * dlam**5 - a7 * dlam**7
    y = (meridian_arc(d.ell, phi) - a2 * dlam**2 + a4 * dlam**4
         - a6 * dlam**6 + a8 * dlam**8)
    return d.k0 * x, d.k0 * y


def reference_utm_inverse_series(xp, d, x, phi_f):
    """projections._utm_inverse_series as a sum of powers of x."""
    n = core._prime_vertical_radius(xp, d.ell, phi_f)
    c = xp.cos(phi_f)
    t = xp.tan(phi_f)
    t2 = t * t
    eta2 = d.ell.ep2 * c * c
    b1 = 1.0 / (n * c)
    b2 = t / (2.0 * n**2 * c)
    b3 = (1.0 + 2.0 * t2 + eta2) / (6.0 * n**3 * c)
    b4 = t * (5.0 + 6.0 * t2 + eta2 - 4.0 * eta2 * eta2) / (24.0 * n**4 * c)
    b5 = (5.0 + 28.0 * t2 + 6.0 * eta2 + 24.0 * t2 * t2 + 8.0 * eta2 * t2) / (
        120.0 * n**5 * c
    )
    b6 = t * (61.0 + 180.0 * t2 + 46.0 * eta2 + 120.0 * t2 * t2 + 48.0 * eta2 * t2) / (
        720.0 * n**6 * c
    )
    b7 = (61.0 + 622.0 * t2 + 107.0 * eta2 + 1320.0 * t2 * t2
          + 1538.0 * eta2 * t2 + 46.0 * eta2 * eta2) / (5040.0 * n**7 * c)
    lam = d.lam0 + b1 * x - b3 * x**3 + b5 * x**5 - b7 * x**7
    iso = (isometric_latitude(d.ell, phi_f) - b2 * x**2 + b4 * x**4 - b6 * x**6)
    return lam, iso


def reference_arc_integrand(t, m, n):
    return 1.0 + m * t * t + n * t**4


def reference_arc_antider(t, m, n):
    return t + m * t**3 / 3.0 + n * t**5 / 5.0


def reference_spans(t1, t2):
    """geodesics._spans as differences of powers."""
    return tuple((t2**j - t1**j) / j for j in (1, 3, 5, 7))


def reference_isometric_step(xp, e, iso, phi):
    """core._isometric_step as the fixed-point pass: the latitude whose
    ln tan(pi/4 + phi/2) is iso + (e/2) ln((1+e sin phi)/(1-e sin phi))."""
    if e:
        s = xp.sin(phi)
        iso = iso + 0.5 * e * xp.log((1.0 + e * s) / (1.0 - e * s))
    return iso, 2.0 * xp.atan(xp.exp(iso)) - math.pi / 2.0


def reference_seed_run(xp, ell, r, z):
    """The geocentric seed of the ECEF latitude loop: atan2(z, r)."""
    return r


def reference_secant_inverse(ell, p1, p2):
    """(az1, s) of geodesic_inverse on a line off the meridians and the
    equator, C found by the secant it replaced: started from the seed and
    0.999 times it, polished up to three times once the longitude gap is
    within 1e-11 rad."""
    dlam = _normalize_lon(p2.lam - p1.lam)
    dphi = p2.phi - p1.phi
    lim = ell.a * (1.0 - 1e-12)
    spans = geodesics._spans(math.sin(p1.phi), math.sin(p2.phi))
    slope = dlam / dphi if dphi != 0.0 else math.inf
    if math.isinf(slope):
        c = min(geodesics._parallel_radius(math, ell, p1.phi), lim)
    else:
        c = 0.5 * (geodesics._seed_c(math, ell, p1.phi, slope)
                   + geodesics._seed_c(math, ell, p2.phi, slope))
    c = math.copysign(min(c, lim), dlam)

    def residual(c):
        return geodesics._dlam_slope(math, ell, c, spans, dphi)[0] - dlam
    c_prev = c * 0.999
    f_prev, f = residual(c_prev), residual(c)
    converged = abs(f) < 1e-11
    polish = 0
    for _ in range(100):
        if converged and (polish >= 3 or abs(f) == 0.0):
            break
        denom = f - f_prev
        if denom == 0.0:
            break
        c_next = math.copysign(min(abs(c - f * (c - c_prev) / denom), lim), dlam)
        f_next = residual(c_next)
        if converged and abs(f_next) >= abs(f):
            break
        c_prev, f_prev = c, f
        c, f = c_next, f_next
        if abs(f) < 1e-11:
            converged = True
            polish += 1
    if not converged:
        raise NonConvergence("secant on C did not converge")
    az1, _, s = geodesics._inverse_end(math, ell, c, p1.phi, p2.phi, spans, dphi)
    return az1, s


def reference_forms(monkeypatch):
    """Run the package with the replaced forms, and without the overflow
    bounds that stand in for the powers' OverflowError."""
    for module, name, form in (
            (projections, "_utm_direct_coeffs", reference_utm_direct_coeffs),
            (projections, "_utm_inverse_series", reference_utm_inverse_series),
            (projections.UtmDef, "_plane", reference_utm_plane),
            (projections, "_SERIES_X_MAX", math.inf),
            (geodesics, "_arc_integrand", reference_arc_integrand),
            (geodesics, "_arc_antider", reference_arc_antider),
            (geodesics, "_spans", reference_spans),
            (geodesics, "_ARC_T_MAX", math.inf),
            (core, "_isometric_step", reference_isometric_step),
            (coords, "_seed_run", reference_seed_run)):
        monkeypatch.setattr(module, name, form)


def outcome(fn, *args):
    """fn(*args), or the class of the exception it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def close(value, ref, scale=1e-300):
    """value within 1e-12 of ref, relative to max(|ref|, scale)."""
    return abs(value - ref) <= 1e-12 * max(abs(ref), scale)


# -- closed forms ---------------------------------------------------------------------
@pytest.mark.parametrize("d", UTMS[:2], ids=["utm:32", "utm:32s"])
@PROPERTY
@given(phi=st.floats(-1.5, 1.5), dlam=st.floats(-HALF_ZONE, HALF_ZONE))
def test_utm_plane_agrees_with_the_power_series(d, phi, dlam):
    x, y = d._plane(math, phi, dlam)
    ref_x, ref_y = reference_utm_plane(d, math, phi, dlam)
    assert close(x, ref_x, 1.0) and close(y, ref_y, 1.0)
    columns = np.array([phi, -phi]), np.array([dlam, -dlam])
    for xs, refs in zip(d._plane(npmath, *columns), reference_utm_plane(d, npmath, *columns)):
        assert all(close(v, ref, 1.0) for v, ref in zip(xs.tolist(), refs.tolist()))


@pytest.mark.parametrize("d", UTMS[:2], ids=["utm:32", "utm:32s"])
@PROPERTY
@given(phi_f=st.floats(-1.5, 1.5), x=st.floats(-1e6, 1e6))
def test_utm_inverse_series_agrees_with_the_power_series(d, phi_f, x):
    lam, iso = projections._utm_inverse_series(math, d, x, phi_f)
    ref_lam, ref_iso = reference_utm_inverse_series(math, d, x, phi_f)
    assert close(lam, ref_lam, 1.0) and close(iso, ref_iso, 1.0)
    columns = np.array([x, -x]), np.array([phi_f, phi_f])
    for xs, refs in zip(projections._utm_inverse_series(npmath, d, *columns),
                        reference_utm_inverse_series(npmath, d, *columns)):
        assert all(close(v, ref, 1.0) for v, ref in zip(xs.tolist(), refs.tolist()))


@PROPERTY
@given(t=st.floats(-1.0, 1.0), k2=st.floats(1.0, 1e6), key=st.sampled_from(sorted(REGISTRY)))
def test_geodesic_series_agree_with_the_power_series(t, k2, key):
    m, n = _arc_coeffs(REGISTRY[key].e2, k2)
    assert close(geodesics._arc_integrand(t, m, n), reference_arc_integrand(t, m, n))
    assert close(geodesics._arc_antider(t, m, n), reference_arc_antider(t, m, n))


# 0 or |t| in [1e-40, 1], so that no span underflows
UNIT = st.one_of(st.just(0.0), st.floats(1e-40, 1.0), st.floats(-1.0, -1e-40))


@PROPERTY
@given(t1=UNIT, t2=UNIT, near=st.floats(-1e-6, 1e-6))
def test_spans_agree_with_exact_arithmetic(t1, t2, near):
    # a difference of powers loses the digits t2 - t1 cancels: up to 1.8e-6
    # of this scale on spans of 1e-6 relative
    for a, b in ((t1, t2), (t1, t1 + t1 * near)):
        top = max(abs(Fraction(a)), abs(Fraction(b)))
        for j, span in zip((1, 3, 5, 7), geodesics._spans(a, b)):
            exact = (Fraction(b) ** j - Fraction(a) ** j) / j
            scale = abs(Fraction(b) - Fraction(a)) * top ** (j - 1) / j
            assert abs(Fraction(span) - exact) <= Fraction(2e-14) * scale, (a, b, j)


# -- loops ----------------------------------------------------------------------------
def test_isometric_round_trip_lands_within_1e_15():
    for ell in REGISTRY.values():
        for phi in np.linspace(-1.5, 1.5, 601).tolist():
            back = latitude_from_isometric(ell, isometric_latitude(ell, phi))
            assert abs(back - phi) <= 1e-15, (ell.name, phi)


@PROPERTY
@given(phi=st.floats(-1.55, 1.55), key=st.sampled_from(sorted(REGISTRY)))
def test_isometric_newton_agrees_with_the_fixed_point(phi, key):
    ell = REGISTRY[key]
    iso = isometric_latitude(ell, phi)
    newton = latitude_from_isometric(ell, iso)
    column = latitude_from_isometric_array(ell, np.array([iso]))[0][0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_isometric_step", reference_isometric_step)
        fixed = latitude_from_isometric(ell, iso)
    assert abs(newton - fixed) < core._ISO_TOL and column == newton


@pytest.mark.parametrize("iso,expected", [
    (math.inf, math.pi / 2), (40.0, math.pi / 2), (-math.inf, -math.pi / 2),
    (-40.0, -math.pi / 2), (-1e6, -math.pi / 2), (math.nan, NonConvergence),
    (EXP_MAX, OverflowError), (709.8, OverflowError), (1e6, OverflowError),
])
@pytest.mark.parametrize("ell", [CLARKE, WGS84], ids=["clarke", "wgs84"])
def test_isometric_edge_outcomes(ell, iso, expected, monkeypatch):
    newton = outcome(latitude_from_isometric, ell, iso)
    phi, failed = latitude_from_isometric_array(ell, np.array([iso]))
    assert newton == expected and bool(failed[0]) == isinstance(expected, type)
    if not failed[0]:
        assert phi[0] == expected
    monkeypatch.setattr(core, "_isometric_step", reference_isometric_step)
    assert outcome(latitude_from_isometric, ell, iso) == expected


def count_calls(monkeypatch, module, name) -> list:
    """A one-element list counting the calls of module.name from now on."""
    count, fn = [0], getattr(module, name)

    def counted(*args):
        count[0] += 1
        return fn(*args)
    monkeypatch.setattr(module, name, counted)
    return count


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_isometric_inversion_takes_at_most_4_passes(key, monkeypatch):
    ell = REGISTRY[key]
    passes = count_calls(monkeypatch, core, "_isometric_step")
    worst = 0
    for phi in np.linspace(-1.55, 1.55, 311).tolist():
        iso = isometric_latitude(ell, phi)
        passes[0] = 0
        latitude_from_isometric(ell, iso)
        worst = max(worst, passes[0] - 1)  # the first call is the spherical seed
    assert worst <= 4


HEIGHT_BANDS = [(-500.0, 0.0), (0.0, 1e4), (1e4, 1e6), (1e6, 2e7), (2e7, 4e7)]


@pytest.mark.parametrize("band", HEIGHT_BANDS, ids=[f"{lo:g}..{hi:g}" for lo, hi in HEIGHT_BANDS])
@pytest.mark.parametrize("key", ["grs80", "clarke-1880-fr", "krassovsky"])
def test_seeded_ecef_loop_takes_no_more_passes_and_agrees(key, band, monkeypatch):
    ell = REGISTRY[key]
    rng = np.random.default_rng(31)
    phis = np.linspace(-math.pi / 2, math.pi / 2, 101)
    points = [coords.geodetic_to_ecef(ell, GeodeticCoord(phi, lam, he)) for phi, lam, he in
              zip(phis.tolist(), rng.uniform(-3.0, 3.0, 101).tolist(),
                  rng.uniform(*band, 101).tolist())]
    points = [p for p in points if math.hypot(p.x, p.y) >= 1.0]
    passes = count_calls(monkeypatch, coords, "_z_prime")
    seeded = []
    for p in points:
        passes[0] = 0
        seeded.append((ecef_to_geodetic(ell, p), passes[0]))
    monkeypatch.setattr(coords, "_seed_run", reference_seed_run)
    for p, (g, count) in zip(points, seeded):
        passes[0] = 0
        ref = ecef_to_geodetic(ell, p)
        assert count <= passes[0] and count <= 4
        assert abs(g.phi - ref.phi) < coords._ECEF_TOL and g.lam == ref.lam
        assert abs(g.he - ref.he) < coords._ECEF_TOL * ell.a


@pytest.mark.parametrize("key", ["grs80", "clarke-1880-fr"])
def test_ecef_height_round_trip_within_5e_9_m(key):
    # the height is taken from a form whose derivative in phi is 0 at the
    # solution: r / cos(phi) - N turned the loop's last residual, about
    # 1e-15 rad, into up to 2.2e-8 m on these points
    ell = REGISTRY[key]
    rng = np.random.default_rng(33)
    for phi, lam, he in zip(rng.uniform(-1.5707, 1.5707, 2000).tolist(),
                            rng.uniform(-3.0, 3.0, 2000).tolist(),
                            rng.uniform(-500.0, 1e6, 2000).tolist()):
        p = coords.geodetic_to_ecef(ell, GeodeticCoord(phi, lam, he))
        assert abs(ecef_to_geodetic(ell, p).he - he) < 5e-9


def test_ecef_array_keeps_the_bits_of_the_scalar_loop():
    rng = np.random.default_rng(32)
    phi, lam, he = (rng.uniform(-1.5, 1.5, 500), rng.uniform(-3.0, 3.0, 500),
                    rng.uniform(-500.0, 4e7, 500))
    x, y, z, _ = coords.geodetic_to_ecef_array(GRS80, phi, lam, he)
    columns = coords.ecef_to_geodetic_array(GRS80, x, y, z)
    for i in range(500):
        g = ecef_to_geodetic(GRS80, EcefCoord(float(x[i]), float(y[i]), float(z[i])))
        assert (g.phi, g.lam, g.he) == tuple(float(c[i]) for c in columns[:3])


# -- exception classes ------------------------------------------------------------------
MAGNITUDES = [0.0, 1.0, 3e5, 5e6, 1e7, 2e7, 1e10, 1e40, 1.0873965158377e44,
              1.0873965158378e44, 1e45, 1e60, 4.4765466227572e61, 4.47654662275724e61, 1e62,
              1e100, 1e300, 1e308]
EXTREMES = sorted({*MAGNITUDES, *(-m for m in MAGNITUDES), math.inf, -math.inf}) + [math.nan]


def same_outcomes(run, cases):
    """run(*case) raises the same class with and without reference_forms, or
    neither raises; returns the outcomes.  Where every input is within 1e7,
    the values agree within 1e-9 (a longitude of 1e200 wraps to any value)."""
    ours = [outcome(run, *case) for case in cases]
    with pytest.MonkeyPatch.context() as patch:
        reference_forms(patch)
        refs = [outcome(run, *case) for case in cases]
    for case, got, ref in zip(cases, ours, refs):
        if isinstance(ref, type) or isinstance(got, type):
            assert got == ref, case
        elif all(abs(v) <= 1e7 for v in case):
            assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(got, ref)), case
    return ours


def plane_cases():
    return [(e, n) for e in EXTREMES for n in EXTREMES]


@pytest.mark.parametrize("d", UTMS + LAMBERTS, ids=["utm:32 wgs84", "utm:32s wgs84", "utm:32",
                                                    "lambert-nord-tn", "lambert-sud-tn"])
def test_inverse_raises_the_reference_class_and_the_columns_flag_it(d):
    def run(e, n):
        g = (utm_inverse if isinstance(d, projections.UtmDef) else lambert_inverse)(
            d, PlaneCoord(e, n))
        return g.phi, g.lam
    cases = plane_cases()
    ours = same_outcomes(run, cases)
    e, n = np.array(cases).T
    phi, lam, failed = inverse_columns(d, e, n)
    assert failed.tolist() == [isinstance(o, type) for o in ours]


@pytest.mark.parametrize("d", UTMS, ids=["utm:32 wgs84", "utm:32s wgs84", "utm:32"])
def test_utm_forward_raises_the_reference_class_and_the_columns_flag_it(d):
    lats = [-math.pi / 2, -1.5, -0.7, -1e-300, 0.0, 0.7, 1.5, math.pi / 2, 2.0, math.nan]
    lons = [d.lam0 + k for k in (-3.0, -0.06, -0.01, 0.0, 0.01, 0.06, 3.0)] + [
        1e300, -1e308, math.inf, math.nan]
    cases = [(phi, lam) for phi in lats for lam in lons]

    def run(phi, lam):
        p = utm_forward(d, GeodeticCoord(phi, lam))
        return p.e, p.n
    ours = same_outcomes(run, cases)
    *_, failed = forward_columns(d, *np.array(cases).T)
    assert failed.tolist() == [isinstance(o, type) for o in ours]


def test_ecef_to_geodetic_raises_the_reference_class():
    # each point off the axis lies outside the ellipsoid: deep inside it, a
    # loop from either seed may settle on a root the other does not reach
    values = [0.0, 1e7, -1e7, 3e7, 1e20, -1e100, 1e300, -1e308, 1e308, math.inf, math.nan]
    cases = [(x, y, z) for x in values for y in values for z in values]

    def run(x, y, z):
        g = ecef_to_geodetic(GRS80, EcefCoord(x, y, z))
        return g.phi, g.lam
    ours = same_outcomes(run, cases)
    *_, failed = coords.ecef_to_geodetic_array(GRS80, *np.array(cases).T)
    assert failed.tolist() == [isinstance(o, type) for o in ours]


def test_geodesics_raise_the_reference_class():
    # s = 1e7..1e12 m ends far past the vertex, where the Newton residual
    # rounds above its tolerance; from 1e20 m the loop cannot reach its root
    # in 50 passes: both stall past the vertex bound.  From about
    # 3e68 m / |cos aze| the seed overflows the fifth power
    lengths = [0.0, 1.0, 1e3, 1e5, 1e7, 1e8, 1e9, 1e10, 1e12, 1e20, 1e61, 1e68, 1e69, 1e100,
               1e300, 1e308, -1e308, math.inf, math.nan]
    starts = [(0.0, 0.1), (0.5, 0.1), (-1.2, 3.0), (1.5, -3.0)]
    azimuths = [0.0, 0.3, 1.0, 2.0, 4.0, 1e308, math.nan]
    direct = [(phi, lam, az, s) for phi, lam in starts for az in azimuths for s in lengths]

    def run_direct(phi, lam, az, s):
        sol = geodesic_direct(CLARKE, GeodeticCoord(phi, lam), az, s)
        return sol.phi2, sol.lam2, sol.az2
    ours = same_outcomes(run_direct, direct)
    *_, failed = geodesics.geodesic_direct_array(CLARKE, *np.array(direct).T)
    assert all(failed[i] for i, o in enumerate(ours) if isinstance(o, type))

    ends = [(0.0, 0.1), (0.50001, 0.10002), (0.6, 0.4), (-1.2, 2.9), (1.5, 0.0)]
    inverse = [(*a, *b) for a in starts + ends for b in ends]

    def run_inverse(phi1, lam1, phi2, lam2):
        sol = geodesic_inverse(CLARKE, GeodeticCoord(phi1, lam1), GeodeticCoord(phi2, lam2))
        return sol.az1, sol.az2, sol.s / CLARKE.a
    same_outcomes(run_inverse, inverse)


@pytest.mark.parametrize("phi, az", [(0.0, 0.3), (0.0, 4.0), (-1.2, 0.3)])
def test_a_direct_line_far_past_its_vertex_raises_vertex_exceeded(phi, az):
    # the Newton residual there rounds above its tolerance, so the loop
    # stalls; both forms name the vertex, whatever the last bit
    cases = [(phi, 0.1, az, s) for s in (1e3, 1e5, 1e8, 1e9, 1e10)]

    def run_direct(phi, lam, az, s):
        sol = geodesic_direct(CLARKE, GeodeticCoord(phi, lam), az, s)
        return sol.phi2, sol.lam2, sol.az2
    ours = same_outcomes(run_direct, cases)
    assert [o is VertexExceeded for o in ours] == [False, False, True, True, True]
    *_, failed = geodesic_direct_array(CLARKE, *np.array(cases).T)
    assert failed.tolist() == [isinstance(o, type) for o in ours]


# -- the secant on C ---------------------------------------------------------------------
LINE = st.tuples(st.floats(-1.2, 1.2), st.floats(-math.pi, math.pi),
                 st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                 st.floats(1.0, math.log10(5e5)).map(lambda x: 10.0**x))  # s, 10 m..500 km


def newton_inverse(ell, p1, p2):
    sol = geodesic_inverse(ell, p1, p2)
    return sol.az1, sol.s


@pytest.mark.parametrize("ell", [CLARKE, GRS80], ids=["clarke-1880-fr", "grs80"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(lines=st.lists(LINE, min_size=50, max_size=50))
def test_newton_on_c_fails_only_where_the_secant_fails_and_round_trips_as_well(ell, lines):
    worst = {"newton": [0.0, 0.0], "secant": [0.0, 0.0]}
    for phi, lam, az, s in lines:
        p1 = GeodeticCoord(phi, lam)
        end = outcome(geodesic_direct, ell, p1, az, s)
        if isinstance(end, type):
            continue
        p2 = GeodeticCoord(end.phi2, end.lam2)
        if _normalize_lon(p2.lam - p1.lam) == 0.0 or p1.phi == p2.phi == 0.0:
            continue  # the closed forms
        newton = outcome(newton_inverse, ell, p1, p2)
        secant = outcome(reference_secant_inverse, ell, p1, p2)
        if newton is NonConvergence:
            assert secant is NonConvergence, (phi, lam, az, s)
        if isinstance(newton, type) or isinstance(secant, type):
            continue
        for key, (az1, s1) in (("newton", newton), ("secant", secant)):
            along, across = worst[key]
            worst[key] = [max(along, abs(s1 - s)),
                          max(across, abs(math.remainder(az1 - az, 2.0 * math.pi)) * s)]
    assert worst["newton"][0] <= 2.0 * worst["secant"][0]
    assert worst["newton"][1] <= 2.0 * worst["secant"][1]


# -- GeodeticCoord ---------------------------------------------------------------------
@PROPERTY
@given(lam=st.one_of(st.floats(-math.pi, math.pi), st.floats(-1e300, 1e300),
                     st.sampled_from([math.pi, -math.pi, 0.0, -0.0, 7.0])))
def test_geodetic_coord_keeps_the_bits_of_the_longitude_wrap(lam):
    assert GeodeticCoord(0.5, lam).lam.hex() == _normalize_lon(lam).hex()
