"""The point kernels against the forms they replaced.

The UTM series and the truncated geodesic series evaluate their integer
powers as products (Horner form in dlam^2, (x/N)^2 and t^2, and the spans
(t2^j - t1^j)/j as t2 - t1 times sums of products), the isometric inversion
starts from the conformal-latitude series and takes Newton passes on its
fixed-point map, the ECEF latitude loop starts
from the latitude of the surface point and takes Newton passes, and the
geodesic inverse takes Newton steps on its Clairaut constant.  Each loop
stops once a bound on the error its last pass leaves is below its
tolerance, and the inverse takes its last step on C unseen where a bound
shows that step cannot raise the residual.  The earlier forms are kept
here: the ``**`` series and differences of powers, the fixed-point
isometric and ECEF passes, the spherical and geocentric seeds, the secant on C, and the
stopping rules that ran one more pass to see a small step.
``reference_forms`` patches them into the package, so a kernel run under
it is the kernel as it was; ``todays_rules`` patches in the stopping rules
alone; ``reference_secant_inverse`` is the secant.

Closed forms agree within 1e-12 relative, loops within their stopping
tolerance, and every changed kernel raises the reference's exception class
(or none) on inputs up to +-1e308, +-inf and NaN: a float power raises
OverflowError where a product gives inf, so each changed scalar kernel
raises OverflowError itself beyond the bound where the power overflowed.
"""

import math
from decimal import Decimal, localcontext
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
    dlam = b1 * x - b3 * x**3 + b5 * x**5 - b7 * x**7
    iso = (isometric_latitude(d.ell, phi_f) - b2 * x**2 + b4 * x**4 - b6 * x**6)
    return d.lam0 + dlam, iso, (abs(b1 * x) > HALF_ZONE) | (abs(dlam) > HALF_ZONE)


def reference_arc_integrand(t, m, n):
    return 1.0 + m * t * t + n * t**4


def reference_arc_antider(t, m, n):
    return t + m * t**3 / 3.0 + n * t**5 / 5.0


def reference_spans(t1, t2):
    """geodesics._spans as differences of powers."""
    return tuple((t2**j - t1**j) / j for j in (1, 3, 5, 7))


def reference_isometric_step(xp, log, ell, iso, phi):
    """core._isometric_step as the fixed-point pass, with today's rule: the
    latitude whose ln tan(pi/4 + phi/2) is iso + (e/2) ln((1+e sin phi)/(1-e sin phi)),
    stopping on a step below 1e-12 rad."""
    if ell.e:
        s = xp.sin(phi)
        iso = iso + 0.5 * ell.e * xp.log((1.0 + ell.e * s) / (1.0 - ell.e * s))
    nxt = 2.0 * xp.atan(xp.exp(iso)) - math.pi / 2.0
    return iso, nxt, abs(nxt - phi) < 1e-12


def reference_isometric_seed(xp, ell, iso):
    """The spherical latitude of iso, the isometric inversion's earlier seed."""
    return 2.0 * xp.atan(xp.exp(iso)) - math.pi / 2.0


def reference_seed_run(xp, ell, r, z):
    """The geocentric seed of the ECEF latitude loop, atan2(z, r), for the
    fixed-point pass, which takes no bound factor."""
    return r, None


def reference_ecef_step(xp, atan2, ell, phi, z, r, k):
    """coords._ecef_step as the fixed-point pass phi = atan2(Z + N e2 sin(phi), r),
    with today's rule: stop on a step below 1e-12 rad."""
    nxt = atan2(z + core._prime_vertical_radius(xp, ell, phi) * ell.e2 * xp.sin(phi), r)
    return nxt, abs(nxt - phi) < 1e-12


# -- today's stopping rules ------------------------------------------------------------
ARC_STEP, ISOMETRIC_STEP, ECEF_STEP = core._arc_step, core._isometric_step, coords._ecef_step


def todays_arc_step(ell, phi, y):
    """core._arc_step, stopping on a step below 1e-13 rad."""
    nxt, _ = ARC_STEP(ell, phi, y)
    return nxt, abs(nxt - phi) < 1e-13


def todays_isometric_step(xp, log, ell, iso, phi):
    """core._isometric_step, stopping on a step below 1e-12 rad."""
    target, nxt, _ = ISOMETRIC_STEP(xp, log, ell, iso, phi)
    return target, nxt, abs(nxt - phi) < 1e-12


def todays_rules(monkeypatch):
    """Run the loops with the rules they replaced: the arc and isometric
    inversions stop on a step below 1e-13 and 1e-12 rad, the ECEF latitude
    takes fixed-point passes until a step is below 1e-12 rad, and the
    geodesic inverse evaluates its last step on C and keeps it only if it
    lowers the residual."""
    for module, name, form in (
            (core, "_arc_step", todays_arc_step),
            (core, "_isometric_step", todays_isometric_step),
            (coords, "_ecef_step", reference_ecef_step),
            (geodesics, "_step_keeps_f", lambda *args: False)):
        monkeypatch.setattr(module, name, form)


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
    r1 = geodesics._parallel_radius(math, ell, p1.phi)
    r2 = geodesics._parallel_radius(math, ell, p2.phi)
    if math.isinf(slope):
        c = min(r1, lim)
    else:
        c = 0.5 * (geodesics._seed_c(math, ell, p1.phi, r1, slope)
                   + geodesics._seed_c(math, ell, p2.phi, r2, slope))
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
    az1, _, s = geodesics._inverse_end(math, ell, c, r1, r2, spans, dphi)
    return az1, s


def reference_forms(monkeypatch):
    """Run the package with the replaced forms and today's stopping rules,
    and without the overflow bounds that stand in for the powers'
    OverflowError."""
    todays_rules(monkeypatch)
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
            (core, "_isometric_seed", reference_isometric_seed),
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
    lam, iso, wide = projections._utm_inverse_series(math, d, x, phi_f)
    ref_lam, ref_iso, ref_wide = reference_utm_inverse_series(math, d, x, phi_f)
    assert close(lam, ref_lam, 1.0) and close(iso, ref_iso, 1.0)
    # the two sums may round to either side of the zone's edge
    assert wide == ref_wide or abs(abs(lam - d.lam0) - HALF_ZONE) < 1e-12
    columns = np.array([x, -x]), np.array([phi_f, phi_f])
    *xs, wides = projections._utm_inverse_series(npmath, d, *columns)
    *refs, ref_wides = reference_utm_inverse_series(npmath, d, *columns)
    for values, ref_values in zip(xs, refs):
        assert all(close(v, ref, 1.0) for v, ref in zip(values.tolist(), ref_values.tolist()))
    assert wides.tolist() == [wide, wide]


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
    # the fixed point stops on a step below 1e-12 rad
    assert abs(newton - fixed) < 1e-12 and column == newton


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_isometric_array_keeps_the_scalar_bits(key):
    # L of random latitudes, of a band by the equator, where the result's last bit is
    # smallest, and off a double latitude: every row keeps the scalar bits
    ell, rng = REGISTRY[key], np.random.default_rng(17)
    phi = np.concatenate([rng.uniform(-1.55, 1.55, 4000), rng.uniform(-0.05, 0.05, 2000)])
    iso = np.array([isometric_latitude(ell, p) for p in phi.tolist()])
    iso = np.concatenate([iso, iso + rng.uniform(-1e-9, 1e-9, iso.size)])
    column, failed = latitude_from_isometric_array(ell, iso)
    scalar = [latitude_from_isometric(ell, i) for i in iso.tolist()]
    assert not failed.any() and column.tolist() == scalar


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


def passes_of(module, name, fn, *args) -> tuple:
    """(fn(*args), the number of calls fn makes to module.name)."""
    with pytest.MonkeyPatch.context() as patch:
        count = count_calls(patch, module, name)
        return fn(*args), count[0]


@PROPERTY
@given(phi=st.floats(-1.55, 1.55), key=st.sampled_from(sorted(REGISTRY)))
def test_inversions_land_within_1e_15_of_todays_rules_in_at_most_2_passes(phi, key):
    ell = REGISTRY[key]
    y, iso = meridian_arc(ell, phi), isometric_latitude(ell, phi)
    arc = passes_of(core, "_arc_step", core.latitude_from_arc, ell, y)
    newton = passes_of(core, "_isometric_step", latitude_from_isometric, ell, iso)
    with pytest.MonkeyPatch.context() as patch:
        todays_rules(patch)
        ref_arc = passes_of(core, "_arc_step", core.latitude_from_arc, ell, y)
        ref_newton = passes_of(core, "_isometric_step", latitude_from_isometric, ell, iso)
    for (value, passes), (ref, ref_passes) in ((arc, ref_arc), (newton, ref_newton)):
        assert abs(value - ref) <= 1e-15 and passes <= min(2, ref_passes), (value, ref)
    column = core.latitude_from_arc_array(ell, np.array([y]))[0][0]
    assert column == arc[0]
    column = latitude_from_isometric_array(ell, np.array([iso]))[0][0]
    assert column == newton[0]


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_isometric_inversion_takes_at_most_2_passes(key, monkeypatch):
    ell = REGISTRY[key]
    passes = count_calls(monkeypatch, core, "_isometric_step")
    worst = 0
    for phi in np.linspace(-1.55, 1.55, 311).tolist():
        iso = isometric_latitude(ell, phi)
        passes[0] = 0
        latitude_from_isometric(ell, iso)
        worst = max(worst, passes[0])
    assert worst <= 2


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_isometric_seed_is_within_6e_11_and_one_pass_follows(key, monkeypatch):
    # the conformal-latitude series to e2^4 leaves about e2^4/36 (5.5e-11 rad on
    # GRS80); one Newton pass from there leaves about 0.75 e2 times its square
    ell = REGISTRY[key]
    passes = count_calls(monkeypatch, core, "_isometric_step")
    for phi in np.linspace(-1.55, 1.55, 311).tolist():
        iso = isometric_latitude(ell, phi)
        assert abs(core._isometric_seed(math, ell, iso) - phi) < 6e-11, phi
        passes[0] = 0
        latitude_from_isometric(ell, iso)
        assert passes[0] == 1, phi


def root_offset(ell, p: EcefCoord, phi: float) -> float:
    """phi minus the latitude whose normal passes through p, to first order, in
    40 digits: G(phi) / G'(phi) with G = r sin(phi) - z cos(phi) - e2 N sin(phi) cos(phi),
    which vanishes on the normal (r = (N + h) cos(phi), z = (N (1 - e2) + h) sin(phi))."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(phi)
        sin = cos = Decimal(0)
        term_s, term_c, i = x, Decimal(1), 1
        while abs(term_s) + abs(term_c) > Decimal(10) ** -45:  # the Taylor series
            sin, cos = sin + term_s, cos + term_c
            term_s = -term_s * x * x / ((2 * i) * (2 * i + 1))
            term_c = -term_c * x * x / ((2 * i - 1) * (2 * i))
            i += 1
        r = (Decimal(p.x) ** 2 + Decimal(p.y) ** 2).sqrt()
        z, e2 = Decimal(p.z), Decimal(ell.e2)
        n = Decimal(ell.a) / (1 - e2 * sin * sin).sqrt()
        return float((r * sin - z * cos - e2 * n * sin * cos) / (r * cos + z * sin))


@PROPERTY
@given(phi=st.floats(-1.5707, 1.5707), lam=st.floats(-3.0, 3.0), he=st.floats(-500.0, 4e7),
       key=st.sampled_from(sorted(REGISTRY)))
def test_ecef_lands_within_1e_15_of_the_root(phi, lam, he, key):
    ell = REGISTRY[key]
    p = coords.geodetic_to_ecef(ell, GeodeticCoord(phi, lam, he))
    if math.hypot(p.x, p.y) < 1.0:
        return
    g, passes = passes_of(coords, "_ecef_step", ecef_to_geodetic, ell, p)
    assert abs(root_offset(ell, p, g.phi)) <= 1e-15
    assert passes <= 2
    with pytest.MonkeyPatch.context() as patch:
        todays_rules(patch)
        ref, ref_passes = passes_of(coords, "_ecef_step", ecef_to_geodetic, ell, p)
    assert passes <= ref_passes and abs(root_offset(ell, p, ref.phi)) <= 1e-14
    columns = coords.ecef_to_geodetic_array(ell, *(np.array([v]) for v in (p.x, p.y, p.z)))
    assert (g.phi, g.lam, g.he) == tuple(float(c[0]) for c in columns[:3])


HEIGHT_BANDS = [(-500.0, 0.0), (0.0, 1e4), (1e4, 1e6), (1e6, 2e7), (2e7, 4e7)]


@pytest.mark.parametrize("band", HEIGHT_BANDS, ids=[f"{lo:g}..{hi:g}" for lo, hi in HEIGHT_BANDS])
@pytest.mark.parametrize("key", ["grs80", "clarke-1880-fr", "krassovsky"])
def test_ecef_newton_takes_no_more_passes_and_agrees(key, band, monkeypatch):
    ell = REGISTRY[key]
    rng = np.random.default_rng(31)
    phis = np.linspace(-math.pi / 2, math.pi / 2, 101)
    points = [coords.geodetic_to_ecef(ell, GeodeticCoord(phi, lam, he)) for phi, lam, he in
              zip(phis.tolist(), rng.uniform(-3.0, 3.0, 101).tolist(),
                  rng.uniform(*band, 101).tolist())]
    points = [p for p in points if math.hypot(p.x, p.y) >= 1.0]
    passes = count_calls(monkeypatch, coords, "_ecef_step")
    newton = []
    for p in points:
        passes[0] = 0
        newton.append((ecef_to_geodetic(ell, p), passes[0]))
    todays_rules(monkeypatch)
    passes = count_calls(monkeypatch, coords, "_ecef_step")
    for p, (g, count) in zip(points, newton):
        passes[0] = 0
        ref = ecef_to_geodetic(ell, p)
        assert count <= passes[0] and count <= 2
        assert abs(g.phi - ref.phi) < 1e-14 and g.lam == ref.lam
        assert abs(g.he - ref.he) < 5e-9 * max(1.0, ref.he / ell.a)


def test_ecef_inside_the_earth_takes_no_more_passes_than_todays_loop(monkeypatch):
    # within 2 a newton_k (86 km) of the centre there is no bound, and the
    # loop takes the fixed-point passes until a step is below 1e-12 rad, as
    # before; nearer the centre than e2 a the seed lies on the far side, and
    # both loops may run out of passes
    rng = np.random.default_rng(34)
    norms = 10.0 ** rng.uniform(1.0, math.log10(6.3e6), 3000)
    angle = rng.uniform(-math.pi / 2, math.pi / 2, 3000)
    points = [EcefCoord(n * math.cos(t), 0.0, n * math.sin(t))
              for n, t in zip(norms.tolist(), angle.tolist()) if n * math.cos(t) >= 1.0]
    newton = [passes_of(coords, "_ecef_step", outcome, ecef_to_geodetic, GRS80, p)
              for p in points]
    todays_rules(monkeypatch)
    for p, (g, count) in zip(points, newton):
        ref, ref_count = passes_of(coords, "_ecef_step", outcome, ecef_to_geodetic, GRS80, p)
        assert count <= ref_count and isinstance(g, type) == isinstance(ref, type), p


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


def inverse_lines(ell, lines) -> list:
    """(p1, p2, az, s) of each line whose direct problem is solved and whose
    inverse is not a closed form."""
    out = []
    for phi, lam, az, s in lines:
        p1 = GeodeticCoord(phi, lam)
        end = outcome(geodesic_direct, ell, p1, az, s)
        if isinstance(end, type):
            continue
        p2 = GeodeticCoord(end.phi2, end.lam2)
        if _normalize_lon(p2.lam - p1.lam) != 0.0 and not p1.phi == p2.phi == 0.0:
            out.append((p1, p2, az, s))
    return out


@pytest.mark.parametrize("ell", [CLARKE, GRS80], ids=["clarke-1880-fr", "grs80"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(lines=st.lists(LINE, min_size=50, max_size=50))
def test_newton_on_c_fails_only_where_the_secant_fails_and_round_trips_as_well(ell, lines):
    # today's rule evaluates the last step on C and keeps it if it lowers the
    # residual; the unseen step takes no more evaluations and fails no more
    worst = {"newton": [0.0, 0.0], "today": [0.0, 0.0], "secant": [0.0, 0.0]}
    for p1, p2, az, s in inverse_lines(ell, lines):
        newton, evaluations = passes_of(geodesics, "_dlam_slope", outcome, newton_inverse,
                                        ell, p1, p2)
        with pytest.MonkeyPatch.context() as patch:
            todays_rules(patch)
            today, today_evaluations = passes_of(geodesics, "_dlam_slope", outcome,
                                                 newton_inverse, ell, p1, p2)
        secant = outcome(reference_secant_inverse, ell, p1, p2)
        if newton is NonConvergence:
            assert today is NonConvergence and secant is NonConvergence, (p1, p2)
        assert evaluations <= today_evaluations, (p1, p2)
        if any(isinstance(o, type) for o in (newton, today, secant)):
            continue
        for key, (az1, s1) in (("newton", newton), ("today", today), ("secant", secant)):
            along, across = worst[key]
            worst[key] = [max(along, abs(s1 - s)),
                          max(across, abs(math.remainder(az1 - az, 2.0 * math.pi)) * s)]
    for ref in ("today", "secant"):
        assert worst["newton"][0] <= 2.0 * worst[ref][0]
        assert worst["newton"][1] <= 2.0 * worst[ref][1]


@pytest.mark.parametrize("ell", [CLARKE, GRS80], ids=["clarke-1880-fr", "grs80"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(lines=st.lists(LINE, min_size=50, max_size=50))
def test_the_unseen_last_step_on_c_keeps_the_residual_down_and_the_bits(ell, lines):
    lines = inverse_lines(ell, lines)
    unseen, keeps = [], geodesics._step_keeps_f

    def recorded(ell, c, f, df):
        out = keeps(ell, c, f, df)
        if out is True:
            unseen.append((c, f, df))
        return out
    solved = {}
    for i, (p1, p2, _, _) in enumerate(lines):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geodesics, "_step_keeps_f", recorded)
            sol = outcome(geodesic_inverse, ell, p1, p2)
        if isinstance(sol, type):
            continue
        solved[i] = sol
        dlam = _normalize_lon(p2.lam - p1.lam)
        spans = geodesics._spans(math.sin(p1.phi), math.sin(p2.phi))
        lim = ell.a * (1.0 - 1e-12)
        for c, f, df in unseen:
            c_next = math.copysign(min(abs(c - f / df), lim), dlam)
            f_next = geodesics._dlam_slope(math, ell, c_next, spans, p2.phi - p1.phi)[0] - dlam
            # the bound holds in exact arithmetic; an evaluation of f rounds
            # within about 1e-14 of dlam, and a step below an ulp of C moves C
            # by an ulp, so f by up to f' ulp(C)
            assert abs(f_next) <= max(abs(f), 1e-14 * abs(dlam),
                                      2.0 * abs(df) * math.ulp(c)), (p1, p2)
        unseen.clear()
    # C and with it s keep their bits in the array form
    columns = [[getattr(p, name) for p1, p2, _, _ in lines for p in (p1,)]
               for name in ("phi", "lam")]
    columns += [[getattr(p2, name) for _, p2, _, _ in lines] for name in ("phi", "lam")]
    _, _, s, failed = geodesics.geodesic_inverse_array(ell, *map(np.array, columns))
    assert [i for i in range(len(lines)) if not failed[i]] == sorted(solved)
    assert all(s[i] == sol.s for i, sol in solved.items())


# -- GeodeticCoord ---------------------------------------------------------------------
@PROPERTY
@given(lam=st.one_of(st.floats(-math.pi, math.pi), st.floats(-1e300, 1e300),
                     st.sampled_from([math.pi, -math.pi, 0.0, -0.0, 7.0])))
def test_geodetic_coord_keeps_the_bits_of_the_longitude_wrap(lam):
    assert GeodeticCoord(0.5, lam).lam.hex() == _normalize_lon(lam).hex()
