"""Radial circle means: closed form, asymptotics, small radii, zeros."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypolib import numerics, spherical
from hypolib.errors import CancellationLoss, NonConvergence, ResultOverflow, ScanInconclusive
from hypolib.kernels import CRITICAL, FORBIDDEN, kernel_poly, make_spectral
from hypolib.polynomials import ComplexPoly
from hypolib.spherical import (
    asymptotic_law,
    boundary_constant,
    closed_form,
    closed_form_many,
    radial_zeros,
    scan_profile,
    small_radius_law,
    spherical_function,
    zero_free_radius,
)
from test_doubling import ref_kernel_mean

# frozen against 30-digit direct quadrature of the circle mean
PHI_099_AT_I = -2.941860347845702 + 0.710678631666179j
PHI_0999_CRITICAL = 0.12795988302327248
PHI_07_GENERIC_COMPLEX = 1.6514751406978625 + 0.9368271794352357j
C_AT_I = 0.5681393132001134 - 0.2421591922904217j


def _abs_mean(n: int, r: float, sp) -> float:
    """Circle mean of |order-n kernel|, by the tests' reference quadrature."""
    return ref_kernel_mean(kernel_poly(n, sp), sp.exponent, r, use_abs=True).real


def test_mean_of_squared_kernel_is_rational():
    # lam = 2 gives exponent 2: mean of P^2 equals (1+r^2)/(1-r^2)
    sp = make_spectral(2.0)
    for r in (0.0, 0.3, 0.9, 0.99):
        want = (1 + r * r) / (1 - r * r)
        assert spherical_function(0, r, sp) == pytest.approx(want, rel=1e-12)


def test_mean_of_plain_kernel_is_one():
    sp = make_spectral(0.0)
    for r in (0.2, 0.95):
        assert spherical_function(0, r, sp) == pytest.approx(1.0, rel=1e-12)


def test_frozen_means_at_complex_and_critical_values():
    assert spherical_function(0, 0.99, make_spectral(1j)) == pytest.approx(
        PHI_099_AT_I, rel=1e-11
    )
    assert spherical_function(0, 0.999, make_spectral(-0.25)) == pytest.approx(
        PHI_0999_CRITICAL, rel=1e-11
    )
    assert spherical_function(0, 0.7, make_spectral(1 + 1j)) == pytest.approx(
        PHI_07_GENERIC_COMPLEX, rel=1e-11
    )


@pytest.mark.parametrize("lam", [2.0, -0.25, 1j, 1 + 1j])
def test_closed_form_agrees_with_quadrature(lam):
    sp = make_spectral(lam)
    for r in (0.1, 0.5, 0.9):
        assert closed_form(r, sp) == pytest.approx(
            spherical_function(0, r, sp), rel=1e-10
        )


def _oracle(r: float, mu: complex) -> complex:
    """F(mu+1/2, 1/2-mu; 1; -r^2/(1-r^2)) by mpmath at 30 digits."""
    with mp.workdps(30):
        rr, m = mp.mpf(r), mp.mpc(mu)
        return complex(mp.hyp2f1(m + 0.5, 0.5 - m, 1, -rr * rr / ((1 - rr) * (1 + rr))))


ORACLE_RADII = (0.0, 0.3, 0.7, 0.7072, 0.9, 0.99, 0.9996, 1.0 - 1e-6, 1.0 - 1e-8)


def _assert_matches_oracle(rs, sp, rel=1e-13):
    got = closed_form_many(rs, sp)
    for r, v in zip(rs, got):
        want = _oracle(float(r), sp.mu)
        assert abs(v - want) <= rel * abs(want), (sp.lam, r, v, want)


def test_closed_form_many_matches_scalar_and_the_oracle_near_the_boundary():
    sp = make_spectral(1j)
    rs = np.array([0.2, 0.6, 0.95, 0.9996, 1.0 - 1e-8])
    batch = closed_form_many(rs, sp)
    for r, v in zip(rs, batch):
        assert v == pytest.approx(closed_form(float(r), sp), rel=1e-14)
    _assert_matches_oracle(rs, sp)


# c - a - b = -2 mu after the Pfaff step is an integer here (the log case of
# the connection formula), 1e-6 off one, or on either side of the edge of
# the band where the evaluator averages over a circle in the parameter.
@pytest.mark.parametrize("two_mu", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("offset", [0.0, 1e-6, -1e-6, 1e-6j, 0.0199, -0.0199, 0.0201, -0.0201])
def test_closed_form_at_and_near_integer_two_mu(two_mu, offset):
    mu = (two_mu + offset) / 2.0
    sp = make_spectral(mu * mu - 0.25)
    _assert_matches_oracle(ORACLE_RADII, sp)


# the closed_form_many inputs of the radial benchmark workload, and the
# spectral values the suite uses most
@pytest.mark.parametrize("lam", [1.5 + 1.5j, -1.5 + 1.5j, -1.5 - 1.5j, 1.5 - 1.5j, 0.0, 2.0, -0.25])
def test_closed_form_on_the_benchmark_lambdas(lam):
    _assert_matches_oracle(ORACLE_RADII, make_spectral(lam))


# lam on a 1e-6 grid of [-3, 3]^2, which holds lam = 0, 2, -1/4 (integer
# 2 mu).  Unrestricted floats draw values like lam = -8e-250 - 8e-250j,
# which put mu within 1e-249 of 1/2; there the 30-digit oracle takes 40 s.
LAM_PART = st.integers(-3_000_000, 3_000_000).map(lambda n: n / 1_000_000)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    re=LAM_PART,
    im=LAM_PART,
    rs=st.lists(st.floats(0.0, 1.0 - 1e-8), min_size=1, max_size=6),
)
def test_closed_form_many_matches_mpmath_property(re, im, rs):
    sp = make_spectral(complex(re, im))
    got = closed_form_many(rs, sp)
    for r, v in zip(rs, got):
        want = _oracle(r, sp.mu)
        # on the forbidden ray Phi is real with zeros; measure the error
        # against |Phi| <= Phi(r | -1/4) there
        scale = _oracle(r, 0.0).real if sp.kind == FORBIDDEN else abs(want)
        assert abs(v - want) <= 1e-13 * scale, (sp.lam, r, v, want)


def test_closed_form_overflow_is_a_typed_error():
    sp = make_spectral(1e6)
    with pytest.raises(ResultOverflow, match=r"lam = \(1000000\+0j\).* r = 0\.9$"):
        closed_form(0.9, sp)
    with pytest.raises(ResultOverflow, match=r"lam = \(1000000\+0j\).* r = 0\.9$"):
        closed_form_many([0.3, 0.9], sp)


@pytest.mark.parametrize("r", [0.9, 0.999])
def test_quadrature_overflow_is_a_typed_error(r):
    sp = make_spectral(1e6)
    with pytest.raises(ResultOverflow, match=rf"lam = \(1000000\+0j\).* r = {r}$"):
        spherical_function(0, r, sp)


def test_quadrature_non_convergence_names_its_inputs():
    # far out on the forbidden ray (past |lam| ~ 1.5e4) the row's panel
    # doubling cannot meet its tolerance by its cap
    with pytest.raises(NonConvergence, match=r"Phi_0 at lam = \(-100000\+0j\) did not"
                                             r" converge at r = 0\.905: panel quadrature"):
        spherical_function(0, 0.905, make_spectral(-1e5))


@pytest.mark.parametrize("r", [0.5, 0.99, 0.999999])
def test_phi_n_is_mode_0_of_the_kernel_row(r, monkeypatch):
    # tau = 2 sqrt(r)/(1-r) is 20 near r = 0.905: one engine on both sides
    calls = []
    real = spherical._kernel_modes

    def counted(n, sp, r, ks):
        calls.append(list(ks))
        return real(n, sp, r, ks)

    def refuse(*args, **kwargs):
        raise AssertionError("Phi_n took a second quadrature")

    monkeypatch.setattr(spherical, "_kernel_modes", counted)
    for name in ("integrate_circle", "_refine_panels"):
        assert not hasattr(spherical, name)
        monkeypatch.setattr(numerics, name, refuse)
    spherical._spherical_cached.cache_clear()
    sp = make_spectral(0.5 + 1.5j)
    value = spherical_function(1, r, sp)
    assert calls == [[0]]
    assert value == real(1, sp, r, [0])[0]


@pytest.mark.parametrize(
    "lam,r",
    [(-1e4, 0.905), (-1e4, math.tanh(15.0))]
    + [(-3000 + 1j, math.tanh(0.5 * R)) for R in (2.4, 5.0, 12.0, 18.5)],
)
def test_next_to_the_forbidden_ray_phi_matches_the_oracle(lam, r):
    # the row turns ~ 2 log(2) |Im mu| radians per dyadic panel here, and at
    # lam = -1e4, R = 30 a half-line quadrature passed its doubling test with
    # 1.108e-7 - 2.500e-7i for -1.682e-8
    sp = make_spectral(lam)
    want = _oracle(r, sp.mu)
    assert abs(spherical_function(0, r, sp) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "values",
    [[], [0.0], [3.0, -0.0, 0.0, 3.0, 1.5, 3.0], np.abs(np.linspace(-2.0, 2.0, 41)), [4, 0, 4, 2, 0]],
)
def test_distinct_values_are_np_unique(values):
    values = np.asarray(values)
    got, want = spherical._distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_next_to_the_forbidden_ray_the_row_primitive_matches_mpmath():
    # the primitive int_0^x K_r of the order-0 row, which turns ~ 320 radians
    # over [0, pi] here, against a 30-digit quadrature summed piece by piece
    sp = make_spectral(-3000 + 1j)
    r = 0.9
    xs = [0.01, 0.05, 0.3, 1.0, 2.5, math.pi]
    got = spherical._row_primitive(0, sp, r, xs)(np.array(xs))
    with mp.workdps(30):
        rr, s = mp.mpf(r), mp.mpc(sp.exponent)

        def row(t):
            return ((1 - rr**2) / ((1 - rr) ** 2 + 4 * rr * mp.sin(t / 2) ** 2)) ** s

        want, acc, lo = [], mp.mpf(0), mp.mpf(0)
        for x in xs:
            hi = mp.mpf(x)
            acc += mp.quad(row, mp.linspace(lo, hi, int(40 * (hi - lo)) + 2), method="gauss-legendre")
            want.append(complex(acc))
            lo = hi
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w), (g, w)


@pytest.mark.parametrize("lam", [1j, 1 + 1j, 2.0])
@pytest.mark.parametrize("n", [1, 2])
def test_scan_profile_agrees_with_quadrature(n, lam):
    # the scan's closed-form profile against the row quadrature, from
    # moderate radii out to tau ~ 2e6 (r = 1 - 1e-6)
    sp = make_spectral(lam)
    rs, vals = scan_profile(n, sp, count=300)
    assert rs[0] < 0.9 < 0.999 < rs[-1]
    quad = np.array([spherical_function(n, float(r), sp) for r in rs])
    assert np.max(np.abs(vals - quad) / np.abs(quad)) <= 1e-10


def _taylor_oracle(lam: complex, r: float, order: int) -> list:
    """[eps^j] F(s0+eps, 1-s0-eps; 1; -r^2/(1-r^2)), j <= order, by mpmath
    at 30 digits: s0 = mu + 1/2, or 1/2 in the critical regime."""
    with mp.workdps(30):
        rr = mp.mpf(r)
        x = -rr * rr / (1 - rr * rr)
        s0 = mp.sqrt(mp.mpc(lam) + mp.mpf(1) / 4) + mp.mpf(1) / 2
        return [complex(c) for c in mp.taylor(lambda s: mp.hyp2f1(s, 1 - s, 1, x), s0, order)]


PHI_N_RADII = (0.0, 0.05, 0.3, 0.7, 0.9, 0.999, 1.0 - 1e-6)


@pytest.mark.parametrize("lam", [2.0, 1j, 0.5 + 1.5j, -2 + 0.3j, -0.25, 0.0, -1.0])
def test_closed_form_orders_match_the_taylor_oracle(lam):
    # Phi_n = [eps^n] F / (2 mu)^n, and [eps^2n] F in the critical regime
    sp = make_spectral(lam)
    critical = sp.kind == CRITICAL
    ref = {r: _taylor_oracle(lam, r, 6 if critical else 3) for r in PHI_N_RADII}
    for n in range(4):
        got = closed_form_many(PHI_N_RADII, sp, n)
        for r, v in zip(PHI_N_RADII, got):
            want = ref[r][2 * n] if critical else ref[r][n] / (2 * sp.mu) ** n
            if sp.kind == FORBIDDEN:
                scale = _oracle(r, 0.0).real  # |Phi| <= Phi(r | -1/4) on the ray
            else:
                scale = abs(want)
            assert abs(v - want) <= 1e-12 * scale, (lam, n, r, v, want)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    re=LAM_PART,
    im=LAM_PART,
    n=st.integers(1, 3),
    # below r ~ 1e-3 the quadrature's rounding of log P (~1e-16) swamps
    # Phi_n ~ r^n; the oracle test covers the small radii
    rs=st.lists(st.floats(1e-3, 1.0 - 1e-6), min_size=1, max_size=4),
)
def test_closed_form_orders_match_quadrature_property(re, im, n, rs):
    sp = make_spectral(complex(re, im))
    got = closed_form_many(rs, sp, n)
    for r, v in zip(rs, got):
        want = spherical_function(n, r, sp)
        # the mean of |kernel| bounds |Phi_n| and does not vanish at its zeros
        assert abs(v - want) <= 1e-9 * _abs_mean(n, r, sp), (sp.lam, n, r, v, want)


def test_closed_form_orders_beyond_the_jets_are_refused():
    with pytest.raises(ValueError, match="orders 0 to 3"):
        closed_form_many([0.5], make_spectral(2.0), 4)


def test_cancellation_is_a_typed_error_naming_its_inputs():
    sp = make_spectral(-1000.0)
    with pytest.raises(CancellationLoss, match=r"Phi_0 at lam = \(-1000\+0j\).* r = 0\.6$"):
        closed_form_many([0.1, 0.6], sp)
    # the scans take that profile from quadrature instead
    rs, vals = scan_profile(0, sp, count=20)
    assert np.array_equal(vals, [spherical_function(0, float(r), sp) for r in rs])


def test_forbidden_ray_zeros_past_the_closed_form_keep_the_quadrature_zeros():
    # lam = -1000 cancels in the closed form; these are the zeros the
    # quadrature scan and bisection give
    zs = radial_zeros(make_spectral(-1000.0))
    assert len(zs) == 98
    assert zs[:3] == pytest.approx([0.0870735769898704, 0.13600227687519661, 0.18433987759383996],
                                   abs=1e-12)
    assert zs[-3:] == pytest.approx([0.9998663064799874, 0.9998789506836631, 0.9998903991141651],
                                    abs=1e-12)
    assert math.fsum(zs) == pytest.approx(85.2638853476182, abs=98e-12)


def test_boundary_constant_reference_points():
    assert boundary_constant(make_spectral(2.0)) == pytest.approx(0.5, rel=1e-10)
    assert boundary_constant(make_spectral(0.0)) == pytest.approx(1.0, rel=1e-10)
    assert boundary_constant(make_spectral(1j)) == pytest.approx(C_AT_I, rel=1e-9)


def test_asymptotic_law_tracks_the_mean_far_out():
    sp = make_spectral(2.0)
    law = asymptotic_law(0, sp)
    for R in (14.0, 18.0):
        r = math.tanh(R / 2)
        ratio = spherical_function(0, r, sp) / law.evaluate(R)
        assert abs(ratio - 1) < 1e-5
    sp_c = make_spectral(1j)
    law_c = asymptotic_law(0, sp_c)
    errs = []
    for R in (10.0, 16.0):
        ratio = spherical_function(0, math.tanh(R / 2), sp_c) / law_c.evaluate(R)
        errs.append(abs(ratio - 1))
    assert errs[1] < errs[0] < 0.05


@pytest.mark.parametrize("lam", [2.0, -0.25])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_radius_law_is_sharp(lam, n):
    sp = make_spectral(lam)
    r = 1e-3
    got = spherical_function(n, r, sp)
    want = small_radius_law(n, r, sp)
    assert got == pytest.approx(want, rel=2e-2)


def test_forbidden_ray_zeros_sit_in_independent_brackets():
    # sign changes of the 30-digit mean: (0.894, 0.897) and (0.996, 0.998)
    zs = radial_zeros(make_spectral(-1.0), r_max=0.9999, count=2000)
    assert len(zs) == 2
    assert 0.894 < zs[0] < 0.897
    assert 0.996 < zs[1] < 0.998


def test_radial_zeros_are_sign_changes_to_bisection_accuracy():
    sp = make_spectral(-1.0)
    zs = radial_zeros(sp)
    assert zs
    for z in zs:
        s = math.log(1.0 - z)
        below, above = (
            spherical_function(0, 1.0 - math.exp(s + d), sp).real for d in (1e-9, -1e-9)
        )
        assert below * above < 0


def test_radial_zeros_bisect_every_bracket_in_one_call_per_round(monkeypatch):
    sizes = []
    profile = spherical._profile

    def counted(n, sp, rs):
        sizes.append(len(rs))
        return profile(n, sp, rs)

    monkeypatch.setattr(spherical, "_profile", counted)
    zs = radial_zeros(make_spectral(-10.0))
    # the grid scan, then one call per round on the live brackets' midpoints
    assert sizes[0] == 2000
    assert 1 < len(sizes) <= 61
    assert sizes[1] == len(zs) == 10
    assert sizes[1:] == sorted(sizes[1:], reverse=True)


def test_radial_zeros_require_the_forbidden_ray():
    with pytest.raises(ValueError):
        radial_zeros(make_spectral(2.0), r_max=0.99, count=500)


@pytest.mark.parametrize("lam", [0.0, 2.0, -0.25])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_real_lam_gives_a_real_closed_form(lam, n):
    # real parameters give a real F, with no rounding noise in Im
    rs = 1.0 - np.geomspace(0.95, 1e-5, 200)
    assert np.all(closed_form_many(rs, make_spectral(lam), n).imag == 0.0)


def test_zero_free_radius_and_abs_mean():
    sp = make_spectral(2.0)
    zf = zero_free_radius(0, sp)
    assert 0.0 <= zf.r_min < 0.5
    # the kernel is positive, so the mean of |kernel| is |Phi_0|
    assert _abs_mean(0, 0.6, sp) == pytest.approx(abs(spherical_function(0, 0.6, sp)), rel=1e-12)


def _dips_at(monkeypatch, n, sp, dips) -> np.ndarray:
    """Substitute a scan_profile that follows |Phi_n|'s absolute boundary
    law except for a dip a million times below it at each index of dips;
    returns the scan's radii."""
    rs = spherical._scan_radii(spherical._SCAN_LO, spherical._SCAN_HI, spherical._SCAN_COUNT)
    vals = asymptotic_law(n, sp, absolute=True).evaluate(np.log1p(rs) - np.log1p(-rs))
    vals[dips] *= 1e-7
    monkeypatch.setattr(spherical, "scan_profile", lambda n, sp: (rs, vals))
    return rs


@pytest.mark.parametrize("dips", [[0], [10, 700], [1898]])
def test_zero_free_radius_starts_past_the_last_dip(dips, monkeypatch):
    sp = make_spectral(1j)
    rs = _dips_at(monkeypatch, 1, sp, dips)
    zf = zero_free_radius(1, sp)
    assert (zf.r_min, zf.method) == (rs[dips[-1] + 1], "scan")


@pytest.mark.parametrize("dips", [[1899], [10, 1999]])
def test_a_dip_in_the_last_twentieth_of_the_scan_is_inconclusive(dips, monkeypatch):
    # int(0.95 * 2000) - 1 = 1899 is the first index too close to the boundary
    sp = make_spectral(1j)
    rs = _dips_at(monkeypatch, 1, sp, dips)
    with pytest.raises(ScanInconclusive, match=f"r = {rs[dips[-1]]:.6f}"):
        zero_free_radius(1, sp)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    # real lam >= -1/4: the critical point itself, or the generic half-line
    lam=st.one_of(st.just(-0.25), st.floats(-0.25, 30.0)),
    n=st.integers(1, 3),
    rs=st.lists(st.floats(0.05, 1.0 - 1e-5), min_size=1, max_size=8),
    r=st.floats(0.05, 0.999),
)
def test_polyspherical_functions_are_positive_for_real_lam_above_the_critical_point(lam, n, rs, r):
    sp = make_spectral(lam)
    vals = closed_form_many(rs, sp, n)
    assert np.all(vals.real > 0), (lam, n, vals)
    assert np.all(vals.imag == 0.0), (lam, n, vals)
    # Positivity rests on the vanishing odd log moments of P^{1/2}: the
    # means of P^s and P^{1-s} agree, so d^(2n+1)/ds^(2n+1) vanishes at 1/2.
    odd = ComplexPoly.monomial(2 * n + 1)
    moment = ref_kernel_mean(odd, 0.5, r)
    assert abs(moment) <= 1e-12 * ref_kernel_mean(odd, 0.5, r, use_abs=True).real
