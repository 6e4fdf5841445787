"""Radial circle means: closed form, asymptotics, small radii, zeros."""

import math

import numpy as np
import pytest

from hypolib.errors import SlowConvergence
from hypolib.kernels import make_spectral
from hypolib.spherical import (
    abs_spherical_function,
    asymptotic_law,
    boundary_constant,
    closed_form,
    closed_form_many,
    positivity_scan,
    radial_zeros,
    small_radius_law,
    spherical_function,
    zero_free_radius,
)

# frozen against 30-digit direct quadrature of the circle mean
PHI_099_AT_I = -2.941860347845702 + 0.710678631666179j
PHI_0999_CRITICAL = 0.12795988302327248
PHI_07_GENERIC_COMPLEX = 1.6514751406978625 + 0.9368271794352357j
C_AT_I = 0.5681393132001134 - 0.2421591922904217j


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


def test_closed_form_many_matches_scalar_and_guards_radius():
    sp = make_spectral(1j)
    rs = np.array([0.2, 0.6, 0.95])
    batch = closed_form_many(rs, sp)
    for r, v in zip(rs, batch):
        assert v == pytest.approx(closed_form(float(r), sp), rel=1e-12)
    with pytest.raises(SlowConvergence):
        closed_form(0.9996, sp)


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


def test_radial_zeros_require_the_forbidden_ray():
    with pytest.raises(ValueError):
        radial_zeros(make_spectral(2.0), r_max=0.99, count=500)


def test_zero_free_radius_and_abs_mean():
    sp = make_spectral(2.0)
    zf = zero_free_radius(0, sp)
    assert 0.0 <= zf.r_min < 0.5
    assert abs_spherical_function(0, 0.6, sp) == pytest.approx(
        abs(spherical_function(0, 0.6, sp)), rel=1e-12
    )


def test_positivity_scan_clean_for_positive_kernel():
    rep = positivity_scan(1, make_spectral(2.0))
    assert rep.min_value > 0
    assert rep.max_imag < 1e-10
    with pytest.raises(ValueError):
        positivity_scan(1, make_spectral(1j))
