"""Spectral parameters, the graded kernel family, and its reduction."""

import cmath
import math

import numpy as np
import pytest

from hypolib.errors import ResultOverflow
from hypolib.kernels import (
    fd_verify_kernel,
    kernel_poly,
    make_spectral,
    polyharmonic_kernel,
    reduce_step,
    verify_reduce_chain,
)

# sqrt(i + 1/4) on the principal branch, 30-digit arithmetic
MU_AT_I = 0.80024259022012042 + 0.62481053384382659j


def test_spectral_kinds():
    assert make_spectral(2.0).kind == "generic"
    assert make_spectral(-0.25).kind == "critical"
    assert make_spectral(-1.0).kind == "forbidden"
    assert make_spectral(-0.25 + 1e-12j).kind == "generic"


def test_spectral_rejects_non_finite_lambda():
    for lam in (math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)):
        with pytest.raises(ValueError):
            make_spectral(lam)


def test_spectral_mu_values():
    assert make_spectral(2.0).mu == pytest.approx(1.5, rel=1e-14, abs=0)
    assert make_spectral(-0.25).mu == 0j
    assert make_spectral(-1.0).mu == pytest.approx(1j * math.sqrt(0.75), rel=1e-14, abs=0)
    assert make_spectral(1j).mu == pytest.approx(MU_AT_I, rel=1e-13, abs=0)


@pytest.mark.parametrize("lam", [3.0, -0.2, 1j, -2 + 0.5j, -5 - 1j])
def test_mu_round_trip_and_principal_branch(lam):
    sp = make_spectral(lam)
    assert sp.mu**2 - 0.25 == pytest.approx(lam, rel=1e-12, abs=1e-12)
    assert sp.mu.real >= 0.0
    assert sp.exponent == sp.mu + 0.5


def test_lam_star_is_real_part_spectrum():
    sp = make_spectral(1j)
    assert sp.lam_star == pytest.approx(MU_AT_I.real**2 - 0.25, rel=1e-12, abs=0)
    assert make_spectral(-1.0).lam_star is None


def test_kernel_poly_generic_coefficients():
    sp = make_spectral(2.0)  # mu = 3/2
    g2 = kernel_poly(2, sp)
    # w^2 / (2! (2 mu)^2) = w^2 / 18
    assert g2.evaluate(1.0) == pytest.approx(1.0 / 18.0, rel=1e-14, abs=0)
    assert len(g2.coeffs) == 3


def test_kernel_poly_critical_uses_doubled_degree():
    sp = make_spectral(-0.25)
    g1 = kernel_poly(1, sp)
    assert len(g1.coeffs) == 3
    assert g1.evaluate(2.0) == pytest.approx(2.0, rel=1e-14, abs=0)  # w^2/2 at w=2


def test_kernel_poly_coefficient_in_double_range():
    # 2 mu = 1 at lam = 0, so the coefficient is 1/n!, a double up to n = 170
    assert kernel_poly(170, make_spectral(0.0)).coeffs[-1] == 1.0 / math.factorial(170)
    for n, lam in ((171, 0.0), (400, 2.0), (170, 2.0), (86, -0.25), (3, -0.25 + 1e-300j)):
        with pytest.raises(ResultOverflow, match=rf"order-{n} kernel coefficient at lam = "):
            kernel_poly(n, make_spectral(lam))


def test_kernel_overflow_is_a_typed_error():
    sp = make_spectral(1e300)
    for xi in (0.0, np.array([0.0, 1.0])):
        with pytest.raises(
            ResultOverflow, match=r"order-0 kernel at lam = \(1e\+300\+0j\).* z = \(0\.5\+0j\)$"
        ):
            polyharmonic_kernel(0, 0.5, xi, sp)


def test_fd_residual_overflow_is_a_typed_error():
    with pytest.raises(
        ResultOverflow, match=r"order-0 kernel at lam = \(1000000\+0j\).* near z = \(0\.5\+0j\)$"
    ):
        fd_verify_kernel(0, 0.5, 0.0, make_spectral(1e6), 1e-3)


def test_polyharmonic_kernel_matches_manual_formula():
    xi_angle = 0.7
    xi = cmath.exp(1j * xi_angle)
    z = -0.153 - 0.197j
    p = (1 - abs(z) ** 2) / abs(xi - z) ** 2
    for lam in (2.0, 1j):
        sp = make_spectral(lam)
        want0 = cmath.exp(sp.exponent * math.log(p))
        assert polyharmonic_kernel(0, z, xi_angle, sp) == pytest.approx(want0, rel=1e-13, abs=0)
        g1 = math.log(p) / (2.0 * sp.mu)
        assert polyharmonic_kernel(1, z, xi_angle, sp) == pytest.approx(
            g1 * want0, rel=1e-13, abs=0
        )
    assert polyharmonic_kernel(0, z, xi_angle, make_spectral(2.0)) == pytest.approx(
        p**2, rel=1e-13, abs=0
    )


def test_kernel_rejects_complex_boundary_input():
    sp = make_spectral(2.0)
    with pytest.raises(TypeError):
        polyharmonic_kernel(0, 0.2j, cmath.exp(0.5j), sp)


def test_kernel_accepts_angle_arrays():
    sp = make_spectral(1j)
    angles = np.linspace(-math.pi, math.pi, 9)
    vals = polyharmonic_kernel(1, 0.4 + 0.1j, angles, sp)
    assert vals.shape == angles.shape
    single = polyharmonic_kernel(1, 0.4 + 0.1j, float(angles[3]), sp)
    assert vals[3] == pytest.approx(single, rel=1e-13, abs=0)


@pytest.mark.parametrize("lam", [2.0, 0.5, 1j, 1 + 1j, -0.25, -1.0])
def test_reduce_chain_terminates_cleanly(lam):
    sp = make_spectral(lam)
    for n in range(7):
        rep = verify_reduce_chain(n, sp, tol=1e-12)
        assert rep.final_residual <= 1e-12


def test_reduce_step_drops_one_degree_and_closes():
    sp = make_spectral(2.0)
    g2 = kernel_poly(2, sp)
    stepped = reduce_step(g2, sp)
    assert len(stepped.coeffs) == 2
    # one step from order 1 lands exactly on the constant 1
    final = reduce_step(kernel_poly(1, sp), sp)
    assert len(final.coeffs) == 1
    assert final.evaluate(0.0) == pytest.approx(1.0, rel=1e-14, abs=0)


@pytest.mark.parametrize("lam", [2.0, -0.25, 1j])
def test_fd_residual_second_order(lam):
    sp = make_spectral(lam)
    hs = [4e-3, 2e-3, 1e-3]
    for n in (0, 1):
        res = [fd_verify_kernel(n, 0.24 + 0.31j, -1.73, sp, h) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert slope > 1.9, f"n={n}: residuals {res}"
