"""Dense complex polynomials used by the kernel calculus."""

import numpy as np
import pytest

from hypolib.polynomials import ComplexPoly


def test_evaluate_matches_numpy_polyval():
    coeffs = (1.5, -2.0j, 0.25 + 0.1j, 3.0)
    p = ComplexPoly.from_coeffs(coeffs)
    for z in (0.0, 1.0, -0.3 + 0.7j, 2.5j):
        want = np.polyval(list(reversed(coeffs)), z)
        assert p.evaluate(z) == pytest.approx(want, rel=1e-14, abs=0)


def test_evaluate_accepts_arrays():
    p = ComplexPoly.from_coeffs((0.0, 0.0, 1.0))
    zs = np.array([1.0, 2.0, 1j])
    assert np.allclose(p.evaluate(zs), zs**2)


def test_monomial_and_degree():
    p = ComplexPoly.monomial(3, 2.0)
    assert len(p.coeffs) == 4
    assert p.evaluate(2.0) == pytest.approx(16.0)
    assert ComplexPoly.from_coeffs((5.0,)).coeffs == (5 + 0j,)


def test_differentiate_power_rule():
    p = ComplexPoly.from_coeffs((1.0, 1.0, 1.0, 1.0))  # 1 + w + w^2 + w^3
    dp = p.differentiate()
    for z in (0.5, -1.2j):
        assert dp.evaluate(z) == pytest.approx(1 + 2 * z + 3 * z**2, rel=1e-14, abs=0)


def test_add_scale_zero():
    p = ComplexPoly.from_coeffs((1.0, 2.0))
    q = ComplexPoly.from_coeffs((0.0, -2.0, 4.0))
    s = p.add(q)
    assert s.evaluate(1.5) == pytest.approx(p.evaluate(1.5) + q.evaluate(1.5), rel=1e-14, abs=0)
    assert p.scale(3.0).evaluate(2.0) == pytest.approx(3.0 * p.evaluate(2.0), rel=1e-14, abs=0)
    z = p.add(p.scale(-1.0))
    assert z.coeffs == (0j,)


def test_max_abs_diff():
    p = ComplexPoly.from_coeffs((1.0, 2.0, 3.0))
    q = ComplexPoly.from_coeffs((1.0, 2.0, 3.0 + 1e-9j))
    assert p.max_abs_diff(q) == pytest.approx(1e-9, rel=1e-6)
    assert p.max_abs_diff(p) == 0.0
