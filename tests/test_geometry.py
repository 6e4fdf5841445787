"""Disk geometry: kernel formula, frames, invariance under disk automorphisms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypolib.geometry import RadialFrame, ensure_disk, poisson_radial_profile


def raw_kernel(z: complex, xi: complex) -> float:
    return (1.0 - abs(z) ** 2) / abs(xi - z) ** 2


def kernel(z: complex, xi):
    """P(z, xi) for boundary point(s) xi, as the library takes it: the
    radial profile at |z| and the angle from xi to z."""
    return poisson_radial_profile(abs(z), cmath.phase(z) - np.angle(xi))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poisson_kernel_matches_raw_formula(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        z = (0.95 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        xi = cmath.exp(2j * math.pi * rng.random())
        assert kernel(z, xi) == pytest.approx(raw_kernel(z, xi), rel=1e-13, abs=0)


def test_poisson_kernel_center_and_positivity():
    xi = np.exp(1j * np.linspace(-math.pi, math.pi, 17))
    vals = kernel(0j, xi)
    assert np.allclose(vals, 1.0)
    vals = kernel(0.77 * cmath.exp(0.3j), xi)
    assert np.all(vals > 0)


def test_radial_profile_matches_points_and_survives_tiny_angles():
    r = 0.999999
    phi = np.array([0.0, 1e-9, 1e-5, 0.1, math.pi])
    prof = poisson_radial_profile(r, phi)
    direct = [raw_kernel(r + 0j, cmath.exp(1j * p)) for p in phi]
    assert np.allclose(prof, direct, rtol=1e-9)
    # 1 - r^2 in doubles costs ~6 digits this close to the boundary
    assert prof[0] == pytest.approx((1 + r) / (1 - r), rel=1e-9)


def test_radial_frame_round_trip():
    # r = tanh(R/2)
    fr = RadialFrame.from_r(math.tanh(1.5))
    assert fr.R == pytest.approx(3.0, rel=1e-12, abs=0)
    assert fr.tau == pytest.approx(2.0 * math.sqrt(fr.r) / (1.0 - fr.r), rel=1e-12, abs=0)


def test_ensure_disk_rejects_boundary_and_outside():
    with pytest.raises(ValueError):
        ensure_disk(1.0 + 0j)
    with pytest.raises(ValueError):
        ensure_disk(1.2j)


def _disk_point(modulus: float, angle: float) -> complex:
    return modulus * cmath.exp(1j * angle)


DISK = st.builds(_disk_point, st.floats(0.0, 0.9), st.floats(-math.pi, math.pi))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(z=DISK, a=DISK, angle=st.floats(-math.pi, math.pi), turn=st.floats(-math.pi, math.pi))
def test_poisson_kernel_is_mobius_invariant(z, a, angle, turn):
    """P(z, xi) |dxi| is harmonic measure, so for a disk automorphism T,
    P(Tz, T xi) |T'(xi)| = P(z, xi).  T is a rotation after the map
    u -> (u + a)/(1 + conj(a) u) that sends 0 to a."""
    rot = cmath.exp(1j * turn)

    def T(u: complex) -> complex:
        return rot * (u + a) / (1.0 + a.conjugate() * u)

    xi = cmath.exp(1j * angle)
    derivative = (1.0 - abs(a) ** 2) / abs(1.0 + a.conjugate() * xi) ** 2
    moved = kernel(T(z), T(xi)) * derivative
    assert moved == pytest.approx(kernel(z, xi), rel=1e-10)
