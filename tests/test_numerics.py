"""Quadrature, series, FFT helpers, and the discrete Laplacian."""

import cmath
import importlib
import inspect
import math

import mpmath as mp
import numpy as np
import pytest

from hypolib import numerics
from hypolib.errors import CancellationLoss, NonConvergence, ResultOverflow, StencilOutOfDomain
from hypolib.kernels import make_spectral
from hypolib.numerics import (
    circle_fft,
    fd_laplacian,
    gauss_2f1,
    gauss_2f1_many,
    integrate_circle,
    integrate_halfline_peak,
    integrate_panels,
)
from hypolib.spherical import _row_primitive, _row_primitives


def test_no_public_function_takes_a_quadrature_knob():
    # one quadrature policy: no spec or refine parameter anywhere public
    modules = [importlib.import_module(f"hypolib.{m}") for m in (
        "acceptance", "classical", "cli", "errors", "geometry", "kernels", "numerics",
        "polynomials", "regions", "spherical", "transforms")]
    checked = 0
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if callable(obj):
                try:
                    params = inspect.signature(obj).parameters
                except (TypeError, ValueError):
                    continue
                assert not {"spec", "refine"} & set(params), f"{mod.__name__}.{name}"
                checked += 1
    assert checked > 50
    assert not hasattr(numerics, "QuadratureSpec") and not hasattr(numerics, "DEFAULT_SPEC")


# c - a - b after the Pfaff step: 2.2 - 0.1i, 0.3 + 0.3i, and the integer 0
# of the critical spherical function, where the jets take the Cauchy mean
@pytest.mark.parametrize("a,b,c", [
    (0.3 + 0.2j, 1.7 - 0.4j, 2.5 + 0.1j), (1.2, -0.7 + 0.3j, 0.6), (0.5, 0.5, 1.0)])
def test_gauss_2f1_jets_match_mpmath_taylor(a, b, c):
    xs = [-0.3, -0.9, -20.0, -1e4]
    got = gauss_2f1_many(a, b, c, xs, 3)
    assert got.shape == (4, 4)
    for j, x in enumerate(xs):
        with mp.workdps(30):
            want = [complex(v) for v in mp.taylor(lambda e: mp.hyp2f1(a + e, b - e, c, x), 0, 3)]
        scale = max(abs(v) for v in want)
        assert max(abs(g - v) for g, v in zip(got[:, j], want)) <= 1e-14 * scale, x
    # row 0 is the value itself
    assert np.allclose(got[0], gauss_2f1_many(a, b, c, xs), rtol=1e-14, atol=0.0)


def test_gauss_2f1_cancellation_is_a_typed_error():
    # F(1/2 + i tau, 1/2 - i tau; 1; x) at tau = 31.6 (lam = -1000): the
    # series terms exceed the sum by 1e6 and more from x = -1/3 on
    mu = 1j * math.sqrt(999.75)
    with pytest.raises(CancellationLoss) as info:
        gauss_2f1_many(0.5 + mu, 0.5 - mu, 1.0, [-1e-4, -0.5625])
    assert info.value.index == 1


def test_gauss_2f1_log_identity():
    # 2F1(1,1;2;x) = -log(1-x)/x
    assert gauss_2f1(1.0, 1.0, 2.0, -0.5) == pytest.approx(0.81093021621632876, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "a,b,c,x",
    [
        (0.5, 1.5, 1.0, -0.36),
        (2.0 + 1.0j, 0.5, 1.0, -0.7),
        (0.25 - 0.3j, 0.25 + 0.3j, 1.0, -4.0),
        (1.5, 1.5, 1.0, -120.0),
    ],
)
def test_gauss_2f1_against_mpmath(a, b, c, x):
    want = complex(mp.hyp2f1(a, b, c, x))
    assert gauss_2f1(a, b, c, x) == pytest.approx(want, rel=1e-11)


def test_gauss_2f1_rejects_positive_argument():
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 0.5, 1.0, 0.25)


def test_gauss_2f1_many_matches_scalar():
    xs = np.array([-0.9, -0.3, 0.0, -4.5, -50.0])
    batch = gauss_2f1_many(0.75, 1.25 + 0.5j, 1.0, xs)
    single = [gauss_2f1(0.75, 1.25 + 0.5j, 1.0, float(x)) for x in xs]
    assert np.allclose(batch, single, rtol=1e-12)


def test_gauss_2f1_many_rejects_what_it_cannot_evaluate():
    for a, b, c, xs in (
        (0.5, 0.5, 1.0, [-1.0, math.nan]),
        (0.5, 0.5, 1.0, [-math.inf]),
        (math.nan, 0.5, 1.0, [-1.0]),
        (0.5, 0.5, -2.0, [-1.0]),
    ):
        with pytest.raises(ValueError):
            gauss_2f1_many(a, b, c, xs)


def test_integrate_circle_projects_fourier_modes():
    for k in (0, 1, -3):
        got = integrate_circle(lambda p, k=k: np.exp(1j * k * p))
        assert got == pytest.approx(1.0 if k == 0 else 0.0, abs=1e-12)


def test_integrate_circle_peaked_kernel_has_unit_mean():
    r = 0.9999
    tau = 2.0 * math.sqrt(r) / (1.0 - r)
    val = integrate_circle(
        lambda p: (1 - r * r) / ((1 - r) ** 2 + 4 * r * np.sin(0.5 * p) ** 2),
        peak_scale=min(1.0, 1.0 / tau),
    )
    assert val == pytest.approx(1.0, rel=1e-11)


def test_integrate_circle_honors_breakpoints():
    half = math.pi / 3
    f = lambda p: (np.abs(np.remainder(p + math.pi, 2 * math.pi) - math.pi) <= half) * 1.0
    got = integrate_circle(f, breakpoints=(-half, half))
    assert got == pytest.approx(half / math.pi, rel=1e-10)


def test_integrate_panels_polynomial():
    got = integrate_panels(lambda x: x**2, edges=[0.0, 0.4, 1.0], order=8)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-13, abs=0)


def test_integrate_halfline_peak_finite_window():
    # the window is [0, tau], log-spaced toward 0
    got = integrate_halfline_peak(lambda t: np.exp(-t), tau=3.0)
    assert got == pytest.approx(1.0 - math.exp(-3.0), rel=1e-10)
    got = integrate_halfline_peak(lambda t: 1.0 / (1.0 + t * t), tau=40.0)
    assert got == pytest.approx(math.atan(40.0), rel=1e-10)


def test_cumulative_panels_integrate_up_to_each_point():
    # the kernel row's primitive (spherical._row_primitive) at lam = 0, n = 0:
    # the Poisson kernel, of width 1e-4 at r = 0.9999, whose primitive is
    # 2 atan((1 + r) tan(x/2) / (1 - r)), odd in x
    r = 0.9999
    points = np.array([0.0, (1 - r) / 3, 1 - r, 0.3, 1.7, math.pi, -0.3, -math.pi])
    got = _row_primitive(0, make_spectral(0.0), r, points)(points)
    want = 2.0 * np.arctan2((1 + r) * np.sin(points / 2), (1 - r) * np.cos(points / 2))
    assert np.max(np.abs(got - want)) <= 1e-14
    # a point's value does not depend on the other points
    more = np.concatenate([points, np.linspace(0.0, 3.0, 17)])
    assert _row_primitive(0, make_spectral(0.0), r, more)(points).tolist() == got.tolist()


def test_cumulative_panels_raise_typed_errors():
    # a row turning too fast for the cap, and a row past double range
    with pytest.raises(NonConvergence, match=r"^order-0 kernel row integral at lam = \(-30000\+1j\), r = 0.9: "):
        _row_primitive(0, make_spectral(-3e4 + 1j), 0.9, [1.0])
    with pytest.raises(ResultOverflow), np.errstate(over="ignore"):
        _row_primitive(0, make_spectral(1e6), 0.9999, [0.5])


def test_a_ladder_raises_at_its_first_refused_rung():
    # at lam = -3e4 + i the row turns too fast for the cap at r = 0.9 and
    # 0.99, not at r = 0.3 or 0.5: the ladder names the first refused rung
    # in its own order
    sp = make_spectral(-3e4 + 1j)
    xs = np.array([0.5, 1.0, 3.0])
    prefix = r"^order-0 kernel row integral at lam = \(-30000\+1j\), "
    with pytest.raises(NonConvergence, match=prefix + r"r = 0.9: "):
        _row_primitives(0, sp, [(0.3, xs), (0.9, xs), (0.5, xs), (0.99, xs)])
    with pytest.raises(NonConvergence, match=prefix + r"r = 0.99: "):
        _row_primitives(0, sp, [(0.5, xs), (0.99, xs), (0.9, xs)])


def test_fd_laplacian_eigenrelation_for_kernel_powers():
    # Lam P^s = s(s-1) P^s for the disk kernel P
    xi = cmath.exp(0.7j)
    z = 0.31 - 0.12j
    s = 2.0

    def f(w):
        return ((1 - abs(w) ** 2) / abs(xi - w) ** 2) ** s

    want = s * (s - 1) * f(z)
    errs = [abs(fd_laplacian(f, z, h) - want) for h in (4e-3, 2e-3, 1e-3)]
    assert errs[2] < errs[0]
    slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
    assert slope > 1.9


def test_fd_laplacian_stencil_guard():
    with pytest.raises(StencilOutOfDomain):
        fd_laplacian(lambda w: abs(w), 0.999 + 0j, h=1e-2)


def test_circle_fft_recovers_coefficients():
    n = 256
    phi = 2 * math.pi * np.arange(n) / n
    samples = 3.0 + 2.0 * np.exp(1j * phi) - np.exp(-2j * phi)
    coeffs = circle_fft(samples)
    assert coeffs[0 % n] == pytest.approx(3.0, abs=1e-12)
    assert coeffs[1 % n] == pytest.approx(2.0, abs=1e-12)
    assert coeffs[-2 % n] == pytest.approx(-1.0, abs=1e-12)
    assert coeffs[5 % n] == pytest.approx(0.0, abs=1e-12)



def _disk_grid(seed: int, radius: float, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * math.pi * rng.random(count))


def _log_error(got: complex, z: complex) -> float:
    """|got - log Gamma(z)| modulo 2 pi i, against mpmath at 40 digits."""
    with mp.workdps(40):
        d = mp.mpc(got) - mp.loggamma(mp.mpc(z))
        return float(abs(d - 2j * mp.pi * mp.nint(d.imag / (2 * mp.pi))))


@pytest.mark.parametrize(
    "radius,bound", [(1.0, 3e-15), (3.0, 4e-15), (10.0, 1.5e-14), (100.0, 2e-13), (1000.0, 3e-12)]
)
def test_loggamma_matches_mpmath(radius, bound):
    zs = _disk_grid(int(radius), radius, 250)
    assert max(_log_error(numerics._loggamma(z), z) for z in zs) <= bound


def test_loggamma_left_half_plane_does_not_overflow():
    # reflection at Re z < 0, |Im z| up to 1e3, where sin(pi z) leaves double range
    rng = np.random.default_rng(11)
    zs = -rng.uniform(0.0, 1e3, 200) + 1j * rng.choice([-1, 1], 200) * rng.uniform(10.0, 1e3, 200)
    for z in zs:
        got = numerics._loggamma(z)
        assert cmath.isfinite(got)
        assert _log_error(got, z) <= 3e-12, z


def test_a_denominator_pole_gives_a_vanishing_coefficient():
    assert numerics._loggamma(-2.0) == complex(math.inf)
    # c - a = -1: Gamma(c - a) has a pole, so the first coefficient vanishes
    a, b, c = 2.0 + 0j, 0.3 + 0j, 1.0 + 0j
    first, second = numerics._connection_logs(a, b, c)
    assert first == complex(-math.inf)
    with mp.workdps(40):
        want = mp.log(mp.gammaprod([c, a + b - c], [a, b]))
    assert abs(cmath.exp(second) - complex(mp.exp(want))) <= 1e-14 * abs(complex(mp.exp(want)))
    w = np.array([0.3])
    assert numerics._connection_jet(a, b, c, w, -np.log(w), 2) is None


@pytest.mark.parametrize("j", range(6))
def test_polygamma_matches_mpmath(j):
    # |z| <= 30 at least 0.1 from the poles, and far out on both sides
    zs = [z for z in _disk_grid(40 + j, 30.0, 120) if abs(z - round(z.real)) >= 0.1 or z.real > 0]
    zs += [-400.3 + 2j, 3.0 - 900j, -250.0 + 250j, 0.2 + 1e-3j]
    worst = 0.0
    for z in zs:
        with mp.workdps(40):
            want = complex(mp.polygamma(j, mp.mpc(z)))
        worst = max(worst, abs(numerics._polygamma(j, z) - want) / max(1.0, abs(want)))
    assert worst <= 1e-14
