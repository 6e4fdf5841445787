"""Flat-case mode weights and the gap-series construction."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from hypolib import classical
from hypolib.classical import (
    _CIRCLE_N_MAX,
    LacunarySpec,
    associate_deviation_bound,
    associated_biharmonic,
    demo_lacunary_spec,
    lacunary_associate_probe,
    lacunary_circle_sup,
    lacunary_function,
    lacunary_growth_probe,
    lacunary_series,
    lacunary_witness,
    radial_log_weight,
    runge_spiral_fit,
    spiral_deviation,
)
from hypolib.errors import FitFailed, ResultOverflow
from hypolib.polynomials import ComplexPoly


def brute_weight(n: int, r: float) -> float:
    # exact: sum_k x^k/(k+n) = x^-n (-log(1-x) - sum_{j<=n} x^j/j)
    mp.mp.dps = 40
    x = mp.mpf(r) ** 2
    if x == 0:
        tail = mp.mpf(0)
    else:
        tail = -mp.log(1 - x) - sum(x**j / j for j in range(1, n + 1))
        tail /= x**n
    harmonic = sum(mp.mpf(1) / j for j in range(1, n + 1))
    return float(harmonic + tail)


def test_weight_at_zero_is_the_harmonic_number():
    assert radial_log_weight(0, 0.0) == 0.0
    assert radial_log_weight(3, 0.0) == pytest.approx(1 + 0.5 + 1 / 3, rel=1e-14, abs=0)


def test_weight_closed_forms():
    for r in (0.2, 0.7, 0.99):
        assert radial_log_weight(0, r) == pytest.approx(-math.log1p(-r * r), rel=1e-13, abs=0)
        # exact identity: the order-1 weight is the order-0 one over r^2
        assert radial_log_weight(1, r) == pytest.approx(
            radial_log_weight(0, r) / (r * r), rel=1e-13, abs=0
        )


@pytest.mark.parametrize(
    "n,r",
    [(2, 0.3), (5, 0.9), (3, 0.999), (7, 0.99999), (4, 1e-4), (1, 0.5)],
)
def test_weight_matches_direct_summation(n, r):
    assert radial_log_weight(n, r) == pytest.approx(brute_weight(n, r), rel=1e-11)


@pytest.mark.parametrize(
    "n,r", [(100_000, 0.99999), (30_000, 0.99999), (70_000, 0.999999), (1 << 21, 1 - 1e-7)]
)
def test_block_sums_match_the_lerch_transcendent(n, r):
    # sum_{k>=1} x^k/(k+n) = x Phi(x, 1, n+1), taken at the double x = r*r the
    # code sums over; the direct tail and the partial sum here run over up to
    # 2.4e6 and 2^21 terms, in many blocks
    mp.mp.dps = 40
    x = mp.mpf(r * r)
    want = mp.harmonic(n) + x * mp.lerchphi(x, 1, n + 1)
    assert radial_log_weight(n, r) == pytest.approx(float(want), rel=1e-14, abs=0)


@pytest.mark.parametrize("n,r", [(20_000, 0.96), (10**6, 0.95), (10**7, 0.99)])
def test_the_large_mode_expansion_matches_the_lerch_transcendent(n, r):
    # n >= 1000 / (1 - r^2) with r^2 > 0.9: the tail's four-term expansion in
    # 1/n, within about 1e-16 of the 40-digit value; scaling its fourth term
    # by 1.5 moves the first case by 4e-14
    with mp.workdps(40):
        x = mp.mpf(r * r)
        want = float(mp.harmonic(n) + x * mp.lerchphi(x, 1, n + 1))
    # pytest.approx would add its default absolute 1e-12, which passes that mutant
    assert abs(radial_log_weight(n, r) - want) <= 1e-14 * want


def test_weight_mode_expansion_via_fft():
    # log(1/|1 - z e^{-i phi}|^2) has cosine coefficients r^m/m; the
    # transform weights follow from termwise integration
    from hypolib.numerics import circle_fft

    r = 0.6
    size = 2048
    phi = 2 * math.pi * np.arange(size) / size
    f = -np.log(np.abs(1 - r * np.exp(-1j * phi)) ** 2)
    coeffs = circle_fft(f)
    for m in (1, 2, 5):
        assert coeffs[m % size] == pytest.approx(r**m / m, abs=1e-12)


def test_spiral_fit_is_reported_infeasible():
    with pytest.raises(FitFailed):
        runge_spiral_fit(degree_budget=12, sample_count=256)


def test_demo_spec_shape_and_band_gap():
    spec = demo_lacunary_spec()
    assert spec.poly.evaluate(0.0) == 0.0
    assert sum(abs(c) for c in spec.poly.coeffs) <= 8.0 + 1e-12
    # documents why it is a stand-in: the 5/3 band is far out of reach
    assert spiral_deviation(spec.poly, sample_count=1024) > 2.0


def test_lacunary_function_matches_its_series():
    spec = demo_lacunary_spec()
    series = lacunary_series(spec)
    rng = np.random.default_rng(11)
    for _ in range(6):
        z = (0.97 * rng.random()) * np.exp(2j * math.pi * rng.random())
        direct = lacunary_function(complex(z), spec)
        summed = sum(c * complex(z) ** e for e, c in series.terms)
        assert direct == pytest.approx(summed, rel=1e-10, abs=1e-12)
    assert lacunary_function(0j, spec) == 0j


def test_growth_stays_under_the_envelope():
    spec = demo_lacunary_spec()
    rep = lacunary_growth_probe(spec, radii=[1 - 10.0**-k for k in range(1, 6)])
    assert math.isfinite(rep["max_ratio"])
    assert rep["max_ratio"] <= rep["fitted_constant"] * (1 + 1e-12)


@pytest.mark.parametrize("radius", [0.0, 1.0, 2.0, -0.5])
def test_the_gap_series_probes_refuse_radii_outside_the_open_interval(radius):
    spec = demo_lacunary_spec()
    for probe in (lacunary_growth_probe, lacunary_associate_probe):
        with pytest.raises(ValueError, match=rf"radius must lie in \(0, 1\), got {radius}$"):
            probe(spec, [0.5, radius])


def test_circle_sup_frozen_value():
    spec = demo_lacunary_spec()
    sup = lacunary_circle_sup(2, spec, grid_size=1 << 16)
    assert sup.radius == pytest.approx(1.0 - 2.0 ** (-2 * math.sqrt(2)), rel=1e-14, abs=0)
    assert sup.value == pytest.approx(6.8995033096161391, rel=1e-9)


def full_grid_circle_sup(N, gap, grid_size):
    """Sampled circle sup summed over every grid node, as a reference."""
    expo = math.factorial(N) * math.sqrt(N)
    log_r = math.log1p(-(2.0 ** (-expo)))
    denom = expo * math.log(2.0)
    base = np.arange(grid_size, dtype=np.int64)
    acc = np.zeros(grid_size, dtype=complex)
    for k in range(1, gap.k_max + 1):
        bits = math.factorial(k)
        mod = math.exp(math.ldexp(log_r, bits))
        if mod == 0.0:
            continue
        stride = pow(2, bits, grid_size)
        ang = 2.0 * math.pi * ((stride * base) % grid_size) / grid_size
        w = mod * np.exp(1j * ang)
        acc += math.factorial(k) * gap.poly.evaluate(w)
    return float(np.max(np.abs(acc))) / denom


# the demo polynomial peaks at node 0, where every term is real and positive;
# this one peaks elsewhere, so a misplaced term shows in the sup
_TWISTED_SPEC = LacunarySpec(poly=ComplexPoly.from_coeffs((0, 7, 2j, -1, 0.5 - 3j)))


@pytest.mark.parametrize("grid_size", [12, 1000, 4096, 1 << 16])
@pytest.mark.parametrize("spec", [demo_lacunary_spec(), _TWISTED_SPEC], ids=["demo", "twisted"])
def test_circle_sup_over_one_period_is_bit_identical(spec, grid_size):
    # 12 and 1000 are not powers of two; their term periods are 6, 3, 3
    # and 500, 250, 125
    for N in (1, 2, 3, 4):
        assert lacunary_circle_sup(N, spec, grid_size=grid_size).value == full_grid_circle_sup(
            N, spec, grid_size
        )


@pytest.mark.parametrize("grid_size", [4096, 4095])
@pytest.mark.parametrize("spec", [demo_lacunary_spec(), _TWISTED_SPEC], ids=["demo", "twisted"])
def test_circle_sup_in_small_blocks_is_bit_identical(monkeypatch, spec, grid_size):
    # with 64-node blocks, 4096 nodes give term periods 2048 and 1024
    # (evaluated per block), 64 (tabulated) and, at N = 4, 1; every period
    # of the odd 4095 is 4095, so each term is evaluated in 64 blocks
    monkeypatch.setattr(classical, "_CHUNK", 64)
    periods = [grid_size // math.gcd(pow(2, math.factorial(k), grid_size), grid_size) for k in range(1, 5)]
    assert periods == ([2048, 1024, 64, 1] if grid_size == 4096 else [4095] * 4)
    for N in (1, 2, 3, 4):
        assert lacunary_circle_sup(N, spec, grid_size=grid_size).value == full_grid_circle_sup(
            N, spec, grid_size
        )


def traced_peak_mb(fn) -> float:
    """Peak of the memory tracemalloc traces (numpy buffers included) while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_circle_sup_peak_memory():
    # the working set does not grow with the grid: one period of the sum
    # alone would take 8 MB at 2^20 nodes and 64 MB at 2^22 - 1
    for grid_size in (1 << 20, (1 << 22) - 1):
        for N in (2, 3):
            assert traced_peak_mb(lambda: lacunary_circle_sup(N, demo_lacunary_spec(), grid_size)) <= 12


@pytest.mark.parametrize(
    "n,r",
    [(100_000, 0.99999), (30_000, 0.99999), (1 << 21, 1 - 1e-7)],
    ids=["direct-tail", "partial-sum", "partial-sum-2^21"],
)
def test_weight_sums_run_in_blocks(n, r):
    # the direct tail sums 2.4e6 terms; one array of them would take 19 MB
    assert traced_peak_mb(lambda: radial_log_weight.__wrapped__(n, r)) <= 4


def test_circle_sup_refuses_bad_input():
    spec = demo_lacunary_spec()
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        lacunary_circle_sup(0, spec)
    for size in (0, -4):
        with pytest.raises(ValueError, match=f"grid_size must be >= 1, got {size}"):
            lacunary_circle_sup(2, spec, grid_size=size)
    assert math.isfinite(math.factorial(_CIRCLE_N_MAX) * math.sqrt(_CIRCLE_N_MAX))
    with pytest.raises(OverflowError):
        math.factorial(_CIRCLE_N_MAX + 1) * math.sqrt(_CIRCLE_N_MAX + 1)
    assert math.isfinite(lacunary_circle_sup(_CIRCLE_N_MAX, spec, grid_size=12).value)
    with pytest.raises(ResultOverflow, match=f"at N = {_CIRCLE_N_MAX + 1} "):
        lacunary_circle_sup(_CIRCLE_N_MAX + 1, spec, grid_size=12)


def test_witness_points_push_past_unit_scale():
    spec = demo_lacunary_spec()
    for N in (2, 3):
        w = lacunary_witness(N, spec)
        assert w.ratio > 0.8
        stride = 1 << math.factorial(N)
        assert w.z**stride == pytest.approx(w.spiral_point, rel=1e-10)
        assert w.poly_value == pytest.approx(
            spec.poly.evaluate(w.spiral_point), rel=1e-12, abs=0
        )


def test_associate_field_scales_like_distance_squared():
    spec = demo_lacunary_spec()
    series = lacunary_series(spec)
    for r in (0.9, 0.99):
        big_r = math.log((1 + r) / (1 - r))
        f = associated_biharmonic(series, r + 0j)
        assert abs(f) / big_r**2 < 20.0
        assert associate_deviation_bound(series, r) > 0
