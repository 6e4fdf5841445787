"""Approach regions, maximal comparisons, and boundary-limit sweeps."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hypolib import spherical
from hypolib.errors import NonConvergence
from hypolib.kernels import FORBIDDEN, kernel_poly, make_spectral
from hypolib.regions import (
    _DEFAULT_SUITE,
    AdmissibleRegion,
    SampleNet,
    _angular_offsets,
    _field_at_radius,
    _grid_size,
    _hl_maxima,
    _region_sups,
    _row_fft,
    _wrapped,
    fatou_probe,
    maximal_inequality_probe,
)
from hypolib.spherical import _row_primitive, spherical_function
from hypolib.transforms import Atoms, Mixture, _zero_free_cached, density_preset
from test_doubling import ref_transform


def _rung_field(n, sp, g, r, cells, size):
    # the normalized field a maximal rung reads at the grid cells
    thetas = 2.0 * math.pi * np.asarray(cells) / size
    primitive = None
    if g.jumps:
        primitive = _row_primitive(n, sp, r, np.concatenate([_wrapped(thetas, b) for b, _ in g.jumps]))
    return _field_at_radius(n, sp, thetas, g, r, _row_fft(n, sp.lam, r, 2), primitive)


def _oracle(n, sp, g, r, cells, size):
    # the normalized transform at the grid cells, one circle quadrature per
    # cell, independent of the closed-form modes
    thetas = 2.0 * math.pi * np.asarray(cells) / size
    return ref_transform(n, sp, g, r, thetas, [b for b, _ in g.jumps]) / spherical_function(n, r, sp)


def _sup(n, sp, g, zeta, width=1.0, kind="tube", net=SampleNet()) -> float:
    # sampled sup of the normalized transform over one region
    region = AdmissibleRegion(zeta, width, kind)
    return float(_region_sups(n, sp, [g], [region], [net])[0][0, 0])


def test_enlarged_region_contains_the_tube():
    tube = AdmissibleRegion(anchor_angle=0.0, width=0.8, kind="tube")
    wide = AdmissibleRegion(anchor_angle=0.0, width=0.8, kind="enlarged")
    assert wide.effective_width(12.0) > wide.effective_width(4.0)
    assert tube.effective_width(12.0) == pytest.approx(tube.effective_width(4.0))
    # past R = 1 (r > 0.47) the enlarged window admits every tube angle
    for r in (0.5, 0.7, 0.9, 0.99, 0.9999):
        window = tube.window(r)
        assert 0.0 < window <= wide.window(r)


def test_region_rejects_unknown_kind():
    with pytest.raises(ValueError):
        AdmissibleRegion(anchor_angle=0.0, width=0.5, kind="cone")


def test_hl_maximal_constant_and_spike():
    n = 64
    assert _hl_maxima(np.full(n, 2.5), [0.3])[0] == pytest.approx(2.5, rel=1e-12, abs=0)
    spike = np.zeros(n)
    spike[0] = 1.0
    got = _hl_maxima(spike, [0.0])[0]
    assert got == pytest.approx(1.0, rel=1e-12, abs=0)  # one-cell arc at the anchor
    assert _hl_maxima(spike, [math.pi])[0] == pytest.approx(1.0 / n, rel=1e-10)


def test_sample_net_doubling():
    net = SampleNet()
    finer = net.doubled()
    assert finer.radial_rungs == 2 * net.radial_rungs
    # angular counts stay odd so the radial point is always sampled
    assert finer.angular_count == 2 * net.angular_count + 1


def test_tubular_maximal_of_constant_datum_is_unity():
    sp = make_spectral(0.0)
    got = _sup(0, sp, density_preset("one"), 0.4, 0.7, net=SampleNet(radial_rungs=4, angular_count=5))
    assert got == pytest.approx(1.0, rel=1e-8)


def test_tubular_maximal_is_the_one_region_case_of_the_suite_sups():
    sp = make_spectral(-0.25)
    net = SampleNet(radial_rungs=4, angular_count=5)
    g = density_preset("sawtooth")
    zetas = (0.0, 1.3, -2.4)
    regions = [AdmissibleRegion(z, 1.0, "enlarged") for z in zetas]
    together = _region_sups(1, sp, [g], regions, [net])[0][0]
    alone = [_sup(1, sp, g, z, kind="enlarged", net=net) for z in zetas]
    assert list(together) == alone
    assert min(alone) > 0


@pytest.mark.parametrize("lam,n", [(0.0, 0), (-0.25, 1), (1 + 1j, 0)])
def test_sweep_field_matches_the_per_point_oracle_at_the_jumps(lam, n):
    # the field a maximal rung reads, on the grid cells nearest the kinks,
    # against adaptive per-point transforms; r = 0.9999 is the deepest rung.
    # The scale is the field's max over a 512-cell subgrid and those cells.
    sp = make_spectral(lam)
    suite = dict(_DEFAULT_SUITE)
    for r in (0.99, 0.9999):
        size = _grid_size(r)
        for g in (density_preset(suite["sawtooth"]), density_preset(suite["indicator"])):
            near = [
                j % size
                for b, _ in g.jumps
                for j in range(round(b * size / (2.0 * math.pi)) - 40, round(b * size / (2.0 * math.pi)) + 41)
            ]
            coarse = np.arange(0, size, size // 512)
            field = _rung_field(n, sp, g, r, np.concatenate([near, coarse]), size)
            tol = 1e-10 * np.max(np.abs(field))
            assert np.max(np.abs(field[: len(near)] - _oracle(n, sp, g, r, near, size))) < tol


def _mp_row_mode(n, sp, r, m):
    # (1/pi) int_0^pi K_r(t) cos(mt) dt at 30 digits, panels dyadic toward the peak
    coeffs = [mpmath.mpc(complex(c)) for c in kernel_poly(n, sp).coeffs]
    with mpmath.workdps(30):
        rr = mpmath.mpf(r)

        def kernel(t):
            p = (1 - rr**2) / ((1 - rr) ** 2 + 4 * rr * mpmath.sin(t / 2) ** 2)
            logp = mpmath.log(p)
            value = sum(c * logp**j for j, c in enumerate(coeffs)) * p ** mpmath.mpc(sp.exponent)
            return value * mpmath.cos(m * t)

        edges = [0] + [(1 - rr) * 2**j for j in range(20) if (1 - rr) * 2**j < 3] + [mpmath.pi]
        return complex(mpmath.quad(kernel, edges) / mpmath.pi)


@pytest.mark.parametrize("lam,n", [(0.0, 0), (-0.25, 1), (2.0, 1), (1 + 1j, 0)])
def test_cell_synthesis_matches_the_inverse_fft(lam, n):
    # trigonometric presets summed at the cells from the rung's kernel modes,
    # against adaptive per-point transforms; the modes R_1, R_2 against
    # 30-digit quadrature
    sp = make_spectral(lam)
    for r in (0.9, 0.999, 0.9999):
        size = _grid_size(r)
        row = _row_fft(n, sp.lam, r, 2)
        assert row[0] == spherical_function(n, r, sp)
        for m in (1, 2):
            exact = _mp_row_mode(n, sp, r, m)
            assert abs(row[m] - exact) <= 1e-13 * abs(exact)
        cells = np.arange(3, size, size // 16 + 1)
        for name in ("one", "cos", "sin", "cos2"):
            g = density_preset(name)
            got = _rung_field(n, sp, g, r, cells, size)
            want = _oracle(n, sp, g, r, cells, size)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _fan_cells(reg, r, net, size):
    offs = _angular_offsets(reg, r, net.angular_count)
    return np.round((reg.anchor_angle + offs) / (2.0 * math.pi / size)).astype(int) % size


def _harmonic(name, z):
    # the Poisson integral of each preset at lam = 0, n = 0, in closed form
    r, t = abs(z), cmath.phase(z)
    if name == "one":
        return 1.0
    if name == "cos":
        return r * math.cos(t)
    if name == "cos2":
        return r * r * math.cos(2.0 * t)
    if name == "sawtooth":
        return 2.0 / math.pi * math.atan2(r * math.sin(t), 1.0 + r * math.cos(t))
    _, c, w = name.split(":")
    c, w = float(c), float(w)
    arcs = (math.atan2(r * math.sin(a), 1.0 - r * math.cos(a)) for a in (w + t - c, w - t + c))
    return (w + sum(arcs)) / math.pi


@pytest.mark.parametrize(
    "lam,n,kind", [(0.0, 0, "tube"), (-0.25, 1, "enlarged"), (1 + 1j, 0, "tube")]
)
def test_region_sups_match_an_inverse_fft_of_every_density(lam, n, kind):
    # the sweep's sups against the maxima of adaptive per-point transforms
    # on the same fan cells, and at lam = 0 against the exact harmonic
    # extensions there
    sp = make_spectral(lam)
    net = SampleNet(radial_rungs=3, angular_count=5, max_exponent=3.0)
    densities = [density_preset(preset) for _, preset in _DEFAULT_SUITE]
    regions = [AdmissibleRegion(a, 1.0, kind) for a in np.linspace(0.0, 2.0 * math.pi, 7)[:-1]]
    nets = [net, net.doubled()]
    for got, one in zip(_region_sups(n, sp, densities, regions, nets), nets):
        oracle = np.zeros_like(got)
        exact = np.zeros_like(got)
        for r in one.radii():
            if r < _zero_free_cached(n, sp.lam):
                continue
            size = _grid_size(r)
            for j, reg in enumerate(regions):
                cells = _fan_cells(reg, r, one, size)
                if not cells.size:
                    continue
                zs = r * np.exp(2j * math.pi * cells / size)
                for i, g in enumerate(densities):
                    vals = _oracle(n, sp, g, r, cells, size)
                    oracle[i, j] = max(oracle[i, j], np.max(np.abs(vals)))
                    if lam == 0.0 and n == 0:
                        exact[i, j] = max(exact[i, j], max(abs(_harmonic(g.name, z)) for z in zs))
        assert np.all(np.abs(got - oracle) <= 2e-13 * oracle)
        if lam == 0.0 and n == 0:
            assert np.all(np.abs(got - exact) <= 2e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    c=st.floats(-math.pi, math.pi),
    w=st.floats(0.05, math.pi - 0.05),
    re=st.floats(-2.0, 3.0),
    im=st.sampled_from([0.0, 0.5, -1.0, 1.5]),
    n=st.integers(0, 2),
    r=st.sampled_from(SampleNet().doubled().radii()),
)
def test_jump_field_matches_the_per_point_oracle(c, w, re, im, n, r):
    # a random indicator's field at the rung cells nearest its jumps and at
    # a few others, against adaptive per-point transforms
    sp = make_spectral(complex(re, im))
    assume(sp.kind != FORBIDDEN and r >= _zero_free_cached(n, sp.lam))
    g = density_preset(f"indicator:{c!r}:{w!r}")
    size = _grid_size(r)
    cells = [
        (round(b * size / (2.0 * math.pi)) + d) % size for b, _ in g.jumps for d in (-3, 0, 1, 4)
    ] + [size // 7, size // 3, 5 * size // 8]
    field = _rung_field(n, sp, g, r, cells, size)
    assert np.max(np.abs(field - _oracle(n, sp, g, r, cells, size))) <= 1e-10 * np.max(np.abs(field))


def test_hl_maxima_match_the_per_anchor_loop():
    grid = 2.0 * math.pi * np.arange(4096) / 4096
    zetas = 2.0 * math.pi * np.arange(16) / 16
    for _, preset in _DEFAULT_SUITE + (("narrow", "indicator:2.9:0.01"),):
        samples = density_preset(preset)(grid)
        together = _hl_maxima(samples, zetas)
        assert together.tolist() == [_hl_maxima(samples, [a])[0] for a in zetas]
        for a in zetas:
            # the one-anchor prefix-sum pass that the batch replaces
            vals = np.abs(samples)
            center = int(round(float(a) / (2.0 * math.pi / vals.size))) % vals.size
            prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([vals, vals, vals]))])
            ks = np.arange((vals.size - 1) // 2 + 1)
            sums = prefix[center + vals.size + ks + 1] - prefix[center + vals.size - ks]
            want = max(float(np.max(sums / (2 * ks + 1))), float(vals.mean()))
            assert _hl_maxima(samples, [a])[0] == want


def test_default_probe_takes_no_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the maximal sweep called an FFT")

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    rep = maximal_inequality_probe(0, make_spectral(0.0), 1.0)
    assert rep.fitted_C > 1.0


def test_default_probe_stays_small():
    maximal_inequality_probe(0, make_spectral(0.0), 1.0)  # warm the caches of other modules
    tracemalloc.start()
    try:
        maximal_inequality_probe(0, make_spectral(0.0), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_an_unsettled_primitive_names_lam_n_and_r(monkeypatch):
    def unsettled(estimate, order, cap, count, failure):
        return np.zeros(count, dtype=complex), {0: failure(cap, 1.0, 2.0)}

    monkeypatch.setattr(spherical, "_doubling", unsettled)
    with pytest.raises(NonConvergence, match=r"^order-1 kernel row integral at lam = \(-0.25\+0j\), r = 0.99: ") as exc:
        _row_primitive(1, make_spectral(-0.25), 0.99, [0.1, -0.3])
    assert exc.value.last_estimates == (1.0, 2.0)


def test_unsettled_rung_modes_name_lam_n_and_r(monkeypatch):
    # R_0 = Phi_n converges (spherical_function) and R_1.. do not
    real = spherical._kernel_modes

    def refuse_past_mode_0(n, sp, r, ks):
        if max(ks) == 0:  # Phi_n, through spherical._spherical_cached
            return real(n, sp, r, ks)
        assert min(ks) >= 1
        raise NonConvergence("panel quadrature did not stabilize at order 64", last_estimates=(1.0, 2.0))

    monkeypatch.setattr(spherical, "_kernel_modes", refuse_past_mode_0)
    _row_fft.cache_clear()
    with pytest.raises(NonConvergence, match=r"^order-1 kernel row modes at lam = \(2\+0j\), r = 0.9: ") as exc:
        _row_fft(1, 2 + 0j, 0.9, 2)
    assert exc.value.last_estimates == (1.0, 2.0)


def test_probe_leaves_few_kernel_rows_cached():
    maximal_inequality_probe(0, make_spectral(0.0), 1.0)
    assert _row_fft.cache_info().currsize <= 4


def test_probe_takes_each_rung_row_once():
    # 8 base rungs and 16 doubled ones share the ladder's two ends
    _row_fft.cache_clear()
    maximal_inequality_probe(0, make_spectral(0.0), 1.0)
    assert _row_fft.cache_info().misses == 22


def test_the_jump_densities_of_a_probe_build_no_row_plan():
    # the rungs' primitives read the plans their Phi_n built
    def plans(suite):
        spherical._spherical_cached.cache_clear()
        spherical._row_plan.cache_clear()
        _row_fft.cache_clear()
        maximal_inequality_probe(0, make_spectral(0.0), 1.0, suite=suite)
        return spherical._row_plan.cache_info()

    trig = tuple((name, preset) for name, preset in _DEFAULT_SUITE if not density_preset(preset).jumps)
    assert len(trig) < len(_DEFAULT_SUITE)
    full, alone = plans(_DEFAULT_SUITE), plans(trig)
    assert full.misses == alone.misses
    assert full.hits > alone.hits


def test_a_default_probe_evaluates_a_tenth_of_the_row_values_it_did(monkeypatch):
    # every rung's jump primitives are read off the row's own panels: a
    # Gauss panel per offset took 681,168 row values here, the ladder 37,632
    nodes = []
    real = spherical._graded_values

    def counted(g, sp, p):
        nodes.append(np.size(p))
        return real(g, sp, p)

    monkeypatch.setattr(spherical, "_graded_values", counted)
    spherical._spherical_cached.cache_clear()
    _row_fft.cache_clear()
    maximal_inequality_probe(0, make_spectral(0.0), 1.0)
    assert 0 < sum(nodes) <= 681_168 // 10


def test_maximal_probe_is_stable_under_refinement():
    sp = make_spectral(0.0)
    rep = maximal_inequality_probe(
        0,
        sp,
        width=1.0,
        suite=(("one", density_preset("one")), ("cos", density_preset("cos"))),
        zeta_count=4,
        net=SampleNet(radial_rungs=4, angular_count=5),
    )
    assert rep.fitted_C >= 1.0 - 1e-9
    assert rep.drift < 0.2
    ids = [tid for tid, _ in rep.ratios]
    assert ids == ["one", "cos"]


def test_fatou_rows_converge_to_the_boundary_value():
    sp = make_spectral(0.0)
    datum = Mixture(density=density_preset("cos"), atoms=None)
    rows = fatou_probe(0, sp, datum, width=1.0, zeta_angles=[math.pi])
    assert all(row.atom_part == pytest.approx(0.0, abs=1e-12) for row in rows)
    deepest = max(rows, key=lambda row: row.r)
    assert deepest.target == pytest.approx(-1.0, rel=1e-12, abs=0)
    assert abs(deepest.normalized - deepest.target) < 1e-3
    errs = {}
    for row in rows:
        if row.alpha_offset == 0.0:
            errs[row.r] = abs(row.normalized - row.target)
    radii = sorted(errs)
    assert errs[radii[-1]] < errs[radii[0]]


def test_fatou_atom_part_tracks_point_masses():
    sp = make_spectral(0.0)
    datum = Mixture(density=None, atoms=Atoms(((0.0, 1.0),)))
    rows = fatou_probe(0, sp, datum, width=1.0, zeta_angles=[math.pi])
    assert all(row.atom_part > 0 for row in rows)
    # mass sits at the far side, so its trace at zeta = pi fades
    deepest = max(rows, key=lambda row: row.r)
    assert deepest.atom_part < 1e-2
