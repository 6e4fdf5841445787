"""Approach regions, maximal comparisons, and boundary-limit sweeps."""

import cmath
import math

import numpy as np
import pytest

from hypolib.errors import FitResidualLarge
from hypolib.kernels import make_spectral
from hypolib.regions import (
    _DEFAULT_SUITE,
    AdmissibleRegion,
    SampleNet,
    _angular_offsets,
    _field_at_cells,
    _field_at_radius,
    _region_sups,
    fatou_probe,
    hl_maximal,
    maximal_inequality_probe,
    radial_rigidity_check,
    region_distance,
    region_membership,
    tubular_maximal,
)
from hypolib.spherical import spherical_function
from hypolib.transforms import (
    Atoms,
    Mixture,
    _datum_coeffs,
    _full,
    _grid_size,
    _row_fft,
    _zero_free_cached,
    density_preset,
    poisson_transform,
)


def test_radial_points_belong_to_every_region():
    for kind in ("tube", "enlarged"):
        region = AdmissibleRegion(anchor_angle=0.9, width=0.5, kind=kind)
        z = 0.95 * cmath.exp(0.9j)
        assert region_membership(z, region)
        assert region_distance(z, region) == pytest.approx(0.0, abs=1e-9)


def test_far_points_are_outside_with_positive_distance():
    region = AdmissibleRegion(anchor_angle=0.0, width=0.5, kind="tube")
    z = 0.9 * cmath.exp(2.5j)
    assert not region_membership(z, region)
    assert region_distance(z, region) > 0.5


def test_enlarged_region_contains_the_tube():
    tube = AdmissibleRegion(anchor_angle=0.0, width=0.8, kind="tube")
    wide = AdmissibleRegion(anchor_angle=0.0, width=0.8, kind="enlarged")
    assert wide.effective_width(12.0) > wide.effective_width(4.0)
    assert tube.effective_width(12.0) == pytest.approx(tube.effective_width(4.0))
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(40):
        z = (0.5 + 0.49 * rng.random()) * cmath.exp(1j * 0.6 * (rng.random() - 0.5))
        if region_membership(z, tube):
            hits += 1
            assert region_membership(z, wide)
    assert hits > 0


def test_region_rejects_unknown_kind():
    with pytest.raises(ValueError):
        AdmissibleRegion(anchor_angle=0.0, width=0.5, kind="cone")


def test_hl_maximal_constant_and_spike():
    n = 64
    assert hl_maximal(np.full(n, 2.5), 0.3) == pytest.approx(2.5, rel=1e-12)
    spike = np.zeros(n)
    spike[0] = 1.0
    got = hl_maximal(spike, 0.0)
    assert got == pytest.approx(1.0, rel=1e-12)  # one-cell arc at the anchor
    assert hl_maximal(spike, math.pi) == pytest.approx(1.0 / n, rel=1e-10)


def test_sample_net_doubling():
    net = SampleNet()
    finer = net.doubled()
    assert finer.radial_rungs == 2 * net.radial_rungs
    # angular counts stay odd so the radial point is always sampled
    assert finer.angular_count == 2 * net.angular_count + 1


def test_tubular_maximal_of_constant_datum_is_unity():
    sp = make_spectral(0.0)
    got = tubular_maximal(
        0, sp, 0.7, density_preset("one"), 0.4, net=SampleNet(radial_rungs=4, angular_count=5)
    )
    assert got == pytest.approx(1.0, rel=1e-8)


def test_tubular_maximal_is_the_one_region_case_of_the_suite_sups():
    sp = make_spectral(-0.25)
    net = SampleNet(radial_rungs=4, angular_count=5)
    g = density_preset("sawtooth")
    zetas = (0.0, 1.3, -2.4)
    regions = [AdmissibleRegion(z, 1.0, "enlarged") for z in zetas]
    together = _region_sups(1, sp, [g], regions, [net])[0][0]
    alone = [tubular_maximal(1, sp, 1.0, g, z, kind="enlarged", net=net) for z in zetas]
    assert list(together) == alone
    assert min(alone) > 0


@pytest.mark.parametrize("lam,n", [(0.0, 0), (-0.25, 1), (1 + 1j, 0)])
def test_sweep_field_matches_the_per_point_oracle_at_the_jumps(lam, n):
    # the field a maximal rung reads, on the grid cells nearest the kinks,
    # against adaptive per-point transforms; r = 0.9999 is the deepest rung
    sp = make_spectral(lam)
    suite = dict(_DEFAULT_SUITE)
    for r in (0.99, 0.9999):
        size = _grid_size(r)
        row = _row_fft(n, sp.lam, r, size)
        for g in (density_preset(suite["sawtooth"]), density_preset(suite["indicator"])):
            field = _field_at_radius(n, sp, _datum_coeffs(g, size), r, row, size)
            tol = 1e-10 * np.max(np.abs(field))
            for b in g.breakpoints:
                j0 = round(b * size / (2.0 * math.pi))
                for j in range(j0 - 40, j0 + 41):
                    z = r * cmath.exp(2j * math.pi * j / size)
                    assert abs(field[j % size] - poisson_transform(n, sp, g, z).normalized) < tol


@pytest.mark.parametrize("lam,n", [(0.0, 0), (2.0, 1), (-0.25, 1)])
def test_real_input_inverse_matches_the_complex_one(lam, n):
    sp = make_spectral(lam)
    r = 0.999
    size = _grid_size(r)
    row = _row_fft(n, sp.lam, r, size)
    coeffs = _datum_coeffs(density_preset("indicator:0.3:0.7"), size)
    assert row.size == coeffs.size == size // 2 + 1
    real = _field_at_radius(n, sp, coeffs, r, row, size)
    full = _field_at_radius(n, sp, _full(coeffs, size), r, _full(row, size), size)
    assert real.dtype == np.float64
    assert np.max(np.abs(real - full)) < 1e-13


@pytest.mark.parametrize("lam,n", [(0.0, 0), (-0.25, 1), (2.0, 1), (1 + 1j, 0)])
def test_cell_synthesis_matches_the_inverse_fft(lam, n):
    sp = make_spectral(lam)
    for r in (0.9, 0.9999):
        size = _grid_size(r)
        row = _row_fft(n, sp.lam, r, size)
        cells = np.arange(3, size, 97)
        for name in ("one", "cos", "sin", "cos2"):
            g = density_preset(name)
            field = _field_at_radius(n, sp, _datum_coeffs(g, size), r, row, size)
            got = _field_at_cells(n, sp, g.modes, r, row, size, cells)
            assert np.max(np.abs(got - field[cells])) <= 1e-14 * np.max(np.abs(field))


def test_sliced_closed_form_coefficients_are_bit_identical():
    sizes = {_grid_size(r) for net in (SampleNet(), SampleNet().doubled()) for r in net.radii()}
    top = max(sizes)
    for name in ("sawtooth", "indicator:0.0:0.5235987755982988", "indicator:0.3:0.7"):
        g = density_preset(name)
        whole = _datum_coeffs(g, top)
        for size in sizes:
            assert np.array_equal(whole[: size // 2 + 1], _datum_coeffs(g, size))


def _inverse_fft_sups(n, sp, densities, regions, net):
    # every density through the full-grid inverse FFT, rung by rung
    out = np.zeros((len(densities), len(regions)))
    for r in net.radii():
        if r < _zero_free_cached(n, sp.lam):
            continue
        size = _grid_size(r, net.grid_cap)
        row = _row_fft(n, sp.lam, r, size)
        for i, g in enumerate(densities):
            field = np.abs(_field_at_radius(n, sp, _datum_coeffs(g, size), r, row, size))
            for j, reg in enumerate(regions):
                offs = _angular_offsets(reg, r, net.angular_count)
                if offs.size:
                    idx = np.round((reg.anchor_angle + offs) / (2.0 * math.pi / size)).astype(int)
                    out[i, j] = max(out[i, j], np.max(field[idx % size]))
    return out


@pytest.mark.parametrize(
    "lam,n,kind", [(0.0, 0, "tube"), (-0.25, 1, "enlarged"), (1 + 1j, 0, "tube")]
)
def test_region_sups_match_an_inverse_fft_of_every_density(lam, n, kind):
    sp = make_spectral(lam)
    net = SampleNet(radial_rungs=3, angular_count=5, max_exponent=3.0)
    densities = [density_preset(preset) for _, preset in _DEFAULT_SUITE]
    regions = [AdmissibleRegion(a, 1.0, kind) for a in np.linspace(0.0, 2.0 * math.pi, 7)[:-1]]
    nets = [net, net.doubled()]
    for got, one in zip(_region_sups(n, sp, densities, regions, nets), nets):
        want = _inverse_fft_sups(n, sp, densities, regions, one)
        assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_probe_leaves_few_kernel_rows_cached():
    maximal_inequality_probe(0, make_spectral(0.0), 1.0)
    assert _row_fft.cache_info().currsize <= 4


def test_probe_takes_each_rung_row_once():
    # 8 base rungs and 16 doubled ones share the ladder's two ends
    _row_fft.cache_clear()
    maximal_inequality_probe(0, make_spectral(0.0), 1.0)
    assert _row_fft.cache_info().misses == 22


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
    assert deepest.target == pytest.approx(-1.0, rel=1e-12)
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


def test_rigidity_fit_accepts_true_profile_and_rejects_higher_order():
    sp = make_spectral(2.0)
    r_grid = np.linspace(0.1, 0.9, 12)
    phi0 = [spherical_function(0, float(r), sp) for r in r_grid]
    coeffs = radial_rigidity_check(sp, r_grid, phi0, order=1)
    assert coeffs[0] == pytest.approx(1.0, rel=1e-8)
    phi1 = [spherical_function(1, float(r), sp) for r in r_grid]
    with pytest.raises(FitResidualLarge):
        radial_rigidity_check(sp, r_grid, phi1, order=1)
    two = radial_rigidity_check(sp, r_grid, phi1, order=2)
    assert two[1] == pytest.approx(1.0, rel=1e-7)
    assert abs(two[0]) < 1e-7
