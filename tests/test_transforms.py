"""Boundary data, transforms, solvers, and convergence probes."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hypolib import transforms
from hypolib.errors import HypolibError, NonConvergence
from hypolib.geometry import RadialFrame, poisson_radial_profile
from hypolib.kernels import CRITICAL, FORBIDDEN, kernel_poly, make_spectral, polyharmonic_kernel
from hypolib.numerics import circle_fft
from hypolib.spherical import spherical_function
from hypolib.transforms import (
    Atoms,
    Density,
    FourierSeq,
    Mixture,
    _datum_modes,
    _kernel_modes,
    _kernel_row,
    _normalizer,
    _sweep,
    _zero_free_cached,
    convergence_probe,
    density_preset,
    dirichlet_solve,
    poisson_transform,
    riquier_solve,
)


def test_density_presets_evaluate():
    phi = np.array([0.0, math.pi / 2, math.pi])
    assert np.allclose(density_preset("one")(phi), 1.0)
    assert np.allclose(density_preset("cos")(phi), np.cos(phi))
    assert np.allclose(density_preset("sin")(phi), np.sin(phi))
    assert np.allclose(density_preset("cos2")(phi), np.cos(2 * phi))
    ind = density_preset("indicator:0.5:0.2")
    assert ind(np.array([0.5]))[0] == pytest.approx(1.0)
    assert ind(np.array([0.8]))[0] == pytest.approx(0.0)
    assert ind.breakpoints == pytest.approx((0.3, 0.7))


def test_density_preset_rejects_unknown():
    with pytest.raises(ValueError):
        density_preset("gaussian")
    with pytest.raises(ValueError):
        density_preset("indicator:0:9")


def test_preset_modes_match_the_sampled_coefficients():
    # trigonometric polynomials: 64 samples resolve them exactly, at the
    # negative modes too (the conjugates of a real density's)
    size = 64
    phi = 2.0 * math.pi * np.arange(size) / size
    ks = np.arange(-size // 2 + 1, size // 2)
    for name in ("one", "cos", "sin", "cos2"):
        g = density_preset(name)
        want = circle_fft(g(phi))[ks % size]
        assert np.max(np.abs(_datum_modes(g, ks) - want)) < 1e-15


def test_datum_modes_of_every_kind_of_datum():
    # atoms and Fourier data exactly, a mixture as the sum of its parts, and
    # a density without closed-form modes by quadrature
    ks = [-3, -1, 0, 3, 5]
    atoms = Atoms(((0.7, 1.0 - 0.5j), (-2.0, 0.25)))
    want = [sum(complex(w) * cmath.exp(-1j * k * a) for a, w in atoms.points) for k in ks]
    assert np.max(np.abs(_datum_modes(atoms, ks) - want)) < 1e-15
    nu = FourierSeq({1: 0.5 - 0.2j, -3: 2.0j, 0: 0.3})
    assert _datum_modes(nu, ks).tolist() == [0j, 0.5 + 0.2j, 0.3 + 0j, -2j, 0j]
    saw = density_preset("sawtooth")
    mix = Mixture(saw, atoms)
    assert np.array_equal(_datum_modes(mix, ks), _datum_modes(saw, ks) + _datum_modes(atoms, ks))
    kinked = Density(saw.fn, "sawtooth without modes", breakpoints=saw.breakpoints)
    assert np.max(np.abs(_datum_modes(kinked, ks) - _datum_modes(saw, ks))) < 1e-14


@pytest.mark.parametrize("name", ["sawtooth", "indicator:0.3:0.7", "indicator:-2.9:1.1"])
def test_preset_jumps_give_the_preset_modes(name):
    # c_k = sum_i J_i e^{-ik b_i} / (2 pi i k) for k != 0
    g = density_preset(name)
    k = np.arange(1, 40)
    want = sum(jump * np.exp(-1j * k * b) for b, jump in g.jumps) / (2j * math.pi * k)
    assert np.max(np.abs(g.modes(k) - want)) < 1e-15
    assert sorted(b for b, _ in g.jumps) == sorted(g.breakpoints)


def test_a_density_with_jumps_needs_its_modes():
    with pytest.raises(ValueError):
        Density(np.sign, "step", breakpoints=(0.0, math.pi), jumps=((0.0, 2.0), (math.pi, -2.0)))


def test_sawtooth_is_odd_and_breaks_at_pi():
    saw = density_preset("sawtooth")
    phi = np.array([0.4, -0.4])
    v = saw(phi)
    assert v[0] == pytest.approx(-v[1])
    assert len(saw.breakpoints) >= 1


def test_harmonic_extension_of_cosine():
    # order 0, lam 0 reduces to the classical disk extension: r cos(theta)
    sp = make_spectral(0.0)
    g = density_preset("cos")
    for r, th in ((0.5, 0.0), (0.8, 1.1), (0.3, -2.0)):
        z = r * cmath.exp(1j * th)
        res = poisson_transform(0, sp, g, z)
        assert res.normalized == pytest.approx(r * math.cos(th), abs=1e-11)
        assert res.value == pytest.approx(r * math.cos(th), abs=1e-11)


def test_transform_of_unit_density_is_the_mean():
    sp = make_spectral(1j)
    g = density_preset("one")
    z = 0.6 * cmath.exp(0.4j)
    res = poisson_transform(0, sp, g, z)
    assert res.value == pytest.approx(spherical_function(0, 0.6, sp), rel=1e-11)
    assert res.normalized == pytest.approx(1.0, rel=1e-11)


def test_atom_transform_is_a_kernel_evaluation():
    sp = make_spectral(2.0)
    datum = Atoms(((0.9, 2.0 - 1.0j),))
    z = 0.45 * cmath.exp(-0.2j)
    res = poisson_transform(1, sp, datum, z, normalize=False)
    want = (2.0 - 1.0j) * polyharmonic_kernel(1, z, 0.9, sp)
    assert res.value == pytest.approx(want, rel=1e-12)


def _plain(g):
    """g without its closed-form modes and jumps: its transforms take the
    circle quadrature, an oracle independent of the closed forms."""
    return Density(g.fn, g.name, g.breakpoints)


def test_fourier_datum_matches_density_transform():
    sp = make_spectral(0.0)
    fs = FourierSeq({1: 0.5, -1: 0.5})  # cos(phi)
    g = _plain(density_preset("cos"))
    z = 0.7 * cmath.exp(0.9j)
    a = poisson_transform(0, sp, fs, z).normalized
    b = poisson_transform(0, sp, g, z).normalized
    assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("lam,n", [(0.0, 0), (-0.25, 1), (1 + 1j, 2)])
def test_fourier_datum_takes_the_row_modes_it_needs(lam, n):
    # against the per-point transform of the density sum_m conj(nu_m) e^{-im psi}
    # that the functional pairs like, and at lam = 0 against the exact
    # sum_m r^|m| e^{-im theta} conj(nu_m)
    sp = make_spectral(lam)
    nu = FourierSeq({0: 0.3, 1: 0.5 - 0.2j, -1: 0.25j, 3: -1.0, -4: 0.7 + 0.1j})
    density = Density(
        lambda p: sum(complex(v).conjugate() * np.exp(-1j * m * p) for m, v in nu.coeffs.items()),
        "trigonometric polynomial",
    )
    for r in (0.3, 0.9, 0.99):
        for theta in (0.0, 1.1, -2.5):
            z = r * cmath.exp(1j * theta)
            got = poisson_transform(n, sp, nu, z, normalize=False).value
            want = poisson_transform(n, sp, density, z, normalize=False).value
            scale = sum(abs(v) for v in nu.coeffs.values()) * abs(spherical_function(n, r, sp))
            assert abs(got - want) <= 1e-12 * scale
            if lam == 0.0:
                exact = sum(
                    r ** abs(m) * cmath.exp(-1j * m * theta) * complex(v).conjugate()
                    for m, v in nu.coeffs.items()
                )
                assert abs(got - exact) <= 1e-14 * scale


def test_poisson_row_modes_are_the_powers_of_r():
    # at lam = 0 the order-0 row is the Poisson kernel, whose modes are r^k
    r = 0.9999
    ks = [0, 1, 2, 5]
    for k, got in zip(ks, _kernel_modes(0, make_spectral(0.0), r, ks)):
        assert abs(got - r**k) <= 1e-15 * r**k


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    # complex lam from a few values: each new one pays a zero-free scan
    lam=st.one_of(
        st.just(-0.25), st.floats(-0.25, 30.0), st.sampled_from([1j, 1 + 1j, -2 + 0.5j, 10 - 5j])
    ),
    n=st.integers(0, 3),
    r=st.floats(0.05, 0.9),
)
def test_normalized_kernel_has_unit_circle_mean(lam, n, r):
    # the pointwise kernel, summed by the trapezoid rule on a grid that
    # resolves its peak (width ~ (1 - r) / 2), over the normalizer
    sp = make_spectral(lam)
    assume(sp.kind != FORBIDDEN and r >= _zero_free_cached(n, sp.lam))
    phi = 2.0 * math.pi * np.arange(4096) / 4096
    mean = np.mean(polyharmonic_kernel(n, complex(r), phi, sp))
    assert mean / _normalizer(n, sp, r) == pytest.approx(1.0, rel=1e-10)


def test_dirichlet_recovery_sharpens_toward_boundary():
    sp = make_spectral(0.0)
    sol = dirichlet_solve(sp, density_preset("cos"))
    angs = np.linspace(-math.pi, math.pi, 8, endpoint=False)
    errs = []
    for r in (0.9, 0.99, 0.999):
        rows = sol.verify(angs, [r])
        errs.append(max(row.error for row in rows))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 5e-3


def test_dirichlet_refuses_forbidden_ray():
    with pytest.raises(ValueError):
        dirichlet_solve(make_spectral(-1.0), density_preset("cos"))
    with pytest.raises(ValueError):
        riquier_solve(make_spectral(-1.0), [density_preset("cos")])


def test_riquier_own_traces_recover_data():
    sp = make_spectral(0.0)
    sol = riquier_solve(sp, (density_preset("cos"), density_preset("one")))
    angs = np.linspace(-math.pi, math.pi, 6, endpoint=False)
    rep = sol.verify(angs, [0.9999])
    assert max(row.error for row in rep["own"]) < 5e-3
    z = 0.5 + 0j
    assert sol.layer(0, z) == pytest.approx(0.5, abs=1e-10)


def test_convergence_probe_uniform_shrinks():
    sp = make_spectral(0.0)
    rep = convergence_probe(0, sp, density_preset("cos"), "uniform", radii=(0.9, 0.99))
    sups = [row["sup_error"] for row in rep["rows"]]
    assert sups[1] < sups[0]


def test_convergence_probe_lp_handles_jumps():
    sp = make_spectral(0.0)
    rep = convergence_probe(
        0, sp, density_preset("sawtooth"), "Lp", radii=(0.9, 0.99), p=2.0
    )
    errs = [row["lp_error"] for row in rep["rows"]]
    assert errs[1] < errs[0]


def test_weak_star_pairings_of_a_unit_atom():
    # classical case: pairing against e^{ik phi} equals r^{|k|} e^{-ik xi}
    sp = make_spectral(0.0)
    xi = 0.7
    rep = convergence_probe(0, sp, Atoms(((xi, 1.0),)), "weak-star", radii=(0.99, 0.999, 0.999999))
    for row in rep["rows"]:
        for k, v in row["pairings"].items():
            assert abs(v - row["r"] ** abs(k) * cmath.exp(-1j * k * xi)) < 1e-12


@pytest.mark.parametrize(
    "name,modes",
    [
        ("sawtooth", lambda k: 1j * (-1) ** k / (math.pi * k) if k else 0.0),
        ("indicator:0.3:0.7",
         lambda k: cmath.exp(-0.3j * k) * math.sin(0.7 * k) / (math.pi * k) if k else 0.7 / math.pi),
    ],
)
def test_weak_star_pairings_of_kinked_presets_are_exact(name, modes):
    # Poisson case: pairing against e^{ik phi} equals r^{|k|} c_k
    rep = convergence_probe(0, make_spectral(0.0), density_preset(name), "weak-star",
                            radii=(0.9, 0.99))
    for row in rep["rows"]:
        for k, v in row["pairings"].items():
            assert abs(v - row["r"] ** abs(k) * modes(k)) < 1e-12


@pytest.mark.parametrize("lam,n", [(2.0, 0), (1 + 1j, 1), (-0.25, 1)])
def test_weak_star_pairings_match_the_per_point_oracle(lam, n):
    # pairings read off the circle engine against 512 adaptive per-point
    # transforms and their FFT
    sp = make_spectral(lam)
    g = density_preset("cos")
    radii = (0.9, 0.99)
    rep = convergence_probe(n, sp, g, "weak-star", radii=radii)
    size = 512
    for r, row in zip(radii, rep["rows"]):
        vals = [poisson_transform(n, sp, _plain(g), r * cmath.exp(2j * math.pi * j / size)).normalized
                for j in range(size)]
        oracle = circle_fft(vals)
        for k, v in row["pairings"].items():
            assert abs(v - oracle[k % size]) < 1e-12


def test_weak_star_probe_takes_no_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the weak-star probe called an FFT")

    plain = Density(np.cos, "plain cos")  # no modes, no jumps
    data = [
        Atoms(((0.7, 1.0),)),
        density_preset("cos"),
        density_preset("indicator:0.3:0.7"),
        plain,
        FourierSeq({1: 0.5, -2: 0.25j}),
        Mixture(density_preset("sawtooth"), Atoms(((0.0, 1.0),))),
    ]
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    for datum in data:
        rep = convergence_probe(1, make_spectral(2.0), datum, "weak-star", radii=(0.9, 0.9999))
        assert len(rep["rows"]) == 2


def test_convergence_probe_rejects_bad_mode():
    with pytest.raises(ValueError):
        convergence_probe(0, make_spectral(0.0), density_preset("cos"), "L-infinity")


@pytest.mark.parametrize("lam", [0.0, 2.0, -0.25, 5.5])
def test_real_kernel_row_matches_the_complex_evaluation(lam):
    sp = make_spectral(lam)
    phi = np.linspace(-math.pi, math.pi, 1001)
    for n in (0, 1, 3):
        for r in (0.3, 0.999):
            row = _kernel_row(n, sp, r, phi)
            logp = np.log(poisson_radial_profile(r, phi))
            want = kernel_poly(n, sp).evaluate(logp) * np.exp(sp.exponent * logp)
            assert row.dtype == np.float64
            assert np.all(np.abs(row - want) <= 1e-15 * np.abs(want))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    lam=st.one_of(
        st.just(-0.25),
        st.floats(-0.25, 30.0),
        st.builds(complex, st.floats(-3.0, 30.0), st.floats(-30.0, 30.0)),
    ),
    n=st.integers(0, 3),
    share=st.floats(0.01, 1.0),
)
def test_normalized_kernel_decays_off_its_peak(lam, n, share):
    """Away from the peak the normalized kernel tends to 0: its sup over
    the band [edge, pi] falls along r = 0.9, 0.99, 0.999, where the edge
    2 tau^-a (generic, a < 2 Re mu / (2 Re mu + 1)) or 2 (log tau)^-a
    (critical) closes in on the peak.  The exponent a is kept to half its
    bound, and to 0.3 in the critical regime, whose decay is logarithmic:
    there a larger a lets the edge outrun the decay on these radii."""
    sp = make_spectral(lam)
    assume(sp.kind != FORBIDDEN)
    critical = sp.kind == CRITICAL
    a = share * (0.3 if critical else sp.mu.real / (2.0 * sp.mu.real + 1.0))
    sups = []
    for r in (0.9, 0.99, 0.999):
        tau = RadialFrame.from_r(r).tau
        edge = min(2.0 * (math.log(tau) if critical else tau) ** -a, math.pi / 2)
        psi = np.geomspace(edge, math.pi, 200)
        sups.append(np.max(np.abs(_kernel_row(n, sp, r, psi) / spherical_function(n, r, sp))))
    assert sups[0] > sups[1] > sups[2], (sp.lam, n, a, sups)


_SWEEP_DATA = {
    "sawtooth": density_preset("sawtooth"),
    "indicator": density_preset("indicator:0.4:0.9"),
    "cos": density_preset("cos"),
    "one": density_preset("one"),
    "atoms": Atoms(((0.3, 1.0), (-2.0, 0.5 - 0.2j))),
    "mixture": Mixture(density_preset("indicator:-2.0:0.3"), Atoms(((1.0, 0.25j),))),
    "smooth mixture": Mixture(density_preset("cos"), Atoms(((0.0, 1.0),))),
}


def _one_point_calls(n, sp, datum, zs):
    """(value, normalized) per point from poisson_transform, or the first
    error as (type, message)."""
    out = []
    for z in zs:
        try:
            res = poisson_transform(n, sp, datum, z, normalize=False)
        except HypolibError as exc:
            return out, (type(exc), str(exc))
        out.append((res.value, res.normalized))
    return out, None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    lam=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    n=st.integers(0, 2),
    radii=st.lists(st.floats(0.05, 0.9999), min_size=1, max_size=2),
    name=st.sampled_from(sorted(_SWEEP_DATA)),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=5),
)
# cos on the trapezoid rule (r = 0.5) and on the panels (r = 0.99)
@example(lam=1.5, n=1, radii=[0.5, 0.99], name="cos", angles=[-2.0, 0.0, 0.7, 3.0])
def test_a_sweep_is_its_one_point_calls(lam, n, radii, name, angles):
    # the points of every circle share one quadrature pass; each keeps the
    # value (and the error) a call for that point alone gives, bit for bit
    sp = make_spectral(lam)
    assume(sp.kind != FORBIDDEN)
    datum = _SWEEP_DATA[name]
    zs = [r * cmath.exp(1j * a) for r in radii for a in angles]
    points = [(abs(z), cmath.phase(z)) for z in zs]
    want, error = _one_point_calls(n, sp, datum, zs)
    if error is None:
        assert _sweep(n, sp, datum, points, normalize=False) == want
    else:
        with pytest.raises(error[0]) as exc:
            _sweep(n, sp, datum, points, normalize=False)
        assert str(exc.value) == error[1]


@pytest.mark.parametrize("radius", [-0.5, -0.0001, 1.0, 1.5])
def test_probes_and_solvers_refuse_a_radius_outside_the_disk(radius):
    # a negative r would put r e^{i theta} on the antipodal circle
    sp = make_spectral(0.0)
    g = density_preset("cos")
    for call in (
        lambda: convergence_probe(0, sp, g, "uniform", radii=(0.9, radius)),
        lambda: convergence_probe(0, sp, g, "weak-star", radii=(radius,)),
        lambda: dirichlet_solve(sp, g).verify([0.0], [0.5, radius]),
        lambda: riquier_solve(sp, [g, g]).verify([0.0], [radius]),
    ):
        with pytest.raises(ValueError, match=rf"radius must lie in \[0, 1\), got {radius}$"):
            call()


@pytest.mark.parametrize("preset", ["sawtooth", "indicator:0.3:0.7", "cos"])
def test_a_circle_sweep_evaluates_the_kernel_row_per_order_not_per_point(preset, monkeypatch):
    calls = []
    row = transforms._kernel_row
    monkeypatch.setattr(transforms, "_kernel_row", lambda *a: calls.append(1) or row(*a))
    sp = make_spectral(0.0)
    counts = {}
    for count in (1, 8, 64):
        calls.clear()
        points = [(0.99, 0.1 + 2.0 * math.pi * j / count) for j in range(count)]
        _sweep(1, sp, density_preset(preset), points, normalize=False)
        counts[count] = len(calls)
    # one evaluation for the row's modes and one for its primitive, per
    # doubling order (16, 32, 64)
    assert counts[64] <= 2 * 3
    assert counts[1] == counts[8] == counts[64]


def _counting(monkeypatch, name):
    """The radius of every call of transforms.<name>, as it is made."""
    radii = []
    real = getattr(transforms, name)

    def counted(n, sp, r, *rest):
        radii.append(r)
        return real(n, sp, r, *rest)

    monkeypatch.setattr(transforms, name, counted)
    return radii


@pytest.mark.parametrize("preset", ["cos2", "sawtooth", "indicator:0.3:0.7"])
def test_a_sweep_takes_one_row_quadrature_per_circle(preset, monkeypatch):
    # a table preset reads the row's modes once per circle, a jump preset
    # its modes and its primitive once per circle, however many points
    modes = _counting(monkeypatch, "_kernel_modes")
    primitives = _counting(monkeypatch, "_row_primitive")
    g = density_preset(preset)
    radii = (0.5, 0.9, 0.99, 0.9999)
    points = [(r, 2.0 * math.pi * j / 37 - 3.0) for j in range(37) for r in radii]
    _sweep(1, make_spectral(2.0), g, points)
    assert sorted(modes) == list(radii)
    assert sorted(primitives) == (list(radii) if g.jumps else [])


def test_a_probe_takes_one_row_quadrature_per_radius_the_caller_meant(monkeypatch):
    # the probe's points r (cos a + i sin a) round to 2 or 3 moduli per
    # radius; each radius takes one row quadrature per layer, and the
    # normalized layer of one reads the same value at every angle
    modes = _counting(monkeypatch, "_kernel_modes")
    radii = [0.9, 0.99, 0.9999]
    angles = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    sol = riquier_solve(make_spectral(1 + 1j), (density_preset("cos"), density_preset("one")))
    own = sol.verify(angles, radii)["own"]
    assert sorted(modes) == sorted(radii * 2)
    for r in radii:
        assert len({row.value for row in own[len(own) // 2 :] if row.r == r}) == 1


def test_a_point_that_does_not_stabilize_names_its_own_z():
    # a narrow undeclared spike at angle 1: the panels at the kernel's peak
    # see it only for the point at that angle
    c = 1.0

    def spike(phi):
        return 1.0 + 1e-8 * (np.abs(np.remainder(phi - c + math.pi, 2 * math.pi) - math.pi) < 1e-3)

    g = Density(spike, "spike")
    sp = make_spectral(0.0)
    points = [(0.99, c + 2.0 * math.pi * (j - 5) / 16) for j in range(16)]
    with pytest.raises(NonConvergence) as exc:
        _sweep(0, sp, g, points)
    assert f"z = {cmath.rect(*points[5])}:" in str(exc.value)
    assert str(exc.value).startswith("order-0 transform at lam = 0j")
    assert len(exc.value.last_estimates) == 2
    for j, (r, theta) in enumerate(points):
        if j != 5:
            _sweep(0, sp, g, [(r, theta)])
