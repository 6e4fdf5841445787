"""Admissible approach regions and maximal-operator experiments.

An approach region is anchored at a boundary point and collects the disk
points lying within a fixed hyperbolic width of the radius to that point.
Two kinds are supported: a constant-width tube, and an enlarged variant
whose width grows with the log of the distance to the origin.

Membership has a closed form.  After rotating the anchor to angle zero,
write z = r e^{i alpha} and R for the hyperbolic distance of z to the
origin.  When |alpha| <= pi/2 the nearest point of the radius is the foot
of the perpendicular onto the diameter, and the distance d to it obeys
sinh d = |sin alpha| * sinh R.  When |alpha| > pi/2 the nearest point is
the origin itself, so the distance is R.  The tube condition at width b
therefore reads |sin alpha| <= K_r with K_r = sinh(b) / sinh(R) on the
front half, and R <= b on the back half.

Maximal operators are sampled suprema over a deterministic net: a radial
ladder r = 1 - 10^{-e} with equispaced exponents, and per rung a fan of
angular offsets filling the K_r window.  At a fixed rung the transform of
a kinked datum is evaluated at every grid angle at once: the kernel row's
spectrum times the datum's Fourier coefficients, then one inverse FFT.  A
trigonometric polynomial is summed mode by mode at the fan cells alone.
One row spectrum serves every datum of a suite, so refining the angular
fan or adding anchors costs nothing extra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitResidualLarge, RatioDiverging
from .kernels import SpectralParam
from .numerics import parallel_map
from .spherical import spherical_function
from .transforms import (
    Density,
    Mixture,
    _datum_coeffs,
    _grid_size,
    _mode_product,
    _normalizer,
    _row_fft,
    _sweep,
    _zero_free_cached,
    density_preset,
)

__all__ = [
    "AdmissibleRegion",
    "region_membership",
    "region_distance",
    "hl_maximal",
    "SampleNet",
    "tubular_maximal",
    "MaximalReport",
    "maximal_inequality_probe",
    "FatouRow",
    "fatou_probe",
    "radial_rigidity_check",
]

_TUBE = "tube"
_ENLARGED = "enlarged"


@dataclass(frozen=True)
class AdmissibleRegion:
    """Approach region anchored at a boundary angle.

    kind "tube" keeps the width constant; kind "enlarged" widens it by
    log of the hyperbolic distance to the origin (so near the origin the
    enlarged region is thinner, and it only dominates the tube once that
    distance reaches 1).
    """

    anchor_angle: float
    width: float
    kind: str = _TUBE

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("region width must be nonnegative")
        if self.kind not in (_TUBE, _ENLARGED):
            raise ValueError(f"unknown region kind {self.kind!r}")

    def effective_width(self, big_r: float) -> float:
        """Width at hyperbolic radius big_r; -inf marks an empty slice."""
        if self.kind == _TUBE:
            return self.width
        if big_r <= 0.0:
            return -math.inf
        return self.width + math.log(big_r)


def _front_window(r: float, b: float) -> float:
    """Max |sin alpha| admitted at radius r for effective width b: 1, every
    angle, once b >= R, where sinh(b) / sinh(R) >= 1 (and sinh(b) may
    overflow)."""
    if b < 0.0 or r <= 0.0:
        return -1.0
    big_r = math.log((1.0 + r) / (1.0 - r))
    if b >= big_r:
        return 1.0
    return math.sinh(b) / math.sinh(big_r)


def region_membership(z: complex, region: AdmissibleRegion) -> bool:
    """Closed-form membership test.

    Rotates the anchor to angle zero and applies the K_r window on the
    front half-disk, the plain radial bound on the back half.
    """
    w = complex(z) * cmath.exp(-1j * region.anchor_angle)
    r = abs(w)
    if r >= 1.0:
        return False
    big_r = 0.0 if r == 0.0 else math.log((1.0 + r) / (1.0 - r))
    b = region.effective_width(big_r)
    if b < 0.0:
        return False
    if r == 0.0:
        return True
    alpha = abs(cmath.phase(w))
    if alpha <= 0.5 * math.pi:
        return math.sin(alpha) <= _front_window(r, b)
    return big_r <= b


def region_distance(z: complex, region: AdmissibleRegion) -> float:
    """Hyperbolic distance from z to the segment [0, anchor).

    Closed form used by the membership fast path; cross-checked in tests
    against the golden-section minimizer over the segment.
    """
    w = complex(z) * cmath.exp(-1j * region.anchor_angle)
    r = abs(w)
    if r >= 1.0:
        return math.inf
    if r == 0.0:
        return 0.0
    big_r = math.log((1.0 + r) / (1.0 - r))
    alpha = abs(cmath.phase(w))
    if alpha <= 0.5 * math.pi:
        return math.asinh(math.sin(alpha) * math.sinh(big_r))
    return big_r


def hl_maximal(samples, zeta_angle: float) -> float:
    """Centered arc-average maximal value of |g| at a boundary angle.

    The samples are read as an equispaced grid of cell averages; arcs are
    unions of whole cells centered at the grid point nearest the anchor,
    so the supremum over arc widths reduces to a max over odd window
    sizes, computed with one prefix-sum pass.
    """
    vals = np.abs(np.asarray(samples))
    n = vals.size
    if n == 0:
        raise ValueError("empty sample table")
    center = int(round(zeta_angle / (2.0 * math.pi / n))) % n
    tripled = np.concatenate([vals, vals, vals])
    prefix = np.concatenate([[0.0], np.cumsum(tripled)])
    c = center + n
    half = (n - 1) // 2
    ks = np.arange(half + 1)
    sums = prefix[c + ks + 1] - prefix[c - ks]
    best = float(np.max(sums / (2 * ks + 1)))
    return max(best, float(vals.mean()))


@dataclass(frozen=True)
class SampleNet:
    """Deterministic evaluation net for the sampled suprema.

    radial_rungs radii r = 1 - 10^{-e} with e equispaced on
    [min_exponent, max_exponent]; angular_count offsets per rung filling
    the admissible window; grid_cap bounds the FFT length.
    """

    radial_rungs: int = 8
    angular_count: int = 9
    min_exponent: float = 0.5
    max_exponent: float = 4.0
    grid_cap: int = 1 << 20

    def radii(self) -> tuple[float, ...]:
        es = np.linspace(self.min_exponent, self.max_exponent, self.radial_rungs)
        return tuple(float(1.0 - 10.0 ** (-e)) for e in es)

    def doubled(self) -> "SampleNet":
        return SampleNet(
            radial_rungs=2 * self.radial_rungs,
            angular_count=2 * self.angular_count + 1,
            min_exponent=self.min_exponent,
            max_exponent=self.max_exponent,
            grid_cap=self.grid_cap,
        )


def _field_at_radius(
    n: int, sp: SpectralParam, g_coeffs: np.ndarray, r: float, row: np.ndarray, size: int
) -> np.ndarray:
    """Normalized transform at every angle of the `size`-point grid on |z| = r.

    row is the kernel-row spectrum there (_row_fft) and g_coeffs the
    datum's coefficients (_datum_coeffs).  When both are half spectra the
    field is real and comes from the real-input inverse FFT.
    """
    spectrum = _mode_product(row, g_coeffs, size) * (size / _normalizer(n, sp, float(r)))
    if spectrum.size == size:
        return np.fft.ifft(spectrum)
    return np.fft.irfft(spectrum, size)


def _field_at_cells(
    n: int, sp: SpectralParam, table: dict, r: float, row: np.ndarray, size: int, cells
) -> np.ndarray:
    """_field_at_radius at the grid cells only, for a real density with
    finitely many modes {k >= 0: c_k}: sum_k row_k c_k e^{ik theta} / Phi_n(r).

    The kernel row is even in the angle and the density real, so mode -k
    pairs row_k with conj(c_k): each k > 0 adds row_k 2 Re(c_k e^{ik theta}).
    """
    acc = np.zeros(cells.shape, dtype=complex)
    for k, c in table.items():
        wave = c * np.exp(2j * math.pi * (k * cells % size) / size)
        acc += row[k] * (wave if k == 0 else 2.0 * wave.real)
    return acc / _normalizer(n, sp, float(r))


def _angular_offsets(region: AdmissibleRegion, r: float, count: int) -> np.ndarray:
    big_r = math.log((1.0 + r) / (1.0 - r))
    b = region.effective_width(big_r)
    if b < 0.0:
        return np.empty(0)
    window = min(1.0, _front_window(r, b))
    return np.arcsin(window * np.linspace(-1.0, 1.0, count))


def _region_sups(n: int, sp: SpectralParam, densities, regions, nets) -> list[np.ndarray]:
    """Sampled sup of |normalized transform| over each net, per density (rows)
    and region (columns).

    Each rung radius takes one kernel-row spectrum and applies it to every
    density, then reads every net's and region's fan off the field; a
    radius that several nets share (the ends of the ladder, for a net and
    its doubling) is computed once, and rungs inside the zero-free radius
    are skipped.  Trigonometric polynomials are summed at the fan cells;
    other densities pay one inverse FFT per rung, and their closed-form
    coefficients, which do not depend on the grid, are built once at the
    finest grid of all the rungs and sliced.  Rungs run largest grid first.
    """
    r_floor = _zero_free_cached(n, sp.lam)
    shared: dict[tuple[float, int], list[int]] = {}
    for k, net in enumerate(nets):
        for r in net.radii():
            if r >= r_floor:
                shared.setdefault((r, _grid_size(r, net.grid_cap)), []).append(k)
    rungs = sorted(shared.items(), key=lambda rung: -rung[0][1])
    top = max((size for _, size in shared), default=0)
    closed = [_datum_coeffs(g, top) if callable(g.modes) else None for g in densities]

    def rung(job) -> np.ndarray:
        (r, size), ks = job
        row = _row_fft(n, sp.lam, r, size)
        cells = []
        for k in ks:
            for reg in regions:
                offs = _angular_offsets(reg, r, nets[k].angular_count)
                idx = np.round((reg.anchor_angle + offs) / (2.0 * math.pi / size)).astype(int)
                cells.append(idx % size)
        flat = np.concatenate(cells)
        splits = np.cumsum([idx.size for idx in cells])[:-1]
        sups = np.zeros((len(ks), len(densities), len(regions)))
        for i, g in enumerate(densities):
            if isinstance(g.modes, dict):
                vals = _field_at_cells(n, sp, g.modes, r, row, size, flat)
            else:
                coeffs = _datum_coeffs(g, size) if closed[i] is None else closed[i][: size // 2 + 1]
                vals = _field_at_radius(n, sp, coeffs, r, row, size)[flat]
            for c, part in enumerate(np.split(np.abs(vals), splits)):
                if part.size:
                    sups[c // len(regions), i, c % len(regions)] = np.max(part)
        return sups

    out = [np.zeros((len(densities), len(regions))) for _ in nets]
    for (_, ks), sups in zip(rungs, parallel_map(rung, rungs)):
        for k, sup in zip(ks, sups):
            out[k] = np.maximum(out[k], sup)
    return out


def tubular_maximal(
    n: int,
    sp: SpectralParam,
    width: float,
    g: Density,
    zeta_angle: float,
    kind: str = _TUBE,
    net: SampleNet = SampleNet(),
) -> float:
    """Sampled supremum of the normalized transform over the region."""
    region = AdmissibleRegion(zeta_angle, width, kind)
    return float(_region_sups(n, sp, [g], [region], [net])[0][0, 0])


@dataclass(frozen=True)
class MaximalReport:
    """Per-test ratio table with its refined counterpart."""

    ratios: tuple[tuple[str, float], ...]
    fitted_C: float
    refined_ratios: tuple[tuple[str, float], ...]
    refined_C: float

    @property
    def drift(self) -> float:
        return abs(self.refined_C - self.fitted_C) / max(self.fitted_C, 1e-300)


_DEFAULT_SUITE = (
    ("one", "one"),
    ("cos", "cos"),
    ("cos2", "cos2"),
    ("sawtooth", "sawtooth"),
    ("indicator", "indicator:0.0:0.5235987755982988"),
)

_HL_GRID = 4096


def maximal_inequality_probe(
    n: int,
    sp: SpectralParam,
    width: float,
    kind: str = _TUBE,
    suite=_DEFAULT_SUITE,
    zeta_count: int = 16,
    net: SampleNet = SampleNet(),
) -> MaximalReport:
    """Compare the tubular and arc-average maximal values over a suite.

    Reports the per-test sup of the pointwise ratio and the overall max,
    then repeats on a doubled net.  Raises RatioDiverging when
    refinement doubles the fitted constant, which would mean the sampled
    supremum had not stabilized.
    """
    zetas = 2.0 * math.pi * np.arange(zeta_count) / zeta_count
    regions = [AdmissibleRegion(float(a), width, kind) for a in zetas]
    hl_grid = 2.0 * math.pi * np.arange(_HL_GRID) / _HL_GRID
    tests = []
    for test_id, preset in suite:
        g = density_preset(preset) if isinstance(preset, str) else preset
        hl_samples = np.asarray(g(hl_grid))
        tests.append((test_id, g, np.array([hl_maximal(hl_samples, float(a)) for a in zetas])))

    def ratios(sups: np.ndarray) -> tuple[tuple[str, float], ...]:
        rows = []
        for (test_id, _, hl), sup in zip(tests, sups):
            with np.errstate(divide="ignore"):
                rows.append((test_id, float(np.max(np.where(hl > 0, sup / hl, 0.0)))))
        return tuple(rows)

    densities = [g for _, g, _ in tests]
    base, fine = map(ratios, _region_sups(n, sp, densities, regions, [net, net.doubled()]))
    c0 = max(r for _, r in base)
    c1 = max(r for _, r in fine)
    if c1 >= 2.0 * c0:
        raise RatioDiverging(f"fitted constant doubled under refinement: {c0:.3g} -> {c1:.3g}")
    return MaximalReport(ratios=base, fitted_C=c0, refined_ratios=fine, refined_C=c1)


@dataclass(frozen=True)
class FatouRow:
    zeta_angle: float
    r: float
    alpha_offset: float
    value: complex
    normalized: complex
    target: complex
    atom_part: float


def fatou_probe(
    n: int,
    sp: SpectralParam,
    datum: Mixture,
    width: float,
    zeta_angles,
    kind: str = _TUBE,
    depths=(1, 2, 3, 4),
) -> list[FatouRow]:
    """Approach each anchor inside its region and record the limits.

    Per rung two points are taken: the radial one and one pushed to 90%
    of the angular window, so the sweep exercises the full region and
    not only the radius.  The atomic part of the datum is transformed
    separately; its normalized magnitude lands in atom_part.
    """
    density = datum.density if isinstance(datum, Mixture) else datum
    atoms = datum.atoms if isinstance(datum, Mixture) else None
    points = []
    for ang in zeta_angles:
        region = AdmissibleRegion(float(ang), width, kind)
        target = density.at(float(ang)) if density else 0.0j
        for k in depths:
            r = 1.0 - 10.0 ** (-k)
            big_r = math.log((1.0 + r) / (1.0 - r))
            b = region.effective_width(big_r)
            if b < 0.0:
                continue
            window = math.asin(min(1.0, _front_window(r, b)))
            for frac in (0.0, 0.9):
                alpha = frac * window
                points.append((float(ang), r, alpha, r * cmath.exp(1j * (float(ang) + alpha)), target))
    zs = [z for *_, z, _ in points]
    results = _sweep(n, sp, datum, zs)
    atom_parts = [0.0] * len(zs)
    if atoms is not None and atoms.points:
        atom_parts = [abs(v) for _, v in _sweep(n, sp, atoms, zs)]
    return [
        FatouRow(
            zeta_angle=ang,
            r=r,
            alpha_offset=alpha,
            value=value,
            normalized=normalized,
            target=target,
            atom_part=atom_part,
        )
        for (ang, r, alpha, _, target), (value, normalized), atom_part
        in zip(points, results, atom_parts)
    ]


def radial_rigidity_check(
    sp: SpectralParam,
    r_grid,
    values,
    order: int,
    tol: float = 1e-8,
) -> np.ndarray:
    """Fit radial samples against the first `order` radial eigenprofiles.

    Columns are scaled to unit sup before the least-squares solve so the
    growth mismatch between successive profiles does not poison the
    conditioning.  Raises FitResidualLarge when the relative sup residual
    exceeds tol.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    values = np.asarray(values, dtype=complex)
    if order < 1:
        raise ValueError("order must be at least 1")
    cols = np.empty((r_grid.size, order), dtype=complex)
    for k in range(order):
        cols[:, k] = [spherical_function(k, float(r), sp) for r in r_grid]
    scale = np.max(np.abs(cols), axis=0)
    scale[scale == 0.0] = 1.0
    coeffs_scaled, *_ = np.linalg.lstsq(cols / scale, values, rcond=None)
    coeffs = coeffs_scaled / scale
    resid = np.max(np.abs(cols @ coeffs - values))
    denom = max(float(np.max(np.abs(values))), 1e-300)
    if resid / denom > tol:
        raise FitResidualLarge(f"relative residual {resid / denom:.3e} exceeds {tol:.1e}")
    return coeffs
