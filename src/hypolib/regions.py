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
angular offsets filling the K_r window, rounded to a grid of angles.  At a
fixed rung each density is evaluated at the fan cells alone, by the
transforms' density evaluator (transforms._density_values) over Phi_n(r):
a trigonometric polynomial from the kernel row's Fourier modes R_k, and a
density whose derivative is a constant plus jumps from the primitive of
the row.  Each rung takes its modes once, and one quadrature per run of
rungs (spherical._row_primitives) gives every rung's primitive at every
offset of every jump, from the row plan Phi_n(r) reads at each rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HypolibError, RatioDiverging
from .kernels import SpectralParam, make_spectral
from .numerics import next_pow2, parallel_map
from .spherical import _row_modes, _row_primitives
from .transforms import (
    Atoms,
    BoundaryDatum,
    Density,
    Mixture,
    _density_values,
    _normalizer,
    _sweep,
    _wrapped,
    _zero_free_cached,
    density_preset,
)

__all__ = [
    "AdmissibleRegion",
    "SampleNet",
    "MaximalReport",
    "maximal_inequality_probe",
    "FatouRow",
    "fatou_probe",
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

    def window(self, r: float) -> float | None:
        """Largest |sin alpha| admitted at radius r, or None where the slice
        is empty: 1, every angle, once the effective width b reaches R
        (where sinh(b) may overflow), else sinh(b) / sinh(R)."""
        big_r = math.log((1.0 + r) / (1.0 - r))
        b = self.effective_width(big_r)
        if b < 0.0:
            return None
        if b >= big_r:
            return 1.0
        return math.sinh(b) / math.sinh(big_r)


def _hl_maxima(samples, zeta_angles) -> np.ndarray:
    """Centered arc-average maximal value of |g| at each boundary angle.

    The samples are read as an equispaced grid of cell averages; arcs are
    unions of whole cells centered at the grid point nearest the anchor,
    so the supremum over arc widths reduces to a max over odd window
    sizes, computed for every angle with one prefix-sum pass.
    """
    vals = np.abs(np.asarray(samples))
    n = vals.size
    if n == 0:
        raise ValueError("empty sample table")
    step = 2.0 * math.pi / n
    centers = np.array([int(round(float(a) / step)) % n for a in zeta_angles], dtype=int)
    tripled = np.concatenate([vals, vals, vals])
    prefix = np.concatenate([[0.0], np.cumsum(tripled)])
    c = centers[:, None] + n
    ks = np.arange((n - 1) // 2 + 1)
    sums = prefix[c + ks + 1] - prefix[c - ks]
    best = np.max(sums / (2 * ks + 1), axis=1)
    return np.maximum(best, float(vals.mean()))


@dataclass(frozen=True)
class SampleNet:
    """Deterministic evaluation net for the sampled suprema.

    radial_rungs radii r = 1 - 10^{-e} with e equispaced on
    [min_exponent, max_exponent]; angular_count offsets per rung filling
    the admissible window, each rounded to the nearest angle of a grid
    that resolves the kernel peak at that rung (_grid_size).
    """

    radial_rungs: int = 8
    angular_count: int = 9
    min_exponent: float = 0.5
    max_exponent: float = 4.0

    def radii(self) -> tuple[float, ...]:
        es = np.linspace(self.min_exponent, self.max_exponent, self.radial_rungs)
        return tuple(float(1.0 - 10.0 ** (-e)) for e in es)

    def doubled(self) -> "SampleNet":
        return SampleNet(
            radial_rungs=2 * self.radial_rungs,
            angular_count=2 * self.angular_count + 1,
            min_exponent=self.min_exponent,
            max_exponent=self.max_exponent,
        )


# the most angles of a fan-cell grid
_GRID_CAP = 1 << 20


def _grid_size(r: float) -> int:
    """Angles of the grid the fan cells at radius r round to: enough to
    resolve the kernel peak (width ~ 1/tau), at most _GRID_CAP."""
    tau = 2.0 * math.sqrt(r) / (1.0 - r)
    return min(_GRID_CAP, next_pow2(max(4096, int(32.0 * tau))))


@lru_cache(maxsize=4)
def _row_fft(n: int, lam: complex, r: float, top: int) -> np.ndarray:
    """The kernel row's modes R_0..R_top at one rung, as every circle takes
    them (spherical._row_modes, whose R_0 is Phi_n(r)), once the
    normalization has passed the rung (transforms._normalizer)."""
    sp = make_spectral(lam)
    _normalizer(n, sp, r)
    out = _row_modes(n, sp, r, range(top + 1))
    out.setflags(write=False)
    return out


def _field_at_radius(
    n: int, sp: SpectralParam, thetas: np.ndarray, g: Density, r: float, row: np.ndarray, primitive
) -> np.ndarray:
    """Normalized order-n transform of the real density g at the angles
    thetas on |z| = r: transforms._density_values from the rung's modes
    (_row_fft) and the row's primitive at the offsets of every jump
    (spherical._row_primitives), over Phi_n(r) = row[0]: a quotient of one
    number by itself where g is 1."""
    return _density_values(g, thetas, row, primitive) / row[0]


def _angular_offsets(region: AdmissibleRegion, r: float, count: int) -> np.ndarray:
    window = region.window(r)
    if window is None:
        return np.empty(0)
    return np.arcsin(window * np.linspace(-1.0, 1.0, count))


def _region_sups(n: int, sp: SpectralParam, densities, regions, nets) -> list[np.ndarray]:
    """Sampled sup of |normalized transform| over each net, per density (rows)
    and region (columns).

    Each rung radius takes its kernel data once (_row_fft, the modes up to
    the highest of the trigonometric densities), then evaluates each
    density at the fan cells of every net and region; a radius that several
    nets share (the ends of the ladder, for a net and its doubling) is
    computed once, and rungs inside the zero-free radius are skipped.
    Regions of one width and kind share their fan offsets.  The row's
    primitive at the offsets of every density's jumps from every fan cell
    comes for every rung from one quadrature per run of rungs
    (spherical._row_primitives).  The rungs raise in ladder order, a rung's
    modes before its primitive, so the first refusal is the one a rung by
    rung sweep meets; the ladder takes only the rungs below the first whose
    modes are refused, and no density is evaluated after a refusal.
    """
    r_floor = _zero_free_cached(n, sp.lam)
    shared: dict[float, list[int]] = {}
    for k, net in enumerate(nets):
        for r in net.radii():
            if r >= r_floor:
                shared.setdefault(r, []).append(k)
    top = max((max(g.modes, default=0) for g in densities if isinstance(g.modes, dict)), default=0)
    jumps = [b for g in densities for b, _ in g.jumps]
    groups: dict[tuple, list[int]] = {}
    for j, reg in enumerate(regions):
        groups.setdefault((reg.width, reg.kind), []).append(j)
    anchors = np.array([reg.anchor_angle for reg in regions])

    def fan(r, ks):
        # (net position, member regions, their cells: a row per region), and the cells' angles
        size = _grid_size(r)
        fans = []
        for c, k in enumerate(ks):
            for members in groups.values():
                offs = _angular_offsets(regions[members[0]], r, nets[k].angular_count)
                idx = np.round((anchors[members, None] + offs) / (2.0 * math.pi / size)).astype(int)
                fans.append((c, members, idx % size))
        return fans, 2.0 * math.pi * np.concatenate([idx.ravel() for *_, idx in fans]) / size

    # every rung's modes in ladder order, up to the first that is refused
    rungs, refused = [], None
    for r, ks in shared.items():
        try:
            row = _row_fft(n, sp.lam, r, top)
        except HypolibError as exc:
            refused = exc
            break
        rungs.append((r, ks, row, *fan(r, ks)))
    primitives = [None] * len(rungs)
    if jumps:
        primitives = _row_primitives(
            n, sp, [(r, np.concatenate([_wrapped(thetas, b) for b in jumps])) for r, *_, thetas in rungs]
        )
    if refused is not None:
        raise refused

    def rung(job) -> np.ndarray:
        (r, ks, row, fans, thetas), primitive = job
        vals = np.abs([_field_at_radius(n, sp, thetas, g, r, row, primitive) for g in densities])
        sups = np.zeros((len(ks), len(densities), len(regions)))
        at = 0
        for c, members, idx in fans:
            if idx.size:
                part = vals[:, at : at + idx.size].reshape(len(densities), *idx.shape)
                sups[c][:, members] = np.max(part, axis=2)
            at += idx.size
        return sups

    out = [np.zeros((len(densities), len(regions))) for _ in nets]
    for (_, ks, *_), sups in zip(rungs, parallel_map(rung, list(zip(rungs, primitives)))):
        for k, sup in zip(ks, sups):
            out[k] = np.maximum(out[k], sup)
    return out


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
        tests.append((test_id, g, _hl_maxima(g(hl_grid), zetas)))

    def ratios(sups: np.ndarray) -> tuple[tuple[str, float], ...]:
        rows = []
        for (test_id, _, hl), sup in zip(tests, sups):
            rows.append((test_id, float(np.max(np.divide(sup, hl, out=np.zeros_like(sup), where=hl > 0)))))
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
    datum: BoundaryDatum,
    width: float,
    zeta_angles,
    kind: str = _TUBE,
    depths=(1, 2, 3, 4),
) -> list[FatouRow]:
    """Approach each anchor inside its region and record the limits.

    Per rung two points are taken: the radial one and one pushed to 90%
    of the angular window, so the sweep exercises the full region and
    not only the radius.  The datum's Density part gives each anchor's
    target; its Atoms part is transformed separately, and its normalized
    magnitude lands in atom_part.
    """
    parts = (datum.density, datum.atoms) if isinstance(datum, Mixture) else (datum,)
    density = next((part for part in parts if isinstance(part, Density)), None)
    atoms = next((part for part in parts if isinstance(part, Atoms)), None)
    points = []
    for ang in zeta_angles:
        region = AdmissibleRegion(float(ang), width, kind)
        target = density.at(float(ang)) if density else 0.0j
        for k in depths:
            r = 1.0 - 10.0 ** (-k)
            window = region.window(r)
            if window is None:
                continue
            for frac in (0.0, 0.9):
                alpha = frac * math.asin(window)
                points.append((float(ang), r, alpha, target))
    polar = [(r, ang + alpha) for ang, r, alpha, _ in points]
    results = _sweep(n, sp, datum, polar)
    atom_parts = [0.0] * len(polar)
    if atoms is not None and atoms.points:
        atom_parts = [abs(v) for _, v in _sweep(n, sp, atoms, polar)]
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
        for (ang, r, alpha, target), (value, normalized), atom_part
        in zip(points, results, atom_parts)
    ]


