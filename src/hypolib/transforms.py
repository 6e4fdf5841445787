"""Boundary data and generalized Poisson transforms.

Boundary data comes in four shapes: a truncated Fourier-coefficient sequence
(standing in for an analytic functional), a density against normalized arc
measure dphi/2pi, a finite list of point masses, or a density+atoms mixture.
The pairing convention: if g(psi) = sum g_m e^{i m psi} then

    <nu, g> = sum_m g_m conj(nu_m),

so a density rho contributes nu_m = (1/2pi) int rho e^{-i m psi} dpsi and an
atom of weight w at psi0 contributes nu_m = conj(w) e^{-i m psi0}.

The order-n transform integrates the graded kernel against the datum;
`normalized` divides by the circle mean of the kernel at |z|, the quantity
that makes boundary limits meaningful.  Normalization refuses radii below
the kernel's zero-free radius.

Transforms are computed one circle at a time: a sweep (_sweep) takes its
points as (r, theta) and groups them by the radius r the caller gave.  On
|z| = r the transform's mode k is R_|k| nu^_k, the kernel row's mode
(_kernel_modes, one panel quadrature) times the datum's (_datum_modes).
Fourier data and the weak-star pairings of every datum are read off
these, and so is every density with a closed form (_density_values): a
trigonometric polynomial from the row's modes, a density with jumps from
its mode 0 and its primitive (_row_primitive), so a circle of such a
density takes one or two row quadratures however many points it has.  The
maximal sweeps of regions take the same evaluator at each rung.  Any other
density takes a circle quadrature per point.  poisson_transform is the
one-point sweep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonConvergence, NormalizationUnavailable, ResultOverflow
from .geometry import RadialFrame, poisson_radial_profile
from .kernels import (
    FORBIDDEN,
    SpectralParam,
    kernel_poly,
    make_spectral,
    polyharmonic_kernel,
)
from .numerics import (
    _PANEL_ORDER,
    _chunks,
    _cumulative_panels,
    _doubling,
    _dyadic_edges,
    _gl_nodes,
    _panel_failure,
    _panel_nodes,
    _settled,
    integrate_circle,
)
from .spherical import spherical_function, zero_free_radius

__all__ = [
    "FourierSeq",
    "Density",
    "Atoms",
    "Mixture",
    "BoundaryDatum",
    "density_preset",
    "TransformResult",
    "poisson_transform",
    "dirichlet_solve",
    "riquier_solve",
    "convergence_probe",
]


@dataclass(frozen=True)
class FourierSeq:
    """Analytic-functional surrogate: finitely many coefficients nu_m."""

    coeffs: dict

    def __post_init__(self):
        for m, v in self.coeffs.items():
            if not isinstance(m, int):
                raise ValueError(f"mode indices must be int, got {m!r}")
            if not np.isfinite(complex(v)):
                raise ValueError(f"coefficient at mode {m} is not finite")

    def window(self) -> int:
        return max((abs(m) for m in self.coeffs), default=0)


@dataclass(frozen=True)
class Density:
    """Density against dphi/2pi; breakpoints list its kink angles.

    modes, when known in closed form, gives the coefficients
    c_k = (1/2pi) int rho e^{-ik psi} dpsi of a real density for k >= 0
    (the negative modes are their conjugates): a table {k: c_k} of the
    nonzero ones for a trigonometric polynomial, else a map from an integer
    array k to c_k.

    jumps, for a density whose derivative is a constant plus point masses,
    lists the masses as (angle, size) pairs: then c_k is
    sum_i J_i e^{-ik b_i} / (2 pi i k) for k != 0, and such a density also
    carries its modes map, for c_0.
    """

    fn: Callable
    name: str
    breakpoints: tuple = ()
    modes: Union[dict, Callable, None] = field(default=None, compare=False)
    jumps: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.jumps and not callable(self.modes):
            raise ValueError("a density with jumps needs its modes map, for its mean")

    def __call__(self, phi):
        return self.fn(np.asarray(phi, dtype=float))

    def at(self, phi: float) -> complex:
        """Value at a single angle."""
        return complex(np.asarray(self(np.array([phi])))[0])


@dataclass(frozen=True)
class Atoms:
    """Point masses: tuple of (angle, complex weight)."""

    points: tuple

    def __post_init__(self):
        for ang, w in self.points:
            if not (np.isfinite(ang) and np.isfinite(complex(w))):
                raise ValueError("atom angle and weight must be finite")


@dataclass(frozen=True)
class Mixture:
    density: Optional[Density]
    atoms: Optional[Atoms]


BoundaryDatum = Union[FourierSeq, Density, Atoms, Mixture]


def _sawtooth(phi):
    # 2-periodic odd ramp on (-pi, pi], normalized to [-1, 1]
    return np.remainder(phi + math.pi, 2.0 * math.pi) / math.pi - 1.0


def _sawtooth_modes(k):
    # c_k = i (-1)^k / (pi k), c_0 = 0
    kk = np.where(k == 0, 1, k)
    return np.where(k == 0, 0.0, 1j * (1 - 2 * (kk % 2)) / (math.pi * kk))


def _indicator_modes(c: float, w: float) -> Callable:
    # c_k = e^{-ikc} sin(kw) / (pi k), c_0 = w / pi
    def modes(k):
        kk = np.where(k == 0, 1, k)
        return np.where(k == 0, w / math.pi, np.exp(-1j * c * kk) * (np.sin(w * kk) / (math.pi * kk)))

    return modes


def density_preset(name: str) -> Density:
    """Named densities: one, cos, sin, cos2, sawtooth, indicator:<c>:<w>,
    each with its Fourier coefficients in closed form, and the last two
    with their jumps."""
    if name == "one":
        return Density(lambda p: np.ones_like(p), "one", modes={0: 1.0})
    if name == "cos":
        return Density(np.cos, "cos", modes={1: 0.5})
    if name == "sin":
        return Density(np.sin, "sin", modes={1: -0.5j})
    if name == "cos2":
        return Density(lambda p: np.cos(2.0 * p), "cos2", modes={2: 0.5})
    if name == "sawtooth":
        return Density(
            _sawtooth, "sawtooth", breakpoints=(math.pi,), modes=_sawtooth_modes,
            jumps=((math.pi, -2.0),),
        )
    if name.startswith("indicator:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected indicator:<center>:<halfwidth>, got {name!r}")
        c, w = float(parts[1]), float(parts[2])
        if not 0.0 < w < math.pi:
            raise ValueError(f"indicator halfwidth must lie in (0, pi), got {w}")

        def ind(phi):
            d = np.abs(np.remainder(phi - c + math.pi, 2.0 * math.pi) - math.pi)
            return (d <= w).astype(float)

        return Density(
            ind, name, breakpoints=(c - w, c + w), modes=_indicator_modes(c, w),
            jumps=((c - w, 1.0), (c + w, -1.0)),
        )
    raise ValueError(f"unknown density preset {name!r}")


@dataclass(frozen=True)
class TransformResult:
    value: complex
    normalized: Optional[complex]
    frame: RadialFrame


@lru_cache(maxsize=4096)
def _zero_free_cached(n: int, lam: complex) -> float:
    return zero_free_radius(n, make_spectral(lam)).r_min


def _normalizer(n: int, sp: SpectralParam, r: float) -> complex:
    """Phi_n(r), refusing the forbidden ray, radii inside the zero-free
    radius and an underflowing mean."""
    if sp.kind == FORBIDDEN:
        raise NormalizationUnavailable("no normalization on the forbidden ray")
    r_min = _zero_free_cached(n, sp.lam)
    if r < r_min:
        raise NormalizationUnavailable(
            f"|z| = {r:.6f} below the zero-free radius {r_min:.6f} for order {n}"
        )
    denom = spherical_function(n, r, sp)
    if abs(denom) < 1e-300:
        raise NormalizationUnavailable(f"kernel mean underflow at r = {r}")
    return denom


def _kernel_row(n, sp, r, phi):
    """Order-n kernel at radius r against boundary angle offsets phi.

    Real (and computed in real arithmetic) when the exponent and g_n are
    real, which holds for every real lam off the forbidden ray.
    """
    logp = np.log(poisson_radial_profile(r, phi))
    poly = kernel_poly(n, sp)
    coeffs = np.array(poly.coeffs)
    if sp.exponent.imag == 0.0 and not coeffs.imag.any():
        return np.polynomial.polynomial.polyval(logp, coeffs.real) * np.exp(sp.exponent.real * logp)
    return poly.evaluate(logp) * np.exp(sp.exponent * logp)


def _row_panels(r: float, top: int = 0) -> list[float]:
    """Panel edges on [0, pi] for the kernel row at radius r: dyadic toward
    its peak at 0 (width ~ 1/tau), and at most pi / top wide, so that
    cos(kt) turns at most half a period on a panel for k <= top."""
    tau = RadialFrame.from_r(r).tau
    peak = min(1.0, 1.0 / tau) if tau > 0 else 1.0
    edges = _dyadic_edges(min(peak, math.pi / 4.0), math.pi)
    return sorted(set(edges).union(np.linspace(0.0, math.pi, top + 1).tolist()))


def _kernel_modes(n: int, sp: SpectralParam, r: float, ks) -> np.ndarray:
    """The kernel row's Fourier modes R_k = (1/2pi) int K_r(t) e^{-ikt} dt
    at each k >= 0 of ks.  The row is even, so R_k is
    (1/pi) int_0^pi K_r(t) cos(kt) dt: one panel quadrature with a lane
    per mode, the row evaluated once per doubling step for every lane, the
    lanes taken in chunks (numerics._chunks) to bound the memory."""
    ks = np.array([int(k) for k in ks], dtype=float)
    edges = np.asarray(_row_panels(r, int(ks.max(initial=0))))

    def estimate(orders, lanes):
        x, w, blocks = _gl_nodes(tuple(orders))
        nodes, weights = _panel_nodes(edges, x, w)
        row = _kernel_row(n, sp, r, nodes) * weights
        lanes = np.asarray(lanes)
        sums = np.empty((len(blocks), lanes.size), dtype=complex)
        for c in _chunks(np.arange(lanes.size), row.size):
            vals = np.cos(np.multiply.outer(ks[lanes[c]], nodes)) * row
            sums[:, c] = [vals[..., k].sum(axis=(1, 2)) for k in blocks]
        return sums

    modes = _doubling(estimate, _PANEL_ORDER, 4 * _PANEL_ORDER, ks.size, _panel_failure)
    return np.array(_settled(modes), dtype=complex) / math.pi


def _row_primitive(n: int, sp: SpectralParam, r: float, xs) -> Callable:
    """x -> int_0^x K_r(t) dt for the offsets x among xs (|x| <= pi), from
    one cumulative panel quadrature on panels dyadic toward the row's peak,
    each |x| closing a panel of its own.  The row is even, so the
    primitive is odd."""
    xs = np.unique(np.abs(np.asarray(xs, dtype=float)))
    try:
        values = _cumulative_panels(lambda t: _kernel_row(n, sp, r, t), _row_panels(r), xs)
    except NonConvergence as exc:
        raise NonConvergence(
            f"order-{n} kernel row integral at lam = {sp.lam}, r = {r}: {exc}",
            last_estimates=exc.last_estimates,
        ) from exc
    return lambda x: np.sign(x) * values[np.searchsorted(xs, np.abs(x))]


def _check_radii(radii) -> None:
    """ValueError naming the first radius outside [0, 1): a negative r
    would put r e^{i theta} on the antipodal circle."""
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise ValueError(f"radius must lie in [0, 1), got {r}")


def _row_modes(n: int, sp: SpectralParam, r: float, ks) -> np.ndarray:
    """R_|k| for each integer k of ks, from one _kernel_modes call."""
    ks = np.abs(np.asarray(ks, dtype=int))
    top = np.unique(ks)
    return _kernel_modes(n, sp, r, top)[np.searchsorted(top, ks)]


def _datum_modes(datum, ks) -> np.ndarray:
    """The datum's Fourier modes nu^_k = int e^{-ik psi} dnu(psi) at each
    integer k of ks, against which the transform's mode k is R_|k| nu^_k.

    Exact for atoms, Fourier data (nu^_k = conj(nu_{-k}), see the module
    docstring) and densities with closed-form modes (nu^_{-k} = conj(nu^_k)
    for these real densities); any other density takes one circle
    quadrature per mode, split at its breakpoints.
    """
    ks = np.array([int(k) for k in ks], dtype=int)
    if isinstance(datum, Density):
        if datum.modes is None:
            return np.array([
                integrate_circle(
                    lambda phi, k=k: datum(phi) * np.exp(-1j * k * phi), breakpoints=datum.breakpoints
                )
                for k in ks
            ], dtype=complex)
        if isinstance(datum.modes, dict):
            out = np.array([complex(datum.modes.get(k, 0.0)) for k in np.abs(ks).tolist()], dtype=complex)
        else:
            out = np.asarray(datum.modes(np.abs(ks)), dtype=complex)
        return np.where(ks < 0, out.conj(), out)
    out = np.zeros(ks.size, dtype=complex)
    if isinstance(datum, Atoms):
        for ang, w in datum.points:
            out += complex(w) * np.exp(-1j * ks * float(ang))
    elif isinstance(datum, FourierSeq):
        out[:] = [complex(datum.coeffs.get(-k, 0.0)).conjugate() for k in ks.tolist()]
    elif isinstance(datum, Mixture):
        for part in (datum.density, datum.atoms):
            if part is not None:
                out += _datum_modes(part, ks)
    else:
        raise TypeError(f"not a boundary datum: {type(datum).__name__}")
    return out


def _wrapped(thetas: np.ndarray, b: float) -> np.ndarray:
    """theta - b for each theta, moved by a multiple of 2 pi into [-pi, pi];
    exact offsets stay untouched, so close to b the offset keeps its digits."""
    x = thetas - b
    return x - 2.0 * math.pi * np.round(x / (2.0 * math.pi))


def _density_values(n, sp, g: Density, r: float, thetas, row=None, primitive=None):
    """Order-n transform of the real density g at the angles thetas on
    |z| = r, with {index: error} for the points whose quadrature overflows
    or does not stabilize.

    row holds the kernel row's modes R_0, R_1, ... (_kernel_modes) and
    primitive the row's primitive at the offset of every jump from every
    angle (_row_primitive); either is computed here when not given.  A
    trigonometric polynomial {k >= 0: c_k} sums
    c_0 R_0 + sum_k R_k 2 Re(c_k e^{ik theta}): the row is even and g real,
    so mode -k pairs R_k with conj(c_k).  A density whose derivative is a
    constant plus jumps J_i at angles b_i, whose modes are therefore
    c_k = sum_i J_i e^{-ik b_i} / (2 pi i k), sums to

        c_0 R_0 + sum_i (J_i / 2pi) (int_0^{x_i} K_r - R_0 x_i),

    x_i = theta - b_i wrapped into [-pi, pi].  Any other density takes, at
    each angle, the circle quadrature of K_r(phi) g(phi + theta) with g's
    breakpoints shifted by theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    table = g.modes if isinstance(g.modes, dict) else None
    if table is None and not g.jumps:
        tau = RadialFrame.from_r(r).tau
        peak = min(1.0, 1.0 / tau) if tau > 0 else 1.0
        values = np.zeros(thetas.size, dtype=complex)
        errors: dict = {}
        for i, t in enumerate(thetas.tolist()):
            try:
                values[i] = integrate_circle(
                    lambda phi: _kernel_row(n, sp, r, phi) * g(phi + t),
                    peak,
                    [b - t for b in g.breakpoints],
                )
            except (ResultOverflow, NonConvergence) as exc:
                errors[i] = exc
        return values, errors
    if row is None:
        top = max(table, default=0) if table is not None else 0
        row = _kernel_modes(n, sp, r, range(top + 1))
    if table is not None:
        acc = np.full(thetas.shape, complex(table.get(0, 0.0)) * row[0])
        for k, c in table.items():
            if k:
                acc += row[k] * (2.0 * (c * np.exp(1j * k * thetas)).real)
        return acc, {}
    offsets = [_wrapped(thetas, b) for b, _ in g.jumps]
    if primitive is None:
        primitive = _row_primitive(n, sp, r, np.concatenate(offsets))
    acc = np.full(thetas.shape, complex(g.modes(np.zeros(1, dtype=int))[0]) * row[0])
    for (_, jump), x in zip(g.jumps, offsets):
        acc += jump / (2.0 * math.pi) * (primitive(x) - row[0] * x)
    return acc, {}


def _circle_values(n, sp, datum, r: float, thetas: list) -> tuple[np.ndarray, dict]:
    """Order-n transform of the datum at the points r e^{i theta}, theta in
    thetas, with {index: error} for the points whose value does not fit in
    a double or whose quadrature does not stabilize.

    A density takes _density_values; Fourier data take the kernel row's
    modes they need once (_kernel_modes); atoms the kernel at each point.
    """
    if isinstance(datum, Density):
        return _density_values(n, sp, datum, r, thetas)
    values = np.zeros(len(thetas), dtype=complex)
    errors: dict = {}
    if isinstance(datum, Atoms):
        for i, theta in enumerate(thetas):
            z = cmath.rect(r, theta)
            try:
                values[i] = sum(
                    (complex(w) * polyharmonic_kernel(n, z, float(ang), sp) for ang, w in datum.points),
                    0j,
                )
            except ResultOverflow as exc:
                errors[i] = exc
    elif isinstance(datum, FourierSeq):
        ks = [-m for m in datum.coeffs]
        terms = _row_modes(n, sp, r, ks) * _datum_modes(datum, ks)
        for i, theta in enumerate(thetas):
            values[i] = complex(sum((t * cmath.exp(1j * k * theta) for k, t in zip(ks, terms)), 0j))
    elif isinstance(datum, Mixture):
        for part in (datum.density, datum.atoms):
            if part is not None:
                vals, errs = _circle_values(n, sp, part, r, thetas)
                values = values + vals
                for i, exc in errs.items():
                    errors.setdefault(i, exc)
    else:
        raise TypeError(f"not a boundary datum: {type(datum).__name__}")
    return values, errors


def _located(n: int, sp: SpectralParam, z: complex, exc):
    """exc, of its type, as the failure of the order-n transform at z."""
    where = f"order-{n} transform at lam = {sp.lam}, z = {z}: {exc}"
    if isinstance(exc, ResultOverflow):
        return ResultOverflow(where)
    return NonConvergence(where, last_estimates=exc.last_estimates)


def _sweep(n: int, sp: SpectralParam, datum, points, normalize: bool = True) -> list:
    """(value, normalized value or None) of the order-n transform at each
    point (r, theta) of points, the disk point r e^{i theta}, in order.

    One pass per radius the caller gave (_circle_values): points meant for
    one circle share it, whatever |z| their coordinates would round to.
    Raises as a poisson_transform call per point, in order, would: at the
    first point whose value fails, naming lam, n and that z, or whose
    normalization is refused.
    """
    circles: dict[float, list] = {}
    for i, (r, _) in enumerate(points):
        circles.setdefault(float(r), []).append(i)
    values = np.zeros(len(points), dtype=complex)
    errors: dict = {}
    for r, idx in circles.items():
        try:
            vals, errs = _circle_values(n, sp, datum, r, [float(points[i][1]) for i in idx])
        except (ResultOverflow, NonConvergence) as exc:
            vals, errs = 0j, {0: exc}
        values[idx] = vals
        errors.update((idx[j], exc) for j, exc in errs.items())
    out, denoms = [], {}
    for i, (r, theta) in enumerate(points):
        if i in errors:
            raise _located(n, sp, cmath.rect(r, theta), errors[i]) from errors[i]
        value = complex(values[i])
        if not normalize:
            out.append((value, None))
            continue
        if r not in denoms:
            denoms[r] = _normalizer(n, sp, r)
        out.append((value, value / denoms[r]))
    return out


def poisson_transform(
    n: int,
    sp: SpectralParam,
    datum: BoundaryDatum,
    z: complex,
    normalize: bool = True,
) -> TransformResult:
    """Order-n transform of the boundary datum, with its normalized value.

    The one-point sweep at (|z|, arg z).  Raises ResultOverflow where the
    value does not fit in a double, and NonConvergence where its quadrature
    does not stabilize, each naming lam, n and z.
    """
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError(f"z must lie in the open disk, got |z| = {r}")
    ((value, normalized),) = _sweep(n, sp, datum, [(r, cmath.phase(z))], normalize)
    return TransformResult(value=value, normalized=normalized, frame=RadialFrame.from_r(r))


@dataclass(frozen=True)
class SweepRow:
    xi_angle: float
    r: float
    value: complex
    target: complex
    error: float


@dataclass(frozen=True)
class DirichletSolution:
    sp: SpectralParam
    g: Density

    def field(self, z: complex) -> complex:
        return poisson_transform(0, self.sp, self.g, z, normalize=False).value

    def verify(self, xi_angles, radii) -> list:
        """Boundary sweep rows: normalized field vs g at each (xi, r)."""
        _check_radii(radii)
        points = [(r, ang) for ang in xi_angles for r in radii]
        rows = []
        for (r, ang), (_, value) in zip(points, _sweep(0, self.sp, self.g, points)):
            tgt = self.g.at(ang)
            rows.append(SweepRow(ang, r, value, tgt, abs(value - tgt)))
        return rows


def dirichlet_solve(sp: SpectralParam, g: Density):
    if sp.kind == FORBIDDEN:
        raise ValueError("no boundary solver on the forbidden ray")
    return DirichletSolution(sp=sp, g=g)


@dataclass(frozen=True)
class RiquierSolution:
    sp: SpectralParam
    gs: tuple

    def layer(self, k: int, z: complex) -> complex:
        """Order-k transform of the k-th datum (the k-th layer field)."""
        return poisson_transform(k, self.sp, self.gs[k], z, normalize=False).value

    def verify(self, xi_angles, radii) -> dict:
        """Boundary traces: each layer over its own normalizer tends to its
        datum; lower layers over a higher normalizer tend to 0."""
        _check_radii(radii)
        points = [(r, ang) for ang in xi_angles for r in radii]
        own, cross, layers = [], [], []
        for k, g in enumerate(self.gs):
            layers.append([v for v, _ in _sweep(k, self.sp, g, points, normalize=False)])
            for p, (r, ang) in enumerate(points):
                phi_k = spherical_function(k, r, self.sp)
                vk = layers[k][p] / phi_k
                tgt = g.at(ang)
                own.append(SweepRow(ang, r, vk, tgt, abs(vk - tgt)))
                for j in range(k):
                    vj = layers[j][p] / phi_k
                    cross.append(SweepRow(ang, r, vj, 0j, abs(vj)))
        return {"own": own, "cross": cross}


def riquier_solve(sp: SpectralParam, gs):
    if sp.kind == FORBIDDEN:
        raise ValueError("no boundary solver on the forbidden ray")
    return RiquierSolution(sp=sp, gs=tuple(gs))


# the probe's angles: equispaced on the circle, _LP_ANGLES of them for Lp,
# else _PROBE_ANGLES; and the modes of its weak-star pairings
_PROBE_ANGLES = 24
_LP_ANGLES = 64
_PAIRING_MODES = range(-3, 4)


def convergence_probe(
    n: int,
    sp: SpectralParam,
    datum: BoundaryDatum,
    mode: str,
    radii=(0.9, 0.99, 0.999),
    p: float = 2.0,
) -> dict:
    """Empirical boundary-convergence report.

    uniform: sup over xi of |normalized - g| per radius (continuous g).
    pointwise-ae: same rows but only at angles away from breakpoints.
    Lp: discrete L^p distance between the normalized field and g per radius.
    weak-star: pairings of the normalized field against e^{i k phi} per
    radius and |k| <= 3, R_|k| nu^_k / Phi_n(r) from the kernel row's modes
    (_row_modes) and the datum's (_datum_modes); they tend to the datum's
    coefficients nu^_k = int e^{-ik psi} dnu (for an atom of mass 1 at
    angle 0: all 1).
    """
    if mode not in ("uniform", "pointwise-ae", "Lp", "weak-star"):
        raise ValueError(f"unknown probe mode {mode!r}")
    _check_radii(radii)
    report = {"mode": mode, "radii": list(radii), "rows": []}
    if mode == "weak-star":
        ks = list(_PAIRING_MODES)
        hat = _datum_modes(datum, ks)
        for r in radii:
            norm = _normalizer(n, sp, r)
            pairs = _row_modes(n, sp, r, ks) * hat / norm
            report["rows"].append({"r": r, "pairings": dict(zip(ks, pairs.tolist()))})
        return report
    if not isinstance(datum, Density):
        raise ValueError(f"{mode} probe needs a Density datum")
    xi_angles = np.linspace(
        -math.pi, math.pi, _LP_ANGLES if mode == "Lp" else _PROBE_ANGLES, endpoint=False
    ).tolist()
    if mode == "pointwise-ae":
        xi_angles = [
            a for a in xi_angles
            if all(abs(math.remainder(a - b, 2 * math.pi)) > 0.2 for b in datum.breakpoints)
        ]
    swept = [v for _, v in _sweep(n, sp, datum, [(r, a) for r in radii for a in xi_angles])]
    targets = [datum.at(a) for a in xi_angles]
    for i, r in enumerate(radii):
        errs = [abs(v - t) for v, t in zip(swept[i * len(targets) :], targets)]
        if mode == "Lp":
            lp = float(np.mean([e**p for e in errs])) ** (1.0 / p)
            report["rows"].append({"r": r, "lp_error": lp})
        else:
            report["rows"].append({"r": r, "sup_error": max(errs)})
    return report
