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
that makes boundary limits meaningful.  That mean is Phi_n, mode 0 of the
kernel row (spherical_function), and the very number every transform on
the circle takes as its R_0 (_row_modes), so the normalized unit density
is exactly 1.  Normalization refuses radii below the zero-free radius.

Transforms are computed one circle at a time: a sweep (_sweep) takes its
points as (r, theta) and groups them by the radius r the caller gave.  On
|z| = r the transform's mode k is R_|k| nu^_k, the kernel row's mode
(_row_modes: Phi_n, and one panel quadrature for the modes past 0) times
the datum's (_datum_modes, exact for every datum: a Density carries its
modes in closed form).  Fourier data and the weak-star pairings of every
datum are read off these, and so is every density (_density_values): a
trigonometric polynomial from the row's modes, a density with jumps from
R_0 and the row's primitive (spherical._row_primitive, the ladder
quadrature of spherical._row_primitives at one rung), however many
points the circle has.  The maximal sweeps of regions take the same
evaluator at each rung.  Atoms take the kernel row itself
(spherical._kernel_row) at each point's offset from the atom.
poisson_transform is the one-point sweep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonConvergence, NormalizationUnavailable, ResultOverflow
from .kernels import FORBIDDEN, SpectralParam, make_spectral
from .spherical import _kernel_modes, _kernel_row, _row_primitive, spherical_function, zero_free_radius

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


@dataclass(frozen=True)
class Density:
    """Real density against dphi/2pi, with its coefficients
    c_k = (1/2pi) int rho e^{-ik psi} dpsi for k >= 0 (the negative modes
    are their conjugates) in closed form, of one of two kinds:

    - a trigonometric polynomial: modes is a table {k: c_k} of the nonzero
      ones, and jumps is empty;
    - a density whose derivative is a constant plus point masses: jumps
      lists the masses as (angle, size) pairs, so that c_k is
      sum_i J_i e^{-ik b_i} / (2 pi i k) for k != 0, and modes is a map
      from an integer array k to c_k, which gives c_0.
    """

    fn: Callable
    name: str
    modes: Union[dict, Callable] = field(compare=False)
    jumps: tuple = field(default=(), compare=False)

    def __post_init__(self):
        table = isinstance(self.modes, dict)
        if not (table or callable(self.modes)) or table == bool(self.jumps):
            raise ValueError("a density takes a modes table {k: c_k} and no jumps, or a modes map and its jumps")

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
        return Density(_sawtooth, "sawtooth", modes=_sawtooth_modes, jumps=((math.pi, -2.0),))
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

        return Density(ind, name, modes=_indicator_modes(c, w), jumps=((c - w, 1.0), (c + w, -1.0)))
    raise ValueError(f"unknown density preset {name!r}")


@dataclass(frozen=True)
class TransformResult:
    value: complex
    normalized: Optional[complex]


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


def _check_radii(radii) -> None:
    """ValueError naming the first radius outside [0, 1): a negative r
    would put r e^{i theta} on the antipodal circle."""
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise ValueError(f"radius must lie in [0, 1), got {r}")


def _row_modes(n: int, sp: SpectralParam, r: float, ks) -> np.ndarray:
    """R_|k| for each integer k of ks, the one place a circle takes its
    row's modes: R_0 is Phi_n(r) (spherical_function), the number the
    normalization divides by, and the modes past 0 come from one
    _kernel_modes call, whose NonConvergence names n, lam and r."""
    ks = [abs(int(k)) for k in ks]
    past = sorted(set(ks) - {0})
    modes = {0: spherical_function(n, r, sp)} if 0 in ks else {}
    if past:
        try:
            modes.update(zip(past, _kernel_modes(n, sp, r, past)))
        except NonConvergence as exc:
            where = f"order-{n} kernel row modes at lam = {sp.lam}, r = {r}: {exc}"
            raise NonConvergence(where, last_estimates=exc.last_estimates) from exc
    return np.array([modes[k] for k in ks], dtype=complex)


def _datum_modes(datum, ks) -> np.ndarray:
    """The datum's Fourier modes nu^_k = int e^{-ik psi} dnu(psi) at each
    integer k of ks, against which the transform's mode k is R_|k| nu^_k.

    Exact for every datum: atoms, Fourier data (nu^_k = conj(nu_{-k}), see
    the module docstring) and densities, from their closed-form modes
    (nu^_{-k} = conj(nu^_k) for these real densities).
    """
    ks = np.array([int(k) for k in ks], dtype=int)
    if isinstance(datum, Density):
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


def _density_values(g: Density, thetas, row, primitive) -> np.ndarray:
    """Transform of the real density g at the angles thetas on a circle,
    from the circle's kernel row: row holds its modes R_0, R_1, ... up to
    g's top mode (_row_modes), and primitive its primitive at the offset of
    every jump from every angle (spherical._row_primitive), or is None for
    a density without jumps.  A trigonometric polynomial {k >= 0: c_k} sums
    c_0 R_0 + sum_k R_k 2 Re(c_k e^{ik theta}): the row is even and g real,
    so mode -k pairs R_k with conj(c_k).  A density whose derivative is a
    constant plus jumps J_i at angles b_i, whose modes are therefore
    c_k = sum_i J_i e^{-ik b_i} / (2 pi i k), sums to

        c_0 R_0 + sum_i (J_i / 2pi) (int_0^{x_i} K_r - R_0 x_i),

    x_i = theta - b_i wrapped into [-pi, pi].
    """
    thetas = np.asarray(thetas, dtype=float)
    if isinstance(g.modes, dict):
        acc = np.full(thetas.shape, complex(g.modes.get(0, 0.0)) * row[0])
        for k, c in g.modes.items():
            if k:
                acc += row[k] * (2.0 * (c * np.exp(1j * k * thetas)).real)
        return acc
    acc = np.full(thetas.shape, complex(g.modes(np.zeros(1, dtype=int))[0]) * row[0])
    for b, jump in g.jumps:
        x = _wrapped(thetas, b)
        acc += jump / (2.0 * math.pi) * (primitive(x) - row[0] * x)
    return acc


def _circle_values(n, sp, datum, r: float, thetas: list) -> tuple[np.ndarray, dict]:
    """Order-n transform of the datum at the points r e^{i theta}, theta in
    thetas, with {index: error} for the points where the atoms' sum does
    not fit in a double; a row quadrature that fails raises for the circle.

    Every datum reads the kernel row K_r: a density its modes (_row_modes)
    and primitive (_density_values), Fourier data the modes they need, and
    atoms the row itself at each angle's offset from each atom."""
    thetas = np.asarray(thetas, dtype=float)
    if isinstance(datum, Density):
        top = max(datum.modes, default=0) if isinstance(datum.modes, dict) else 0
        row = _row_modes(n, sp, r, range(top + 1))
        primitive = None
        if datum.jumps:
            primitive = _row_primitive(n, sp, r, np.concatenate([_wrapped(thetas, b) for b, _ in datum.jumps]))
        return _density_values(datum, thetas, row, primitive), {}
    values = np.zeros(thetas.size, dtype=complex)
    errors: dict = {}
    if isinstance(datum, Atoms):
        for ang, w in datum.points:
            row = _kernel_row(n, sp, r, _wrapped(thetas, float(ang)))
            # a row value past double range leaves its point's sum non-finite,
            # which is refused below, so the product need not warn
            with np.errstate(over="ignore", invalid="ignore"):
                values += complex(w) * row
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            z = cmath.rect(r, thetas[i])
            errors[i] = ResultOverflow(f"the order-{n} kernel at lam = {sp.lam} does not fit in a double at z = {z}")
    elif isinstance(datum, FourierSeq):
        ks = np.array([-m for m in datum.coeffs], dtype=int)
        terms = _row_modes(n, sp, r, ks) * _datum_modes(datum, ks)
        values = (terms * np.exp(1j * np.multiply.outer(thetas, ks))).sum(axis=1)
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
    return TransformResult(value=value, normalized=normalized)


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
                phi_k = _normalizer(k, self.sp, r)
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
# the power p of the Lp probe's discrete L^p distance
_LP_POWER = 2.0
_PAIRING_MODES = range(-3, 4)


def convergence_probe(
    n: int,
    sp: SpectralParam,
    datum: BoundaryDatum,
    mode: str,
    radii=(0.9, 0.99, 0.999),
) -> dict:
    """Empirical boundary-convergence report.

    uniform: sup over xi of |normalized - g| per radius (continuous g).
    pointwise-ae: same rows but only at angles away from the jumps.
    Lp: discrete L^p distance, p = _LP_POWER, between the normalized field
    and g per radius.
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
            if all(abs(math.remainder(a - b, 2 * math.pi)) > 0.2 for b, _ in datum.jumps)
        ]
    swept = [v for _, v in _sweep(n, sp, datum, [(r, a) for r in radii for a in xi_angles])]
    targets = [datum.at(a) for a in xi_angles]
    for i, r in enumerate(radii):
        errs = [abs(v - t) for v, t in zip(swept[i * len(targets) :], targets)]
        if mode == "Lp":
            lp = float(np.mean([e**_LP_POWER for e in errs])) ** (1.0 / _LP_POWER)
            report["rows"].append({"r": r, "lp_error": lp})
        else:
            report["rows"].append({"r": r, "sup_error": max(errs)})
    return report
