"""Fourier calculus of the flat-eigenvalue case and a lacunary example.

Two themes live here.  First, the explicit mode-by-mode calculus for the
harmonic (eigenvalue zero) kernel: the radial weight attached to each
power mode by the log factor, the induced second-order field of an
analytic series, and the Fourier-sequence functional the series defines.
Second, a lacunary gap series built from a polynomial fitted along a
spiral: its pointwise values, growth ratios against log(1 - r), circle
suprema at doubly factorial radii, and witness points where the ratio
stays above 1.

Numerical care concentrates in two places.  The radial weight
H_n + sum_k r^{2k} / (k + n) is summed by four routes chosen so no route
ever divides by a vanishing power: a direct tail for moderate radius, a
log identity when r^{2n} stays above one half (no amplification), a
four-term 1/n expansion when n dwarfs 1/(1 - r^2), and a chunked direct
sum otherwise.  The gap series needs the angle of z^(2^(k!)); scaling a
double angle by 2^24 consumes 24 of its 53 bits, so the reduction mod
2 pi runs in 256-bit arithmetic and adds no error beyond the input's.
Terms with k >= 5 underflow to exactly zero for every double radius
below one, so truncation at k = 4 is exact, not approximate.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FitFailed, PrecisionLoss, ResultOverflow, TruncationWarning
from .polynomials import ComplexPoly

__all__ = [
    "radial_log_weight",
    "AnalyticSeries",
    "associated_biharmonic",
    "associate_deviation_bound",
    "runge_spiral_fit",
    "spiral_deviation",
    "demo_lacunary_spec",
    "LacunarySpec",
    "lacunary_function",
    "lacunary_series",
    "CircleSup",
    "lacunary_circle_sup",
    "Witness",
    "lacunary_witness",
    "lacunary_growth_probe",
    "lacunary_associate_probe",
]

_EULER = 0.5772156649015329
_HARMONIC_CACHE: list[float] = [0.0]


def _harmonic_number(n: int) -> float:
    if n < 10000:
        while len(_HARMONIC_CACHE) <= n:
            _HARMONIC_CACHE.append(_HARMONIC_CACHE[-1] + 1.0 / len(_HARMONIC_CACHE))
        return _HARMONIC_CACHE[n]
    inv = 1.0 / n
    return math.log(n) + _EULER + 0.5 * inv - inv * inv / 12.0


# Nodes per block of the gap-series kernels: radial_log_weight's sums and
# lacunary_circle_sup's walk over its period run this many at a time, so
# neither holds a whole series or grid.
_CHUNK = 1 << 16


def _blocks(start: int, stop: int, dtype):
    """The integers of [start, stop) as arrays of dtype, _CHUNK at a time."""
    for lo in range(start, stop, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, stop), dtype=dtype)


def _power_sum(x: float, shift: int, terms: int) -> float:
    """sum_{k=1}^{terms} x^k / (k + shift), one _CHUNK block at a time."""
    return sum(float(np.sum(x**k / (k + shift))) for k in _blocks(1, terms + 1, float))


@lru_cache(maxsize=1 << 15)
def radial_log_weight(n: int, r: float) -> float:
    """Radial weight of the n-th power mode in the log-kernel calculus.

    Equals H_n plus the tail sum_{k>=1} r^{2k}/(k+n); the Fourier
    coefficient of the log-weighted harmonic kernel row at mode n is
    r^n times this value.  Increasing in n, and squeezed between
    log(1/(1-r^2)) and (1 + n(1-r^2)) log(1/(1-r^2)).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if n < 0:
        raise ValueError("mode must be nonnegative")
    x = r * r
    h_n = _harmonic_number(n)
    if x == 0.0:
        return h_n
    big_l = -math.log1p(-x)
    if n == 0:
        return big_l
    log_x = math.log(x)
    if x > 0.9:
        if n * log_x >= -0.7 and n <= (1 << 21):
            # x^{-n} <= 2, so the subtraction amplifies nothing
            return h_n + (big_l - _power_sum(x, 0, n)) * x ** float(-n)
        k_star = 1.0 / (1.0 - x)
        if n >= 1000.0 * k_star:
            # 1/(k+n) expanded to four powers of 1/n; error ~ (k*/n)^4
            s0 = x / (1.0 - x)
            s1 = x / (1.0 - x) ** 2
            s2 = x * (1.0 + x) / (1.0 - x) ** 3
            s3 = x * (1.0 + 4.0 * x + x * x) / (1.0 - x) ** 4
            inv = 1.0 / n
            return h_n + inv * (s0 - inv * (s1 - inv * (s2 - inv * s3)))
    terms = int(math.ceil((37.0 + big_l) / -log_x)) + 1
    return h_n + _power_sum(x, n, terms)


def _power_at(log_r: float, theta: float, exponent: int) -> complex:
    mod = math.exp(exponent * log_r) if log_r != 0.0 else 1.0
    if mod == 0.0:
        return 0.0j
    ang = math.fmod(exponent * theta, 2.0 * math.pi)
    return mod * complex(math.cos(ang), math.sin(ang))


@dataclass(frozen=True)
class AnalyticSeries:
    """Sparse power series sum c_e z^e with nonnegative integer exponents.

    growth_bound declares limsup |c_e|^{1/e}; zero means the series is an
    exact polynomial and truncation is not an approximation at all.
    """

    terms: tuple[tuple[int, complex], ...]
    growth_bound: float = 0.0

    def __post_init__(self) -> None:
        seen = {}
        for e, c in self.terms:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            seen[int(e)] = seen.get(int(e), 0.0j) + complex(c)
        merged = tuple(sorted((e, c) for e, c in seen.items() if c != 0.0))
        object.__setattr__(self, "terms", merged)

    @classmethod
    def from_dense(cls, coefficients) -> "AnalyticSeries":
        """The exact polynomial sum_e coefficients[e] z^e."""
        return cls(tuple((e, complex(c)) for e, c in enumerate(coefficients)))

    @property
    def max_exponent(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def evaluate(self, z: complex) -> complex:
        z = complex(z)
        r = abs(z)
        if r == 0.0:
            return next((c for e, c in self.terms if e == 0), 0.0j)
        log_r, theta = math.log(r), cmath.phase(z)
        return sum(c * _power_at(log_r, theta, e) for e, c in self.terms)


def _truncation_guard(series: AnalyticSeries, r: float) -> None:
    g = series.growth_bound
    if g <= 0.0:
        return
    scale = g * r
    if scale >= 1.0:
        warnings.warn("growth bound times radius reaches 1; truncation unjustified",
                      TruncationWarning, stacklevel=3)
        return
    n = series.max_exponent
    if n * math.log(scale) > math.log(1e-12):
        warnings.warn(
            f"declared growth leaves tail ~{scale**n:.1e} beyond exponent {n}",
            TruncationWarning, stacklevel=3,
        )


def associated_biharmonic(series: AnalyticSeries, z: complex) -> complex:
    """Second-order field of an analytic series at the flat eigenvalue.

    Each mode c z^e picks up the radial factor radial_log_weight(e, |z|).
    The hyperbolic Laplacian returns this field to the series itself, so
    applying it twice annihilates the result.
    """
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError("point must lie inside the disk")
    _truncation_guard(series, r)
    if r == 0.0:
        return 0.0j
    log_r, theta = math.log(r), cmath.phase(z)
    total = 0.0j
    for e, c in series.terms:
        w = _power_at(log_r, theta, e)
        if w != 0.0:
            total += c * radial_log_weight(e, r) * w
    return total


def associate_deviation_bound(series: AnalyticSeries, r: float) -> float:
    """Bound (1-r^2) sum e |c_e| r^e on the deviation from log-scaling.

    The second-order field differs from log(1/(1-r^2)) times the series
    by at most this amount.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if r == 0.0:
        return 0.0
    log_r = math.log(r)
    s = sum(e * abs(c) * math.exp(e * log_r) for e, c in series.terms)
    return (1.0 - r * r) * s


def _spiral(count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)
    return ((t + 1.0) / 6.0) * np.exp(3.0j * math.pi * t)


_SPIRAL_TARGET = 5.0 / 3.0
_SPIRAL_TOL = 2.0 / 3.0
_FIT_MARGIN = 0.05


@dataclass(frozen=True)
class LacunarySpec:
    """Fitted spiral polynomial plus the gap-series truncation depth."""

    poly: ComplexPoly
    k_max: int = 4
    note: str = "k >= 5 terms underflow to exact zero for double radii"

    def __post_init__(self) -> None:
        if abs(self.poly.evaluate(0.0)) != 0.0:
            raise ValueError("spiral polynomial must vanish at the origin")

    @property
    def coeff_budget(self) -> float:
        """B = sum |p_j|; |p(w)| <= B |w| on the closed unit disk."""
        return float(sum(abs(c) for c in self.poly.coeffs[1:]))


def spiral_deviation(poly: ComplexPoly, sample_count: int = 4096) -> float:
    """Max of |p - 5/3| over a fresh spiral sampling."""
    w = _spiral(sample_count)
    return float(np.max(np.abs(poly.evaluate(w) - _SPIRAL_TARGET)))


def runge_spiral_fit(degree_budget: int = 24, sample_count: int = 512) -> LacunarySpec:
    """Fit a vanishing-at-zero polynomial to 5/3 along the sample spiral.

    Least squares over scaled powers, degree raised until the sampled
    sup deviation clears 2/3 with a 0.05 margin, then verified on an
    8x denser fresh sample.

    This always raises FitFailed: with the origin pinned to zero the
    best possible sup deviation on the spiral equals
    (5/3) min{sup |v| : v(0) = 1, deg v <= s}, which Bernstein-Walsh
    bounds below by (5/3) exp(-s G(0)).  G here is the Green's function
    of the spiral's complement with pole at infinity, and the spiral
    screens the origin so well that G(0) < 1e-6 (equilibrium-measure
    computation; a channel estimate puts it near 1e-10).  Exact LP
    minimax confirms zero progress through degree 128, so a conforming
    polynomial needs degree beyond 1e6 and coefficients beyond any
    floating-point range.
    """
    w = _spiral(sample_count)
    scaled = 3.0 * w
    best = float("inf")
    for degree in range(1, degree_budget + 1):
        cols = np.column_stack([scaled**j for j in range(1, degree + 1)])
        q, *_ = np.linalg.lstsq(cols, np.full(sample_count, _SPIRAL_TARGET + 0.0j), rcond=None)
        coeffs = np.concatenate([[0.0j], q * 3.0 ** np.arange(1, degree + 1)])
        poly = ComplexPoly.from_coeffs(coeffs)
        dev = float(np.max(np.abs(poly.evaluate(w) - _SPIRAL_TARGET)))
        best = min(best, dev)
        if dev < _SPIRAL_TOL - _FIT_MARGIN:
            if spiral_deviation(poly, 8 * sample_count) < _SPIRAL_TOL:
                return LacunarySpec(poly=poly)
    raise FitFailed(
        f"no degree <= {degree_budget} meets the spiral bound "
        f"(best sampled deviation {best:.4f}, needed < {_SPIRAL_TOL - _FIT_MARGIN:.4f}; "
        f"the minimax floor exceeds the bound at every representable degree)"
    )


def demo_lacunary_spec() -> LacunarySpec:
    """Spec with a small exactly-representable polynomial for the gap-series machinery.

    p(w) = 7w + w^3 keeps |p| >= 7|w| - |w|^3 > 1.12 on the spiral with
    coefficient budget 8.  It does not meet the 5/3-band condition;
    runge_spiral_fit's docstring explains why nothing representable does.
    """
    poly = ComplexPoly.from_coeffs((0.0j, 7.0 + 0.0j, 0.0j, 1.0 + 0.0j))
    return LacunarySpec(poly=poly, note="demo polynomial; spiral band unattainable at representable degrees")


# Fractional bits of the fixed-point 2 pi that _reduce_angle reduces
# against: an angle scale 2^bits with bits <= 200 keeps its 53 bits with
# 200 to spare.
_PI_BITS = 456


@lru_cache(maxsize=1)
def _two_pi_fixed() -> int:
    """2 pi * 2^_PI_BITS, by Machin's pi = 16 atan(1/5) - 4 atan(1/239) in
    integer arithmetic with 32 guard bits."""
    one = 1 << (_PI_BITS + 32)

    def atan_inv(x: int) -> int:
        total = term = one // x
        k = 1
        while term:
            term //= x * x
            total += (-1) ** k * (term // (2 * k + 1))
            k += 1
        return total

    return (2 * (16 * atan_inv(5) - 4 * atan_inv(239))) >> 32


def _reduce_angle(alpha: float, bits: int) -> float:
    """Angle of 2^bits * alpha mod 2 pi, in [0, 2 pi).  2^bits * alpha is an
    exact dyadic rational; its floor in units of 2^-_PI_BITS is reduced
    against the fixed-point 2 pi in integer arithmetic."""
    if bits > 200:
        warnings.warn(f"angle scale 2^{bits} exhausts the working precision",
                      PrecisionLoss, stacklevel=3)
    num, den = float(alpha).as_integer_ratio()
    scaled = (num << (bits + _PI_BITS)) // den
    return math.ldexp(float(scaled % _two_pi_fixed()), -_PI_BITS)


def lacunary_function(z: complex, gap: LacunarySpec) -> complex:
    """Gap series sum_k k! p(z^(2^(k!))) truncated at gap.k_max."""
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError("point must lie inside the disk")
    if r == 0.0:
        return 0.0j
    log_r, alpha = math.log(r), cmath.phase(z)
    total = 0.0j
    for k in range(1, gap.k_max + 1):
        bits = math.factorial(k)
        mod = math.exp(math.ldexp(log_r, bits))
        if mod == 0.0:
            continue
        ang = _reduce_angle(alpha, bits)
        w = mod * complex(math.cos(ang), math.sin(ang))
        total += math.factorial(k) * gap.poly.evaluate(w)
    return total


def lacunary_series(gap: LacunarySpec) -> AnalyticSeries:
    """Power-series form: coefficient k! p_j at exponent j 2^(k!)."""
    terms: dict[int, complex] = {}
    for k in range(1, gap.k_max + 1):
        stride = 1 << math.factorial(k)
        weight = math.factorial(k)
        for j, c in enumerate(gap.poly.coeffs):
            if j == 0 or c == 0.0:
                continue
            e = j * stride
            terms[e] = terms.get(e, 0.0j) + weight * c
    return AnalyticSeries(tuple(sorted(terms.items())), growth_bound=1.0)


@dataclass(frozen=True)
class CircleSup:
    N: int
    radius: float
    value: float


# Largest N whose circle exponent N! sqrt(N) is a double; 171! alone is not.
_CIRCLE_N_MAX = 170


def _circle_exponent(N: int) -> float:
    """N! sqrt(N), the exponent of the circle r = 1 - 2^(-N! sqrt N);
    refuses an N with no such circle in double precision."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > _CIRCLE_N_MAX:
        raise ResultOverflow(f"the circle exponent N! sqrt(N) at N = {N} does not fit in a double")
    return math.factorial(N) * math.sqrt(N)


def lacunary_circle_sup(N: int, gap: LacunarySpec, grid_size: int = 1 << 20) -> CircleSup:
    """Sampled sup of |h| / |log(1-r)| on the circle r = 1 - 2^(-N! sqrt N).

    The angle of z^(2^(k!)) at grid node i sits exactly at node
    (stride_k i) mod grid_size, stride_k = 2^(k!) mod grid_size, so term k
    repeats with period P_k = grid_size / gcd(stride_k, grid_size) and the
    sum with the lcm P of the P_k (2^19 on the default grid).  The sup runs
    over one period of the sum, _CHUNK nodes at a time: into each block
    every term is added in order of k, read from a table of its P_k values
    when P_k <= 4 _CHUNK (built once, a block at a time) and evaluated at
    the block's own nodes otherwise.  Every node adds the same values in
    the same order as a full-grid sum, so the sup is the grid's, bit for
    bit, and the working set stays a few MB whatever grid_size is.
    """
    expo = _circle_exponent(N)
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    radius = 1.0 - 2.0 ** (-expo)
    log_r = math.log1p(-(2.0 ** (-expo)))
    denom = expo * math.log(2.0)

    def term(k, mod, stride, nodes):
        ang = 2.0 * math.pi * ((stride * nodes) % grid_size) / grid_size
        return math.factorial(k) * gap.poly.evaluate(mod * np.exp(1j * ang))

    terms = []
    for k in range(1, gap.k_max + 1):
        bits = math.factorial(k)
        mod = math.exp(math.ldexp(log_r, bits))
        if mod != 0.0:
            stride = pow(2, bits, grid_size)
            period = grid_size // math.gcd(stride, grid_size)
            table = None
            # a table of up to 4 _CHUNK values (4 MB) spares the default grid's
            # 2^18-node term a second evaluation in each period of the sum
            if period <= 4 * _CHUNK:
                table = np.empty(period, dtype=complex)
                for nodes in _blocks(0, period, np.int64):
                    table[nodes] = term(k, mod, stride, nodes)
            terms.append((k, mod, stride, period, table))
    peak = 0.0
    for nodes in _blocks(0, math.lcm(*(t[3] for t in terms)), np.int64):
        acc = np.zeros(nodes.size, dtype=complex)
        for k, mod, stride, period, table in terms:
            acc += term(k, mod, stride, nodes) if table is None else table[nodes % period]
        peak = max(peak, float(np.max(np.abs(acc))))
    return CircleSup(N=N, radius=radius, value=peak / denom)


@dataclass(frozen=True)
class Witness:
    N: int
    z: complex
    ratio: float
    spiral_point: complex
    poly_value: complex


# phase multiples lacunary_witness scans
_PHASE_SCAN = 64


def lacunary_witness(N: int, gap: LacunarySpec) -> Witness:
    """Point with |h(z)| / |log(1-|z|)| pushed above the unit scale.

    Takes the spiral sample maximizing |p|, plants z so z^(2^(N!))
    lands exactly there, then scans the free phase multiple m in
    z = |w|^(1/2^(N!)) exp(i (arg w + 2 pi m) / 2^(N!)), which rotates
    the lower gap terms while pinning the main one.
    """
    w = _spiral(4096)
    pv = gap.poly.evaluate(w)
    i_star = int(np.argmax(np.abs(pv)))
    w_star = complex(w[i_star])
    stride = 1 << math.factorial(N)
    r = math.exp(math.log(abs(w_star)) / stride)
    denom = abs(math.log(1.0 - r))
    best = None
    for m in range(_PHASE_SCAN):
        alpha = (cmath.phase(w_star) + 2.0 * math.pi * m) / stride
        z = r * complex(math.cos(alpha), math.sin(alpha))
        ratio = abs(lacunary_function(z, gap)) / denom
        if best is None or ratio > best[0]:
            best = (ratio, z)
    return Witness(N=N, z=best[1], ratio=best[0],
                   spiral_point=w_star, poly_value=complex(pv[i_star]))


def _check_open_radii(radii) -> None:
    """ValueError naming the first radius outside (0, 1), where the probes'
    log(1 - r) and hyperbolic distance are finite and nonzero."""
    for r in radii:
        if not 0.0 < r < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {r}")


# the angles at which the growth and associate probes sample each radius
_GROWTH_ANGLES = (0.0, 1.0, 2.5)
_ASSOCIATE_ANGLES = (0.0, 2.0)


def lacunary_growth_probe(gap: LacunarySpec, radii) -> dict:
    """Ratio |h| / |log(1-r)| over a grid, against the gap-sum envelope.

    The envelope at radius r is B sum_k k! r^(2^(k!)), a pointwise
    triangle-inequality bound; its own ratio to |log(1-r)| is reported
    as the fitted growth constant.
    """
    _check_open_radii(radii)
    budget = gap.coeff_budget
    rows = []
    c_fit = 0.0
    for r in radii:
        denom = abs(math.log(1.0 - r))
        chain = budget * sum(
            math.factorial(k) * math.exp(math.ldexp(math.log(r), math.factorial(k)))
            for k in range(1, gap.k_max + 1)
        )
        c_fit = max(c_fit, chain / denom)
        for a in _GROWTH_ANGLES:
            z = r * complex(math.cos(a), math.sin(a))
            ratio = abs(lacunary_function(z, gap)) / denom
            rows.append({"r": r, "angle": a, "ratio": ratio, "envelope": chain / denom})
    return {"rows": rows, "fitted_constant": c_fit,
            "max_ratio": max(row["ratio"] for row in rows)}


def lacunary_associate_probe(gap: LacunarySpec, radii) -> dict:
    """Second-order field of the gap series against its scaling laws.

    Checks |f| / R^2 stays bounded (R the hyperbolic distance to the
    origin) and that f deviates from log(1/(1-r^2)) h by no more than
    the mode-weighted bound, reporting the fitted constant against
    log(1/(1-r)).
    """
    _check_open_radii(radii)
    series = lacunary_series(gap)
    rows = []
    sup_scaled = 0.0
    c_fit = 0.0
    for r in radii:
        big_r = math.log((1.0 + r) / (1.0 - r))
        d0 = -math.log1p(-r * r)
        bound = associate_deviation_bound(series, r)
        for a in _ASSOCIATE_ANGLES:
            z = r * complex(math.cos(a), math.sin(a))
            f = associated_biharmonic(series, z)
            h = lacunary_function(z, gap)
            dev = abs(f - d0 * h)
            scaled = abs(f) / big_r**2
            sup_scaled = max(sup_scaled, scaled)
            c_fit = max(c_fit, dev / abs(math.log(1.0 - r)))
            rows.append({
                "r": r, "angle": a, "field": f, "scaled": scaled,
                "deviation": dev, "deviation_bound": bound,
            })
    return {"rows": rows, "sup_scaled": sup_scaled, "fitted_constant": c_fit}
