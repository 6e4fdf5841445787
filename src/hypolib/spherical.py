"""Spherical means of the graded kernels and their radial behavior.

The order-n polyspherical function is the circle mean

    Phi_n(r) = (1/2pi) int g_n(log P_r(phi)) P_r(phi)^{mu+1/2} dphi,

with g_n from kernels.kernel_poly.  Phi_0(.|0) is identically 1, and for
lam = 0, n = 1 the integrand is P log P.

Evaluation strategy.  With tau = 2 sqrt(r)/(1-r), the integrand is peaked at
phi = 0 with width ~ 1/tau.  For tau < 20 the periodic trapezoid rule
converges spectrally.  Beyond that the substitution u = tau sin(phi/2) turns
the peak into the half-line profile (1+u^2)^{-(mu+1/2)} integrated on
log-spaced panels; the remaining arc [pi/2, pi] is a small smooth correction.
Written in the substituted variable,

    Phi_n(r) = (e^{(mu+1/2) R}/pi) [ int_0^{tau/sqrt2} g_n(R - log(1+u^2))
                 (1+u^2)^{-(mu+1/2)} (2/tau) (1-(u/tau)^2)^{-1/2} du
                 + int_{pi/2}^{pi} g_n(R - L) e^{-(mu+1/2) L} dphi ],

L = log(1 + tau^2 sin^2(phi/2)).  Both pieces are lanes of one panel
doubling and share one evaluation of the integrand per doubling step.
Accuracy is uniform up to R ~ 30; past that 1-r itself is at the edge of
double precision.

Closed form.  Phi(r) = F(mu+1/2, 1/2-mu; 1; -r^2/(1-r^2)); after the Pfaff
transform the series argument is exactly y = r^2.  numerics.gauss_2f1_many
sums it in r^2 up to r^2 = 1/2 and in 1 - r^2 beyond, so every radius in
[0, 1) costs a few dozen terms.  The argument is built from (1-r)(1+r),
which keeps 1 - r^2 accurate as r -> 1.  Since (log P)^j P^s = d^j/ds^j P^s,
the order-n mean is a Taylor coefficient in s of the same function:

    Phi_n = [eps^n] F(s0+eps, 1-s0-eps; 1; x) / (2 mu)^n,   s0 = mu + 1/2,

and in the critical regime Phi_n = [eps^2n] at s0 = 1/2.  gauss_2f1_many
carries these coefficients as truncated Taylor series in eps, so an order-n
profile costs about n+1 times an order-0 one; orders above _MAX_ORDER can
lose more than 1e-12 to cancellation and are left to quadrature.  The scans
(scan_profile, zero_free_radius, radial_zeros) evaluate all their radii in
one closed-form call, and take the quadrature profile
only where the closed form reports CancellationLoss (large |lam| near the
forbidden ray).  spherical_function itself stays on quadrature, the
closed form's independent check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CancellationLoss, NonConvergence, ResultOverflow, ScanInconclusive
from .geometry import RadialFrame, poisson_radial_profile
from .kernels import CRITICAL, FORBIDDEN, GENERIC, SpectralParam, kernel_poly, make_spectral
from .numerics import (
    _flat,
    _halfline_edges,
    _loggamma,
    _refine_panels,
    _unflat,
    gauss_2f1_many,
    integrate_circle,
)
from .polynomials import ComplexPoly

__all__ = [
    "spherical_function",
    "closed_form",
    "closed_form_many",
    "boundary_constant",
    "AsymptoticLaw",
    "asymptotic_law",
    "small_radius_law",
    "radial_zeros",
    "ZeroFreeRadius",
    "zero_free_radius",
    "scan_profile",
]

_TAU_SWITCH = 20.0
# highest order the closed form evaluates to 1e-12 relative (jet order 6 in
# the critical regime)
_MAX_ORDER = 3


def _kernel_mean(poly: ComplexPoly, exponent: complex, r: float) -> complex:
    """(1/2pi) int poly(log P_r) P_r^{exponent} dphi."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    c = complex(exponent)
    if r == 0.0:
        return poly.evaluate(0.0)
    frame = RadialFrame.from_r(r)
    tau, R = frame.tau, frame.R

    if tau >= _TAU_SWITCH:
        halfline = _halfline_edges(tau / math.sqrt(2.0), ())
        arc = (math.pi / 2, 3 * math.pi / 4, math.pi)

        def pieces(lanes, blocks):
            # X = u on the half-line (lane 0) and tau sin(phi/2) on the arc:
            # one L = log(1 + X^2) for both, the Jacobian on the half-line only
            X = _flat([u if lane == 0 else tau * np.sin(0.5 * u) for lane, u in zip(lanes, blocks)])
            L = np.log(1.0 + X * X)
            vals = _unflat(poly.evaluate(R - L) * np.exp(-c * L), blocks)
            for i, (lane, u) in enumerate(zip(lanes, blocks)):
                if lane == 0:
                    vals[i] = vals[i] * ((2.0 / tau) / np.sqrt(1.0 - (u / tau) ** 2))
            return [np.asarray(v, dtype=complex) for v in vals]

        i_u, i_phi = _refine_panels(pieces, [halfline, arc])
        return complex(np.exp(c * R) * (i_u + i_phi) / math.pi)

    # moderate radius: no peak to resolve
    def f_circle(phi):
        logp = np.log(poisson_radial_profile(r, phi))
        return poly.evaluate(logp) * np.exp(c * logp)

    return integrate_circle(f_circle, min(1.0, 1.0 / tau if tau > 0 else 1.0))


@lru_cache(maxsize=200_000)
def _spherical_cached(n: int, lam: complex, r: float) -> complex:
    """_kernel_mean of the order-n kernel.  Where the mean does not fit in a
    double it raises ResultOverflow, and where the quadrature does not
    stabilize NonConvergence, each naming n, lam and r."""
    sp = make_spectral(lam)
    poly = kernel_poly(n, sp)
    try:
        value = _kernel_mean(poly, sp.exponent, r)
        if cmath.isfinite(value):
            return value
    except ResultOverflow:
        pass
    except NonConvergence as exc:
        raise NonConvergence(
            f"Phi_{n} at lam = {lam} did not converge at r = {r!r}: {exc}",
            last_estimates=exc.last_estimates,
        ) from exc
    raise ResultOverflow(f"Phi_{n} at lam = {lam} does not fit in a double at r = {r!r}")


def spherical_function(n: int, r: float, sp: SpectralParam) -> complex:
    """Order-n polyspherical function at radius r (ResultOverflow where it
    does not fit in a double)."""
    return _spherical_cached(n, sp.lam, float(r))


def boundary_constant(sp: SpectralParam) -> complex:
    """c(lam) = (2/pi) int_0^inf (1+x^2)^{-(mu+1/2)} dx, generic regime only.

    The beta integral gives c(lam) = Gamma(mu) / (sqrt(pi) Gamma(mu+1/2)),
    taken from double-precision log Gammas (numerics._loggamma); c(0) = 1
    and c(2) = 1/2.
    """
    if sp.kind != GENERIC:
        raise ValueError("boundary constant requires the generic regime (Re mu > 0)")
    return cmath.exp(_loggamma(sp.mu) - _loggamma(sp.mu + 0.5)) / math.sqrt(math.pi)


def closed_form(r: float, sp: SpectralParam) -> complex:
    """Phi_0(r) by the Gauss-hypergeometric closed form, for any r in
    [0, 1): closed_form_many at a single radius."""
    return complex(closed_form_many([float(r)], sp)[0])


def closed_form_many(rs, sp: SpectralParam, n: int = 0) -> np.ndarray:
    """Phi_n at each radius in [0, 1), 0 <= n <= _MAX_ORDER, from the Taylor
    coefficients in s of F(s, 1-s; 1; x), x = -r^2/((1-r)(1+r)) (see the
    module docstring and numerics.gauss_2f1_many).  For |lam| of order one
    the error is about 1e-14 relative at n = 0 and within 1e-12 up to
    n = 3 (on the forbidden ray, where Phi has zeros, relative to
    Phi(r | -1/4)).

    Raises ResultOverflow where Phi_n does not fit in a double and
    CancellationLoss where its series lost more than six digits to
    cancellation, each naming lam, n and the radius.
    """
    if not 0 <= n <= _MAX_ORDER:
        raise ValueError(f"the closed form covers orders 0 to {_MAX_ORDER}, got {n}")
    rs = np.asarray(rs, dtype=float)
    inside = (rs >= 0.0) & (rs < 1.0)
    if not np.all(inside):
        raise ValueError(f"radii must lie in [0, 1), got {rs[~inside][:3]}")
    x = -(rs * rs) / ((1.0 - rs) * (1.0 + rs))
    order = 2 * n if sp.kind == CRITICAL else n

    def failure(kind, what: str, i: int):
        r = float(rs.flat[i])
        return kind(f"Phi_{n} at lam = {sp.lam} {what} at r = {r!r}", index=i)

    try:
        jets = gauss_2f1_many(sp.exponent, 0.5 - sp.mu, 1.0, x, order)
    except ResultOverflow as exc:
        raise failure(ResultOverflow, "does not fit in a double", exc.index) from exc
    except CancellationLoss as exc:
        raise failure(CancellationLoss, "lost more than six digits to cancellation", exc.index) from exc
    if order == 0:
        return jets
    if sp.kind == CRITICAL:
        return jets[order]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = jets[n] / (2.0 * sp.mu) ** n
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise failure(ResultOverflow, "does not fit in a double", int(bad[0]))
    return out


@dataclass(frozen=True)
class AsymptoticLaw:
    """Boundary law  prefactor * R^R_power * exp(exp_rate * R)  as r -> 1."""

    prefactor: complex
    R_power: int
    exp_rate: complex

    def evaluate(self, R: float) -> complex:
        return self.prefactor * R**self.R_power * np.exp(self.exp_rate * R)


def _in_double_range(what: str, n: int, sp: SpectralParam, value, zero_ok: bool = False):
    """value(), refused with ResultOverflow naming n and lam where it leaves
    double range: a factorial too large for a float, an infinite or NaN
    result, or (unless zero_ok) a nonzero result that underflowed to 0."""
    try:
        out = value()
    except (OverflowError, ZeroDivisionError):
        out = math.inf
    if not cmath.isfinite(out) or (out == 0 and not zero_ok):
        raise ResultOverflow(f"the order-{n} {what} at lam = {sp.lam} does not fit in a double")
    return out


def asymptotic_law(
    n: int,
    sp: SpectralParam,
    absolute: bool = False,
) -> AsymptoticLaw:
    """Boundary asymptotic law of Phi_n (or of |Phi|_n with absolute=True).

    Generic:   Phi_n  ~ [c(lam)/(n! (2 mu)^n)] R^n e^{(mu-1/2) R}
               |Phi|_n ~ [c(lam*)/(n! |2 mu|^n)] R^n e^{(Re mu - 1/2) R}
    Critical:  Phi_n = |Phi|_n ~ [2/((2n+1)! pi)] R^{2n+1} e^{-R/2}

    Raises ResultOverflow where the prefactor does not fit in a double.
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if sp.kind == FORBIDDEN:
        raise ValueError("no boundary law on the forbidden ray")
    what = "boundary law prefactor"
    if sp.kind == CRITICAL:
        pref = _in_double_range(what, n, sp, lambda: 2.0 / (math.factorial(2 * n + 1) * math.pi))
        return AsymptoticLaw(prefactor=pref, R_power=2 * n + 1, exp_rate=-0.5)
    if absolute:
        c_star = boundary_constant(make_spectral(sp.lam_star))
        pref = _in_double_range(
            what, n, sp, lambda: c_star / (math.factorial(n) * abs(2.0 * sp.mu) ** n)
        )
        return AsymptoticLaw(prefactor=pref, R_power=n, exp_rate=sp.mu.real - 0.5)
    c_val = boundary_constant(sp)
    pref = _in_double_range(what, n, sp, lambda: c_val / (math.factorial(n) * (2.0 * sp.mu) ** n))
    return AsymptoticLaw(prefactor=pref, R_power=n, exp_rate=sp.mu - 0.5)


def small_radius_law(n: int, r: float, sp: SpectralParam) -> complex:
    """Leading small-radius term of Phi_n(r).

    Critical: r^{2n}/(n!)^2.  Generic even n: r^n/(((n/2)!)^2 (2mu)^n);
    generic odd n: r^{n+1}/(((n+1)/2)! ((n-1)/2)! (2mu)^{n-1}) -- the odd
    circle moment of cos^n kills the r^n term.  Raises ResultOverflow where
    the term does not fit in a double.
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")

    def term():
        if sp.kind == CRITICAL:
            return r ** (2 * n) / math.factorial(n) ** 2
        if n % 2 == 0:
            half = n // 2
            return r**n / (math.factorial(half) ** 2 * (2.0 * sp.mu) ** n)
        up, dn = (n + 1) // 2, (n - 1) // 2
        return r ** (n + 1) / (math.factorial(up) * math.factorial(dn) * (2.0 * sp.mu) ** (n - 1))

    return _in_double_range(f"small-radius law (r = {r})", n, sp, term, zero_ok=r == 0)


def _scan_radii(r_lo: float, r_hi: float, count: int) -> np.ndarray:
    """Geometric spacing in 1-r from r_lo up to r_hi."""
    return 1.0 - np.geomspace(1.0 - r_lo, 1.0 - r_hi, count)


def _profile(n: int, sp: SpectralParam, rs) -> np.ndarray:
    """Phi_n at each radius: the closed form in one call, or quadrature
    radius by radius where the closed form lost its digits to cancellation
    or n is past its orders."""
    if n <= _MAX_ORDER:
        try:
            return closed_form_many(rs, sp, n)
        except CancellationLoss:
            pass
    return np.array([spherical_function(n, float(r), sp) for r in rs])


# the radial scans' grid: count radii geometric in 1 - r from _SCAN_LO up
# to r_max (_SCAN_HI for scan_profile)
_SCAN_LO = 0.05
_SCAN_HI = 1.0 - 1e-6
_SCAN_COUNT = 2000
# the zero-free radius of an odd order at real lam >= -1/4, a floor against
# the kernel's pole at the origin
_POLE_FLOOR = 0.05


def scan_profile(n: int, sp: SpectralParam, count: int = _SCAN_COUNT):
    """Radial profile (radii, Phi_n values) on a geometric grid in 1 - r,
    for zero and dip detection."""
    rs = _scan_radii(_SCAN_LO, _SCAN_HI, count)
    return rs, _profile(n, sp, rs)


def radial_zeros(
    sp: SpectralParam,
    r_max: float = 0.9999,
    count: int = _SCAN_COUNT,
):
    """Zeros of Phi(.|lam) in (0, r_max] for lam on the forbidden ray.

    Phi is real there (the function is even in mu); sign changes on a
    geometric grid are refined by bisection in log(1-r).  On the closed
    form, each bracket's next _LOOKAHEAD bisection points are evaluated
    together, all brackets in one call; where the closed form lost its
    digits to cancellation on the grid, scan and bisection use quadrature,
    one point at a time.  Returns the sorted zeros; consecutive gaps shrink
    as zeros accumulate at the boundary.
    """
    if sp.kind != FORBIDDEN:
        raise ValueError("zeros accumulate only for real lam < -1/4")
    rs = _scan_radii(_SCAN_LO, r_max, count)
    try:
        sign = np.sign(closed_form_many(rs, sp).real)
        depth = _LOOKAHEAD
    except CancellationLoss:
        sign = np.sign([spherical_function(0, float(r), sp).real for r in rs])
        depth = 1  # quadrature pays per point: evaluate only what bisection visits

    def f(s: list) -> np.ndarray:
        return _profile(0, sp, [1.0 - math.exp(v) for v in s]).real

    # per bracket: [lo, hi, Phi(lo), bisection steps left]
    live = [
        [math.log(1.0 - rs[i]), math.log(1.0 - rs[i + 1]), 0.0, 60]
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    ]
    for br, flo in zip(live, f([br[0] for br in live])):
        br[2] = flo
    brackets = list(live)
    while live:
        ahead = [m for lo, hi, _, _ in live for m in _bisection_points(lo, hi, depth)]
        value = dict(zip(ahead, f(ahead)))
        for br in live:
            for _ in range(depth):
                lo, hi, flo, left = br
                mid = 0.5 * (lo + hi)
                fm = value[mid]
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                br[:] = lo, hi, flo, left - 1
                if abs(hi - lo) < 1e-13 or left == 1:
                    br[3] = 0
                    break
        live = [br for br in live if br[3] > 0]
    return sorted(1.0 - math.exp(0.5 * (lo + hi)) for lo, hi, _, _ in brackets)


# bisection steps radial_zeros evaluates per closed-form call
_LOOKAHEAD = 4


def _bisection_points(lo: float, hi: float, depth: int) -> list[float]:
    """Every midpoint bisection of [lo, hi] can visit in its next depth steps."""
    mid = 0.5 * (lo + hi)
    if depth == 1:
        return [mid]
    return [mid, *_bisection_points(lo, mid, depth - 1), *_bisection_points(mid, hi, depth - 1)]


@dataclass(frozen=True)
class ZeroFreeRadius:
    """Radius beyond which the normalized kernel's denominator is safe."""

    n: int
    lam: complex
    r_min: float
    method: str


def zero_free_radius(n: int, sp: SpectralParam) -> ZeroFreeRadius:
    """Smallest radius r_min with Phi_n zero-free on (r_min, 1).

    Real lam >= -1/4: positivity gives 0 for even n and the critical regime;
    odd n keeps a floor _POLE_FLOOR against the kernel's pole at the origin.  Complex
    lam: scan |Phi_n| against the absolute boundary law on a geometric grid
    and return the last dip; persistent dips near 1 raise ScanInconclusive.
    """
    if sp.kind == FORBIDDEN:
        raise ValueError("zeros accumulate at the boundary on the forbidden ray")
    if n == 0:
        return ZeroFreeRadius(n, sp.lam, 0.0, "exact")
    if sp.kind == CRITICAL:
        return ZeroFreeRadius(n, sp.lam, 0.0, "positivity")
    if sp.lam.imag == 0.0 and sp.lam.real >= -0.25:
        if n % 2 == 0:
            return ZeroFreeRadius(n, sp.lam, 0.0, "positivity")
        return ZeroFreeRadius(n, sp.lam, _POLE_FLOOR, "positivity+pole-floor")

    rs, vals = scan_profile(n, sp)
    law = asymptotic_law(n, sp, absolute=True)
    ratio = np.abs(vals) / np.abs(law.evaluate(np.log1p(rs) - np.log1p(-rs)))
    dips = np.nonzero(ratio < 1e-6)[0]
    if dips.size == 0:
        return ZeroFreeRadius(n, sp.lam, float(rs[0]), "scan")
    last = int(dips[-1])
    if last >= int(0.95 * len(rs)) - 1:
        raise ScanInconclusive(
            f"|Phi_{n}| dips persist at r = {rs[last]:.6f}, close to the boundary"
        )
    return ZeroFreeRadius(n, sp.lam, float(rs[last + 1]), "scan")


