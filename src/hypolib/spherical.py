"""Spherical means of the graded kernels and their radial behavior.

The order-n polyspherical function is the circle mean

    Phi_n(r) = (1/2pi) int g_n(log P_r(phi)) P_r(phi)^{mu+1/2} dphi,

with g_n from kernels.kernel_poly.  Phi_0(.|0) is identically 1, and for
lam = 0, n = 1 the integrand is P log P.

Quadrature.  The integrand is the order-n kernel row K_r(phi)
(_kernel_row), and Phi_n is its Fourier mode 0.  The row is even and
peaked at phi = 0 with width ~ 1/tau, tau = 2 sqrt(r)/(1-r), so its modes
R_k = (1/pi) int_0^pi K_r(t) cos(kt) dt are taken on Gauss-Legendre
panels dyadic toward the peak (_row_panels), one lane per mode of one
node doubling (_kernel_modes).  spherical_function takes mode 0 alone;
the transforms take every mode of every row from the same engine, so a
normalized transform is a quotient of two results of one quadrature.  A
density with jumps also takes the row's primitive int_0^x K_r on the same
panels, one lane per offset x of the same doubling (_row_primitive).
Next to the forbidden ray the row turns about 2 log(2) |Im mu| radians on
a dyadic panel, so the doubling runs to 128 nodes per panel (_ROW_CAP),
for the modes and the primitive alike; past |lam| ~ 1.5e4 there it does
not stabilize by that cap, and Phi_n is refused with NonConvergence.

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
(scan_profile, zero_free_radius, radial_zeros) take one evaluator,
_profile: all their radii in one closed-form call, and quadrature radius
by radius only where the closed form reports CancellationLoss (large |lam|
near the forbidden ray).  radial_zeros bisects all its brackets together,
one _profile call per round.  spherical_function itself stays on
quadrature, the closed form's independent check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import CancellationLoss, NonConvergence, ResultOverflow, ScanInconclusive
from .geometry import RadialFrame, poisson_radial_profile
from .kernels import CRITICAL, FORBIDDEN, GENERIC, SpectralParam, kernel_poly, make_spectral
from .kernels import _graded_values, _in_double_range
from .numerics import (
    _PANEL_ORDER,
    _chunks,
    _doubling,
    _dyadic_edges,
    _gl_nodes,
    _loggamma,
    _panel_failure,
    _panel_nodes,
    _settled,
    gauss_2f1_many,
)

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

# highest order the closed form evaluates to 1e-12 relative (jet order 6 in
# the critical regime)
_MAX_ORDER = 3
# Gauss-Legendre nodes per panel at which the row's doubling gives up, for its
# modes and its primitive alike, one doubling past the other panel rules:
# next to the forbidden ray the row turns about 2 log(2) |Im mu| radians on a
# dyadic panel, which 32 nodes resolve up to |lam| ~ 2e3 and 64 nodes up to
# |lam| ~ 1.5e4
_ROW_CAP = 8 * _PANEL_ORDER


def _kernel_row(n, sp, r, phi):
    """Order-n kernel at radius r against boundary angle offsets phi
    (kernels._graded_values: real where the kernel is)."""
    return _graded_values(kernel_poly(n, sp), sp, poisson_radial_profile(r, phi))


def _row_panels(r: float, top: int = 0) -> list[float]:
    """Panel edges on [0, pi] for the kernel row at radius r: dyadic toward
    its peak at 0 (width ~ 1/tau), and at most pi / top wide, so that
    cos(kt) turns at most half a period on a panel for k <= top."""
    tau = RadialFrame.from_r(r).tau
    peak = min(1.0, 1.0 / tau) if tau > 0 else 1.0
    edges = _dyadic_edges(min(peak, math.pi / 4.0), math.pi)
    if top < 2:
        return edges  # 0 and pi, the cuts for top <= 1, are edges already
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
        sums = np.empty((len(blocks), lanes.size), dtype=complex)
        for c in _chunks(np.arange(lanes.size), row.size):
            k = ks[lanes[c]]
            # cos(0 t) = 1: mode 0 alone is the row itself
            vals = row[None] if not k.any() else np.cos(np.multiply.outer(k, nodes)) * row
            sums[:, c] = [vals[..., b].sum(axis=(1, 2)) for b in blocks]
        return sums

    modes = _doubling(estimate, _PANEL_ORDER, _ROW_CAP, ks.size, _panel_failure)
    return np.array(_settled(modes), dtype=complex) / math.pi


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of values: np.unique without the
    numpy.ma import its first call pays."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _row_primitive(n: int, sp: SpectralParam, r: float, xs) -> Callable:
    """x -> int_0^x K_r(t) dt for the offsets x among xs (|x| <= pi); the
    row is even, so the primitive is odd.  One cumulative quadrature: the
    row's panels (_row_panels) summed up to the last edge e <= |x|, plus the
    panel [e, |x|], all evaluated in one row call per doubling step.  Each
    |x| is a lane of the doubling to _ROW_CAP, so its value does not depend
    on the other offsets.  Raises, for the first offset that fails,
    ResultOverflow, or NonConvergence naming n, lam and r.
    """
    xs = _distinct(np.abs(np.asarray(xs, dtype=float)))
    edges = np.asarray(_row_panels(r))
    at = np.maximum(np.searchsorted(edges, xs, side="right") - 1, 0)
    starts, ends = np.concatenate([edges[:-1], edges[at]]), np.concatenate([edges[1:], xs])
    panels = np.stack([starts, ends], axis=-1)
    whole = edges.size - 1

    def estimate(orders, lanes):
        x, w, blocks = _gl_nodes(tuple(orders))
        nodes, weights = _panel_nodes(panels, x, w)
        vals = (_kernel_row(n, sp, r, nodes) * weights).reshape(len(panels), -1)
        out = []
        for b in blocks:
            sums = vals[:, b].sum(axis=1)
            out.append((np.concatenate([[0.0], np.cumsum(sums[:whole])])[at] + sums[whole:])[lanes])
        return out

    outcome = _doubling(estimate, _PANEL_ORDER, _ROW_CAP, xs.size, _panel_failure)
    try:
        values = np.array(_settled(outcome), dtype=complex)
    except NonConvergence as exc:
        raise NonConvergence(
            f"order-{n} kernel row integral at lam = {sp.lam}, r = {r}: {exc}",
            last_estimates=exc.last_estimates,
        ) from exc
    return lambda x: np.sign(x) * values[np.searchsorted(xs, np.abs(x))]


@lru_cache(maxsize=200_000)
def _spherical_cached(n: int, lam: complex, r: float) -> complex:
    """Phi_n(r), mode 0 of the order-n kernel row (_kernel_modes).  An
    order whose kernel coefficient leaves double range is refused by
    kernel_poly before any quadrature.  Where the mean does not fit in a
    double it raises ResultOverflow, and where the quadrature does not
    stabilize NonConvergence, each naming n, lam and r."""
    sp = make_spectral(lam)
    kernel_poly(n, sp)
    try:
        value = complex(_kernel_modes(n, sp, r, [0])[0])
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
    geometric grid are refined by bisection in log(1-r), every bracket's
    midpoint in one _profile call per round, for at most 60 rounds; a
    bracket retires once it is narrower than 1e-13.  Returns the sorted
    zeros; consecutive gaps shrink as zeros accumulate at the boundary.
    """
    if sp.kind != FORBIDDEN:
        raise ValueError("zeros accumulate only for real lam < -1/4")
    rs = _scan_radii(_SCAN_LO, r_max, count)
    sign = np.sign(_profile(0, sp, rs).real)
    at = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo = np.array([math.log(1.0 - rs[i]) for i in at])
    hi = np.array([math.log(1.0 - rs[i + 1]) for i in at])
    live = np.arange(at.size)
    for _ in range(60):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        # Phi keeps at lo the sign it has at the bracket's lower grid radius
        same = sign[at[live]] * _profile(0, sp, [1.0 - math.exp(m) for m in mid]).real > 0
        lo[live[same]] = mid[same]
        hi[live[~same]] = mid[~same]
        live = live[np.abs(hi[live] - lo[live]) >= 1e-13]
    return [1.0 - math.exp(0.5 * (a + b)) for a, b in zip(lo.tolist(), hi.tolist())]


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


