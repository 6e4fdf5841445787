"""Spherical means of the graded kernels and their radial behavior.

The order-n polyspherical function is the circle mean

    Phi_n(r) = (1/2pi) int g_n(log P_r(phi)) P_r(phi)^{mu+1/2} dphi,

with g_n from kernels.kernel_poly.  Phi_0(.|0) is identically 1, and for
lam = 0, n = 1 the integrand is P log P.

Quadrature.  The integrand is the order-n kernel row K_r(phi), and Phi_n
is its Fourier mode 0.  The row is even and peaked at phi = 0 with width
~ 1/tau, tau = 2 sqrt(r)/(1-r), so its modes
R_k = (1/pi) int_0^pi K_r(t) cos(kt) dt are taken on Gauss-Legendre
panels dyadic toward the peak (_row_panels), one lane per mode of one
node doubling (_kernel_modes).  Each doubling step reads the row plan of
(r, top mode, Gauss orders) (_row_plan): the nodes, weights and log P_r
on the panels, none of which depends on n or lam.  The last 128 plans
are kept, so every order and lam at a radius shares one plan, and a call
evaluates only g_n(log P) P^{mu+1/2} (kernels._graded_values) on it.
spherical_function takes mode 0 alone, and a circle every mode it needs
(_row_modes, R_0 the cached Phi_n), so a normalized transform is a
quotient of two results of one quadrature.  A density with jumps also
takes the row's primitive int_0^x K_r, one lane per offset x, on the plan
Phi_n reads: the whole panels below x plus the integral of the row's
Legendre interpolant on the panel that holds x (_row_primitives).
A maximal ladder takes its rungs' offsets in runs of up to
_PRIMITIVE_LANES, one doubling per run and one row evaluation per step
for all the rungs of a run.
Next to the forbidden ray the row turns about 2 log(2) |Im mu| radians on
a dyadic panel, so the modes' doubling runs to 128 nodes per panel
(_ROW_CAP), and the primitive's, whose interpolant needs about twice the
nodes, to 256 (_PRIMITIVE_CAP); past |lam| ~ 1.5e4 there they do not
stabilize by those caps, and Phi_n is refused with NonConvergence.

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
    _SWEEP_ELEMENTS,
    _chunks,
    _doubling,
    _dyadic_edges,
    _gl_nodes,
    _legendre_integrals,
    _legendre_map,
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
# Gauss-Legendre nodes per panel at which the doubling of the row's modes
# gives up, one doubling past the other panel rules:
# next to the forbidden ray the row turns about 2 log(2) |Im mu| radians on a
# dyadic panel, which 32 nodes resolve up to |lam| ~ 2e3 and 64 nodes up to
# |lam| ~ 1.5e4
_ROW_CAP = 8 * _PANEL_ORDER
# the same for the row's primitive, read off the Legendre interpolant of the
# row on each panel, which needs about twice the nodes of the Gauss rule
_PRIMITIVE_CAP = 2 * _ROW_CAP
# offsets per doubling of the row's primitive: a lane holds about 30 doubles
# across the doubling's arrays (235 bytes at the first step of a maximal
# ladder), so a run of this many stays near _SWEEP_ELEMENTS doubles
_PRIMITIVE_LANES = _SWEEP_ELEMENTS // 32


def _kernel_row(n, sp, r, phi):
    """Order-n kernel at radius r against boundary angle offsets phi
    (kernels._graded_values: real where the kernel is), for the atoms'
    offsets; every quadrature of the row reads log P off a plan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _graded_values(kernel_poly(n, sp), sp, np.log(poisson_radial_profile(r, phi)))


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


@lru_cache(maxsize=128)
def _row_plan(r: float, top: int, orders: tuple[int, ...]):
    """The kernel row's quadrature plan at radius r for modes up to top, at
    the Gauss-Legendre orders of one doubling step: the nodes and weights
    on _row_panels(r, top) (panels x every order's nodes), log P_r at the
    nodes and each order's block.  Nothing in it depends on n or lam, so
    every order and lam at r shares it, and a sweep over up to 128 radii
    builds each once.  Building it refuses a radius outside [0, 1); its
    arrays are read-only."""
    x, w, blocks = _gl_nodes(orders)
    nodes, weights = _panel_nodes(np.asarray(_row_panels(r, top)), x, w)
    logp = np.log(poisson_radial_profile(r, nodes))
    for a in (nodes, weights, logp):
        a.setflags(write=False)
    return nodes, weights, logp, blocks


def _kernel_modes(n: int, sp: SpectralParam, r: float, ks) -> np.ndarray:
    """The kernel row's Fourier modes R_k = (1/2pi) int K_r(t) e^{-ikt} dt
    at each k >= 0 of ks.  The row is even, so R_k is
    (1/pi) int_0^pi K_r(t) cos(kt) dt: one panel quadrature with a lane
    per mode, on the plan of r and the highest k (_row_plan) at each
    doubling step, the row evaluated once per step for every lane from the
    plan's log P.  Mode 0 alone sums the row itself; other lanes are taken
    in chunks (numerics._chunks) to bound the memory."""
    ks = np.array([int(k) for k in ks], dtype=float)
    top = int(ks.max(initial=0))
    g = kernel_poly(n, sp)

    def estimate(orders, lanes):
        nodes, weights, logp, blocks = _row_plan(r, top, tuple(orders))
        # a non-finite row makes non-finite modes, which _doubling refuses
        with np.errstate(over="ignore", invalid="ignore"):
            row = _graded_values(g, sp, logp) * weights
            if not top:  # cos(0 t) = 1: mode 0 alone is the row itself
                return [[row[:, b].sum()] * lanes.size for b in blocks]
            sums = np.empty((len(blocks), lanes.size), dtype=complex)
            for c in _chunks(np.arange(lanes.size), row.size):
                vals = np.cos(np.multiply.outer(ks[lanes[c]], nodes)) * row
                sums[:, c] = [vals[..., b].sum(axis=(1, 2)) for b in blocks]
        return sums

    return _settled(_doubling(estimate, _PANEL_ORDER, _ROW_CAP, ks.size, _panel_failure)) / math.pi


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of values: np.unique without the
    numpy.ma import its first call pays."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _row_primitive(n: int, sp: SpectralParam, r: float, xs) -> Callable:
    """x -> int_0^x K_r(t) dt for the offsets x among xs (|x| <= pi):
    _row_primitives at the one rung."""
    return _row_primitives(n, sp, [(r, xs)])[0]


def _row_primitives(n: int, sp: SpectralParam, rungs) -> list:
    """For each (r, xs) of rungs, x -> int_0^x K_r(t) dt for the offsets x
    among xs (|x| <= pi).  The row is even, so the primitive is odd, and
    each distinct |x| of each rung is a lane of one doubling.

    Each doubling step reads every live rung's nodes, weights and log P_r
    off the plan Phi_n reads (_row_plan at top mode 0), and evaluates all
    their rows in one _graded_values call.  The primitive at x is the sum
    of the whole panels below x, plus the integral up to x of the row's
    Legendre interpolant on the panel [a, b] that holds x: with
    t the image of x in [-1, 1], (b - a)/2 sum_j c_j int_{-1}^t P_j
    (numerics._legendre_map, and numerics._legendre_integrals, one pass for
    every order of a doubling step, whose arrays are of the offsets' size).
    An x on a panel edge, pi among them, takes the sums alone.  A degree
    m-1 interpolant needs about twice the nodes the m-node Gauss rule needs
    on a turning row, so the lanes double up to _PRIMITIVE_CAP.  Each lane
    is judged against its rung's min(1, int_0^pi |K_r|), rounded down to a
    power of two that divides the estimates exactly, and its value depends
    on no other offset and no other rung.  A ladder of more than
    _PRIMITIVE_LANES offsets is taken in runs of rungs, one doubling per
    run.  The first rung with a failed offset raises ResultOverflow or
    NonConvergence, naming n, lam and r.
    """
    if not rungs:
        return []
    xss = [_distinct(np.abs(np.asarray(xs, dtype=float))) for _, xs in rungs]
    sizes = [xs.size for xs in xss]
    cut = max(1, int(np.searchsorted(np.cumsum(sizes), _PRIMITIVE_LANES, side="right")))
    if cut < len(rungs):
        return _row_primitives(n, sp, rungs[:cut]) + _row_primitives(n, sp, rungs[cut:])
    rs = [float(r) for r, _ in rungs]
    edges = [np.asarray(_row_panels(r)) for r in rs]
    counts = np.array([e.size - 1 for e in edges])
    first = np.concatenate([[0], np.cumsum(counts)])  # each rung's first panel
    panels = np.concatenate([np.stack([e[:-1], e[1:]], axis=-1) for e in edges])
    rung = np.repeat(np.arange(len(rs)), sizes)
    x = np.concatenate(xss)
    # the last edge at or below each offset, and the panel that holds it
    at = [np.searchsorted(e, xs, side="right") - 1 for e, xs in zip(edges, xss)]
    inside = np.concatenate([e[a] != xs for e, a, xs in zip(edges, at, xss)])
    at = np.concatenate(at)
    panel = first[rung] + np.minimum(at, counts[rung] - 1)
    a, b = panels[panel, 0], panels[panel, 1]
    t = ((x - a) - (b - x)) / (b - a)
    half = 0.5 * (b - a)
    # each lane's entry among the rungs' partial sums, one entry more per rung than panels
    partial = first[rung] + rung + at
    scale = np.ones(len(rs))
    unset = np.ones(len(rs), dtype=bool)
    g = kernel_poly(n, sp)

    def estimate(orders, lanes):
        live = _distinct(rung[lanes]).tolist()
        _, weights, logp, blocks = zip(*[_row_plan(rs[i], 0, tuple(orders)) for i in live])
        weights = np.concatenate(weights)
        out = []
        # a row past double range leaves its lanes non-finite, and _doubling refuses them
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _graded_values(g, sp, np.concatenate(logp))
            tables, sums = [], []
            for order, blk in zip(orders, blocks[0]):
                f, fw = vals[:, blk], vals[:, blk] * weights[:, blk]
                to_coef = _legendre_map(order).T
                coef = np.zeros((first[-1], order), dtype=f.dtype)
                cum = np.zeros(first[-1] + len(rs), dtype=f.dtype)
                start = 0
                for i in live:
                    rows, start = slice(start, start + counts[i]), start + counts[i]
                    coef[first[i] : first[i + 1]] = f[rows] @ to_coef
                    cum[first[i] + i + 1 : first[i + 1] + i + 1] = np.cumsum(fw[rows].sum(axis=1))
                    if unset[i]:
                        mass = float(np.sum(np.abs(fw[rows])))  # int_0^pi |K_r|
                        mass = min(1.0, mass) if 0.0 < mass < math.inf else 1.0
                        scale[i], unset[i] = math.ldexp(1.0, math.frexp(mass)[1] - 1), False
                tables.append(coef)
                sums.append(cum[partial[lanes]])
            terms = _legendre_integrals(tables, panel[lanes], t[lanes])
            inner, width = inside[lanes], half[lanes]
            for base, term in zip(sums, terms):
                out.append(np.where(inner, base + width * term, base) / scale[rung[lanes]])
        return out

    values, errors = _doubling(estimate, _PANEL_ORDER, _PRIMITIVE_CAP, x.size, _panel_failure)
    if errors:
        lane = min(errors)
        i, exc = rung[lane], errors[lane]
        where = f"order-{n} kernel row integral at lam = {sp.lam}, r = {rs[i]}: {exc}"
        if isinstance(exc, NonConvergence):
            raise NonConvergence(where, last_estimates=tuple(v * scale[i] for v in exc.last_estimates))
        raise ResultOverflow(where)
    values = np.split(values * scale[rung], np.cumsum(sizes)[:-1])
    return [lambda x, xs=xs, v=v: np.sign(x) * v[np.searchsorted(xs, np.abs(x))] for xs, v in zip(xss, values)]


@lru_cache(maxsize=200_000)
def _spherical_cached(n: int, sp: SpectralParam, r: float) -> complex:
    """Phi_n(r), mode 0 of the order-n kernel row (_kernel_modes): one
    cached number for the R_0 of every circle (_row_modes) and the mean
    its normalization divides by.  An order whose kernel coefficient
    leaves double range is refused by kernel_poly before any quadrature.
    Where the mean does not fit in a double it raises ResultOverflow, and
    where the quadrature does not stabilize NonConvergence, each naming
    n, lam and r."""
    kernel_poly(n, sp)
    try:
        return complex(_kernel_modes(n, sp, r, [0])[0])
    except ResultOverflow as exc:
        raise ResultOverflow(f"Phi_{n} at lam = {sp.lam} does not fit in a double at r = {r!r}") from exc
    except NonConvergence as exc:
        raise NonConvergence(
            f"Phi_{n} at lam = {sp.lam} did not converge at r = {r!r}: {exc}",
            last_estimates=exc.last_estimates,
        ) from exc


def spherical_function(n: int, r: float, sp: SpectralParam) -> complex:
    """Order-n polyspherical function at radius r (ResultOverflow where it
    does not fit in a double)."""
    return _spherical_cached(n, sp, float(r))


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
    # a lane past double range comes out infinite or NaN, and the check
    # below refuses the first such radius with ResultOverflow
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


