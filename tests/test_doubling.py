"""The node-doubling quadratures against a per-order reference.

Each circle-mean quadrature takes its first doubling step (orders 16 and
32, or trapezoid n = 64 and 128) from one evaluation of its integrand, and
refines a trapezoid grid on its new (odd) nodes only.  The reference below
evaluates the integrand afresh at every order and on every full grid; the
library must give its values, errors and last estimates bit for bit.  The
reference's circle means are also the other tests' per-point oracle for a
density transform (ref_transform), independent of the closed-form modes.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings, strategies as st

from hypolib import numerics
from hypolib.errors import HypolibError, NonConvergence, ResultOverflow
from hypolib.geometry import RadialFrame, poisson_radial_profile
from hypolib.numerics import integrate_circle, integrate_halfline_peak
from hypolib.spherical import _kernel_row

# --- the reference: one evaluation of the integrand per order ---------------


# the Gauss-Legendre rule of each order, computed once (most of a
# reference mean's time otherwise)
ref_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def ref_panels(f, edges, order):
    x, w = ref_leggauss(order)
    e = np.asarray(edges, dtype=float)
    a, b = e[:-1, None], e[1:, None]
    half = 0.5 * (b - a)
    nodes, weights = 0.5 * (a + b) + half * x, half * w
    vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
    return complex(np.sum(vals * weights))


def ref_trapezoid(f, n):
    phi = -math.pi + 2.0 * math.pi * np.arange(n) / n
    return complex(np.mean(np.asarray(f(phi), dtype=complex)))


def ref_stable(new, old):
    """Whether a doubling left the estimate within max(1e-12, 1e-11 |new|);
    ResultOverflow for an estimate that does not fit in a double."""
    try:
        if cmath.isfinite(new):
            return abs(new - old) <= max(1e-12, 1e-11 * abs(new))
    except OverflowError:
        pass
    raise ResultOverflow(f"quadrature estimate {new!r} does not fit in a double")


def ref_doubling(estimate, order, cap, failure):
    prev = estimate(order)
    while True:
        order *= 2
        new = estimate(order)
        if ref_stable(new, prev):
            return new
        if order >= cap:
            raise failure(order, prev, new)
        prev = new


def ref_dyadic_edges(width, stop):
    edges = [0.0]
    w = width
    while edges[-1] < stop:
        edges.append(min(w, stop))
        w *= 2.0
    return edges


def ref_circle_panels(peak_scale, breakpoints):
    if not breakpoints and peak_scale >= 0.05:
        return None
    pos = ref_dyadic_edges(min(peak_scale, math.pi / 4.0), math.pi)
    return sorted(set([-e for e in reversed(pos[1:])] + pos))


def ref_with_kinks(base, breakpoints):
    breaks = {math.remainder(b, 2.0 * math.pi) for b in breakpoints}
    return sorted(set(base) | {b for b in breaks if -math.pi < b < math.pi})


def ref_refine_panels(f, edges):
    return ref_doubling(lambda o: ref_panels(f, edges, o), 16, 64, numerics._panel_failure)


def ref_integrate_circle(f, peak_scale=1.0, breakpoints=()):
    breakpoints = tuple(breakpoints)
    base = ref_circle_panels(peak_scale, breakpoints)
    if base is None:
        return ref_doubling(lambda n: ref_trapezoid(f, n), 64, 1 << 20, numerics._trapezoid_failure)
    return ref_refine_panels(f, ref_with_kinks(base, breakpoints)) / (2.0 * math.pi)


def ref_halfline(g, tau, breakpoints=()):
    edges = set(ref_dyadic_edges(min(0.5, tau), tau))
    edges.update(b for b in breakpoints if 0.0 < b < tau)
    edges.add(tau)
    return ref_refine_panels(g, sorted(edges))


def ref_circle_means(f, g, angles, peak_scale, breakpoints):
    """integrate_circle of f(phi) g(phi + theta) for each theta alone."""
    values, errors = [], {}
    for i, t in enumerate(float(a) for a in angles):
        try:
            values.append(ref_integrate_circle(
                lambda phi, t=t: f(phi) * g(phi + t), peak_scale, [b - t for b in breakpoints]
            ))
        except HypolibError as exc:
            values.append(0j)
            errors[i] = exc
    return values, errors


def ref_transform(n, sp, g, r, thetas, breakpoints=()):
    """The order-n transform of the density g at r e^{i theta} for each
    theta of thetas: one circle mean of K_r(phi) g(phi + theta) per angle
    (ref_circle_means), its panels split at g's breakpoints."""
    tau = RadialFrame.from_r(r).tau
    peak = min(1.0, 1.0 / tau) if tau > 0 else 1.0
    values, errors = ref_circle_means(lambda phi: _kernel_row(n, sp, r, phi), g, thetas, peak, breakpoints)
    assert not errors, errors
    return np.array(values)


# where ref_kernel_mean leaves the trapezoid rule for the half-line
_TAU_SWITCH = 20.0


def ref_kernel_mean(poly, exponent, r, use_abs=False):
    """(1/2pi) int poly(log P_r) P_r^exponent dphi by a quadrature of its
    own, the tests' oracle for circle means of the kernel: the periodic
    trapezoid rule below tau = _TAU_SWITCH; past it the substitution
    u = tau sin(phi/2), whose half-line and arc pieces are integrated one
    after the other, each at one order per evaluation.  With use_abs, the
    mean of |poly(log P_r)| P_r^{Re exponent}: the scale other tests
    measure a mean's error against, since it bounds the mean and does not
    vanish at its zeros (panels split at the kink where log P = 0)."""
    c = complex(exponent).real if use_abs else complex(exponent)
    if r == 0.0:
        v0 = poly.evaluate(0.0)
        return abs(v0) if use_abs else v0
    frame = RadialFrame.from_r(r)
    tau, R = frame.tau, frame.R

    def q(w):
        v = poly.evaluate(w)
        return np.abs(v) if use_abs else v

    if tau >= _TAU_SWITCH:

        def f_u(u):
            base = 1.0 + u * u
            jac = (2.0 / tau) / np.sqrt(1.0 - (u / tau) ** 2)
            return q(R - np.log(base)) * np.exp(-c * np.log(base)) * jac

        def f_phi(phi):
            L = np.log(1.0 + (tau * np.sin(0.5 * phi)) ** 2)
            return q(R - L) * np.exp(-c * L)

        breaks = (math.sqrt(math.expm1(R)),) if use_abs else ()
        i_u = ref_halfline(f_u, tau / math.sqrt(2.0), breaks)
        i_phi = ref_refine_panels(f_phi, (math.pi / 2, 3 * math.pi / 4, math.pi))
        return complex(np.exp(c * R) * (i_u + i_phi) / math.pi)

    def f_circle(phi):
        logp = np.log(poisson_radial_profile(r, phi))
        return q(logp) * np.exp(c * logp)

    if use_abs:
        edges = (0.0, math.acos(r), 0.5 * (math.acos(r) + math.pi), math.pi)
        return complex(ref_refine_panels(f_circle, edges) / math.pi)
    return ref_integrate_circle(f_circle, min(1.0, 1.0 / tau if tau > 0 else 1.0))


# --- comparison -------------------------------------------------------------


def _error(exc):
    return type(exc), str(exc), getattr(exc, "last_estimates", None)


def _outcome(call):
    """call()'s value, or its error as (type, message, last_estimates)."""
    try:
        return call()
    except HypolibError as exc:
        return _error(exc)


def _bits(v):
    """The bit patterns of a complex value's parts (so -0.0 differs from 0.0
    and a NaN equals itself)."""
    return np.array([complex(v)]).view(np.uint64).tolist()


def _same(got, want):
    """Values equal to the bit; errors of one type, message and last estimates."""
    if isinstance(want, tuple):
        return (
            isinstance(got, tuple)
            and got[:2] == want[:2]
            and [_bits(v) for v in got[2] or ()] == [_bits(v) for v in want[2] or ()]
        )
    return not isinstance(got, tuple) and _bits(got) == _bits(want)


def _assert_same(got, want):
    assert _same(got, want), (got, want)


# --- integrands -------------------------------------------------------------

SMOOTH, PEAKED, KINKED, JUMP = "smooth", "peaked", "kinked", "jump"


def _integrand(kind, k, c, z):
    """(f, peak_scale, breakpoints) of one integrand family on the circle."""
    if kind == SMOOTH:
        return (lambda phi: z * np.exp(k * np.cos(phi - c))), 1.0, ()
    if kind == PEAKED:
        width = 10.0 ** -k  # 1 down to 1e-4: the trapezoid rule above 0.05, panels below
        return (lambda phi: z / (1.0 + (np.sin(0.5 * phi) / width) ** 2)), width, ()
    if kind == KINKED:
        return (lambda phi: np.abs(np.sin(0.5 * (phi - c))) ** 1.5 * np.exp(np.cos(phi))), 1.0, (c,)
    # a step of height z - 0.5 on [c, c + 1]
    step = (lambda phi: np.where(np.remainder(phi - c, 2 * math.pi) < 1.0, z, 0.5))
    return step, 1.0, (c, c + 1.0)


KINDS = st.sampled_from([SMOOTH, PEAKED, KINKED, JUMP])
ANGLE = st.floats(-math.pi, math.pi)
COEFF = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kind=KINDS, k=st.floats(0.0, 4.0), c=ANGLE, z=COEFF)
def test_integrate_circle_matches_the_per_order_reference(kind, k, c, z):
    if kind == SMOOTH:
        k *= 30.0  # exp(k cos): up to 120, which needs n = 256
    f, peak, breaks = _integrand(kind, k, c, z)
    _assert_same(
        _outcome(lambda: integrate_circle(f, peak, breaks)),
        _outcome(lambda: ref_integrate_circle(f, peak, breaks)),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    s=st.floats(0.05, 3.0),
    tau=st.floats(0.1, 1e9),
    kink=st.one_of(st.none(), st.floats(0.0, 1.0)),
    z=COEFF,
)
# an undeclared kink: the panels do not stabilize by order 64
@example(s=1.0, tau=3.0, kink=None, z=1.0)
def test_integrate_halfline_peak_matches_the_per_order_reference(s, tau, kink, z):
    if kink is None:
        breaks = ()

        def g(x):
            return z * (1.0 + x * x) ** -s * (1.0 + np.abs(x - 1.3))
    else:
        breaks = (kink * tau,)

        def g(x):
            return z * (1.0 + x * x) ** -s * np.abs(np.log1p(x * x) - math.log1p(breaks[0] ** 2))

    _assert_same(
        _outcome(lambda: integrate_halfline_peak(g, tau, breaks)),
        _outcome(lambda: ref_halfline(g, tau, breaks)),
    )


# --- errors past the cap ----------------------------------------------------


def _sign(phi):
    # a jump at 0 and at +-pi: the trapezoid means move by 1/(2n) per doubling
    return np.sign(phi)


def test_a_trapezoid_mean_that_never_stabilizes_fails_as_the_reference_does():
    got = _outcome(lambda: integrate_circle(_sign))
    assert got[0] is NonConvergence and got[1].endswith("n = 1048576")
    _assert_same(got, _outcome(lambda: ref_integrate_circle(_sign)))


# --- evaluation counts ------------------------------------------------------


def test_a_trapezoid_mean_evaluates_only_the_nodes_each_doubling_adds():
    sizes = []

    def f(phi):
        sizes.append(phi.size)
        return np.exp(100.0 * np.cos(phi))

    got = integrate_circle(f)
    # stable at n = 256: 128 nodes for n = 64 and 128, then the 128 new ones
    assert sizes == [128, 128]
    _assert_same(got, ref_integrate_circle(lambda phi: np.exp(100.0 * np.cos(phi))))


def test_a_panel_mean_stable_at_order_32_evaluates_its_integrand_once():
    sizes = []

    def g(x):
        sizes.append(x.size)
        return (1.0 + x * x) ** -1.5

    edges = ref_dyadic_edges(0.5, 50.0)
    got = integrate_halfline_peak(g, 50.0)
    assert sizes == [(len(edges) - 1) * (16 + 32)]
    _assert_same(got, ref_halfline(lambda x: (1.0 + x * x) ** -1.5, 50.0))
