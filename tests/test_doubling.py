"""The node-doubling quadratures against a per-order reference.

Each circle-mean quadrature takes its first doubling step (orders 16 and
32, or trapezoid n = 64 and 128) from one evaluation of its integrand, and
refines a trapezoid grid on its new (odd) nodes only.  The reference below
evaluates the integrand afresh at every order and on every full grid; the
library must give its values, errors and last estimates bit for bit.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from hypolib import numerics, spherical, transforms
from hypolib.errors import HypolibError, NonConvergence
from hypolib.geometry import RadialFrame, poisson_radial_profile
from hypolib.kernels import FORBIDDEN, kernel_poly, make_spectral
from hypolib.numerics import integrate_circle, integrate_halfline_peak
from hypolib.transforms import Density, density_preset

# --- the reference: one evaluation of the integrand per order ---------------


def ref_panels(f, edges, order):
    x, w = np.polynomial.legendre.leggauss(order)
    e = np.asarray(edges, dtype=float)
    a, b = e[:-1, None], e[1:, None]
    half = 0.5 * (b - a)
    nodes, weights = 0.5 * (a + b) + half * x, half * w
    vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
    return complex(np.sum(vals * weights))


def ref_trapezoid(f, n):
    phi = -math.pi + 2.0 * math.pi * np.arange(n) / n
    return complex(np.mean(np.asarray(f(phi), dtype=complex)))


def ref_doubling(estimate, order, cap, failure):
    prev = estimate(order)
    while True:
        order *= 2
        new = estimate(order)
        if numerics._stable(new, prev):
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


def ref_kernel_mean(poly, exponent, r, use_abs=False):
    """spherical._kernel_mean with its half-line and arc pieces integrated
    one after the other, each at one order per evaluation.  With use_abs,
    the mean of |poly(log P_r)| P_r^{Re exponent}: the scale other tests
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

    if tau >= spherical._TAU_SWITCH:

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


_DATA = {name: density_preset(name) for name in ("sawtooth", "indicator:0.4:0.9", "cos", "one")}
# lam = -1/4 is the critical regime; lam = 0, 3/4 and 2 put 2 mu on an
# integer, the closed form's degenerate band
LAMS = st.one_of(
    st.sampled_from([-0.25, 0.0, 0.75, 2.0, 1.5 + 1.5j, -1.5 - 1.5j]),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)
# tau = 20, the switch between the trapezoid rule and the half-line panels,
# is near r = 0.905
RADII = st.one_of(st.floats(1e-3, 0.999999), st.sampled_from([0.9, 0.905, 0.91, 0.99]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    lam=LAMS,
    n=st.integers(0, 2),
    r=RADII,
    name=st.sampled_from(sorted(_DATA)),
    angles=st.lists(ANGLE, min_size=1, max_size=6),
)
def test_circle_means_match_the_per_order_reference(lam, n, r, name, angles):
    # the transform of a density without closed form: one circle mean of
    # K_r(phi) g(phi + theta) per angle
    sp = make_spectral(lam)
    if sp.kind == FORBIDDEN:
        return
    datum = _DATA[name]
    tau = RadialFrame.from_r(r).tau
    peak = min(1.0, 1.0 / tau)

    def f(phi):
        return transforms._kernel_row(n, sp, r, phi)

    plain = Density(datum.fn, datum.name, datum.breakpoints)
    values, errors = transforms._density_values(n, sp, plain, r, angles)
    want_values, want_errors = ref_circle_means(f, datum, angles, peak, datum.breakpoints)
    assert sorted(errors) == sorted(want_errors)
    for i, v in enumerate(want_values):
        if i in want_errors:
            _assert_same(_error(errors[i]), _error(want_errors[i]))
        else:
            _assert_same(values[i], v)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lam=LAMS, n=st.integers(0, 3), r=RADII)
# overflow on both sides of the switch, and a panel doubling that cannot
# meet its tolerance far out on the forbidden ray
@example(lam=1e6, n=0, r=0.9)
@example(lam=1e6, n=0, r=0.999)
@example(lam=-1e4, n=0, r=0.905)
@example(lam=1.3 + 0.7j, n=1, r=math.tanh(15.0))
def test_kernel_mean_matches_the_per_order_reference(lam, n, r):
    sp = make_spectral(lam)
    poly = kernel_poly(n, sp)
    _assert_same(
        _outcome(lambda: spherical._kernel_mean(poly, sp.exponent, r)),
        _outcome(lambda: ref_kernel_mean(poly, sp.exponent, r)),
    )


# --- errors past the cap ----------------------------------------------------


def _sign(phi):
    # a jump at 0 and at +-pi: the trapezoid means move by 1/(2n) per doubling
    return np.sign(phi)


def test_a_trapezoid_mean_that_never_stabilizes_fails_as_the_reference_does():
    got = _outcome(lambda: integrate_circle(_sign))
    assert got[0] is NonConvergence and got[1].endswith("n = 1048576")
    _assert_same(got, _outcome(lambda: ref_integrate_circle(_sign)))


def test_fallback_points_that_never_stabilize_fail_as_the_reference_does():
    # an undeclared jump at 0 and at +-pi: at r = 0.01 each point takes the
    # trapezoid rule up to n = 2^20 and fails there on its own
    sp = make_spectral(0.0)
    r, angles = 0.01, [0.1, -2.0]
    values, errors = transforms._density_values(0, sp, Density(_sign, "sign"), r, angles)
    want_values, want_errors = ref_circle_means(
        lambda phi: transforms._kernel_row(0, sp, r, phi), _sign, angles, 1.0, ()
    )
    assert sorted(errors) == sorted(want_errors) == [0, 1]
    for i in errors:
        _assert_same(_error(errors[i]), _error(want_errors[i]))


# --- evaluation counts ------------------------------------------------------


class _CountingPoly:
    def __init__(self, poly):
        self.poly, self.sizes = poly, []

    def evaluate(self, w):
        self.sizes.append(np.size(w))
        return self.poly.evaluate(w)


def test_a_far_path_mean_stable_at_order_32_evaluates_its_integrand_once():
    sp = make_spectral(1.3 + 0.7j)
    r = math.tanh(15.0)  # R = 30
    assert RadialFrame.from_r(r).tau >= spherical._TAU_SWITCH
    poly = _CountingPoly(kernel_poly(1, sp))
    got = spherical._kernel_mean(poly, sp.exponent, r)
    # the half-line and the arc, each at orders 16 and 32, in one array
    assert len(poly.sizes) == 1
    half = ref_dyadic_edges(0.5, RadialFrame.from_r(r).tau / math.sqrt(2.0))
    assert poly.sizes[0] == (len(half) - 1 + 2) * (16 + 32)
    _assert_same(got, ref_kernel_mean(kernel_poly(1, sp), sp.exponent, r))


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
