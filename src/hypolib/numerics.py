"""Quadrature, special-function, and transform primitives.

Circle integrals are normalized means (1/2pi) int f(phi) dphi.  Two engines:
the periodic trapezoid rule (spectrally accurate for smooth periodic
integrands) and panelized Gauss-Legendre with dyadically refined panels
accumulating at phi = 0, for integrands with a peak of angular width
~ peak_scale there; both double their nodes until a stability check
passes, one loop (_doubling) that also serves many lanes at once, as when
spherical takes many Fourier modes of one kernel row, or the primitives
of many rows at many offsets, read off each panel's Legendre interpolant
(_legendre_map).
The loop's first step takes both orders (16 and 32 Gauss-Legendre nodes
per panel, or 64 and 128 trapezoid nodes) from one evaluation of the
integrand, and each later trapezoid doubling evaluates only the odd nodes
it adds; every estimate rounds as if its order were evaluated alone.
Half-line integrals int_0^tau g(x) dx use log-spaced
panels over [0,1] u [1,tau]; callers supply extra breakpoints for kinks.

The Gauss hypergeometric evaluator targets nonpositive real arguments only:
the Pfaff transform x -> x/(x-1) maps (-inf, 0] onto y in [0, 1).  The
series is summed in y for y <= 1/2 and in 1 - y = 1/(1-x) past that, through
the connection formula DLMF 15.8.4, so no series runs in an argument above
1/2.  Where c - a - b is within 0.02 of an integer, the connection
coefficients' poles are avoided by averaging over a small circle in a.  That
covers the closed-form spherical function, whose transformed argument is r^2,
up to the boundary.  The same evaluator carries truncated Taylor series in a
parameter shift ("jets"), which give the polyspherical functions of every
order.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CancellationLoss, NonConvergence, ResultOverflow

__all__ = [
    "integrate_circle",
    "integrate_panels",
    "integrate_halfline_peak",
    "gauss_2f1",
    "gauss_2f1_many",
    "circle_fft",
]

_TRAPEZOID_START = 64
_TRAPEZOID_CAP = 1 << 20
# integrand peaks narrower than this take the panel path
_PEAK_THRESHOLD = 0.05
# Gauss-Legendre nodes per panel before the first doubling
_PANEL_ORDER = 16
# an estimate is stable once a doubling moves it by at most
# max(_ABS_TOL, _REL_TOL |estimate|)
_ABS_TOL = 1e-12
_REL_TOL = 1e-11
# Integrand values one chunk of a many-lane quadrature (_chunks) evaluates
# at once; the lanes are taken in chunks that stay under it.
_SWEEP_ELEMENTS = 1 << 18


@lru_cache(maxsize=64)
def _gl_nodes(orders: tuple[int, ...]):
    """The Gauss-Legendre rules of the orders side by side: nodes, weights
    (one block of each order's length after the other) and the slice of
    each order's block."""
    rules = [np.polynomial.legendre.leggauss(order) for order in orders]
    x, w = (np.concatenate(part) for part in zip(*rules))
    cuts = np.cumsum([0, *orders]).tolist()
    return x, w, [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


@lru_cache(maxsize=16)
def _legendre_map(order: int) -> np.ndarray:
    """The (order x order) map from a function's values f(x_i) at the
    order-node Gauss-Legendre nodes of [-1, 1] to d_j = c_j / (2j + 1),
    c_j the Legendre coefficients of its interpolant:
    d_j = (1/2) sum_i w_i P_j(x_i) f(x_i), exact for polynomials of degree
    below order."""
    x, w, _ = _gl_nodes((order,))
    return 0.5 * (np.polynomial.legendre.legvander(x, order - 1) * w[:, None]).T


def _legendre_integrals(tables, rows: np.ndarray, t: np.ndarray) -> list:
    """For each table d of tables (_legendre_map's d_j, a row per panel),
    the interpolant's integral sum_j c_j int_{-1}^t P_j at each t, from the
    panel of rows: d_0 (t + 1) + sum_{j >= 1} d_j (P_{j+1} - P_{j-1})(t).
    One pass of the Legendre recurrence serves every table, a degree at a
    time, so the work is t.size times the order and the arrays stay of
    t's size."""
    tables = [np.ascontiguousarray(d.T) for d in tables]
    sums = [d[0][rows] * (t + 1.0) for d in tables]
    p_prev, p = np.ones_like(t), t
    for j in range(1, max(d.shape[0] for d in tables)):
        p_next = t * p
        p_next *= (2 * j + 1) / (j + 1)
        p_next -= j / (j + 1) * p_prev
        step = p_next - p_prev
        for d, acc in zip(tables, sums):
            if j < d.shape[0]:
                acc += d[j][rows] * step
        p_prev, p = p, p_next
    return sums


def _panel_nodes(edges: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gauss-Legendre nodes and weights on the panels between consecutive
    edges (last axis), shape edges.shape[:-1] + (panels, order)."""
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def _panel_estimator(f: Callable, edges: Sequence[float]) -> Callable:
    """estimate(orders, lanes) for _doubling, with one lane: the composite
    Gauss-Legendre sums of f over the panels between consecutive edges at
    each order.

    f is called once on every order's nodes (panels x every order's nodes,
    flattened).  Each order's values are then summed times its weights as
    their own (panels x order) array, so a sum rounds as it would for that
    order alone.
    """
    edges = np.asarray(edges, dtype=float)

    def estimate(orders, lanes):
        x, w, blocks = _gl_nodes(tuple(orders))
        nodes, weights = _panel_nodes(edges, x, w)
        vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
        # np.add.reduce is np.sum without its dispatch
        return [[complex(np.add.reduce(vals[:, k] * weights[:, k], axis=None))] for k in blocks]

    return estimate


def integrate_panels(f: Callable, edges: Sequence[float], order: int) -> complex:
    """Composite Gauss-Legendre integral of f over consecutive [edges] panels."""
    return _panel_estimator(f, edges)((order,), [0])[0][0]


def _doubling(estimate: Callable, order: int, cap: int, count: int, failure: Callable):
    """Node doubling with a stability check per lane.

    estimate(orders, lanes) gives, for each order in orders, the estimates
    of the lanes (an index array) at that order.  The first call asks for
    the start order and its double together, so an estimator can take both
    from one evaluation of the integrand; every later call asks for one
    order, for the lanes still unstable.  A lane is done once a doubling
    moves its estimate by at most max(_ABS_TOL, _REL_TOL |estimate|).  A
    lane whose estimate does not fit in a double gets ResultOverflow, since
    no amount of doubling repairs it, and one still unstable at order `cap`
    gets failure(order, previous estimate, last estimate).  Returns the
    estimates and {lane: error}.
    """
    values = np.zeros(count, dtype=complex)
    errors: dict = {}
    lanes = np.arange(count)
    if not count:
        return values, errors
    prev, cur = estimate((order, 2 * order), lanes)
    prev = np.asarray(prev, dtype=complex)
    order *= 2
    while True:
        cur = np.asarray(cur, dtype=complex)
        size = np.abs(cur)
        finite = np.isfinite(size)
        if not finite.all():
            for i in np.flatnonzero(~finite):
                errors[int(lanes[i])] = ResultOverflow(
                    f"quadrature estimate {complex(cur[i])!r} does not fit in a double"
                )
            lanes, prev, cur, size = lanes[finite], prev[finite], cur[finite], size[finite]
        gap = np.abs(cur - prev)
        stable = (gap <= _ABS_TOL) | (gap <= _REL_TOL * size)
        values[lanes[stable]] = cur[stable]
        if order >= cap:
            for i in np.flatnonzero(~stable):
                errors[int(lanes[i])] = failure(order, complex(prev[i]), complex(cur[i]))
            return values, errors
        lanes, prev = lanes[~stable], cur[~stable]
        if not lanes.size:
            return values, errors
        order *= 2
        (cur,) = estimate((order,), lanes)


def _settled(outcome) -> np.ndarray:
    """The values of a _doubling, or the error of its first failed lane raised."""
    values, errors = outcome
    if errors:
        raise errors[min(errors)]
    return values


def _panel_failure(order: int, prev: complex, last: complex) -> NonConvergence:
    return NonConvergence(
        f"panel quadrature did not stabilize at order {order}", last_estimates=(prev, last)
    )


def _trapezoid_failure(n: int, prev: complex, last: complex) -> NonConvergence:
    return NonConvergence(f"trapezoid rule did not stabilize by n = {n}", last_estimates=(last,))


def _refine_panels(f: Callable, edges: Sequence[float]) -> complex:
    """The panel integral of f over the edges (see _panel_estimator) with
    node doubling until it is stable; two failed doublings abort."""
    estimate = _panel_estimator(f, edges)
    return complex(_settled(_doubling(estimate, _PANEL_ORDER, 4 * _PANEL_ORDER, 1, _panel_failure))[0])


def _trapezoid_grid(n: int, refine: bool) -> np.ndarray:
    """The n-node trapezoid grid or, to refine the n/2-node grid, its odd
    nodes only: the even ones are the n/2-node grid to the bit, since
    2 pi (2j) / n rounds as 2 pi j / (n/2) does."""
    grid = -math.pi + 2.0 * math.pi * np.arange(n) / n
    return np.ascontiguousarray(grid[1::2]) if refine else grid


def _interleaved(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Values on a grid (last axis) from those on its even and its odd nodes."""
    out = np.empty(odd.shape[:-1] + (2 * odd.shape[-1],), dtype=complex)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def _trapezoid_means(values: np.ndarray, orders) -> list[np.ndarray]:
    """The trapezoid means (last axis) of values on the grid of the largest
    order, at each order; a coarser grid's values are its nested nodes,
    copied to their own array so each mean rounds as on that grid alone."""
    n = values.shape[-1]
    # np.mean's arithmetic (a sum, then a division by the count) without its overhead
    return [
        np.add.reduce(np.ascontiguousarray(values[..., :: n // m]), axis=-1) / m for m in orders
    ]


def _dyadic_edges(width: float, stop: float) -> list[float]:
    """0, width, 2 width, 4 width, ... below stop, then stop."""
    edges = [0.0]
    w = width
    while w < stop:
        edges.append(w)
        w *= 2.0
    edges.append(stop)
    return edges


def _circle_panels(peak_scale: float, breakpoints) -> list[float] | None:
    """Panel edges on [-pi, pi] dyadically refined toward the peak at 0, or
    None where the trapezoid rule applies: no kinks, and a peak of width
    peak_scale >= _PEAK_THRESHOLD."""
    if not peak_scale > 0:
        raise ValueError(f"peak_scale must be positive, got {peak_scale}")
    if not breakpoints and peak_scale >= _PEAK_THRESHOLD:
        return None
    pos = _dyadic_edges(min(peak_scale, math.pi / 4.0), math.pi)
    return sorted(set([-e for e in reversed(pos[1:])] + pos))


def _with_kinks(base: list[float], breakpoints) -> list[float]:
    """base edges plus the kink angles, each taken mod 2 pi into (-pi, pi)."""
    breaks = {math.remainder(b, 2.0 * math.pi) for b in breakpoints}
    return sorted(set(base) | {b for b in breaks if -math.pi < b < math.pi})


def integrate_circle(
    f: Callable,
    peak_scale: float = 1.0,
    breakpoints: Iterable[float] = (),
) -> complex:
    """Mean of f over the circle: (1/2pi) int_{-pi}^{pi} f(phi) dphi.

    f maps a numpy array of angles to an array of values of its shape.
    Integrands whose peak at phi = 0 has angular width peak_scale < 0.05
    are integrated on dyadic panels; otherwise the periodic trapezoid rule
    with doubling is used.
    Kink angles passed in `breakpoints` force the panel path with edges
    aligned to them.  Each doubling evaluates f only at the nodes it adds.
    """
    breakpoints = tuple(breakpoints)
    base = _circle_panels(peak_scale, breakpoints)
    if base is None:
        kept = None  # the values on the grid evaluated last

        def trapezoid(orders, lanes):
            nonlocal kept
            vals = np.asarray(f(_trapezoid_grid(orders[-1], kept is not None)), dtype=complex)
            kept = vals if kept is None else _interleaved(kept, vals)
            return [[m] for m in _trapezoid_means(kept, orders)]

        return complex(_settled(_doubling(
            trapezoid, _TRAPEZOID_START, _TRAPEZOID_CAP, 1, _trapezoid_failure
        ))[0])
    return _refine_panels(f, _with_kinks(base, breakpoints)) / (2.0 * math.pi)


def _chunks(lanes: np.ndarray, per_lane: int) -> list[np.ndarray]:
    """lanes in runs whose per-lane arrays stay under _SWEEP_ELEMENTS."""
    step = max(1, _SWEEP_ELEMENTS // max(1, per_lane))
    return [lanes[i : i + step] for i in range(0, lanes.size, step)]


def integrate_halfline_peak(
    g: Callable,
    tau: float,
    breakpoints: Iterable[float] = (),
) -> complex:
    """int_0^tau g(x) dx on log-spaced panels [0,1] u [1,tau].

    Suited to integrands like (1+x^2)^{-s} that vary on unit scale near 0 and
    decay algebraically; any kink locations go in `breakpoints`.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    edges = _dyadic_edges(min(0.5, tau), tau)
    inner = [b for b in breakpoints if 0.0 < b < tau]
    if inner:
        edges = sorted(set(edges).union(inner))
    return _refine_panels(g, edges)


# Degenerate band of the connection formula: s = c - a - b within _BAND of
# an integer, where its two coefficients have poles that cancel.  There the
# value is the trapezoid mean over the circle |t| = _CAUCHY_RADIUS of
# F(a + t, b; c; y), which is entire in t; the nodes stay at least
# _CAUCHY_RADIUS - _BAND away from the poles.
_BAND = 0.02
_CAUCHY_RADIUS = 0.05
_CAUCHY_NODES = 24
# cap on block length x lanes in _series, which bounds its temporaries
_BLOCK_ELEMENTS = 4096
# A lane whose largest series term exceeds the series' sum by more than this
# factor has lost six digits or more to cancellation.
_CANCELLATION_BOUND = 1e6
# Taylor jets in eps of F(a + eps, b - eps; c; x).  After the Pfaff step both
# series parameters move with eps and s with -2 eps, so a connection
# coefficient's poles sit at eps = (s - m)/2 for integers m, and a jet of
# order k taken at distance d from one loses about (1/d)^k in cancellation.
# Lanes with s within _JET_BAND of an integer therefore take the jet as the
# Cauchy mean of F(a + u, b - u; c; x) u^-j over |u| = _JET_RADIUS, whose
# nodes stay 1/8 or more from every pole; that mean loses
# _JET_RADIUS^-k against the largest value on the circle, so those lanes sum
# the series in y up to y = _JET_NEAR, past which Phi_n is no longer small
# against that value.
_JET_BAND = 0.25
_JET_RADIUS = 0.25
_JET_NODES = 32
_JET_NEAR = 0.9


# Lanczos sum for log Gamma at |z| < _STIRLING_FROM (Godfrey's g = 607/128,
# 15 coefficients): Gamma(z) = sqrt(2 pi) t^(z + 1/2) e^-t A(z) / z with
# t = z + g + 1/2 and A(z) = c_0 + sum_k c_k / (z + k).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_STIRLING_FROM = 10.0
# psi^(j) takes its asymptotic series once |z| >= _PSI_FROM, after the
# recurrence psi^(j)(z) = psi^(j)(z + 1) - (-1)^j j! / z^(j+1)
_PSI_FROM = 20.0
# B_2, B_4, ..., B_20; with |z| >= 10 the last Stirling term is below 1e-18
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
    -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _is_pole(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z) mod 2 pi i, from sin(pi z) = (-1)^m sin(pi (z - m)),
    m the integer nearest Re z, so the argument stays within pi/2 of 0.
    Past |Im z| = 10, sin(pi z) = (i/2) e^(-i pi z) (1 - e^(2 i pi z)) for
    Im z > 0, and the last factor is 1 to within 5e-28."""
    m = round(z.real)
    x, y = z.real - m, z.imag
    if abs(y) <= 10.0:
        v = cmath.log(cmath.sin(math.pi * complex(x, y)))
    else:
        v = complex(math.pi * abs(y) - math.log(2.0), math.copysign(0.5 * math.pi - math.pi * x, y))
    return v + complex(0.0, math.pi * (m % 2))


def _loggamma(z: complex) -> complex:
    """log Gamma(z) mod 2 pi i in double precision; +inf at a pole.

    Re z < 1/2 reflects, log Gamma(z) = log pi - log sin(pi z)
    - log Gamma(1 - z); then the Lanczos sum for |z| < _STIRLING_FROM and
    the Stirling series beyond.  Against 40-digit values the error is
    within 3e-15 absolute at |z| <= 3 and grows with |z log z| past that:
    1e-14 at |z| <= 10, 1.5e-13 at 100, 2e-12 at 1000.
    """
    z = complex(z)
    if _is_pole(z):
        return complex(math.inf)
    if z.real < 0.5:
        return math.log(math.pi) - _log_sin_pi(z) - _loggamma(1.0 - z)
    if abs(z) < _STIRLING_FROM:
        acc = 0.0j
        for k in range(len(_LANCZOS) - 1, 0, -1):
            acc += _LANCZOS[k] / (z + k)
        t = z + _LANCZOS_G + 0.5
        return (z + 0.5) * cmath.log(t) - t + _HALF_LOG_2PI + cmath.log((_LANCZOS[0] + acc) / z)
    inv2 = 1.0 / (z * z)
    tail = 0.0j
    for k in range(len(_BERNOULLI), 0, -1):
        tail = tail * inv2 + _BERNOULLI[k - 1] / (2 * k * (2 * k - 1))
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + tail / z


def _cot_derivative(j: int, w: complex) -> complex:
    """d^j/dw^j cot w.  It is real on the real axis, so the value at Im w < 0
    is the conjugate of the value at conj(w).  For Im w <= 1 it is a
    polynomial in c = cot w: p_0 = c and p_(k+1) = -(1 + c^2) p_k'(c).
    Past that the polynomial cancels (every p_k, k >= 1, vanishes at
    c = -i, the limit of cot w), and j >= 1 takes the expansion
    cot w = -i (1 + 2 sum_n q^n), q = e^(2iw): -2i (2i)^j sum_n n^j q^n, which
    is -2i (2i)^j q A_j(q) / (1 - q)^(j+1) with A_j the Eulerian polynomial.
    """
    if w.imag < 0.0:
        return _cot_derivative(j, w.conjugate()).conjugate()
    if w.imag <= 1.0:
        c = cmath.cos(w) / cmath.sin(w)
        poly = [0, 1]  # coefficients in c, lowest first
        for _ in range(j):
            deriv = [k * p for k, p in enumerate(poly)][1:]
            poly = [-(a + b) for a, b in zip(deriv + [0, 0], [0, 0] + deriv)]
        acc = 0.0j
        for coef in reversed(poly):
            acc = acc * c + coef
        return acc
    q = cmath.exp(2j * w)
    if j == 0:
        return -1j * (1.0 + q) / (1.0 - q)
    euler = [1]  # Eulerian numbers A(k, m), m = 0..k-1, built up to k = j
    for k in range(2, j + 1):
        prev = [0, *euler, 0]
        euler = [(m + 1) * prev[m + 1] + (k - m) * prev[m] for m in range(k)]
    acc = 0.0j
    for coef in reversed(euler):
        acc = acc * q + coef
    return -2j * (2j) ** j * q * acc / (1.0 - q) ** (j + 1)


def _polygamma(j: int, z: complex) -> complex:
    """psi^(j)(z) in double precision, for j >= 0 and z off the poles.

    Re z < 1/2 reflects: psi^(j)(z) = (-1)^j psi^(j)(1 - z)
    - pi^(j+1) cot^(j)(pi z).  Otherwise the recurrence moves z to
    |z| >= _PSI_FROM, where the asymptotic series
    psi(z) ~ log z - 1/(2z) - sum_k B_2k / (2k z^2k) and its derivatives
    apply.
    """
    z = complex(z)
    if _is_pole(z):
        raise ValueError(f"psi^({j}) has a pole at {z}")
    if z.real < 0.5:
        cot = _cot_derivative(j, math.pi * complex(z.real - round(z.real), z.imag))
        return (-1) ** j * _polygamma(j, 1.0 - z) - math.pi ** (j + 1) * cot
    fact = math.factorial(j)
    shift = 0.0j
    while abs(z) < _PSI_FROM:
        shift += z ** -(j + 1)
        z += 1.0
    shift *= (-1) ** j * fact
    inv = 1.0 / z
    inv2 = inv * inv
    # sum_k B_2k (2k + j - 1)! / (2k)! z^-(2k + j), Horner in z^-2
    tail = 0.0j
    for k in range(len(_BERNOULLI), 0, -1):
        tail = tail * inv2 + _BERNOULLI[k - 1] * math.factorial(2 * k + j - 1) / math.factorial(2 * k)
    tail *= inv2 * inv**j
    if j == 0:
        return cmath.log(z) - 0.5 * inv - tail - shift
    lead = math.factorial(j - 1) * inv**j + 0.5 * fact * inv ** (j + 1)
    return (-1) ** (j + 1) * (lead + tail) - shift


def _log_gamma_ratio(num, den) -> complex:
    """log(prod Gamma(num) / prod Gamma(den)) mod 2 pi i; -inf where a
    denominator argument sits at a pole, so the ratio vanishes."""
    if any(map(_is_pole, den)):
        return complex(-math.inf)
    return sum(map(_loggamma, num), 0j) - sum(map(_loggamma, den), 0j)


@lru_cache(maxsize=1024)
def _connection_logs(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Logs of the DLMF 15.8.4 coefficients of F(a, b; c; y) in 1 - y,

        Gamma(c) Gamma(s) / (Gamma(c-a) Gamma(c-b)),
        Gamma(c) Gamma(-s) / (Gamma(a) Gamma(b)),      s = c - a - b,

    from double-precision log Gammas (_loggamma); -inf for a coefficient
    that vanishes.  Logs keep a coefficient's size out of double range
    until it meets the power of 1 - y it multiplies.
    """
    s = c - a - b
    return _log_gamma_ratio((c, s), (c - a, c - b)), _log_gamma_ratio((c, -s), (a, b))


@lru_cache(maxsize=256)
def _connection_jets(a: complex, b: complex, c: complex, order: int) -> np.ndarray:
    """Taylor jets in eps of the two DLMF 15.8.4 coefficients of
    F(a + eps, b + eps; c; y), each divided by its value at eps = 0: rows
    exp(sum_j g_j eps^j) with g_j the j-th Taylor coefficient of the
    coefficient's log, [eps^j] log Gamma(z + dz eps) = dz^j psi^(j-1)(z) / j!.
    """
    s = c - a - b
    out = np.zeros((2, order + 1), dtype=complex)
    for row, (num, den) in enumerate(
        (([(s, -2)], [(c - a, -1), (c - b, -1)]), ([(-s, 2)], [(a, 1), (b, 1)]))
    ):
        g = np.zeros(order + 1, dtype=complex)
        for j in range(1, order + 1):
            fact = math.factorial(j)
            g[j] = sum(dz**j * _polygamma(j - 1, z) for z, dz in num) / fact
            g[j] -= sum(dz**j * _polygamma(j - 1, z) for z, dz in den) / fact
        e = out[row]
        e[0] = 1.0
        for j in range(1, order + 1):  # (exp G)' = G' exp G, term by term
            e[j] = sum(i * g[i] * e[j - i] for i in range(1, j + 1)) / j
    return out


def _series(a, b, c, z) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums of F(a, b; c; z), 0 <= z <= 1/2, with parameters that
    broadcast against z, and the largest term's modulus in each lane.

    Terms come in blocks, a running product of the term ratios: 16 terms
    for a few lanes, down to one as the lanes grow, so small batches pay
    for a few array operations per block rather than per term.  Summation
    stops once the last terms of two consecutive blocks fall below 1e-17
    of the sum in every lane.  Terms eventually shrink by the factor
    z <= 1/2, so this happens unless a sum overflows; a non-finite lane
    counts as done and is left to the caller.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(z))
    total = np.ones(shape, dtype=complex)
    term = np.ones(shape, dtype=complex)
    big = last = np.ones(shape)
    block = max(1, min(16, _BLOCK_ELEMENTS // max(1, total.size)))
    k = np.arange(block, dtype=float).reshape((block,) + (1,) * len(shape))
    while True:
        prev = last
        terms = term * np.cumprod((a + k) * (b + k) / ((c + k) * (k + 1.0)) * z, axis=0)
        total = total + terms.sum(axis=0)
        mods = np.abs(terms)
        term, last = terms[-1], mods[-1]
        big = np.maximum(big, mods.max(axis=0) if block > 1 else last)
        tol = 1e-17 * np.abs(total)
        if not ((prev > tol) | (last > tol)).any():
            return total, big
        k = k + block


def _shift(jet: np.ndarray, factor, slope) -> np.ndarray:
    """jet times (factor + slope eps), truncated at the jet's order."""
    out = jet * factor
    out[1:] += slope * jet[:-1]
    return out


def _series_jet(a, b, c, slopes, z, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor jets in eps of F(a + da eps, b + db eps; c + dc eps; z),
    (da, db, dc) = slopes, as rows 0..order over the lanes of z, with the
    largest modulus of a value term (row 0) in each lane.

    Term by term; summation stops once every row's last term falls below
    1e-17 of the sum of its moduli in every lane.
    """
    da, db, dc = slopes
    term = np.zeros((order + 1,) + np.shape(z), dtype=complex)
    term[0] = 1.0
    total = term.copy()
    size = np.abs(term)
    big = np.ones(np.shape(z))
    k = 0
    while True:
        t = _shift(_shift(term, a + k, da), b + k, db)
        # divide by (c + k + dc eps): forward substitution in the rows
        g0 = c + k
        t[0] /= g0
        for j in range(1, order + 1):
            t[j] = (t[j] - dc * t[j - 1]) / g0
        term = t * (z / (k + 1.0))
        total += term
        mod = np.abs(term)
        size += mod
        big = np.maximum(big, mod[0])
        k += 1
        if not (mod > 1e-17 * size).any():
            return total, big


def _exp_jet(value, slope, order: int) -> np.ndarray:
    """Taylor jet of exp(value + slope eps): rows exp(value) slope^j / j!."""
    out = np.empty((order + 1,) + np.shape(value), dtype=complex)
    out[0] = np.exp(value)
    for j in range(1, order + 1):
        out[j] = out[j - 1] * (slope / j)
    return out


def _jet_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Truncated product of two jets (rows 0..order)."""
    out = np.zeros(np.broadcast_shapes(p.shape, q.shape), dtype=complex)
    for i in range(p.shape[0]):
        out[i:] += p[i] * q[: p.shape[0] - i]
    return out


def _connection(a: complex, b: complex, c: complex, w, L) -> tuple[np.ndarray, np.ndarray]:
    """exp(-a L) F(a, b; c; 1 - w) for 0 < w < 1/2 and L = -log(w), by
    DLMF 15.8.4: two series in w, averaged over a circle in a inside the
    degenerate band.  Also returns each lane's worst ratio of a series'
    largest term to its sum."""
    s = c - a - b
    if abs(s - round(s.real)) < _BAND:
        t = _CAUCHY_RADIUS * np.exp(2j * np.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    else:
        t = np.zeros(1, dtype=complex)
    at = a + t
    logs = np.array([_connection_logs(complex(p), b, c) for p in at])
    # one batch: rows F(a+t, b; 1-s+t; w), then rows F(c-a-t, c-b; 1+s-t; w)
    f, big = _series(
        np.concatenate([at, c - at])[:, None],
        np.repeat([b, c - b], t.size)[:, None],
        np.concatenate([1.0 - s + t, 1.0 + s - t])[:, None],
        w,
    )
    f1, f2 = f[: t.size], f[t.size :]
    # (1-x)^{-a} times the coefficients, and times (1-y)^{s-t} = w^{s-t}
    first = np.exp(logs[:, :1] - a * L) * f1
    second = np.exp(logs[:, 1:] - (a + s - t)[:, None] * L) * f2
    return np.mean(first + second, axis=0), np.max(big / np.abs(f), axis=0)


def _connection_jet(a: complex, b: complex, c: complex, w, L, order: int):
    """Taylor jets in eps of exp(-(a + eps) L) F(a + eps, b + eps; c; 1 - w),
    as _connection does for eps = 0, off the degenerate band; the second
    term's power w^{s - 2 eps} contributes exp(+eps L).  None where a
    connection coefficient vanishes."""
    s = c - a - b
    logs = _connection_logs(a, b, c)
    if not all(math.isfinite(v.real) for v in logs):
        return None
    coeffs = _connection_jets(a, b, c, order)[:, :, None]
    f1, big1 = _series_jet(a, b, 1.0 - s, (1, 1, 2), w, order)
    f2, big2 = _series_jet(c - a, c - b, 1.0 + s, (-1, -1, -2), w, order)
    first = _jet_mul(_jet_mul(_exp_jet(logs[0] - a * L, -L, order), coeffs[0]), f1)
    second = _jet_mul(_jet_mul(_exp_jet(logs[1] - (a + s) * L, L, order), coeffs[1]), f2)
    return first + second, np.maximum(big1 / np.abs(f1[0]), big2 / np.abs(f2[0]))


def _cauchy_jet(a: complex, b: complex, c: complex, w, L, order: int):
    """The jets of _connection_jet as the mean of the values
    exp(-(a + u) L) F(a + u, b + u; c; 1 - w) u^-j over the circle
    |u| = _JET_RADIUS, for the degenerate band."""
    u = _JET_RADIUS * np.exp(2j * np.pi * np.arange(_JET_NODES) / _JET_NODES)
    nodes = [_connection(a + p, b + p, c, w, L) for p in u]
    powers = u[None, :] ** -np.arange(order + 1)[:, None]
    values = np.array([v for v, _ in nodes])
    return powers @ values / _JET_NODES, np.max([r for _, r in nodes], axis=0)


def gauss_2f1(a, b, c, x: float) -> complex:
    """Gauss hypergeometric F(a, b; c; x) for real x <= 0 (see gauss_2f1_many)."""
    return complex(gauss_2f1_many(a, b, c, [x])[0])


def _check_lanes(out: np.ndarray, ratio: np.ndarray, x: np.ndarray, abc: tuple) -> None:
    """ResultOverflow at the first non-finite lane of F(a, b; c; x) (out has
    the lanes last), else CancellationLoss at the first lane past
    _CANCELLATION_BOUND."""
    finite = np.isfinite(out)
    if finite.all() and (ratio <= _CANCELLATION_BOUND).all():
        return
    bad = np.flatnonzero(~finite.reshape(-1, x.size).all(axis=0))
    lost = np.flatnonzero(~(ratio <= _CANCELLATION_BOUND))
    what = "F({}, {}; {}; x)".format(*abc)
    if bad.size:
        i = int(bad[0])
        raise ResultOverflow(f"{what} overflows a double at x = {float(x[i])!r}", index=i)
    i = int(lost[0])
    raise CancellationLoss(
        f"{what} loses {math.log10(ratio[i]):.0f} digits to cancellation at x = {float(x[i])!r}",
        index=i,
    )


def gauss_2f1_many(a, b, c, xs, order: int = 0) -> np.ndarray:
    """Gauss hypergeometric F(a, b; c; x) over an array of real x <= 0.

    Pfaff: F(a, b; c; x) = (1-x)^{-a} F(a, c-b; c; y), y = x/(x-1) in [0, 1),
    with 1 - y = 1/(1-x) taken from x itself.  Lanes with y <= 1/2 sum the
    series in y; the others use the connection formula in 1 - y < 1/2
    (_connection).  At moderate parameters each lane needs a few dozen
    terms, however close y is to 1.

    With order = m > 0 the result has shape (m + 1,) + shape(xs): row j is
    the Taylor coefficient [eps^j] F(a + eps, b - eps; c; x).  The same
    series and connection formula carry truncated Taylor series in eps;
    the Gamma-ratio coefficients' jets come from double-precision
    polygammas (_polygamma).  On
    the jets' degenerate band (see _JET_BAND) the lanes past y = _JET_NEAR
    take the Cauchy mean of F(a + u, b - u; c; x) u^-j over a circle in u
    (_cauchy_jet), as do lanes where a connection coefficient vanishes.

    With a, b and c real, F and its jets are real, and the imaginary part
    that the complex arithmetic leaves as rounding noise is set to 0.

    Raises ResultOverflow, with an overflowing lane as `index`, where the
    evaluation leaves double range, and CancellationLoss, with the lane as
    `index`, where a finite lane's series lost more than six digits to
    cancellation (its largest term over 1e6 times its sum).
    """
    a, b, c = complex(a), complex(b), complex(c)
    if not all(cmath.isfinite(p) for p in (a, b, c)):
        raise ValueError(f"parameters must be finite, got {(a, b, c)}")
    if c.imag == 0.0 and c.real <= 0.0 and c.real == math.floor(c.real):
        raise ValueError(f"c must not be a nonpositive integer, got {c}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    xs = np.asarray(xs, dtype=float)
    x = xs.ravel()
    if not np.all(np.isfinite(x) & (x <= 0.0)):
        raise ValueError("all arguments must be finite and <= 0")
    L = np.log1p(-x)  # log(1 - x) = -log(1 - y)
    w = 1.0 / (1.0 - x)  # 1 - y
    ratio = np.ones(x.size)
    # a lane past double range comes out non-finite, one that cancels to 0
    # gets an infinite ratio, and _check_lanes refuses either below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if order == 0:
            out = np.empty(x.shape, dtype=complex)
            near = w >= 0.5
            far = ~near
            if near.any():
                f, big = _series(a, c - b, c, -x[near] * w[near])
                out[near] = np.exp(-a * L[near]) * f
                ratio[near] = big / np.abs(f)
            if far.any():
                out[far], ratio[far] = _connection(a, c - b, c, w[far], L[far])
        else:
            out = np.empty((order + 1, x.size), dtype=complex)
            s = b - a
            band = abs(s - round(s.real)) < _JET_BAND
            near = w >= (1.0 - _JET_NEAR if band else 0.5)
            far = ~near
            if near.any():
                f, big = _series_jet(a, c - b, c, (1, 1, 0), -x[near] * w[near], order)
                out[:, near] = _jet_mul(_exp_jet(-a * L[near], -L[near], order), f)
                ratio[near] = big / np.abs(f[0])
            if far.any():
                args = (a, c - b, c, w[far], L[far], order)
                jets = None if band else _connection_jet(*args)
                out[:, far], ratio[far] = jets if jets is not None else _cauchy_jet(*args)
    _check_lanes(out, ratio, x, (a, b, c))
    if a.imag == b.imag == c.imag == 0.0:
        out.imag = 0.0
    return out.reshape(out.shape[:-1] + xs.shape)


def circle_fft(samples) -> np.ndarray:
    """Fourier coefficients of f from equispaced samples f(2 pi j / N).

    Entry n (taken mod N) estimates (1/2pi) int f(phi) e^{-i n phi} dphi;
    trustworthy for |n| < N/2.  N must be a power of two.
    """
    s = np.asarray(samples, dtype=complex)
    n = s.shape[0]
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")
    return np.fft.fft(s) / n


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 2)."""
    p = 2
    while p < n:
        p *= 2
    return p


def parallel_map(fn: Callable, items) -> list:
    """[fn(x) for x in items], in order.  A named step only, which the rungs
    of regions._region_sups go through so that perfbench/spans.py can
    trace them."""
    return [fn(x) for x in items]
