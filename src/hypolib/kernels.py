"""Spectral parameters and the graded family of eigenkernels.

The spectral map is lam = mu^2 - 1/4 with mu = sqrt(lam + 1/4) on the
principal branch (sqrt(rho e^{i phi}) = sqrt(rho) e^{i phi/2}, phi in
(-pi, pi]), so Re mu >= 0 always.  Three regimes:

  generic    lam not in (-inf, -1/4]      (Re mu > 0)
  critical   lam = -1/4 exactly           (mu = 0)
  forbidden  lam real, lam < -1/4         (mu purely imaginary)

The base eigenkernel of the hyperbolic Laplacian is P(z,xi)^{mu+1/2}; the
order-n member of the graded family multiplies it by a polynomial in
w = log P (equivalently -hor):

  generic:   g_n(w) = w^n / (n! (2 mu)^n)
  critical:  g_n(w) = w^{2n} / (2n)!

One application of Lam - lam maps g_n P^{mu+1/2} to g P^{mu+1/2} with
g = g_n'' + 2 mu g_n', and n steps of that reduction land on the constant 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChainBroken, ResultOverflow
from .geometry import ensure_disk, poisson_kernel
from .numerics import fd_laplacian
from .polynomials import ComplexPoly

__all__ = [
    "SpectralParam",
    "make_spectral",
    "polyharmonic_kernel",
    "kernel_poly",
    "reduce_step",
    "verify_reduce_chain",
    "fd_verify_kernel",
]

GENERIC = "generic"
CRITICAL = "critical"
FORBIDDEN = "forbidden"


@dataclass(frozen=True)
class SpectralParam:
    """Eigenvalue lam, its square root offset mu, regime tag, and the
    associated real eigenvalue lam_star = (Re mu)^2 - 1/4 (generic/critical)."""

    lam: complex
    mu: complex
    kind: str
    lam_star: float | None

    @property
    def exponent(self) -> complex:
        """Power of the Poisson kernel in the base eigenkernel: mu + 1/2."""
        return self.mu + 0.5


def make_spectral(lam: complex) -> SpectralParam:
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    w = lam + 0.25
    if w == 0:
        return SpectralParam(lam=lam, mu=0j, kind=CRITICAL, lam_star=-0.25)
    if w.imag == 0.0 and w.real < 0.0:
        mu = 1j * math.sqrt(-w.real)
        return SpectralParam(lam=lam, mu=mu, kind=FORBIDDEN, lam_star=None)
    mu = cmath.sqrt(w)
    return SpectralParam(lam=lam, mu=mu, kind=GENERIC, lam_star=mu.real**2 - 0.25)


def _xi_point(xi):
    """Boundary point e^{i xi} for a real angle or angle array."""
    arr = np.asarray(xi)
    if np.iscomplexobj(arr):
        raise TypeError("xi must be a boundary angle in radians, not a complex point")
    if arr.ndim:
        return np.exp(1j * arr.astype(float))
    return cmath.exp(1j * float(arr))


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


def kernel_poly(n: int, sp: SpectralParam) -> ComplexPoly:
    """The log-Poisson polynomial g_n attached to the order-n kernel.

    Raises ResultOverflow where its coefficient is not a finite, nonzero
    double (n! alone leaves double range at n = 171).
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if n == 0:
        return ComplexPoly.from_coeffs((1.0,))
    critical = sp.kind == CRITICAL
    coeff = _in_double_range(
        "kernel coefficient", n, sp,
        lambda: 1.0 / (math.factorial(2 * n) if critical else math.factorial(n) * (2.0 * sp.mu) ** n),
    )
    return ComplexPoly.monomial(2 * n if critical else n, coeff)


def _graded_values(g: ComplexPoly, sp: SpectralParam, p):
    """g(log P) P^{mu+1/2} at the Poisson values p (an array or a float):
    the graded kernel with log-Poisson polynomial g.

    Real, and computed in real arithmetic, where the exponent and g are
    real, which holds for every real lam off the forbidden ray.  A value
    past double range comes out infinite or NaN, without a warning: each
    caller refuses it with a typed error.
    """
    coeffs, exponent = g.coeffs, sp.exponent
    if exponent.imag == 0.0 and not any(c.imag for c in coeffs):
        coeffs, exponent = [c.real for c in coeffs], exponent.real
    with np.errstate(over="ignore", invalid="ignore"):
        logp = np.log(p)
        value = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            value = value * logp + c
        return value * np.exp(exponent * logp)


def polyharmonic_kernel(n: int, z: complex, xi, sp: SpectralParam):
    """Order-n member of the graded kernel family at spectral parameter sp.

    Equals g_n(log P) P^{mu+1/2} with g_n from kernel_poly; order 0 is the
    base eigenkernel itself.  xi is an angle, giving a complex value, or an
    angle array, giving an array that is real where the kernel is
    (_graded_values).  Raises ResultOverflow where a value does not fit in
    a double.
    """
    p = poisson_kernel(z, _xi_point(xi))
    value = _graded_values(kernel_poly(n, sp), sp, p)
    if isinstance(p, np.ndarray):
        if np.isfinite(value).all():
            return value
    elif cmath.isfinite(value):
        return complex(value)
    raise ResultOverflow(
        f"the order-{n} kernel at lam = {sp.lam} does not fit in a double at z = {complex(z)}"
    )


def reduce_step(f: ComplexPoly, sp: SpectralParam) -> ComplexPoly:
    """Image of the log-coefficient polynomial under one application of
    Lam - lam:  f -> f'' + 2 mu f'."""
    df = f.differentiate()
    return df.differentiate().add(df.scale(2.0 * sp.mu))


@dataclass(frozen=True)
class ReduceChainReport:
    n: int
    kind: str
    final_residual: float
    step_residuals: tuple[float, ...]


def verify_reduce_chain(n: int, sp: SpectralParam, tol: float = 1e-12) -> ReduceChainReport:
    """Apply the reduction n times to g_n and check the chain.

    Generic regime: intermediate polynomials pick up lower-order terms that
    die out by step n; only the final constant-1 check is meaningful.
    Critical regime: every single step must collapse g_k to g_{k-1} (to
    roundoff), and the final polynomial is again the constant 1.
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    cur = kernel_poly(n, sp)
    steps: list[float] = []
    for k in range(n, 0, -1):
        cur = reduce_step(cur, sp)
        if sp.kind == CRITICAL:
            steps.append(cur.max_abs_diff(kernel_poly(k - 1, sp)))
    one = ComplexPoly.from_coeffs((1.0,))
    resid = cur.max_abs_diff(one)
    if resid > tol:
        raise ChainBroken(
            f"chain for n={n} ended {resid:.3e} away from the constant 1", residual=cur
        )
    if sp.kind == CRITICAL and steps and max(steps) > 1e-14:
        raise ChainBroken(
            f"critical single-step collapse off by {max(steps):.3e}", residual=cur
        )
    return ReduceChainReport(n=n, kind=sp.kind, final_residual=resid, step_residuals=tuple(steps))


def fd_verify_kernel(n: int, z: complex, xi: float, sp: SpectralParam, h: float) -> float:
    """Residual |Lam_h Q_f - lam Q_f - Q_g| at z, where Q_f is the order-n
    kernel, g = reduce_step(f), and Lam_h is the 5-point discrete Laplacian
    of step h.

    Expected O(h^2) for interior z; order 0 reduces to the eigen-equation
    residual |Lam_h K - lam K|.  Raises ResultOverflow where the kernel on
    the stencil does not fit in a double.
    """
    ensure_disk(z, "z")
    f = kernel_poly(n, sp)
    g = reduce_step(f, sp)
    pt = cmath.exp(1j * float(xi))

    def q(poly: ComplexPoly):
        return lambda w: _graded_values(poly, sp, (1.0 - np.abs(w) ** 2) / np.abs(pt - w) ** 2)

    lap = fd_laplacian(q(f), z, h)
    # lam Q_f + Q_g is the kernel of the one polynomial lam f + g
    residual = abs(lap - q(f.scale(sp.lam).add(g))(np.array([z]))[0])
    if not math.isfinite(residual):
        raise ResultOverflow(
            f"the order-{n} kernel at lam = {sp.lam} does not fit in a double near z = {complex(z)}"
        )
    return residual
