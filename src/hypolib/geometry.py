"""Geometry of the Poincare disk model.

Points live in the open unit disk D = {|z| < 1}, boundary points are angles
phi with xi = e^{i phi}.  The hyperbolic metric is

    rho(z, w) = log[(|1 - z conj(w)| + |z - w|) / (|1 - z conj(w)| - |z - w|)],

the Poisson kernel and Busemann function (horocycle index) are

    P(z, xi)   = (1 - |z|^2) / |xi - z|^2,
    hor(z, xi) = -log P(z, xi),

so P = exp(-hor) identically.  For radial points the shorthand used all over
the numerics is R = log((1+r)/(1-r)) = rho(r, 0) and tau = 2 sqrt(r)/(1-r),
giving the peak profile P_r(phi)/P_r(0) = 1/(1 + tau^2 sin^2(phi/2)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialFrame",
    "MobiusMap",
    "ensure_disk",
    "hyperbolic_distance",
    "poisson_kernel",
    "busemann",
    "poisson_radial_profile",
    "rotate",
    "mobius_to_origin",
    "distance_to_segment",
]


def ensure_disk(z: complex, where: str = "z") -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"{where} must lie strictly inside the unit disk, got |z| = {abs(z)}")
    return z


@dataclass(frozen=True)
class RadialFrame:
    """Radius r together with R = log((1+r)/(1-r)) and tau = 2 sqrt(r)/(1-r)."""

    r: float
    R: float
    tau: float

    @classmethod
    def from_r(cls, r: float) -> "RadialFrame":
        if not 0.0 <= r < 1.0:
            raise ValueError(f"radius must lie in [0, 1), got {r}")
        return cls(r=r, R=math.log1p(r) - math.log1p(-r), tau=2.0 * math.sqrt(r) / (1.0 - r))

    @classmethod
    def from_R(cls, R: float) -> "RadialFrame":
        if R < 0.0:
            raise ValueError(f"R must be nonnegative, got {R}")
        # r = tanh(R/2); stable at both ends
        return cls.from_r(math.tanh(0.5 * R))


def hyperbolic_distance(z: complex, w: complex) -> float:
    """Metric distance rho(z, w) in the disk model."""
    z = ensure_disk(z, "z")
    w = ensure_disk(w, "w")
    a = abs(1.0 - z * w.conjugate())
    b = abs(z - w)
    return math.log((a + b) / (a - b))


def poisson_kernel(z: complex, xi):
    """P(z, xi) for a disk point z and boundary point(s) xi on the circle."""
    z = ensure_disk(z, "z")
    xi = np.asarray(xi, dtype=complex)
    out = (1.0 - abs(z) ** 2) / np.abs(xi - z) ** 2
    return out if out.ndim else float(out)


def busemann(z: complex, xi):
    """Horocycle index hor(z, xi) = -log P(z, xi); zero at z = 0."""
    p = poisson_kernel(z, xi)
    return -np.log(p) if isinstance(p, np.ndarray) else -math.log(p)


def poisson_radial_profile(r: float, phi):
    """P(r, e^{i phi}) as a function of the angular offset phi from the anchor."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    phi = np.asarray(phi, dtype=float)
    # 1 - r^2 as (1-r)(1+r), which keeps its digits near r = 1, over the
    # stable denominator (1-r)^2 + 4r sin^2(phi/2) = |e^{i phi} - r|^2
    out = (1.0 - r) * (1.0 + r) / ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * phi) ** 2)
    return out if out.ndim else float(out)


def rotate(z: complex, alpha: float) -> complex:
    return complex(z) * cmath.exp(1j * alpha)


@dataclass(frozen=True)
class MobiusMap:
    """Disk automorphism u -> (u + z0)/(1 + conj(z0) u); sends 0 to z0."""

    z0: complex

    def __call__(self, u: complex) -> complex:
        z0 = self.z0
        return (u + z0) / (1.0 + z0.conjugate() * u)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(-self.z0)


def mobius_to_origin(z0: complex) -> MobiusMap:
    """The hyperbolic isometry carrying 0 to z0 (its inverse carries z0 to 0)."""
    return MobiusMap(ensure_disk(z0, "z0"))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def distance_to_segment(z: complex, zeta_angle: float, tol: float = 1e-10) -> float:
    """rho(z, [0, zeta)) for the radial geodesic toward zeta = e^{i zeta_angle}.

    The profile t -> rho(z, t zeta) is convex (distance to a point moving along
    a geodesic), so golden-section search on t in [0, 1) suffices.
    """
    z = ensure_disk(z, "z")
    zeta = cmath.exp(1j * zeta_angle)

    def f(t: float) -> float:
        return hyperbolic_distance(z, t * zeta)

    lo, hi = 0.0, 1.0 - 1e-14
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return min(f1, f2, f(lo), f(0.5 * (lo + hi)))
