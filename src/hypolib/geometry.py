"""Geometry of the Poincare disk model.

Points live in the open unit disk D = {|z| < 1}, boundary points are angles
phi with xi = e^{i phi}.  The Poisson kernel is

    P(z, xi) = (1 - |z|^2) / |xi - z|^2,

a function of |z| and the angle from xi to z alone: poisson_radial_profile
is the one formula for it, which every kernel value takes.

For radial points the shorthand used all over the numerics is
R = log((1+r)/(1-r)), the hyperbolic distance from r to the origin, and
tau = 2 sqrt(r)/(1-r), giving the peak profile
P_r(phi)/P_r(0) = 1/(1 + tau^2 sin^2(phi/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialFrame",
    "ensure_disk",
    "poisson_radial_profile",
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


def poisson_radial_profile(r, phi):
    """P(r, e^{i phi}) as a function of the angular offset phi from the
    anchor; r is a radius, or an array of radii that broadcasts against phi."""
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    phi = np.asarray(phi, dtype=float)
    # 1 - r^2 as (1-r)(1+r), which keeps its digits near r = 1, over the
    # stable denominator (1-r)^2 + 4r sin^2(phi/2) = |e^{i phi} - r|^2
    out = (1.0 - r) * (1.0 + r) / ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * phi) ** 2)
    return out if out.ndim else float(out)


