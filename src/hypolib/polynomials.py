"""Dense complex polynomials in one variable, lowest degree first.

Small immutable value type used by the kernel reduction calculus; only the
operations that calculus needs (derivative, linear combination, evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ComplexPoly"]


def _trim(cs: tuple[complex, ...]) -> tuple[complex, ...]:
    d = len(cs) - 1
    while d > 0 and cs[d] == 0:
        d -= 1
    return cs[: d + 1]


@dataclass(frozen=True)
class ComplexPoly:
    """Coefficients (c0, c1, ..., cd); leading coefficient nonzero unless d=0."""

    coeffs: tuple[complex, ...]

    @classmethod
    def from_coeffs(cls, cs) -> "ComplexPoly":
        t = tuple(complex(c) for c in cs)
        if not t:
            t = (0j,)
        return cls(_trim(t))

    @classmethod
    def monomial(cls, degree: int, coeff: complex = 1.0) -> "ComplexPoly":
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        return cls.from_coeffs((0j,) * degree + (complex(coeff),))

    def differentiate(self) -> "ComplexPoly":
        cs = self.coeffs
        if len(cs) == 1:
            return ComplexPoly((0j,))
        return ComplexPoly.from_coeffs(tuple(k * cs[k] for k in range(1, len(cs))))

    def scale(self, c: complex) -> "ComplexPoly":
        return ComplexPoly.from_coeffs(tuple(complex(c) * x for x in self.coeffs))

    def add(self, other: "ComplexPoly") -> "ComplexPoly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return ComplexPoly.from_coeffs(
            tuple((a[k] if k < len(a) else 0j) + (b[k] if k < len(b) else 0j) for k in range(n))
        )

    def evaluate(self, w):
        """Horner evaluation; w may be a scalar or a numpy array."""
        acc = self.coeffs[-1]
        if isinstance(w, np.ndarray):
            acc = np.full_like(w, acc, dtype=complex)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * w + c
        return acc

    def max_abs_diff(self, other: "ComplexPoly") -> float:
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return max(
            abs((a[k] if k < len(a) else 0j) - (b[k] if k < len(b) else 0j)) for k in range(n)
        )

