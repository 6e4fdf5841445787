"""Exception and warning types shared across hypolib modules."""


class HypolibError(Exception):
    """Base class for all hypolib-specific errors."""


class NonConvergence(HypolibError):
    """Quadrature failed to stabilize under node doubling."""

    def __init__(self, message, last_estimates=None):
        super().__init__(message)
        self.last_estimates = tuple(last_estimates or ())


class ResultOverflow(HypolibError):
    """A value does not fit in a double; index names the first such entry
    of a batch."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


class CancellationLoss(HypolibError):
    """A series lost too many digits to cancellation to be trusted; index
    names the first such entry of a batch."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


class StencilOutOfDomain(HypolibError):
    """A finite-difference stencil point left the open unit disk."""


class ChainBroken(HypolibError):
    """Reduction chain did not terminate at the constant polynomial 1."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NormalizationUnavailable(HypolibError):
    """Spherical-function normalization undefined or numerically zero here."""


class RatioDiverging(HypolibError):
    """Maximal-function ratio kept growing under net refinement."""


class ScanInconclusive(HypolibError):
    """Zero-free-radius scan found dips persisting arbitrarily close to 1."""


class FitFailed(HypolibError):
    """No polynomial within the degree budget met the target band."""


class TruncationWarning(UserWarning):
    """A truncated pairing or series dropped more mass than the tolerance."""


class PrecisionLoss(UserWarning):
    """An angle reduction exceeded available precision; term skipped."""
