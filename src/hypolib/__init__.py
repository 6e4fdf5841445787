"""Numerical engine for lambda-polyharmonic potential theory on the
hyperbolic disk: graded kernels, their circle means, boundary-data
transforms, admissible-region maximal operators, and the harmonic-case
series toolkit.

The exported names load on first use (PEP 562): ``import hypolib`` imports
none of the submodules, and ``hypolib.<name>`` imports the one module that
defines ``<name>``.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "CancellationLoss",
        "ChainBroken",
        "FitFailed",
        "HypolibError",
        "NonConvergence",
        "NormalizationUnavailable",
        "PrecisionLoss",
        "RatioDiverging",
        "ResultOverflow",
        "ScanInconclusive",
        "StencilOutOfDomain",
        "TruncationWarning",
    ),
    "geometry": (
        "RadialFrame",
        "poisson_radial_profile",
    ),
    "kernels": (
        "CRITICAL",
        "FORBIDDEN",
        "GENERIC",
        "SpectralParam",
        "kernel_poly",
        "make_spectral",
        "polyharmonic_kernel",
        "reduce_step",
        "verify_reduce_chain",
    ),
    "spherical": (
        "AsymptoticLaw",
        "asymptotic_law",
        "boundary_constant",
        "closed_form",
        "radial_zeros",
        "small_radius_law",
        "spherical_function",
        "zero_free_radius",
    ),
    "transforms": (
        "Atoms",
        "Density",
        "DirichletSolution",
        "FourierSeq",
        "Mixture",
        "RiquierSolution",
        "TransformResult",
        "convergence_probe",
        "density_preset",
        "dirichlet_solve",
        "poisson_transform",
        "riquier_solve",
    ),
    "regions": (
        "AdmissibleRegion",
        "FatouRow",
        "MaximalReport",
        "SampleNet",
        "fatou_probe",
        "maximal_inequality_probe",
    ),
    "classical": (
        "AnalyticSeries",
        "CircleSup",
        "LacunarySpec",
        "Witness",
        "associate_deviation_bound",
        "associated_biharmonic",
        "demo_lacunary_spec",
        "lacunary_associate_probe",
        "lacunary_circle_sup",
        "lacunary_function",
        "lacunary_growth_probe",
        "lacunary_series",
        "lacunary_witness",
        "radial_log_weight",
        "runge_spiral_fit",
        "spiral_deviation",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# library submodules reachable as attributes of the package
_SUBMODULES = frozenset(_EXPORTS) | {"numerics", "polynomials"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # Not cached in the package namespace: hypolib.<name> always reads the
    # defining module, so a name rebound there (a tracer, a test) shows here.
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
