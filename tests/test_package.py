"""The package namespace: the exported names load on first use and are the
defining modules' own objects."""

import importlib

import pytest

import hypolib

# Every name `hypolib` exports, by defining module.
EXPORTS = {
    "errors": [
        "CancellationLoss", "ChainBroken", "FitFailed", "HypolibError", "NonConvergence",
        "NormalizationUnavailable", "PrecisionLoss", "RatioDiverging", "ResultOverflow",
        "ScanInconclusive", "StencilOutOfDomain", "TruncationWarning",
    ],
    "geometry": ["RadialFrame", "poisson_radial_profile"],
    "kernels": [
        "CRITICAL", "FORBIDDEN", "GENERIC", "SpectralParam", "kernel_poly", "make_spectral",
        "polyharmonic_kernel", "reduce_step", "verify_reduce_chain",
    ],
    "spherical": [
        "AsymptoticLaw", "asymptotic_law", "boundary_constant", "closed_form", "radial_zeros",
        "small_radius_law", "spherical_function", "zero_free_radius",
    ],
    "transforms": [
        "Atoms", "Density", "DirichletSolution", "FourierSeq", "Mixture", "RiquierSolution",
        "TransformResult", "convergence_probe", "density_preset", "dirichlet_solve",
        "poisson_transform", "riquier_solve",
    ],
    "regions": [
        "AdmissibleRegion", "FatouRow", "MaximalReport", "SampleNet", "fatou_probe",
        "maximal_inequality_probe",
    ],
    "classical": [
        "AnalyticSeries", "CircleSup", "LacunarySpec", "Witness", "associate_deviation_bound",
        "associated_biharmonic", "demo_lacunary_spec", "lacunary_associate_probe",
        "lacunary_circle_sup", "lacunary_function", "lacunary_growth_probe", "lacunary_series",
        "lacunary_witness", "radial_log_weight", "runge_spiral_fit", "spiral_deviation",
    ],
}
SUBMODULES = [*EXPORTS, "numerics", "polynomials"]
NAMES = {name for names in EXPORTS.values() for name in names}


def test_every_export_is_its_modules_object():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"hypolib.{module}")
        for name in names:
            assert getattr(hypolib, name) is getattr(owner, name), name


def test_exports_are_listed_and_star_importable():
    assert set(hypolib.__all__) == NAMES
    assert NAMES | set(SUBMODULES) <= set(dir(hypolib))
    namespace: dict = {}
    exec("from hypolib import *", namespace)
    assert all(namespace[name] is getattr(hypolib, name) for name in NAMES)


def test_submodules_are_attributes():
    for module in SUBMODULES:
        assert getattr(hypolib, module) is importlib.import_module(f"hypolib.{module}")


def test_unknown_name_and_version():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypolib.no_such_name
    assert hypolib.__version__ == "0.1.0"
