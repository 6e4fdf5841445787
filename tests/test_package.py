"""The package namespace: the exported names load on first use and are the
defining modules' own objects."""

import importlib

import pytest

import hypolib

# Every name `hypolib` exported when its __init__ imported all its modules,
# by defining module.
EXPORTS = {
    "errors": [
        "CancellationLoss", "ChainBroken", "DecayViolation", "FitFailed", "FitResidualLarge", "HypolibError",
        "NonConvergence", "NormalizationUnavailable", "PositivityViolation", "PrecisionLoss",
        "RatioDiverging", "ResultOverflow", "ScanInconclusive", "StencilOutOfDomain",
        "TruncationWarning",
    ],
    "geometry": [
        "MobiusMap", "RadialFrame", "busemann", "distance_to_segment", "hyperbolic_distance",
        "mobius_to_origin", "poisson_kernel", "poisson_radial_profile", "rotate",
    ],
    "kernels": [
        "CRITICAL", "FORBIDDEN", "GENERIC", "SpectralParam", "kernel_poly", "lambda_kernel",
        "make_spectral", "polyharmonic_kernel", "reduce_step", "verify_reduce_chain",
    ],
    "spherical": [
        "AsymptoticLaw", "abs_spherical_function", "asymptotic_law", "boundary_constant",
        "closed_form", "radial_zeros", "small_radius_law", "spherical_function",
        "zero_free_radius",
    ],
    "transforms": [
        "Atoms", "DecayReport", "Density", "DirichletSolution", "FourierSeq", "Mixture",
        "RiquierSolution", "TransformResult", "convergence_probe", "datum_from_json",
        "datum_to_json", "density_from_table", "density_preset", "dirichlet_solve",
        "kernel_decay_probe", "normalized_kernel", "pair_functional", "poisson_transform",
        "riquier_solve", "spherical_average",
    ],
    "regions": [
        "AdmissibleRegion", "FatouRow", "MaximalReport", "SampleNet", "fatou_probe",
        "hl_maximal", "maximal_inequality_probe", "radial_rigidity_check", "region_distance",
        "region_membership", "tubular_maximal",
    ],
    "classical": [
        "AnalyticSeries", "CircleSup", "LacunarySpec", "Witness", "associate_deviation_bound",
        "associated_biharmonic", "demo_lacunary_spec", "functional_from_series",
        "lacunary_associate_probe", "lacunary_circle_sup", "lacunary_function",
        "lacunary_growth_probe", "lacunary_series", "lacunary_witness", "radial_log_weight",
        "runge_spiral_fit", "spiral_deviation",
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
