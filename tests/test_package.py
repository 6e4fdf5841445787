"""The package namespace: the exported names load on first use and are the
defining modules' own objects; and the private names its modules share."""

import ast
import importlib
from pathlib import Path

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


SRC = Path(hypolib.__file__).resolve().parent
# cross-module private imports (from .m import _name) under src/hypolib; a
# change may lower this, never raise it
PRIVATE_IMPORTS = 26


def _relative_imports() -> list[tuple[str, str, str]]:
    """(importing module, imported module, name) for every from-import
    between hypolib modules, function-local ones included."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                out += [(path.stem, node.module or "", alias.name) for alias in node.names]
    return out


def test_modules_share_no_more_private_names_than_before():
    shared = [imp for imp in _relative_imports() if imp[2].startswith("_")]
    assert len(shared) <= PRIVATE_IMPORTS, shared


def test_the_row_engine_stays_in_spherical_and_numerics_is_a_leaf():
    engine = ("_kernel_modes", "_row_plan", "_row_panels")
    naming = [p.stem for p in SRC.glob("*.py") if p.stem != "spherical" and any(e in p.read_text() for e in engine)]
    assert not naming
    assert {module for importer, module, _ in _relative_imports() if importer == "numerics"} == {"errors"}
