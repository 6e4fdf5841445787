"""Numerical engine for lambda-polyharmonic potential theory on the
hyperbolic disk: graded kernels, their circle means, boundary-data
transforms, admissible-region maximal operators, and the harmonic-case
series toolkit."""

from .errors import (
    ChainBroken,
    DecayViolation,
    FitFailed,
    FitResidualLarge,
    HypolibError,
    NonConvergence,
    NormalizationUnavailable,
    PositivityViolation,
    PrecisionLoss,
    RatioDiverging,
    ResultOverflow,
    ScanInconclusive,
    StencilOutOfDomain,
    TruncationWarning,
)
from .geometry import (
    MobiusMap,
    RadialFrame,
    busemann,
    distance_to_segment,
    hyperbolic_distance,
    mobius_to_origin,
    poisson_kernel,
    poisson_radial_profile,
    rotate,
)
from .kernels import (
    CRITICAL,
    FORBIDDEN,
    GENERIC,
    SpectralParam,
    kernel_poly,
    lambda_kernel,
    make_spectral,
    polyharmonic_kernel,
    reduce_step,
    verify_reduce_chain,
)
from .numerics import DEFAULT_SPEC, QuadratureSpec
from .spherical import (
    AsymptoticLaw,
    abs_spherical_function,
    asymptotic_law,
    boundary_constant,
    closed_form,
    radial_zeros,
    small_radius_law,
    spherical_function,
    zero_free_radius,
)
from .transforms import (
    Atoms,
    DecayReport,
    Density,
    DirichletSolution,
    FourierSeq,
    Mixture,
    RiquierSolution,
    TransformResult,
    convergence_probe,
    datum_from_json,
    datum_to_json,
    density_from_table,
    density_preset,
    dirichlet_solve,
    kernel_decay_probe,
    normalized_kernel,
    pair_functional,
    poisson_transform,
    riquier_solve,
    spherical_average,
)
from .regions import (
    AdmissibleRegion,
    FatouRow,
    MaximalReport,
    SampleNet,
    fatou_probe,
    hl_maximal,
    maximal_inequality_probe,
    radial_rigidity_check,
    region_distance,
    region_membership,
    tubular_maximal,
)
from .classical import (
    AnalyticSeries,
    CircleSup,
    LacunarySpec,
    Witness,
    associate_deviation_bound,
    associated_biharmonic,
    demo_lacunary_spec,
    functional_from_series,
    lacunary_associate_probe,
    lacunary_circle_sup,
    lacunary_function,
    lacunary_growth_probe,
    lacunary_series,
    lacunary_witness,
    radial_log_weight,
    runge_spiral_fit,
    spiral_deviation,
)

__version__ = "0.1.0"
