"""curvlab: a desk-scale laboratory for quadratic curvature functionals."""

from .atlas import StabilityQuery, Verdict, classify, emit_atlas, p1, p2
from .charts import (
    QuadratureGrid,
    build_grid,
    make_model,
    milnor_coframe,
    milnor_frame,
    to_unit_volume,
    volume,
)
from .errors import (
    ConfigurationError,
    CurvlabError,
    DegenerateMetricError,
    DimensionError,
    EigenvalueRangeError,
    GlobalIntegralUnsupportedError,
    InvalidModeError,
    PreconditionError,
    UnsupportedModelError,
)
from .fields import (
    ChartDomain,
    CovectorField,
    MetricField,
    ScalarField,
    SymTensorField,
)
from .functionals import (
    Coefficients,
    FunctionalReport,
    decomposition_residual,
    evaluate,
    scaling_check,
)
from .spectral import (
    RayleighReport,
    rayleigh_lichnerowicz,
    s3_invariant_tt,
    torus_tt_mode,
    tt_defect,
)
from .tensors import (
    CurvatureBundle,
    covariant_derivative,
    curvature,
    delta_star,
    divergence,
    lichnerowicz,
)
from .variations import (
    GradientTensor,
    PerturbationFamily,
    VariationReport,
    conformal_identity_suite,
    curvature_variations,
    einstein_criticality_defect,
    el_residual,
    gradient_tensor,
    second_variation_conformal_predicted,
    second_variation_numeric,
    second_variation_tt_predicted,
    tt_identity_suite,
)

__version__ = "0.1.0"
