"""cescov: complex elliptical sampling, covariance estimation, closed-form
second-order theory, and a Monte Carlo verification harness."""

from .ces_sampler import (
    CESModel,
    CompoundGaussianK,
    Gaussian,
    RngStream,
    StudentT,
    elliptical_kurtosis,
    parse_family,
    sample_ces,
    sample_modular,
    sample_sphere,
)
from .errors import (
    CescovError,
    DegenerateCoordinate,
    InvalidFamily,
    NotHermitian,
    NotPositiveDefinite,
    SingularSCM,
    TooFewObservations,
    ZeroTrace,
)
from .estimators import (
    SCMResult,
    estimate_kurtosis,
    plugin_shrinkage,
    sample_variance,
    scm,
    weighted_scm,
)
from .lin_core import (
    centering_matrix,
    commutation_matrix,
    covariance_preset,
    hermitian_sqrt,
    hermitize,
    load_complex_matrix,
    mean_preset,
    save_complex_matrix,
    scale_and_sphericity,
    spiked_covariance,
    unvec,
    vec,
)
from .mc_verify import (
    ComparisonReport,
    EmpiricalMoments,
    MCConfig,
    RadialEstimate,
    Tolerances,
    compare_to_theory,
    empirical_moments,
    radial_estimate_from_moments,
    verify_oracle_efficiency,
    verify_sphere_moments,
    verify_target,
)
from .theory import (
    CovariancePair,
    RadialStructure,
    ShrinkageReport,
    affine_equivariant_var,
    beta_opt,
    beta_opt_univariate,
    mse_scm,
    nmse_from_sphericity,
    radial_var_structure,
    scm_radial_structure,
    shrinkage_curve,
    shrinkage_report,
)

__version__ = "0.1.0"
