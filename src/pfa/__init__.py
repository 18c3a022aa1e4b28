"""Factor-adjusted multiple testing under arbitrary correlation.

Decomposes correlated normal test statistics into a small number of
principal factors plus weakly dependent noise, estimates the realized
factor values by least-absolute-deviation regression, and turns the
decomposition into consistent estimates of the false discovery proportion
and an approximate-FDR threshold rule.
"""

__version__ = "0.1.1"

from .factors import (
    FactorModel,
    FactorRealization,
    FdpReport,
    build_factor_model,
    estimate_fdp,
    fdp_limit,
    fdp_numerator,
    select_num_factors,
    standard_factor_draws,
    variance_of_false_count,
)
from .fdr import (
    ControlResult,
    RejectionSet,
    UnreachableAlphaError,
    approx_fdr,
    bh_procedure,
    efron_estimate,
    solve_threshold,
    storey_estimate,
    storey_procedure,
)
from .gauss import norm_cdf, norm_pdf, norm_quantile, two_sided_pvalue
from .lad import (
    CalibrationSet,
    FactorFit,
    lad_regress,
    ls_regress,
    misspecification_bound,
    select_calibration_set,
)
from .linalg import (
    CorrelationMatrix,
    EigenSystem,
    NotPSDError,
    NotSymmetricError,
    equal_correlation,
    spectral_decompose,
    symmetric_sqrt,
    tail_energy,
)
from .simulate import (
    Scenario,
    generate_design,
    realized_counts,
    sample_correlation,
)

__all__ = [
    "__version__",
    "CorrelationMatrix",
    "EigenSystem",
    "NotPSDError",
    "NotSymmetricError",
    "equal_correlation",
    "spectral_decompose",
    "symmetric_sqrt",
    "tail_energy",
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
    "two_sided_pvalue",
    "FactorModel",
    "FactorRealization",
    "FdpReport",
    "select_num_factors",
    "build_factor_model",
    "fdp_numerator",
    "fdp_limit",
    "estimate_fdp",
    "standard_factor_draws",
    "variance_of_false_count",
    "CalibrationSet",
    "FactorFit",
    "select_calibration_set",
    "lad_regress",
    "ls_regress",
    "misspecification_bound",
    "ControlResult",
    "RejectionSet",
    "UnreachableAlphaError",
    "approx_fdr",
    "solve_threshold",
    "bh_procedure",
    "storey_procedure",
    "storey_estimate",
    "efron_estimate",
    "Scenario",
    "generate_design",
    "sample_correlation",
    "realized_counts",
]
