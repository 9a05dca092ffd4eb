"""Calibrated correlation testing toolkit.

The core operation replaces each observation with its out-of-sample
prediction under the fitted linear relationship and applies the classical
correlation test to the predictions, yielding a calibrated (r, p) pair whose
p-value holds up under large test batteries without additional correction.
Comparison baselines (p-value calibrations, multiple-testing corrections,
a correlation Bayes factor, and skipped correlation) plus a seeded
simulation harness and a screening CLI round out the package.
"""

from .calibration import bf_rows, bf_to_posterior, correlation_bf, pcal_bickel, pcal_sellke
from .core import (
    CorrelationResult,
    DataPair,
    OlsFit,
    loo_predictions,
    ols_fit,
    pearson,
    pearson_rows,
)
from .engine import (
    DcalBatch,
    DcalResult,
    OosScheme,
    X_FROM_Y,
    Y_FROM_X,
    dcal_in_sample_check,
    dcal_matrix,
    dcal_test,
    oos_predict,
)
from .errors import (
    ConvergenceError,
    DcalError,
    DegenerateGeometryError,
    DegenerateVarianceError,
    InsufficientDataError,
    NumericRangeError,
    ParseError,
    ResampleCoverageError,
    TargetError,
    UndefinedSignError,
)
from .batchio import FeatureMatrix, ScreenReport, load_matrix, screen, write_report
from .multitest import PermutationPlan, bh_adjust, holm_adjust, permutation_pvalues
from .robust import (
    SkippedBatch,
    SkippedResult,
    detect_bivariate_outliers,
    skipped_correlation,
    skipped_rows,
)
from .simulate import (
    Contaminated,
    CorrelatedBattery,
    EffectGrid,
    ExperimentReport,
    NullBattery,
    OutlierKind,
    contaminated_rows,
    gen_contaminated,
    gen_pair,
    run_battery_experiment,
    run_effect_grid,
    run_oos_comparison,
    run_outlier_suite,
)
from .special import regularized_incomplete_beta, student_t_cdf

__version__ = "0.1.0"

__all__ = [
    "DataPair",
    "CorrelationResult",
    "OlsFit",
    "pearson",
    "pearson_rows",
    "ols_fit",
    "loo_predictions",
    "student_t_cdf",
    "regularized_incomplete_beta",
    "OosScheme",
    "DcalResult",
    "DcalBatch",
    "Y_FROM_X",
    "X_FROM_Y",
    "oos_predict",
    "dcal_test",
    "dcal_matrix",
    "dcal_in_sample_check",
    "pcal_sellke",
    "pcal_bickel",
    "bf_to_posterior",
    "bf_rows",
    "correlation_bf",
    "PermutationPlan",
    "holm_adjust",
    "bh_adjust",
    "permutation_pvalues",
    "SkippedResult",
    "SkippedBatch",
    "detect_bivariate_outliers",
    "skipped_correlation",
    "skipped_rows",
    "OutlierKind",
    "NullBattery",
    "CorrelatedBattery",
    "EffectGrid",
    "Contaminated",
    "ExperimentReport",
    "gen_pair",
    "gen_contaminated",
    "contaminated_rows",
    "run_battery_experiment",
    "run_oos_comparison",
    "run_effect_grid",
    "run_outlier_suite",
    "FeatureMatrix",
    "ScreenReport",
    "load_matrix",
    "screen",
    "write_report",
    "DcalError",
    "DegenerateVarianceError",
    "DegenerateGeometryError",
    "InsufficientDataError",
    "ResampleCoverageError",
    "UndefinedSignError",
    "ConvergenceError",
    "NumericRangeError",
    "ParseError",
    "TargetError",
]
