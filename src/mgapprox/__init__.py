"""Numerics for martingale approximation of stationary linear processes.

The package builds Taylor coefficient sequences of inner functions
(singular and Blaschke), measures how well scalar multiples of the driving
noise approximate their partial-sum processes through exact window-sum
norms, synthesizes a layered rare-spike process whose two natural
martingale approximants separate at rate sqrt(n), and checks filtration
identities on an exhaustively enumerated finite model.
"""

from .errors import InvariantViolation
from .exact_model import (
    ExactModel,
    ProjectionReport,
    conditional_expectation,
    conditioning_up_to,
    decode_digit_value,
    digit_value,
    hannan_sum,
    martingale_difference_norms,
    remote_past_projection,
)
from .inner import (
    BlaschkeSpec,
    DecayDiagnostics,
    DyadicMidpointReport,
    blaschke_eval_radial,
    blaschke_factor_coeffs,
    blaschke_product_coeffs,
    coefficient_decay_diagnostics,
    dyadic_midpoint_report,
    dyadic_radial_limit_bound,
    newman_shapiro_main_term,
    singular_exponent_series,
    singular_inner_coeffs,
)
from .layered_process import (
    FIRE_LOG_FLOOR,
    DecodeReport,
    DecodedSample,
    DecodingTable,
    LayerCodec,
    LayerParams,
    TableCell,
    decoding_table,
    inv_sqrt_log_rule,
    level_one_window_variance,
    power_rule,
    residual_norm_sq_lagged,
    residual_norm_sq_natural,
    simulate_and_decode,
    simulate_level_one_variance,
    synthesize_layer_params,
)
from .linear_process import (
    GapReport,
    LinearProcessSpec,
    approximation_gap,
    best_scalar_gap,
    empirical_autocovariance,
    simulate_path,
    sum_norm_sq,
)
from .rng import substream
from .series import (
    CesaroProfile,
    CoefficientSeries,
    autocorrelation,
    cauchy_product,
    cesaro_profile,
    exp_series,
)

__version__ = "0.1.0"

__all__ = [
    "BlaschkeSpec",
    "CesaroProfile",
    "CoefficientSeries",
    "DecayDiagnostics",
    "DecodeReport",
    "FIRE_LOG_FLOOR",
    "DecodedSample",
    "DecodingTable",
    "DyadicMidpointReport",
    "ExactModel",
    "GapReport",
    "InvariantViolation",
    "LayerCodec",
    "LayerParams",
    "LinearProcessSpec",
    "ProjectionReport",
    "TableCell",
    "approximation_gap",
    "autocorrelation",
    "best_scalar_gap",
    "blaschke_eval_radial",
    "blaschke_factor_coeffs",
    "blaschke_product_coeffs",
    "cauchy_product",
    "cesaro_profile",
    "coefficient_decay_diagnostics",
    "conditional_expectation",
    "conditioning_up_to",
    "decode_digit_value",
    "decoding_table",
    "digit_value",
    "dyadic_midpoint_report",
    "dyadic_radial_limit_bound",
    "empirical_autocovariance",
    "exp_series",
    "hannan_sum",
    "inv_sqrt_log_rule",
    "level_one_window_variance",
    "martingale_difference_norms",
    "newman_shapiro_main_term",
    "power_rule",
    "remote_past_projection",
    "residual_norm_sq_lagged",
    "residual_norm_sq_natural",
    "simulate_and_decode",
    "simulate_level_one_variance",
    "simulate_path",
    "singular_exponent_series",
    "singular_inner_coeffs",
    "substream",
    "sum_norm_sq",
    "synthesize_layer_params",
    "__version__",
]
