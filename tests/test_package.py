"""The package facade: mgapprox re-exports every module's public names."""

import mgapprox

# mgapprox.__all__ as it stood before the facade was built from the module
# __all__ lists; every one of these names must stay exported.
EXPORTED = [
    "BlaschkeSpec", "CesaroProfile", "CoefficientSeries", "DecayDiagnostics",
    "DecodeReport", "DecodedSample", "DecodingTable", "DyadicMidpointReport",
    "ExactModel", "FIRE_LOG_FLOOR", "GapReport", "InvariantViolation",
    "LayerCodec", "LayerParams", "LinearProcessSpec", "ProjectionReport",
    "TableCell", "__version__", "approximation_gap", "autocorrelation",
    "best_scalar_gap", "blaschke_eval_radial", "blaschke_factor_coeffs",
    "blaschke_product_coeffs", "cauchy_product", "cesaro_profile",
    "coefficient_decay_diagnostics", "conditional_expectation",
    "conditioning_up_to", "decode_digit_value", "decoding_table", "digit_value",
    "dyadic_midpoint_report", "dyadic_radial_limit_bound",
    "empirical_autocovariance", "exp_series", "hannan_sum", "inv_sqrt_log_rule",
    "level_one_window_variance", "martingale_difference_norms",
    "newman_shapiro_main_term", "power_rule", "remote_past_projection",
    "residual_norm_sq_lagged", "residual_norm_sq_natural", "simulate_and_decode",
    "simulate_level_one_variance", "simulate_path", "singular_exponent_series",
    "singular_inner_coeffs", "substream", "sum_norm_sq", "synthesize_layer_params",
]


def test_every_earlier_name_still_exported():
    assert len(EXPORTED) == 53
    assert [name for name in EXPORTED if not hasattr(mgapprox, name)] == []
    assert set(EXPORTED) <= set(mgapprox.__all__)


def test_all_is_the_module_lists():
    names = mgapprox.__all__
    assert len(names) == len(set(names))
    assert set(names) - set(EXPORTED) == {"Label", "RADIAL_LIMIT_FACTORS", "INNOVATION_KINDS",
                                          "substream_uniforms", "digit_values",
                                          "decode_digit_values"}
    modules = [mgapprox.errors, mgapprox.exact_model, mgapprox.inner, mgapprox.layered_process,
               mgapprox.linear_process, mgapprox.rng, mgapprox.series]
    for module in modules:
        for name in module.__all__:
            assert getattr(mgapprox, name) is getattr(module, name)
