"""The package facade: mgapprox re-exports every module's public names,
loading its modules on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgapprox

ROOT = Path(__file__).resolve().parents[1]

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


def fresh(script: str):
    """What script prints as JSON, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('mgapprox.'))"


def test_import_loads_no_module():
    assert fresh(f"import json, sys, mgapprox; print(json.dumps({LOADED}))") == []


def test_importing_cli_loads_only_errors():
    assert fresh(f"import json, sys; from mgapprox import cli; print(json.dumps({LOADED}))") == [
        "mgapprox.cli", "mgapprox.errors"]


def test_first_name_loads_every_module():
    loaded = fresh(f"import json, sys, mgapprox; mgapprox.substream; print(json.dumps({LOADED}))")
    assert loaded == [f"mgapprox.{m}" for m in ("errors", "exact_model", "inner",
                                                  "layered_process", "linear_process", "rng",
                                                  "series")]


def test_dir_covers_all():
    missing = fresh("import json, mgapprox; names = dir(mgapprox); "
                    "print(json.dumps(sorted(set(mgapprox.__all__) - set(names))))")
    assert missing == []


def test_star_import_binds_every_exported_name():
    unbound = fresh("import json, mgapprox; ns = {}; exec('from mgapprox import *', ns); "
                    "print(json.dumps([n for n in mgapprox.__all__ "
                    "if n not in ns or ns[n] is not getattr(mgapprox, n)]))")
    assert unbound == []


@pytest.mark.parametrize("name", ["no_such_name", "_private", "cli_"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(mgapprox, name)
