"""Shared fixtures.

The singular-inner coefficient table at order 1e4 and the layered
parameter sets are expensive enough to build once per session.
"""

import pytest

from mgapprox import inv_sqrt_log_rule, singular_inner_coeffs, synthesize_layer_params


@pytest.fixture(scope="session")
def unit_singular_series():
    # a = 1, coefficients through index 1e4; tail mass bound ~0.009.
    return singular_inner_coeffs(1.0, 10**4)


@pytest.fixture(scope="session")
def layer_params_k4():
    return synthesize_layer_params(inv_sqrt_log_rule(), 4)


@pytest.fixture(scope="session")
def layer_params_k8():
    return synthesize_layer_params(inv_sqrt_log_rule(), 8)


@pytest.fixture(scope="session")
def layer_params_k24():
    return synthesize_layer_params(inv_sqrt_log_rule(), 24)
