"""Coefficient container, Cesaro profiles, products, and the exp recurrence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mgapprox.series
from mgapprox import (
    CesaroProfile,
    CoefficientSeries,
    autocorrelation,
    cauchy_product,
    cesaro_profile,
    exp_series,
    singular_inner_coeffs,
)


def series(*coeffs, **kw):
    return CoefficientSeries(np.asarray(coeffs, dtype=float), **kw)


class TestContainer:
    def test_order_and_mass(self):
        s = series(3.0, 4.0)
        assert s.order == 1
        assert s.mass() == 25.0
        assert s.tail_mass_bound is None
        assert s.orthonormal_rows is False

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoefficientSeries(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            series(1.0, np.nan)
        with pytest.raises(ValueError):
            series(np.inf)

    def test_rejects_bad_tail_bound(self):
        with pytest.raises(ValueError):
            series(1.0, tail_mass_bound=-0.1)
        with pytest.raises(ValueError):
            series(1.0, tail_mass_bound=np.nan)

    def test_coeffs_are_read_only(self):
        s = series(1.0, 2.0)
        with pytest.raises(ValueError):
            s.coeffs[0] = 7.0

    def test_a_callers_arrays_are_copied_and_stay_writable(self):
        coeffs, partial, means = np.array([1.0, 2.0]), np.array([1.0, 3.0]), np.array([1.0])
        s, profile = CoefficientSeries(coeffs), CesaroProfile(partial, means)
        for given, held in [(coeffs, s.coeffs), (partial, profile.partial_sums),
                            (means, profile.cesaro_means)]:
            assert given.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(given, held)
        coeffs[0] = 7.0
        assert s.coeffs[0] == 1.0

    def test_library_built_arrays_are_frozen_not_copied(self, monkeypatch):
        """singular_inner_coeffs and cesaro_profile hand over the arrays they
        built: each is frozen in place and held as it is."""
        handed = []
        frozen = mgapprox.series._frozen_array

        def spy(values):
            held = frozen(values)
            handed.append((values, held))
            return held

        monkeypatch.setattr(mgapprox.series, "_frozen_array", spy)
        s = singular_inner_coeffs(1.0, 50)
        profile = cesaro_profile(s)
        results = [s.coeffs, profile.partial_sums, profile.cesaro_means]
        assert len(handed) == 3 and all(held is result for (_, held), result in zip(handed, results))
        for values, held in handed:
            assert held is values.array and not held.flags.writeable


class TestCesaroProfile:
    def test_partial_sums_and_means(self):
        s = series(1.0, -2.0, 0.5)
        prof = cesaro_profile(s)
        assert np.allclose(prof.partial_sums, [1.0, -1.0, -0.5])
        # M_n = (A_0 + ... + A_{n-1}) / n, one mean per stored lag
        assert np.allclose(prof.cesaro_means, [1.0, 0.0])

    def test_single_coefficient_has_empty_means(self):
        prof = cesaro_profile(series(2.0))
        assert prof.partial_sums.shape == (1,)
        assert prof.cesaro_means.shape == (0,)

    def test_alternating_series_mean_converges_to_half(self):
        # a_k = (-1)^k gives A in {1, 0} and M_n within 1/n of 1/2.
        n = 400
        s = CoefficientSeries(np.array([(-1.0) ** k for k in range(n + 1)]))
        means = cesaro_profile(s).cesaro_means
        for i, m in enumerate(means, start=1):
            assert abs(m - 0.5) <= 1.0 / i + 1e-15


class TestAutocorrelation:
    def test_unit_vector(self):
        s = series(0.0, 1.0, 0.0)
        assert autocorrelation(s, 0) == 1.0
        assert autocorrelation(s, 1) == 0.0

    def test_hand_value(self):
        s = series(1.0, 2.0, 3.0)
        assert autocorrelation(s, 1) == pytest.approx(1.0 * 2.0 + 2.0 * 3.0)
        assert autocorrelation(s, 2) == pytest.approx(3.0)

    def test_lag_out_of_range(self):
        s = series(1.0, 2.0)
        with pytest.raises(ValueError):
            autocorrelation(s, -1)
        with pytest.raises(ValueError):
            autocorrelation(s, 2)


class TestCauchyProduct:
    def test_hand_square(self):
        s = series(0.5, -0.75, -0.375)
        sq = cauchy_product(s, s, 2)
        assert np.allclose(sq.coeffs, [0.25, -0.75, 0.1875], atol=0, rtol=0)

    def test_order_cap_enforced(self):
        s = series(1.0, 1.0)
        with pytest.raises(ValueError):
            cauchy_product(s, s, 3)

    def test_certificate_survives_product_of_certified(self):
        a = series(0.0, 1.0, orthonormal_rows=True)
        b = series(0.0, 1.0, orthonormal_rows=True)
        assert cauchy_product(a, b, 1).orthonormal_rows is True

    def test_certificate_dropped_when_either_factor_lacks_it(self):
        a = series(0.0, 1.0, orthonormal_rows=True)
        b = series(0.0, 1.0)
        assert cauchy_product(a, b, 1).orthonormal_rows is False
        assert cauchy_product(b, a, 1).orthonormal_rows is False


# Dyadic coefficients k/8 keep every intermediate product and sum exact in
# binary64, so algebraic identities can be asserted bit-for-bit.
dyadic_coeffs = st.lists(
    st.integers(min_value=-40, max_value=40).map(lambda k: k / 8.0),
    min_size=1,
    max_size=9,
)

general_coeffs = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    min_size=1,
    max_size=6,
)


class TestProductAlgebra:
    @given(dyadic_coeffs, dyadic_coeffs)
    @settings(deadline=None, max_examples=60)
    def test_commutative_exact_on_dyadic_grid(self, xs, ys):
        s1 = CoefficientSeries(np.array(xs))
        s2 = CoefficientSeries(np.array(ys))
        n = min(4, s1.order, s2.order)
        left = cauchy_product(s1, s2, n).coeffs
        right = cauchy_product(s2, s1, n).coeffs
        assert np.array_equal(left, right)

    @given(dyadic_coeffs, dyadic_coeffs, dyadic_coeffs)
    @settings(deadline=None, max_examples=40)
    def test_associative_exact_on_dyadic_grid(self, xs, ys, zs):
        s1 = CoefficientSeries(np.array(xs))
        s2 = CoefficientSeries(np.array(ys))
        s3 = CoefficientSeries(np.array(zs))
        n = min(4, s1.order, s2.order, s3.order)
        left = cauchy_product(cauchy_product(s1, s2, n), s3, n).coeffs
        right = cauchy_product(s1, cauchy_product(s2, s3, n), n).coeffs
        assert np.array_equal(left, right)

    @given(general_coeffs, general_coeffs)
    # coefficient 1 cancels to -1.875e-06, and np.convolve rounds it
    # 3.7e-12 apart (relative) with the operands swapped
    @example(xs=[0.99999, 0.1875, 0.0], ys=[-1.0, 0.1875, 0.0])
    @settings(deadline=None, max_examples=60)
    def test_commutative_to_rounding_on_general_floats(self, xs, ys):
        s1 = CoefficientSeries(np.array(xs))
        s2 = CoefficientSeries(np.array(ys))
        n = min(6, s1.order, s2.order)
        left = cauchy_product(s1, s2, n).coeffs
        right = cauchy_product(s2, s1, n).coeffs
        assert np.allclose(left, right, rtol=1e-13, atol=1e-300)

    @given(general_coeffs, general_coeffs)
    @example(xs=[0.99999, 0.1875, 0.0], ys=[-1.0, 0.1875, 0.0])
    @example(xs=[0.0, 1.0], ys=[-0.0, 1.0])
    @settings(deadline=None, max_examples=60)
    def test_commutative_bit_for_bit_on_general_floats(self, xs, ys):
        s1 = CoefficientSeries(np.array(xs))
        s2 = CoefficientSeries(np.array(ys))
        n = min(6, s1.order, s2.order)
        left = cauchy_product(s1, s2, n).coeffs
        right = cauchy_product(s2, s1, n).coeffs
        assert left.tobytes() == right.tobytes()


class TestExpSeries:
    def test_exp_of_z(self):
        g = series(0.0, 1.0)
        f = exp_series(g, 3)
        assert np.allclose(f.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=1e-15)

    def test_constant_term_only(self):
        g = series(-1.5)
        f = exp_series(g, 2)
        assert np.allclose(f.coeffs, [math.exp(-1.5), 0.0, 0.0])

    def test_first_coefficient_of_singular_kernel(self):
        # g(z) = -(1 + z)/(1 - z) expanded: g_0 = -1, g_k = -2 for k >= 1.
        g = CoefficientSeries(np.array([-1.0, -2.0]))
        f = exp_series(g, 1)
        assert f.coeffs[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert f.coeffs[1] == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-15)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            exp_series(series(800.0), 1)

    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_exp_of_negation_is_reciprocal(self, gs):
        g = CoefficientSeries(np.array(gs))
        n = g.order
        f = exp_series(g, n)
        f_inv = exp_series(CoefficientSeries(-g.coeffs), n)
        prod = cauchy_product(f, f_inv, n).coeffs
        target = np.zeros(n + 1)
        target[0] = 1.0
        assert np.allclose(prod, target, atol=1e-10)
