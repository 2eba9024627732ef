"""Window-sum gap reports, closed forms against brute force, and sampling."""

import math
import re

import numpy as np
import pytest

from mgapprox import (
    CoefficientSeries,
    approximation_gap,
    best_scalar_gap,
    substream,
    sum_norm_sq,
)
from oracles import empirical_autocovariance, simulate_path

DELTA = CoefficientSeries(np.array([1.0]))
HALF = CoefficientSeries(np.array([1.0, 1.0]) / math.sqrt(2.0))


def brute_force_weights(series, n):
    """Innovation weights of X_0 + .. + X_{n-1} by direct accumulation."""
    big_n = series.order
    w = {}
    for j in range(n):
        for m in range(big_n + 1):
            t = j - m
            w[t] = w.get(t, 0.0) + series.coeffs[m]
    return w


class TestSumNormClosedForms:
    def test_delta_series_gives_n(self):
        for n in (1, 2, 7, 40):
            assert sum_norm_sq(DELTA, n) == float(n)

    def test_two_tap_series_gives_2n_minus_1(self):
        for n in range(1, 65):
            assert sum_norm_sq(HALF, n) == pytest.approx(2.0 * n - 1.0, rel=1e-14)

    def test_window_length_validation(self):
        with pytest.raises(ValueError):
            sum_norm_sq(DELTA, 0)

    def test_matches_brute_force(self):
        rng = substream(99, 0)
        for _ in range(10):
            order = int(rng.integers(0, 9))
            s = CoefficientSeries(rng.normal(size=order + 1))
            n = int(rng.integers(1, 33))
            w = brute_force_weights(s, n)
            direct = sum(v * v for v in w.values())
            assert sum_norm_sq(s, n) == pytest.approx(direct, rel=1e-10)


class TestGapReports:
    def test_delta_at_unit_scalar_closes_the_gap(self):
        for n in (1, 3, 10, 100):
            rep = approximation_gap(DELTA, 1.0, n)
            assert rep.gap_sq == 0.0
            assert rep.c_star == 1.0
            assert rep.min_gap_sq == 0.0

    def test_overflowing_scalar_rejected(self):
        assert math.isfinite(approximation_gap(DELTA, 1e154, 5).gap_sq)
        for c in (1e308, -1e200):
            with pytest.raises(ValueError, match=re.escape(f"not finite for c={c!r} at n=5")):
                approximation_gap(DELTA, c, 5)

    def test_two_tap_closed_forms(self):
        for n in (1, 2, 5, 50):
            rep = best_scalar_gap(HALF, n)
            cross = 1.0 / math.sqrt(2.0) + (n - 1) * math.sqrt(2.0)
            assert rep.cross == pytest.approx(cross, rel=1e-14)
            assert rep.c_star == pytest.approx(cross / n, rel=1e-14)
            assert rep.min_gap_sq == pytest.approx(
                (2.0 * n - 1.0) / n - (cross / n) ** 2, rel=1e-12, abs=1e-14
            )

    def test_gap_matches_brute_force_expansion(self):
        # Direct expansion over innovation weights, including the -c e_j part.
        rng = substream(2024, 0)
        for _ in range(20):
            order = int(rng.integers(0, 9))
            s = CoefficientSeries(rng.normal(size=order + 1))
            n = int(rng.integers(1, 33))
            c = float(rng.normal())
            w = brute_force_weights(s, n)
            direct = sum(
                (v - (c if 0 <= t < n else 0.0)) ** 2 for t, v in w.items()
            ) / n
            rep = approximation_gap(s, c, n)
            assert rep.gap_sq == pytest.approx(direct, rel=1e-10, abs=1e-12)
            assert rep.min_gap_sq == pytest.approx(
                rep.sum_norm_sq / n - rep.c_star**2, rel=1e-12, abs=1e-14
            )

    def test_quadratic_structure_around_minimizer(self):
        rng = substream(7, 1)
        s = CoefficientSeries(rng.normal(size=5))
        n = 17
        base = best_scalar_gap(s, n)
        for c in (-2.0, -0.5, base.c_star, 0.9, 3.0):
            rep = approximation_gap(s, c, n)
            assert rep.gap_sq - base.min_gap_sq == pytest.approx(
                (c - base.c_star) ** 2, rel=1e-12, abs=1e-12
            )
            if c != base.c_star:
                assert rep.gap_sq > base.min_gap_sq

    def test_certified_series_uses_exact_window_norm(self, unit_singular_series):
        n = 10**4
        rep = approximation_gap(unit_singular_series, 0.0, n)
        assert rep.sum_norm_sq == float(n)
        assert rep.gap_sq == 1.0

    def test_certified_gap_dominates_orthonormal_floor(self, unit_singular_series):
        for c in (-1.5, -0.3, 0.0, 0.4, 1.0, 2.0):
            rep = approximation_gap(unit_singular_series, c, 10**4)
            assert rep.gap_sq >= (1.0 - abs(c)) ** 2

    def test_unit_scalar_gap_near_two(self, unit_singular_series):
        rep = approximation_gap(unit_singular_series, 1.0, 10**4)
        assert 1.9 <= rep.gap_sq <= 2.1

    def test_uncertified_prefix_norm_is_what_sampling_sees(self):
        # Strip the certificate: the report must then match the stored-kernel
        # window norm, which is the quantity simulation reproduces.
        s = CoefficientSeries(np.array([0.6, -0.3, 0.1]))
        rep = best_scalar_gap(s, 12)
        assert rep.sum_norm_sq == pytest.approx(sum_norm_sq(s, 12), rel=1e-15)


class TestSimulatePath:
    def test_deterministic_per_seed_and_replicate(self):
        a = simulate_path(HALF.coeffs, 64, 5, replicate=3)
        b = simulate_path(HALF.coeffs, 64, 5, replicate=3)
        c = simulate_path(HALF.coeffs, 64, 5, replicate=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("rademacher", [False, True])
    def test_delta_path_reproduces_innovations(self, rademacher):
        rng = substream(11, 2)
        draws = rng.integers(0, 2, size=32) * 2.0 - 1.0 if rademacher else rng.standard_normal(32)
        path = simulate_path(DELTA.coeffs, 32, 11, 2, rademacher=rademacher)
        assert np.array_equal(path, draws)

    def test_rademacher_values(self):
        path = simulate_path(DELTA.coeffs, 256, 1, rademacher=True)
        assert set(np.unique(path)) == {-1.0, 1.0}

    @pytest.mark.parametrize("rademacher", [False, True])
    def test_valid_convolution_matches_the_full_slice(self, rademacher):
        # the full convolution of the drawn innovations, sliced from the
        # first lag with the whole window drawn, is the oracle
        coeffs = np.random.default_rng(5).standard_normal(51)
        order = coeffs.size - 1
        for n in (1, 2, 37):
            rng = substream(9, 2)
            size = order + n
            if rademacher:
                draws = rng.integers(0, 2, size=size) * 2.0 - 1.0
            else:
                draws = rng.standard_normal(size)
            path = simulate_path(coeffs, n, 9, 2, rademacher=rademacher)
            assert np.array_equal(path, np.convolve(draws, coeffs)[order : order + n])

    def test_window_variance_matches_stored_kernel(self, unit_singular_series):
        # 200 replicates put the MC estimate within a few percent of the
        # stored-prefix window norm (frozen run at this seed: -6.7%).
        n = 10**3
        coeffs = unit_singular_series.coeffs
        sums = np.array(
            [simulate_path(coeffs, n, 11, r, rademacher=True).sum() for r in range(200)]
        )
        exact = sum_norm_sq(unit_singular_series, n)
        assert abs(np.var(sums) - exact) <= 0.15 * exact


class TestEmpiricalAutocovariance:
    def test_hand_values(self):
        path = np.array([1.0, 2.0, 3.0])
        assert empirical_autocovariance(path, 0) == pytest.approx(2.0 / 3.0)
        assert empirical_autocovariance(path, 1) == pytest.approx(0.0)
        assert empirical_autocovariance(path, 2) == pytest.approx(-1.0 / 3.0)

    def test_constant_path(self):
        # dyadic constant keeps the sample mean exact
        path = np.full(10, 4.5)
        assert empirical_autocovariance(path, 0) == 0.0
        assert empirical_autocovariance(path, 3) == 0.0

    def test_iid_unit_variance(self):
        path = simulate_path(DELTA.coeffs, 4096, 3, rademacher=True)
        assert empirical_autocovariance(path, 0) == pytest.approx(1.0, abs=0.05)

    def test_near_white_sample_spectrum(self, unit_singular_series):
        # The underlying process is white; sampling the truncated kernel
        # keeps lag-k covariances within sampling noise plus tail leakage.
        n = 10**4
        path = simulate_path(unit_singular_series.coeffs, n, 0)
        tol = 3.0 / math.sqrt(n) + 2.0 * math.sqrt(
            unit_singular_series.tail_mass_bound
        )
        for k in range(1, 11):
            assert abs(empirical_autocovariance(path, k)) <= tol
