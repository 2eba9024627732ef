"""Layered spike construction: synthesis, residual norms, tables, codec."""

import decimal
import itertools
import math
import re
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from mgapprox import (
    FIRE_LOG_FLOOR,
    InvariantViolation,
    LayerCodec,
    LayerParams,
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
from mgapprox.layered_process import _tail_inverse_squares, _working_dps

DECADES = tuple(10**j for j in range(7))
OUTCOMES = list(itertools.product((-1, 0, 1), repeat=2))


def forced_firings(level_count):
    """Sign vectors that force each level in turn to each of its eight
    non-silent outcomes, twice, while every other level draws uniformly
    from all nine (seeded by the level count)."""
    firing = [pair for pair in OUTCOMES if pair != (0, 0)]
    rng = np.random.default_rng(level_count)
    for level in range(level_count):
        for pair in firing:
            for _ in range(2):
                combo = [OUTCOMES[i] for i in rng.integers(0, 9, size=level_count)]
                combo[level] = pair
                yield tuple(sx for sx, _ in combo), tuple(sy for _, sy in combo)


class TestSynthesis:
    def test_frozen_horizons_at_eight_levels(self, layer_params_k8):
        assert layer_params_k8.phi.tolist() == [13, 14, 15, 16, 17, 23, 40, 68]

    def test_rho_stays_below_a_tenth(self, layer_params_k8):
        assert np.all(layer_params_k8.rho < 0.1)
        assert np.allclose(
            8.0 * layer_params_k8.phi * layer_params_k8.rho**2, 1.0, rtol=1e-14
        )

    def test_level_two_scale_identity(self, layer_params_k4):
        # q_1 = 1 and p_1 q_1 = 1 force rho_2 p_2 q_2 = 30, i.e. q_2 = 60/rho_2.
        p = layer_params_k4
        assert p.log_q[0] == 0.0
        assert p.log_q[1] == pytest.approx(
            math.log(60.0) - math.log(p.rho[1]), rel=1e-14
        )

    def test_recursion_replayed_in_plain_floats(self, layer_params_k4):
        # Magnitudes at four levels stay far from the binary64 limits, so the
        # log-space recursion can be cross-checked directly.
        pr = layer_params_k4
        q = np.exp(pr.log_q)
        p = pr.p
        for lvl in range(1, 4):
            total = float(np.sum(p[: lvl] * q[: lvl]))
            assert pr.rho[lvl] * p[lvl] * q[lvl] == pytest.approx(
                30.0 * total, rel=1e-12
            )
        r = np.exp(pr.log_r)
        for lvl in range(4):
            assert r[lvl] == pytest.approx(
                3.0 * float(np.sum(p[: lvl + 1] * q[: lvl + 1])), rel=1e-12
            )

    def test_closed_form_matches_log_space_recursion(self, layer_params_k24):
        # Replay the defining recursion level by level in log space, where
        # plain floats would overflow; the synthesis uses the closed form.
        pr = layer_params_k24
        cum = 0.0  # log sum_{k<=1} p_k q_k
        for lvl in range(1, pr.level_count):
            log_q = math.log(30.0) + cum - math.log(pr.rho[lvl]) - math.log(pr.p[lvl])
            log_s = math.log(pr.p[lvl]) + log_q
            cum = float(np.logaddexp(cum, log_s))
            assert pr.log_q[lvl] == pytest.approx(log_q, rel=1e-14)
            assert pr.log_s[lvl] == pytest.approx(log_s, rel=1e-14)
            assert pr.log_r[lvl] == pytest.approx(math.log(3.0) + cum, rel=1e-14)

    def test_scale_separation(self, layer_params_k8):
        pr = layer_params_k8
        gaps = pr.log_s[1:] - pr.log_r[:-1]
        assert np.all(gaps > math.log(100.0))

    def test_tail_condition_at_each_horizon(self, layer_params_k8):
        pr = layer_params_k8
        for j in range(1, 9):
            tail = math.pi**2 / 6.0 - math.fsum(1.0 / k**2 for k in range(1, j + 1))
            assert 2.0 * tail > pr.b_at_phi[j - 1] ** 2

    def test_tail_matches_the_mpmath_trigamma(self):
        mismatched = [
            j for j in range(1, 3001) if _tail_inverse_squares(j) != float(mpmath.psi(1, j + 1))
        ]
        assert mismatched == []

    def test_level_count_validation(self):
        with pytest.raises(ValueError):
            synthesize_layer_params(inv_sqrt_log_rule(), 1)

    def test_search_cap_reported(self):
        # 16/log(n+3) < 2 trigamma(2) needs n ~ 2.4e5, beyond this cap.
        slow = lambda n: 4.0 / math.sqrt(math.log(n + 3))
        with pytest.raises(ValueError, match="search cap"):
            synthesize_layer_params(slow, 2, search_cap=1000)

    @pytest.mark.parametrize("level_count, search_cap", [(5, 16), (2, 0)])
    def test_search_cap_holds_at_the_start_horizon(self, level_count, search_cap):
        # the uncapped horizons start 13, 14, 15, 16, 17: a cap of 16 cuts
        # the fifth, a cap of 0 the first
        with pytest.raises(ValueError, match="search cap"):
            synthesize_layer_params(inv_sqrt_log_rule(), level_count, search_cap=search_cap)

    def test_power_rule_floor(self):
        pr = synthesize_layer_params(power_rule(0.25), 3)
        # b^2 = n^-0.5 is already below 2 trigamma(j+1) at the minimum
        # admissible horizons, so phi is consecutive from 13.
        assert pr.phi.tolist() == [13, 14, 15]

    def test_power_rule_validation(self):
        with pytest.raises(ValueError):
            power_rule(0.0)

    def test_params_shape_validation(self):
        cases = [
            (np.arange(13, 17), np.full(3, 0.1)),  # lengths differ
            (np.arange(13, 17).reshape(2, 2), np.full((2, 2), 0.1)),
            (np.array([], dtype=np.int64), np.array([])),
            (np.array([13.0, 14.0]), np.full(2, 0.1)),  # horizons are integers
        ]
        for phi, b_at_phi in cases:
            with pytest.raises(ValueError, match="phi"):
                LayerParams(phi=phi, b_at_phi=b_at_phi)

    @pytest.mark.parametrize("phi, b_at_phi, message", [
        ([12, 14, 15], [0.1, 0.1, 0.1], "at least 13"),
        ([13, 15, 15], [0.1, 0.1, 0.1], "increase strictly"),
        ([13, 15, 14], [0.1, 0.1, 0.1], "increase strictly"),
        ([13, 14, 15], [0.1, 0.9, 0.1], "tail condition fails at level 2"),
        ([13, 14, 15], [0.1, 0.1, math.nan], "tail condition fails at level 3"),
    ], ids=["below-13", "repeated", "decreasing", "tail", "nan-floor"])
    def test_bad_ladder_rejected_at_construction(self, phi, b_at_phi, message):
        with pytest.raises(InvariantViolation, match=message):
            LayerParams(phi=np.array(phi), b_at_phi=np.array(b_at_phi))

    def test_scales_derived_from_phi(self, layer_params_k8):
        pr = layer_params_k8
        assert [f.name for f in fields(pr) if f.init] == ["phi", "b_at_phi"]
        rebuilt = LayerParams(phi=pr.phi.tolist(), b_at_phi=pr.b_at_phi.tolist())
        for name in ("phi", "b_at_phi", "p", "rho", "log_q", "log_r", "log_s"):
            assert np.array_equal(getattr(rebuilt, name), getattr(pr, name))
        shifted = replace(pr, phi=pr.phi + 1)  # every scale follows the new ladder
        assert np.array_equal(shifted.rho, 1.0 / np.sqrt(8.0 * (pr.phi + 1.0)))
        assert np.all(shifted.log_s[1:] > pr.log_s[1:])


class TestResidualNorms:
    def test_lagged_stays_below_horizon_everywhere(self, layer_params_k8):
        for n in DECADES:
            assert residual_norm_sq_lagged(layer_params_k8, n) <= float(n)

    def test_lagged_normalized_below_one(self, layer_params_k8):
        # The absolute bound pi^2/24 ~ 0.411 is what makes the normalized
        # residual vanish rather than merely stay bounded.
        values = [
            residual_norm_sq_lagged(layer_params_k8, n) / n for n in DECADES
        ]
        assert max(values) < 1.0
        assert values[-1] < 1e-5

    def test_lagged_saturates_past_the_last_horizon(self, layer_params_k8):
        # Each saturated level contributes 2 p^2 rho^2 phi = p^2/4 and the
        # tail cap completes the series: the ceiling is zeta(2)/4 exactly.
        cap = residual_norm_sq_lagged(layer_params_k8, 100)
        assert residual_norm_sq_lagged(layer_params_k8, 10**6) == cap
        assert cap == pytest.approx(math.pi**2 / 24.0, rel=1e-12)

    def test_natural_floor_at_each_horizon(self, layer_params_k8):
        pr = layer_params_k8
        for j in range(8):
            n = int(pr.phi[j])
            floor = n * pr.b_at_phi[j] ** 2
            assert residual_norm_sq_natural(pr, n) >= floor

    def test_natural_linear_before_first_horizon(self, layer_params_k8):
        one = residual_norm_sq_natural(layer_params_k8, 1)
        two = residual_norm_sq_natural(layer_params_k8, 2)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_natural_dominates_lagged(self, layer_params_k8):
        # (1 + rho)^2 > rho^2 termwise and the tail floor exceeds the cap.
        for n in DECADES:
            assert residual_norm_sq_natural(
                layer_params_k8, n
            ) > residual_norm_sq_lagged(layer_params_k8, n)

    def test_horizon_validation(self, layer_params_k4):
        with pytest.raises(ValueError):
            residual_norm_sq_lagged(layer_params_k4, 0)
        with pytest.raises(ValueError):
            residual_norm_sq_natural(layer_params_k4, 0)


class TestDecodingTables:
    def test_level_one_degenerates_to_points(self, layer_params_k4):
        table = decoding_table(layer_params_k4, 1)
        assert table.half_width == 0.0
        assert len(table.cells) == 9

    def test_outcomes_lexicographic(self, layer_params_k4):
        table = decoding_table(layer_params_k4, 2)
        expected = list(itertools.product((-1, 0, 1), repeat=2))
        assert [cell.outcome for cell in table.cells] == expected

    def test_centers_match_closed_form(self, layer_params_k4):
        pr = layer_params_k4
        for level in (2, 3):
            table = decoding_table(pr, level)
            s = math.exp(pr.log_s[level - 1])
            rho = pr.rho[level - 1]
            for cell in table.cells:
                sx, sy = cell.outcome
                want = s * (rho * sx - (1.0 + rho) * sy)
                assert cell.value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_tables_match_the_mpmath_construction(self, layer_params_k24):
        # the mpf centers the decimal builder replaced, at the same precision
        pr = layer_params_k24
        tables = [decoding_table(pr, level) for level in range(1, pr.level_count + 1)]
        with mpmath.workdps(_working_dps(pr)):
            for level, table in enumerate(tables, 1):
                rho = mpmath.mpf(float(pr.rho[level - 1]))
                s = mpmath.exp(float(pr.log_s[level - 1]))
                half = mpmath.exp(float(pr.log_r[level - 2])) if level >= 2 else mpmath.mpf(0)
                lag, lead = rho * s, (1 + rho) * s
                for cell, (sx, sy) in zip(table.cells, OUTCOMES, strict=True):
                    center = sx * lag - sy * lead
                    assert cell.outcome == (sx, sy)
                    assert cell.value == float(center)
                    assert cell.sign == int(mpmath.sign(center))
                    assert cell.log_abs == float(mpmath.log(abs(center)))
                assert table.half_width == float(half)
                assert table.log_half_width == float(mpmath.log(half))

    def test_intervals_disjoint_in_floats(self, layer_params_k4):
        pr = layer_params_k4
        for level in (2, 3, 4):
            table = decoding_table(pr, level)
            vals = sorted(cell.value for cell in table.cells)
            for lo, hi in zip(vals, vals[1:]):
                assert hi - lo >= 2.0 * table.half_width

    def test_half_width_is_lower_reach(self, layer_params_k4):
        pr = layer_params_k4
        table = decoding_table(pr, 3)
        assert table.half_width == pytest.approx(math.exp(pr.log_r[1]), rel=1e-15)

    def test_level_validation(self, layer_params_k4):
        with pytest.raises(ValueError):
            decoding_table(layer_params_k4, 0)
        with pytest.raises(ValueError):
            decoding_table(layer_params_k4, 5)

    def test_tampered_scales_rejected(self, layer_params_k4):
        # the tables and the codec read scales derived from phi; no copy that
        # disagrees with them can be built or written
        pr = layer_params_k4
        with pytest.raises(ValueError, match="init=False"):
            replace(pr, log_r=pr.log_r + 50.0)
        with pytest.raises(ValueError, match="read-only"):
            pr.log_s[1] += 1e-6


class TestLayerCodec:
    def test_exhaustive_round_trip_four_levels(self, layer_params_k4):
        codec = LayerCodec(layer_params_k4)
        outcomes = tuple(itertools.product((-1, 0, 1), repeat=2))
        count = 0
        for combo in itertools.product(outcomes, repeat=4):
            xs = tuple(sx for sx, _ in combo)
            ys = tuple(sy for _, sy in combo)
            out = codec.decode(codec.encode(xs, ys))
            assert out.ok and out.x_signs == xs and out.y_signs == ys
            count += 1
        assert count == 9**4

    def test_silent_sample_is_exact_zero(self, layer_params_k4):
        codec = LayerCodec(layer_params_k4)
        zero = (0, 0, 0, 0)
        assert codec.encode(zero, zero) == 0
        out = codec.decode(0.0)
        assert out.ok and out.x_signs == zero and out.y_signs == zero

    def test_encode_validation(self, layer_params_k4):
        codec = LayerCodec(layer_params_k4)
        with pytest.raises(ValueError):
            codec.encode((0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            codec.encode((0, 0, 0, 2), (0, 0, 0, 0))

    def test_boundary_hit_reported(self, layer_params_k4):
        codec = LayerCodec(layer_params_k4)
        # The silent cell at the top level is centred at zero, so the
        # lower-level reach itself sits exactly on that cell's edge and the
        # decoder's distance test involves no rounding at all.
        out = codec.decode(codec._reach[2])
        assert not out.ok and out.boundary and out.fail_level == 4

    def test_unmatched_value_reported(self, layer_params_k4):
        codec = LayerCodec(layer_params_k4)
        with decimal.localcontext(decimal.Context(prec=codec.dps)):
            value = 2 * codec._reach[2]
        out = codec.decode(value)
        assert not out.ok and not out.boundary and out.fail_level == 4

    @pytest.mark.parametrize("level_count", [8, 24])
    def test_every_level_round_trips_when_forced_to_fire(
        self, layer_params_k8, layer_params_k24, level_count
    ):
        # sampled draws almost never fire above level 1
        params = {8: layer_params_k8, 24: layer_params_k24}[level_count]
        codec = LayerCodec(params)
        for xs, ys in forced_firings(level_count):
            out = codec.decode(codec.encode(xs, ys))
            assert out.ok and out.x_signs == xs and out.y_signs == ys, (xs, ys)

    def test_ambient_decimal_context_does_not_leak_in(self, layer_params_k8):
        pr = layer_params_k8

        def run():
            codec = LayerCodec(pr)
            tables = [decoding_table(pr, level) for level in range(1, pr.level_count + 1)]
            trips = []
            for xs, ys in forced_firings(pr.level_count):
                value = codec.encode(xs, ys)
                trips.append((str(value), codec.decode(value)))
            tails = [_tail_inverse_squares.__wrapped__(j) for j in range(1, 9)]
            return [(t.cells, t.half_width, t.log_half_width) for t in tables], trips, tails

        expected = run()
        # any arithmetic left in this context would round, and so raise
        hostile = decimal.Context(
            prec=5, rounding=decimal.ROUND_FLOOR, traps=[decimal.Inexact, decimal.Rounded]
        )
        with decimal.localcontext(hostile):
            assert run() == expected

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, "NaN", "-Infinity", decimal.Decimal("sNaN"), "1e",
    ])
    def test_unreadable_value_rejected(self, layer_params_k4, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            LayerCodec(layer_params_k4).decode(value)

    def test_precision_scales_with_dynamic_range(self, layer_params_k4, layer_params_k8):
        assert LayerCodec(layer_params_k8).dps > LayerCodec(layer_params_k4).dps


class TestSimulateAndDecode:
    def test_seeded_round_trips(self, layer_params_k4):
        rep = simulate_and_decode(layer_params_k4, 500, seed=7)
        assert rep.samples == 500
        assert rep.failures == 0
        assert rep.boundary_hits == 0
        assert rep.recovered == 500
        assert rep.seed == 7

    def test_determinism(self, layer_params_k4):
        a = simulate_and_decode(layer_params_k4, 100, seed=3)
        b = simulate_and_decode(layer_params_k4, 100, seed=3)
        assert a == b

    def test_fire_rates_fall_with_level(self, layer_params_k4):
        # fire probability 1/q_l^2: ~1 at level 1, ~2.5e-6 at level 2.
        rep = simulate_and_decode(layer_params_k4, 300, seed=0)
        assert rep.nonzero_draws[0] > 200
        assert rep.nonzero_draws[2] == 0 and rep.nonzero_draws[3] == 0
        assert rep.suppressed_levels == ()
        assert rep.miss_probability == 0.0

    def test_unreachable_levels_suppressed(self, layer_params_k8):
        fire_log = -2.0 * layer_params_k8.log_q
        expected = tuple(
            lvl + 1 for lvl in range(8) if fire_log[lvl] < FIRE_LOG_FLOOR
        )
        rep = simulate_and_decode(layer_params_k8, 20, seed=1)
        assert rep.suppressed_levels == expected == (5, 6, 7, 8)
        assert 0.0 < rep.miss_probability < 1e-20
        assert rep.failures == 0

    def test_sample_count_validation(self, layer_params_k4):
        with pytest.raises(ValueError):
            simulate_and_decode(layer_params_k4, 0)


class TestLevelOneVariance:
    def test_exact_value_saturates_at_quarter(self, layer_params_k4):
        # p_1 = 1, rho_1^2 = 1/104, phi(1) = 13: 2 * 13/104 = 1/4 exactly.
        assert level_one_window_variance(layer_params_k4, 64) == 0.25
        assert level_one_window_variance(layer_params_k4, 13) == 0.25

    def test_exact_value_below_saturation(self, layer_params_k4):
        want = 2.0 * 5.0 / 104.0
        assert level_one_window_variance(layer_params_k4, 5) == pytest.approx(
            want, rel=1e-15
        )

    def test_monte_carlo_agreement(self, layer_params_k4):
        exact = level_one_window_variance(layer_params_k4, 64)
        mc = simulate_level_one_variance(layer_params_k4, 64, 10**4, seed=0)
        assert abs(mc - exact) <= 0.1 * exact

    def test_validation(self, layer_params_k4):
        with pytest.raises(ValueError):
            level_one_window_variance(layer_params_k4, 0)
        with pytest.raises(ValueError):
            simulate_level_one_variance(layer_params_k4, 4, 0)
