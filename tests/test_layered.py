"""Layered spike construction: synthesis, residual norms, tables, codec."""

import decimal
import itertools
import math
import re
from dataclasses import fields, replace
from functools import cache
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgapprox import (
    FIRE_LOG_FLOOR,
    DecodedSample,
    DecodeReport,
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
    substream,
    synthesize_layer_params,
)
import mgapprox.layered_process
import mgapprox.rng
from mgapprox.layered_process import (
    _TAILS,
    _smallest_horizon,
    _tail_inverse_squares,
    _working_dps,
)

DECADES = tuple(10**j for j in range(7))
OUTCOMES = list(itertools.product((-1, 0, 1), repeat=2))


def _step_rule(drops):
    """A non-increasing floor with steps: b(m) = 1/(1 + the drops at or below m)."""
    return lambda m: 1.0 / (1 + sum(d <= m for d in drops))


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

    def test_horizon_past_int64_names_the_level(self):
        # with the cap out of the way, level 87 of the invsqrtlog ladder
        # needs a horizon of about 1.0e19, which phi cannot store
        with pytest.raises(ValueError, match=r"level 87 .* limit 2\*\*63 - 1"):
            synthesize_layer_params(inv_sqrt_log_rule(), 90, search_cap=10**20)
        # a level count past the level ceiling ends before any search
        with pytest.raises(ValueError, match="levels exceed 100"):
            synthesize_layer_params(inv_sqrt_log_rule(), 10**400, search_cap=10**20)
        top = synthesize_layer_params(inv_sqrt_log_rule(), 86, search_cap=10**20).phi[-1]
        assert 2**62 < top < 2**63

    def test_search_cap_past_the_float_range(self):
        # level 2 of power:1e-4 needs a horizon of about 1e511; the probe
        # used to end in an OverflowError converting it to a float
        with pytest.raises(ValueError, match=r"level 2 needs the horizon .* limit 2\*\*63 - 1"):
            synthesize_layer_params(power_rule(1e-4), 2, 10**600)

    def test_search_stops_at_int64_without_moving_a_horizon(self):
        ladder = synthesize_layer_params(inv_sqrt_log_rule(), 86, search_cap=10**600).phi
        assert ladder.tolist() == synthesize_layer_params(
            inv_sqrt_log_rule(), 86, search_cap=2**63 - 1).phi.tolist()

    def test_search_cap_past_int64_never_evaluates_the_floor_there(self):
        # b(2**63 - 1) = 2**(-63 * 20) underflows to 0.0, which the search
        # rejects; the ladder 13, 14, 15 never needs the floor out there
        ladder = synthesize_layer_params(power_rule(20.0), 3, search_cap=10**20).phi
        assert ladder.tolist() == synthesize_layer_params(power_rule(20.0), 3).phi.tolist()

    def test_level_ceiling(self):
        # checked before any horizon is searched, so the slow rule never runs
        assert synthesize_layer_params(power_rule(10.0), 100).level_count == 100
        never = lambda n: pytest.fail("a horizon was searched")
        with pytest.raises(ValueError, match="101 levels exceed 100, the most supported"):
            synthesize_layer_params(never, 101)

    @settings(max_examples=300, deadline=None)
    @given(drops=st.lists(st.integers(1, 70), max_size=5), start=st.integers(1, 70),
           cap=st.integers(0, 70), target=st.floats(0.01, 1.5))
    @example(drops=[], start=5, cap=5, target=0.5)  # start at the cap
    @example(drops=[], start=6, cap=5, target=0.5)  # start past the cap
    @example(drops=[], start=3, cap=9, target=0.5)  # decays too slowly
    @example(drops=[4], start=2, cap=9, target=0.5)  # the answer sits just past a probe
    def test_smallest_horizon_is_the_first_of_a_scan(self, drops, start, cap, target):
        rule = _step_rule(drops)
        first = next((m for m in range(start, cap + 1) if rule(m) ** 2 < target), None)
        assert _smallest_horizon(rule, target, start, cap) == first

    @settings(max_examples=200, deadline=None)
    @given(drops=st.lists(st.integers(1, 90), max_size=5), level_count=st.integers(2, 12),
           cap=st.integers(0, 90))
    @example(drops=[], level_count=2, cap=5)  # level 1 starts past the cap
    @example(drops=[], level_count=2, cap=13)  # level 2 starts past the cap
    @example(drops=[], level_count=2, cap=20)  # decays too slowly
    def test_synthesis_words_the_cap_messages(self, drops, level_count, cap):
        # the ladder of a scan from 13, or the message for the first level
        # whose scan finds nothing at or below the cap
        rule = _step_rule(drops)
        phi = []
        for j in range(1, level_count + 1):
            start = phi[-1] + 1 if phi else 13
            target = 2.0 * _tail_inverse_squares(j)
            first = next((m for m in range(start, cap + 1) if rule(m) ** 2 < target), None)
            if first is None:
                message = f"no admissible horizon at or below the search cap {cap}"
                if start < cap:
                    message += "; the floor sequence decays too slowly"
                with pytest.raises(ValueError) as info:
                    synthesize_layer_params(rule, level_count, cap)
                assert str(info.value) == message
                return
            phi.append(first)
        assert synthesize_layer_params(rule, level_count, cap).phi.tolist() == phi

    def test_power_rule_floor(self):
        pr = synthesize_layer_params(power_rule(0.25), 3)
        # b^2 = n^-0.5 is already below 2 trigamma(j+1) at the minimum
        # admissible horizons, so phi is consecutive from 13.
        assert pr.phi.tolist() == [13, 14, 15]

    def test_floor_underflow_names_the_horizon(self):
        # power:400 lies in the domain, but 13.0 ** -400 underflows to 0.0
        with pytest.raises(ValueError, match=r"strictly positive; b\(13\) = 0\.0$"):
            synthesize_layer_params(power_rule(400.0), 2)

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
    def test_level_one_radius_is_a_quarter_of_rho(self, layer_params_k4):
        # level 1 has no lower levels; its centers lie rho_1 apart
        centers, half = decoding_table(layer_params_k4, 1)
        with decimal.localcontext(decimal.Context(prec=_working_dps(layer_params_k4))):
            assert half == decimal.Decimal(float(layer_params_k4.rho[0])) / 4
        assert len(centers) == 9

    def test_outcomes_lexicographic(self, layer_params_k4):
        centers, _ = decoding_table(layer_params_k4, 2)
        assert list(centers) == OUTCOMES

    def test_centers_match_closed_form(self, layer_params_k4):
        pr = layer_params_k4
        for level in (2, 3):
            centers, _ = decoding_table(pr, level)
            s = math.exp(pr.log_s[level - 1])
            rho = pr.rho[level - 1]
            for (sx, sy), center in centers.items():
                want = s * (rho * sx - (1.0 + rho) * sy)
                assert float(center) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_tables_match_the_mpmath_construction(self, layer_params_k24):
        # the mpf centers the decimal builder replaced, at the same precision
        pr = layer_params_k24
        tables = [decoding_table(pr, level) for level in range(1, pr.level_count + 1)]
        with mpmath.workdps(_working_dps(pr)):
            for level, (centers, half) in enumerate(tables, 1):
                rho = mpmath.mpf(float(pr.rho[level - 1]))
                s = mpmath.exp(float(pr.log_s[level - 1]))
                radius = mpmath.exp(float(pr.log_r[level - 2])) if level >= 2 else rho / 4
                lag, lead = rho * s, (1 + rho) * s
                for (outcome, center), (sx, sy) in zip(centers.items(), OUTCOMES, strict=True):
                    assert outcome == (sx, sy)
                    assert float(center) == float(sx * lag - sy * lead)
                assert float(half) == float(radius)

    def test_intervals_disjoint_in_floats(self, layer_params_k4):
        pr = layer_params_k4
        for level in (1, 2, 3, 4):
            centers, half = decoding_table(pr, level)
            vals = sorted(map(float, centers.values()))
            for lo, hi in zip(vals, vals[1:]):
                assert hi - lo >= 2.0 * float(half)

    def test_half_width_is_lower_reach(self, layer_params_k4):
        pr = layer_params_k4
        _, half = decoding_table(pr, 3)
        assert float(half) == pytest.approx(math.exp(pr.log_r[1]), rel=1e-15)

    def test_level_validation(self, layer_params_k4):
        with pytest.raises(ValueError, match=re.escape("level must lie in [1, 4]")):
            decoding_table(layer_params_k4, 0)
        with pytest.raises(ValueError, match=re.escape("level must lie in [1, 4]")):
            decoding_table(layer_params_k4, 5)

    @pytest.mark.parametrize("level, name, shift", [(1, "rho", 0.8), (2, "log_r", 50.0)])
    def test_overlapping_intervals_rejected(self, layer_params_k4, level, name, shift):
        # LayerParams derives its scales and cannot hold these, so a stand-in
        # carries them: with rho_1 near 0.9, level 1's gap 1 - rho_1 lies
        # below 2 (rho_1/4), and a reach e^50 times r_1 is wider than level
        # 2's spacing of 10 r_1
        pr = layer_params_k4
        scales = {key: getattr(pr, key) for key in ("level_count", "rho", "log_s", "log_r")}
        scales[name] = scales[name] + shift
        with pytest.raises(InvariantViolation, match=f"intervals overlap at level {level}: "):
            decoding_table(SimpleNamespace(**scales), level)

    @pytest.mark.parametrize("level_count", [4, 8, 24])
    def test_codec_decodes_with_the_tables(self, layer_params_k4, layer_params_k8,
                                           layer_params_k24, level_count):
        pr = {4: layer_params_k4, 8: layer_params_k8, 24: layer_params_k24}[level_count]
        codec = LayerCodec(pr)
        tables = [decoding_table(pr, level) for level in range(1, level_count + 1)]
        assert list(zip(codec._centers, codec._half, strict=True)) == tables

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

    @pytest.mark.parametrize("level_count", [2, 8, 24])
    def test_every_live_pattern_round_trips(self, layer_params_k8, layer_params_k24,
                                            level_count):
        """At most four levels are live, so every outcome pattern of the live
        levels, the suppressed ones that simulate_and_decode reports held at
        zero, round-trips: a finite statement, checked outright."""
        params = {2: synthesize_layer_params(inv_sqrt_log_rule(), 2), 8: layer_params_k8,
                  24: layer_params_k24}[level_count]
        suppressed = simulate_and_decode(params, 1).suppressed_levels
        live = [level for level in range(level_count) if level + 1 not in suppressed]
        assert live == list(range(min(level_count, 4)))
        codec = LayerCodec(params)
        count = 0
        for combo in itertools.product(OUTCOMES, repeat=len(live)):
            xs, ys = [0] * level_count, [0] * level_count
            for level, (sx, sy) in zip(live, combo):
                xs[level], ys[level] = sx, sy
            out = codec.decode(codec.encode(xs, ys))
            assert out.ok and out.x_signs == tuple(xs) and out.y_signs == tuple(ys), (xs, ys)
            count += 1
        assert count == 9 ** len(live)

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
        out = codec.decode(codec._half[3])
        assert not out.ok and out.boundary and out.fail_level == 4

    def test_unmatched_value_reported(self, layer_params_k4):
        codec = LayerCodec(layer_params_k4)
        with decimal.localcontext(decimal.Context(prec=codec.dps)):
            value = 2 * codec._half[3]
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
            _TAILS.clear()  # the running table of tails is rebuilt in this context
            tails = [_tail_inverse_squares(j) for j in range(1, 9)]
            return tables, trips, tails

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

    def test_level_one_miss_reported(self, layer_params_k4):
        # halfway between the level-1 centers 0 and rho_1: every higher level
        # reads its silent cell, and level 1 matches no center within rho_1/4
        codec = LayerCodec(layer_params_k4)
        out = codec.decode(float(layer_params_k4.rho[0]) / 2)
        assert not out.ok and not out.boundary and out.fail_level == 1
        assert out.x_signs == out.y_signs == (0, 0, 0, 0)

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

    def test_sample_ceiling_refuses_before_the_codec(self, monkeypatch, layer_params_k4):
        # 10^400 samples used to draw until the process was killed
        monkeypatch.setattr("mgapprox.layered_process.LayerCodec", None)
        for samples in (10**7 + 1, 10**400):
            with pytest.raises(ValueError, match=f"{samples} samples exceed 1e\\+07"):
                simulate_and_decode(layer_params_k4, samples)


@cache
def params_for(level_count):
    return synthesize_layer_params(inv_sqrt_log_rule(), level_count)


def per_draw_oracle(params, samples, seed):
    """The per-draw reference for simulate_and_decode: one scalar uniform per
    live level and draw, one encode and decode per sample."""
    codec = LayerCodec(params)
    k = params.level_count
    fire_log = -2.0 * params.log_q
    suppressed = fire_log < FIRE_LOG_FLOOR
    fire = np.exp(fire_log)
    if np.any(suppressed):
        miss = -float(math.expm1(2.0 * np.sum(np.log1p(-np.exp(fire_log[suppressed])))))
    else:
        miss = 0.0
    recovered = failures = boundary = 0
    nonzero = [0] * k
    for i in range(samples):
        rng = substream(seed, i)
        xs = [0] * k
        ys = [0] * k
        for lvl in np.flatnonzero(~suppressed):
            for bucket in (xs, ys):
                u = rng.random()
                if u < 0.5 * fire[lvl]:
                    bucket[lvl] = -1
                elif u < fire[lvl]:
                    bucket[lvl] = 1
            nonzero[lvl] += (xs[lvl] != 0) + (ys[lvl] != 0)
        out = codec.decode(codec.encode(xs, ys))
        if out.boundary:
            boundary += 1
        elif out.ok and out.x_signs == tuple(xs) and out.y_signs == tuple(ys):
            recovered += 1
        else:
            failures += 1
    return DecodeReport(
        samples=samples,
        recovered=recovered,
        failures=failures,
        boundary_hits=boundary,
        nonzero_draws=tuple(nonzero),
        suppressed_levels=tuple(int(lvl) + 1 for lvl in np.flatnonzero(suppressed)),
        miss_probability=miss,
        seed=seed,
    )


class TestPatternTallyMatchesThePerDrawOracle:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**64 - 1), level_count=st.sampled_from([2, 4, 8]),
           samples=st.integers(1, 300))
    def test_reports_equal_field_by_field(self, seed, level_count, samples):
        params = params_for(level_count)
        tally = simulate_and_decode(params, samples, seed)
        oracle = per_draw_oracle(params, samples, seed)
        for f in fields(DecodeReport):
            assert getattr(tally, f.name) == getattr(oracle, f.name), f.name
        assert all(type(n) is int for n in tally.nonzero_draws)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_block_edges(self, monkeypatch, block):
        # samples are drawn in blocks (None: the shipped block size); the
        # tally must not see the seams
        if block is None:
            block = mgapprox.layered_process._DRAW_BLOCK
        monkeypatch.setattr(mgapprox.layered_process, "_DRAW_BLOCK", block)
        params = params_for(4)
        for samples in (block - 1, block, block + 1):
            if samples >= 1:
                tally = simulate_and_decode(params, samples, 5)
                assert tally == per_draw_oracle(params, samples, 5)

    def test_batched_draws_checked_against_substream(self, monkeypatch):
        uniforms = mgapprox.rng._uniforms
        monkeypatch.setattr(mgapprox.rng, "_uniforms",
                            lambda *args: np.nextafter(uniforms(*args), 1.0))
        with pytest.raises(InvariantViolation, match="differ from numpy"):
            simulate_and_decode(params_for(4), 10, seed=2)

    def test_boundary_and_failure_counts_are_weighted(self, monkeypatch):
        # real draws always decode; force verdicts on two level-1 patterns so
        # the count weighting of the boundary and failure branches shows
        decode = LayerCodec.decode
        decoded = []

        def forced(codec, value):
            out = decode(codec, value)
            decoded.append((out.x_signs, out.y_signs))
            pair = (out.x_signs[0], out.y_signs[0])
            if pair == (-1, 1):
                return DecodedSample(out.x_signs, out.y_signs, ok=False, boundary=True,
                                     fail_level=1)
            if pair == (1, 1):
                return DecodedSample(out.x_signs, out.y_signs, ok=False, fail_level=1)
            return out

        monkeypatch.setattr(LayerCodec, "decode", forced)
        params = params_for(4)
        tally = simulate_and_decode(params, 400, seed=11)
        distinct = list(decoded)
        oracle = per_draw_oracle(params, 400, 11)
        assert tally == oracle
        assert tally.boundary_hits > 0 and tally.failures > 0 and tally.recovered > 0
        assert tally.boundary_hits + tally.failures + tally.recovered == 400
        # q_1 = 1 fires level 1 on every draw: four patterns, decoded once each
        assert len(distinct) == len(set(distinct)) == 4
        assert len(decoded) == len(distinct) + 400


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
