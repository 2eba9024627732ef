"""Exhaustive finite model: filtrations, increment norms, digit codec."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgapprox import (
    ExactModel,
    conditional_expectation,
    conditioning_up_to,
    decode_digit_value,
    decode_digit_values,
    digit_value,
    digit_values,
    hannan_sum,
    martingale_difference_norms,
    remote_past_projection,
)
from mgapprox.cli import OUT_DIR_ENV
from oracles import with_carrier


def analytic_root_norm(depth):
    return math.sqrt(5.0 + sum(9.0 ** -(2 * i + 1) for i in range(1, depth + 1)))


def sign_rows(model):
    """The (2^V, V) sign matrix of a model, stacked from its columns."""
    return np.column_stack([model.column(label) for label in model.labels])


def assert_index_bit_layout(model):
    """Carrier j is +1 exactly on the atoms whose index has bit j set."""
    index = np.arange(model.digit.size)
    assert model.digit.size == 2 ** len(model.labels)
    for j, label in enumerate(model.labels):
        assert np.array_equal(model.column(label), np.where(index >> j & 1, 1, -1))


@pytest.fixture(scope="module")
def model3():
    return ExactModel.build(3)


class TestBuild:
    def test_carrier_inventory(self, model3):
        es = [lab for lab in model3.labels if lab[0] == "e"]
        fs = [lab for lab in model3.labels if lab[0] == "f"]
        assert es == [("e", i) for i in range(-3, 5)]
        assert fs == [("f", -1), ("f", 0)]
        assert model3.digit.shape == model3.observable.shape == (2**10,)
        assert [field.name for field in fields(ExactModel)] == [
            "depth", "labels", "digit", "observable"]

    def test_signs_enumerate_all_atoms(self, model3):
        rows = {tuple(r) for r in sign_rows(model3).tolist()}
        assert len(rows) == 2**10

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_digit_is_the_encoder_of_the_band_columns(self, depth):
        model = ExactModel.build(depth)
        band = np.column_stack([model.column(label) for label in band_of(depth)])
        assert model.digit.tobytes() == digit_values(band, depth).tobytes()

    def test_digit_range_and_mean(self, model3):
        assert np.all(model3.digit > 0.0)
        assert np.all(model3.digit < 2.0)
        assert model3.digit.mean() == pytest.approx(1.0, abs=1e-15)

    def test_observable_composition(self, model3):
        f0 = model3.column(("f", 0))
        e0 = model3.column(("e", 0))
        assert np.array_equal(model3.observable, f0 * model3.digit + 2.0 * e0)

    def test_added_carrier_keeps_the_atom_layout(self):
        # the enlarged model of the literal filtration cases
        m = with_carrier(ExactModel.build(2), ("f", 1))
        assert m.labels[-1] == ("f", 1)
        assert_index_bit_layout(m)
        assert np.array_equal(m.observable, m.column(("f", 0)) * m.digit + 2.0 * m.column(("e", 0)))

    def test_signs_follow_the_atom_index_bits(self):
        for depth in range(1, 5):
            assert_index_bit_layout(ExactModel.build(depth))

    def test_column_is_a_fresh_float_copy(self, model3):
        col = model3.column(("e", 1))
        assert col.dtype == np.float64
        col[:] = 0.0
        assert np.all(np.abs(model3.column(("e", 1))) == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactModel.build(0)
        with pytest.raises(ValueError):
            ExactModel.build(9)  # 22 carriers, past the enumeration guard
        with pytest.raises(KeyError):
            ExactModel.build(1).column(("f", 7))


class TestConditionalExpectation:
    def test_empty_conditioning_is_the_mean(self, model3):
        ce = conditional_expectation(model3, model3.digit, frozenset())
        assert np.allclose(ce, model3.digit.mean(), atol=1e-15)

    def test_full_conditioning_is_identity(self, model3):
        cond = conditioning_up_to(model3, model3.depth + 1)
        ce = conditional_expectation(model3, model3.observable, cond)
        assert np.array_equal(ce, model3.observable)

    def test_remote_conditioning_kills_the_observable(self, model3):
        ce = conditional_expectation(
            model3, model3.observable, conditioning_up_to(model3, -2)
        )
        assert np.allclose(ce, 0.0, atol=1e-14)

    def test_idempotent(self, model3):
        cond = conditioning_up_to(model3, 1)
        once = conditional_expectation(model3, model3.observable, cond)
        twice = conditional_expectation(model3, once, cond)
        assert np.allclose(once, twice, atol=1e-14)

    def test_measurable_target_passes_through(self, model3):
        f0 = model3.column(("f", 0))
        ce = conditional_expectation(model3, f0, conditioning_up_to(model3, 0))
        assert np.array_equal(ce, f0)

    def test_tower_property(self):
        # E[E[X | F_j] | F_k] = E[X | F_min(j,k)] over every filtration pair.
        for depth in (1, 2):
            m = ExactModel.build(depth)
            times = range(-2, depth + 2)
            ces = {
                k: conditional_expectation(m, m.observable, conditioning_up_to(m, k))
                for k in times
            }
            for j in times:
                for k in times:
                    nested = conditional_expectation(
                        m, ces[j], conditioning_up_to(m, k)
                    )
                    assert np.allclose(nested, ces[min(j, k)], atol=1e-12)

    def test_mean_preserved(self, model3):
        for k in (-2, 0, 2):
            ce = conditional_expectation(
                model3, model3.observable, conditioning_up_to(model3, k)
            )
            assert ce.mean() == pytest.approx(model3.observable.mean(), abs=1e-14)

    def test_validation(self, model3):
        with pytest.raises(ValueError):
            conditional_expectation(model3, np.ones(7), conditioning_up_to(model3, 0))
        with pytest.raises(KeyError):
            conditional_expectation(
                model3, model3.digit, frozenset({("g", 0)})
            )


def bincount_expectation(model, target, cond):
    """E[target | cond] by grouping atoms on the packed bits of the
    conditioning carriers, the implementation before axis means."""
    target = np.asarray(target, dtype=np.float64)
    positions = [lab for lab in model.labels if lab in cond]
    if not positions:
        return np.full_like(target, target.mean())
    bits = np.column_stack([model.column(lab) > 0 for lab in positions]).astype(np.int64)
    key = bits @ (np.int64(1) << np.arange(len(positions), dtype=np.int64))
    sums = np.bincount(key, weights=target, minlength=2 ** len(positions))
    counts = np.bincount(key, minlength=2 ** len(positions))
    return (sums / counts)[key]


_MODELS = {depth: ExactModel.build(depth) for depth in range(1, 5)}


class TestAxisMeansMatchTheBincountOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        depth=st.integers(1, 4),
        mask=st.lists(st.booleans(), min_size=12, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-300, 1.0, 1e300]),
    )
    @example(depth=4, mask=[False] * 12, seed=0, scale=1.0)
    @example(depth=4, mask=[True] * 12, seed=0, scale=1.0)
    def test_random_subsets_and_targets(self, depth, mask, seed, scale):
        m = _MODELS[depth]
        cond = frozenset(lab for lab, keep in zip(m.labels, mask) if keep)
        target = scale * np.random.default_rng(seed).standard_normal(m.digit.size)
        got = conditional_expectation(m, target, cond)
        want = bincount_expectation(m, target, cond)
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(target)))

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_filtration_steps_are_bit_identical(self, depth):
        m = ExactModel.build(depth)
        for k in range(-2, depth + 2):
            cond = conditioning_up_to(m, k)
            for target in (m.observable, m.digit):
                got = conditional_expectation(m, target, cond)
                assert got.tobytes() == bincount_expectation(m, target, cond).tobytes()

    def test_result_is_a_fresh_writable_vector(self, model3):
        for cond in (frozenset(), frozenset(model3.labels)):
            got = conditional_expectation(model3, model3.observable, cond)
            assert got.flags.writeable and not np.shares_memory(got, model3.observable)


class TestIncrementNorms:
    def test_frozen_values_at_depth_three(self, model3):
        norms = martingale_difference_norms(model3)
        expected = {
            -2: 0.0,
            -1: analytic_root_norm(3),
            0: 1.0 / 9.0,
            1: 1.0 / 81.0,
            2: 1.0 / 729.0,
            3: 0.0,
        }
        assert set(norms) == set(expected)
        for k, want in expected.items():
            assert abs(norms[k] - want) <= 1e-12

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_pattern_at_other_depths(self, depth):
        norms = martingale_difference_norms(ExactModel.build(depth))
        assert norms[-2] == pytest.approx(0.0, abs=1e-13)
        assert norms[-1] == pytest.approx(analytic_root_norm(depth), abs=1e-12)
        for k in range(depth):
            assert norms[k] == pytest.approx(9.0 ** -(k + 1), abs=1e-13)
        assert norms[depth] == pytest.approx(0.0, abs=1e-13)

    def test_increments_telescope(self, model3):
        top = conditional_expectation(
            model3, model3.observable, conditioning_up_to(model3, model3.depth + 1)
        )
        bottom = conditional_expectation(
            model3, model3.observable, conditioning_up_to(model3, -2)
        )
        total = np.zeros_like(top)
        for k in range(-2, model3.depth + 1):
            hi = conditional_expectation(
                model3, model3.observable, conditioning_up_to(model3, k + 1)
            )
            lo = conditional_expectation(
                model3, model3.observable, conditioning_up_to(model3, k)
            )
            total += hi - lo
        assert np.allclose(total, top - bottom, atol=1e-13)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_hannan_sum_closed_form(self, depth):
        # Finite norms sum to root + (1/8 - tail); adding the analytic tail
        # 9^-depth/8 restores root + 1/8 exactly at every depth.
        model = ExactModel.build(depth)
        value = hannan_sum(model)
        assert abs(value - (analytic_root_norm(depth) + 0.125)) <= 1e-12
        # the CLI passes the norms it already holds; the sum is the same float
        assert hannan_sum(model, martingale_difference_norms(model)) == value

    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_norms_match_every_expectation_held_at_once(self, depth):
        """The streamed norms are the floats of the form that holds all
        depth + 4 conditional expectations before differencing them."""
        model = ExactModel.build(depth)
        ce = {k: conditional_expectation(model, model.observable, conditioning_up_to(model, k))
              for k in range(-2, depth + 2)}
        held = {k: float(np.sqrt(np.mean((ce[k + 1] - ce[k]) ** 2))) for k in range(-2, depth + 1)}
        assert martingale_difference_norms(model) == held

    def test_norms_hold_two_expectations_at_a_time(self):
        """At depth 6 one atom vector is 2^16 floats, 0.5 MB: the norms hold
        the previous and current expectation, their difference and its
        square, 2 MB.  Holding all 10 expectations peaked at 6 MB."""
        model = ExactModel.build(6)
        tracemalloc.start()
        try:
            martingale_difference_norms(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestRemotePastProjection:
    def test_projection_is_twice_e0(self, model3):
        rep = remote_past_projection(model3)
        assert np.allclose(rep.values, 2.0 * model3.column(("e", 0)), atol=1e-12)
        assert rep.norm == pytest.approx(2.0, abs=1e-12)
        # Both candidate identifications are reported; only one holds.
        assert rep.matches_two_e0 is True
        assert rep.matches_e0 is False


@pytest.fixture(scope="module")
def enlarged():
    return with_carrier(ExactModel.build(2), ("f", 1))


def fe_product(m, i):
    return m.column(("f", 0)) * m.column(("e", i))


class TestLiteralFiltrationCases:
    """E[f_0 e_i | C_k] in a model enlarged with the carrier f_1.

    The four regimes: both factors visible, e_i invisible, f_0 invisible,
    everything invisible.  The computed value in the visible regime is
    f_0 e_i; the alternative reading f_i e_i differs on atoms, which the
    last check records.
    """

    def test_both_visible(self, enlarged):
        ce = conditional_expectation(
            enlarged, fe_product(enlarged, 1), conditioning_up_to(enlarged, 1)
        )
        assert np.allclose(ce, fe_product(enlarged, 1), atol=1e-13)

    def test_future_e_invisible(self, enlarged):
        ce = conditional_expectation(
            enlarged, fe_product(enlarged, 2), conditioning_up_to(enlarged, 1)
        )
        assert np.allclose(ce, 0.0, atol=1e-13)

    def test_f0_invisible(self, enlarged):
        ce = conditional_expectation(
            enlarged, fe_product(enlarged, -1), conditioning_up_to(enlarged, -1)
        )
        assert np.allclose(ce, 0.0, atol=1e-13)

    def test_everything_invisible(self, enlarged):
        ce = conditional_expectation(
            enlarged, fe_product(enlarged, 1), conditioning_up_to(enlarged, -2)
        )
        assert np.allclose(ce, 0.0, atol=1e-13)

    def test_alternative_identification_differs(self, enlarged):
        ce = conditional_expectation(
            enlarged, fe_product(enlarged, 1), conditioning_up_to(enlarged, 1)
        )
        alt = enlarged.column(("f", 1)) * enlarged.column(("e", 1))
        assert not np.allclose(ce, alt, atol=1e-6)


class TestDigitCodec:
    def test_round_trip_exhaustive_depth_three(self, model3):
        depth = model3.depth
        band = [("e", i) for i in [*range(1, depth + 1), *range(-depth, 0)]]
        seen = set()
        for bits in range(2 ** len(band)):
            signs = {lab: (1 if (bits >> j) & 1 else -1) for j, lab in enumerate(band)}
            value = digit_value(signs, depth)
            seen.add(value)
            assert decode_digit_value(value, depth) == signs
        assert len(seen) == 2 ** len(band)

    def test_matches_model_digit_column(self, model3):
        # Row 0 of the sign table is all -1.
        signs = {lab: -1 for lab in model3.labels if lab[0] == "e"}
        assert digit_value(signs, 3) == model3.digit[0]

    def test_unpacked_value_rejected(self):
        with pytest.raises(ValueError):
            decode_digit_value(1.0, 3)

    def test_foreign_value_never_round_trips(self):
        # a depth-2 packing read at depth 3 does not re-encode to itself
        band = [("e", i) for i in (1, 2, -1, -2)]
        value = digit_value({lab: 1 for lab in band}, 2)
        with pytest.raises(ValueError):
            decode_digit_value(value, 3)

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("value", [100.0, -3.0, 0.5, math.nan, math.inf, -math.inf])
    def test_values_outside_the_encoding_are_refused(self, value, depth):
        with pytest.raises(ValueError, match="not a packed digit"):
            decode_digit_value(value, depth)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            digit_value({("e", 1): 0, ("e", -1): 1}, 1)
        with pytest.raises(KeyError):
            digit_value({("e", 1): 1}, 1)


def oracle_digit_value(signs, depth):
    """The scalar packing loop the array codec replaced."""
    total = 1.0
    for i in [*range(1, depth + 1), *range(-depth, 0)]:
        s = int(signs[("e", i)])
        if s not in (-1, 1):
            raise ValueError("signs must be -1 or +1")
        total += s * (3.0 ** -(2 * i) if i >= 1 else 3.0 ** -(2 * -i + 1))
    return total


def oracle_decode_digit_value(value, depth):
    """The scalar greedy decoder the array codec replaced."""
    residual = float(value) - 1.0
    out = {}
    for m in range(2, 2 * depth + 2):
        if residual == 0.0:
            raise ValueError("value is not a packed digit of this depth")
        s = 1 if residual > 0 else -1
        out[("e", m // 2) if m % 2 == 0 else ("e", -(m - 1) // 2)] = s
        residual -= s * 3.0**-m
    return out


def band_of(depth):
    return [("e", i) for i in (*range(1, depth + 1), *range(-depth, 0))]


def all_patterns(depth):
    """Every sign row of the 2 depth weighted carriers, as int8."""
    return np.array(list(product((-1, 1), repeat=2 * depth)), dtype=np.int8)


@st.composite
def digit_probes(draw):
    """(value, depth): an encoding, a neighbouring double of one, a value
    near the digit range, or any float."""
    depth = draw(st.integers(1, 6))
    row = draw(st.lists(st.sampled_from([-1, 1]), min_size=2 * depth, max_size=2 * depth))
    encoded = float(digit_values([row], depth)[0])
    value = draw(st.one_of(
        st.just(encoded),
        st.sampled_from([math.nextafter(encoded, 0.0), math.nextafter(encoded, 2.0)]),
        st.floats(0.8, 1.2),
        st.floats(),
    ))
    return value, depth


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestArrayDigitCodec:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_every_pattern_matches_the_scalar_oracle(self, depth):
        band = band_of(depth)
        patterns = all_patterns(depth)
        expected = [oracle_digit_value(dict(zip(band, row)), depth) for row in patterns.tolist()]
        values = digit_values(patterns, depth)
        assert float_bits(values) == float_bits(expected)
        decoded, ok = decode_digit_values(values, depth)
        assert ok.all()
        assert np.array_equal(decoded, patterns)
        for row, value in zip(patterns.tolist(), expected):
            signs = dict(zip(band, row))
            assert oracle_decode_digit_value(value, depth) == signs
            assert float_bits([digit_value(signs, depth)]) == float_bits([value])
            assert list(decode_digit_value(value, depth).items()) == list(
                oracle_decode_digit_value(value, depth).items()
            )

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_shifted_encodings_are_refused(self, depth):
        values = digit_values(all_patterns(depth), depth) + 1e-3
        assert not decode_digit_values(values, depth)[1].any()

    @settings(deadline=None, max_examples=300)
    @given(probe=digit_probes())
    @example(probe=(1.0, 3))
    @example(probe=(1.0 + 3.0**-2, 2))
    @example(probe=(1.0 + 3.0**-2 + 3.0**-3, 1))
    def test_arbitrary_values_decode_as_the_oracle(self, probe):
        """The verdict is re-encoding: a value decodes exactly when its
        greedy signs pack back to it, and then the signs are the scalar
        oracle's; every other value raises."""
        value, depth = probe
        signs, ok = decode_digit_values([value], depth)
        assert ok[0] == (digit_values(signs, depth)[0] == value)
        if ok[0]:
            want = oracle_decode_digit_value(value, depth)
            assert dict(zip(band_of(depth), signs[0].tolist())) == want
            assert decode_digit_value(value, depth) == want
        else:
            with pytest.raises(ValueError):
                decode_digit_value(value, depth)

    def test_array_validation(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            digit_values([[1, 0]], 1)
        with pytest.raises(ValueError):
            digit_values([1, -1], 1)
        with pytest.raises(ValueError):
            digit_values([[1, -1, 1]], 1)
        with pytest.raises(ValueError):
            decode_digit_values([[1.0]], 1)


def numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return ""


@pytest.mark.skipif("openblas" not in numpy_blas_name().lower()
                    or platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="numpy's BLAS is not OpenBLAS on x86-64")
@pytest.mark.parametrize("depth", [3, 6])
def test_prop2_bytes_do_not_depend_on_the_blas_kernel(depth, tmp_path):
    """prop2 writes the same bytes under the default OpenBLAS kernel and
    under Prescott (SSE3, which any x86-64 runs); the digit column once
    came from a BLAS product whose last bits followed the kernel."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for core in ("", "Prescott"):
        out_dir = tmp_path / (core or "default")
        run_env = dict(env, **{OUT_DIR_ENV: str(out_dir)})
        if core:
            run_env["OPENBLAS_CORETYPE"] = core
        argv = [sys.executable, "-m", "mgapprox.cli", "prop2", "--depth", str(depth)]
        proc = subprocess.run(argv, env=run_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[core] = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    assert len(outputs[""]) == 4
    for name, data in outputs[""].items():
        assert outputs["Prescott"][name] == data, f"{name} differs under the Prescott kernel"
