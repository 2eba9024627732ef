"""Singular inner coefficients, Blaschke products, and boundary diagnostics."""

import math
import warnings
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgapprox import (
    BlaschkeSpec,
    autocorrelation,
    blaschke_eval_radial,
    blaschke_factor_coeffs,
    blaschke_product_coeffs,
    cauchy_product,
    coefficient_decay_diagnostics,
    dyadic_midpoint_report,
    dyadic_radial_limit_bound,
    exp_series,
    newman_shapiro_main_term,
    singular_exponent_series,
    singular_inner_coeffs,
)
import mgapprox.inner
from mgapprox.inner import _zeros_below_one

# prod_{k=1..60} (1 - 2^-k)/(1 + 2^-k), frozen from an independent evaluation.
DYADIC_LIMIT_CONSTANT = 0.12112420800258053


def chain_product(zeros, n):
    """The product as a chain of truncated convolutions of single factors:
    the construction the lossless cascade replaced, kept as its oracle."""
    acc = blaschke_factor_coeffs(float(zeros[0]), n)
    for z0 in zeros[1:]:
        acc = cauchy_product(acc, blaschke_factor_coeffs(float(z0), n), n)
    return acc.coeffs


def mpmath_cascade(zeros, n):
    """Outputs 0..n and final states of the sections x' = z0 x + c u,
    y = -c x + z0 u on the unit impulse, at the current mpmath precision."""
    u = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
    states = []
    for z0 in zeros:
        z = mpmath.mpf(float(z0))
        c = mpmath.sqrt((1 - z) * (1 + z))
        x = mpmath.mpf(0)
        out = []
        for uk in u:
            out.append(z * uk - c * x)
            x = z * x + c * uk
        states.append(x)
        u = out
    return u, states


def mpmath_tail(zeros, n):
    """1 - sum_{j<=n} a_j^2 with 40 significant digits: a first 40-digit run
    sizes the tail by its squared final states, and a second run adds that
    many digits so the difference keeps 40 of them."""
    with mpmath.workdps(40):
        _, states = mpmath_cascade(zeros, n)
        size = mpmath.fsum(x * x for x in states)
    extra = 0 if size == 0 else max(0, int(-mpmath.floor(mpmath.log10(size))))
    with mpmath.workdps(50 + extra):
        coeffs, _ = mpmath_cascade(zeros, n)
        return 1 - mpmath.fsum(a * a for a in coeffs)


def indexed_singular_partials(a, n):
    """The Laguerre recurrence reading A_k and A_{k-1} back from the array
    as numpy scalars: the loop the Python-float locals replaced, kept as
    their oracle."""
    partial = np.empty(n + 1)
    partial[0] = math.exp(-a)
    if n >= 1:
        partial[1] = math.exp(-a) * (1.0 - 2.0 * a)
    x = 2.0 * a
    for k in range(1, n):
        partial[k + 1] = ((2 * k + 1 - x) * partial[k] - k * partial[k - 1]) / (k + 1)
    return np.diff(partial, prepend=0.0)


@pytest.fixture(scope="module")
def dyadic12_series():
    # 12 dyadic zeros need order ~2^14 before the slowest factor resolves;
    # below that the constructor warns, which is part of the contract.
    spec = BlaschkeSpec.dyadic(12)
    with pytest.warns(RuntimeWarning):
        s = blaschke_product_coeffs(spec, 2**14)
    return spec, s


class TestSingularInner:
    def test_matches_exponential_of_kernel_series(self):
        n = 120
        direct = singular_inner_coeffs(1.0, n)
        via_exp = exp_series(singular_exponent_series(1.0, n), n)
        assert np.max(np.abs(direct.coeffs - via_exp.coeffs)) <= 1e-10

    def test_partial_sums_are_scaled_laguerre_values(self):
        a, n = 1.0, 150
        s = singular_inner_coeffs(a, n)
        partial = np.cumsum(s.coeffs)
        laguerre = [float(mpmath.laguerre(k, 0, 2.0 * a)) for k in range(n + 1)]
        reference = math.exp(-a) * np.array(laguerre)
        assert np.max(np.abs(partial - reference)) <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(a=st.floats(0.0, 700.0, exclude_min=True), n=st.integers(0, 5000))
    @example(a=1e-4, n=5000)
    @example(a=0.37, n=5000)
    @example(a=1.0, n=0)
    @example(a=1.0, n=1)
    @example(a=50.0, n=5000)
    @example(a=700.0, n=5000)
    def test_float_recurrence_matches_the_indexed_loop(self, a, n):
        expected = indexed_singular_partials(a, n)
        assert singular_inner_coeffs(a, n).coeffs.tobytes() == expected.tobytes()

    def test_leading_coefficients(self):
        s = singular_inner_coeffs(1.0, 1)
        assert s.coeffs[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert s.coeffs[1] == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_tail_envelope_covers_truncation_deficit(self, a, n):
        s = singular_inner_coeffs(a, n)
        deficit = 1.0 - s.mass()
        assert deficit > 0.0
        assert deficit <= s.tail_mass_bound

    def test_order_ceiling_refuses_before_allocating(self, monkeypatch):
        # order 10^7 passes the check and reaches the allocation; one more
        # is refused before it
        class Allocated(Exception):
            pass

        def empty(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr("mgapprox.inner.np", SimpleNamespace(empty=empty))
        with pytest.raises(Allocated):
            singular_inner_coeffs(1.0, 10**7)
        with pytest.raises(ValueError, match="truncation order 10000001 exceeds 1e\\+07"):
            singular_inner_coeffs(1.0, 10**7 + 1)

    @settings(deadline=None, max_examples=60)
    @given(a=st.floats(1e-4, 700.0), n=st.integers(0, 20000))
    def test_tail_bound_covers_the_exact_tail(self, a, n):
        # the full sequence has unit mass, so the exact tail is 1 - mass
        s = singular_inner_coeffs(a, n)
        assert s.tail_mass_bound >= 1.0 - math.fsum(s.coeffs**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            singular_inner_coeffs(0.0, 10)
        with pytest.raises(ValueError):
            singular_inner_coeffs(1.0, -1)
        with pytest.raises(ValueError):
            singular_exponent_series(-2.0, 10)

    def test_certificate_flag_set(self):
        assert singular_inner_coeffs(0.5, 8).orthonormal_rows is True

    def test_largest_a_matches_mpmath_laguerre(self):
        # at a = 700 the seed exp(-a) is still a normal double
        a, n = 700.0, 5000
        partial = np.cumsum(singular_inner_coeffs(a, n).coeffs)
        for k in (0, 1, 10, 100, 500, 1000, 1399, 1400, 1401, 2000, 3000, 4999, 5000):
            reference = float(mpmath.exp(-a) * mpmath.laguerre(k, 0, 2.0 * a))
            assert abs(partial[k] - reference) <= 1e-16, k

    @pytest.mark.parametrize("a", [700.5, 746.0, 1e6])
    def test_a_above_the_range_rejected(self, a):
        with pytest.raises(ValueError, match="exceeds 700.0"):
            singular_inner_coeffs(a, 10)


class TestNewmanShapiroAsymptotic:
    def test_cosine_zero_crossing(self):
        # a = pi^2/128 makes the phase 2 sqrt(2 a n) + pi/4 equal pi/2 at n=1.
        assert abs(newman_shapiro_main_term(math.pi**2 / 128.0, 1)) <= 1e-15

    def test_remainder_order(self):
        # n^(5/4) |a_n - main term| stayed below 0.0699 on a full scan of
        # [100, 5000] at a=1; 0.08 leaves margin without hiding regressions.
        s = singular_inner_coeffs(1.0, 5000)
        worst = 0.0
        for n in range(100, 5001, 37):
            dev = n**1.25 * abs(s.coeffs[n] - newman_shapiro_main_term(1.0, n))
            worst = max(worst, dev)
        assert worst <= 0.08

    @pytest.mark.parametrize("a", [1.0, 0.3, math.pi**2 / 128.0, 700.0])
    def test_array_matches_the_scalar_formula(self, a):
        # the per-order formula the array pass replaced, cell for cell
        def scalar(n):
            amp = (2.0 * a) ** 0.25 / math.sqrt(math.pi)
            return amp * n ** -0.75 * math.cos(2.0 * math.sqrt(2.0 * a * n) + math.pi / 4.0)

        orders = np.arange(1, 30001)
        got = newman_shapiro_main_term(a, orders)
        want = np.array([scalar(n) for n in range(1, 30001)])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        # counts around one block of orders, and a strided view of them
        for count in (4095, 4096, 4097):
            got = newman_shapiro_main_term(a, orders[:count])
            assert got.view(np.uint64).tolist() == want[:count].view(np.uint64).tolist()
        got = newman_shapiro_main_term(a, orders[::3])
        assert got.view(np.uint64).tolist() == want[::3].view(np.uint64).tolist()
        assert newman_shapiro_main_term(a, 777) == want[776]
        assert type(newman_shapiro_main_term(a, 777)) is float
        assert newman_shapiro_main_term(a, 2**70) == scalar(2**70)

    def test_validation(self):
        with pytest.raises(ValueError):
            newman_shapiro_main_term(1.0, 0)
        with pytest.raises(ValueError):
            newman_shapiro_main_term(0.0, 5)
        with pytest.raises(ValueError):
            newman_shapiro_main_term(1.0, np.arange(0, 5))
        with pytest.raises(ValueError):
            newman_shapiro_main_term(1.0, np.array([1.5, 2.0]))


class TestBlaschkeFactor:
    def test_hand_expansion(self):
        s = blaschke_factor_coeffs(0.5, 3)
        assert np.allclose(s.coeffs, [0.5, -0.75, -0.375, -0.1875], atol=0, rtol=0)

    def test_zero_at_origin_is_minus_z(self):
        s = blaschke_factor_coeffs(0.0, 3)
        assert np.array_equal(s.coeffs, [0.0, -1.0, 0.0, 0.0])

    @pytest.mark.parametrize("z0", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_exact_mass_bookkeeping(self, z0, n):
        s = blaschke_factor_coeffs(z0, n)
        tail = (1.0 - z0 * z0) * z0 ** (2 * n)
        assert s.tail_mass_bound == pytest.approx(tail, abs=1e-300)
        assert s.mass() == pytest.approx(1.0 - tail, rel=1e-12)

    def test_order_zero_tail(self):
        s = blaschke_factor_coeffs(0.3, 0)
        assert s.tail_mass_bound == pytest.approx(1.0 - 0.09)

    def test_validation(self):
        with pytest.raises(ValueError):
            blaschke_factor_coeffs(1.0, 3)
        with pytest.raises(ValueError):
            blaschke_factor_coeffs(-0.2, 3)


class TestBlaschkeSpec:
    def test_dyadic_zeros(self):
        spec = BlaschkeSpec.dyadic(3)
        assert np.allclose(spec.zeros, [0.5, 0.75, 0.875], atol=0, rtol=0)

    def test_power_zeros(self):
        spec = BlaschkeSpec.power(2.0, 3)
        assert np.allclose(spec.zeros, [0.0, 0.75, 1.0 - 1.0 / 9.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            BlaschkeSpec(np.array([]))
        with pytest.raises(ValueError):
            BlaschkeSpec(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            BlaschkeSpec.dyadic(0)
        with pytest.raises(ValueError):
            BlaschkeSpec.power(0.0, 4)

    @pytest.mark.parametrize("zero", [math.nan, -math.inf, math.inf])
    def test_non_finite_zero_rejected(self, zero):
        # NaN compares false with both bounds; it used to pass and make
        # blaschke_eval_radial return nan
        with pytest.raises(ValueError, match=r"zeros must lie in \[0, 1\)"):
            BlaschkeSpec(np.array([0.5, zero]))

    @pytest.mark.parametrize("build, first", [
        (BlaschkeSpec.dyadic, 54),  # 1 - 2^-54 rounds to 1.0
        (lambda count: BlaschkeSpec.power(10.0, count), 43),  # 1 - 43^-10 does too
    ], ids=["dyadic", "power"])
    def test_zero_rounding_to_one_names_the_count(self, build, first):
        assert build(first - 1).zeros[-1] < 1.0
        # 10^15 zeros would take 8 PB: the first one at 1 is found among
        # at most the first 10^6 + 1 zeros
        message = f"k={first} rounds to 1.0.* at most {first - 1} "
        for count in (first, 10**15, 10**400):  # 10^400 overflows a float
            with pytest.raises(ValueError, match=message):
                build(count)

    def test_zero_count_ceiling(self):
        # power(0.01) keeps every zero below 1; the ceiling ends the request
        # once the first 10^6 + 1 zeros are checked
        assert BlaschkeSpec.power(0.01, 10**6).zeros.size == 10**6
        for count in (10**6 + 1, 10**15, 10**400):
            with pytest.raises(ValueError, match=f"asks for {count} zeros; at most 1000000 "):
                BlaschkeSpec.power(0.01, count)

    def test_count_past_the_ceiling_is_checked_at_the_ceiling(self):
        # power(2) reaches 1.0 near k = 9.5e7, past the ceiling: the zeros
        # checked end at k = 10^6 + 1, below 1, so the ceiling reports
        with pytest.raises(ValueError, match="power\\(2.0\\) asks for 100000000 zeros"):
            BlaschkeSpec.power(2.0, 10**8)

    @settings(max_examples=300, deadline=None)
    @given(first=st.integers(1, 40), count=st.integers(1, 40), ceiling=st.integers(1, 30))
    @example(first=11, count=12, ceiling=10)  # the first at 1 is the one past the ceiling
    @example(first=12, count=12, ceiling=10)  # it lies beyond: the ceiling reports
    @example(first=5, count=5, ceiling=10)  # it is the last zero asked for
    def test_first_zero_at_one_is_the_first_of_a_scan(self, first, count, ceiling):
        # increasing zeros 1 - 1/(k + 1) below k = first, 1.0 from there on
        zero = lambda k: np.where(k < first, 1.0 - 1.0 / (k + 1.0), 1.0)
        scanned = range(1, min(count, ceiling + 1) + 1)
        at_one = next((k for k in scanned if zero(np.array([k], dtype=float))[0] >= 1.0), None)
        with mock.patch.object(mgapprox.inner, "_MAX_RULE_ZEROS", ceiling):
            if at_one is not None:
                message = (f"rule zero k={at_one} rounds to 1.0 in double precision; "
                           f"at most {at_one - 1} zeros of this rule are representable")
            elif count > ceiling:
                message = f"rule asks for {count} zeros; at most {ceiling} are supported"
            else:
                zeros = _zeros_below_one(zero, count, "rule")
                assert zeros.tolist() == [1.0 - 1.0 / (k + 1.0) for k in range(1, count + 1)]
                return
            with pytest.raises(ValueError) as info:
                _zeros_below_one(zero, count, "rule")
        assert str(info.value) == message


class TestBlaschkeProduct:
    def test_single_zero_equals_factor(self):
        spec = BlaschkeSpec(np.array([0.5]))
        prod = blaschke_product_coeffs(spec, 40)
        fact = blaschke_factor_coeffs(0.5, 40)
        assert np.max(np.abs(prod.coeffs - fact.coeffs)) <= 1e-15
        assert prod.tail_mass_bound >= fact.tail_mass_bound

    def test_repeated_zero_equals_squared_factor(self):
        spec = BlaschkeSpec(np.array([0.5, 0.5]))
        prod = blaschke_product_coeffs(spec, 60)
        assert np.max(np.abs(prod.coeffs - chain_product(spec.zeros, 60))) <= 1e-15

    @settings(deadline=None, max_examples=80)
    @given(zeros=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=8),
           n=st.integers(0, 400))
    def test_cascade_matches_the_convolution_chain(self, zeros, n):
        spec = BlaschkeSpec(np.array(zeros))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            prod = blaschke_product_coeffs(spec, n)
        assert np.max(np.abs(prod.coeffs - chain_product(zeros, n))) <= 1e-14

    # 0.01 is the smallest nonzero zero, so the 40-digit reference needs at
    # most about 1250 digits; exact zeros make tails that are exactly 0.
    @settings(deadline=None, max_examples=60)
    @given(zeros=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 0.95)),
                          min_size=1, max_size=8),
           n=st.integers(0, 300))
    def test_tail_bound_against_mpmath(self, zeros, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            bound = blaschke_product_coeffs(BlaschkeSpec(np.array(zeros)), n).tail_mass_bound
        reference = mpmath_tail(zeros, n)
        assert bound >= reference
        assert bound <= reference * (1 + mpmath.mpf("1e-6")) + mpmath.mpf("1e-300")

    def test_tail_bound_pins(self):
        # 1 - mass stored 2.27348140e-11 and 0.0 here: the difference cancels
        with pytest.warns(RuntimeWarning):
            small = blaschke_product_coeffs(BlaschkeSpec.dyadic(4), 200).tail_mass_bound
        assert small == pytest.approx(2.27348449e-11, rel=1e-8, abs=0.0)
        tiny = blaschke_product_coeffs(BlaschkeSpec.dyadic(9), 2**14).tail_mass_bound
        assert tiny > 0.0
        assert tiny == pytest.approx(3.83504013e-29, rel=1e-8, abs=0.0)

    def test_unresolved_truncation_warns(self):
        with pytest.warns(RuntimeWarning):
            blaschke_product_coeffs(BlaschkeSpec.dyadic(12), 100)

    def test_resolved_truncation_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blaschke_product_coeffs(BlaschkeSpec(np.array([0.5])), 100)

    def test_coefficient_sum_matches_radial_value(self):
        spec = BlaschkeSpec(np.array([0.5, 0.25]))
        n = 200
        s = blaschke_product_coeffs(spec, n)
        for r in (0.0, 0.6, -0.3):
            horner = float(np.polynomial.polynomial.polyval(r, s.coeffs))
            exact = blaschke_eval_radial(spec, r)
            # Cauchy-Schwarz on the discarded tail.
            slack = math.sqrt(s.tail_mass_bound) * abs(r) ** (n + 1)
            slack /= math.sqrt(1.0 - r * r)
            assert abs(horner - exact) <= slack + 1e-12

    def test_vanishes_exactly_at_each_zero(self):
        spec = BlaschkeSpec.dyadic(6)
        for z in spec.zeros:
            assert blaschke_eval_radial(spec, float(z)) == 0.0

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5, math.inf, math.nan])
    def test_radial_point_outside_the_disc_rejected(self, r):
        with pytest.raises(ValueError, match=r"needs \|r\| < 1"):
            blaschke_eval_radial(BlaschkeSpec(np.array([0.5])), r)

    def test_certificate_flag_set(self):
        s = blaschke_product_coeffs(BlaschkeSpec(np.array([0.3, 0.1])), 30)
        assert s.orthonormal_rows is True

    def test_work_ceiling(self, monkeypatch):
        # factors x (n + 1 + 1000) steps may reach the ceiling and no more
        with pytest.raises(ValueError, match="1001 factors at order 9999 need 1.1e\\+07 steps "
                                             "\\(1000 per factor .* at most 1e\\+07 "):
            blaschke_product_coeffs(BlaschkeSpec(np.full(1001, 0.5)), 9999)
        monkeypatch.setattr("mgapprox.inner._MAX_PRODUCT_WORK", 3 * 1101)
        assert blaschke_product_coeffs(BlaschkeSpec(np.full(3, 0.5)), 100).order == 100
        assert blaschke_product_coeffs(BlaschkeSpec(np.array([0.5])), 2302).order == 2302
        with pytest.raises(ValueError, match="1 factors at order 2303 need 3.3e\\+03 steps"):
            blaschke_product_coeffs(BlaschkeSpec(np.array([0.5])), 2303)
        with pytest.raises(ValueError, match="3 factors at order 101 "):
            blaschke_product_coeffs(BlaschkeSpec(np.full(3, 0.5)), 101)

    def test_order_past_the_float_range_is_refused_by_its_ceiling(self):
        # the work 10^400 + 1001 overflows a float, so it is not printed
        with pytest.raises(ValueError, match=f"1 factors at order {10**400} need over 1e\\+07 "):
            blaschke_product_coeffs(BlaschkeSpec(np.array([0.5])), 10**400)

    def test_per_factor_charge_does_not_move_the_tail_slack(self, monkeypatch):
        # the slack scales with cascade steps only, so raising the charge
        # leaves the stored tail as it was
        spec = BlaschkeSpec(np.array([0.1, 0.3, 0.5]))
        before = blaschke_product_coeffs(spec, 40).tail_mass_bound
        monkeypatch.setattr("mgapprox.inner._FACTOR_STEPS", 10**6)
        assert blaschke_product_coeffs(spec, 40).tail_mass_bound == before

    @pytest.mark.parametrize("count, n", [(10**6, 1000), (10**6, 9), (10**4, 0)])
    def test_work_ceiling_refuses_before_any_work(self, monkeypatch, count, n):
        # 10^6 factors at order 9 is 10^7 cascade steps, but their fixed
        # costs add 10^9 more; 10^4 factors at order 0 need 1.001e7
        calls = []
        monkeypatch.setattr("mgapprox.inner._lossless_cascade", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=f"{count} factors at order {n} "):
            blaschke_product_coeffs(BlaschkeSpec.power(0.01, count), n)
        assert calls == []


class TestDyadicMidpointBounds:
    def test_limit_constant_frozen(self):
        assert abs(dyadic_radial_limit_bound() - DYADIC_LIMIT_CONSTANT) < 1e-15

    def test_report_fields(self):
        rep = dyadic_midpoint_report(3, 40)
        z3, z4 = 1.0 - 2.0**-3, 1.0 - 2.0**-4
        assert rep.r == pytest.approx(0.5 * (z3 + z4))
        assert rep.product == pytest.approx(rep.p1 * rep.p2 * rep.p3 * rep.p4, rel=1e-10)
        assert rep.c_bound == pytest.approx(DYADIC_LIMIT_CONSTANT)
        assert rep.p2 >= 0.125 and rep.p3 >= 0.125
        assert rep.p1 >= rep.c_bound and rep.p4 >= rep.c_bound
        assert rep.product >= rep.c_bound**2 / 64.0

    def test_all_levels_pass(self):
        for level in range(1, 21):
            dyadic_midpoint_report(level, 40)

    def test_adjacent_zeros_have_no_midpoint(self):
        # zeros 52 and 53 are adjacent doubles: the midpoint used to round
        # onto zero 52 and fail p2's floor as an InvariantViolation
        assert dyadic_midpoint_report(51, 53).p2 >= 0.125
        with pytest.raises(ValueError, match="zeros 52 and 53, so level 52 has no midpoint"):
            dyadic_midpoint_report(52, 53)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_midpoint_report(0, 40)
        with pytest.raises(ValueError):
            dyadic_midpoint_report(40, 40)


class TestDecayDiagnostics:
    def test_degenerate(self):
        from mgapprox import CoefficientSeries

        d = coefficient_decay_diagnostics(CoefficientSeries(np.array([2.0])))
        assert d.max_weighted == 0.0 and d.arg_max == 0

    def test_hand_case(self):
        from mgapprox import CoefficientSeries

        d = coefficient_decay_diagnostics(CoefficientSeries(np.array([1.0, 0.5, 0.1])))
        assert d.max_weighted == 0.5 and d.arg_max == 1

    def test_singular_weighted_decay_tracks_quarter_power(self):
        # Envelope pi^(-1/2) (2a)^(1/4) n^(-3/4) makes n |a_n| ride up like
        # n^(1/4): at order 5000 the max is ~5.6, attained near the end.
        s = singular_inner_coeffs(1.0, 5000)
        d = coefficient_decay_diagnostics(s)
        envelope = (2.0) ** 0.25 / math.sqrt(math.pi) * 5000.0**0.25
        assert 0.8 * envelope < d.max_weighted <= 1.05 * envelope
        assert d.arg_max > 4000

    def test_blaschke_weighted_decay_peaks_inside(self, dyadic12_series):
        # Rational functions decay geometrically once the slowest zero
        # resolves; frozen run: max n |a_n| = 1.804 at n = 11079 < 2^14.
        _, s = dyadic12_series
        d = coefficient_decay_diagnostics(s)
        assert 1.5 < d.max_weighted < 2.5
        assert 2**13 < d.arg_max < s.order - 1000


class TestDyadicAutocorrelation:
    def test_near_delta_within_tail_tolerance(self, dyadic12_series):
        _, s = dyadic12_series
        t = s.tail_mass_bound
        assert t <= 1e-4
        tol = 2.0 * math.sqrt(t)
        assert abs(autocorrelation(s, 0) - 1.0) <= tol
        worst = max(abs(autocorrelation(s, k)) for k in range(1, 65))
        assert worst <= tol
