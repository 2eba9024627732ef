"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Each test re-derives its inputs from scratch so the criteria stay
independent of the rest of the suite.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from mgapprox import (
    ExactModel,
    LayerCodec,
    autocorrelation,
    best_scalar_gap,
    cesaro_profile,
    conditional_expectation,
    conditioning_up_to,
    decode_digit_value,
    decoding_table,
    digit_value,
    dyadic_midpoint_report,
    exp_series,
    hannan_sum,
    inv_sqrt_log_rule,
    level_one_window_variance,
    martingale_difference_norms,
    residual_norm_sq_lagged,
    residual_norm_sq_natural,
    simulate_and_decode,
    simulate_level_one_variance,
    singular_exponent_series,
    singular_inner_coeffs,
    substream,
    synthesize_layer_params,
)
from mgapprox.cli import main as cli_main


def check(num, ok, desc):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    assert ok, line


def test_criterion_01_dual_route_coefficients():
    start = time.perf_counter()
    direct = singular_inner_coeffs(1.0, 200)
    via_exp = exp_series(singular_exponent_series(1.0, 200), 200)
    dev = float(np.max(np.abs(direct.coeffs - via_exp.coeffs)))
    elapsed = time.perf_counter() - start
    check(
        1,
        dev <= 1e-10 and elapsed < 1.0,
        f"recurrence vs exp-series route, max |diff| = {dev:.3e} <= 1e-10 "
        f"in {elapsed:.2f}s",
    )


def test_criterion_02_near_delta_autocorrelation():
    start = time.perf_counter()
    s = singular_inner_coeffs(1.0, 10**4)
    t = s.tail_mass_bound
    tol = 2.0 * math.sqrt(t)
    devs = [abs(autocorrelation(s, 0) - 1.0)]
    devs += [abs(autocorrelation(s, k)) for k in range(1, 101)]
    worst = max(devs)
    elapsed = time.perf_counter() - start
    check(
        2,
        t <= 0.01 and worst <= tol and elapsed < 5.0,
        f"lags 0..100: max |dev| = {worst:.3e} <= 2 sqrt(T) = {tol:.3e}, "
        f"T = {t:.4f} <= 0.01, in {elapsed:.2f}s",
    )


def test_criterion_03_cesaro_mean_shrinks():
    s = singular_inner_coeffs(1.0, 10**4)
    m = float(cesaro_profile(s).cesaro_means[-1])
    check(3, abs(m) < 0.02, f"|M_n| at n = 1e4 is {abs(m):.3e} < 0.02")


def test_criterion_04_no_scalar_approximant():
    rep = best_scalar_gap(singular_inner_coeffs(1.0, 10**4), 10**4)
    check(
        4,
        rep.min_gap_sq >= 0.9,
        f"minimal normalized gap {rep.min_gap_sq:.6f} >= 0.9",
    )


def test_criterion_05_dyadic_midpoint_floors():
    start = time.perf_counter()
    from mgapprox import BlaschkeSpec, blaschke_eval_radial

    spec = BlaschkeSpec.dyadic(40)
    ok = True
    for level in range(2, 21):
        rep = dyadic_midpoint_report(level, 40)
        zero_val = abs(blaschke_eval_radial(spec, float(spec.zeros[level - 1])))
        ok = ok and rep.p2 >= 0.125 and rep.p3 >= 0.125
        ok = ok and rep.p1 >= rep.c_bound and rep.p4 >= rep.c_bound
        ok = ok and rep.product >= rep.c_bound**2 / 64.0
        ok = ok and zero_val == 0.0
    elapsed = time.perf_counter() - start
    check(
        5,
        ok and elapsed < 1.0,
        f"levels 2..20: group floors, |B(midpoint)| >= c^2/64, exact zeros, "
        f"in {elapsed:.2f}s",
    )


def test_criterion_06_gap_closed_form_vs_expansion():
    from mgapprox import CoefficientSeries, approximation_gap

    rng = substream(2024, 0)
    worst = 0.0
    for _ in range(20):
        order = int(rng.integers(0, 9))
        s = CoefficientSeries(rng.normal(size=order + 1))
        n = int(rng.integers(1, 33))
        c = float(rng.normal())
        weights = {}
        for j in range(n):
            for m in range(order + 1):
                t = j - m
                weights[t] = weights.get(t, 0.0) + float(s.coeffs[m])
        direct = (
            sum((v - (c if 0 <= t < n else 0.0)) ** 2 for t, v in weights.items())
            / n
        )
        got = approximation_gap(s, c, n).gap_sq
        worst = max(worst, abs(got - direct) / max(abs(direct), 1e-300))
    check(
        6,
        worst <= 1e-10,
        f"20 random kernels: closed form vs innovation expansion, "
        f"max rel dev {worst:.3e} <= 1e-10",
    )


def test_criterion_07_residual_norm_separation():
    start = time.perf_counter()
    rule = inv_sqrt_log_rule()
    params = synthesize_layer_params(rule, 8)
    lagged_ok = all(
        residual_norm_sq_lagged(params, 10**j) <= 1.0 for j in range(7)
    )
    floors_ok = True
    for j in range(8):
        n = int(params.phi[j])
        floors_ok = floors_ok and residual_norm_sq_natural(params, n) >= n * rule(n) ** 2
    elapsed = time.perf_counter() - start
    check(
        7,
        lagged_ok and floors_ok and elapsed < 1.0,
        "lagged residual <= 1 at n = 1..1e6 (decades); synchronous residual "
        f"above n b_n^2 at all 8 horizons, in {elapsed:.2f}s",
    )


def test_criterion_08_decode_round_trips():
    start = time.perf_counter()
    params = synthesize_layer_params(inv_sqrt_log_rule(), 4)
    for level in range(1, 5):
        decoding_table(params, level)  # raises on any interval defect
    rep = simulate_and_decode(params, 10**4, seed=0)
    elapsed = time.perf_counter() - start
    check(
        8,
        rep.failures == 0 and rep.samples == rep.recovered + rep.boundary_hits
        and elapsed < 10.0,
        f"interval tables clean; {rep.samples} seeded round trips, "
        f"{rep.failures} non-boundary failures, in {elapsed:.2f}s",
    )


def test_criterion_09_level_one_variance():
    start = time.perf_counter()
    params = synthesize_layer_params(inv_sqrt_log_rule(), 4)
    exact = level_one_window_variance(params, 64)
    mc = simulate_level_one_variance(params, 64, 10**4, seed=0)
    rel = abs(mc - exact) / exact
    elapsed = time.perf_counter() - start
    check(
        9,
        rel <= 0.10 and elapsed < 30.0,
        f"window-64 level-1 variance: mc {mc:.4f} vs exact {exact:.4f}, "
        f"rel dev {rel:.1%} <= 10%, in {elapsed:.2f}s",
    )


def test_criterion_10_exact_model_suite():
    start = time.perf_counter()
    model = ExactModel.build(3)
    norms = martingale_difference_norms(model)
    root = math.sqrt(5.0 + 9.0**-3 + 9.0**-5 + 9.0**-7)
    expected = {-2: 0.0, -1: root, 0: 1 / 9, 1: 1 / 81, 2: 1 / 729, 3: 0.0}
    norms_ok = set(norms) == set(expected) and all(
        abs(norms[k] - expected[k]) <= 1e-12 for k in expected
    )
    hannan_ok = abs(hannan_sum(model) - (root + 0.125)) <= 1e-12

    tower_ok = True
    for depth in (1, 2, 3, 4):
        m = ExactModel.build(depth)
        times = range(-2, depth + 2)
        ces = {
            k: conditional_expectation(m, m.observable, conditioning_up_to(m, k))
            for k in times
        }
        for j in times:
            for k in times:
                nested = conditional_expectation(m, ces[j], conditioning_up_to(m, k))
                tower_ok = tower_ok and bool(
                    np.allclose(nested, ces[min(j, k)], atol=1e-12)
                )

    decode_ok = True
    for depth in range(1, 7):
        band = [*range(1, depth + 1), *range(-depth, 0)]
        for signs in itertools.product((-1, 1), repeat=2 * depth):
            assignment = {("e", i): s for i, s in zip(band, signs)}
            out = decode_digit_value(digit_value(assignment, depth), depth)
            decode_ok = decode_ok and out == assignment
    elapsed = time.perf_counter() - start
    check(
        10,
        norms_ok and hannan_ok and tower_ok and decode_ok and elapsed < 30.0,
        "increment norms and completed sum exact to 1e-12; tower property "
        f"exhaustive to depth 4; digit decode exhaustive to depth 6, "
        f"in {elapsed:.2f}s",
    )


def test_criterion_11_cli_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MGAPPROX_OUT_DIR", raising=False)
    runs = [
        ["gap", "--trunc", "200", "--horizons", "1,10,100", "--out", "csv"],
        ["prop2", "--depth", "2", "--out", "json"],
    ]
    ok = True
    for argv in runs:
        assert cli_main(list(argv)) == 0
        paths = [p for p in capsys.readouterr().out.splitlines() if p]
        first = {p: Path(p).read_bytes() for p in paths}
        assert cli_main(list(argv)) == 0
        capsys.readouterr()
        ok = ok and all(Path(p).read_bytes() == blob for p, blob in first.items())
        if argv[0] == "prop2":
            payload = json.loads(first["prop2_summary.json"])
            ok = ok and set(payload) == {"metadata", "schema", "rows"}
    check(11, ok, "two command reruns with fixed configs, all files byte-identical")
