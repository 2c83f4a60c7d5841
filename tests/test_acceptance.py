"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so `pytest -s tests/test_acceptance.py` gives a one-line
verdict per criterion.
"""

import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from moonbell import (
    CONSTANTS,
    DEFAULT_SETTINGS,
    ChshSettings,
    CollapseModel,
    all_claims,
    chsh_value,
    critical_speed,
    detector_separation,
    gain_factor,
    geometric_loss_db,
    lhv_correlation,
    pairs_for_significance,
    preset,
    proper_time_correction,
    quantum_correlation,
    simulate,
    speed_bound,
    sweep_speed,
    symmetric_scenario,
)
from moonbell.bounds import cadence_threshold

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0
S_QUANTUM = 2.0 * math.sqrt(2.0)
CLAIMS = {c.claim_id: c for c in all_claims()}


def _announce(number, text):
    print(f"\nCRITERION {number}: PASS - {text}")


def test_criterion_01_analytic_chsh():
    s_q = chsh_value(quantum_correlation, DEFAULT_SETTINGS)
    s_l = chsh_value(lhv_correlation, DEFAULT_SETTINGS)
    assert abs(s_q - S_QUANTUM) <= 1e-12
    assert abs(s_l - 2.0) <= 1e-12
    # the printed 2.2 is logged, not matched
    assert CLAIMS["chsh_quantum_value"].paper_value == 2.2
    _announce(1, f"S_quantum={s_q!r}, S_lhv={s_l!r}; printed 2.2 kept in the ledger")


def test_criterion_02_bound_reproduction():
    expectations = {
        "gisin1999": 7.072e6,
        "cao2017": 9.34e8,
        "earth_moon_case3": 5.13e11,
    }
    values = {}
    for name, expected in expectations.items():
        v = speed_bound(preset(name)).v_min_over_c
        assert v == pytest.approx(expected, rel=5e-3)
        values[name] = v
    for claim_id, printed in (
        ("gisin_bound_quoted_reference", 32e7),
        ("gisin_bound_spelled_out", 7e5),
        ("cao_bound_order", 1e7),
    ):
        assert CLAIMS[claim_id].paper_value == printed
    _announce(2, ", ".join(f"{k}={v:.4g}c" for k, v in values.items()))


def test_criterion_03_gain_factors():
    ratio_cities = CONSTANTS.d_earth_moon_mean / detector_separation(preset("cao2017"))
    assert ratio_cities == pytest.approx(319.5, rel=1e-3)
    assert ratio_cities == pytest.approx(300.0, rel=0.10)

    case3 = preset("earth_moon_case3")
    lagrange_gain = gain_factor(preset("lagrange_l4l5"), case3)
    mars_gain = gain_factor(preset("mars"), case3)
    assert CLAIMS["lagrange_distance_gain"].paper_value == 20.0
    assert CLAIMS["mars_distance_gain"].paper_value == 1000.0
    assert 20.0 / 2.0 <= lagrange_gain <= 20.0 * 2.0
    assert 1000.0 / 2.0 <= mars_gain <= 1000.0 * 2.0
    _announce(
        3,
        f"distance ratio {ratio_cities:.1f} (claim 300), lagrange {lagrange_gain:.1f} "
        f"(claim 20), mars {mars_gain:.0f} (claim 1000)",
    )


def test_criterion_04_monte_carlo_convergence():
    start = time.monotonic()
    run = lambda: simulate(
        preset("earth_moon_case3"),
        CollapseModel(v_over_c=math.inf),
        DEFAULT_SETTINGS,
        n_pairs=1_000_000,
        seed=2026,
    )
    first = run()
    elapsed = time.monotonic() - start
    est = first
    assert abs(est.s_hat - S_QUANTUM) <= 5 * est.stderr_s
    assert run() == est  # fixed seed -> deterministic
    assert elapsed <= 20.0
    _announce(
        4,
        f"n=1e6: S_hat={est.s_hat:.4f} +- {est.stderr_s:.4f} "
        f"(|diff|={abs(est.s_hat - S_QUANTUM):.4f}), {elapsed:.1f}s",
    )


def test_criterion_05_threshold_behavior():
    scen = symmetric_scenario(CONSTANTS.d_earth_moon_mean)
    v_star = critical_speed(scen)
    assert v_star == pytest.approx(5.13e11, rel=5e-3)
    grid = list(np.logspace(10, 13, 20))
    points = sweep_speed(
        scen,
        fallback="lhv",
        settings=DEFAULT_SETTINGS,
        v_grid=grid,
        n_pairs_per_point=20_000,
        seed=99,
    )
    for p in points:
        if p.v_over_c >= v_star:
            assert p.connected
            assert abs(p.s_hat - S_QUANTUM) <= 5 * p.stderr_s
        else:
            assert not p.connected
            assert p.s_hat <= 2.0 + 5 * p.stderr_s
    below = max(p.v_over_c for p in points if not p.connected)
    above = min(p.v_over_c for p in points if p.connected)
    assert below < v_star <= above
    _announce(5, f"v*={v_star:.4g}, bracket ({below:.3g}, {above:.3g}] contains it exactly")


def test_criterion_06_natural_timing_connects_at_light_speed():
    scen = preset("earth_moon_case3")
    v_star = critical_speed(scen)
    l_long = scen.arms[1].length_m
    derived = l_long / (l_long + CONSTANTS.c * scen.arms[1].tau_s)
    assert v_star < 1.0
    assert v_star == pytest.approx(derived, rel=1e-6)
    result = simulate(
        scen,
        CollapseModel(v_over_c=1.0 + 1e-6, fallback="lhv"),
        DEFAULT_SETTINGS,
        n_pairs=1000,
        seed=0,
    )
    assert result.connected
    _announce(6, f"critical speed {v_star:.12f}c < 1c; 1.000001c already connects")


def test_criterion_07_lhv_ceiling():
    rng = np.random.default_rng(314)
    worst = 0.0
    for angles in rng.uniform(0.0, math.pi, size=(10_000, 4)):
        s = chsh_value(lhv_correlation, ChshSettings(*angles))
        worst = max(worst, abs(s))
        assert abs(s) <= 2.0 + 1e-9
    scen = symmetric_scenario(CONSTANTS.d_earth_moon_mean)
    result = simulate(
        scen,
        CollapseModel(v_over_c=0.5 * critical_speed(scen), fallback="lhv"),
        DEFAULT_SETTINGS,
        n_pairs=200_000,
        seed=7,
    )
    est = result
    assert not result.connected
    assert est.s_hat <= 2.0 + 5 * est.stderr_s
    _announce(
        7,
        f"max |S| over 1e4 random settings = {worst:.6f} <= 2; "
        f"simulated fallback S_hat={est.s_hat:.4f} +- {est.stderr_s:.4f}",
    )


def test_criterion_08_proper_time():
    earth = proper_time_correction(CONSTANTS.GM_earth, CONSTANTS.R_earth)
    moon = proper_time_correction(CONSTANTS.GM_moon, CONSTANTS.R_moon)
    assert earth == pytest.approx(6.96e-10, rel=0.01)
    assert moon == pytest.approx(3.14e-11, rel=0.01)
    published = cadence_threshold(0.08, 0.0031)
    assert published == pytest.approx(12.5, rel=1e-12)
    cadence_claim = CLAIMS["cadence_threshold"]
    assert cadence_claim.paper_value == 12.0
    assert cadence_claim.computed_value == pytest.approx(12.5, rel=1e-12)
    _announce(
        8,
        f"corrections {earth:.3g} / {moon:.3g}; "
        f"quoted inputs give 1/0.08 = {published} (printed as 12)",
    )


def test_criterion_09_link_budget():
    loss = geometric_loss_db(500e3, 384_400e3)
    assert loss == pytest.approx(57.72, abs=0.01)

    per_setting = pairs_for_significance(S_QUANTUM, 3.0)
    assert per_setting == 27

    rng = np.random.default_rng(90210)
    e_true = np.array([SQRT2_OVER_2, -SQRT2_OVER_2, SQRT2_OVER_2, SQRT2_OVER_2])
    agrees = rng.binomial(per_setting, (1 + e_true) / 2, size=(10_000, 4))
    e_hat = (2.0 * agrees - per_setting) / per_setting
    s_hat = e_hat[:, 0] - e_hat[:, 1] + e_hat[:, 2] + e_hat[:, 3]
    rejection = float(np.mean(s_hat > 2.0))
    assert rejection >= 0.99
    _announce(
        9,
        f"extra loss {loss:.2f} dB; 27 pairs/setting rejects S<=2 in "
        f"{100 * rejection:.2f}% of 1e4 replicates",
    )


def test_criterion_10_sweep_determinism_across_workers(tmp_path):
    args = [
        sys.executable, "-m", "moonbell", "sweep", "earth_moon_case3",
        "--equalize-starts", "--v-min", "1e10", "--v-max", "1e13",
        "--points", "6", "--fallback", "lhv", "-n", "5000", "--seed", "31",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = subprocess.run(
        [*args, "--workers", "1", "--out", str(out1)], capture_output=True, text=True
    )
    r2 = subprocess.run(
        [*args, "--workers", "4", "--out", str(out2)], capture_output=True, text=True
    )
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(r1.stdout)
    assert report["seed"] == 31
    _announce(10, f"workers 1 vs 4: byte-identical CSV ({out1.stat().st_size} bytes)")
