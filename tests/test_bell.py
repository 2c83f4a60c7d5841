import argparse
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moonbell import (
    CLASSICAL_BOUND,
    DEFAULT_SETTINGS,
    TSIRELSON_BOUND,
    ChshSettings,
    canonical_angle,
    chsh_value,
    lhv_correlation,
    outcome_probabilities,
    quantum_correlation,
)
from moonbell.bell import CHSH_SIGNS, FALLBACKS, MODELS, OUTCOMES
from moonbell.cli import build_parser

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def hidden_variable_correlation(a, b, n_lambda=2_000_000):
    """Independent oracle for the deterministic hidden-polarization model.

    Midpoint-rule average over the hidden angle of the product of the two
    sign outcomes; accuracy limited by the discontinuities, about 1e-5 at
    this resolution.
    """
    lam = (np.arange(n_lambda) + 0.5) * (math.pi / n_lambda)
    out_a = np.sign(np.cos(2.0 * (a - lam)))
    out_b = np.sign(np.cos(2.0 * (b - lam)))
    return float(np.mean(out_a * out_b))


def test_lhv_sawtooth_matches_hidden_variable_oracle():
    rng = np.random.default_rng(7)
    angles = [(0.0, math.pi / 8), (0.0, 3 * math.pi / 8), (0.3, 1.1)]
    angles += [tuple(pair) for pair in rng.uniform(0, math.pi, size=(12, 2))]
    for a, b in angles:
        assert lhv_correlation(a, b) == pytest.approx(
            hidden_variable_correlation(a, b), abs=5e-5
        )


def test_quantum_correlation_values():
    assert quantum_correlation(0.0, 0.0) == 1.0
    assert quantum_correlation(0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)
    assert quantum_correlation(0.0, math.pi / 8) == pytest.approx(SQRT2_OVER_2, abs=1e-12)


def test_lhv_correlation_values():
    assert lhv_correlation(0.0, 0.0) == 1.0
    assert lhv_correlation(0.0, math.pi / 8) == pytest.approx(0.5, abs=1e-12)
    assert lhv_correlation(0.0, 3 * math.pi / 8) == pytest.approx(-0.5, abs=1e-12)


def test_outcome_probabilities_quantum():
    p = outcome_probabilities("quantum", 0.0, 0.0)
    assert p == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-15)
    p = outcome_probabilities("quantum", 0.0, math.pi / 8)
    assert p == pytest.approx(
        (0.42677669529663687, 0.07322330470336312, 0.07322330470336312, 0.42677669529663687),
        abs=1e-12,
    )


def test_outcome_probabilities_lhv_and_uncorrelated():
    p = outcome_probabilities("lhv", 0.0, math.pi / 8)
    assert p == pytest.approx((0.375, 0.125, 0.125, 0.375), abs=1e-12)
    assert outcome_probabilities("uncorrelated", 0.0, math.pi / 8) == (0.25, 0.25, 0.25, 0.25)


def test_outcome_probabilities_unknown_model():
    with pytest.raises(ValueError):
        outcome_probabilities("psychic", 0.0, 0.0)


def test_chsh_quantum_default():
    assert chsh_value(quantum_correlation, DEFAULT_SETTINGS) == pytest.approx(
        TSIRELSON_BOUND, abs=1e-12
    )


def test_chsh_lhv_default():
    assert chsh_value(lhv_correlation, DEFAULT_SETTINGS) == pytest.approx(2.0, abs=1e-12)


def test_chsh_constant_zero():
    assert chsh_value(lambda a, b: 0.0, DEFAULT_SETTINGS) == 0.0


def test_correlations_bounded():
    rng = np.random.default_rng(11)
    pairs = rng.uniform(-10, 10, size=(100_000, 2))
    for a, b in pairs[:: len(pairs) // 5000]:
        assert abs(quantum_correlation(a, b)) <= 1.0 + 1e-15
        assert abs(lhv_correlation(a, b)) <= 1.0 + 1e-15
    # vectorized check of the full 1e5 sample for the closed forms
    e_q = np.cos(2 * (pairs[:, 0] - pairs[:, 1]))
    delta = np.abs(pairs[:, 0] - pairs[:, 1]) % math.pi
    delta = np.where(delta > math.pi / 2, math.pi - delta, delta)
    e_l = 1 - 4 * delta / math.pi
    assert np.all(np.abs(e_q) <= 1 + 1e-12)
    assert np.all(np.abs(e_l) <= 1 + 1e-12)


def _random_settings(rng, n):
    return [ChshSettings(*angles) for angles in rng.uniform(0, math.pi, size=(n, 4))]


def test_lhv_respects_classical_bound():
    rng = np.random.default_rng(23)
    for settings in _random_settings(rng, 10_000):
        assert abs(chsh_value(lhv_correlation, settings)) <= CLASSICAL_BOUND + 1e-9


def test_quantum_respects_tsirelson_bound():
    rng = np.random.default_rng(29)
    for settings in _random_settings(rng, 10_000):
        assert abs(chsh_value(quantum_correlation, settings)) <= TSIRELSON_BOUND + 1e-9


def test_marginals_unbiased_and_signed_sum_consistent():
    rng = np.random.default_rng(31)
    for a, b in rng.uniform(0, math.pi, size=(500, 2)):
        models = (
            ("quantum", quantum_correlation),
            ("lhv", lhv_correlation),
            ("uncorrelated", lambda a, b: 0.0),
        )
        for model, fn in models:
            p_pp, p_pm, p_mp, p_mm = outcome_probabilities(model, a, b)
            assert min(p_pp, p_pm, p_mp, p_mm) >= 0.0
            assert abs(p_pp + p_pm + p_mp + p_mm - 1.0) <= 1e-12
            assert p_pp + p_pm == pytest.approx(0.5, abs=1e-12)
            assert p_mp + p_mm == pytest.approx(0.5, abs=1e-12)
            assert p_pp + p_mm - p_pm - p_mp == pytest.approx(fn(a, b), abs=1e-12)


def test_outcome_order_and_chsh_signs_rebuild_s():
    # A swap of +- and -+ changes no statistic of these symmetric models, so
    # the order is pinned outright as well as used below.
    assert OUTCOMES == ((1, 1), (1, -1), (-1, 1), (-1, -1))
    products = [x * y for x, y in OUTCOMES]
    rng = np.random.default_rng(37)
    for settings in [DEFAULT_SETTINGS, *_random_settings(rng, 300)]:
        for model, fn in (("quantum", quantum_correlation), ("lhv", lhv_correlation)):
            e = [
                sum(p * q for p, q in zip(outcome_probabilities(model, a, b), products))
                for a, b in settings.pairs()
            ]
            s_table = sum(sign * e_i for sign, e_i in zip(CHSH_SIGNS, e))
            ab, ab_prime, a_prime_b, a_prime_b_prime = settings.pairs()
            s_written = fn(*ab) - fn(*ab_prime) + fn(*a_prime_b) + fn(*a_prime_b_prime)
            assert s_table == pytest.approx(chsh_value(fn, settings), abs=1e-12)
            assert s_table == pytest.approx(s_written, abs=1e-12)

    assert set(FALLBACKS) < set(MODELS)
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("simulate", "sweep"):
        fallback = next(a for a in commands.choices[command]._actions if a.dest == "fallback")
        assert tuple(fallback.choices) == FALLBACKS


@given(st.floats(-100.0, 100.0))
def test_canonical_angle_range(theta):
    folded = canonical_angle(theta)
    assert 0.0 <= folded < math.pi


@given(st.floats(0.0, math.pi), st.floats(0.0, math.pi))
def test_correlations_are_pi_periodic(a, b):
    assert quantum_correlation(a + math.pi, b) == pytest.approx(
        quantum_correlation(a, b), abs=1e-9
    )
    assert lhv_correlation(a + math.pi, b) == pytest.approx(lhv_correlation(a, b), abs=1e-9)


def test_canonical_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_angle(math.inf)


def test_settings_store_canonical_angles():
    s = ChshSettings(a=math.pi + 0.25, a_prime=-0.5, b=0.0, b_prime=0.0)
    assert s.a == pytest.approx(0.25, abs=1e-12)
    assert 0.0 <= s.a_prime < math.pi
