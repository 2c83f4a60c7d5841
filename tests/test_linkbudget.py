import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moonbell import (
    TSIRELSON_BOUND,
    LinkSpec,
    budget_report,
    coincidence_rate,
    geometric_loss_db,
    pairs_for_significance,
)

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def test_geometric_loss_reference_case():
    # 500 km orbit reference stretched to the Earth-Moon distance
    loss = geometric_loss_db(500e3, 3.844e8)
    assert loss == pytest.approx(57.7163, abs=1e-3)
    assert loss == pytest.approx(57.72, abs=0.01)


def test_geometric_loss_identity_and_decade():
    assert geometric_loss_db(1.0, 1.0) == 0.0
    assert geometric_loss_db(5.0, 50.0) == pytest.approx(20.0, abs=1e-12)
    with pytest.raises(ValueError):
        geometric_loss_db(0.0, 1.0)


def test_geometric_loss_log_additive():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b, c = 10.0 ** rng.uniform(0, 9, size=3)
        assert geometric_loss_db(a, b) + geometric_loss_db(b, c) == pytest.approx(
            geometric_loss_db(a, c), abs=1e-9
        )


def test_pairs_for_significance_reference_values():
    assert pairs_for_significance(2 * math.sqrt(2), 3.0) == 27
    assert pairs_for_significance(2 * math.sqrt(2), 1.0) == 3
    assert pairs_for_significance(2 * math.sqrt(2), 1e-9) == 1
    with pytest.raises(ValueError):
        pairs_for_significance(2.0, 3.0)


def test_pairs_for_significance_monotonicity():
    ks = [0.5, 1.0, 2.0, 3.0, 5.0]
    ns = [pairs_for_significance(2.5, k) for k in ks]
    assert ns == sorted(ns)
    ss = [2.05, 2.2, 2.5, 2.8]
    ns = [pairs_for_significance(s, 3.0) for s in ss]
    assert ns == sorted(ns, reverse=True)


def test_pairs_for_significance_below_tsirelson():
    # |E_i| = S/4 gives sum(1 - E_i^2) = 4 - 2.2**2/4 = 2.79, so 628 pairs,
    # where a fixed sum of 2 planned 450 (2.54 sigma).
    assert pairs_for_significance(2.2, 3.0) == 628
    # The float 2.4 lies just below 12/5, so the exact count lies just above 144.
    assert pairs_for_significance(2.4, 3.0) == 145


@given(st.floats(2.0 + 1e-6, TSIRELSON_BOUND), st.floats(0.0, 100.0))
def test_planned_pairs_reach_k_sigma_and_one_fewer_does_not(s, k):
    n = pairs_for_significance(s, k)
    # The per-setting count at which simulate's stderr_s,
    # sqrt(sum(1 - E_i^2)/n) with |E_i| = s/4, puts s exactly k sigma above 2.
    # Computed exactly for these float inputs; the slack covers the plan's
    # own float rounding.
    exact = (4 - Fraction(s) ** 2 / 4) * (Fraction(k) / (Fraction(s) - 2)) ** 2
    slack = exact / 10**14
    assert n >= exact - slack
    assert n == 1 or n - 1 < exact + slack


def test_binomial_oracle_confirms_27_pairs_at_three_sigma():
    # Direct Monte Carlo of the full estimator: at n=27 per setting and a
    # true value of 2*sqrt(2), the sample estimate must exceed the classical
    # bound in at least 99% of replicates.
    n = pairs_for_significance(2 * math.sqrt(2), 3.0)
    rng = np.random.default_rng(2024)
    replicates = 10_000
    e_true = np.array([SQRT2_OVER_2, -SQRT2_OVER_2, SQRT2_OVER_2, SQRT2_OVER_2])
    p_agree = (1.0 + e_true) / 2.0
    agrees = rng.binomial(n, p_agree, size=(replicates, 4))
    e_hat = (2.0 * agrees - n) / n
    s_hat = e_hat[:, 0] - e_hat[:, 1] + e_hat[:, 2] + e_hat[:, 3]
    rejection_rate = float(np.mean(s_hat > 2.0))
    assert rejection_rate >= 0.99


def test_coincidence_rate_values():
    assert coincidence_rate(1e6, 0.0, 0.0) == pytest.approx(1e6)
    assert coincidence_rate(1e6, 30.0, 30.0) == pytest.approx(1.0, rel=1e-12)
    loss = geometric_loss_db(500e3, 3.844e8)
    assert coincidence_rate(1e6, loss, 0.0) == pytest.approx(1.69, rel=2e-2)
    assert coincidence_rate(100.0, 0.0, 0.0, 0.5, 0.5) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        coincidence_rate(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        coincidence_rate(1.0, -1.0, 0.0)


def test_coincidence_rate_multiplicative_in_loss():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = 10.0 ** rng.uniform(0, 7)
        a, b = rng.uniform(0, 40, size=2)
        combined = coincidence_rate(x, a + b, 0.0)
        chained = coincidence_rate(coincidence_rate(x, a, 0.0), b, 0.0)
        assert combined == pytest.approx(chained, rel=1e-9)


def _unit_arm():
    # Zero loss and unit efficiency: the coincidence rate is the pair rate.
    return LinkSpec(length_m=1e3, reference_length_m=1e3, reference_loss_db=0.0)


def test_budget_report_integration_time_and_cadence_flag():
    report = budget_report(_unit_arm(), _unit_arm(), pair_rate_hz=1.0)
    assert report["pairs_required"] == 108
    assert report["integration_time_s"] == pytest.approx(108.0)
    assert not report["cadence_flag"]["correction_applies"]  # 1 Hz is below 12.5/s

    report = budget_report(_unit_arm(), _unit_arm(), pair_rate_hz=12.5)
    assert report["integration_time_s"] == pytest.approx(8.64, rel=1e-12)
    assert report["cadence_flag"]["correction_applies"]  # the threshold itself counts
    assert report["cadence_flag"]["threshold_hz"] == pytest.approx(12.5, rel=1e-12)

    # At ~3,200 dB per arm the rate underflows to 0; the error names the flag.
    lossy = LinkSpec(length_m=1e3, reference_length_m=1e3, reference_loss_db=5000.0)
    with pytest.raises(ValueError, match="--ref-loss-db"):
        budget_report(lossy, lossy, pair_rate_hz=1.0)


def test_budget_report_names_an_arm_shorter_than_its_reference():
    long_arm = LinkSpec(length_m=1e6, reference_length_m=500e3, reference_loss_db=10.0)
    short_arm = LinkSpec(length_m=1e3, reference_length_m=500e3, reference_loss_db=10.0)
    with pytest.raises(ValueError) as excinfo:
        budget_report(long_arm, short_arm, pair_rate_hz=1.0)
    assert str(excinfo.value) == (
        "arm B (1000.0 m) is shorter than --ref-length (500000.0 m) by more than "
        "--ref-loss-db (10.0 dB) covers; its loss would be -43.979 dB"
    )


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(length_m=0.0, reference_length_m=1.0, reference_loss_db=0.0)
    with pytest.raises(ValueError):
        LinkSpec(length_m=1.0, reference_length_m=1.0, reference_loss_db=-1.0)
    with pytest.raises(ValueError):
        LinkSpec(length_m=1.0, reference_length_m=1.0, reference_loss_db=0.0,
                 detector_efficiency=0.0)


def test_budget_report_shape():
    arm_a = LinkSpec(length_m=3.844e8, reference_length_m=500e3, reference_loss_db=30.0,
                     detector_efficiency=0.5)
    arm_b = LinkSpec(length_m=500e3, reference_length_m=500e3, reference_loss_db=30.0,
                     detector_efficiency=0.5)
    report = budget_report(arm_a, arm_b, pair_rate_hz=1e9)
    assert set(report) == {
        "losses_db",
        "coincidence_rate",
        "pairs_required",
        "pairs_per_setting",
        "integration_time_s",
        "cadence_flag",
    }
    assert report["losses_db"]["arm_a"] == pytest.approx(30.0 + 57.7163, abs=1e-3)
    assert report["losses_db"]["arm_b"] == pytest.approx(30.0)
    assert report["pairs_required"] == 108
    assert report["integration_time_s"] == pytest.approx(
        108.0 / report["coincidence_rate"], rel=1e-12
    )
