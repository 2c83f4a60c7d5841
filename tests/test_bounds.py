import math

import numpy as np
import pytest

from moonbell import (
    CONSTANTS,
    EARTH_MOON_WINDOW,
    ObservationWindow,
    apriori_scales,
    cadence_threshold,
    classify_scale,
    gain_factor,
    kappa,
    load_scenario,
    mond_candidate,
    preset,
    proper_time_correction,
    scenario_to_dict,
    speed_bound,
    symmetric_scenario,
)

C = 299_792_458.0


def test_speed_bound_gisin():
    b = speed_bound(preset("gisin1999"))
    assert b.l_max_m == pytest.approx(5300.0, rel=1e-12)
    assert b.tau_s == 5e-12
    # 2 * 5300 / (5e-12 * c)
    assert b.v_min_over_c == pytest.approx(7_071_558.818200824, rel=1e-12)
    assert b.v_min_over_c == pytest.approx(7.072e6, rel=5e-3)


def test_speed_bound_cao():
    b = speed_bound(preset("cao2017"))
    assert b.v_min_over_c == pytest.approx(933_979_466.55, rel=1e-9)
    assert b.v_min_over_c == pytest.approx(9.34e8, rel=5e-3)


def test_speed_bound_earth_moon_case3():
    b = speed_bound(preset("earth_moon_case3"))
    assert b.l_max_m == pytest.approx(3.844e8, rel=1e-12)
    assert b.v_min_over_c == pytest.approx(512_888_152_776.68, rel=1e-9)
    assert b.v_min_over_c == pytest.approx(5.13e11, rel=5e-3)


def test_speed_bound_tau_override():
    b5 = speed_bound(preset("gisin1999"))
    b10 = speed_bound(preset("gisin1999"), tau_override_s=10e-12)
    assert b10.v_min_over_c == pytest.approx(b5.v_min_over_c / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        speed_bound(preset("gisin1999"), tau_override_s=0.0)


def test_speed_bound_invariant_by_construction():
    for name in ("gisin1999", "cao2017", "mars"):
        b = speed_bound(preset(name))
        assert b.v_min_over_c == pytest.approx(
            2.0 * b.l_max_m / (b.tau_s * C), rel=1e-12
        )


def _scaled(scenario, k):
    doc = scenario_to_dict(scenario)
    doc["source"]["position"] = [k * x for x in doc["source"]["position"]]
    for arm in doc["arms"]:
        arm["detector"]["position"] = [k * x for x in arm["detector"]["position"]]
        arm["path"] = [[k * x for x in v] for v in arm["path"]]
    return load_scenario(doc)


def test_scaling_laws():
    base = preset("cao2017")
    v0 = speed_bound(base).v_min_over_c
    for k in (0.5, 2.0, 7.25):
        assert speed_bound(_scaled(base, k)).v_min_over_c == pytest.approx(
            k * v0, rel=1e-12
        )
        assert speed_bound(base, tau_override_s=k * 5e-12).v_min_over_c == pytest.approx(
            v0 / k, rel=1e-12
        )


def test_bound_uses_doubled_max_not_sum():
    # 2 * L_max >= L_0 + L_1: the simultaneous-measurement case is the most
    # constraining one for any geometry.
    rng = np.random.default_rng(3)
    for _ in range(50):
        l_short = rng.uniform(1.0, 1e8)
        l_long = l_short + rng.uniform(0.0, 1e8)
        s = symmetric_scenario(l_long)
        b = speed_bound(s)
        assert 2.0 * b.l_max_m >= l_short + l_long - 1e-6


def test_gain_factors():
    case3 = preset("earth_moon_case3")
    cao = preset("cao2017")
    assert gain_factor(case3, cao) == pytest.approx(549.142857, rel=1e-6)
    assert gain_factor(case3, case3) == 1.0
    assert 500.0 <= gain_factor(preset("mars"), case3) <= 2000.0
    assert gain_factor(preset("lagrange_l4l5"), case3) == pytest.approx(20.0, rel=1e-9)


def test_gain_factor_reciprocal():
    rng = np.random.default_rng(17)
    names = list(("gisin1999", "cao2017", "earth_moon_case1", "mars"))
    for _ in range(10):
        a, b = rng.choice(names, size=2)
        assert gain_factor(preset(a), preset(b)) * gain_factor(preset(b), preset(a)) == (
            pytest.approx(1.0, rel=1e-12)
        )


def test_proper_time_correction_earth_moon():
    earth = proper_time_correction(CONSTANTS.GM_earth, CONSTANTS.R_earth)
    moon = proper_time_correction(CONSTANTS.GM_moon, CONSTANTS.R_moon)
    assert earth == pytest.approx(6.961274586591855e-10, rel=1e-12)
    assert moon == pytest.approx(3.141132338039993e-11, rel=1e-12)
    assert 0.0 < 1.0 - earth < 1.0


def test_proper_time_flat_limit():
    assert 1.0 - proper_time_correction(1e-30, CONSTANTS.R_earth) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        proper_time_correction(-1.0, 1.0)


def test_proper_time_monotonicity():
    rng = np.random.default_rng(19)
    for _ in range(100):
        gm = rng.uniform(1e10, 1e18)
        r = rng.uniform(1e5, 1e8)
        base = proper_time_correction(gm, r)
        assert proper_time_correction(gm * 1.5, r) > base
        assert proper_time_correction(gm, r * 1.5) < base


def test_cadence_threshold():
    assert cadence_threshold(0.08, 0.0031) == pytest.approx(12.5, rel=1e-12)
    computed = cadence_threshold(
        proper_time_correction(CONSTANTS.GM_earth, CONSTANTS.R_earth),
        proper_time_correction(CONSTANTS.GM_moon, CONSTANTS.R_moon),
    )
    assert computed == pytest.approx(1.4365e9, rel=1e-3)
    x = 0.125
    assert cadence_threshold(x, x) == pytest.approx(1.0 / x, rel=1e-12)
    with pytest.raises(ValueError):
        cadence_threshold(0.0, 0.0)
    with pytest.raises(ValueError):
        cadence_threshold(-0.08, 0.0031)


def test_kappa_proton():
    assert kappa() == pytest.approx(5.906149417423905e-39, rel=1e-12)
    assert kappa(CONSTANTS.m_proton * 2) == pytest.approx(4 * kappa(), rel=1e-12)


def test_apriori_base_case_excluded():
    rows = apriori_scales([0])
    base = [r for r in rows if r.v_over_c == math.inf]
    assert len(base) == 1 and base[0].classification == "excluded"
    n0 = [r for r in rows if r.n == 0 and r.v_over_c == 1.0]
    assert n0[0].d_m == CONSTANTS.planck_length
    assert n0[0].classification == "excluded"


def test_apriori_power_candidates():
    rows = {r.n: r for r in apriori_scales([-1, 1])[1:]}
    k = kappa()
    # N=+1 drops far below the Planck length: excluded.
    assert rows[1].d_m == pytest.approx(k * CONSTANTS.planck_length, rel=1e-12)
    assert rows[1].classification == "excluded"
    # N=-1 lands at kilometres, inside the default window, hence observable
    # under the classification rule (the analyzed text calls this scale
    # unobservable; the discrepancy ledger records that figure).
    assert rows[-1].d_m == pytest.approx(CONSTANTS.planck_length / k, rel=1e-12)
    assert rows[-1].d_m == pytest.approx(2736.56, rel=1e-4)
    assert rows[-1].classification == "observable"


def test_apriori_empty_list_rejected():
    with pytest.raises(ValueError):
        apriori_scales([])


def test_mond_unobservable_at_earth_moon():
    row = mond_candidate()
    assert row.d_m == pytest.approx(10 * CONSTANTS.kpc, rel=1e-12)
    assert row.d_m == pytest.approx(3.09e20, rel=1e-2)
    assert row.classification == "unobservable_at_earth_moon"
    assert row.v_over_c is None


def test_classification_total_and_deterministic():
    rng = np.random.default_rng(37)
    window = EARTH_MOON_WINDOW
    for d in 10.0 ** rng.uniform(-40, 25, size=1000):
        cls = classify_scale(d, window)
        assert cls in ("excluded", "unobservable_at_earth_moon", "observable")
        assert classify_scale(d, window) == cls
    assert classify_scale(CONSTANTS.planck_length) == "excluded"
    assert classify_scale(1e-3) == "excluded"  # below the window floor
    assert classify_scale(1.0) == "observable"
    assert classify_scale(1e12) == "unobservable_at_earth_moon"


def test_window_validation():
    with pytest.raises(ValueError):
        ObservationWindow(1.0, 1.0)
    with pytest.raises(ValueError, match="must be >= 0 m, got -1.0"):
        ObservationWindow(-1.0, 0.0)
    assert ObservationWindow(0.0, math.inf).d_min_m == 0.0
