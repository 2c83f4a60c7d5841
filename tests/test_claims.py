import math

import pytest

from moonbell import all_claims, claims_as_dicts

CLAIMS = {c.claim_id: c for c in all_claims()}

EXPECTED_IDS = {
    "alpha_correction_earth",
    "alpha_correction_moon",
    "apriori_distance_n_minus_1",
    "apriori_distance_n_plus_1",
    "apriori_kappa",
    "cadence_threshold",
    "cao_bound_order",
    "chsh_printed_sign_combination",
    "chsh_quantum_value",
    "earth_moon_distance",
    "earth_moon_gain_bound_ratio",
    "earth_moon_gain_vs_city_separation",
    "gisin_bound_quoted_reference",
    "gisin_bound_section_figure",
    "gisin_bound_spelled_out",
    "lagrange_distance_gain",
    "mars_distance_gain",
}


def test_ledger_covers_all_tracked_figures():
    # Once each, so every report prints one discrepancies[i].claim_id row per figure.
    assert [c.claim_id for c in all_claims()] == sorted(EXPECTED_IDS)


def test_ledger_sorted_and_byte_stable():
    ids = [c.claim_id for c in all_claims()]
    assert ids == sorted(ids)
    assert claims_as_dicts() == claims_as_dicts()


def test_inconsistent_bound_figures_all_logged():
    # Three mutually inconsistent printed values compared with the one
    # formula output 2 * 5300 m / 5 ps.
    computed = CLAIMS["gisin_bound_section_figure"].computed_value
    assert computed == pytest.approx(7_071_558.82, rel=1e-9)
    assert CLAIMS["gisin_bound_quoted_reference"].paper_value == 32e7
    assert CLAIMS["gisin_bound_spelled_out"].paper_value == 7e5
    assert CLAIMS["gisin_bound_section_figure"].paper_value == 7e6
    assert CLAIMS["cao_bound_order"].paper_value == 1e7


def test_chsh_claims():
    assert CLAIMS["chsh_quantum_value"].computed_value == pytest.approx(
        2 * math.sqrt(2), abs=1e-12
    )
    assert CLAIMS["chsh_printed_sign_combination"].computed_value == pytest.approx(
        math.sqrt(2), abs=1e-12
    )
    assert CLAIMS["chsh_quantum_value"].paper_value == 2.2


def test_gain_claims():
    assert CLAIMS["earth_moon_gain_vs_city_separation"].computed_value == pytest.approx(
        319.534, rel=1e-4
    )
    assert CLAIMS["earth_moon_gain_bound_ratio"].computed_value == pytest.approx(
        549.143, rel=1e-4
    )
    assert CLAIMS["lagrange_distance_gain"].computed_value == pytest.approx(20.0, rel=1e-9)
    assert CLAIMS["mars_distance_gain"].computed_value == pytest.approx(585.33, rel=1e-3)


def test_both_distance_conventions_surfaced():
    c = CLAIMS["earth_moon_distance"]
    assert c.paper_value == 3.9e8
    assert c.computed_value == 3.844e8


def test_cadence_claim():
    c = CLAIMS["cadence_threshold"]
    assert c.paper_value == 12.0
    assert c.computed_value == pytest.approx(12.5, rel=1e-12)


def test_dict_rows_match_csv_columns():
    rows = claims_as_dicts()
    assert all(
        set(row) == {
            "claim_id",
            "paper_location",
            "paper_value",
            "computed_value",
            "relative_difference",
            "note",
        }
        for row in rows
    )
    for row in rows:
        assert math.isfinite(row["relative_difference"])
