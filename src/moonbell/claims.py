"""Ledger of figures printed in the analyzed proposal versus recomputed values.

The Earth-Moon proposal this toolkit models prints several numbers that do
not follow from its own formulas (bounds quoted three inconsistent ways,
proper-time corrections off by orders of magnitude, a Bell value of 2.2).
Rather than silently "fixing" them, every such figure is kept here as a
claim: where it appears in the source text, the printed value, and the value
this package computes from the stated formula and reference constants.
Reports embed the full ledger so the two columns can always be compared.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bell import DEFAULT_SETTINGS, chsh_value, quantum_correlation
from .bounds import cadence_threshold, gain_factor, kappa, proper_time_correction, speed_bound
from .constants import CONSTANTS
from .scenario import detector_separation, preset

# Proper-time corrections as printed in the proposal text (dimensionless).
PUBLISHED_ALPHA_CORRECTION_EARTH = 0.08
PUBLISHED_ALPHA_CORRECTION_MOON = 0.0031

# Detection rate above which the printed corrections start to matter
# (1/0.08 = 12.5 photons/s).
PUBLISHED_CADENCE_THRESHOLD_HZ = cadence_threshold(
    PUBLISHED_ALPHA_CORRECTION_EARTH, PUBLISHED_ALPHA_CORRECTION_MOON
)

# Earth-Moon distance as rounded in the proposal's abstract, m.
PUBLISHED_EARTH_MOON_DISTANCE_M = 3.9e8


class Claim(NamedTuple):
    """One printed figure and the value recomputed from the stated formula."""

    claim_id: str
    paper_location: str
    paper_value: float
    computed_value: float
    note: str = ""

    @property
    def relative_difference(self) -> float:
        """(computed - printed) / printed; signed."""
        return (self.computed_value - self.paper_value) / self.paper_value


def _printed_combination() -> float:
    # The source text prints the Bell combination with a minus sign on the fourth term.
    s = 0.0
    for sign, (a, b) in zip((1, -1, 1, -1), DEFAULT_SETTINGS.pairs()):
        s += sign * quantum_correlation(a, b)
    return s


def all_claims() -> tuple[Claim, ...]:
    """The full ledger, sorted by claim id (stable across runs)."""
    gisin = preset("gisin1999")
    cao = preset("cao2017")
    case3 = preset("earth_moon_case3")
    lagrange = preset("lagrange_l4l5")
    mars = preset("mars")

    v_gisin = speed_bound(gisin).v_min_over_c
    v_cao = speed_bound(cao).v_min_over_c
    k = kappa()

    claims = [
        Claim(
            "chsh_quantum_value",
            "section 2",
            2.2,
            chsh_value(quantum_correlation, DEFAULT_SETTINGS),
            "printed quantum Bell value vs cos-law maximum 2*sqrt(2)",
        ),
        Claim(
            "chsh_printed_sign_combination",
            "section 2",
            2.2,
            _printed_combination(),
            "the printed combination (minus sign on the fourth term) evaluates to sqrt(2)",
        ),
        Claim(
            "gisin_bound_quoted_reference",
            "footnote 1",
            32e7,
            v_gisin,
            "bound quoted from the 1999 experiment report",
        ),
        Claim(
            "gisin_bound_section_figure",
            "section 3.2",
            7e6,
            v_gisin,
            "order-of-magnitude figure in the running text",
        ),
        Claim(
            "gisin_bound_spelled_out",
            "section 3.2",
            7e5,
            v_gisin,
            "'700000 times c' in the running text",
        ),
        Claim(
            "cao_bound_order",
            "section 4.1",
            1e7,
            v_cao,
            "satellite-experiment bound quoted as order 1e7 c",
        ),
        Claim(
            "earth_moon_distance",
            "abstract",
            PUBLISHED_EARTH_MOON_DISTANCE_M,
            CONSTANTS.d_earth_moon_mean,
            "rounded 390,000 km vs mean-distance reference",
        ),
        Claim(
            "earth_moon_gain_vs_city_separation",
            "section 4.2",
            300.0,
            CONSTANTS.d_earth_moon_mean / detector_separation(cao),
            "Earth-Moon distance over the 1203 km ground separation",
        ),
        Claim(
            "earth_moon_gain_bound_ratio",
            "section 4.2",
            300.0,
            gain_factor(case3, cao),
            "ratio of the speed bounds themselves (arm-length ratio)",
        ),
        Claim(
            "lagrange_distance_gain",
            "section 4.2",
            20.0,
            gain_factor(lagrange, case3),
            "gain of the Lagrange-spacecraft configuration over Earth-Moon",
        ),
        Claim(
            "mars_distance_gain",
            "section 4.3",
            1000.0,
            gain_factor(mars, case3),
            "order-of-magnitude gain of a Mars link over Earth-Moon",
        ),
        Claim(
            "alpha_correction_earth",
            "section 4.2",
            PUBLISHED_ALPHA_CORRECTION_EARTH,
            proper_time_correction(CONSTANTS.GM_earth, CONSTANTS.R_earth),
            "printed 1 - alpha for Earth vs GM/(R c^2)",
        ),
        Claim(
            "alpha_correction_moon",
            "section 4.2",
            PUBLISHED_ALPHA_CORRECTION_MOON,
            proper_time_correction(CONSTANTS.GM_moon, CONSTANTS.R_moon),
            "printed 1 - alpha for the Moon vs GM/(R c^2)",
        ),
        Claim(
            "cadence_threshold",
            "section 4.2",
            12.0,
            PUBLISHED_CADENCE_THRESHOLD_HZ,
            "printed 12 photons/sec vs 1/0.08 from the printed corrections",
        ),
        Claim(
            "apriori_kappa",
            "section 3.3",
            1e-39,
            k,
            "order-of-magnitude coupling vs G m_p^2/(hbar c)",
        ),
        Claim(
            "apriori_distance_n_minus_1",
            "section 3.3",
            1e37,
            CONSTANTS.planck_length / k,
            "printed 1e39 cm vs kappa^-1 times the Planck length",
        ),
        Claim(
            "apriori_distance_n_plus_1",
            "section 3.3",
            1e-41,
            CONSTANTS.planck_length * k,
            "printed 1e-39 cm vs kappa times the Planck length",
        ),
    ]
    claims.sort(key=lambda c: c.claim_id)
    return tuple(claims)


def claims_as_dicts() -> list[dict]:
    """Ledger rows as plain dicts (report embedding): every field plus ``relative_difference``."""
    return [{**c._asdict(), "relative_difference": c.relative_difference} for c in all_claims()]
