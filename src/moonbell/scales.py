"""The dimensional-analysis survey of a-priori speed/distance scales: integer
powers N of the gravitational coupling :func:`moonbell.bounds.kappa` give a
candidate speed V = kappa^N * c and distance D = kappa^N times the Planck
length, and each candidate, with the modified-gravity scale, is classified
against the distances an Earth-Moon experiment can probe.  Only the
``scales`` command, whose handler lives here, loads this module.
"""

from __future__ import annotations

import math

from .bounds import kappa
from .constants import CONSTANTS, record

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

CLASSIFICATIONS = ("excluded", "unobservable_at_earth_moon", "observable")


@record
class ObservationWindow:
    """Distance scales an experiment can probe, m."""

    d_min_m: float
    d_max_m: float

    def _checked(self) -> ObservationWindow:
        if not self.d_min_m >= 0.0:
            raise ValueError(f"window floor (--d-min) must be >= 0 m, got {self.d_min_m!r}")
        if not self.d_max_m > self.d_min_m:
            raise ValueError(
                f"window ceiling (--d-max) must be > the floor (--d-min, {self.d_min_m!r} m), "
                f"got {self.d_max_m!r}"
            )
        return self


# What an Earth-Moon experiment can see: roughly centimetres up to ten times
# the Earth-Moon distance.
EARTH_MOON_WINDOW = ObservationWindow(1e-2, 10.0 * CONSTANTS.d_earth_moon_mean)

# Distance scale of modified-gravity phenomenology, m.
MOND_SCALE_M = 10.0 * CONSTANTS.kpc


@record
class AprioriCandidate:
    """One dimensional-analysis candidate: speed V, distance scale D.

    ``n`` is the power of kappa applied to the base values (V = c,
    D = Planck length); ``n=None`` marks rows that do not come from the
    kappa construction (the modified-gravity scale).  ``v_over_c`` may be
    ``inf`` for the instantaneous base case or ``None`` when the hypothesis
    fixes no speed.
    """

    n: int | None
    v_over_c: float | None
    d_m: float
    classification: str

    def _checked(self) -> AprioriCandidate:
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"bad classification {self.classification!r}")
        if self.v_over_c is not None and not self.v_over_c > 0.0:
            raise ValueError("v_over_c must be > 0")
        return self


def classify_scale(d_m: float, window: ObservationWindow = EARTH_MOON_WINDOW) -> str:
    """Deterministic, total classification of a distance scale.

    Below the Planck length (or the window floor) the scale is excluded;
    beyond the window ceiling it cannot be observed at Earth-Moon scale;
    anything else is observable.  NaN is no distance and raises ValueError.
    """
    if math.isnan(d_m):
        raise ValueError(f"distance scale must be a number, got {d_m!r}")
    if d_m <= CONSTANTS.planck_length or d_m < window.d_min_m:
        return "excluded"
    if d_m > window.d_max_m:
        return "unobservable_at_earth_moon"
    return "observable"


def apriori_scales(
    n_values: list[int],
    mass_kg: float = CONSTANTS.m_proton,
    window: ObservationWindow = EARTH_MOON_WINDOW,
) -> list[AprioriCandidate]:
    """Enumerate kappa-power candidates for the given exponents.

    Each exponent N yields V = kappa^N * c and D = kappa^N * (Planck
    length).  The instantaneous base case (V infinite, D at the Planck
    length) comes first, since fundamental constants alone allow V = c or
    V = infinity.
    """
    if not n_values:
        raise ValueError("n_values must not be empty")
    k = kappa(mass_kg)
    candidates = [
        AprioriCandidate(
            n=0,
            v_over_c=math.inf,
            d_m=CONSTANTS.planck_length,
            classification=classify_scale(CONSTANTS.planck_length, window),
        )
    ]
    for n in n_values:
        try:
            v_over_c = k**n
        except OverflowError:
            v_over_c = math.inf
        if not 0.0 < v_over_c < math.inf:
            raise ValueError(
                f"kappa**{n} is outside the float range: exponent (--n-values) {n}, "
                f"mass (--mass) {mass_kg!r} kg"
            )
        d_m = v_over_c * CONSTANTS.planck_length
        candidates.append(
            AprioriCandidate(
                n=n,
                v_over_c=v_over_c,
                d_m=d_m,
                classification=classify_scale(d_m, window),
            )
        )
    return candidates


def mond_candidate(window: ObservationWindow = EARTH_MOON_WINDOW) -> AprioriCandidate:
    """The modified-gravity distance scale (about 10 kpc), no speed attached."""
    return AprioriCandidate(
        n=None,
        v_over_c=None,
        d_m=MOND_SCALE_M,
        classification=classify_scale(MOND_SCALE_M, window),
    )


def cmd_scales(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.n_values is not None:
        parts = [p.strip() for p in args.n_values.split(",") if p.strip()]
        if not parts:
            raise ValueError("--n-values must list at least one integer exponent")
        try:
            n_values = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"--n-values: {args.n_values!r} is not a comma-separated list of integers") from None
    else:
        n_values = [-1, 0, 1]
    window = ObservationWindow(
        EARTH_MOON_WINDOW.d_min_m if args.d_min is None else args.d_min,
        EARTH_MOON_WINDOW.d_max_m if args.d_max is None else args.d_max,
    )
    rows = apriori_scales(n_values, mass_kg=args.mass, window=window)
    rows.append(mond_candidate(window))
    inputs = {
        "n_values": n_values,
        "mass_kg": args.mass,
        "window_m": {"d_min": window.d_min_m, "d_max": window.d_max_m},
    }
    return inputs, {"rows": [r._asdict() for r in rows]}
