"""Operational lower bounds on the speed of quantum correlations.

The core rule: if two measurements of duration tau are performed
simultaneously on the two subsystems, an influence confined to the photon
trace paths must cover twice the longest source-to-detector path within tau,
so any experiment that still sees quantum correlations implies

    v_min / c = 2 * L_max / (tau * c).

The second connectivity rule, the event model of :func:`critical_speed`,
charges L_0 + L_1 on one emission's integer-femtosecond timeline in the
privileged frame (:func:`scenario_timing`).  This module also covers
configuration-to-configuration gain factors, gravitational proper-time rate
differences between sites, and the dimensional-analysis survey of a-priori
speed/distance scales.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import CONSTANTS, FS_PER_SECOND, checked
from .scenario import Scenario, light_time

CLASSIFICATIONS = ("excluded", "unobservable_at_earth_moon", "observable")


class SpeedBound(NamedTuple):
    """Result of the 2*L_max/tau rule, speed in units of c."""

    l_max_m: float
    tau_s: float
    v_min_over_c: float


def speed_bound(scenario: Scenario, tau_override_s: float | None = None) -> SpeedBound:
    """Lower bound on the correlation speed implied by ``scenario``.

    ``tau_override_s`` replaces the scenario's measurement duration; by
    default the larger of the two arm durations is used (the conservative
    choice: a slower measurement weakens the bound).

    The rule charges the influence 2 * L_max within tau, with simultaneous
    starts; the event model, :func:`critical_speed`, charges L_0 + L_1
    within its femtosecond window instead.
    """
    if tau_override_s is None:
        tau, origin = max(a.tau_s for a in scenario.arms), "the scenario's tau_s"
    elif not tau_override_s > 0.0:
        raise ValueError(f"tau override (--tau) must be > 0, got {tau_override_s!r} s")
    elif not math.isfinite(tau_override_s):
        raise ValueError(f"tau override (--tau) must be finite, got {tau_override_s!r} s")
    else:
        tau, origin = tau_override_s, "tau override (--tau)"
    l_max = max(arm.length_m for arm in scenario.arms)
    v_min_over_c = 2.0 * l_max / (tau * CONSTANTS.c)
    if not 0.0 < v_min_over_c < math.inf:
        raise ValueError(f"{origin} {tau!r} s puts v_min/c = {v_min_over_c!r} out of float range")
    return SpeedBound(l_max_m=l_max, tau_s=tau, v_min_over_c=v_min_over_c)


class ArmTiming(NamedTuple):
    """Integer-femtosecond event times for one arm."""

    arrival_fs: int
    measure_start_fs: int
    measure_end_fs: int


def _to_fs(seconds: float) -> int:
    """Nearest integer femtosecond."""
    return int(round(seconds * FS_PER_SECOND))


def scenario_timing(scenario: Scenario) -> tuple[ArmTiming, ArmTiming]:
    """Arrival and measurement window per arm for an emission at 0 fs."""
    timings = []
    for arm in scenario.arms:
        arrival = _to_fs(light_time(arm.length_m))
        start = arrival + _to_fs(arm.offset_s)
        end = start + _to_fs(arm.tau_s)
        timings.append(ArmTiming(arrival, start, end))
    return (timings[0], timings[1])


def _threshold(
    timing: tuple[ArmTiming, ArmTiming], lengths_m: tuple[float, float], depart_at_end: bool
) -> float:
    """Smallest v_over_c whose influence covers L_0 + L_1 within the window; inf if empty."""
    # Arm with the earlier measurement start emits the influence; ties go to
    # arm 0 (symmetric timings make the choice irrelevant).
    first, second = (
        (timing[0], timing[1])
        if timing[0].measure_start_fs <= timing[1].measure_start_fs
        else (timing[1], timing[0])
    )
    departure = first.measure_end_fs if depart_at_end else first.measure_start_fs
    window_fs = second.measure_end_fs - departure
    if window_fs <= 0:
        return math.inf
    total_m = lengths_m[0] + lengths_m[1]
    v = total_m * FS_PER_SECOND / (CONSTANTS.c * window_fs)
    # Round up to the first float whose travel time, cross-multiplied, fits
    # the window, so the quotient's rounding never admits a late influence.
    while not total_m * FS_PER_SECOND <= v * (CONSTANTS.c * window_fs):
        v = math.nextafter(v, math.inf)
    return v


def critical_speed(scenario: Scenario, depart_at_end: bool = False) -> float:
    """Smallest v_over_c (inclusive) at which ``scenario`` is connected.

    v* = (L_0 + L_1) / (c * window), rounded up to the first float whose
    travel time fits the window (start lag + later measurement duration, in
    fs); inf for an empty window.  This event model charges the influence
    L_0 + L_1 within that window, whereas :func:`speed_bound` charges
    2 * L_max within tau with simultaneous starts.
    """
    timing = scenario_timing(scenario)
    lengths = (scenario.arms[0].length_m, scenario.arms[1].length_m)
    return _threshold(timing, lengths, depart_at_end)


def gain_factor(scenario_new: Scenario, scenario_ref: Scenario, tau_s: float | None = None) -> float:
    """Ratio of the two scenarios' speed bounds, both at ``tau_s``.

    ``tau_s`` is passed to :func:`speed_bound` for both scenarios, so a
    given tau makes the gain the ratio of their longest arms; by default
    each scenario keeps its own measurement duration.
    """
    return speed_bound(scenario_new, tau_s).v_min_over_c / speed_bound(scenario_ref, tau_s).v_min_over_c


def proper_time_correction(gm_m3_s2: float, radius_m: float) -> float:
    """Proper-time correction 1 - alpha = GM/(R c^2) for a site on a body's surface.

    ``gm_m3_s2`` is the body's gravitational parameter GM; the correction is
    the fractional clock-rate offset relative to a far-away observer.
    """
    if not (gm_m3_s2 > 0.0 and radius_m > 0.0):
        raise ValueError("GM and R must be > 0")
    return gm_m3_s2 / (radius_m * CONSTANTS.c**2)


def cadence_threshold(correction_a: float, correction_b: float) -> float:
    """Detection rate above which the clock-rate difference matters, photons/s.

    Once more than one photon is detected per 1/correction seconds, the
    per-event timestamps shift by a visible fraction of the spacing, so the
    proper-time correction must enter the timing analysis.
    """
    if correction_a < 0.0 or correction_b < 0.0:
        raise ValueError("corrections must be >= 0")
    worst = max(correction_a, correction_b)
    if worst == 0.0:
        raise ValueError("both corrections are zero; no finite cadence threshold")
    return 1.0 / worst


@checked
class ObservationWindow(NamedTuple):
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


def kappa(mass_kg: float = CONSTANTS.m_proton) -> float:
    """Dimensionless gravitational coupling G m^2 / (hbar c) for the given mass.

    For the proton this is about 5.9e-39; integer powers of it generate the
    only a-priori speed/distance scales available from constants alone.
    """
    if not mass_kg > 0.0:
        raise ValueError(f"mass (--mass) must be > 0, got {mass_kg!r} kg")
    try:
        k = CONSTANTS.G * mass_kg**2 / (CONSTANTS.hbar * CONSTANTS.c)
    except OverflowError:
        k = math.inf
    if not 0.0 < k < math.inf:
        raise ValueError(f"mass (--mass) {mass_kg!r} kg puts kappa outside the float range")
    return k


@checked
class AprioriCandidate(NamedTuple):
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
    anything else is observable.
    """
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
