"""Experiment geometries: sites, photon trace paths and presets.

A :class:`Scenario` is a static snapshot of one Bell-test configuration in a
single inertial frame (taken to be at rest with respect to the laboratory).
Each of the two arms records the piecewise-linear path its photon travels
from the source to the detector; mirrors appear as intermediate vertices.
"""

from __future__ import annotations

import math

from .constants import CONSTANTS, DEFAULT_TAU_S, FS_PER_SECOND, record

Vec = tuple[float, float, float]

# A path must meet its declared source/detector positions within 1 mm.
ENDPOINT_TOLERANCE_M = 1e-3

# Length of the "local" arm in presets where one detector sits next to the
# source.  Kept below c*tau/2 (~0.75 mm at the 5 ps default) so that, with
# measurements at the natural photon arrival times, an influence moving at
# light speed still connects the two measurements.
LOCAL_ARM_M = 5e-4

# Typical Earth-Mars separation used by the mars preset, m.
MARS_DISTANCE_M = 2.25e11

# Detector-spacecraft separation for the Lagrange-point preset: twenty times
# the Earth-Moon distance, matching the claimed distance gain of that
# configuration.
LAGRANGE_ARM_M = 20.0 * CONSTANTS.d_earth_moon_mean

class ScenarioError(ValueError):
    """A scenario document or geometry violates an invariant.

    ``field`` carries a dotted/indexed path such as ``arms[0].tau_s`` when
    the problem can be pinned to one field of the input document.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message if field is None else f"{field}: {message}")
        self.reason = message
        self.field = field


class UnknownPresetError(LookupError):
    """Requested preset name is not one of :data:`PRESET_NAMES`."""


@record
class Site:
    """A named location, Cartesian metres in the privileged frame."""

    name: str
    position: Vec

    def _checked(self) -> Site:
        if any(not math.isfinite(x) for x in self.position):
            raise ScenarioError("site position must be finite", self.name)
        return self


@record
class Arm:
    """One detector, the photon path reaching it, and its measurement window.

    ``path`` holds the vertices of the straight segments the photon
    traverses, source first. The same route is the medium along which a
    finite-speed collapse influence is assumed to propagate, so its total
    length (not the straight-line endpoint separation) enters every bound.
    """

    detector: Site
    path: tuple[Vec, ...]
    tau_s: float
    offset_s: float = 0.0

    def _checked(self) -> Arm:
        if len(self.path) < 2:
            raise ScenarioError("a trace path needs at least 2 vertices", "path")
        if any(not math.isfinite(x) for vertex in self.path for x in vertex):
            raise ScenarioError("path vertices must be finite", "path")
        for i in range(len(self.path) - 1):
            if math.dist(self.path[i], self.path[i + 1]) == 0.0:
                raise ScenarioError(f"consecutive vertices {i} and {i + 1} coincide", "path")
        if not self.tau_s > 0.0:
            raise ScenarioError("measurement duration tau_s must be > 0", "tau_s")
        if not self.offset_s >= 0.0:
            raise ScenarioError("measurement offset_s must be >= 0", "offset_s")
        # bounds.scenario_timing rounds event times to integer femtoseconds and
        # bounds.critical_speed multiplies windows by c; both must stay finite.
        # This also rejects infinite lengths and times.
        elapsed_s = 0.0
        for field, seconds in (
            ("path", light_time(self.length_m)),
            ("offset_s", self.offset_s),
            ("tau_s", self.tau_s),
        ):
            elapsed_s += seconds
            if not math.isfinite(elapsed_s * FS_PER_SECOND * CONSTANTS.c):
                raise ScenarioError("event time is too large to represent in femtoseconds", field)
        return self

    @property
    def length_m(self) -> float:
        """Trace-path length: sum of Euclidean segment lengths, m."""
        return sum(math.dist(self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1))


@record
class Scenario:
    """A complete two-arm experiment geometry.

    Immutable after construction; safe to share between threads/processes.
    """

    name: str
    source: Site
    arms: tuple[Arm, Arm]
    frame_note: str = "coordinates at rest relative to the laboratory"

    def _checked(self) -> Scenario:
        if len(self.arms) != 2:
            raise ScenarioError("a scenario has exactly 2 arms", "arms")
        for i, arm in enumerate(self.arms):
            if math.dist(arm.path[0], self.source.position) > ENDPOINT_TOLERANCE_M:
                raise ScenarioError(
                    "path must start at the source position (within 1 mm)",
                    f"arms[{i}].path",
                )
            if math.dist(arm.path[-1], arm.detector.position) > ENDPOINT_TOLERANCE_M:
                raise ScenarioError(
                    "path must end at the detector position (within 1 mm)",
                    f"arms[{i}].path",
                )
        return self


def detector_separation(scenario: Scenario) -> float:
    """Straight-line distance between the two detectors, m.

    Reported for comparison only; connectivity verdicts always use the
    trace-path lengths.
    """
    return math.dist(scenario.arms[0].detector.position, scenario.arms[1].detector.position)


def light_time(length_m: float) -> float:
    """Time light needs to cover ``length_m`` in vacuum, s."""
    if not length_m >= 0.0:
        raise ValueError(f"length must be >= 0, got {length_m!r}")
    return length_m / CONSTANTS.c


def _two_arm_scenario(
    name: str, source: Site, det_a: Site, det_b: Site, *mirrors_b: Vec
) -> Scenario:
    """Arm A runs straight from the source to ``det_a``; arm B reaches
    ``det_b`` by way of ``mirrors_b``, in order."""
    arms = (
        Arm(det_a, (source.position, det_a.position), DEFAULT_TAU_S),
        Arm(det_b, (source.position, *mirrors_b, det_b.position), DEFAULT_TAU_S),
    )
    return Scenario(name=name, source=source, arms=arms)


# The built-in geometries: source, detector A, detector B and any mirror on
# arm B, in the order `presets` lists them.
_PRESETS: dict[str, tuple[Site, Site, Site] | tuple[Site, Site, Site, Vec]] = {
    # Source midway between detectors 10.6 km apart.
    "gisin1999": (
        Site("source_midpoint", (0.0, 0.0, 0.0)),
        Site("detector_west", (-5300.0, 0.0, 0.0)),
        Site("detector_east", (5300.0, 0.0, 0.0)),
    ),
    # Source 700 km from each of two stations 1203 km apart (a flat 700 km
    # estimate per arm).
    "cao2017": (
        Site("satellite", (0.0, math.sqrt(700e3**2 - 601.5e3**2), 0.0)),
        Site("ground_station_a", (-601.5e3, 0.0, 0.0)),
        Site("ground_station_b", (601.5e3, 0.0, 0.0)),
    ),
    # Source on Earth, local arm plus Earth-to-Moon arm.
    "earth_moon_case1": (
        Site("earth_source", (0.0, 0.0, 0.0)),
        Site("earth_station", (0.0, LOCAL_ARM_M, 0.0)),
        Site("moon_station", (CONSTANTS.d_earth_moon_mean, 0.0, 0.0)),
    ),
    # Source on Earth, local arm plus a beam retro-reflected by a lunar
    # mirror to a receiver next to the transmitter: path length twice the
    # Earth-Moon distance.
    "earth_moon_case2": (
        Site("earth_source", (0.0, 0.0, 0.0)),
        Site("earth_station", (0.0, LOCAL_ARM_M, 0.0)),
        Site("earth_return_station", (0.0, 0.0, 0.0)),
        (CONSTANTS.d_earth_moon_mean, 0.0, 0.0),
    ),
    # Source on the Moon, local arm plus Moon-to-Earth arm.
    "earth_moon_case3": (
        Site("moon_source", (0.0, 0.0, 0.0)),
        Site("moon_station", (0.0, LOCAL_ARM_M, 0.0)),
        Site("earth_station", (CONSTANTS.d_earth_moon_mean, 0.0, 0.0)),
    ),
    # Source spacecraft and two detector spacecraft at the corners of an
    # equilateral triangle of side LAGRANGE_ARM_M.
    "lagrange_l4l5": (
        Site("source_spacecraft", (0.0, 0.0, 0.0)),
        Site("detector_spacecraft_a", (LAGRANGE_ARM_M, 0.0, 0.0)),
        Site(
            "detector_spacecraft_b",
            (LAGRANGE_ARM_M / 2.0, LAGRANGE_ARM_M * math.sqrt(3.0) / 2.0, 0.0),
        ),
    ),
    # Source at a Mars station, local arm plus Mars-to-Earth arm.
    "mars": (
        Site("mars_source", (0.0, 0.0, 0.0)),
        Site("mars_station", (0.0, LOCAL_ARM_M, 0.0)),
        Site("earth_station", (MARS_DISTANCE_M, 0.0, 0.0)),
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> Scenario:
    """Return the built-in experiment geometry ``name``, one of :data:`PRESET_NAMES`."""
    if name not in PRESET_NAMES:
        raise UnknownPresetError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return _two_arm_scenario(name, *_PRESETS[name])


def symmetric_scenario(arm_length_m: float) -> Scenario:
    """Source midway between two detectors, both arms ``arm_length_m`` long.

    Equal arm lengths make the natural photon arrivals simultaneous, the
    most constraining timing for a finite-speed influence.
    """
    if not arm_length_m > 0.0:
        raise ValueError("arm_length_m must be > 0")
    return _two_arm_scenario(
        "symmetric",
        Site("source_midpoint", (0.0, 0.0, 0.0)),
        Site("detector_a", (-arm_length_m, 0.0, 0.0)),
        Site("detector_b", (arm_length_m, 0.0, 0.0)),
    )


def with_equalized_starts(scenario: Scenario) -> Scenario:
    """Copy of ``scenario`` with offsets delaying the earlier measurement.

    After equalization both measurements start when the slower photon
    arrives, which removes the light-time head start of the shorter arm.
    """
    arrivals = [light_time(arm.length_m) + arm.offset_s for arm in scenario.arms]
    latest = max(arrivals)
    arms = tuple(
        arm._replace(offset_s=arm.offset_s + (latest - arrival))
        for arm, arrival in zip(scenario.arms, arrivals)
    )
    return scenario._replace(arms=arms)
