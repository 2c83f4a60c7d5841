"""Experiment geometries: sites, photon trace paths, presets and file I/O.

A :class:`Scenario` is a static snapshot of one Bell-test configuration in a
single inertial frame (taken to be at rest with respect to the laboratory).
Each of the two arms records the piecewise-linear path its photon travels
from the source to the detector; mirrors appear as intermediate vertices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any

from .constants import CONSTANTS, DEFAULT_TAU_S, FS_PER_SECOND

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

PRESET_NAMES = (
    "gisin1999",
    "cao2017",
    "earth_moon_case1",
    "earth_moon_case2",
    "earth_moon_case3",
    "lagrange_l4l5",
    "mars",
)


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


def _as_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("must be a number", field)
    try:
        return float(value)
    except OverflowError:  # JSON integers have no size limit
        raise ScenarioError("number is out of float range", field) from None


def _as_vec(value: Any, field: str) -> Vec:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError("expected a list of three numbers", field)
    vec = (
        _as_number(value[0], field),
        _as_number(value[1], field),
        _as_number(value[2], field),
    )
    if any(not math.isfinite(x) for x in vec):
        raise ScenarioError("coordinates must be finite", field)
    return vec


@dataclass(frozen=True)
class Site:
    """A named location, Cartesian metres in the privileged frame."""

    name: str
    position: Vec

    def __post_init__(self) -> None:
        if any(not math.isfinite(x) for x in self.position):
            raise ScenarioError("site position must be finite", self.name)


@dataclass(frozen=True)
class TracePath:
    """Ordered straight segments a photon traverses, source first.

    The same route is the medium along which a finite-speed collapse
    influence is assumed to propagate, so its total length (not the
    straight-line endpoint separation) is what enters every bound.
    """

    vertices: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ScenarioError("a trace path needs at least 2 vertices")
        for i in range(len(self.vertices) - 1):
            if math.dist(self.vertices[i], self.vertices[i + 1]) == 0.0:
                raise ScenarioError(f"consecutive vertices {i} and {i + 1} coincide")

    @property
    def length_m(self) -> float:
        """Sum of Euclidean segment lengths, m."""
        return sum(
            math.dist(self.vertices[i], self.vertices[i + 1])
            for i in range(len(self.vertices) - 1)
        )


@dataclass(frozen=True)
class Arm:
    """One detector, the photon path reaching it, and its measurement window."""

    detector: Site
    path: TracePath
    tau_s: float
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.tau_s > 0.0:
            raise ScenarioError("measurement duration tau_s must be > 0", "tau_s")
        if not self.offset_s >= 0.0:
            raise ScenarioError("measurement offset_s must be >= 0", "offset_s")
        # The simulator rounds arrival, start and end to integer femtoseconds
        # and multiplies windows by c; both products must stay finite floats.
        # This also rejects infinite lengths and times.
        elapsed_s = 0.0
        for field, seconds in (
            ("path", light_time(self.path.length_m)),
            ("offset_s", self.offset_s),
            ("tau_s", self.tau_s),
        ):
            elapsed_s += seconds
            if not math.isfinite(elapsed_s * FS_PER_SECOND * CONSTANTS.c):
                raise ScenarioError("event time is too large to represent in femtoseconds", field)


@dataclass(frozen=True)
class Scenario:
    """A complete two-arm experiment geometry.

    Immutable after construction; safe to share between threads/processes.
    """

    name: str
    source: Site
    arms: tuple[Arm, Arm]
    frame_note: str = "coordinates at rest relative to the laboratory"

    def __post_init__(self) -> None:
        if len(self.arms) != 2:
            raise ScenarioError("a scenario has exactly 2 arms", "arms")
        for i, arm in enumerate(self.arms):
            start = arm.path.vertices[0]
            end = arm.path.vertices[-1]
            if math.dist(start, self.source.position) > ENDPOINT_TOLERANCE_M:
                raise ScenarioError(
                    "path must start at the source position (within 1 mm)",
                    f"arms[{i}].path",
                )
            if math.dist(end, arm.detector.position) > ENDPOINT_TOLERANCE_M:
                raise ScenarioError(
                    "path must end at the detector position (within 1 mm)",
                    f"arms[{i}].path",
                )


def arm_length(scenario: Scenario, arm_index: int) -> float:
    """Total trace-path length of one arm, m."""
    if arm_index not in (0, 1):
        raise ValueError(f"arm_index must be 0 or 1, got {arm_index}")
    return scenario.arms[arm_index].path.length_m


def detector_separation(scenario: Scenario) -> float:
    """Straight-line distance between the two detectors, m.

    Reported for comparison only; connectivity verdicts always use the
    trace-path lengths.
    """
    return math.dist(scenario.arms[0].detector.position, scenario.arms[1].detector.position)


def light_time(length_m: float) -> float:
    """Time light needs to cover ``length_m`` in vacuum, s."""
    if length_m < 0.0:
        raise ValueError("length must be >= 0")
    return length_m / CONSTANTS.c


def _two_site_scenario(
    name: str,
    source_name: str,
    det_a: Site,
    det_b: Site,
    source_pos: Vec = (0.0, 0.0, 0.0),
    via_b: Vec | None = None,
) -> Scenario:
    source = Site(source_name, source_pos)
    path_a = TracePath((source_pos, det_a.position))
    vertices_b = (source_pos, via_b, det_b.position) if via_b else (source_pos, det_b.position)
    path_b = TracePath(vertices_b)
    return Scenario(
        name=name,
        source=source,
        arms=(Arm(det_a, path_a, DEFAULT_TAU_S), Arm(det_b, path_b, DEFAULT_TAU_S)),
    )


def preset(name: str) -> Scenario:
    """Return one of the built-in experiment geometries.

    ``gisin1999``        source midway between detectors 10.6 km apart
    ``cao2017``          source 700 km from each of two stations 1203 km apart
    ``earth_moon_case1`` source on Earth, local arm plus Earth-to-Moon arm
    ``earth_moon_case2`` source on Earth, local arm plus Earth-Moon-Earth
                         mirror bounce (path length twice the Earth-Moon
                         distance)
    ``earth_moon_case3`` source on the Moon, local arm plus Moon-to-Earth arm
    ``lagrange_l4l5``    source spacecraft with two detector spacecraft at
                         twenty Earth-Moon distances
    ``mars``             source at a Mars station, local arm plus
                         Mars-to-Earth arm
    """
    d_moon = CONSTANTS.d_earth_moon_mean
    if name == "gisin1999":
        return _two_site_scenario(
            name,
            "source_midpoint",
            Site("detector_west", (-5300.0, 0.0, 0.0)),
            Site("detector_east", (5300.0, 0.0, 0.0)),
        )
    if name == "cao2017":
        # Flat 700 km estimate per arm; stations 1203 km apart on the ground.
        y = math.sqrt(700e3**2 - 601.5e3**2)
        return _two_site_scenario(
            name,
            "satellite",
            Site("ground_station_a", (-601.5e3, 0.0, 0.0)),
            Site("ground_station_b", (601.5e3, 0.0, 0.0)),
            source_pos=(0.0, y, 0.0),
        )
    if name == "earth_moon_case1":
        return _two_site_scenario(
            name,
            "earth_source",
            Site("earth_station", (0.0, LOCAL_ARM_M, 0.0)),
            Site("moon_station", (d_moon, 0.0, 0.0)),
        )
    if name == "earth_moon_case2":
        # Retro-reflected beam: up to a lunar mirror and back to a receiver
        # co-located with the transmitter.
        return _two_site_scenario(
            name,
            "earth_source",
            Site("earth_station", (0.0, LOCAL_ARM_M, 0.0)),
            Site("earth_return_station", (0.0, 0.0, 0.0)),
            via_b=(d_moon, 0.0, 0.0),
        )
    if name == "earth_moon_case3":
        return _two_site_scenario(
            name,
            "moon_source",
            Site("moon_station", (0.0, LOCAL_ARM_M, 0.0)),
            Site("earth_station", (d_moon, 0.0, 0.0)),
        )
    if name == "lagrange_l4l5":
        # Equilateral triangle of spacecraft, side LAGRANGE_ARM_M.
        side = LAGRANGE_ARM_M
        return _two_site_scenario(
            name,
            "source_spacecraft",
            Site("detector_spacecraft_a", (side, 0.0, 0.0)),
            Site("detector_spacecraft_b", (side / 2.0, side * math.sqrt(3.0) / 2.0, 0.0)),
        )
    if name == "mars":
        return _two_site_scenario(
            name,
            "mars_source",
            Site("mars_station", (0.0, LOCAL_ARM_M, 0.0)),
            Site("earth_station", (MARS_DISTANCE_M, 0.0, 0.0)),
        )
    raise UnknownPresetError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def symmetric_scenario(arm_length_m: float) -> Scenario:
    """Source midway between two detectors, both arms ``arm_length_m`` long.

    Equal arm lengths make the natural photon arrivals simultaneous, the
    most constraining timing for a finite-speed influence.
    """
    if not arm_length_m > 0.0:
        raise ValueError("arm_length_m must be > 0")
    return _two_site_scenario(
        "symmetric",
        "source_midpoint",
        Site("detector_a", (-arm_length_m, 0.0, 0.0)),
        Site("detector_b", (arm_length_m, 0.0, 0.0)),
    )


def with_equalized_starts(scenario: Scenario) -> Scenario:
    """Copy of ``scenario`` with offsets delaying the earlier measurement.

    After equalization both measurements start when the slower photon
    arrives, which removes the light-time head start of the shorter arm.
    """
    arrivals = [light_time(arm.path.length_m) + arm.offset_s for arm in scenario.arms]
    latest = max(arrivals)
    arms = tuple(
        replace(arm, offset_s=arm.offset_s + (latest - arrival))
        for arm, arrival in zip(scenario.arms, arrivals)
    )
    return replace(scenario, arms=arms)


# --- document I/O ---------------------------------------------------------
#
# Scenario files are UTF-8 JSON with the shape published in
# docs/scenario_schema.json.  Unknown fields are rejected so typos fail
# loudly instead of silently changing the geometry.

_TOP_FIELDS = {"name", "source", "arms", "frame_note"}
_SITE_FIELDS = {"name", "position"}
_ARM_FIELDS = {"detector", "path", "tau_s", "offset_s"}


def _check_unknown(obj: dict, allowed: set[str], field: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)}", field)


def _require(obj: dict, key: str, field: str) -> Any:
    if key not in obj:
        raise ScenarioError("required field missing", f"{field}.{key}" if field else key)
    return obj[key]


def _site_from_dict(obj: Any, field: str) -> Site:
    if not isinstance(obj, dict):
        raise ScenarioError("expected an object", field)
    _check_unknown(obj, _SITE_FIELDS, field)
    name = _require(obj, "name", field)
    if not isinstance(name, str):
        raise ScenarioError("name must be a string", f"{field}.name")
    position = _as_vec(_require(obj, "position", field), f"{field}.position")
    return Site(name, position)


def _arm_from_dict(obj: Any, field: str) -> Arm:
    if not isinstance(obj, dict):
        raise ScenarioError("expected an object", field)
    _check_unknown(obj, _ARM_FIELDS, field)
    detector = _site_from_dict(_require(obj, "detector", field), f"{field}.detector")
    path_raw = _require(obj, "path", field)
    if not isinstance(path_raw, list) or len(path_raw) < 2:
        raise ScenarioError("path must be a list of at least 2 points", f"{field}.path")
    vertices = tuple(_as_vec(v, f"{field}.path[{i}]") for i, v in enumerate(path_raw))
    tau_s = _as_number(_require(obj, "tau_s", field), f"{field}.tau_s")
    offset_s = _as_number(obj.get("offset_s", 0.0), f"{field}.offset_s")
    try:
        return Arm(detector, TracePath(vertices), tau_s, offset_s)
    except ScenarioError as exc:
        # Path errors carry no field of their own.
        raise ScenarioError(exc.reason, f"{field}.{exc.field or 'path'}") from exc


def scenario_from_dict(document: dict) -> Scenario:
    """Build and validate a :class:`Scenario` from a parsed JSON document."""
    if not isinstance(document, dict):
        raise ScenarioError("expected a JSON object at the top level")
    _check_unknown(document, _TOP_FIELDS, "document")
    name = _require(document, "name", "")
    if not isinstance(name, str):
        raise ScenarioError("name must be a string", "name")
    source = _site_from_dict(_require(document, "source", ""), "source")
    arms_raw = _require(document, "arms", "")
    if not isinstance(arms_raw, list) or len(arms_raw) != 2:
        raise ScenarioError("arms must be a list of exactly 2 entries", "arms")
    arms = tuple(_arm_from_dict(a, f"arms[{i}]") for i, a in enumerate(arms_raw))
    frame_note = document.get("frame_note", Scenario.__dataclass_fields__["frame_note"].default)
    if not isinstance(frame_note, str):
        raise ScenarioError("frame_note must be a string", "frame_note")
    return Scenario(name=name, source=source, arms=arms, frame_note=frame_note)


def load_scenario(document: str | dict) -> Scenario:
    """Parse a scenario from JSON text (or an already-parsed dict)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise ScenarioError("not valid JSON: nested too deeply") from None
    return scenario_from_dict(document)


def load_scenario_file(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return load_scenario(fh.read())


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize to the published document shape (round-trip exact)."""
    return {
        "name": scenario.name,
        "source": {"name": scenario.source.name, "position": list(scenario.source.position)},
        "arms": [
            {
                "detector": {"name": a.detector.name, "position": list(a.detector.position)},
                "path": [list(v) for v in a.path.vertices],
                "tau_s": a.tau_s,
                "offset_s": a.offset_s,
            }
            for a in scenario.arms
        ],
        "frame_note": scenario.frame_note,
    }


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
