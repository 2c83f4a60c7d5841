"""Experiment geometries: sites, photon trace paths, presets and file I/O.

A :class:`Scenario` is a static snapshot of one Bell-test configuration in a
single inertial frame (taken to be at rest with respect to the laboratory).
Each of the two arms records the piecewise-linear path its photon travels
from the source to the detector; mirrors appear as intermediate vertices.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .constants import CONSTANTS, DEFAULT_TAU_S, FS_PER_SECOND, checked

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


@checked
class Site(NamedTuple):
    """A named location, Cartesian metres in the privileged frame."""

    name: str
    position: Vec

    def _checked(self) -> Site:
        if any(not math.isfinite(x) for x in self.position):
            raise ScenarioError("site position must be finite", self.name)
        return self


@checked
class Arm(NamedTuple):
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


@checked
class Scenario(NamedTuple):
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
    if length_m < 0.0:
        raise ValueError("length must be >= 0")
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


# --- document I/O ---------------------------------------------------------
#
# Scenario files are UTF-8 JSON with the shape published in
# docs/scenario_schema.json.  Unknown fields are rejected so typos fail
# loudly instead of silently changing the geometry.


def _object(
    value: Any, field: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict:
    """``value`` as an object with every ``required`` field and no field
    outside ``required`` and ``optional``; ``field`` is "" for the document."""
    if not isinstance(value, dict):
        if not field:
            raise ScenarioError("expected a JSON object at the top level")
        raise ScenarioError("expected an object", field)
    unknown = set(value).difference(required, optional)
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)}", field or "document")
    for key in required:
        if key not in value:
            raise ScenarioError("required field missing", f"{field}.{key}" if field else key)
    return value


def _as_str(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{field.rsplit('.', 1)[-1]} must be a string", field)
    return value


def _site_from_dict(obj: Any, field: str) -> Site:
    obj = _object(obj, field, ("name", "position"))
    name = _as_str(obj["name"], f"{field}.name")
    return Site(name, _as_vec(obj["position"], f"{field}.position"))


def _arm_from_dict(obj: Any, field: str) -> Arm:
    obj = _object(obj, field, ("detector", "path", "tau_s"), ("offset_s",))
    detector = _site_from_dict(obj["detector"], f"{field}.detector")
    path_raw = obj["path"]
    if not isinstance(path_raw, list) or len(path_raw) < 2:
        raise ScenarioError("path must be a list of at least 2 points", f"{field}.path")
    vertices = tuple(_as_vec(v, f"{field}.path[{i}]") for i, v in enumerate(path_raw))
    tau_s = _as_number(obj["tau_s"], f"{field}.tau_s")
    offset_s = _as_number(obj.get("offset_s", 0.0), f"{field}.offset_s")
    try:
        return Arm(detector, vertices, tau_s, offset_s)
    except ScenarioError as exc:
        raise ScenarioError(exc.reason, f"{field}.{exc.field}") from exc


def load_scenario(document: str | dict) -> Scenario:
    """Build and validate a :class:`Scenario` from JSON text or an already-parsed dict.

    Each object's required fields are checked before any of its values is read.
    """
    if isinstance(document, str):
        import json  # loaded only to parse text: no preset run needs it

        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise ScenarioError("not valid JSON: nested too deeply") from None
    document = _object(document, "", ("name", "source", "arms"), ("frame_note",))
    name = _as_str(document["name"], "name")
    source = _site_from_dict(document["source"], "source")
    arms_raw = document["arms"]
    if not isinstance(arms_raw, list) or len(arms_raw) != 2:
        raise ScenarioError("arms must be a list of exactly 2 entries", "arms")
    arms = tuple(_arm_from_dict(a, f"arms[{i}]") for i, a in enumerate(arms_raw))
    default_note = Scenario._field_defaults["frame_note"]
    frame_note = _as_str(document.get("frame_note", default_note), "frame_note")
    return Scenario(name=name, source=source, arms=arms, frame_note=frame_note)


def load_scenario_file(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return load_scenario(text)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize to the published document shape (round-trip exact)."""
    return {
        "name": scenario.name,
        "source": {"name": scenario.source.name, "position": list(scenario.source.position)},
        "arms": [
            {
                "detector": {"name": a.detector.name, "position": list(a.detector.position)},
                "path": [list(v) for v in a.path],
                "tau_s": a.tau_s,
                "offset_s": a.offset_s,
            }
            for a in scenario.arms
        ],
        "frame_note": scenario.frame_note,
    }


def scenario_to_json(scenario: Scenario) -> str:
    import json

    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
