"""Scenario documents: UTF-8 JSON with the shape published in
docs/scenario_schema.json, read into and written from a :class:`Scenario`.
Unknown fields are rejected so typos fail loudly instead of silently changing
the geometry.  Only reading or writing a document loads this module, and
json with it; a preset run loads neither.
"""

from __future__ import annotations

import json
import math

from .scenario import Arm, Scenario, ScenarioError, Site, Vec

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


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
    try:
        # A JSON string may hold a lone surrogate ("\ud800"), which no report can print.
        value.encode()
    except UnicodeEncodeError as exc:
        raise ScenarioError(f"not UTF-8 text ({exc.reason} at character {exc.start})", field) from None
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
        try:
            document = json.loads(document)
        # ValueError holds JSONDecodeError and int's digit limit on a long literal.
        except ValueError as exc:
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
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
