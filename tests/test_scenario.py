import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.spatial.transform import Rotation

from moonbell import (
    CONSTANTS,
    PRESET_NAMES,
    Scenario,
    ScenarioError,
    Arm,
    Site,
    UnknownPresetError,
    detector_separation,
    light_time,
    load_scenario,
    preset,
    scenario_to_dict,
    scenario_to_json,
    symmetric_scenario,
    with_equalized_starts,
)


def test_preset_names_complete():
    assert set(PRESET_NAMES) == {
        "gisin1999",
        "cao2017",
        "earth_moon_case1",
        "earth_moon_case2",
        "earth_moon_case3",
        "lagrange_l4l5",
        "mars",
    }
    for name in PRESET_NAMES:
        assert preset(name).name == name


def test_gisin_arms_are_5_3_km_each():
    s = preset("gisin1999")
    assert s.arms[0].length_m == pytest.approx(5300.0, rel=1e-12)
    assert s.arms[1].length_m == pytest.approx(5300.0, rel=1e-12)
    assert detector_separation(s) == pytest.approx(10600.0, rel=1e-12)


def test_cao_arms_700km_and_cities_1203km_apart():
    s = preset("cao2017")
    assert s.arms[0].length_m == pytest.approx(700e3, rel=1e-9)
    assert s.arms[1].length_m == pytest.approx(700e3, rel=1e-9)
    assert detector_separation(s) == pytest.approx(1203e3, rel=1e-12)


def test_earth_moon_long_arm_lengths():
    assert preset("earth_moon_case1").arms[1].length_m == pytest.approx(3.844e8, rel=1e-12)
    # mirror bounce doubles the distance
    assert preset("earth_moon_case2").arms[1].length_m == pytest.approx(7.688e8, rel=1e-9)
    assert preset("earth_moon_case3").arms[1].length_m == pytest.approx(3.844e8, rel=1e-12)


def test_lagrange_and_mars_long_arms():
    lag = preset("lagrange_l4l5")
    assert lag.arms[0].length_m == pytest.approx(20 * 3.844e8, rel=1e-9)
    assert lag.arms[1].length_m == pytest.approx(20 * 3.844e8, rel=1e-9)
    assert preset("mars").arms[1].length_m == pytest.approx(2.25e11, rel=1e-12)


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        preset("nosuch")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_round_trip_preserves_arm_lengths(name):
    s = preset(name)
    back = load_scenario(scenario_to_json(s))
    for i in (0, 1):
        assert abs(back.arms[i].length_m - s.arms[i].length_m) <= 1e-6  # 1 um
    assert back == s  # exact dataclass round trip


# Every preset's full document (site names, every vertex, tau_s and
# offset_s), captured while each preset had its own branch of an if chain.
_PINNED_PRESETS = json.loads(pathlib.Path(__file__).with_name("pinned_presets.json").read_text())


def test_preset_documents_are_pinned():
    assert [*PRESET_NAMES, "symmetric_scenario(384400000.0)"] == list(_PINNED_PRESETS)
    scenarios = [*(preset(name) for name in PRESET_NAMES), symmetric_scenario(384400000.0)]
    for scenario, pinned in zip(scenarios, _PINNED_PRESETS.values()):
        assert scenario_to_json(scenario) == json.dumps(pinned, indent=2, sort_keys=True)


def test_arm_length_invariant_under_isometries():
    rng = np.random.default_rng(42)
    s = preset("earth_moon_case3")
    for _ in range(20):
        rot = Rotation.random(random_state=rng).as_matrix()
        shift = rng.uniform(-1e9, 1e9, size=3)

        def move(p):
            return tuple(rot @ np.asarray(p) + shift)

        doc = scenario_to_dict(s)
        doc["source"]["position"] = list(move(doc["source"]["position"]))
        for arm in doc["arms"]:
            arm["detector"]["position"] = list(move(arm["detector"]["position"]))
            arm["path"] = [list(move(v)) for v in arm["path"]]
        moved = load_scenario(doc)
        for i in (0, 1):
            assert abs(moved.arms[i].length_m - s.arms[i].length_m) <= 1e-6


def test_light_time_values():
    assert light_time(3.844e8) == pytest.approx(1.2822, abs=5e-5)
    assert light_time(0.0) == 0.0
    assert light_time(299_792_458.0) == 1.0
    with pytest.raises(ValueError):
        light_time(-1.0)


def test_light_time_round_trip_precision():
    rng = np.random.default_rng(1)
    for length in rng.uniform(1e-3, 1e13, size=200):
        assert abs(light_time(length) * CONSTANTS.c - length) <= 1e-12 * length


def test_single_segment_arm_length():
    doc = _valid_doc()
    s = load_scenario(doc)
    assert s.arms[0].length_m == pytest.approx(10_000.0, rel=1e-12)


_COORD = st.floats(-1e12, 1e12, allow_nan=False)


@given(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=2, max_size=6))
def test_arm_length_sums_segments_and_path_writes_back(vertices):
    path = tuple(vertices)
    assume(all(math.dist(a, b) > 0.0 for a, b in zip(path, path[1:])))
    arm = Arm(Site("detector", path[-1]), path, 1e-9)
    assert arm.length_m == sum(math.dist(a, b) for a, b in zip(path, path[1:]))
    document = scenario_to_dict(Scenario("generated", Site("source", path[0]), (arm, arm)))
    assert [tuple(v) for v in document["arms"][0]["path"]] == list(path)


def _valid_doc():
    return {
        "name": "example",
        "source": {"name": "src", "position": [0.0, 0.0, 0.0]},
        "arms": [
            {
                "detector": {"name": "a", "position": [10000.0, 0.0, 0.0]},
                "path": [[0.0, 0.0, 0.0], [10000.0, 0.0, 0.0]],
                "tau_s": 5e-12,
                "offset_s": 0.0,
            },
            {
                "detector": {"name": "b", "position": [0.0, 20000.0, 0.0]},
                "path": [[0.0, 0.0, 0.0], [0.0, 20000.0, 0.0]],
                "tau_s": 5e-12,
            },
        ],
    }


def test_load_valid_document():
    s = load_scenario(json.dumps(_valid_doc()))
    assert len(s.arms) == 2
    assert s.arms[1].offset_s == 0.0


def test_path_endpoint_mismatch_rejected():
    doc = _valid_doc()
    doc["arms"][0]["path"][-1] = [15000.0, 0.0, 0.0]  # ends 5 km from its detector
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "arms[0].path" in str(err.value)


def test_zero_tau_rejected():
    doc = _valid_doc()
    doc["arms"][1]["tau_s"] = 0.0
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "arms[1].tau_s" in str(err.value)


def test_missing_field_reported_with_path():
    doc = _valid_doc()
    del doc["arms"][0]["detector"]
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "arms[0].detector" in str(err.value)


def test_unknown_field_rejected():
    doc = _valid_doc()
    doc["color"] = "blue"
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_wrong_type_rejected():
    doc = _valid_doc()
    doc["arms"][0]["path"][0] = [0.0, 0.0]  # only two coordinates
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "arms[0].path[0]" in str(err.value)


def test_arm_count_enforced():
    doc = _valid_doc()
    doc["arms"] = doc["arms"][:1]
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_negative_offset_rejected():
    doc = _valid_doc()
    doc["arms"][0]["offset_s"] = -1.0
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_not_json_rejected():
    with pytest.raises(ScenarioError):
        load_scenario("{not json")


def test_json_beyond_the_integer_digit_limit_rejected():
    # Python 3.11+ caps int() at 4300 digits by default; a Python without the
    # cap reads the literal and rejects it as out of float range.
    text = json.dumps(_valid_doc()).replace('"tau_s": 5e-12', '"tau_s": 1' + "0" * 5000, 1)
    with pytest.raises(ScenarioError, match="not valid JSON: |number is out of float range"):
        load_scenario(text)


@pytest.mark.parametrize(
    "path, field",
    [(("name",), "name"), (("source", "name"), "source.name"),
     (("arms", 1, "detector", "name"), "arms[1].detector.name"), (("frame_note",), "frame_note")],
)
def test_string_that_is_not_utf8_rejected_with_field(path, field):
    # "\ud800" is a valid JSON string escape, but a lone surrogate encodes to no UTF-8.
    doc = _valid_doc()
    _set(path, "g\ud800")(doc)
    for document in (doc, json.dumps(doc)):
        with pytest.raises(ScenarioError) as err:
            load_scenario(document)
        assert (str(err.value), err.value.field) == (
            f"{field}: not UTF-8 text (surrogates not allowed at character 1)", field)


def test_scenarios_are_immutable():
    s = preset("gisin1999")
    with pytest.raises(Exception):
        s.name = "other"


def test_symmetric_scenario_geometry():
    s = symmetric_scenario(3.844e8)
    assert s.arms[0].length_m == s.arms[1].length_m == pytest.approx(3.844e8, rel=1e-12)
    assert detector_separation(s) == pytest.approx(2 * 3.844e8, rel=1e-12)


def test_equalized_starts_align_measure_windows():
    from moonbell import scenario_timing

    s = with_equalized_starts(preset("earth_moon_case3"))
    t0, t1 = scenario_timing(s)
    assert abs(t0.measure_start_fs - t1.measure_start_fs) <= 1
    assert isinstance(s, Scenario)


def test_published_schema_matches_loader():
    # The JSON Schema shipped in docs/ must accept what load_scenario accepts
    # and reject what it rejects, at least for structural violations.
    import pathlib

    import jsonschema

    schema = json.loads(
        (pathlib.Path(__file__).resolve().parents[1] / "docs" / "scenario_schema.json").read_text()
    )
    good = _valid_doc()
    jsonschema.validate(good, schema)
    for name in PRESET_NAMES:
        jsonschema.validate(scenario_to_dict(preset(name)), schema)

    bad_cases = []
    d = _valid_doc()
    del d["source"]
    bad_cases.append(d)
    d = _valid_doc()
    d["extra"] = 1
    bad_cases.append(d)
    d = _valid_doc()
    d["arms"][0]["tau_s"] = "fast"
    bad_cases.append(d)
    for bad in bad_cases:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        with pytest.raises(ScenarioError):
            load_scenario(bad)


def _set(path, value):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _long_arm(coordinate):
    def mutate(doc):
        doc["arms"][0]["detector"]["position"] = [coordinate, 0.0, 0.0]
        doc["arms"][0]["path"] = [[0.0, 0.0, 0.0], [coordinate, 0.0, 0.0]]

    return mutate


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set(("arms", 0, "tau_s"), math.inf), "arms[0].tau_s"),
        (_set(("arms", 1, "tau_s"), 1e300), "arms[1].tau_s"),
        (_set(("arms", 1, "offset_s"), math.inf), "arms[1].offset_s"),
        (_set(("arms", 1, "offset_s"), math.nan), "arms[1].offset_s"),
        (_set(("arms", 1, "offset_s"), 1e300), "arms[1].offset_s"),
        (_set(("arms", 1, "offset_s"), 10**400), "arms[1].offset_s"),
        (_set(("source", "position"), [10**400, 0, 0]), "source.position"),
        (_long_arm(1e305), "arms[0].path"),
    ],
)
def test_out_of_range_numbers_rejected_with_field(mutate, field):
    doc = _valid_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.field == field


def test_astronomically_long_path_loads():
    # Squaring each coordinate difference would overflow at this scale.
    doc = _valid_doc()
    _long_arm(1e160)(doc)
    assert load_scenario(doc).arms[0].length_m == 1e160


def test_constructors_reject_what_no_document_reaches():
    arm = preset("gisin1999").arms[0]
    with pytest.raises(ScenarioError) as err:
        Scenario("one_arm", Site("src", (0.0, 0.0, 0.0)), (arm,))
    assert (str(err.value), err.value.field) == ("arms: a scenario has exactly 2 arms", "arms")
    with pytest.raises(ScenarioError) as err:
        Arm(arm.detector, ((0.0, 0.0, 0.0),), 1e-12)
    assert (str(err.value), err.value.field) == ("path: a trace path needs at least 2 vertices", "path")
    with pytest.raises(ScenarioError) as err:
        Site("far", (math.inf, 0.0, 0.0))
    assert (str(err.value), err.value.field) == ("far: site position must be finite", "far")
