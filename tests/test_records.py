"""Construction rules of moonbell's record types.

Each validating type rejects a bad field with one exact message, whether
the record is built by the constructor, by `_make` or as a `_replace`
copy; no type lets a field be reassigned, and every copy a helper makes is
validated again. Every type behaves as the namedtuple of its fields.
"""

import json
import math
import pickle
import subprocess
import sys

import pytest

from moonbell import (
    CONSTANTS,
    DEFAULT_SETTINGS,
    EARTH_MOON_WINDOW,
    AprioriCandidate,
    Arm,
    ChshSettings,
    CollapseModel,
    LinkSpec,
    ObservationWindow,
    PhysicalConstants,
    Scenario,
    ScenarioError,
    Site,
    all_claims,
    canonical_angle,
    mond_candidate,
    preset,
    scenario_timing,
    scenario_to_json,
    simulate,
    speed_bound,
    sweep_speed,
    with_equalized_starts,
)

_ARM = preset("gisin1999").arms[0]
_ORIGIN = (0.0, 0.0, 0.0)

# A valid record of each validating type, one field of it, a bad value for
# that field, and the error the bad value raises.
_BAD_INPUTS = {
    "Site": (
        Site("nowhere", _ORIGIN),
        "position",
        (0.0, math.nan, 0.0),
        ScenarioError,
        "nowhere: site position must be finite",
    ),
    "Arm": (
        _ARM,
        "tau_s",
        0.0,
        ScenarioError,
        "tau_s: measurement duration tau_s must be > 0",
    ),
    "Scenario": (
        Scenario("moved_source", Site("src", _ORIGIN), (_ARM, _ARM)),
        "source",
        Site("src", (1.0, 0.0, 0.0)),
        ScenarioError,
        "arms[0].path: path must start at the source position (within 1 mm)",
    ),
    "ChshSettings": (
        DEFAULT_SETTINGS,
        "a_prime",
        math.nan,
        ValueError,
        "analyzer angle (--settings) must be finite, got nan",
    ),
    "CollapseModel": (
        CollapseModel(v_over_c=1.0),
        "v_over_c",
        0.0,
        ValueError,
        "v_over_c (--v-over-c) must be > 0 (inf for instantaneous), got 0.0",
    ),
    "LinkSpec": (
        LinkSpec(length_m=1.0, reference_length_m=1.0, reference_loss_db=0.0),
        "length_m",
        0.0,
        ValueError,
        "length (--length-a/--length-b) must be > 0, got 0.0 m",
    ),
    "ObservationWindow": (
        ObservationWindow(1.0, 2.0),
        "d_max_m",
        1.0,
        ValueError,
        "window ceiling (--d-max) must be > the floor (--d-min, 1.0 m), got 1.0",
    ),
    "AprioriCandidate": (
        AprioriCandidate(0, 1.0, 1.0, "observable"),
        "classification",
        "bogus",
        ValueError,
        "bad classification 'bogus'",
    ),
    "PhysicalConstants": (
        CONSTANTS,
        "G",
        0.0,
        ValueError,
        "constant G must be strictly positive",
    ),
}


def _bad_fields(name):
    """The fields of ``name``'s valid record with the bad value in place."""
    record, field, bad, _, _ = _BAD_INPUTS[name]
    return {**record._asdict(), field: bad}


@pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
def test_validating_types_reject_a_bad_field_with_the_same_message(name):
    record, _, _, error, message = _BAD_INPUTS[name]
    with pytest.raises(error) as excinfo:
        type(record)(**_bad_fields(name))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
def test_replace_and_make_check_like_the_constructor(name):
    record, field, bad, error, message = _BAD_INPUTS[name]
    with pytest.raises(error) as excinfo:
        record._replace(**{field: bad})
    assert str(excinfo.value) == message
    with pytest.raises(error) as excinfo:
        type(record)._make(_bad_fields(name).values())
    assert str(excinfo.value) == message


def test_checks_run_in_field_order():
    # Both fields are bad: the first check in field order reports.
    with pytest.raises(ScenarioError) as excinfo:
        Arm(_ARM.detector, (_ORIGIN,), -1.0, -1.0)
    assert str(excinfo.value) == "path: a trace path needs at least 2 vertices"
    with pytest.raises(ValueError) as excinfo:
        ChshSettings(a=math.inf, b=math.nan)
    assert str(excinfo.value) == "analyzer angle (--settings) must be finite, got inf"
    with pytest.raises(ValueError) as excinfo:
        PhysicalConstants(c=3e8, G=-1.0)
    assert str(excinfo.value) == "constant G must be strictly positive"
    with pytest.raises(ValueError) as excinfo:
        PhysicalConstants(c=3e8)
    assert str(excinfo.value) == "c is exact and must equal 299792458 m/s"


def test_chsh_settings_fold_every_angle():
    settings = ChshSettings(a=math.pi + 0.25, a_prime=-0.5, b=-1e-300)
    assert settings.a == pytest.approx(0.25)
    assert settings.a_prime == pytest.approx(math.pi - 0.5)
    assert settings.b == 0.0
    assert settings.b_prime == DEFAULT_SETTINGS.b_prime
    assert DEFAULT_SETTINGS._replace(a=4.0).a == canonical_angle(4.0)
    assert ChshSettings._make([4.0, 0.0, 0.0, 0.0]).a == canonical_angle(4.0)


def _instances():
    scenario = preset("earth_moon_case3")
    result = simulate(scenario, CollapseModel(v_over_c=math.inf), DEFAULT_SETTINGS, 100, seed=1, trace_limit=1)
    point = sweep_speed(scenario, "uncorrelated", DEFAULT_SETTINGS, [1.0], 100, seed=1)[0]
    return {
        "SpeedBound": (speed_bound(scenario), "v_min_over_c"),
        "ArmTiming": (scenario_timing(scenario)[0], "arrival_fs"),
        "AprioriCandidate": (mond_candidate(), "d_m"),
        "Claim": (all_claims()[0], "paper_value"),
        "PhysicalConstants": (CONSTANTS, "c"),
        "PairRecord": (result.records[0], "outcomes"),
        "SimulationResult": (result, "s_hat"),
        "SweepPoint": (point, "connected"),
        "Site": (scenario.source, "position"),
        "Arm": (scenario.arms[0], "tau_s"),
        "Scenario": (scenario, "arms"),
        "ChshSettings": (DEFAULT_SETTINGS, "a"),
        "CollapseModel": (CollapseModel(v_over_c=1.0), "v_over_c"),
        "LinkSpec": (LinkSpec(1e3, 1e3, 0.0), "length_m"),
        "ObservationWindow": (EARTH_MOON_WINDOW, "d_max_m"),
    }


# Each record type's fields, in order, and the defaults among them.
_FIELDS = {
    "SpeedBound": (("l_max_m", "tau_s", "v_min_over_c"), {}),
    "ArmTiming": (("arrival_fs", "measure_start_fs", "measure_end_fs"), {}),
    "AprioriCandidate": (("n", "v_over_c", "d_m", "classification"), {}),
    "Claim": (("claim_id", "paper_location", "paper_value", "computed_value", "note"), {"note": ""}),
    "PhysicalConstants": (
        ("c", "G", "hbar", "GM_earth", "GM_moon", "R_earth", "R_moon", "m_proton", "d_earth_moon_mean",
         "kpc", "planck_length"),
        CONSTANTS._asdict(),
    ),
    "PairRecord": (("settings", "outcomes"), {}),
    "SimulationResult": (("e_hat", "counts", "s_hat", "stderr_s", "connected", "records"), {"records": ()}),
    "SweepPoint": (("v_over_c", "s_hat", "stderr_s", "connected"), {}),
    "Site": (("name", "position"), {}),
    "Arm": (("detector", "path", "tau_s", "offset_s"), {"offset_s": 0.0}),
    "Scenario": (("name", "source", "arms", "frame_note"),
                 {"frame_note": "coordinates at rest relative to the laboratory"}),
    "ChshSettings": (("a", "a_prime", "b", "b_prime"), DEFAULT_SETTINGS._asdict()),
    "CollapseModel": (("v_over_c", "fallback", "depart_at_end"), {"fallback": "uncorrelated", "depart_at_end": False}),
    "LinkSpec": (("length_m", "reference_length_m", "reference_loss_db", "detector_efficiency"),
                 {"detector_efficiency": 1.0}),
    "ObservationWindow": (("d_min_m", "d_max_m"), {}),
}


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_each_record_type_behaves_as_the_namedtuple_of_its_fields(name, monkeypatch):
    record, _ = _instances()[name]
    cls = type(record)
    fields, defaults = _FIELDS[name]
    assert cls.__name__ == name
    assert (cls._fields, cls._field_defaults, cls.__match_args__) == (fields, defaults, fields)
    assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, record)) + ")"
    assert record._asdict() == dict(zip(fields, record)) and type(record._asdict()) is dict
    assert [getattr(record, f) for f in fields] == list(record)
    assert record.__getnewargs__() == tuple(record)
    match record:
        case cls(first):
            assert first == record[0]
    # Each way of building a record gives an equal record of the same type,
    # through one _checked call when the type defines one.
    calls = []
    if "_checked" in vars(cls):
        checked = cls._checked
        monkeypatch.setattr(cls, "_checked", lambda self: calls.append(1) or checked(self))
    required = record[: len(fields) - len(defaults)]
    builds = [
        (lambda: cls(**record._asdict()), record),
        (lambda: cls(*required), record._replace(**defaults)),
        (lambda: cls._make(iter(record)), record),
        (lambda: record._replace(), record),
        (lambda: record._replace(**{fields[0]: record[0]}), record),
        *((lambda p=p: pickle.loads(pickle.dumps(record, p)), record) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)),
    ]
    for build, expected in builds:
        before = len(calls)
        copy = build()
        assert type(copy) is cls and copy == expected
        assert len(calls) - before == ("_checked" in vars(cls))
    with pytest.raises(TypeError):
        cls._make(tuple(record) + (None,))
    with pytest.raises(ValueError, match="unexpected field names"):
        record._replace(no_such_field=1)


def test_no_field_can_be_reassigned():
    for name, (record, field) in _instances().items():
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        assert getattr(record, field) == before, name


def _unrepresentable_after_equalizing() -> Scenario:
    """Valid as given; equalizing delays arm 1 past the femtosecond range."""
    far = (1.5e293, 0.0, 0.0)
    near = (1.0, 0.0, 0.0)
    arms = (
        Arm(Site("far", far), (_ORIGIN, far), 5e-12),
        Arm(Site("near", near), (_ORIGIN, near), 3e284),
    )
    return Scenario("unrepresentable", Site("source", _ORIGIN), arms)


def test_equalized_starts_validate_the_new_arms():
    with pytest.raises(ScenarioError) as excinfo:
        with_equalized_starts(_unrepresentable_after_equalizing())
    assert str(excinfo.value) == "tau_s: event time is too large to represent in femtoseconds"


def test_equalized_starts_of_an_unrepresentable_file_exit_2(tmp_path):
    path = tmp_path / "unrepresentable.json"
    path.write_text(scenario_to_json(_unrepresentable_after_equalizing()))
    proc = subprocess.run(
        [sys.executable, "-m", "moonbell", "simulate", str(path), "--equalize-starts", "-n", "100"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: tau_s: event time is too large to represent in femtoseconds\n"
    plain = subprocess.run(
        [sys.executable, "-m", "moonbell", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert plain.returncode == 0, plain.stderr
    assert json.loads(plain.stdout)["results"]["valid"] is True
