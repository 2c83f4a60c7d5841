"""Exit-code contract of ``moonbell.cli.main`` as a property.

Any argv a user can type, and any scenario document they can write, must end
in exit 0 (success), 2 (validation), 3 (unknown preset/reference) or 4 (I/O),
never in an uncaught exception, and every JSON report of an exit 0 must match
``docs/run_report_schema.json``.  Everything runs in-process: no subprocess
and no worker process is started.
"""

import contextlib
import io
import json
import pathlib

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from moonbell import PRESET_NAMES, preset, scenario_to_dict
from moonbell import cli

CONTRACT = {0, 2, 3, 4}

_REPORT_SCHEMA = jsonschema.Draft202012Validator(
    json.loads(
        (pathlib.Path(__file__).resolve().parents[1] / "docs" / "run_report_schema.json").read_text()
    )
)

_SETTINGS = hyp_settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 1e-300, 5e-324, 1e300, 0.5, 2.0, 1e6, 1e12]),
)
_JUNK = st.text(max_size=6)


def _number(units):
    """A float with an optional unit suffix, or junk text."""
    with_unit = st.builds(
        lambda x, unit, space: f"{x!r}{' ' if space else ''}{unit}",
        _FLOATS,
        st.sampled_from(["", *units]),
        st.booleans(),
    )
    return st.one_of(with_unit, _JUNK)


_DURATION = _number(["fs", "ps", "ns", "us", "ms", "s", "PS"])
_LENGTH = _number(["m", "km", "KM"])
_ANGLE = _number(["deg", "rad"])
_SPEED = st.one_of(_number([]), st.sampled_from(["inf", "Infinity", "-inf", "nan"]))
_INT = st.one_of(st.integers(-5, 10_000), st.integers(), _JUNK)


def _opt(flag, values):
    """Either nothing or ``[flag, value]``."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _cat(*parts):
    return st.tuples(*parts).map(lambda groups: [tok for g in groups for tok in g])


def _argv(tmp_path, command):
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(scenario_to_dict(preset("gisin1999"))))
    refs = st.one_of(
        st.sampled_from([*PRESET_NAMES, "nosuch", "", str(scenario_file), str(tmp_path / "no.json")]),
        _JUNK,
    )
    fmt = _opt("--format", st.sampled_from(["json", "csv", "text", "yaml"]))
    settings = st.one_of(
        st.lists(_ANGLE, min_size=0, max_size=5).map(",".join),
        st.sampled_from(["0,45deg,22.5deg,67.5deg", "nan,0,0,0", "inf,0,0,0", "0,0,0"]),
    )
    sim = _cat(
        fmt,
        _opt("--fallback", st.sampled_from(["uncorrelated", "lhv", "quantum"])),
        _opt("--settings", settings),
        _opt("--seed", _INT),
        _opt("--workers", st.one_of(st.integers(-2, 3), _JUNK)),
        _flag("--equalize-starts"),
        _flag("--depart-at-end"),
    )
    pairs = _opt("-n", st.one_of(st.integers(-5, 10_000), _JUNK))
    out = st.sampled_from(
        [str(tmp_path / "out.csv"), str(tmp_path / "missing" / "out.csv"), str(tmp_path)]
    )
    bound = _cat(st.just(["bound"]), refs.map(lambda r: [r]), fmt, _opt("--tau", _DURATION))
    simulate = _cat(
        st.just(["simulate"]),
        refs.map(lambda r: [r]),
        sim,
        _opt("--v-over-c", _SPEED),
        pairs,
        _opt("--trace", st.one_of(st.integers(-5, 50), _JUNK)),
    )
    sweep = _cat(
        st.just(["sweep"]),
        refs.map(lambda r: [r]),
        sim,
        _opt("--v-min", _FLOATS),
        _opt("--v-max", _FLOATS),
        _opt("--points", st.integers(-2, 5)),
        _opt("--spacing", st.sampled_from(["log", "linear", "cubic"])),
        pairs,
        _opt("--out", out),
    )
    linkbudget = _cat(
        st.just(["linkbudget"]),
        fmt,
        _opt("--length-a", _LENGTH),
        _opt("--length-b", _LENGTH),
        _opt("--ref-length", _LENGTH),
        _opt("--ref-loss-db", _FLOATS),
        _opt("--eff-a", _FLOATS),
        _opt("--eff-b", _FLOATS),
        _opt("--pair-rate", _FLOATS),
        _opt("--s-expected", _FLOATS),
        _opt("--k-sigma", _FLOATS),
    )
    scales = _cat(
        st.just(["scales"]),
        fmt,
        _opt("--n-values", st.lists(_INT, max_size=4).map(lambda xs: ",".join(map(str, xs)))),
        _opt("--mass", _FLOATS),
        _opt("--d-min", _FLOATS),
        _opt("--d-max", _FLOATS),
    )
    validate = _cat(st.just(["validate"]), refs.map(lambda r: [r]), fmt)
    presets = _cat(st.just(["presets"]), fmt)
    junk = st.lists(_JUNK, max_size=3)
    return {
        "bound": bound,
        "simulate": simulate,
        "sweep": sweep,
        "linkbudget": linkbudget,
        "scales": scales,
        "validate": validate,
        "presets": presets,
        "junk": junk,
    }[command]


def _run(argv):
    """(exit code, stderr) of one in-process CLI call; a JSON report is schema-checked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors, --help, --version
            code = exc.code
    # csv starts with its "key,value" header and text with "command: ".
    if code == 0 and out.getvalue().startswith("{"):
        _REPORT_SCHEMA.validate(json.loads(out.getvalue()))
    return code, err.getvalue()


@pytest.mark.parametrize(
    "command",
    ["bound", "simulate", "sweep", "linkbudget", "scales", "validate", "presets", "junk"],
)
@_SETTINGS
@given(data=st.data())
def test_any_argv_exits_with_a_contract_code(tmp_path, command, data):
    argv = data.draw(_argv(tmp_path, command), label="argv")
    code, stderr = _run(argv)
    assert code in CONTRACT, (argv, code, stderr)
    assert "Traceback" not in stderr


_JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**308, max_value=10**400),
    _FLOATS,
    st.text(max_size=5),
)
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    """Every key/index path inside a JSON document."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*prefix, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, (*prefix, i))


@st.composite
def _scenario_document(draw):
    """A preset's document with a few fields replaced, removed or added."""
    doc = scenario_to_dict(preset(draw(st.sampled_from(PRESET_NAMES))))
    for _ in range(draw(st.integers(0, 3))):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON_VALUE)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=5))] = draw(_JSON_VALUE)
        else:
            parent.append(draw(_JSON_VALUE))
    return json.dumps(doc).encode()


_DOCUMENT = st.one_of(
    _scenario_document(),
    st.binary(max_size=40),
    _JSON_VALUE.map(lambda v: json.dumps(v).encode()),
)


@_SETTINGS
@given(
    document=_DOCUMENT,
    command=st.sampled_from(
        [
            ["validate"],
            ["bound"],
            ["simulate", "-n", "1000", "--trace", "2"],
            ["simulate", "--equalize-starts", "--v-over-c", "1e9", "-n", "1000"],
        ]
    ),
)
def test_any_scenario_document_exits_with_a_contract_code(tmp_path, document, command):
    path = tmp_path / "scenario.json"
    path.write_bytes(document)
    code, stderr = _run([command[0], str(path), *command[1:]])
    assert code in CONTRACT, (document, command, code, stderr)
    assert "Traceback" not in stderr


_REPORT_ARGVS = {
    "bound": ["bound", "gisin1999"],
    "simulate": ["simulate", "gisin1999", "-n", "1000", "--trace", "2"],
    "sweep": ["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "2", "-n", "1000", "--out"],
    "linkbudget": ["linkbudget", "--length-a", "384400km", "--length-b", "500km", "--pair-rate", "1e9"],
    "scales": ["scales"],
    "validate": ["validate"],
    "presets": ["presets"],
}


@pytest.mark.parametrize("section", ["inputs", "results"])
@pytest.mark.parametrize("command", list(_REPORT_ARGVS))
def test_schema_rejects_a_key_the_command_never_prints(tmp_path, command, section):
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(scenario_to_dict(preset("gisin1999"))))
    path = {"sweep": [str(tmp_path / "out.csv")], "validate": [str(scenario_file)]}.get(command, [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*_REPORT_ARGVS[command], *path]) == 0
    report = json.loads(out.getvalue())
    _REPORT_SCHEMA.validate(report)
    report[section]["unexpected"] = 1
    assert not _REPORT_SCHEMA.is_valid(report)
