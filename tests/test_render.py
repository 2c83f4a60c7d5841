"""The JSON report renderer prints what ``json.dumps(indent=2, sort_keys=True)``
prints for the tree with each non-finite float made the string of its repr,
and a traced report holds one row per cell of the run's table."""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from moonbell import cli, preset, scenario_to_json
from moonbell.simulate import cmd_simulate

REPO = pathlib.Path(__file__).resolve().parents[1]
_PINNED_REPORTS = json.loads((REPO / "tests" / "pinned_reports.json").read_text())


def _json_safe(value):
    """``value`` as the report renderer writes it, in a form json.dumps takes:
    tuples as lists, and inf, -inf and nan as the strings of their reprs."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


def _dumps(tree):
    return json.dumps(_json_safe(tree), indent=2, sort_keys=True, allow_nan=False) + "\n"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**53 + 1, math.inf, -math.inf, math.nan])
    # The default alphabet holds control characters and non-ASCII text.
    | st.text(max_size=8)
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


@st.composite
def _shared_trees(draw):
    """A report-like tree in which one sub-object sits at depths 1, 2 and 3."""
    shared = draw(_TREES)
    tree = draw(st.dictionaries(st.text(max_size=6), _TREES, max_size=3))
    tree.update(a=shared, b=[shared, {"c": shared}], d=shared, e=[[shared, shared], ()])
    return tree


@hyp_settings(max_examples=300, deadline=None)
@given(st.one_of(_TREES, _shared_trees()))
def test_json_render_is_json_dumps(tree):
    assert cli.render_report(tree, "json") == _dumps(tree)


@pytest.mark.parametrize("tree", [{"x": object()}], ids=["object"])
def test_json_render_fails_as_json_dumps_does(tree):
    with pytest.raises(TypeError) as expected:
        _dumps(tree)
    with pytest.raises(TypeError) as raised:
        cli.render_report(tree, "json")
    assert str(raised.value) == str(expected.value)


_TEXTS = ["", " ", "~", "plain text, 1/2", '"', "\\", "\x7f", "\x1f", "\t", "é", "\u2028", "\U0001f319"]


@pytest.mark.parametrize("text", _TEXTS)
def test_json_render_escapes_strings_as_json_dumps(text):
    # This process has loaded _json, as json.dumps uses it, so the renderer
    # quotes every string with _json's C encoder.
    tree = {text: text}
    assert cli.render_report(tree, "json") == _dumps(tree)


def test_json_render_without_json_loaded_is_json_dumps(monkeypatch):
    # As in a fresh process: the renderer quotes printable ASCII itself and
    # loads _json's C encoder for any other string and for a key not a str,
    # so each render below starts with _json unloaded.
    monkeypatch.delitem(sys.modules, "_json")
    with pytest.raises(TypeError):
        cli.render_report({1: "one"}, "json")
    monkeypatch.delitem(sys.modules, "_json")
    tree = {text: text for text in _TEXTS}
    assert cli.render_report(tree, "json") == _dumps(tree)


@hyp_settings(max_examples=500, deadline=None)
# Every code point: control characters, DEL, quotes, backslashes, non-ASCII
# and lone surrogates among them; and text made of the characters the
# encoder's printable-ASCII path must hand on.
@given(st.text(st.characters(exclude_categories=())) | st.text(st.sampled_from(' ~"\\\x00\x1f\x7f\x80\ud800')))
def test_string_encoder_is_json_dumps(text):
    assert cli._json_string(text) == json.dumps(text)


def test_json_render_takes_only_str_keys():
    # Every report key is a str; json.dumps would also quote int, float, bool and None keys.
    with pytest.raises(TypeError):
        cli.render_report({1: "one"}, "json")


def _main(argv):
    """``cli.main`` in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(_PINNED_REPORTS))
def test_pinned_reports_render_as_json_dumps(tmp_path, command):
    (tmp_path / "gisin1999.json").write_text(scenario_to_json(preset("gisin1999")))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in _PINNED_REPORTS[command]["argv"]]
    code, out = _main(argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_trace_rows_are_one_dict_per_cell():
    args = cli.build_parser().parse_args(["simulate", "earth_moon_case3", "-n", "10000", "--trace", "10000"])
    _, results = cmd_simulate(args)
    assert len(results["trace"]) == 10_000
    assert len({id(row) for row in results["trace"]}) <= 16
    report = cli.make_report("simulate", {}, results)
    rendered = json.loads(cli.render_report(report, "json"))
    assert rendered["results"]["trace"] == json.loads(json.dumps(results["trace"]))
    assert len({id(row) for row in report["results"]["trace"]}) <= 16


def test_largest_trace_renders_as_json_dumps():
    code, out = _main(["simulate", "gisin1999", "-n", "200000", "--trace", "100000", "--seed", "2"])
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["trace"]) == 100_000
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
