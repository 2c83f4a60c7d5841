"""The JSON report renderer prints what ``json.dumps(indent=2, sort_keys=True)``
prints, and a traced report holds one row per cell of the run's table."""

import contextlib
import io
import json
import math
import pathlib

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from moonbell import cli, preset, scenario_to_json

REPO = pathlib.Path(__file__).resolve().parents[1]
_PINNED_REPORTS = json.loads((REPO / "tests" / "pinned_reports.json").read_text())


def _dumps(tree):
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False) + "\n"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**53 + 1])
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


@pytest.mark.parametrize(
    "tree",
    [{"x": math.nan}, {"x": [math.inf]}, [{"y": -math.inf}], {"x": object()}],
    ids=["nan", "inf", "-inf", "object"],
)
def test_json_render_fails_as_json_dumps_does(tree):
    with pytest.raises((ValueError, TypeError)) as expected:
        _dumps(tree)
    with pytest.raises(expected.type) as raised:
        cli.render_report(tree, "json")
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "text",
    ["", " ", "~", "plain text, 1/2", '"', "\\", "\x7f", "\x1f", "\t", "é", "\u2028", "\U0001f319"],
)
def test_json_render_escapes_strings_as_json_dumps(text):
    # The renderer escapes every string with _json's C encoder, which
    # json.dumps uses too.
    tree = {text: text}
    assert cli.render_report(tree, "json") == _dumps(tree)


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
    _, results = cli.cmd_simulate(args)
    assert len(results["trace"]) == 10_000
    assert len({id(row) for row in results["trace"]}) <= 16
    report = cli.make_report("simulate", {}, results)
    assert report["results"]["trace"] == json.loads(json.dumps(results["trace"]))
    assert len({id(row) for row in report["results"]["trace"]}) <= 16


def test_largest_trace_renders_as_json_dumps():
    code, out = _main(["simulate", "gisin1999", "-n", "200000", "--trace", "100000", "--seed", "2"])
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["trace"]) == 100_000
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
