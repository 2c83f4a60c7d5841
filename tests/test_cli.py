import contextlib
import csv
import io
import itertools
import json
import math
import pathlib
import subprocess
import sys
import textwrap

import jsonschema
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from moonbell import claims_as_dicts, preset, scenario_to_json
from moonbell.cli import _DURATION_UNITS, COMMANDS, build_parser, main, parse_well_formed
from moonbell.bounds import scenario_timing
from moonbell.constants import quantity
from moonbell.linkbudget import _LENGTH_UNITS
from moonbell.simulate import _ANGLE_UNITS

REPO = pathlib.Path(__file__).resolve().parents[1]
REPORT_SCHEMA = json.loads((REPO / "docs" / "run_report_schema.json").read_text())


def run_cli(*args, check=False):
    """One CLI process; the JSON report of every exit 0 is checked against the schema."""
    proc = subprocess.run(
        [sys.executable, "-m", "moonbell", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    # csv starts with its "key,value" header and text with "command: ".
    if proc.returncode == 0 and proc.stdout.startswith("{"):
        jsonschema.validate(json.loads(proc.stdout), REPORT_SCHEMA)
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


def test_bound_earth_moon_case3():
    proc = run_cli("bound", "earth_moon_case3", check=True)
    report = report_of(proc)
    assert report["command"] == "bound"
    assert report["results"]["v_min_over_c"] == pytest.approx(5.13e11, rel=5e-3)
    assert report["results"]["gain_vs_cao2017"] == pytest.approx(549.14, rel=1e-3)
    assert report["inputs"]["tau_s"] == 5e-12
    assert any(d["claim_id"] == "gisin_bound_quoted_reference" for d in report["discrepancies"])


def test_bound_unknown_preset_exits_3():
    proc = run_cli("bound", "nosuch")
    assert proc.returncode == 3
    assert "nosuch" in proc.stderr


def test_bound_tau_override():
    proc = run_cli("bound", "gisin1999", "--tau", "10ps", check=True)
    report = report_of(proc)
    assert report["results"]["v_min_over_c"] == pytest.approx(3.536e6, rel=1e-3)


def test_bound_gains_at_a_tau_override_are_length_ratios():
    # Every preset measures for 5 ps, so only an override tells a gain taken
    # at the resolved tau from one taken at each scenario's own tau.
    results = report_of(run_cli("bound", "earth_moon_case3", "--tau", "10ps", check=True))["results"]
    assert results["tau_s"] == 1e-11
    for ref in ("gisin1999", "cao2017"):
        ref_l_max = max(arm.length_m for arm in preset(ref).arms)
        assert results[f"gain_vs_{ref}"] == pytest.approx(results["l_max_m"] / ref_l_max, rel=1e-15)


def test_bound_accepts_scenario_file(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(scenario_to_json(preset("gisin1999")))
    proc = run_cli("bound", str(path), check=True)
    report = report_of(proc)
    assert report["results"]["l_max_m"] == pytest.approx(5300.0)


def test_validate_good_and_bad_files(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(scenario_to_json(preset("cao2017")))
    proc = run_cli("validate", str(good), check=True)
    assert report_of(proc)["results"]["valid"] is True

    bad = tmp_path / "bad.json"
    doc = json.loads(scenario_to_json(preset("cao2017")))
    doc["arms"][0]["tau_s"] = 0.0
    bad.write_text(json.dumps(doc))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 2
    assert "tau_s" in proc.stderr

    proc = run_cli("validate", str(tmp_path / "missing.json"))
    assert proc.returncode == 3


@pytest.mark.parametrize("command", [("validate",), ("simulate", "-n", "100")])
def test_scenario_file_not_utf8_names_the_file(tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    proc = run_cli(command[0], str(path), *command[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_presets_lists_all():
    report = report_of(run_cli("presets", check=True))
    names = [row["name"] for row in report["results"]["presets"]]
    assert len(names) == 7 and "lagrange_l4l5" in names


def test_simulate_reports_estimate():
    proc = run_cli(
        "simulate", "gisin1999", "--v-over-c", "inf", "-n", "20000", "--seed", "4",
        check=True,
    )
    report = report_of(proc)
    assert report["seed"] == 4
    assert report["results"]["connected"] is True
    assert report["results"]["s_hat"] == pytest.approx(2.83, abs=0.1)
    assert report["inputs"]["v_over_c"] == "inf"


def test_simulate_trace_records():
    proc = run_cli(
        "simulate", "earth_moon_case3", "--v-over-c", "0.001", "--fallback", "lhv",
        "-n", "100", "--seed", "1", "--trace", "5", check=True,
    )
    report = report_of(proc)
    trace = report["results"]["trace"]
    assert len(trace) == 5
    assert all(t["connected"] is False for t in trace)
    arms = report["results"]["timing"]["arms"]
    assert arms[1]["measure_end_fs"] - arms[1]["measure_start_fs"] == 5000


def _flat_results(stdout, fmt):
    """``results.*`` key -> value text of a csv or text report."""
    if fmt == "csv":
        rows = [line.split(",", 1) for line in stdout.splitlines()[1:]]
    else:
        rows = [line.split(": ", 1) for line in stdout.splitlines()]
    return {key: value for key, value in rows if key.startswith("results.")}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_traced_report_prints_timeline_once(fmt):
    args = ("simulate", "earth_moon_case3", "-n", "1000", "--seed", "2", "--format", fmt)
    traced = run_cli(*args, "--trace", "3", check=True)
    plain = run_cli(*args, check=True)
    arms = [t._asdict() for t in scenario_timing(preset("earth_moon_case3"))]
    record_keys = {"connected", "settings", "outcomes"}
    if fmt == "json":
        results = report_of(traced)["results"]
        assert results["timing"] == {"emission_fs": 0, "arms": arms}
        assert [set(rec) for rec in results["trace"]] == [record_keys] * 3
        assert not {"timing", "trace"} & report_of(plain)["results"].keys()
        return
    flat = _flat_results(traced.stdout, fmt)
    expected = {"results.timing.emission_fs": "0"}
    for i, arm in enumerate(arms):
        expected.update({f"results.timing.arms[{i}].{k}": str(v) for k, v in arm.items()})
    assert {k: v for k, v in flat.items() if k.startswith("results.timing.")} == expected
    assert not any(k.endswith("_fs") for k in flat.keys() - expected.keys())
    for i in range(3):
        prefix = f"results.trace[{i}]."
        fields = {k[len(prefix):].split("[")[0] for k in flat if k.startswith(prefix)}
        assert fields == record_keys
    assert "results.trace[3].connected" not in flat
    untraced = _flat_results(plain.stdout, fmt)
    assert not any(k.startswith(("results.timing", "results.trace")) for k in untraced)


def test_sweep_writes_csv_and_brackets_critical_speed(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "earth_moon_case3", "--equalize-starts",
        "--v-min", "1e10", "--v-max", "1e13", "--points", "10",
        "--fallback", "lhv", "-n", "2000", "--seed", "5",
        "--out", str(out), check=True,
    )
    report = report_of(proc)
    lines = out.read_text().splitlines()
    assert lines[0] == "v_over_c,S_hat,stderr_S,n_pairs,fraction_connected"
    assert len(lines) == 11
    assert report["results"]["bracket_contains_critical"] is True
    bracket = report["results"]["transition_bracket"]
    assert bracket["below"] < report["results"]["critical_v_over_c"] <= bracket["above"]


def test_sweep_single_point(tmp_path):
    out = tmp_path / "one.csv"
    run_cli(
        "sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e6", "--points", "1",
        "-n", "500", "--out", str(out), check=True,
    )
    assert len(out.read_text().splitlines()) == 2


def test_sweep_brackets_critical_speed_between_adjacent_floats(tmp_path):
    # 7071558.818200824 is gisin1999's printed critical speed; the float
    # just below it must not connect.
    out = tmp_path / "edge.csv"
    proc = run_cli(
        "sweep", "gisin1999", "--v-min", "7071558.818200823", "--v-max", "7071558.818200824",
        "--points", "2", "--spacing", "linear", "-n", "1000", "--out", str(out), check=True,
    )
    assert report_of(proc)["results"]["bracket_contains_critical"] is True
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["0.0", "1.0"]


def test_sweep_deterministic_across_workers(tmp_path):
    args = [
        "sweep", "earth_moon_case3", "--v-min", "1e9", "--v-max", "1e12",
        "--points", "4", "-n", "3000", "--seed", "42", "--fallback", "lhv",
    ]
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    run_cli(*args, "--workers", "1", "--out", str(out1), check=True)
    run_cli(*args, "--workers", "2", "--out", str(out2), check=True)
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_bad_grid_exits_2(tmp_path):
    proc = run_cli(
        "sweep", "gisin1999", "--v-min", "10", "--v-max", "1", "--points", "5",
        "--out", str(tmp_path / "x.csv"),
    )
    assert proc.returncode == 2


def test_sweep_unwritable_path_exits_4():
    proc = run_cli(
        "sweep", "gisin1999", "--v-min", "1", "--v-max", "10", "--points", "2",
        "-n", "100", "--out", "/nonexistent_dir_xyz/out.csv",
    )
    assert proc.returncode == 4


def test_linkbudget_report():
    proc = run_cli(
        "linkbudget", "--length-a", "384400km", "--length-b", "500km",
        "--ref-length", "500km", "--ref-loss-db", "30", "--pair-rate", "1e9",
        check=True,
    )
    report = report_of(proc)
    res = report["results"]
    assert res["losses_db"]["arm_a"] == pytest.approx(87.716, rel=1e-3)
    assert res["pairs_required"] == 108
    assert res["cadence_flag"]["threshold_hz"] == pytest.approx(12.5)


def test_scales_default_rows_and_mond():
    report = report_of(run_cli("scales", check=True))
    rows = report["results"]["rows"]
    ns = [row["n"] for row in rows]
    assert ns.count(0) == 2  # finite and instantaneous base cases
    assert -1 in ns and 1 in ns
    assert rows[-1]["n"] is None  # modified-gravity row always appended
    assert rows[-1]["classification"] == "unobservable_at_earth_moon"
    by_n = {row["n"]: row for row in rows if row["v_over_c"] not in (None, "inf")}
    assert by_n[1]["classification"] == "excluded"
    assert by_n[-1]["classification"] == "observable"


def test_scales_empty_n_list_is_usage_error():
    proc = run_cli("scales", "--n-values", "")
    assert proc.returncode == 2


def test_scales_custom_mass_reclassifies():
    # electron mass shrinks kappa by ~(1836)^2, pushing the N=-1 distance
    # beyond the window
    report = report_of(run_cli("scales", "--mass", "9.1093837015e-31", check=True))
    rows = {row["n"]: row for row in report["results"]["rows"] if row["v_over_c"] not in (None, "inf")}
    assert rows[-1]["classification"] == "unobservable_at_earth_moon"


def test_formats_supported():
    for fmt in ("json", "csv", "text"):
        proc = run_cli("bound", "gisin1999", "--format", fmt, check=True)
        assert proc.stdout
    csv_out = run_cli("bound", "gisin1999", "--format", "csv", check=True).stdout
    assert csv_out.splitlines()[0] == "key,value"
    text_out = run_cli("bound", "gisin1999", "--format", "text", check=True).stdout
    assert "results.v_min_over_c" in text_out


def test_worker_env_var_never_changes_output(tmp_path):
    import os

    args = [
        sys.executable, "-m", "moonbell", "sweep", "gisin1999",
        "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "2000",
        "--seed", "8",
    ]
    # Both runs write the same path, so the reports (which echo inputs.workers)
    # must match byte for byte along with the CSVs.
    out = tmp_path / "sweep.csv"
    runs = []
    for env in (None, dict(os.environ, MOONBELL_WORKERS="3")):
        proc = subprocess.run([*args, "--out", str(out)], check=True, capture_output=True, env=env)
        jsonschema.validate(json.loads(proc.stdout), REPORT_SCHEMA)
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]


def test_discrepancy_ledger_byte_stable():
    a = report_of(run_cli("bound", "earth_moon_case3", check=True))["discrepancies"]
    b = report_of(run_cli("scales", check=True))["discrepancies"]
    assert a == b
    ids = [d["claim_id"] for d in a]
    assert ids == sorted(ids)
    # The csv report is the ledger's one CSV form: a row per field of every
    # claim, floats at full precision.
    stdout = run_cli("bound", "earth_moon_case3", "--format", "csv", check=True).stdout
    rows = [row for row in csv.reader(io.StringIO(stdout)) if row[0].startswith("discrepancies[")]
    assert rows == [
        [f"discrepancies[{i}].{field}", repr(value) if isinstance(value, float) else value]
        for i, claim in enumerate(claims_as_dicts())
        for field, value in sorted(claim.items())
    ]


def test_simulate_results_independent_of_workers():
    args = ("simulate", "earth_moon_case3", "-n", "200000", "--seed", "-3", "--trace", "4")
    one = report_of(run_cli(*args, "--workers", "1", check=True))
    two = report_of(run_cli(*args, "--workers", "2", check=True))
    assert one["results"] == two["results"]
    assert run_cli(*args, "--workers", "0").returncode == 2


def _extreme_scenario(tmp_path, name, arm, key, value):
    doc = json.loads(scenario_to_json(preset("gisin1999")))
    doc["arms"][arm][key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))  # json writes inf as the literal Infinity
    return str(path)


def _far_scenario(tmp_path):
    doc = json.loads(scenario_to_json(preset("gisin1999")))
    for arm, x in zip(doc["arms"], (-1e160, 1e160)):
        arm["detector"]["position"] = [x, 0.0, 0.0]
        arm["path"][-1] = [x, 0.0, 0.0]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _deep_scenario(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


def _faulty_scenario(tmp_path, fault):
    doc = fault(json.loads(scenario_to_json(preset("gisin1999"))))
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(doc))  # json writes inf and nan as Infinity and NaN
    return str(path)


_DROP = object()


def _put(path, value):
    """A fault that sets the field at ``path`` to ``value``, or deletes it for _DROP."""

    def fault(doc):
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
        return doc

    return fault


# One fault per document, and the exact line the loader prints for it.
@pytest.mark.parametrize(
    "fault, line",
    [
        (_put(("source", "position", 0), float("inf")), "source.position: coordinates must be finite"),
        (_put(("arms", 0, "path", 0, 1), float("nan")), "arms[0].path[0]: coordinates must be finite"),
        (_put(("arms", 0, "path"), [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-5300.0, 0.0, 0.0]]),
         "arms[0].path: consecutive vertices 0 and 1 coincide"),
        (_put(("arms", 1, "path", 0), [0.0, 1.0, 0.0]),
         "arms[1].path: path must start at the source position (within 1 mm)"),
        (_put(("arms", 0, "detector"), "west"), "arms[0].detector: expected an object"),
        (_put(("arms", 1), []), "arms[1]: expected an object"),
        (_put(("source", "name"), None), "source.name: name must be a string"),
        (_put(("arms", 1, "detector", "name"), 5), "arms[1].detector.name: name must be a string"),
        (_put(("name",), 7), "name: name must be a string"),
        (_put(("frame_note",), ["lab"]), "frame_note: frame_note must be a string"),
        (_put(("arms", 0, "path"), [[0.0, 0.0, 0.0]]),
         "arms[0].path: path must be a list of at least 2 points"),
        (lambda doc: {**doc, "arms": doc["arms"] + doc["arms"][:1]},
         "arms: arms must be a list of exactly 2 entries"),
        (lambda doc: [], "expected a JSON object at the top level"),
        (_put(("color",), "blue"), "document: unknown field(s) ['color']"),
        (_put(("arms", 0, "detector", "colour"), "red"), "arms[0].detector: unknown field(s) ['colour']"),
        (_put(("arms",), _DROP), "arms: required field missing"),
        (_put(("arms", 0, "tau_s"), _DROP), "arms[0].tau_s: required field missing"),
    ],
)
def test_single_fault_document_names_field(tmp_path, fault, line):
    proc = run_cli("validate", _faulty_scenario(tmp_path, fault))
    assert proc.returncode == 2, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", f"error: {line}\n")


_UNIT_LINK = ("--length-a", "1km", "--length-b", "1km", "--ref-length", "1km", "--pair-rate", "1")


@pytest.mark.parametrize(
    "make_argv, code, needle",
    [
        (lambda d: ("validate", _far_scenario(d)), 0, None),
        (lambda d: ("bound", _far_scenario(d)), 0, None),
        (lambda d: ("simulate", _far_scenario(d), "-n", "1000"), 0, None),
        (lambda d: ("validate", _extreme_scenario(d, "t", 0, "tau_s", float("inf"))), 2, "tau_s"),
        (lambda d: ("bound", _extreme_scenario(d, "t", 0, "tau_s", float("inf"))), 2, "tau_s"),
        (lambda d: ("simulate", _extreme_scenario(d, "t", 0, "tau_s", float("inf"))), 2, "tau_s"),
        (lambda d: ("bound", _extreme_scenario(d, "o", 1, "offset_s", 1e300)), 2, "offset_s"),
        (lambda d: ("simulate", _extreme_scenario(d, "o", 1, "offset_s", 1e300)), 2, "offset_s"),
        (lambda d: ("bound", "gisin1999", "--tau", "inf"), 2, "tau"),
        (lambda d: ("bound", "gisin1999", "--tau", "1e300"), 2, "tau"),
        (lambda d: ("simulate", "gisin1999", "-n", str(2**63)),
         2, "n_pairs (-n/--pairs) must be at most 2**63 - 1, got 9223372036854775808"),
        (lambda d: ("sweep", "gisin1999", "--v-min", "5", "--v-max", "2", "--out", str(d / "rev.csv")),
         2, "--v-max must exceed --v-min 5.0, got 2.0"),
        (lambda d: ("simulate", "gisin1999", "-n", "1000000000000", "--trace", "1000000000000"),
         2, "--trace"),
        (lambda d: ("sweep", "gisin1999", "--v-min", "1", "--v-max", "inf", "--points", "3",
                    "--out", str(d / "inf.csv")), 2, "--v-max"),
        (lambda d: ("sweep", "gisin1999", "--v-min", "1", "--v-max", "1.0000000000000002",
                    "--points", "5", "--spacing", "linear", "--out", str(d / "lin.csv")),
         2, "--points 5"),
        (lambda d: ("sweep", "gisin1999", "--v-min", "1e300", "--v-max", "1.0000000000000002e300",
                    "--points", "3", "--out", str(d / "log.csv")), 2, "--points 3"),
        (lambda d: ("linkbudget", *_UNIT_LINK, "--s-expected", "3"), 2, "2*sqrt(2)"),
        (lambda d: ("linkbudget", *_UNIT_LINK, "--s-expected", "inf"), 2, "2*sqrt(2)"),
        (lambda d: ("linkbudget", "--length-a", "1e-300m", "--length-b", "1km",
                    "--ref-length", "1e300m", "--ref-loss-db", "1e300", "--pair-rate", "1"),
         2, "1e-300 m / 1e+300 m"),
        (lambda d: ("linkbudget", "--length-a", "1e300m", "--length-b", "1km",
                    "--ref-length", "1e-300m", "--pair-rate", "1"),
         2, "1e+300 m / 1e-300 m"),
        (lambda d: ("simulate", "gisin1999", "--trace", "-5"), 2, "--trace) must be >= 0, got -5"),
        (lambda d: ("linkbudget", *_UNIT_LINK[:6], "--pair-rate", "inf"),
         2, "pair rate (--pair-rate) must be finite, got inf"),
        (lambda d: ("linkbudget", *_UNIT_LINK, "--ref-loss-db", "nan"),
         2, "reference loss (--ref-loss-db) must be finite, got nan"),
        (lambda d: ("linkbudget", *_UNIT_LINK, "--ref-loss-db", "inf"),
         2, "reference loss (--ref-loss-db) must be finite, got inf"),
        (lambda d: ("linkbudget", *_UNIT_LINK, "--ref-loss-db", "5000"),
         2, "arm losses 5000.0 dB and 5000.0 dB; lower the reference loss (--ref-loss-db)"),
        (lambda d: ("linkbudget", "--length-a", "500km", "--length-b", "500km", "--pair-rate", "1",
                    "--eff-a", "1e-200", "--eff-b", "1e-200"),
         2, "--pair-rate 1.0 Hz, --eff-a 1e-200 and --eff-b 1e-200 after arm losses 0.0 dB and "
            "0.0 dB; lower the reference loss (--ref-loss-db), now 0.0 dB"),
        (lambda d: ("linkbudget", "--length-a", "500km", "--length-b", "500km",
                    "--pair-rate", "1e-320"), 2, "(--pair-rate, 1e-320 Hz)"),
        (lambda d: ("sweep", "gisin1999", "--v-min", "1", "--v-max", "2", "--points", "100000000",
                    "-n", "4", "--out", str(d / "big.csv")), 2, "--points must be at most 100000"),
        (lambda d: ("validate", _deep_scenario(d)), 2, "nested too deeply"),
        (lambda d: ("bound", _deep_scenario(d)), 2, "nested too deeply"),
        (lambda d: ("simulate", _deep_scenario(d)), 2, "nested too deeply"),
        (lambda d: ("scales", "--d-min=-1", "--d-max", "0"),
         2, "window floor (--d-min) must be >= 0 m, got -1.0"),
        (lambda d: ("scales", "--d-min=-inf"), 2, "window floor (--d-min) must be >= 0 m, got -inf"),
        (lambda d: ("bound", "gisin1999", "--tau", "nan"),
         2, "tau override (--tau) must be > 0, got nan s"),
        (lambda d: ("bound", "gisin1999", "--tau", "0"), 2, "tau override (--tau) must be > 0, got 0.0 s"),
        (lambda d: ("simulate", "gisin1999", "--v-over-c", "nan"),
         2, "v_over_c (--v-over-c) must be > 0 (inf for instantaneous), got nan"),
        (lambda d: ("simulate", "gisin1999", "--v-over-c", "0"),
         2, "v_over_c (--v-over-c) must be > 0 (inf for instantaneous), got 0.0"),
        (lambda d: ("scales", "--d-max", "nan"),
         2, "window ceiling (--d-max) must be > the floor (--d-min, 0.01 m), got nan"),
        (lambda d: ("scales", "--d-min", "5", "--d-max", "1"),
         2, "window ceiling (--d-max) must be > the floor (--d-min, 5.0 m), got 1.0"),
        (lambda d: ("scales", "--mass=-1"), 2, "mass (--mass) must be > 0, got -1.0 kg"),
        (lambda d: ("scales", "--mass", "1e300"),
         2, "mass (--mass) 1e+300 kg puts kappa outside the float range"),
        (lambda d: ("scales", "--n-values=1000"),
         2, "kappa**1000 is outside the float range: exponent (--n-values) 1000, "
            "mass (--mass) 1.67262192369e-27 kg"),
        (lambda d: ("simulate", "gisin1999", "-n", "3"), 2, "n_pairs (-n/--pairs) must be at least 4, got 3"),
        (lambda d: ("sweep", "gisin1999", "-n", "3", "--v-min", "1", "--v-max", "2",
                    "--out", str(d / "few.csv")), 2, "n_pairs (-n/--pairs) must be at least 4, got 3"),
        (lambda d: ("sweep", "gisin1999", "--points", "0", "--v-min", "1", "--v-max", "2",
                    "--out", str(d / "none.csv")), 2, "--points must be >= 1, got 0"),
        (lambda d: ("sweep", "gisin1999", "--v-min", "0", "--v-max", "2",
                    "--out", str(d / "zero.csv")), 2, "--v-min must be > 0, got 0.0"),
        (lambda d: ("bound", "gisin1999", "--tau", "1e-320"),
         2, "error: tau override (--tau) 1e-320 s puts v_min/c = inf out of float range\n"),
        (lambda d: ("bound", "gisin1999", "--tau", "inf"),
         2, "error: tau override (--tau) must be finite, got inf s\n"),
        (lambda d: ("bound", _faulty_scenario(
            d, lambda doc: {**doc, "arms": [{**arm, "tau_s": 1e-320} for arm in doc["arms"]]})),
         2, "error: the scenario's tau_s 1e-320 s puts v_min/c = inf out of float range\n"),
    ],
)
def test_extreme_inputs_exit_cleanly(tmp_path, make_argv, code, needle):
    proc = run_cli(*make_argv(tmp_path))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if needle is not None:
        assert needle in proc.stderr


# Captured before numpy moved out of simulate.py's module scope: the Philox
# stream, the SeedSequence sub-seeds and the rendering must not move.
_PINNED_ARMS = [
    {"arrival_fs": 17678897046, "measure_end_fs": 17678902046, "measure_start_fs": 17678897046}
] * 2
_PINNED_SIMULATE_RESULTS = {
    "connected": True,
    "counts": [25211, 24815, 24953, 25021],
    "critical_v_over_c": 7071558.818200824,
    "e_hat": [0.6949744159295546, -0.7138827322184162, 0.705606540295756, 0.7091243355581311],
    "fraction_connected": 1.0,
    "s_hat": 2.823588024001858,
    "stderr_s": 0.008958797595210604,
    "timing": {"arms": _PINNED_ARMS, "emission_fs": 0},
    "trace": [
        {
            "connected": True,
            "outcomes": outcomes,
            "settings": [0.0, b],
        }
        for b, outcomes in [
            (1.1780972450961724, [-1, 1]),
            (1.1780972450961724, [-1, 1]),
            (1.1780972450961724, [1, -1]),
            (0.39269908169872414, [-1, -1]),
            (0.39269908169872414, [-1, 1]),
        ]
    ],
}
_PINNED_SWEEP_CSV = (
    "v_over_c,S_hat,stderr_S,n_pairs,fraction_connected\n"
    "10000000000.0,0.012532060882475722,0.028288673946588416,20000,0.0\n"
    "100000000000.0,-0.01441477220188526,0.028286890657294183,20000,0.0\n"
    "1000000000000.0,2.855338585712857,0.019808393983748254,20000,1.0\n"
)


def test_seeded_simulate_results_are_pinned():
    proc = run_cli("simulate", "gisin1999", "-n", "100000", "--seed", "7", "--trace", "5", check=True)
    report = report_of(proc)
    assert report["seed"] == 7
    assert report["results"] == _PINNED_SIMULATE_RESULTS
    # Byte-level: stdout holds the results block exactly as it was rendered
    # when pinned (the ledger and version around it may change).
    block = textwrap.indent(json.dumps(_PINNED_SIMULATE_RESULTS, indent=2, sort_keys=True), "  ")
    assert '"results": ' + block[2:] + ",\n" in proc.stdout


def test_seeded_sweep_csv_is_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(
        "sweep", "earth_moon_case3", "--equalize-starts",
        "--v-min", "1e10", "--v-max", "1e12", "--points", "3", "-n", "20000", "--seed", "11",
        "--out", str(out), check=True,
    )
    assert out.read_bytes() == _PINNED_SWEEP_CSV.encode()


# One report per subcommand, captured while each command still built and
# printed its own report; the ledger and version around it may change.
# "{tmp}" stands for the test's scratch directory.
_PINNED_REPORTS = json.loads((REPO / "tests" / "pinned_reports.json").read_text())


def _flat_lines(value, prefix, fmt):
    """The csv or text lines that render ``value`` under ``prefix``."""
    if isinstance(value, dict):
        return [line for key in sorted(value) for line in _flat_lines(value[key], f"{prefix}.{key}", fmt)]
    if isinstance(value, list):
        return [line for i, v in enumerate(value) for line in _flat_lines(v, f"{prefix}[{i}]", fmt)]
    if fmt == "text":
        return [f"{prefix}: {value}"]
    text = "" if value is None else str(value)
    return [f"{prefix},{text}"]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", sorted(_PINNED_REPORTS))
def test_report_inputs_and_results_are_pinned(tmp_path, command, fmt):
    (tmp_path / "gisin1999.json").write_text(scenario_to_json(preset("gisin1999")))
    pinned = json.loads(json.dumps(_PINNED_REPORTS[command]).replace("{tmp}", str(tmp_path)))
    pinned["command"] = command
    keys = ("command", "inputs", "results", "seed")
    proc = run_cli(*pinned["argv"], "--format", fmt, check=True)
    if fmt == "json":
        report = report_of(proc)
        assert {key: report[key] for key in keys} == {key: pinned[key] for key in keys}
        return
    printed = [line for line in proc.stdout.splitlines() if line.startswith(keys)]
    assert printed == [line for key in keys for line in _flat_lines(pinned[key], key, fmt)]


def test_empty_setting_cell_reports_nan_and_exits_0():
    # 4 pairs leave two of the four setting combinations empty for seed 0.
    proc = run_cli("simulate", "gisin1999", "-n", "4", "--seed", "0", check=True)
    results = report_of(proc)["results"]
    assert results["counts"] == [0, 3, 0, 1]
    assert results["e_hat"][0] == "nan" and results["e_hat"][2] == "nan"
    assert results["s_hat"] == "nan"
    assert results["stderr_s"] == "nan"


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_empty_setting_cell_prints_bare_nan_in_csv_and_text(fmt):
    proc = run_cli("simulate", "gisin1999", "-n", "4", "--seed", "0", "--format", fmt, check=True)
    sep = "," if fmt == "csv" else ": "
    values = dict(line.split(sep, 1) for line in proc.stdout.splitlines())
    keys = ("results.e_hat[0]", "results.e_hat[2]", "results.s_hat", "results.stderr_s")
    assert [values[key] for key in keys] == ["nan"] * 4


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", ["validate", "bound"])
def test_lone_surrogate_in_document_exits_2_in_every_format(tmp_path, command, fmt):
    # The escape "\ud800" is valid JSON; the string it makes has no UTF-8 form.
    text = scenario_to_json(preset("gisin1999")).replace('"name": "gisin1999"', '"name": "g\\ud800"', 1)
    path = tmp_path / "surrogate.json"
    path.write_text(text)
    proc = run_cli(command, str(path), "--format", fmt)
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: name: not UTF-8 text (surrogates not allowed at character 1)\n")


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_workers_below_one_exits_2(tmp_path, command, workers):
    out = tmp_path / "w.csv"
    argv = ["simulate", "gisin1999", "-n", "1000"]
    if command == "sweep":
        argv = ["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3",
                "-n", "1000", "--out", str(out)]
    proc = run_cli(*argv, "--workers", workers)
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: --workers must be >= 1, got {workers}\n")
    assert not out.exists()


def _flat_keys(value, prefix=""):
    if isinstance(value, dict):
        return [k for key in sorted(value) for k in _flat_keys(value[key], f"{prefix}.{key}" if prefix else key)]
    if isinstance(value, list):
        return [k for i, v in enumerate(value) for k in _flat_keys(v, f"{prefix}[{i}]")]
    return [prefix]


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "earth_moon_case3"],
        ["simulate", "gisin1999", "-n", "1000", "--trace", "2"],
        ["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "100",
         "--out", "{tmp}/sweep.csv"],
        ["linkbudget", "--length-a", "384400km", "--length-b", "500km", "--pair-rate", "1e9"],
        ["scales"],
        ["validate", "{tmp}/gisin1999.json"],
        ["presets"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_and_text_keys_are_the_flattened_json_keys(tmp_path, capsys, argv):
    (tmp_path / "gisin1999.json").write_text(scenario_to_json(preset("gisin1999")))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]

    def render(fmt):
        assert main([*argv, "--format", fmt]) == 0
        return capsys.readouterr().out

    keys = _flat_keys(json.loads(render("json")))
    assert [row[0] for row in csv.reader(io.StringIO(render("csv")))] == ["key", *keys]
    assert [line.split(": ", 1)[0] for line in render("text").splitlines()] == keys


@pytest.mark.parametrize(
    "name, filename",
    [("a\nb", "doc.json"), ("a\r\nb, \"c\"", "doc.json"), ("cao2017", "line\nbreak.json")],
)
def test_line_break_in_user_string_keeps_one_record_per_key(tmp_path, capsys, name, filename):
    doc = json.loads(scenario_to_json(preset("cao2017")))
    doc["name"] = name
    path = tmp_path / filename
    path.write_text(json.dumps(doc))

    def validate(fmt):
        # In-process, so that no newline translation touches a "\r".
        assert main(["validate", str(path), "--format", fmt]) == 0
        return capsys.readouterr().out

    keys = _flat_keys(json.loads(validate("json")))

    rows = list(csv.reader(io.StringIO(validate("csv"), newline="")))
    assert all(len(row) == 2 for row in rows)
    assert [row[0] for row in rows] == ["key", *keys]
    assert dict(rows[1:])["results.scenario.name"] == name

    lines = validate("text").splitlines()
    assert all(": " in line for line in lines)
    assert [line.split(": ", 1)[0] for line in lines] == keys
    text = dict(line.split(": ", 1) for line in lines)
    assert text["inputs.file"] == (json.dumps(str(path)) if "\n" in filename else str(path))


@pytest.mark.parametrize("arm, lengths", [("A", ("100km", "1000km")), ("B", ("1000km", "100km"))])
def test_linkbudget_arm_shorter_than_reference_names_it(arm, lengths):
    proc = run_cli(
        "linkbudget", "--length-a", lengths[0], "--length-b", lengths[1],
        "--ref-length", "500km", "--pair-rate", "1e6",
    )
    assert proc.returncode == 2
    assert f"arm {arm} (100000.0 m)" in proc.stderr
    assert "--ref-length (500000.0 m)" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("scales", "--n-values", "-400"), "kappa**-400"),
        (("scales", "--n-values", "400"), "kappa**400"),
        (("scales", "--mass", "1e200"), "mass"),
        (("scales", "--mass", "1e-200"), "mass"),
        (("linkbudget", "--length-a", "1km", "--length-b", "1km", "--ref-length", "1km",
          "--pair-rate", "1", "--k-sigma", "1e200"), "k_sigma"),
        (("linkbudget", "--length-a", "1km", "--length-b", "1km", "--ref-length", "1km",
          "--pair-rate", "1", "--k-sigma", "inf"), "k_sigma"),
        (("linkbudget", "--length-a", "1km", "--length-b", "1km", "--ref-length", "1km",
          "--pair-rate", "1", "--k-sigma", "6e153"), "(--k-sigma, 6e+153)"),
        (("linkbudget", "--length-a", "0km", "--length-b", "500km", "--pair-rate", "1e9"),
         "length (--length-a) must be > 0, got 0.0 m"),
        (("linkbudget", *_UNIT_LINK, "--eff-a", "2"),
         "detector efficiency (--eff-a) must be in (0, 1], got 2.0"),
        (("linkbudget", *_UNIT_LINK, "--ref-loss-db", "-1"),
         "reference loss (--ref-loss-db) must be >= 0 dB, got -1.0 dB"),
        (("linkbudget", *_UNIT_LINK[:-1], "-1"), "pair rate (--pair-rate) must be > 0, got -1.0"),
        (("linkbudget", *_UNIT_LINK, "--s-expected", "1.9"),
         "s_expected (--s-expected) must exceed the classical bound 2, got 1.9"),
        (("linkbudget", *_UNIT_LINK, "--k-sigma", "-1"), "k_sigma (--k-sigma) must be >= 0, got -1.0"),
        (("simulate", "gisin1999", "--trace", "200000", "-n", "300000"),
         "trace_limit (--trace) must be at most 100000, got 200000"),
        (("linkbudget", "--length-a", "500km", "--length-b", "0km", "--pair-rate", "1e9"),
         "length (--length-b) must be > 0, got 0.0 m"),
        (("linkbudget", *_UNIT_LINK, "--eff-b", "0"),
         "detector efficiency (--eff-b) must be in (0, 1], got 0.0"),
        (("linkbudget", *_UNIT_LINK, "--length-b", "inf"),
         "length ratio inf m / 1000.0 m is out of range (--length-b over --ref-length)"),
        (("linkbudget", *_UNIT_LINK, "--ref-length", "inf"),
         "length ratio 1000.0 m / inf m is out of range (--length-a over --ref-length)"),
        (("linkbudget", *_UNIT_LINK, "--s-expected", "3"),
         "s_expected (--s-expected) must not exceed the Tsirelson bound 2*sqrt(2), got 3.0"),
        (("linkbudget", *_UNIT_LINK, "--s-expected", "inf"),
         "s_expected (--s-expected) must not exceed the Tsirelson bound 2*sqrt(2), got inf"),
        (("linkbudget", *_UNIT_LINK, "--k-sigma", "1e300"),
         "k_sigma / (s_expected - 2) is too large for a finite pair count, from --k-sigma 1e+300 "
         "and --s-expected 2.8284271247461903"),
        (("linkbudget", *_UNIT_LINK, "--k-sigma", "inf"),
         "k_sigma / (s_expected - 2) is too large for a finite pair count, from --k-sigma inf "
         "and --s-expected 2.8284271247461903"),
    ],
)
def test_out_of_range_numbers_exit_2(argv, needle):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr


_UNIT_TABLES = {"--tau": _DURATION_UNITS, "--settings": _ANGLE_UNITS, "--length-a": _LENGTH_UNITS, "--v-over-c": {}}


@pytest.mark.parametrize("flag, units", _UNIT_TABLES.items())
def test_quantity_reads_every_unit_of_its_table(flag, units):
    # Suffixes are tried in table order, so "2.5ms" is read as milliseconds,
    # not as the seconds of "2.5m", and "2.5km" as kilometres.
    for unit, scale in units.items():
        assert quantity(f"2.5{unit}", units, flag) == 2.5 * scale, unit
        assert quantity(f"  2.5{unit.upper()}\t", units, flag) == 2.5 * scale, unit
    assert quantity(" 1.5e6 ", units, flag) == 1.5e6
    assert [quantity(text, units, flag) for text in ("inf", " INFINITY", "-inf")] == [math.inf, math.inf, -math.inf]


@pytest.mark.parametrize(
    "text, units, flag, message",
    [
        (" 5xs ", _DURATION_UNITS, "--tau", "--tau: ' 5xs ' is not a number with an optional fs/ps/ns/us/ms/s suffix"),
        ("45dgr", _ANGLE_UNITS, "--settings", "--settings: '45dgr' is not a number with an optional deg/rad suffix"),
        ("km", _LENGTH_UNITS, "--ref-length", "--ref-length: 'km' is not a number with an optional km/m suffix"),
        ("fast", {}, "--v-over-c", "--v-over-c: 'fast' is not a number"),
    ],
)
def test_quantity_names_the_flag_and_the_text_it_cannot_read(text, units, flag, message):
    with pytest.raises(ValueError) as raised:
        quantity(text, units, flag)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("bound", "gisin1999", "--tau", "5xs"), "--tau: '5xs'"),
        (("linkbudget", "--length-a", "5mi", "--length-b", "1km", "--pair-rate", "1"),
         "--length-a: '5mi'"),
        (("linkbudget", "--length-a", "1km", "--length-b", "2 parsec", "--pair-rate", "1"),
         "--length-b: '2 parsec'"),
        (("linkbudget", *_UNIT_LINK[:4], "--ref-length", "km", "--pair-rate", "1"),
         "--ref-length: 'km'"),
        (("simulate", "gisin1999", "--v-over-c", "fast"), "--v-over-c: 'fast'"),
        (("simulate", "gisin1999", "--settings", "0,45dgr,22.5deg,67.5deg"),
         "--settings: '45dgr' is not a number with an optional deg/rad suffix, "
         "in '0,45dgr,22.5deg,67.5deg'"),
        (("scales", "--n-values=1,x"), "--n-values: '1,x'"),
        (("simulate", "gisin1999", "--settings", "1,2,3"),
         "--settings needs four comma-separated angles: a,a',b,b', in '1,2,3'"),
        (("simulate", "gisin1999", "--settings", "nan,0,0,0"),
         "analyzer angle (--settings) must be finite, got nan, in 'nan,0,0,0'"),
    ],
)
def test_unit_parse_error_names_flag_and_input(argv, needle):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr


_SWEEP = ("sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "1000")
_COMMANDS = ("bound", "simulate", "sweep", "linkbudget", "scales", "validate", "presets")


def _parse_exit(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits, as argparse's usage paths do."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        parse(argv)
    return exited.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--version"],
        [],
        ["nosuch"],
        *([command, "--help"] for command in _COMMANDS),
        ["bound"],
        ["sweep", "gisin1999", "--v-min", "1e6", "--out", "x.csv"],
        ["linkbudget", "--length-a", "1km", "--length-b", "1km"],
        ["presets", "--format", "yaml"],
        ["bound", "gisin1999", "--format", "yaml"],
        # The top-level parser reports these, so its usage lists all seven commands.
        [*_SWEEP, "--out", "x.csv", "--bogus"],
        ["presets", "extra"],
        ["bound", "gisin1999", "--version"],
    ],
    ids=lambda argv: " ".join(argv) or "no-argv",
)
def test_usage_and_parse_errors_are_the_full_parsers(argv):
    # main leaves these argv to argparse, so it prints what the parser prints.
    assert _parse_exit(main, argv) == _parse_exit(build_parser().parse_args, argv)


def _required_args(arguments):
    """argv for the arguments a command requires: a preset for each positional, 1 for each option."""
    argv = []
    for names, kwargs in arguments:
        if not names[0].startswith("-"):
            argv.append("gisin1999")
        elif kwargs.get("required"):
            argv += [names[-1], "1"]
    return argv


# Every option string that takes a value, and one abbreviation, which only argparse reads.
_VALUE_OPTIONS = [
    (command, flags, flag, _required_args(arguments))
    for command, (_, _, arguments) in COMMANDS.items()
    for flags, kwargs in arguments
    if flags[0].startswith("-") and kwargs.get("action") != "store_true"
    for flag in flags
] + [("bound", ("--tau",), "--ta", ["gisin1999"])]


@pytest.mark.parametrize(
    "command, flags, flag, required", _VALUE_OPTIONS, ids=[f"{c} {f}=--" for c, _, f, _ in _VALUE_OPTIONS]
)
def test_an_option_given_as_equals_dashes_is_a_usage_error(command, flags, flag, required, tmp_path, monkeypatch):
    # Python 3.10-3.12 read "--opt=--" as no value at all, and 3.13 as "--".
    monkeypatch.chdir(tmp_path)
    code, out, err = _parse_exit(main, [command, *required, f"{flag}=--"])
    assert (code, out) == (2, "")
    assert f"argument {'/'.join(flags)}: " in err
    assert list(tmp_path.iterdir()) == []


_FULL_PARSER = build_parser()


def _argparse_vars(argv):
    """vars() of the full parser's namespace for ``argv``; None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_FULL_PARSER.parse_args(argv))
        except SystemExit:
            return None


# Values that argparse reads in different ways: negative-looking, empty, a
# "--", outside a choice list, or not a number.
_VALUES = st.one_of(
    st.sampled_from(["-1", "inf", "x", "yaml", "", "--", "json", "csv", "log", "linear", "lhv", "3",
                     "1e6", "1e8", "10ps", "gisin1999", "-1,0,1"]),
    st.text("0123456789.e-x=", max_size=3),
)
# A value of each type that the type accepts.
_GOOD = {int: "3", float: "1e6", None: "x"}


@st.composite
def _argv(draw, command):
    """argv of ``command`` from its declared option strings, their prefixes,
    ``=`` forms, repeats, ``-n5``, ``--``, help and version flags, and the
    arguments it requires, in any order."""
    arguments = COMMANDS[command][2]
    flags = [flag for names, _ in arguments for flag in names if flag.startswith("-")]
    flags += ["-h", "--help", "--version"]
    prefixes = sorted({flag[:k] for flag in flags for k in range(1, len(flag))})
    chunk = st.one_of(
        st.tuples(st.sampled_from(flags + prefixes + ["-n5"])),
        st.tuples(st.sampled_from(flags), _VALUES),
        st.builds(lambda flag, value: (f"{flag}={value}",), st.sampled_from(flags), _VALUES),
        st.tuples(_VALUES),
    )
    needed = [
        (names[-1], _GOOD[kwargs.get("type")]) if names[0].startswith("-") else ("gisin1999",)
        for names, kwargs in arguments
        if kwargs.get("required") or not names[0].startswith("-")
    ]
    chunks = draw(st.lists(chunk, max_size=6)) + (needed if draw(st.booleans()) else [])
    return [command, *itertools.chain.from_iterable(draw(st.permutations(chunks)))]


@pytest.mark.parametrize("command", list(COMMANDS))
@hyp_settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_plain_parse_returns_argparses_namespace_or_none(command, data):
    argv = data.draw(_argv(command))
    plain = parse_well_formed(argv)
    expected = _argparse_vars(argv)
    if expected is None:
        assert plain is None
    elif plain is not None:
        assert vars(plain) == expected


_SWEEP_ARGV = [*_SWEEP, "--out", "x.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "gisin1999", "--format=csv", "--tau", "10ps"],
        ["bound", "--tau=5ps", "gisin1999", "--tau", "1ns"],
        ["simulate", "earth_moon_case3", "--fallback", "lhv", "--equalize-starts", "-n", "10000000",
         "--v-over-c", "1e6", "--seed", "7", "--trace", "1000", "--workers", "2"],
        [*_SWEEP_ARGV, "--fallback", "uncorrelated", "--depart-at-end", "--workers", "2", "--seed", "1"],
        ["linkbudget", "--length-a", "384400km", "--length-b", "500km", "--ref-length", "1e5m",
         "--ref-loss-db", "30.0", "--eff-a", "0.5", "--eff-b", "0.9", "--pair-rate", "1e9",
         "--k-sigma", "5.0", "--format", "text"],
        ["scales", "--format", "csv", "--n-values=-3,1"],
        ["validate", "scenario.json", "--format", "json"],
        ["presets", "--format", "text"],
    ],
    ids=lambda argv: argv[0],
)
def test_well_formed_argv_takes_the_plain_path(argv):
    plain = parse_well_formed(argv)
    assert plain is not None
    assert vars(plain) == _argparse_vars(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "gisin1999", "-h"],
        ["--version"],
        ["bound", "gisin1999", "--version"],
        [*_SWEEP_ARGV, "--v-m", "1"],
        [*_SWEEP_ARGV, "-n5"],
        [*_SWEEP_ARGV, "--v-min", "-1"],
        list(_SWEEP),
        ["bound", "gisin1999", "--", "--tau"],
        ["bound", "gisin1999", "--tau=--"],
        ["bound", "gisin1999", "--format", "yaml"],
        ["simulate", "gisin1999", "--seed", "x"],
        ["simulate", "gisin1999", "--equalize-starts=1"],
        ["presets", "extra"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no-argv",
)
def test_other_argv_falls_back_to_argparse(argv):
    assert parse_well_formed(argv) is None


def test_every_benchmark_argv_takes_the_plain_path(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import workloads

    sizes = workloads.Sizes(cli_requests=50, sim_requests=4)
    argvs = []
    for name in workloads.WORKLOADS:
        load = workloads.generate(name, 7, tmp_path, sizes, nproc=2)
        argvs += [step.argv for request in load.requests for step in request.steps]
        argvs += [argv for argv, _ in load.warmups] + [load.repeat[1]]
    argvs += [step.argv for request in workloads.probe(tmp_path, 2) for step in request.steps]
    for argv in map(list, argvs):
        plain = parse_well_formed(argv)
        assert plain is not None, argv
        assert vars(plain) == _argparse_vars(argv), argv


def test_sweep_pair_count_error_keeps_its_message(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main([*_SWEEP[:-1], "3", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: n_pairs (-n/--pairs) must be at least 4, got 3\n")
    assert not out.exists()
