import dataclasses
import json
import pathlib
import subprocess
import sys
import textwrap

import jsonschema
import pytest

from moonbell import preset, scenario_to_json
from moonbell.simulate import scenario_timing

REPO = pathlib.Path(__file__).resolve().parents[1]
REPORT_SCHEMA = json.loads((REPO / "docs" / "run_report_schema.json").read_text())


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "moonbell", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def report_of(proc):
    report = json.loads(proc.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


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
    arms = [dataclasses.asdict(t) for t in scenario_timing(preset("earth_moon_case3"))]
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
    out1, out2 = tmp_path / "plain.csv", tmp_path / "env.csv"
    subprocess.run([*args, "--out", str(out1)], check=True, capture_output=True)
    env = dict(os.environ, MOONBELL_WORKERS="3")
    subprocess.run([*args, "--out", str(out2)], check=True, capture_output=True, env=env)
    assert out1.read_bytes() == out2.read_bytes()


def test_discrepancy_ledger_byte_stable():
    a = report_of(run_cli("bound", "earth_moon_case3", check=True))["discrepancies"]
    b = report_of(run_cli("scales", check=True))["discrepancies"]
    assert a == b
    ids = [d["claim_id"] for d in a]
    assert ids == sorted(ids)


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
        (lambda d: ("simulate", "gisin1999", "-n", str(2**63)), 2, "n_pairs"),
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


def test_empty_setting_cell_reports_nan_and_exits_0():
    # 4 pairs leave two of the four setting combinations empty for seed 0.
    proc = run_cli("simulate", "gisin1999", "-n", "4", "--seed", "0", check=True)
    results = report_of(proc)["results"]
    assert results["counts"] == [0, 3, 0, 1]
    assert results["e_hat"][0] == "nan" and results["e_hat"][2] == "nan"
    assert results["s_hat"] == "nan"
    assert results["stderr_s"] == "nan"


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
    ],
)
def test_out_of_range_numbers_exit_2(argv, needle):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr


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
    ],
)
def test_unit_parse_error_names_flag_and_input(argv, needle):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr
