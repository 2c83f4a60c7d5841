"""Output checks for the moonbell benchmark.

Every step's output is parsed back into one flat ``{key: value}`` map, with
the key scheme the CLI's csv/text renderers use (``results.rows[2].n``), so
that one set of checks covers all three ``--format`` values. JSON output is
first validated against ``docs/run_report_schema.json``. Expected values are
recomputed here from the generated inputs, never read back from moonbell.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path
from typing import Any

import jsonschema

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "docs" / "run_report_schema.json"

C = 299_792_458.0
TSIRELSON = 2.0 * math.sqrt(2.0)
# CHSH value of the sawtooth hidden-variable model at the default angles
# (0, 45, 22.5, 67.5 deg): each |E| is 1/2, so S = 2.
LHV_S = 2.0
# Monte Carlo estimates must land within this many standard errors.
K_SIGMA = 5.0

# Reference constants for the scales survey (CODATA 2018, IAU).
G = 6.674_30e-11
HBAR = 1.054_571_817e-34
M_PROTON = 1.672_621_923_69e-27
PLANCK_LENGTH = 1.616_255e-35
D_EARTH_MOON = 3.844e8
KPC = 3.085_677_581_491_3673e19
# Default observable window of `moonbell scales`, m.
WINDOW_M = (1e-2, 10.0 * D_EARTH_MOON)
# Detection rate above which the published proper-time correction applies.
CADENCE_THRESHOLD_HZ = 1.0 / 0.08

SWEEP_CSV_HEADER = "v_over_c,S_hat,stderr_S,n_pairs,fraction_connected"


class CheckFailed(Exception):
    """An output differs from what the inputs imply."""


@functools.cache
def _schema_validator() -> jsonschema.protocols.Validator:
    return jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))


def flatten(value: Any, prefix: str = "", into: dict | None = None) -> dict[str, Any]:
    flat = {} if into is None else into
    if isinstance(value, dict):
        for key in sorted(value):
            flatten(value[key], f"{prefix}.{key}" if prefix else str(key), flat)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}[{i}]", flat)
    elif isinstance(value, str) and value in ("inf", "-inf", "nan"):
        flat[prefix] = float(value)
    else:
        flat[prefix] = value
    return flat


def _scalar(text: str) -> Any:
    if text in ("", "None"):
        return None
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_report(text: str, fmt: str) -> dict[str, Any]:
    """Flat map of a report printed in ``fmt``; JSON is schema-checked."""
    if fmt == "json":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"not JSON: {exc}") from None
        error = jsonschema.exceptions.best_match(_schema_validator().iter_errors(document))
        if error is not None:
            raise CheckFailed(f"schema: {error.message}")
        return flatten(document)
    lines = text.splitlines()
    if fmt == "csv":
        if not lines or lines[0] != "key,value":
            raise CheckFailed("csv report lacks its key,value header")
        rows = list(csv.reader(lines[1:]))
        if any(len(row) != 2 for row in rows):
            raise CheckFailed("csv report row without exactly two fields")
        return {key: _scalar(value) for key, value in rows}
    flat = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if not sep:
            raise CheckFailed(f"text report line without 'key: value': {line!r}")
        flat[key] = _scalar(value)
    return flat


def get(report: dict, key: str) -> Any:
    if key not in report:
        raise CheckFailed(f"missing {key}")
    return report[key]


def equal(report: dict, key: str, expected: Any) -> None:
    got = get(report, key)
    if got != expected or isinstance(got, bool) != isinstance(expected, bool):
        raise CheckFailed(f"{key} = {got!r}, expected {expected!r}")


def close(report: dict, key: str, expected: float, rel: float = 1e-12, abs_: float = 0.0) -> None:
    got = get(report, key)
    ok = isinstance(got, (int, float)) and not isinstance(got, bool)
    if ok and math.isinf(expected):
        ok = got == expected
    elif ok:
        ok = abs(got - expected) <= max(rel * abs(expected), abs_)
    if not ok:
        raise CheckFailed(f"{key} = {got!r}, expected {expected!r} (rel {rel:g})")


def absent(report: dict, key: str) -> None:
    if key in report:
        raise CheckFailed(f"unexpected {key}")


def _common(report: dict, command: str) -> None:
    equal(report, "command", command)
    if not isinstance(get(report, "version"), str):
        raise CheckFailed("version is not a string")
    get(report, "discrepancies[0].claim_id")


def _estimate(report: dict, prefix: str, s_model: float) -> None:
    s_hat = get(report, f"{prefix}s_hat")
    stderr = get(report, f"{prefix}stderr_s")
    if not abs(s_hat - s_model) <= K_SIGMA * stderr:
        raise CheckFailed(f"S_hat {s_hat!r} is over {K_SIGMA:g} stderr ({stderr!r}) from {s_model!r}")


def s_model(connected: bool, fallback: str) -> float:
    if connected:
        return TSIRELSON
    return LHV_S if fallback == "lhv" else 0.0


# --- per-subcommand checks; each takes the flat report first ---------------


def check_bound(report: dict, *, l_max: float, tau: float, l_gisin: float, l_cao: float) -> None:
    _common(report, "bound")
    close(report, "results.v_min_over_c", 2.0 * l_max / (tau * C))
    close(report, "results.l_max_m", l_max)
    close(report, "results.tau_s", tau)
    close(report, "results.gain_vs_gisin1999", l_max / l_gisin)
    close(report, "results.gain_vs_cao2017", l_max / l_cao)


def check_presets(report: dict, *, arms: dict[str, tuple[float, float]]) -> None:
    _common(report, "presets")
    for i, (name, lengths) in enumerate(arms.items()):
        equal(report, f"results.presets[{i}].name", name)
        for j, length in enumerate(lengths):
            close(report, f"results.presets[{i}].arm_lengths_m[{j}]", length)
    absent(report, f"results.presets[{len(arms)}].name")


def check_linkbudget(
    report: dict,
    *,
    length_a: float,
    length_b: float,
    ref_length: float,
    ref_loss_db: float,
    eff_a: float,
    eff_b: float,
    pair_rate: float,
    k_sigma: float,
) -> None:
    _common(report, "linkbudget")
    loss_a = ref_loss_db + 20.0 * math.log10(length_a / ref_length)
    loss_b = ref_loss_db + 20.0 * math.log10(length_b / ref_length)
    close(report, "results.losses_db.arm_a", loss_a, rel=1e-9, abs_=1e-9)
    close(report, "results.losses_db.arm_b", loss_b, rel=1e-9, abs_=1e-9)
    rate = pair_rate * 10.0 ** (-loss_a / 10.0) * 10.0 ** (-loss_b / 10.0) * eff_a * eff_b
    close(report, "results.coincidence_rate", rate, rel=1e-9)
    # Four settings, each with variance 1/2 at the default angles.
    per_setting = max(1, math.ceil(2.0 * (k_sigma / (TSIRELSON - 2.0)) ** 2))
    equal(report, "results.pairs_per_setting", per_setting)
    equal(report, "results.pairs_required", 4 * per_setting)
    close(report, "results.integration_time_s", 4 * per_setting / rate, rel=1e-9)
    close(report, "results.cadence_flag.threshold_hz", CADENCE_THRESHOLD_HZ)
    equal(report, "results.cadence_flag.correction_applies", rate >= CADENCE_THRESHOLD_HZ)


def _classify(d_m: float) -> str:
    if d_m <= PLANCK_LENGTH or d_m < WINDOW_M[0]:
        return "excluded"
    if d_m > WINDOW_M[1]:
        return "unobservable_at_earth_moon"
    return "observable"


def check_scales(report: dict, *, n_values: list[int]) -> None:
    _common(report, "scales")
    kappa = G * M_PROTON**2 / (HBAR * C)
    rows = [(0, math.inf, PLANCK_LENGTH)]
    rows += [(n, kappa**n, kappa**n * PLANCK_LENGTH) for n in n_values]
    rows += [(None, None, 10.0 * KPC)]
    for i, (n, v, d_m) in enumerate(rows):
        key = f"results.rows[{i}]"
        equal(report, f"{key}.n", n)
        if v is None:
            equal(report, f"{key}.v_over_c", None)
        else:
            close(report, f"{key}.v_over_c", v, rel=1e-9)
        close(report, f"{key}.d_m", d_m, rel=1e-9)
        equal(report, f"{key}.classification", _classify(d_m))
    absent(report, f"results.rows[{len(rows)}].n")


def check_validate(
    report: dict, *, path: str, lengths: tuple[float, float], taus: tuple[float, float]
) -> None:
    _common(report, "validate")
    equal(report, "inputs.file", path)
    equal(report, "results.valid", True)
    for i in (0, 1):
        close(report, f"results.scenario.arm_lengths_m[{i}]", lengths[i])
        close(report, f"results.scenario.taus_s[{i}]", taus[i])


def check_simulate(
    report: dict, *, n_pairs: int, v_star: float, v_rel: float, fallback: str, trace: int
) -> None:
    _common(report, "simulate")
    equal(report, "inputs.n_pairs", n_pairs)
    critical = get(report, "results.critical_v_over_c")
    close(report, "results.critical_v_over_c", v_star, rel=v_rel)
    connected = get(report, "results.connected")
    equal(report, "results.connected", get(report, "inputs.v_over_c") >= critical)
    equal(report, "results.fraction_connected", 1.0 if connected else 0.0)
    counts = [get(report, f"results.counts[{i}]") for i in range(4)]
    if sum(counts) != n_pairs:
        raise CheckFailed(f"setting counts {counts} do not sum to {n_pairs}")
    _estimate(report, "results.", s_model(connected, fallback))
    for i in range(trace):
        equal(report, f"results.trace[{i}].connected", connected)
        for j in (0, 1):
            if get(report, f"results.trace[{i}].outcomes[{j}]") not in (1, -1):
                raise CheckFailed(f"trace record {i} has an outcome other than +-1")
    absent(report, f"results.trace[{trace}].connected")


def check_sweep(
    report: dict,
    *,
    csv_path: str,
    grid: list[float],
    v_star: float,
    v_rel: float,
    fallback: str,
    n_pairs: int,
) -> None:
    _common(report, "sweep")
    equal(report, "results.rows", len(grid))
    equal(report, "results.bracket_contains_critical", True)
    critical = get(report, "results.critical_v_over_c")
    close(report, "results.critical_v_over_c", v_star, rel=v_rel)
    close(report, "results.transition_bracket.below", max(v for v in grid if v < critical))
    close(report, "results.transition_bracket.above", min(v for v in grid if v >= critical))
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    if lines[:1] != [SWEEP_CSV_HEADER] or len(lines) != len(grid) + 1:
        raise CheckFailed(f"sweep CSV has {len(lines) - 1} rows, expected {len(grid)}")
    for v, line in zip(grid, lines[1:]):
        fields = line.split(",")
        row = {
            "v": float(fields[0]),
            "s_hat": float(fields[1]),
            "stderr_s": float(fields[2]),
            "n": int(fields[3]),
            "f": float(fields[4]),
        }
        close(row, "v", v)
        equal(row, "n", n_pairs)
        equal(row, "f", 1.0 if v >= critical else 0.0)
        _estimate(row, "", s_model(row["f"] == 1.0, fallback))


def check_step(step, returncode: int, stdout: str, stderr: str) -> str | None:
    """None when the step's output is right, else why it is not."""
    if returncode != step.expect_rc:
        return f"exit {returncode}, expected {step.expect_rc}: {stderr.strip()[-300:]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if step.check is None:
        if stdout or not stderr.startswith("error: "):
            return "rejected input did not give one 'error:' line and empty stdout"
        return None
    try:
        step.check(parse_report(stdout, step.fmt))
    except CheckFailed as exc:
        return str(exc)
    return None
