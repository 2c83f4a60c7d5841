"""Command-line entry point: ``moonbell <subcommand>``.

Subcommands: bound, simulate, sweep, linkbudget, scales, validate, presets.
Every command resolves its defaults, echoes them back in the report, and
supports ``--format json|csv|text``.  Exit codes: 0 success, 2 validation
failure, 3 unknown preset/reference, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, Any

# CPython's C string encoder, which json.encoder itself uses; importing the
# extension directly does not load the json package.
from _json import encode_basestring_ascii

from . import __version__
from .bell import DEFAULT_SETTINGS, FALLBACKS, TSIRELSON_BOUND, ChshSettings
from .bounds import (
    EARTH_MOON_WINDOW,
    ObservationWindow,
    apriori_scales,
    critical_speed,
    gain_factor,
    mond_candidate,
    scenario_timing,
    speed_bound,
)
from .claims import claims_as_dicts
from .constants import CONSTANTS
from .scenario import (
    PRESET_NAMES,
    Scenario,
    UnknownPresetError,
    detector_separation,
    load_scenario_file,
    preset,
    with_equalized_starts,
)

if TYPE_CHECKING:
    from .linkbudget import LinkSpec, budget_report
    from .simulate import CollapseModel, simulate, sweep_speed

# Bound on first use, so that a command which neither samples nor plans a
# link never loads moonbell.simulate or moonbell.linkbudget. They stay
# attributes of this module that each command looks up when it runs, so a
# caller may rebind them (bench/tracing.py wraps them in timing spans).
_LAZY = ("CollapseModel", "simulate", "sweep_speed", "LinkSpec", "budget_report")


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(sys.modules[__package__], name)
    return value


def _bind(*names: str) -> None:
    """Make ``names`` globals of this module, keeping any binding already made."""
    for name in names:
        if name not in globals():
            __getattr__(name)


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNKNOWN_REF = 3
EXIT_IO = 4

# Unit suffixes are tried in order, so "s" comes after "fs" and "m" after "km".
_DURATION_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_LENGTH_UNITS = {"km": 1e3, "m": 1.0}
# math.radians multiplies by this same double.
_ANGLE_UNITS = {"deg": math.pi / 180.0, "rad": 1.0}


def _quantity(text: str, units: dict[str, float], flag: str) -> float:
    """A number with an optional unit suffix, in the units' base unit.

    A malformed value raises a ValueError that names ``flag`` and ``text``.
    """
    value = text.strip().lower()
    number, scale = value, 1.0
    for unit, unit_scale in units.items():
        if value.endswith(unit):
            number, scale = value[: -len(unit)], unit_scale
            break
    try:
        return float(number) * scale
    except ValueError:
        suffix = f" with an optional {'/'.join(units)} suffix" if units else ""
        raise ValueError(f"{flag}: {text!r} is not a number{suffix}") from None


def parse_duration(text: str, flag: str) -> float:
    """'10ps', '5 ns', '1.5s' or a bare number of seconds."""
    return _quantity(text, _DURATION_UNITS, flag)


def parse_length(text: str, flag: str) -> float:
    """'700km', '5300m' or a bare number of metres."""
    return _quantity(text, _LENGTH_UNITS, flag)


def parse_angle(text: str, flag: str) -> float:
    """Radians by default; degrees only with an explicit 'deg' suffix."""
    return _quantity(text, _ANGLE_UNITS, flag)


def parse_speed(text: str, flag: str) -> float:
    """A multiple of c; 'inf' or 'infinity' for an instantaneous influence."""
    return _quantity(text, {}, flag)


def parse_settings(text: str) -> ChshSettings:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise ValueError(f"--settings needs four comma-separated angles: a,a',b,b', in {text!r}")
    try:
        a, a_prime, b, b_prime = (parse_angle(p, "--settings") for p in parts)
        return ChshSettings(a=a, a_prime=a_prime, b=b, b_prime=b_prime)
    except ValueError as exc:
        raise ValueError(f"{exc}, in {text!r}") from None


def resolve_scenario(ref: str) -> Scenario:
    if ref in PRESET_NAMES:
        return preset(ref)
    if os.path.exists(ref):
        return load_scenario_file(ref)
    raise UnknownPresetError(f"{ref!r} is neither a preset name nor an existing file")


def _jsonable(value: Any, memo: dict[int, Any]) -> Any:
    """Make a report JSON-safe: inf/nan become strings, tuples become lists.
    ``memo`` maps a container's id to its conversion, so each is converted once."""
    if isinstance(value, (dict, list, tuple)):
        done = memo.get(id(value))
        if done is None:
            if isinstance(value, dict):
                done = {k: _jsonable(v, memo) for k, v in value.items()}
            else:
                done = [_jsonable(v, memo) for v in value]
            memo[id(value)] = done
        return done
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


def make_report(command: str, inputs: dict, results: dict, seed: int | None = None) -> dict:
    return _jsonable(
        {
            "command": command,
            "inputs": inputs,
            "results": results,
            "discrepancies": claims_as_dicts(),
            "version": __version__,
            "seed": seed,
        },
        {},
    )


def _flatten(value: Any, prefix: str = "") -> list[tuple[str, Any]]:
    if isinstance(value, dict):
        items: list[tuple[str, Any]] = []
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            items.extend(_flatten(value[key], sub))
        return items
    if isinstance(value, list):
        items = []
        for i, v in enumerate(value):
            items.extend(_flatten(v, f"{prefix}[{i}]"))
        return items
    return [(prefix, value)]


def _has_line_break(text: str) -> bool:
    """Whether ``text`` holds any character that ``str.splitlines`` breaks at."""
    return "".join(text.splitlines()) != text


def _json_chunks(value: Any, depth: int, out: list[str], seen: dict[tuple[int, int], Any]) -> None:
    """Append to ``out`` the text ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` writes for ``value`` ``depth`` levels in, for str keys.

    ``seen`` maps each (container, depth) rendered so far to its span of
    ``out``; a container met again is joined once from that span, kept as
    text and appended whole, so only repeated containers are held twice."""
    if isinstance(value, (dict, list, tuple)):
        key = (id(value), depth)
        done = seen.get(key)
        if done is not None:
            if not isinstance(done, str):
                done = seen[key] = "".join(out[done[0] : done[1]])
            out.append(done)
            return
        start = len(out)
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
        else:
            lead, sep = "\n" + "  " * (depth + 1), ",\n" + "  " * (depth + 1)
            if isinstance(value, dict):
                out.append("{")
                for k, v in sorted(value.items()):
                    out += (lead, encode_basestring_ascii(k), ": ")
                    _json_chunks(v, depth + 1, out, seen)
                    lead = sep
                out.append("\n" + "  " * depth + "}")
            else:
                out.append("[")
                for v in value:
                    out.append(lead)
                    _json_chunks(v, depth + 1, out, seen)
                    lead = sep
                out.append("\n" + "  " * depth + "]")
        seen[key] = (start, len(out))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, float):
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    elif not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    else:
        out.append(float.__repr__(value))


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        out: list[str] = []
        _json_chunks(report, 0, out, {})
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in _flatten(report):
            text = "" if value is None else repr(value) if isinstance(value, float) else str(value)
            if "," in text or '"' in text or _has_line_break(text):
                text = '"' + text.replace('"', '""') + '"'
            lines.append(f"{key},{text}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        # One line per key: a value that spans lines is written as its JSON literal.
        return "\n".join(
            f"{key}: {encode_basestring_ascii(value) if isinstance(value, str) and _has_line_break(value) else value}"
            for key, value in _flatten(report)
        ) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _scenario_summary(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "arm_lengths_m": [a.length_m for a in scenario.arms],
        "taus_s": [a.tau_s for a in scenario.arms],
        "offsets_s": [a.offset_s for a in scenario.arms],
        "detector_separation_m": detector_separation(scenario),
    }


def cmd_bound(args: argparse.Namespace) -> tuple[dict, dict]:
    scenario = resolve_scenario(args.scenario)
    tau = parse_duration(args.tau, "--tau") if args.tau is not None else None
    bound = speed_bound(scenario, tau)
    # Gains compared at the same resolved tau, so they reduce to length ratios.
    gains = {
        f"gain_vs_{ref}": gain_factor(scenario, preset(ref), bound.tau_s) for ref in ("gisin1999", "cao2017")
    }
    inputs = {"scenario": _scenario_summary(scenario), "tau_s": bound.tau_s}
    return inputs, {**bound._asdict(), **gains}


def _resolve_run(args: argparse.Namespace) -> tuple[Scenario, ChshSettings, dict]:
    """Scenario and settings of a simulate/sweep run, plus the inputs both echo."""
    scenario = resolve_scenario(args.scenario)
    if args.equalize_starts:
        scenario = with_equalized_starts(scenario)
    settings = DEFAULT_SETTINGS if args.settings is None else parse_settings(args.settings)
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    inputs = {
        "scenario": _scenario_summary(scenario),
        "fallback": args.fallback,
        "depart_at_end": args.depart_at_end,
        "equalize_starts": args.equalize_starts,
        "settings": settings,
        "workers": args.workers,
    }
    return scenario, settings, inputs


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, dict]:
    _bind("CollapseModel", "simulate")
    scenario, settings, inputs = _resolve_run(args)
    model = CollapseModel(
        v_over_c=parse_speed(args.v_over_c, "--v-over-c"),
        fallback=args.fallback,
        depart_at_end=args.depart_at_end,
    )
    result = simulate(
        scenario,
        model,
        settings,
        n_pairs=args.pairs,
        seed=args.seed,
        workers=args.workers,
        trace_limit=args.trace,
    )
    results = {
        "s_hat": result.s_hat,
        "stderr_s": result.stderr_s,
        "e_hat": result.e_hat,
        "counts": result.counts,
        "connected": result.connected,
        "fraction_connected": float(result.connected),
        "critical_v_over_c": critical_speed(scenario, args.depart_at_end),
    }
    if result.records:
        # Every traced pair shares the run's one timeline, printed once here.
        results["timing"] = {"emission_fs": 0, "arms": [t._asdict() for t in scenario_timing(scenario)]}
        # Each distinct record (one per cell) becomes one row, repeated by reference.
        distinct = {id(r): r for r in result.records}
        rows = {key: {"connected": result.connected, **r._asdict()} for key, r in distinct.items()}
        results["trace"] = [rows[id(r)] for r in result.records]
    inputs.update(v_over_c=model.v_over_c, n_pairs=args.pairs, trace=args.trace)
    return inputs, results


# Most speeds one sweep may take; each costs a run and a CSV row.
MAX_POINTS = 100_000


def _build_grid(v_min: float, v_max: float, points: int, spacing: str) -> list[float]:
    if points < 1:
        raise ValueError(f"--points must be >= 1, got {points}")
    if points > MAX_POINTS:
        raise ValueError(f"--points must be at most {MAX_POINTS}, got {points}")
    if not v_min > 0.0:
        raise ValueError(f"--v-min must be > 0, got {v_min!r}")
    if points == 1:
        return [v_min]
    for flag, v in (("--v-min", v_min), ("--v-max", v_max)):
        if not math.isfinite(v):
            raise ValueError(f"{flag} must be finite")
    if not v_max > v_min:
        raise ValueError(f"--v-max must exceed --v-min {v_min!r}, got {v_max!r}")
    if spacing == "log":
        lo, hi = math.log10(v_min), math.log10(v_max)
        grid = [10.0 ** (lo + (hi - lo) * i / (points - 1)) for i in range(points)]
    else:
        grid = [v_min + (v_max - v_min) * i / (points - 1) for i in range(points)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"--points {points} is too many for --v-min {v_min!r} to --v-max {v_max!r}: "
            f"the {spacing} grid repeats a speed"
        )
    return grid


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, dict]:
    _bind("sweep_speed")
    scenario, settings, inputs = _resolve_run(args)
    grid = _build_grid(args.v_min, args.v_max, args.points, args.spacing)
    points = sweep_speed(
        scenario,
        fallback=args.fallback,
        settings=settings,
        v_grid=grid,
        n_pairs_per_point=args.pairs,
        seed=args.seed,
        depart_at_end=args.depart_at_end,
    )
    # Full-precision floats, so the file is byte-stable for fixed inputs.
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("v_over_c,S_hat,stderr_S,n_pairs,fraction_connected\n")
        for p in points:
            fh.write(f"{p.v_over_c!r},{p.s_hat!r},{p.stderr_s!r},{args.pairs},{float(p.connected)!r}\n")
    # The verdict is monotone in v, so these are the last disconnected and
    # the first connected grid speeds; None when the grid is one-sided.
    below = max((p.v_over_c for p in points if not p.connected), default=None)
    above = min((p.v_over_c for p in points if p.connected), default=None)
    v_star = critical_speed(scenario, args.depart_at_end)
    inputs.update(
        v_min=args.v_min,
        v_max=args.v_max,
        points=args.points,
        spacing=args.spacing,
        n_pairs_per_point=args.pairs,
        out=args.out,
    )
    return inputs, {
        "csv_path": args.out,
        "rows": len(points),
        "critical_v_over_c": v_star,
        "transition_bracket": {"below": below, "above": above},
        "bracket_contains_critical": (below is None or below < v_star) and (above is None or v_star <= above),
    }


def cmd_linkbudget(args: argparse.Namespace) -> tuple[dict, dict]:
    _bind("LinkSpec", "budget_report")
    ref_length = parse_length(args.ref_length, "--ref-length")
    arms = []
    for arm, length, eff in (("a", args.length_a, args.eff_a), ("b", args.length_b, args.eff_b)):
        try:
            arms.append(LinkSpec(parse_length(length, f"--length-{arm}"), ref_length, args.ref_loss_db, eff))
        except ValueError as exc:
            # A LinkSpec does not know its arm, so its errors name both arms' flags.
            message = str(exc).replace("--length-a/--length-b", f"--length-{arm}")
            raise ValueError(message.replace("--eff-a/--eff-b", f"--eff-{arm}")) from None
    arm_a, arm_b = arms
    inputs = {
        "length_a_m": arm_a.length_m,
        "length_b_m": arm_b.length_m,
        "reference_length_m": ref_length,
        "reference_loss_db": args.ref_loss_db,
        "eff_a": args.eff_a,
        "eff_b": args.eff_b,
        "pair_rate_hz": args.pair_rate,
        "s_expected": args.s_expected,
        "k_sigma": args.k_sigma,
    }
    return inputs, budget_report(
        arm_a, arm_b, pair_rate_hz=args.pair_rate, s_expected=args.s_expected, k_sigma=args.k_sigma
    )


def cmd_scales(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.n_values is not None:
        parts = [p.strip() for p in args.n_values.split(",") if p.strip()]
        if not parts:
            raise ValueError("--n-values must list at least one integer exponent")
        try:
            n_values = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"--n-values: {args.n_values!r} is not a comma-separated list of integers") from None
    else:
        n_values = [-1, 0, 1]
    window = ObservationWindow(args.d_min, args.d_max)
    rows = apriori_scales(n_values, mass_kg=args.mass, window=window)
    rows.append(mond_candidate(window))
    inputs = {
        "n_values": n_values,
        "mass_kg": args.mass,
        "window_m": {"d_min": window.d_min_m, "d_max": window.d_max_m},
    }
    return inputs, {"rows": [r._asdict() for r in rows]}


def cmd_validate(args: argparse.Namespace) -> tuple[dict, dict]:
    if not os.path.exists(args.file):
        raise UnknownPresetError(f"no such scenario file: {args.file}")
    scenario = load_scenario_file(args.file)
    return {"file": args.file}, {"valid": True, "scenario": _scenario_summary(scenario)}


def cmd_presets(args: argparse.Namespace) -> tuple[dict, dict]:
    return {}, {"presets": [_scenario_summary(preset(name)) for name in PRESET_NAMES]}


# The subcommands, in the order the full parser lists them.
_COMMANDS = ("bound", "simulate", "sweep", "linkbudget", "scales", "validate", "presets")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given one of its subcommands, only that subcommand's
    parser is built, and every usage line it prints stays the full parser's."""
    parser = argparse.ArgumentParser(
        prog="moonbell",
        description="Bell tests at astronomical distances: speed bounds, "
        "Monte Carlo simulation and link budgets.",
    )
    parser.add_argument("--version", action="version", version=f"moonbell {__version__}")
    # The full parser names the action "command" in its missing-command error,
    # which a parser built for one named command never prints.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    wanted = _COMMANDS if command is None else (command,)

    def add(name: str, func: Any, help_text: str, run_options: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        if run_options:
            p.add_argument("--fallback", choices=FALLBACKS, default="uncorrelated")
            p.add_argument("--settings", default=None,
                           help="four analyzer angles a,a',b,b' (radians; 'deg' suffix accepted)")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--workers", type=int, default=1,
                           help="accepted for compatibility (must be >= 1); changes nothing")
            p.add_argument("--equalize-starts", action="store_true",
                           help="delay the earlier measurement to the later photon arrival")
            p.add_argument("--depart-at-end", action="store_true",
                           help="influence departs at measurement completion instead of start")
        return p

    if "bound" in wanted:
        p = add("bound", cmd_bound, "Correlation-speed lower bound for a scenario.")
        p.add_argument("scenario", help="preset name or scenario file path")
        p.add_argument("--tau", default=None, help="measurement duration override, e.g. 10ps")

    if "simulate" in wanted:
        p = add("simulate", cmd_simulate, "Monte Carlo run at one speed.", run_options=True)
        p.add_argument("scenario")
        p.add_argument("--v-over-c", default="inf", help="influence speed in units of c, or 'inf'")
        p.add_argument("-n", "--pairs", type=int, default=100_000)
        p.add_argument("--trace", type=int, default=0, help="include the first N pair records")

    if "sweep" in wanted:
        p = add("sweep", cmd_sweep, "S versus assumed speed, CSV output.", run_options=True)
        p.add_argument("scenario")
        p.add_argument("--v-min", type=float, required=True)
        p.add_argument("--v-max", type=float, required=True)
        p.add_argument("--points", type=int, default=20)
        p.add_argument("--spacing", choices=("log", "linear"), default="log")
        p.add_argument("-n", "--pairs", type=int, default=10_000, help="pairs per grid point")
        p.add_argument("--out", required=True, help="CSV output path")

    if "linkbudget" in wanted:
        p = add("linkbudget", cmd_linkbudget, "Loss, rate and integration-time budget.")
        p.add_argument("--length-a", required=True, help="arm A length, e.g. 384400km")
        p.add_argument("--length-b", required=True)
        p.add_argument("--ref-length", default="500km", help="reference link length")
        p.add_argument("--ref-loss-db", type=float, default=0.0, help="total loss at the reference length")
        p.add_argument("--eff-a", type=float, default=1.0)
        p.add_argument("--eff-b", type=float, default=1.0)
        p.add_argument("--pair-rate", type=float, required=True, help="source pair rate, pairs/s")
        p.add_argument("--s-expected", type=float, default=TSIRELSON_BOUND)
        p.add_argument("--k-sigma", type=float, default=3.0)

    if "scales" in wanted:
        p = add("scales", cmd_scales, "A-priori speed/distance scale survey.")
        p.add_argument("--n-values", default=None,
                       help="comma-separated exponents (default -1,0,1); a list that starts "
                       "with a negative one needs the = form, --n-values=-1,0,1")
        p.add_argument("--mass", type=float, default=CONSTANTS.m_proton, help="coupling mass, kg")
        p.add_argument("--d-min", type=float, default=EARTH_MOON_WINDOW.d_min_m,
                       help="observable window floor, m")
        p.add_argument("--d-max", type=float, default=EARTH_MOON_WINDOW.d_max_m,
                       help="observable window ceiling, m")

    if "validate" in wanted:
        p = add("validate", cmd_validate, "Check a scenario file against the schema.")
        p.add_argument("file")

    if "presets" in wanted:
        add("presets", cmd_presets, "List built-in scenarios.")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: each ``cmd_*`` returns its echoed inputs and its
    results, and only this function builds, renders and writes the report."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        inputs, results = args.func(args)
        report = make_report(args.command, inputs, results, getattr(args, "seed", None))
        sys.stdout.write(render_report(report, args.format))
    except UnknownPresetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNKNOWN_REF
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
