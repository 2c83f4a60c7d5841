"""Command-line entry point: ``moonbell <subcommand>``.

Subcommands: bound, simulate, sweep, linkbudget, scales, validate, presets.
Every command resolves its defaults, echoes them back in the report, and
supports ``--format json|csv|text``.  Exit codes: 0 success, 2 validation
failure, 3 unknown preset/reference, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from . import __version__
from .bell import ChshSettings
from .bounds import (
    ObservationWindow,
    apriori_scales,
    mond_candidate,
    speed_bound,
)
from .claims import claims_as_dicts
from .constants import CONSTANTS
from .scenario import (
    PRESET_NAMES,
    Scenario,
    ScenarioError,
    UnknownPresetError,
    arm_length,
    detector_separation,
    load_scenario_file,
    preset,
    with_equalized_starts,
)

if TYPE_CHECKING:
    from .linkbudget import LinkSpec, budget_report
    from .simulate import CollapseModel, critical_speed, simulate, sweep_speed

# Bound on first use, so that a command which neither samples nor plans a
# link never loads moonbell.simulate or moonbell.linkbudget. They stay
# attributes of this module that each command looks up when it runs, so a
# caller may rebind them (bench/tracing.py wraps them in timing spans).
_LAZY = ("CollapseModel", "critical_speed", "simulate", "sweep_speed", "LinkSpec", "budget_report")


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
        raise ValueError("--settings needs four comma-separated angles: a,a',b,b'")
    try:
        a, a_prime, b, b_prime = (parse_angle(p, "--settings") for p in parts)
    except ValueError as exc:
        raise ValueError(f"{exc}, in {text!r}") from None
    return ChshSettings(a=a, a_prime=a_prime, b=b, b_prime=b_prime)


def resolve_scenario(ref: str) -> Scenario:
    if ref in PRESET_NAMES:
        return preset(ref)
    if os.path.exists(ref):
        return load_scenario_file(ref)
    raise UnknownPresetError(f"{ref!r} is neither a preset name nor an existing file")


def _jsonable(value: Any) -> Any:
    """Make a report JSON-safe: inf/nan become strings, tuples become lists."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
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
        }
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


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in _flatten(report):
            text = "" if value is None else repr(value) if isinstance(value, float) else str(value)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            lines.append(f"{key},{text}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        return "\n".join(f"{key}: {value}" for key, value in _flatten(report)) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _scenario_summary(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "arm_lengths_m": [arm_length(scenario, 0), arm_length(scenario, 1)],
        "taus_s": [a.tau_s for a in scenario.arms],
        "offsets_s": [a.offset_s for a in scenario.arms],
        "detector_separation_m": detector_separation(scenario),
    }


def cmd_bound(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.scenario)
    tau = parse_duration(args.tau, "--tau") if args.tau is not None else None
    bound = speed_bound(scenario, tau)
    # Gains compared at the same resolved tau, so they reduce to length ratios.
    gain_gisin = bound.v_min_over_c / speed_bound(preset("gisin1999"), bound.tau_s).v_min_over_c
    gain_cao = bound.v_min_over_c / speed_bound(preset("cao2017"), bound.tau_s).v_min_over_c
    report = make_report(
        "bound",
        inputs={"scenario": _scenario_summary(scenario), "tau_s": bound.tau_s},
        results={
            "l_max_m": bound.l_max_m,
            "tau_s": bound.tau_s,
            "v_min_over_c": bound.v_min_over_c,
            "gain_vs_gisin1999": gain_gisin,
            "gain_vs_cao2017": gain_cao,
        },
    )
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def _resolve_run(args: argparse.Namespace) -> tuple[Scenario, ChshSettings, dict]:
    """Scenario and settings of a simulate/sweep run, plus the inputs both echo."""
    scenario = resolve_scenario(args.scenario)
    if args.equalize_starts:
        scenario = with_equalized_starts(scenario)
    settings = parse_settings(args.settings)
    inputs = {
        "scenario": _scenario_summary(scenario),
        "fallback": args.fallback,
        "depart_at_end": args.depart_at_end,
        "equalize_starts": args.equalize_starts,
        "settings": [settings.a, settings.a_prime, settings.b, settings.b_prime],
        "workers": args.workers,
    }
    return scenario, settings, inputs


def cmd_simulate(args: argparse.Namespace) -> int:
    _bind("CollapseModel", "simulate", "critical_speed")
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
    est = result.estimate
    results = {
        "s_hat": est.s_hat,
        "stderr_s": est.stderr_s,
        "e_hat": list(est.e_hat),
        "counts": list(est.counts),
        "connected": result.connected,
        "fraction_connected": float(result.connected),
        "critical_v_over_c": critical_speed(scenario, args.depart_at_end),
    }
    if result.records:
        # Every traced pair shares the run's one timeline, printed once here.
        results["timing"] = {"emission_fs": 0, "arms": [asdict(t) for t in result.timing]}
        results["trace"] = [
            {
                "connected": result.connected,
                "settings": list(r.settings),
                "outcomes": list(r.outcomes),
            }
            for r in result.records
        ]
    inputs.update(v_over_c=model.v_over_c, n_pairs=args.pairs, trace=args.trace)
    report = make_report("simulate", inputs=inputs, results=results, seed=args.seed)
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def _build_grid(v_min: float, v_max: float, points: int, spacing: str) -> list[float]:
    if points < 1:
        raise ValueError("--points must be >= 1")
    if not v_min > 0.0:
        raise ValueError("--v-min must be > 0")
    if points == 1:
        return [v_min]
    for flag, v in (("--v-min", v_min), ("--v-max", v_max)):
        if not math.isfinite(v):
            raise ValueError(f"{flag} must be finite")
    if not v_max > v_min:
        raise ValueError("--v-max must exceed --v-min")
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


def cmd_sweep(args: argparse.Namespace) -> int:
    _bind("sweep_speed", "critical_speed")
    scenario, settings, inputs = _resolve_run(args)
    grid = _build_grid(args.v_min, args.v_max, args.points, args.spacing)
    curve = sweep_speed(
        scenario,
        fallback=args.fallback,
        settings=settings,
        v_grid=grid,
        n_pairs_per_point=args.pairs,
        seed=args.seed,
        workers=args.workers,
        depart_at_end=args.depart_at_end,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(curve.to_csv())
    below, above = curve.transition_bracket()
    v_star = critical_speed(scenario, args.depart_at_end)
    inputs.update(
        v_min=args.v_min,
        v_max=args.v_max,
        points=args.points,
        spacing=args.spacing,
        n_pairs_per_point=args.pairs,
        out=args.out,
    )
    report = make_report(
        "sweep",
        inputs=inputs,
        results={
            "csv_path": args.out,
            "rows": len(curve.points),
            "critical_v_over_c": v_star,
            "transition_bracket": {"below": below, "above": above},
            "bracket_contains_critical": (
                (below is None or below < v_star) and (above is None or v_star <= above)
            ),
        },
        seed=args.seed,
    )
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def cmd_linkbudget(args: argparse.Namespace) -> int:
    _bind("LinkSpec", "budget_report")
    arm_a = LinkSpec(
        length_m=parse_length(args.length_a, "--length-a"),
        reference_length_m=parse_length(args.ref_length, "--ref-length"),
        reference_loss_db=args.ref_loss_db,
        detector_efficiency=args.eff_a,
    )
    arm_b = LinkSpec(
        length_m=parse_length(args.length_b, "--length-b"),
        reference_length_m=parse_length(args.ref_length, "--ref-length"),
        reference_loss_db=args.ref_loss_db,
        detector_efficiency=args.eff_b,
    )
    for name, arm in (("A", arm_a), ("B", arm_b)):
        # The L^-2 law would turn the reference loss into a gain.
        if arm.total_loss_db < 0.0:
            raise ValueError(
                f"arm {name} ({arm.length_m!r} m) is shorter than --ref-length "
                f"({arm.reference_length_m!r} m) by more than --ref-loss-db "
                f"({arm.reference_loss_db!r} dB) covers; its loss would be "
                f"{arm.total_loss_db:.3f} dB"
            )
    results = budget_report(
        arm_a, arm_b, pair_rate_hz=args.pair_rate, s_expected=args.s_expected, k_sigma=args.k_sigma
    )
    report = make_report(
        "linkbudget",
        inputs={
            "length_a_m": arm_a.length_m,
            "length_b_m": arm_b.length_m,
            "reference_length_m": arm_a.reference_length_m,
            "reference_loss_db": args.ref_loss_db,
            "eff_a": args.eff_a,
            "eff_b": args.eff_b,
            "pair_rate_hz": args.pair_rate,
            "s_expected": args.s_expected,
            "k_sigma": args.k_sigma,
        },
        results=results,
    )
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def cmd_scales(args: argparse.Namespace) -> int:
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
    report = make_report(
        "scales",
        inputs={
            "n_values": n_values,
            "mass_kg": args.mass,
            "window_m": {"d_min": window.d_min_m, "d_max": window.d_max_m},
        },
        results={
            "rows": [
                {
                    "n": r.n,
                    "v_over_c": r.v_over_c,
                    "d_m": r.d_m,
                    "classification": r.classification,
                }
                for r in rows
            ]
        },
    )
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if not os.path.exists(args.file):
        raise UnknownPresetError(f"no such scenario file: {args.file}")
    scenario = load_scenario_file(args.file)
    report = make_report(
        "validate",
        inputs={"file": args.file},
        results={"valid": True, "scenario": _scenario_summary(scenario)},
    )
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def cmd_presets(args: argparse.Namespace) -> int:
    rows = []
    for name in PRESET_NAMES:
        p = preset(name)
        rows.append(_scenario_summary(p))
    report = make_report("presets", inputs={}, results={"presets": rows})
    sys.stdout.write(render_report(report, args.format))
    return EXIT_OK


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("MOONBELL_WORKERS", "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moonbell",
        description="Bell tests at astronomical distances: speed bounds, "
        "Monte Carlo simulation and link budgets.",
    )
    parser.add_argument("--version", action="version", version=f"moonbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("bound", parents=[fmt], help="Correlation-speed lower bound for a scenario.")
    p.add_argument("scenario", help="preset name or scenario file path")
    p.add_argument("--tau", default=None, help="measurement duration override, e.g. 10ps")
    p.set_defaults(func=cmd_bound)

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--fallback", choices=("uncorrelated", "lhv"), default="uncorrelated")
    sim.add_argument("--settings", default="0,45deg,22.5deg,67.5deg",
                     help="four analyzer angles a,a',b,b' (radians; 'deg' suffix accepted)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", type=int, default=_default_workers())
    sim.add_argument("--equalize-starts", action="store_true",
                     help="delay the earlier measurement to the later photon arrival")
    sim.add_argument("--depart-at-end", action="store_true",
                     help="influence departs at measurement completion instead of start")

    p = sub.add_parser("simulate", parents=[fmt, sim], help="Monte Carlo run at one speed.")
    p.add_argument("scenario")
    p.add_argument("--v-over-c", default="inf", help="influence speed in units of c, or 'inf'")
    p.add_argument("-n", "--pairs", type=int, default=100_000)
    p.add_argument("--trace", type=int, default=0, help="include the first N pair records")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[fmt, sim], help="S versus assumed speed, CSV output.")
    p.add_argument("scenario")
    p.add_argument("--v-min", type=float, required=True)
    p.add_argument("--v-max", type=float, required=True)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.add_argument("-n", "--pairs", type=int, default=10_000, help="pairs per grid point")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("linkbudget", parents=[fmt], help="Loss, rate and integration-time budget.")
    p.add_argument("--length-a", required=True, help="arm A length, e.g. 384400km")
    p.add_argument("--length-b", required=True)
    p.add_argument("--ref-length", default="500km", help="reference link length")
    p.add_argument("--ref-loss-db", type=float, default=0.0, help="total loss at the reference length")
    p.add_argument("--eff-a", type=float, default=1.0)
    p.add_argument("--eff-b", type=float, default=1.0)
    p.add_argument("--pair-rate", type=float, required=True, help="source pair rate, pairs/s")
    p.add_argument("--s-expected", type=float, default=2.0 * math.sqrt(2.0))
    p.add_argument("--k-sigma", type=float, default=3.0)
    p.set_defaults(func=cmd_linkbudget)

    p = sub.add_parser("scales", parents=[fmt], help="A-priori speed/distance scale survey.")
    p.add_argument("--n-values", default=None,
                   help="comma-separated exponents (default -1,0,1); a list that starts "
                   "with a negative one needs the = form, --n-values=-1,0,1")
    p.add_argument("--mass", type=float, default=CONSTANTS.m_proton, help="coupling mass, kg")
    p.add_argument("--d-min", type=float, default=1e-2, help="observable window floor, m")
    p.add_argument("--d-max", type=float, default=10.0 * CONSTANTS.d_earth_moon_mean,
                   help="observable window ceiling, m")
    p.set_defaults(func=cmd_scales)

    p = sub.add_parser("validate", parents=[fmt], help="Check a scenario file against the schema.")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("presets", parents=[fmt], help="List built-in scenarios.")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownPresetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNKNOWN_REF
    except ScenarioError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
