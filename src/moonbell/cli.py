"""Command-line entry point: ``moonbell <subcommand>``.

Subcommands: bound, simulate, sweep, linkbudget, scales, validate, presets.
Every command resolves its defaults, echoes them back in the report, and
supports ``--format json|csv|text``.  Exit codes: 0 success, 2 validation
failure, 3 unknown preset/reference, 4 I/O failure.
"""

from __future__ import annotations

import io
import math
import os
import sys
from types import SimpleNamespace

from . import __version__
from .bell import FALLBACKS, TSIRELSON_BOUND
from .bounds import critical_speed, gain_factor, speed_bound  # bench/tracing.py rebinds critical_speed
from .claims import claims_as_dicts
from .constants import CONSTANTS, quantity
from .scenario import PRESET_NAMES, Scenario, UnknownPresetError, detector_separation, preset

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Any, Callable

    from .document import load_scenario_file


# The package's lazy names are bound from it on first use, and looked up when a
# handler here runs, so a caller may rebind them (bench/tracing.py does).
def __getattr__(name: str) -> Any:
    if name not in sys.modules[__package__]._LAZY:
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

# Seconds: '10ps', '5 ns', '1.5s' or a bare number. Unit suffixes are tried
# in order, so "s" comes after "fs".
_DURATION_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def resolve_scenario(ref: str) -> Scenario:
    if ref in PRESET_NAMES:
        return preset(ref)
    if os.path.exists(ref):
        _bind("load_scenario_file")
        return load_scenario_file(ref)
    raise UnknownPresetError(f"{ref!r} is neither a preset name nor an existing file")


def make_report(command: str, inputs: dict, results: dict, seed: int | None = None) -> dict:
    """The report of one command: its handler's ``inputs`` and ``results`` as
    the handler built them, with the claims ledger, the version and ``seed``.
    Nothing is copied; each format writes the values as they are."""
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "discrepancies": claims_as_dicts(),
        "version": __version__,
        "seed": seed,
    }


def _flatten(value: Any, prefix: str, out: list[tuple[str, Any]]) -> list[tuple[str, Any]]:
    """``out`` with a (key, value) pair appended for each scalar in ``value``."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out.append((prefix, value))
    return out


def _has_line_break(text: str) -> bool:
    """Whether ``text`` holds any character that ``str.splitlines`` breaks at."""
    return "".join(text.splitlines()) != text


def _json_string(text: str) -> str:
    """``text`` as a JSON string literal, as ``json.dumps`` writes it.

    Printable ASCII without a quote or backslash stands for itself. Any other
    text, and a key that is not a str, goes to CPython's C string encoder,
    which json.encoder itself uses; importing the extension, only then,
    does not load the json package. A render in a process that has loaded
    the extension already calls it for every string instead."""
    if text.__class__ is str and text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from _json import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _json_chunks(
    value: Any, depth: int, out: list[str], seen: dict[tuple[int, int], Any], quote: Callable[[str], str]
) -> None:
    """Append to ``out`` the text ``json.dumps(value, indent=2, sort_keys=True)``
    writes for ``value`` ``depth`` levels in, for str keys, each string and
    key quoted by ``quote``; a tuple is an array, and a non-finite float is
    the string of its repr ("inf", "-inf" or "nan"), not JSON's Infinity or NaN.

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
                    out += (lead, quote(k), ": ")
                    _json_chunks(v, depth + 1, out, seen, quote)
                    lead = sep
                out.append("\n" + "  " * depth + "}")
            else:
                out.append("[")
                for v in value:
                    out.append(lead)
                    _json_chunks(v, depth + 1, out, seen, quote)
                    lead = sep
                out.append("\n" + "  " * depth + "]")
        seen[key] = (start, len(out))
    elif isinstance(value, str):
        out.append(quote(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, float):
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    else:
        out.append(float.__repr__(value) if math.isfinite(value) else f'"{float.__repr__(value)}"')


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        encoder = sys.modules.get("_json")
        out: list[str] = []
        _json_chunks(report, 0, out, {}, _json_string if encoder is None else encoder.encode_basestring_ascii)
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in _flatten(report, "", []):
            text = "" if value is None else repr(value) if isinstance(value, float) else str(value)
            if "," in text or '"' in text or _has_line_break(text):
                text = '"' + text.replace('"', '""') + '"'
            lines.append(f"{key},{text}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        # One line per key: a value that spans lines is written as its JSON literal.
        return "\n".join(
            f"{key}: {_json_string(value) if isinstance(value, str) and _has_line_break(value) else value}"
            for key, value in _flatten(report, "", [])
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
    tau = quantity(args.tau, _DURATION_UNITS, "--tau") if args.tau is not None else None
    bound = speed_bound(scenario, tau)
    # Gains compared at the same resolved tau, so they reduce to length ratios.
    gains = {
        f"gain_vs_{ref}": gain_factor(scenario, preset(ref), bound.tau_s) for ref in ("gisin1999", "cao2017")
    }
    inputs = {"scenario": _scenario_summary(scenario), "tau_s": bound.tau_s}
    return inputs, {**bound._asdict(), **gains}


def cmd_validate(args: argparse.Namespace) -> tuple[dict, dict]:
    if not os.path.exists(args.file):
        raise UnknownPresetError(f"no such scenario file: {args.file}")
    _bind("load_scenario_file")
    scenario = load_scenario_file(args.file)
    return {"file": args.file}, {"valid": True, "scenario": _scenario_summary(scenario)}


def cmd_presets(args: argparse.Namespace) -> tuple[dict, dict]:
    return {}, {"presets": [_scenario_summary(preset(name)) for name in PRESET_NAMES]}


# The options every command takes, then those of simulate and sweep.
_FORMAT = (("--format",), {"choices": ("json", "csv", "text"), "default": "json"})
_RUN_OPTIONS = (
    (("--fallback",), {"choices": FALLBACKS, "default": "uncorrelated"}),
    (("--settings",), {"default": None,
                       "help": "four analyzer angles a,a',b,b' (radians; 'deg' suffix accepted)"}),
    (("--seed",), {"type": int, "default": 0}),
    (("--workers",), {"type": int, "default": 1,
                      "help": "accepted for compatibility (must be >= 1); changes nothing"}),
    (("--equalize-starts",), {"action": "store_true",
                              "help": "delay the earlier measurement to the later photon arrival"}),
    (("--depart-at-end",), {"action": "store_true",
                            "help": "influence departs at measurement completion instead of start"}),
)

# The option table: each command's module, which defines its handler
# cmd_<command> (so a process compiles only its own), its help text and its
# arguments as argparse's (flags, kwargs), in the order the parser lists them.
# build_parser feeds it to argparse, and parse_well_formed reads it directly.
COMMANDS: dict[str, tuple[str, str, tuple[tuple[tuple[str, ...], dict], ...]]] = {
    "bound": ("cli", "Correlation-speed lower bound for a scenario.", (
        _FORMAT,
        (("scenario",), {"help": "preset name or scenario file path"}),
        (("--tau",), {"default": None, "help": "measurement duration override, e.g. 10ps"}),
    )),
    "simulate": ("simulate", "Monte Carlo run at one speed.", (
        _FORMAT,
        *_RUN_OPTIONS,
        (("scenario",), {}),
        (("--v-over-c",), {"default": "inf", "help": "influence speed in units of c, or 'inf'"}),
        (("-n", "--pairs"), {"type": int, "default": 100_000}),
        (("--trace",), {"type": int, "default": 0, "help": "include the first N pair records"}),
    )),
    "sweep": ("sweep", "S versus assumed speed, CSV output.", (
        _FORMAT,
        *_RUN_OPTIONS,
        (("scenario",), {}),
        (("--v-min",), {"type": float, "required": True}),
        (("--v-max",), {"type": float, "required": True}),
        (("--points",), {"type": int, "default": 20}),
        (("--spacing",), {"choices": ("log", "linear"), "default": "log"}),
        (("-n", "--pairs"), {"type": int, "default": 10_000, "help": "pairs per grid point"}),
        (("--out",), {"required": True, "help": "CSV output path"}),
    )),
    "linkbudget": ("linkbudget", "Loss, rate and integration-time budget.", (
        _FORMAT,
        (("--length-a",), {"required": True, "help": "arm A length, e.g. 384400km"}),
        (("--length-b",), {"required": True}),
        (("--ref-length",), {"default": "500km", "help": "reference link length"}),
        (("--ref-loss-db",), {"type": float, "default": 0.0, "help": "total loss at the reference length"}),
        (("--eff-a",), {"type": float, "default": 1.0}),
        (("--eff-b",), {"type": float, "default": 1.0}),
        (("--pair-rate",), {"type": float, "required": True, "help": "source pair rate, pairs/s"}),
        (("--s-expected",), {"type": float, "default": TSIRELSON_BOUND}),
        (("--k-sigma",), {"type": float, "default": 3.0}),
    )),
    "scales": ("scales", "A-priori speed/distance scale survey.", (
        _FORMAT,
        (("--n-values",), {"default": None, "help": "comma-separated exponents (default -1,0,1); a list that "
                           "starts with a negative one needs the = form, --n-values=-1,0,1"}),
        (("--mass",), {"type": float, "default": CONSTANTS.m_proton, "help": "coupling mass, kg"}),
        # None stands for the Earth-Moon window's bound, which cmd_scales reads
        # so that no other command loads moonbell.scales.
        (("--d-min",), {"type": float, "default": None, "help": "observable window floor, m"}),
        (("--d-max",), {"type": float, "default": None, "help": "observable window ceiling, m"}),
    )),
    "validate": ("cli", "Check a scenario file against the schema.", (
        _FORMAT,
        (("file",), {}),
    )),
    "presets": ("cli", "List built-in scenarios.", (_FORMAT,)),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, built from the option table."""
    import argparse

    class StoreOne(argparse.Action):
        # "--opt=--" gives no value: Python 3.10-3.12 read it as [], 3.13 as "--".
        def __call__(self, parser, namespace, values, option_string=None):
            if values in ([], "--"):
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="moonbell",
        description="Bell tests at astronomical distances: speed bounds, "
        "Monte Carlo simulation and link budgets.",
    )
    parser.add_argument("--version", action="version", version=f"moonbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            if flags[0].startswith("-"):
                kwargs = {"action": StoreOne, **kwargs}
            p.add_argument(*flags, **kwargs)
    return parser


def parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` read from the option table, or None unless it is well formed.

    Well formed is a command name, then exact option strings of that command,
    each as ``--opt value`` (a value that does not start with "-") or
    ``--opt=value``, bare store_true flags and the positionals in order, each
    value converted by its type and within its choices, and every required
    argument given. The namespace then equals the one argparse returns; any
    other argv, ``--help`` and ``--version`` among them, is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = COMMANDS[argv[0]][2]
    values: dict[str, Any] = {"command": argv[0]}
    options: dict[str, tuple[str, dict]] = {}
    positionals: list[tuple[str, dict]] = []
    required = set()
    for flags, kwargs in arguments:
        if not flags[0].startswith("-"):
            positionals.append((flags[0], kwargs))
            required.add(flags[0])
            continue
        # argparse's dest: the first long option string, dashes made underscores.
        dest = next(f for f in flags if f.startswith("--"))[2:].replace("-", "_")
        options.update((flag, (dest, kwargs)) for flag in flags)
        values[dest] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        if kwargs.get("required"):
            required.add(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, equals, value = token.partition("=") if token.startswith("--") else (token, "", "")
            if flag not in options:
                return None
            dest, kwargs = options[flag]
            if kwargs.get("action") == "store_true":
                if equals:
                    return None
                values[dest] = True
                continue
            if not equals:
                value = next(tokens, None)
                # argparse reads a value that starts with "-" as an option.
                if value is None or value.startswith("-"):
                    return None
            elif value == "--":  # which the argparse parser rejects
                return None
        elif positionals:
            dest, kwargs = positionals.pop(0)
            value = token
        else:
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
        required.discard(dest)
    return None if required else SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: each ``cmd_*`` returns its echoed inputs and its
    results, and only this function builds, renders and writes the report.

    Well-formed argv is read from the option table; only help, ``--version``
    and usage errors build an argparse parser, which then prints and exits."""
    if argv is None:
        argv = sys.argv[1:]
    args = parse_well_formed(argv)
    try:
        if args is None:
            # argparse prints help and --version on stdout, or on stderr when
            # stdout is closed; a closed stdout fails them as it fails a report.
            stdout, sys.stdout = sys.stdout, sys.stdout or io.StringIO()
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                if stdout is None and not exc.code:
                    raise OSError("stdout is closed") from None
                raise
            finally:
                sys.stdout = stdout
        module = __import__(f"{__package__}.{COMMANDS[args.command][0]}", fromlist=["*"])  # shown by -X importtime
        inputs, results = getattr(module, f"cmd_{args.command}")(args)
        report = make_report(args.command, inputs, results, getattr(args, "seed", None))
        text = render_report(report, args.format)
        if sys.stdout is None:
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        # A closed pipe fails here, not in the interpreter's exit-time flush.
        sys.stdout.flush()
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
    # The entry imports moonbell.cli; let it find this module, not compile a second copy.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    from .__main__ import run

    sys.exit(run())
