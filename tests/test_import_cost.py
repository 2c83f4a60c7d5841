"""The start-up contract: each command loads only the modules it runs, and
no command loads numpy or dataclasses (sampling runs on moonbell.philox, a
port of numpy's stream) or typing (records are built by
moonbell.constants.record). Well-formed argv loads no argparse either; only
help, --version and usage errors do.

This module is the one statement of that contract, down to the module lists
of each command. Each command runs in a fresh interpreter, because the pytest
process has numpy loaded already, and through the process entry
moonbell.__main__.run, which the console script and python -m moonbell both
call, so that every module the process loads is seen.
"""

import ast
import subprocess
import sys

from moonbell import preset, scenario_to_json

# Runs one argv through the process entry. The entry ends the process, so an
# atexit hook, which still runs, reports the modules loaded and the cmd_*
# handlers defined, as a repr on the last line of stderr; the argv arrives
# as a repr, so that the script itself loads no json.
_SCRIPT = """
import ast, atexit, sys, types

def report():
    handlers = sorted(
        name
        for module in list(sys.modules.values())
        if module.__name__.startswith("moonbell")
        for name, value in vars(module).items()
        if name.startswith("cmd_") and isinstance(value, types.FunctionType) and value.__module__ == module.__name__
    )
    sys.stderr.write("\\n" + repr((sorted(sys.modules), handlers)) + "\\n")

atexit.register(report)
sys.argv = ["moonbell", *ast.literal_eval(sys.argv[1])]
from moonbell.__main__ import run
run()
"""


def _run(argv, *options):
    """One fresh ``python *options`` process running ``argv``: its exit code,
    stdout, and the modules loaded and handlers defined when it ended."""
    proc = subprocess.run(
        [sys.executable, *options, "-c", _SCRIPT, repr(argv)], capture_output=True, text=True
    )
    modules, handlers = ast.literal_eval(proc.stderr.splitlines()[-1])
    return proc.returncode, proc.stdout, set(modules), handlers


def _commands(tmp_path):
    """One argv per command, each of which exits 0."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_to_json(preset("cao2017")))
    return [
        ["bound", "gisin1999"],
        ["presets"],
        ["linkbudget", "--length-a", "384400km", "--length-b", "500km",
         "--ref-loss-db", "30", "--pair-rate", "1e9"],
        ["scales"],
        ["validate", str(scenario)],
        ["simulate", "gisin1999", "-n", "1000", "--trace", "3"],
        ["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "1000",
         "--out", str(tmp_path / "sweep.csv")],
    ]


def test_no_command_imports_numpy(tmp_path):
    for argv in _commands(tmp_path):
        code, _, modules, _ = _run(argv)
        assert code == 0, argv
        assert not [m for m in modules if m.startswith("numpy")], argv


def test_no_command_loads_typing(tmp_path):
    # Without site, which may load typing itself (a .pth file can), so that
    # the process shows what moonbell loads.
    for argv in [*_commands(tmp_path), ["--help"]]:
        code, _, modules, _ = _run(argv, "-S")
        assert code == 0, argv
        assert "typing" not in modules, argv


def test_commands_load_only_the_modules_they_run(tmp_path):
    bound, presets, linkbudget, scales, validate, simulate, sweep = _commands(tmp_path)
    # Only a scenario file is parsed as JSON, so no command but validate FILE
    # loads json, and report strings of printable ASCII are quoted without
    # _json's C encoder, so neither loads _json. Only reading a scenario file
    # loads moonbell.document, and only the survey loads moonbell.scales.
    # Well-formed argv is read without argparse, so no command loads it, nor
    # the gettext it translates its messages with.
    never = ["numpy", "dataclasses", "argparse", "gettext"]
    neither = ["moonbell.simulate", "moonbell.philox", "moonbell.sweep", "moonbell.linkbudget", *never]
    unread = ["moonbell.document", "moonbell.scales", "json", "_json"]
    sampler = ["moonbell.simulate", "moonbell.philox"]
    # Each handler lives in the module it drives, so a process compiles no
    # other command's handler: cli holds only bound's, presets' and validate's.
    cli_handlers = ["cmd_bound", "cmd_presets", "cmd_validate"]
    # A unit suffix is read by moonbell.constants, which every command loads.
    bound_tau = ["bound", "earth_moon_case3", "--tau", "10ps"]
    simulate_settings = ["simulate", "earth_moon_case3", "-n", "1000", "--settings", "0,45deg,22.5deg,67.5deg"]
    steps = [
        (bound, [*neither, *unread], [], cli_handlers),
        (bound_tau, [*neither, *unread], [], cli_handlers),
        (presets, [*neither, *unread], [], cli_handlers),
        (linkbudget, [*sampler, "moonbell.sweep", *never, *unread], ["moonbell.linkbudget"],
         [*cli_handlers, "cmd_linkbudget"]),
        (simulate, ["moonbell.sweep", *never, *unread], sampler, [*cli_handlers, "cmd_simulate"]),
        (simulate_settings, ["moonbell.sweep", *never, *unread], sampler, [*cli_handlers, "cmd_simulate"]),
        (sweep, [*never, *unread], [*sampler, "moonbell.sweep"], [*cli_handlers, "cmd_simulate", "cmd_sweep"]),
        (scales, [*neither, "moonbell.document", "json", "_json"], ["moonbell.scales"],
         [*cli_handlers, "cmd_scales"]),
        (validate, [*neither, "moonbell.scales"], ["moonbell.document"], cli_handlers),
    ]
    # One fresh interpreter per command.
    for argv, absent, present, handlers in steps:
        code, _, modules, defined = _run(argv)
        assert code == 0, argv
        assert [m for m in absent if m in modules] == [], argv
        assert [m for m in present if m in modules] == present, argv
        assert defined == sorted(handlers), argv


def test_help_still_loads_argparse():
    code, stdout, modules, _ = _run(["bound", "--help"])
    assert code == 0
    assert "argparse" in modules
    assert stdout.startswith("usage: moonbell bound")


_EVENT_MODEL_SCRIPT = """
import sys
from moonbell import critical_speed, preset, scenario_timing

v_star = critical_speed(preset("earth_moon_case3"))
assert 0.0 < v_star < float("inf"), v_star
refused = ("moonbell.simulate", "moonbell.philox", "moonbell.document", "moonbell.scales", "numpy", "dataclasses")
loaded = [m for m in refused if m in sys.modules]
assert not loaded, loaded
"""


def test_event_model_threshold_loads_neither_sampler_nor_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _EVENT_MODEL_SCRIPT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
