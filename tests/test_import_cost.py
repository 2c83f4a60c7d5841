"""The start-up contract: each command loads only the modules it runs, and
no command loads numpy or dataclasses (sampling runs on moonbell.philox, a
port of numpy's stream). Well-formed argv loads no argparse either; only
help, --version and usage errors do.

This module is the one statement of that contract, down to the module lists
of each command. Each command runs in a fresh interpreter, because the pytest
process has numpy loaded already, and through the process entry
moonbell.__main__.run, which the console script and python -m moonbell both
call, so that every module the process loads is seen.
"""

import json
import subprocess
import sys

from moonbell import preset, scenario_to_json

_SCRIPT = """
import json, sys
from moonbell.__main__ import run

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy"))

assert not numpy_modules(), ("import", numpy_modules())
for argv in json.loads(sys.argv[1]):
    sys.argv = ["moonbell", *argv]
    assert run() == 0, argv
    assert not numpy_modules(), (argv, numpy_modules())
"""


def test_no_command_imports_numpy(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_to_json(preset("cao2017")))
    commands = [
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
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# The step arrives as a repr, so that the script itself loads no json.
_MODULES_SCRIPT = """
import ast, sys, types

def loaded(names):
    return [m for m in names if m in sys.modules]

argv, absent, present, handlers = ast.literal_eval(sys.argv[1])
sys.argv = ["moonbell", *argv]
from moonbell.__main__ import run
assert run() == 0, argv
assert not loaded(absent), (argv, loaded(absent))
assert loaded(present) == present, (argv, present)
defined = sorted(
    name
    for module in list(sys.modules.values())
    if module.__name__.startswith("moonbell")
    for name, value in vars(module).items()
    if name.startswith("cmd_") and isinstance(value, types.FunctionType) and value.__module__ == module.__name__
)
assert defined == sorted(handlers), (argv, defined)
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_to_json(preset("cao2017")))
    # Only a scenario file is parsed as JSON, and report strings go through
    # _json's C encoder, so no command but validate FILE loads json. Only
    # reading a scenario file loads moonbell.document, and only the survey
    # loads moonbell.scales. Well-formed argv is read without argparse, so no
    # command loads it, nor the gettext it translates its messages with.
    never = ["numpy", "dataclasses", "argparse", "gettext"]
    neither = ["moonbell.simulate", "moonbell.philox", "moonbell.linkbudget", *never]
    unread = ["moonbell.document", "moonbell.scales", "json"]
    sampler = ["moonbell.simulate", "moonbell.philox"]
    # Each handler lives in the module it drives, so a process compiles no
    # other command's handler: cli holds only bound's, presets' and validate's.
    cli_handlers = ["cmd_bound", "cmd_presets", "cmd_validate"]
    run_handlers = [*cli_handlers, "cmd_simulate", "cmd_sweep"]
    steps = [
        (["bound", "gisin1999"], [*neither, *unread], [], cli_handlers),
        (["presets"], [*neither, *unread], [], cli_handlers),
        (["linkbudget", "--length-a", "384400km", "--length-b", "500km",
          "--ref-loss-db", "30", "--pair-rate", "1e9"],
         [*sampler, *never, *unread], ["moonbell.linkbudget"], [*cli_handlers, "cmd_linkbudget"]),
        (["simulate", "gisin1999", "-n", "1000", "--trace", "3"], [*never, *unread], sampler, run_handlers),
        (["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "1000",
          "--out", str(tmp_path / "sweep.csv")], [*never, *unread], sampler, run_handlers),
        (["scales"], [*neither, "moonbell.document", "json"], ["moonbell.scales"],
         [*cli_handlers, "cmd_scales"]),
        (["validate", str(scenario)], [*neither, "moonbell.scales"], ["moonbell.document"], cli_handlers),
    ]
    # One fresh interpreter per command.
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_SCRIPT, repr(step)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


_HELP_SCRIPT = """
import sys
from moonbell.__main__ import run

sys.argv = ["moonbell", "bound", "--help"]
try:
    run()
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert "argparse" in sys.modules
"""


def test_help_still_loads_argparse():
    proc = subprocess.run([sys.executable, "-c", _HELP_SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: moonbell bound")


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
