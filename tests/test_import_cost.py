"""Each command loads only the modules it runs, and no command loads numpy
or dataclasses: sampling runs on moonbell.philox, a port of numpy's stream.

Runs in a fresh interpreter, because the pytest process has numpy loaded
already.
"""

import json
import subprocess
import sys

from moonbell import preset, scenario_to_json

_SCRIPT = """
import json, sys
import moonbell, moonbell.cli as cli

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy"))

assert not numpy_modules(), ("import", numpy_modules())
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
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


# The steps arrive as a repr, so that the script itself loads no json.
_MODULES_SCRIPT = """
import ast, sys
import moonbell.cli as cli

def loaded(names):
    return [m for m in names if m in sys.modules]

for argv, absent in ast.literal_eval(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    assert not loaded(absent), (argv, loaded(absent))
assert cli.main(["simulate", "gisin1999", "-n", "1000"]) == 0
assert loaded(["moonbell.simulate", "numpy", "dataclasses"]) == ["moonbell.simulate"], "simulate"
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_to_json(preset("cao2017")))
    # Only a scenario file is parsed as JSON, and report strings go through
    # _json's C encoder, so no command but validate FILE loads json.
    neither = ["moonbell.simulate", "moonbell.philox", "moonbell.linkbudget", "numpy", "dataclasses"]
    steps = [
        (["bound", "gisin1999"], [*neither, "json"]),
        (["presets"], [*neither, "json"]),
        (["scales"], [*neither, "json"]),
        (["linkbudget", "--length-a", "384400km", "--length-b", "500km",
          "--ref-loss-db", "30", "--pair-rate", "1e9"], ["moonbell.simulate", "moonbell.philox", "numpy", "dataclasses", "json"]),
        (["simulate", "gisin1999", "-n", "1000", "--trace", "3"], ["numpy", "dataclasses", "json"]),
        (["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "1000",
          "--out", str(tmp_path / "sweep.csv")], ["numpy", "dataclasses", "json"]),
    ]
    # validate loads json, which the other steps refuse, so it runs in a process of its own.
    for group in (steps, [(["validate", str(scenario)], neither)]):
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_SCRIPT, repr(group)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


_EVENT_MODEL_SCRIPT = """
import sys
from moonbell import critical_speed, preset, scenario_timing

v_star = critical_speed(preset("earth_moon_case3"))
assert 0.0 < v_star < float("inf"), v_star
loaded = [m for m in ("moonbell.simulate", "moonbell.philox", "numpy", "dataclasses") if m in sys.modules]
assert not loaded, loaded
"""


def test_event_model_threshold_loads_neither_sampler_nor_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _EVENT_MODEL_SCRIPT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
