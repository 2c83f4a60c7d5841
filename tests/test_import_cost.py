"""Each command loads only the modules it runs; only sampling loads numpy.

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
assert cli.main(["simulate", "gisin1999", "-n", "1000"]) == 0
assert "numpy" in sys.modules, "simulate ran without numpy"
"""


def test_only_sampling_commands_import_numpy(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_to_json(preset("cao2017")))
    commands = [
        ["bound", "gisin1999"],
        ["presets"],
        ["linkbudget", "--length-a", "384400km", "--length-b", "500km",
         "--ref-loss-db", "30", "--pair-rate", "1e9"],
        ["scales"],
        ["validate", str(scenario)],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


_MODULES_SCRIPT = """
import json, sys
import moonbell.cli as cli

def loaded(names):
    return [m for m in names if m in sys.modules]

for argv, absent in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    assert not loaded(absent), (argv, loaded(absent))
assert cli.main(["simulate", "gisin1999", "-n", "1000"]) == 0
assert loaded(["moonbell.simulate", "numpy"]) == ["moonbell.simulate", "numpy"], "simulate"
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_to_json(preset("cao2017")))
    neither = ["moonbell.simulate", "moonbell.linkbudget", "numpy"]
    steps = [
        (["bound", "gisin1999"], neither),
        (["presets"], neither),
        (["scales"], neither),
        (["validate", str(scenario)], neither),
        (["linkbudget", "--length-a", "384400km", "--length-b", "500km",
          "--ref-loss-db", "30", "--pair-rate", "1e9"], ["moonbell.simulate", "numpy"]),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_SCRIPT, json.dumps(steps)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
