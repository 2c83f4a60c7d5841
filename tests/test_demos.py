import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))

# Each demo's stdout, one list entry per line. Every demo is seeded, so its
# output is byte-stable.
_PINNED_STDOUT = json.loads((REPO / "tests" / "pinned_demos.json").read_text(encoding="utf-8"))
# Demo 03 adds this line when matplotlib is installed; the pins were taken without it.
_FIGURE_LINE = "wrote sweep_earth_moon.png\n"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # Run in a scratch directory: a demo may save a figure to the cwd.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    stdout = proc.stdout.replace(_FIGURE_LINE, "")
    assert stdout == "".join(line + "\n" for line in _PINNED_STDOUT[demo.name])
