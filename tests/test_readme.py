"""README's examples run and print what README says they print: every
`moonbell ...` line of the command-line block exits 0, and the library
quickstart prints the figures its comments state."""

import math
import pathlib
import re
import shlex

import pytest

from moonbell import cli, preset, scenario_to_json, speed_bound

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ```lang block under ``heading``."""
    section = TEXT.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _cli_examples():
    lines = _block("Command-line interface", "bash").replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("moonbell ")]


EXAMPLES = _cli_examples()


def test_readme_lists_every_subcommand():
    commands = {argv[1] for argv in EXAMPLES}
    assert commands == {"bound", "simulate", "sweep", "linkbudget", "scales", "validate", "presets"}


@pytest.mark.parametrize("argv", EXAMPLES, ids=lambda argv: " ".join(argv[1:3]))
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    # Relative paths (my_scenario.json, the sweep's --out) resolve under tmp_path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_scenario.json").write_text(scenario_to_json(preset("gisin1999")))
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0


def test_readme_library_quickstart_prints_its_figures(capsys):
    block = _block("Library quickstart", "python")
    exec(compile(block, str(README), "exec"), {})
    bound, s_hat, v_star = map(float, capsys.readouterr().out.split())
    # Each figure next to the comment that states it.
    assert "# ~5.13e11" in block and f"{bound:.2e}" == "5.13e+11"
    assert "# ~2.828 = 2*sqrt(2)" in block and f"{s_hat:.4f}" == "2.8295"
    assert abs(s_hat - 2 * math.sqrt(2)) < 0.002
    assert "# just below 1" in block and 0.999 < v_star < 1.0


def test_readme_intro_gain_over_the_satellite_record():
    # "roughly 550 times beyond the satellite record geometry": case 3's bound over cao2017's.
    (stated,) = re.findall(r"roughly (\d+) times beyond the satellite\s+record", TEXT)
    gain = speed_bound(preset("earth_moon_case3")).v_min_over_c / speed_bound(preset("cao2017")).v_min_over_c
    assert f"{gain:.1f}" == "549.1"
    assert round(gain, -1) == int(stated)
