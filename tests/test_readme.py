"""Every `moonbell ...` line of README's command-line block runs and exits 0."""

import pathlib
import shlex

import pytest

from moonbell import cli, preset, scenario_to_json

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples():
    section = README.read_text(encoding="utf-8").split("## Command-line interface", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
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
