"""The process entry, ``moonbell.__main__.run``: the console script and
``python -m moonbell`` both call it. It ends the process with its exit code
on every way out, after the atexit hooks have run and every buffered byte
is written, and a reader that has gone gives exit 4, not an exit-time error.

These checks run moonbell in child processes, because the entry ends the
process that calls it.
"""

import ast
import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from moonbell.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]

# Runs moonbell as ``python -m moonbell`` does, after registering an atexit
# hook that reports on stderr once the entry has ended the run.
_ATEXIT_SCRIPT = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\natexit hook ran\\n"))
sys.argv[0] = "moonbell"
runpy.run_module("moonbell", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "gisin1999"], 0),
        (["bound", "gisin1999", "--no-such-flag"], 2),
        (["bound", "nosuch"], 3),
        (["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "100",
          "--out", "{missing}/sweep.csv"], 4),
    ],
    ids=["report", "usage", "unknown-preset", "unwritable-out"],
)
def test_every_way_out_keeps_its_exit_code_and_runs_atexit_hooks(argv, code, tmp_path):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _ATEXIT_SCRIPT, *argv], capture_output=True, text=True
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.endswith("\natexit hook ran\n"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # Some 19 MB, far more than a pipe or stdout's buffer holds.
        ["simulate", "gisin1999", "-n", "200000", "--trace", "100000"],
        # Less than stdout's 8 KiB buffer, which holds it until a flush.
        ["bound", "gisin1999", "--format", "text"],
        # argparse writes help and --version and exits; only the entry flushes them.
        ["--help"],
        ["--version"],
    ],
    ids=["trace", "small", "help", "version"],
)
def test_a_piped_report_is_written_whole(argv):
    # A block-buffered stdout, the default for a pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "moonbell", *argv], capture_output=True, env=env)
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert (proc.returncode, code, proc.stderr) == (0, 0, b"")
    assert proc.stdout == expected.getvalue().encode()


# Calls moonbell.cli.main in a process that goes on after it.
_IN_PROCESS_SCRIPT = """
import atexit
from moonbell.cli import main
atexit.register(lambda: print("atexit hook ran"))
code = main(["presets"])
print(f"main returned {code}")
"""


def test_an_in_process_call_returns_and_leaves_the_process_running():
    proc = subprocess.run([sys.executable, "-c", _IN_PROCESS_SCRIPT], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("{")
    assert proc.stdout.endswith("}\nmain returned 0\natexit hook ran\n")


def test_console_script_and_python_m_share_one_entry():
    from moonbell import __main__ as entry

    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["moonbell"].partition(":")
    # ``python -m moonbell`` runs the package's __main__ module as "__main__".
    assert module == "moonbell.__main__"
    assert getattr(entry, attr) is entry.run
    tree = ast.parse(pathlib.Path(entry.__file__).read_text())
    guard = tree.body[-1]
    assert isinstance(guard, ast.If)
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(stmt) for stmt in guard.body] == [f"sys.exit({attr}())"]


@pytest.mark.parametrize(
    "argv, code",
    [(["bound", "gisin1999"], 0), (["bound", "gisin1999", "--tau=--"], 2), (["bound", "nosuch"], 3)],
    ids=["report", "usage", "unknown-preset"],
)
def test_python_m_moonbell_cli_is_python_m_moonbell(argv, code):
    entry = subprocess.run([sys.executable, "-m", "moonbell", *argv], capture_output=True)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "moonbell.cli", *argv], capture_output=True)
    assert proc.returncode == entry.returncode == code
    assert proc.stdout == entry.stdout
    # -X importtime writes one "import time:" line per module it loads.
    stderr = proc.stderr.decode().splitlines(keepends=True)
    assert "".join(line for line in stderr if not line.startswith("import time:")) == entry.stderr.decode()
    # cli.py runs as __main__; the entry it calls must not compile it again.
    assert "moonbell.cli" not in [line.rsplit("|", 1)[-1].strip() for line in stderr]


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["bound", "gisin1999"], 4, "error: [Errno 32] Broken pipe\n"),
        (["presets", "--format", "text"], 4, "error: [Errno 32] Broken pipe\n"),
        (["simulate", "gisin1999", "-n", "1000", "--trace", "1000"], 4, "error: [Errno 32] Broken pipe\n"),
        (["--version"], 0, ""),
        (["--help"], 0, ""),
    ],
    ids=["bound", "presets-text", "simulate-trace", "version", "help"],
)
def test_a_closed_pipe_exits_cleanly(argv, code, stderr):
    # A block-buffered stdout, the default for a pipe: an unbuffered one
    # fails inside the write and never reaches the exit-time flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "moonbell", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, stderr)


def _closed(fd, argv):
    """A ``python -m moonbell`` process started with file descriptor ``fd`` closed."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m moonbell "$@" {fd}>&-', sys.executable, *argv],
        capture_output=True, text=True,
    )


def test_a_closed_stdout_exits_4_with_one_error_line():
    proc = _closed(1, ["bound", "gisin1999"])
    assert (proc.returncode, proc.stderr) == (4, "error: stdout is closed\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bound", "--help"]], ids=" ".join)
def test_help_and_version_with_stdout_closed_exit_4(argv):
    # argparse would print them on stderr and exit 0.
    proc = _closed(1, argv)
    assert (proc.returncode, proc.stderr) == (4, "error: stdout is closed\n")


@pytest.mark.parametrize(
    "argv", [["bound"], ["bound", "--version"], ["bound", "gisin1999", "--tau=--"], ["nosuch", "--help"]],
    ids=" ".join,
)
def test_a_usage_error_with_stdout_closed_keeps_argparses_text(argv):
    proc = _closed(1, argv)
    expected = subprocess.run([sys.executable, "-m", "moonbell", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, expected.stderr)
    assert expected.stderr.startswith("usage: moonbell")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "gisin1999", "--tau", "x"], 2),
        (["bound", "gisin1999", "--no-such-flag"], 2),
        (["bound", "nosuch"], 3),
        (["sweep", "gisin1999", "--v-min", "1e6", "--v-max", "1e8", "--points", "3", "-n", "100",
          "--out", "/nonexistent/sweep.csv"], 4),
    ],
    ids=["validation", "usage", "unknown-preset", "unwritable-out"],
)
def test_a_closed_stderr_keeps_the_exit_code_and_prints_nothing(argv, code):
    proc = _closed(2, argv)
    assert (proc.returncode, proc.stdout) == (code, "")
