"""The process entry: ``python -m moonbell`` and the ``moonbell`` console
script both call :func:`run`."""

import atexit
import os
import sys

from .cli import main


def run() -> int:
    """Run :func:`moonbell.cli.main` as a whole process, which then ends.

    The exit code is main's, or argparse's for help, ``--version`` and usage
    errors. The atexit hooks run (coverage saves its data in one) and the
    output is flushed, in the interpreter's own order; then the process ends
    at once, skipping the interpreter's teardown, whose garbage collections
    and module clean-up would only walk objects that die with the process.
    A caller that goes on running calls cli.main instead.
    """
    if sys.stderr is None:
        # Started with fd 2 closed. An error keeps its exit code and prints
        # nothing; argparse would otherwise print its usage line to stdout.
        sys.stderr = open(os.devnull, "w")
    try:
        code = main()
    except SystemExit as exc:  # argparse exits with an int status
        code = exc.code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass  # a reader that has gone; the exit code is already set
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
