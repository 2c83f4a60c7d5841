"""The process entry: ``python -m moonbell`` and the ``moonbell`` console
script both call :func:`run`."""

import gc
import os
import sys

from .cli import main


def run() -> int:
    """Run :func:`moonbell.cli.main` as a whole process: its exit code."""
    if sys.stderr is None:
        # Started with fd 2 closed. An error keeps its exit code and prints
        # nothing; argparse would otherwise print its usage line to stdout.
        sys.stderr = open(os.devnull, "w")
    try:
        return main()
    finally:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone. Point fd 1 at devnull, as the signal
            # module's "Note on SIGPIPE" does, so that the interpreter's
            # exit-time flush cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # The process is about to end, so its final garbage collections would
        # only walk objects that die with it anyway; frozen, they skip them.
        # Only a process that is about to end may do this: in a long-lived
        # caller it would pin every live cycle for good, so cli.main does not.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
