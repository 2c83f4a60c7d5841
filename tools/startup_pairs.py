"""Interleaved fresh ``python -m moonbell ARGV`` processes: a git revision
against the working tree, as change - parent wall time per argv.

    python3 tools/startup_pairs.py --parent HEAD --pairs 31 --bytecode cached
    python3 tools/startup_pairs.py --parent HEAD --pairs 31 --bytecode uncached \
        --argv "bound earth_moon_case3" --argv "presets"

Both trees are packed and unpacked with the helpers of tools/bench_pairs.py,
so neither side runs from the checkout. With ``--bytecode cached`` each
tree's src/moonbell is compiled once before timing; with ``uncached`` every
child runs with PYTHONDONTWRITEBYTECODE=1 from a tree that has no
``__pycache__``, so each process compiles moonbell. Each pair runs every argv
once on each side, and the side that goes first alternates from pair to pair.
Each child runs from its own tree, so a relative ``--out`` lands there. Per
argv the tool prints the median of change - parent wall time and its
quartiles, in ms, the pairs the change won, and each side's median.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import archive_change, archive_parent, summary, unpack

# bound, presets, a 1e7-pair run, a 40-point sweep and a traced run. The sweep
# writes to /dev/null: rewriting a file that was rewritten moments before can
# wait tens of ms on the disk's writeback, which would swamp start-up costs.
DEFAULT_ARGVS = (
    "bound earth_moon_case3",
    "presets",
    "simulate earth_moon_case3 -n 10000000",
    "sweep earth_moon_case3 --v-min 1e9 --v-max 1e13 --points 40 -n 100000 --out /dev/null",
    "simulate earth_moon_case3 -n 100000 --trace 1000",
)


def wall_ms(tree: Path, argv: list[str], env: dict[str, str]) -> float:
    """Wall time of one ``python -m moonbell`` process run from ``tree``, in ms."""
    start = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "moonbell", *argv],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    elapsed = (time.perf_counter_ns() - start) / 1e6
    if proc.returncode != 0:
        raise SystemExit(f"moonbell {shlex.join(argv)} in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=31)
    parser.add_argument("--bytecode", choices=("cached", "uncached"), required=True)
    parser.add_argument("--argv", action="append", help="a moonbell argv, shell-quoted; repeatable")
    args = parser.parse_args()

    argvs = [shlex.split(text) for text in args.argv or DEFAULT_ARGVS]
    times: dict[str, list[list[float]]] = {"parent": [[] for _ in argvs], "change": [[] for _ in argvs]}
    with tempfile.TemporaryDirectory() as tmp:
        archive_parent(args.parent, Path(tmp) / "parent.tar")
        archive_change(Path(tmp) / "change.tar")
        trees = {side: unpack(Path(tmp) / f"{side}.tar", Path(tmp) / side) for side in times}
        envs = {}
        for side, tree in trees.items():
            envs[side] = {**os.environ, "PYTHONPATH": str(tree / "src")}
            if args.bytecode == "cached":
                subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src" / "moonbell")], check=True)
            else:
                envs[side]["PYTHONDONTWRITEBYTECODE"] = "1"
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                for k, argv in enumerate(argvs):
                    times[side][k].append(wall_ms(trees[side], argv, envs[side]))
        cached = {side: (tree / "src" / "moonbell" / "__pycache__").is_dir() for side, tree in trees.items()}
        if cached != {side: args.bytecode == "cached" for side in trees}:
            raise SystemExit(f"--bytecode {args.bytecode}, but src/moonbell/__pycache__ present: {cached}")

    print(f"{args.pairs} pairs, {args.bytecode} bytecode; change - parent wall time, ms")
    print(f"{'median':>8} {'q1':>8} {'q3':>8} {'won':>7} {'parent':>8} {'change':>8}  argv")
    for k, argv in enumerate(argvs):
        parent, change = times["parent"][k], times["change"][k]
        diff = summary([c - p for p, c in zip(parent, change)])
        won = sum(c < p for p, c in zip(parent, change))
        print(
            f"{diff['median']:8.2f} {diff['q1']:8.2f} {diff['q3']:8.2f} {f'{won}/{args.pairs}':>7} "
            f"{statistics.median(parent):8.2f} {statistics.median(change):8.2f}  {shlex.join(argv)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
