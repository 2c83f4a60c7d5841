"""Interleaved fresh ``python -m moonbell ARGV`` processes: a git revision
against the working tree, as change - parent wall time per argv.

    python3 tools/startup_pairs.py --parent HEAD --pairs 31 --bytecode cached
    python3 tools/startup_pairs.py --parent HEAD --pairs 31 --bytecode uncached \
        --argv "bound earth_moon_case3" --argv "presets"
    python3 tools/startup_pairs.py --parent HEAD --pairs 31 --bytecode cached \
        --argv=--help --argv "bound gisin1999 --format yaml"
    python3 tools/startup_pairs.py --parent HEAD --pairs 31 --bytecode uncached --no-site

An argv that starts with "-" must be given in the ``--argv=--help`` form;
``--argv --help`` is read as a missing value.

Both trees are packed and unpacked with the helpers of tools/bench_pairs.py,
so neither side runs from the checkout. With ``--bytecode cached`` each
tree's src/moonbell is compiled once before timing; with ``uncached`` every
child runs with PYTHONDONTWRITEBYTECODE=1 from a tree that has no
``__pycache__``, so each process compiles moonbell. With ``--no-site`` every
child runs as ``python -S``, so that what ``site`` loads (a ``.pth`` file may
import typing, say) cannot hide a start-up cost. Each pair runs every argv
once on each side, and the side that goes first alternates from pair to pair.
Each child runs from its own tree, so a relative ``--out`` lands there, and
``{scenario_file}`` in an argv stands for a scenario file that the tool
writes once into its temporary directory. A child may exit with any code and
is timed all the same; the tool refuses a pair, and stops, only when the two
sides' exit codes differ. Per argv the tool prints the median of change -
parent wall time and its quartiles, in ms, the pairs the change won, each
side's median and the exit code.
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

# The five commands of the benchmark's cli_quick workload, then a 1e7-pair
# run, a 40-point sweep and a traced run, all rendered as JSON; then one csv
# report (with nan results) and one text report. The sweep writes to
# /dev/null: rewriting a file that was rewritten moments before can wait tens
# of ms on the disk's writeback, which would swamp start-up costs.
DEFAULT_ARGVS = (
    "bound earth_moon_case3",
    "presets",
    "linkbudget --length-a 384400km --length-b 500km --pair-rate 1e9",
    "scales",
    "validate {scenario_file}",
    "simulate earth_moon_case3 -n 10000000",
    "sweep earth_moon_case3 --v-min 1e9 --v-max 1e13 --points 40 -n 100000 --out /dev/null",
    "simulate earth_moon_case3 -n 100000 --trace 1000",
    "simulate gisin1999 -n 4 --seed 0 --format csv",
    "scales --format text",
)


def wall_ms(tree: Path, argv: list[str], env: dict[str, str], options: list[str]) -> tuple[float, int]:
    """Wall time of one ``python *options -m moonbell`` process run from
    ``tree``, in ms, and its exit code."""
    start = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, *options, "-m", "moonbell", *argv],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return (time.perf_counter_ns() - start) / 1e6, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=31)
    parser.add_argument("--bytecode", choices=("cached", "uncached"), required=True)
    parser.add_argument("--argv", action="append", help="a moonbell argv, shell-quoted; repeatable")
    parser.add_argument("--no-site", action="store_true", help="run every child as python -S")
    args = parser.parse_args()

    sides = ("parent", "change")
    with tempfile.TemporaryDirectory() as tmp:
        scenario_file = Path(tmp) / "scenario.json"
        argvs = [
            [token.replace("{scenario_file}", str(scenario_file)) for token in shlex.split(text)]
            for text in args.argv or DEFAULT_ARGVS
        ]
        times: dict[str, list[list[float]]] = {side: [[] for _ in argvs] for side in sides}
        # Each side's exit code per argv, in the latest pair.
        codes = {side: [0] * len(argvs) for side in sides}
        archive_parent(args.parent, Path(tmp) / "parent.tar")
        archive_change(Path(tmp) / "change.tar")
        trees = {side: unpack(Path(tmp) / f"{side}.tar", Path(tmp) / side) for side in sides}
        envs = {}
        for side, tree in trees.items():
            envs[side] = {**os.environ, "PYTHONPATH": str(tree / "src")}
            if args.bytecode == "cached":
                subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src" / "moonbell")], check=True)
            else:
                envs[side]["PYTHONDONTWRITEBYTECODE"] = "1"
        with scenario_file.open("w", encoding="utf-8") as fh:
            subprocess.run(
                [sys.executable, "-c", "from moonbell import preset, scenario_to_json; "
                 "print(scenario_to_json(preset('earth_moon_case3')))"],
                env=envs["change"], stdout=fh, check=True,
            )
        options = ["-S"] if args.no_site else []
        for i in range(args.pairs):
            for side in sides if i % 2 == 0 else sides[::-1]:
                for k, argv in enumerate(argvs):
                    ms, codes[side][k] = wall_ms(trees[side], argv, envs[side], options)
                    times[side][k].append(ms)
            differ = [shlex.join(argv) for k, argv in enumerate(argvs) if codes["parent"][k] != codes["change"][k]]
            if differ:
                raise SystemExit(f"pair {i}: parent and change exit codes differ on {differ}: {codes}")
        cached = {side: (tree / "src" / "moonbell" / "__pycache__").is_dir() for side, tree in trees.items()}
        if cached != {side: args.bytecode == "cached" for side in trees}:
            raise SystemExit(f"--bytecode {args.bytecode}, but src/moonbell/__pycache__ present: {cached}")

    site = ", python -S" if args.no_site else ""
    print(f"{args.pairs} pairs, {args.bytecode} bytecode{site}; change - parent wall time, ms")
    print(f"{'median':>8} {'q1':>8} {'q3':>8} {'won':>7} {'parent':>8} {'change':>8} {'exit':>4}  argv")
    for k, argv in enumerate(argvs):
        parent, change = times["parent"][k], times["change"][k]
        diff = summary([c - p for p, c in zip(parent, change)])
        won = sum(c < p for p, c in zip(parent, change))
        print(
            f"{diff['median']:8.2f} {diff['q1']:8.2f} {diff['q3']:8.2f} {f'{won}/{args.pairs}':>7} "
            f"{statistics.median(parent):8.2f} {statistics.median(change):8.2f} {codes['change'][k]:4d}  {shlex.join(argv)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
