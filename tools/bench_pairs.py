"""Alternating parent/change runs of bench/run.py, summarised as a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD --workload cli_quick \
        --seeds 601-610 --seconds 30 --out BENCH_6.json

The change is this checkout's working tree: its tracked files and its
untracked files that git does not ignore. The parent is a git revision.
Both sides are packed as tar archives (the parent with ``git archive``) and
unpacked the same way into sibling temporary directories, so neither side
runs from the checkout itself. For each seed the two sides run
``bench/run.py`` from their own tree, one after the other, and
the side that goes first alternates from seed to seed. Each side's runs are
summarised per metric as median and quartiles, with the number of pairs in
which the change did better. ``--out`` is merged by workload and trace mode,
so several invocations can fill one file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def archive_parent(rev: str, archive: Path) -> None:
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)


def archive_change(archive: Path) -> None:
    """The working tree's tracked and untracked-but-not-ignored files, as a tar."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    with tarfile.open(archive, "w") as tar:
        for name in sorted(set(names)):
            if name and (ROOT / name).is_file():  # a deleted tracked file is skipped
                tar.add(ROOT / name, arcname=name)


def unpack(archive: Path, into: Path) -> Path:
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return into


def src_digest(tree: Path) -> str:
    """sha256 over the relative paths and bytes of src/moonbell/*.py."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "moonbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One bench/run.py run from ``tree``: (result, environment)."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    environment = next(json.loads(line)["environment"] for line in lines if line.startswith('{"environment"'))
    return json.loads(lines[-1]), environment


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 601-610")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        archive_parent(args.parent, Path(tmp) / "parent.tar")
        archive_change(Path(tmp) / "change.tar")
        trees = {side: unpack(Path(tmp) / f"{side}.tar", Path(tmp) / side) for side in ("parent", "change")}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result, environment = run_bench(trees[side], args.workload, seed, args.seconds, args.trace)
                runs[side].append(result)
                print(f"seed {seed} {side}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                      file=sys.stderr)
        digests = {side: src_digest(tree) for side, tree in trees.items()}

    table = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        better = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        table[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summary(sides["parent"]),
            "change": summary(sides["change"]),
            "change_better_pairs": better,
        }
    entry = {
        "seeds": args.seeds,
        "pairs": len(args.seeds),
        "seconds": args.seconds,
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "metrics": table,
    }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    environment = {key: environment[key] for key in ("nproc", "cpu", "python", "numpy")}
    doc["environment"] = {**environment, "platform": platform.platform()}
    doc["parent"] = {"commit": git("rev-parse", args.parent), "src_sha256": digests["parent"]}
    dirty = bool(git("status", "--porcelain", "--", "src"))
    doc["change"] = {
        "commit": git("rev-parse", "HEAD") + (" plus uncommitted src/ changes" if dirty else ""),
        "src_sha256": digests["change"],
    }
    section = "per_layer" if args.trace else "end_to_end"
    doc.setdefault(section, {})[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
