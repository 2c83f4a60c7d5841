"""moonbell benchmark.

    python3 bench/run.py --workload cli_quick --seed 1 --seconds 30 --trace 0

Run from anywhere inside a moonbell checkout; it runs the checkout's own
``src/moonbell``. With ``--trace 0`` each request is one or two fresh
``python -m moonbell`` processes, sent in a closed loop by one client and
timed against a reference process run just before it, and the end-to-end
metrics of BENCHMARK.json are reported. With ``--trace 1`` the
same requests are replayed in-process through ``moonbell.cli.main`` with
spans around each layer, and the per-layer metrics are reported. Every
output is checked either way. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import tracing
import verify
import workloads

ROOT = verify.ROOT
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"
STEP_TIMEOUT_S = 120
# Requests per in-process pass of the traced run: ten rounds of cli_quick's
# five subcommands (one invalid scenario file among them), or one
# simulation or study.
PASS_REQUESTS = {"cli_quick": 50, "simulate_large": 1, "sweep_study": 1}
# The yardstick each request is timed against: a fresh interpreter that
# imports numpy and hashes, thresholds and tallies 65,536-element arrays,
# like moonbell but with none of its code. The machine's speed drifts by up
# to 40 % over minutes; the ratio of a request to the reference run just
# before it does not.
REFERENCE = """
import numpy as np
x = np.arange(1 << 16, dtype=np.uint64)
cuts = np.array([0.25, 0.5, 0.75])
for _ in range(80):
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    u = (z >> np.uint64(11)) * 2.0**-53
    np.bincount((u[:, None] >= cuts).sum(axis=1), minlength=4)
"""
# What the reference takes on the 2-vCPU Xeon VM these bounds were set on.
REFERENCE_NOMINAL_S = 0.4


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Outcome(NamedTuple):
    rc: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mib: float


def run_python(args: list[str], extra_env: dict[str, str] | None = None) -> Outcome:
    """Run the interpreter on the checkout's sources and wait until it has ended."""
    env = {k: v for k, v in os.environ.items() if k != "MOONBELL_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra_env or {})
    with (
        tempfile.TemporaryFile("w+", encoding="utf-8", dir=WORK_ROOT) as out,
        tempfile.TemporaryFile("w+", encoding="utf-8", dir=WORK_ROOT) as err,
    ):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than Popen.wait, for this child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss / 1024)


def run_cli(argv: tuple[str, ...], extra_env: dict[str, str] | None = None) -> Outcome:
    return run_python(["-m", "moonbell", *argv], extra_env)


def run_request(request: workloads.Request) -> list[Outcome]:
    outputs, previous = [], None
    for step in request.steps:
        outputs.append(run_cli(step.argv_after(previous)))
        previous = outputs[-1].stdout
    return outputs


def request_failure(request: workloads.Request, outputs: list[tuple]) -> str | None:
    for step, output in zip(request.steps, outputs):
        reason = verify.check_step(step, *output[:3])
        if reason is not None:
            return f"moonbell {' '.join(step.argv)}: {reason}"
    return None


def reference_seconds() -> float:
    reference = run_python(["-c", REFERENCE])
    if reference.rc != 0:
        raise SystemExit(f"reference process exited {reference.rc}: {reference.stderr[-300:]}")
    return reference.seconds


def set_up(name: str, seed: int, workdir: Path, sizes: workloads.Sizes) -> tuple[workloads.Workload, list[float]]:
    """Generate the inputs and warm up each subcommand, several times.

    Returns the workload and, per set-up, its seconds scaled to a machine
    on which the reference process, run just before it, takes
    REFERENCE_NOMINAL_S.
    """
    times = []
    for _ in range(sizes.setup_reps):
        scale = REFERENCE_NOMINAL_S / reference_seconds()
        start = time.perf_counter()
        workload = workloads.generate(name, seed, workdir, sizes, nproc())
        for argv, expect_rc in workload.warmups:
            outcome = run_cli(argv)
            if outcome.rc != expect_rc:
                raise SystemExit(f"set-up call moonbell {' '.join(argv)} exited {outcome.rc}: {outcome.stderr[-300:]}")
        times.append((time.perf_counter() - start) * scale)
    return workload, times


def repeat_failure(workload: workloads.Workload, first_stdout: str) -> str | None:
    """Re-run one step with the other worker count; its results must not change."""
    step, argv, env = workload.repeat
    csv_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    csv_before = csv_path.read_bytes() if csv_path else None
    rc, out, err = run_cli(argv, env)[:3]
    reason = verify.check_step(step, rc, out, err)
    if reason is not None:
        return f"worker-count repeat: {reason}"

    def results(text: str) -> dict:
        return {k: v for k, v in verify.parse_report(text, step.fmt).items() if k.startswith("results.")}

    try:
        if results(out) != results(first_stdout):
            return "worker-count repeat: results differ"
    except verify.CheckFailed as exc:
        return f"worker-count repeat: {exc}"
    if csv_path and csv_path.read_bytes() != csv_before:
        return "worker-count repeat: sweep CSV bytes differ"
    return None


def run_untraced(name: str, seed: int, seconds: float, workdir: Path, sizes: workloads.Sizes):
    workload, setup_times = set_up(name, seed, workdir, sizes)
    done = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        request = workload.requests[len(done) % len(workload.requests)]
        reference_s = reference_seconds()
        done.append((request, run_request(request), reference_s))

    failures = [request_failure(request, outputs) for request, outputs, _ in done]
    failures.append(repeat_failure(workload, done[0][1][0].stdout))
    failures = [f for f in failures if f is not None]
    walls = [sum(out.seconds for out in outputs) for _, outputs, _ in done]
    pairs = sum(request.pairs for request, _, _ in done)
    attempted = len(done) + 1
    notes = [
        f"requests: {len(done)} timed + 1 worker-count repeat, closed loop, one client",
        f"fail_ratio: {len(failures) / attempted}",
        f"wall_ms_p50: {statistics.median(walls) * 1e3}",
        f"reference_ms_p50: {statistics.median(ref for _, _, ref in done) * 1e3}",
        f"requests_per_s: {len(done) / sum(walls)} (of time spent in requests)",
    ]
    if len(done) >= 100:
        notes.append(f"wall_ms_p90: {statistics.quantiles(walls, n=10)[-1] * 1e3}")
    if pairs:
        notes.append(f"pairs_per_s: {pairs / sum(walls)}")
    values = {
        "wall_p50_vs_ref": statistics.median(wall / ref for wall, (_, _, ref) in zip(walls, done)),
        "peak_rss_mb": max(out.maxrss_mib for _, outputs, _ in done for out in outputs),
        "setup_s": statistics.median(setup_times),
    }
    return values, attempted, failures, notes


def import_moonbell() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"moonbell.{m}") for m in ("cli", "simulate", "claims")}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported moonbell from {modules['cli'].__file__}, not from {SRC}")
    return modules


def fresh_process_values(first_of: dict[str, tuple[str, ...]], sizes: workloads.Sizes) -> tuple[dict, list[str]]:
    """Interpreter start, and `-X importtime` figures for one argv per subcommand, from fresh processes."""
    startup = [run_python(["-c", "pass"]).seconds for _ in range(sizes.fresh_reps)]
    profiles, notes = [], []
    for command, argv in first_of.items():
        samples = []
        for _ in range(sizes.fresh_reps):
            outcome = run_python(["-X", "importtime", "-m", "moonbell", *argv])
            samples.append({**tracing.import_profile(outcome.stderr), "wall_ms": outcome.seconds * 1e3})
        profile = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
        profiles.append(profile)
        notes.append(f"importtime {command}: " + ", ".join(f"{k}={v:.6g}" for k, v in profile.items()))
    values = {
        "interp.startup_ms": statistics.median(startup) * 1e3,
        "import.total_ms": statistics.fmean(p["total_ms"] for p in profiles),
        "import.numpy_ms": statistics.fmean(p["numpy_ms"] for p in profiles),
        "import.modules": statistics.fmean(p["modules"] for p in profiles),
        "import.share": sum(p["total_ms"] for p in profiles) / sum(p["wall_ms"] for p in profiles),
    }
    return values, notes


def _replay_checked(main, requests: list[workloads.Request], passes: int, tracer=None):
    """Replay ``requests`` ``passes`` times in-process: pass seconds, failures, first outputs.

    The first pass's outputs are checked; every later pass must repeat
    them exactly.
    """
    seconds, failures, reference = [], [], None
    for _ in range(passes):
        start = time.perf_counter()
        outputs = tracing.replay(main, [r.steps for r in requests], tracer)
        seconds.append(time.perf_counter() - start)
        if reference is None:
            reference = outputs
            failures += [request_failure(r, o) for r, o in zip(requests, outputs)]
        else:
            failures += [None if o == r else "in-process output changed between passes"
                         for o, r in zip(outputs, reference)]
    return seconds, [f for f in failures if f is not None], reference


def run_traced(name: str, seed: int, seconds: float, workdir: Path, sizes: workloads.Sizes):
    workload = workloads.generate(name, seed, workdir, sizes, nproc())
    requests = workload.requests[: PASS_REQUESTS[name]]
    modules = import_moonbell()
    main = modules["cli"].main
    _, failures, reference = _replay_checked(main, requests, 1)

    first_of = {}
    for request, outputs in zip(requests, reference):
        previous = None
        for step, output in zip(request.steps, outputs):
            first_of.setdefault(step.command, step.argv_after(previous))
            previous = output[1]
    values, notes = fresh_process_values(first_of, sizes)
    untraced, traced, tracer = [], [], tracing.Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain_s, plain_failures, _ = _replay_checked(main, requests, 1)
        with tracing.installed(tracer, modules):
            traced_s, traced_failures, _ = _replay_checked(main, requests, 1, tracer)
        untraced += plain_s
        traced += traced_s
        failures += plain_failures + traced_failures
    failures.append(repeat_failure(workload, reference[0][0][1]))
    failures = [f for f in failures if f is not None]
    attempted = len(requests) * (1 + len(untraced) + len(traced)) + 1
    layer = tracing.layer_metrics(tracer)

    missing = [key for key, value in layer.items() if value is None]
    if missing:
        # A per-call figure for a call this workload never makes is measured
        # on a fixed probe pass, so it reads as a measurement, not as 0.
        probe = workloads.probe(workdir, nproc())
        probe_tracer = tracing.Tracer()
        _, probe_failures, _ = _replay_checked(main, probe, 1)
        with tracing.installed(probe_tracer, modules):
            _, traced_failures, _ = _replay_checked(main, probe, 2, probe_tracer)
        failures += probe_failures + traced_failures
        attempted += 3 * len(probe)
        probed = tracing.layer_metrics(probe_tracer)
        for key in missing:
            layer[key] = probed[key] if probed[key] is not None else 0.0
        notes.append("measured on the probe pass: " + ", ".join(missing))

    covered = layer["trace.coverage"]
    notes.append(
        f"uncovered: {1 - covered:.4f} of in-process request time (cmd_* glue: argument "
        "conversion, _scenario_summary, result dicts, sweep CSV text and file write, stdout write)"
    )
    notes.append(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, {len(requests)} requests each")
    values.update(layer)
    values["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    return values, attempted, failures, notes


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": _git_commit(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes = workloads.FULL):
    """One benchmark run: (result object, note lines)."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = run_traced if trace else run_untraced
        values, attempted, failures, notes = measure(name, seed, seconds, workdir, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    for reason in failures[:5]:
        print(f"failed: {reason}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, [json.dumps({"environment": environment()})] + notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "moonbell" / "__init__.py", verify.SCHEMA_PATH, SPEC_PATH) if not p.is_file()]
    if missing:
        print(f"error: not a moonbell checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
