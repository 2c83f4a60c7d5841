"""Quick self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced with tiny inputs, and checks that
each run emits exactly the metrics BENCHMARK.json names, as finite numbers,
with no failed request. Then it corrupts reports inside the verifier
(moonbell itself is untouched) and checks that every request is counted as
failed. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import sys

import run
import verify
import workloads

TINY = workloads.Sizes(
    cli_requests=10,
    sim_requests=2,
    sim_pairs=100_000,
    sweep_points=4,
    sweep_pairs=70_000,
    trace_pairs=20_000,
    trace_records=5,
    setup_reps=1,
    fresh_reps=1,
)
SECONDS = 0.5


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def _perturb_results(parse):
    """A parse_report that moves every float under results by one part in a million."""

    def perturbed(text: str, fmt: str) -> dict:
        return {
            key: value * (1.0 + 1e-6) if key.startswith("results.") and type(value) is float else value
            for key, value in parse(text, fmt).items()
        }

    return perturbed


def _add_top_level_key(parse):
    """A parse_report that sees one key more than the schema allows."""

    def extended(text: str, fmt: str) -> dict:
        return parse(text.replace("{", '{"unexpected": 1, ', 1), fmt)

    return extended


def corrupted_run(workload: str, corrupt) -> dict:
    original = verify.parse_report
    verify.parse_report = corrupt(original)
    try:
        result, _ = run.run(workload, 7, SECONDS, False, TINY)
    finally:
        verify.parse_report = original
    return result


def main() -> int:
    spec = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        names = [m["name"] for m in spec[section]]
        for workload in workloads.WORKLOADS:
            result, _ = run.run(workload, 7, SECONDS, trace, TINY)
            label = f"{workload} trace={int(trace)}"
            expect(list(result["metrics"]) == names, f"{label} emitted {list(result['metrics'])}")
            expect(result["correct"] and result["failed"] == 0, f"{label} failed {result['failed']} requests")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value), f"{label} {name} = {value!r}")
            print(f"ok  {label}: {len(names)} metrics, {result['attempted']} requests checked")

    print("corrupting reports inside the verifier; the failures printed next are expected", file=sys.stderr)
    for workload, corrupt in (("cli_quick", _perturb_results), ("simulate_large", _add_top_level_key)):
        result = corrupted_run(workload, corrupt)
        expect(
            not result["correct"] and result["failed"] == result["attempted"],
            f"{corrupt.__name__} on {workload}: {result['failed']} of {result['attempted']} failed",
        )
        print(f"ok  {corrupt.__name__} on {workload}: all {result['attempted']} requests failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
