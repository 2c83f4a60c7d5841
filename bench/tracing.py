"""In-process replay of CLI requests with spans recorded from outside moonbell.

The package is not instrumented. Instead, the names ``moonbell.cli`` calls
are rebound to timing wrappers for the length of a traced pass, together
with ``moonbell.claims.all_claims`` and the module-level ``simulate`` of
``moonbell.simulate`` (so each sweep point gets a child span). Spans stay in
memory; the run turns them into per-layer metrics when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(eq=False)
class Span:
    name: str
    request: int
    parent: Span | None
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_ns: list[int] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``note(args, kwargs, result)`` fills span.info."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._open[-1] if self._open else None
            span = Span(name, len(self.request_ns), parent, time.perf_counter_ns())
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._open.pop()
                if parent is not None:
                    parent.child_ns += span.ns
                self.spans.append(span)
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced


def _simulate_note(signature: inspect.Signature) -> Callable:
    def note(args: tuple, kwargs: dict, result: Any) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n_pairs, workers = bound.arguments["n_pairs"], bound.arguments["workers"]
        # Computed, not observed: simulate() starts a process pool exactly
        # when it has more than one 65,536-pair block and workers > 1.
        pooled = workers > 1 and n_pairs > 65_536
        return {"pairs": n_pairs, "pooled": pooled, "records": len(result.records)}

    return note


def _render_note(args: tuple, kwargs: dict, result: str) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


@contextlib.contextmanager
def installed(tracer: Tracer, moonbell_modules: dict[str, Any]):
    """Rebind the traced names for the duration of the block."""
    cli = moonbell_modules["cli"]
    simulate_module = moonbell_modules["simulate"]
    claims = moonbell_modules["claims"]

    def parser_note(args: tuple, kwargs: dict, parser: Any) -> dict:
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return {}

    sim_note = _simulate_note(inspect.signature(simulate_module.simulate))
    targets = [
        (cli, "build_parser", "cli.build_parser", parser_note),
        (cli, "resolve_scenario", "scenario.resolve_scenario", None),
        (cli, "load_scenario_file", "scenario.load_scenario_file", None),
        (cli, "preset", "scenario.preset", None),
        (cli, "speed_bound", "bounds.speed_bound", None),
        (cli, "apriori_scales", "bounds.apriori_scales", None),
        (cli, "make_report", "cli.make_report", None),
        (cli, "claims_as_dicts", "claims.claims_as_dicts", None),
        (claims, "all_claims", "claims.all_claims", None),
        (cli, "render_report", "cli.render_report", _render_note),
        (cli, "budget_report", "linkbudget.budget_report", None),
        (cli, "simulate", "simulate.simulate", sim_note),
        (simulate_module, "simulate", "simulate.simulate", sim_note),
        (cli, "sweep_speed", "simulate.sweep_speed", None),
        (cli, "critical_speed", "simulate.critical_speed", None),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    for module, attr, name, note in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), note))
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def replay(main: Callable, requests: list[tuple], tracer: Tracer | None = None) -> list:
    """Run each request's steps through ``main``; per request, [(exit code, stdout, stderr)].

    A step is anything with ``argv_after(previous_stdout)``.
    """
    results = []
    for steps in requests:
        outputs, previous = [], None
        start = time.perf_counter_ns()
        for step in steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(list(step.argv_after(previous)))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            previous = out.getvalue()
            outputs.append((rc, previous, err.getvalue()))
        if tracer is not None:
            tracer.request_ns.append(time.perf_counter_ns() - start)
        results.append(outputs)
    return results


def _mean(values: list[float]) -> float | None:
    return statistics.fmean(values) if values else None


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer figures of the traced requests; None where a figure has no sample.

    ``*_us`` figures are means per call unless the name says otherwise;
    counts are per request.
    """
    requests = len(tracer.request_ns)
    spans = tracer.spans

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def per_request(total: float) -> float:
        return total / requests

    scenario = [
        s for s in spans if s.layer == "scenario" and (s.parent is None or s.parent.layer != "scenario")
    ]
    sims = named("simulate.simulate")
    in_sweep = [s.parent is not None and s.parent.name == "simulate.sweep_speed" for s in sims]
    points = [s for s, inside in zip(sims, in_sweep) if inside]
    top_sims = [s for s, inside in zip(sims, in_sweep) if not inside]
    pooled = [s for s in sims if s.info.get("pooled")]
    pairs = sum(s.info.get("pairs", 0) for s in sims)
    covered = sum(s.ns for s in spans if s.parent is None)
    return {
        "cli.parse_us": per_request(sum(s.ns for s in named("cli.build_parser", "cli.parse_args")) / 1e3),
        "cli.report_us": per_request(sum(s.self_ns for s in named("cli.make_report")) / 1e3),
        "cli.render_us": per_request(sum(s.ns for s in named("cli.render_report")) / 1e3),
        "cli.render_bytes": per_request(sum(s.info.get("bytes", 0) for s in named("cli.render_report"))),
        "scenario.resolve_us": _mean([s.ns / 1e3 for s in scenario]),
        "scenario.calls": per_request(len(scenario)),
        "scenario.rejected": per_request(sum(s.failed for s in scenario)),
        "bounds.speed_bound_us": _mean([s.ns / 1e3 for s in named("bounds.speed_bound")]),
        "bounds.calls": per_request(len(named("bounds.speed_bound"))),
        "claims.ledger_us": _mean([s.ns / 1e3 for s in named("claims.claims_as_dicts")]),
        "claims.builds_per_request": per_request(len(named("claims.all_claims"))),
        "linkbudget.report_us": _mean([s.ns / 1e3 for s in named("linkbudget.budget_report")]),
        "simulate.call_us": _mean([s.ns / 1e3 for s in top_sims]),
        "simulate.ns_per_pair": sum(s.ns for s in sims) / pairs if pairs else None,
        "simulate.calls": per_request(len(sims)),
        "simulate.pairs": per_request(pairs),
        "simulate.sweep_point_us": _mean([s.ns / 1e3 for s in points]),
        "simulate.pool_starts": per_request(len(pooled)),
        "simulate.pairs_per_pool_start": (
            sum(s.info["pairs"] for s in pooled) / len(pooled) if pooled else None
        ),
        "simulate.trace_records": per_request(sum(s.info.get("records", 0) for s in sims)),
        "simulate.timing_us": _mean([s.ns / 1e3 for s in named("simulate.critical_speed")]),
        "trace.coverage": covered / sum(tracer.request_ns),
    }


def import_profile(stderr: str) -> dict[str, float]:
    """Totals of a ``python -X importtime`` log: all modules, numpy, module count."""
    total_us = numpy_us = modules = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:") :].split("|")
        total_us += int(self_us)
        modules += 1
        if name.strip() == "numpy":
            numpy_us = int(cumulative_us)
    return {"total_ms": total_us / 1e3, "numpy_ms": numpy_us / 1e3, "modules": modules}
