"""Seeded inputs for the moonbell benchmark.

A workload is a list of requests. A request is one or more CLI steps, and a
step is the argv moonbell receives, the exit code it must give and the check
its output must pass. Everything here is a function of (workload, seed,
sizes): the same seed writes the same scenario files and the same argv.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import verify

C = verify.C
DEFAULT_TAU_S = 5e-12
D_MOON = verify.D_EARTH_MOON
LOCAL_ARM_M = 5e-4
_CAO_Y = math.sqrt(700e3**2 - 601.5e3**2)

# Arm lengths of the built-in presets, m, from their geometry: source,
# optional mirror, detector. All presets use the 5 ps default tau.
PRESET_ARMS = {
    "gisin1999": (5300.0, 5300.0),
    "cao2017": (
        math.dist((0.0, _CAO_Y, 0.0), (-601.5e3, 0.0, 0.0)),
        math.dist((0.0, _CAO_Y, 0.0), (601.5e3, 0.0, 0.0)),
    ),
    "earth_moon_case1": (LOCAL_ARM_M, D_MOON),
    "earth_moon_case2": (LOCAL_ARM_M, 2.0 * D_MOON),
    "earth_moon_case3": (LOCAL_ARM_M, D_MOON),
    "lagrange_l4l5": (20.0 * D_MOON, 20.0 * D_MOON),
    "mars": (LOCAL_ARM_M, 2.25e11),
}
PRESETS = tuple(PRESET_ARMS)
FORMATS = ("json", "csv", "text")
INVALID_KINDS = ("unknown_field", "zero_segment", "negative_tau", "endpoint_mismatch")
_DURATION_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "s": 1.0}
_LENGTH_UNITS = {"km": 1e3, "m": 1.0}
# Stands for the first connected speed that the previous (sweep) step found.
TRANSITION = "<transition>"


@dataclass(frozen=True)
class Sizes:
    """How much work one request and one run do."""

    cli_requests: int = 1000
    sim_requests: int = 200
    sim_pairs: int = 10_000_000
    sweep_points: int = 40
    sweep_pairs: int = 100_000
    trace_pairs: int = 100_000
    trace_records: int = 1000
    setup_reps: int = 5
    fresh_reps: int = 5


FULL = Sizes()


@dataclass(frozen=True)
class Step:
    """One CLI call. ``check is None`` marks an input moonbell must reject (exit 2)."""

    argv: tuple[str, ...]
    check: Callable[[dict], None] | None
    fmt: str = "json"

    @property
    def expect_rc(self) -> int:
        return 2 if self.check is None else 0

    @property
    def command(self) -> str:
        return self.argv[0]

    def argv_after(self, previous_stdout: str | None) -> tuple[str, ...]:
        """The argv, with TRANSITION taken from the previous step's JSON report."""
        if TRANSITION not in self.argv:
            return self.argv
        try:
            above = json.loads(previous_stdout)["results"]["transition_bracket"]["above"]
        except (TypeError, ValueError, KeyError):
            return self.argv  # moonbell rejects the placeholder, so the step fails
        return tuple(repr(above) if arg == TRANSITION else arg for arg in self.argv)


@dataclass(frozen=True)
class Request:
    steps: tuple[Step, ...]
    pairs: int = 0


@dataclass(frozen=True)
class Workload:
    requests: list[Request]
    # Untimed set-up calls, one per subcommand: (argv, expected exit code).
    warmups: list[tuple[tuple[str, ...], int]]
    # A step re-run untimed with the other worker count: the step, the
    # variant argv and extra environment. Its results must not change.
    repeat: tuple[Step, tuple[str, ...], dict[str, str]]


def critical_speed(lengths: tuple[float, float], equalize: bool) -> tuple[float, float]:
    """Slowest influence speed, in c, that still connects the two measurements,
    and the relative precision to which moonbell can state it.

    The influence leaves the arm whose measurement starts first and must
    cover both arms before the other measurement ends. moonbell rounds each
    event time to a whole femtosecond from a float, so its window is known
    only to a few float steps at the latest event time: 128 fs for the
    750 s Mars light time, against a 5 ps window once starts are equalized.
    """
    starts = [length / C for length in lengths]
    if equalize:
        starts = [max(starts)] * 2
    first = 0 if starts[0] <= starts[1] else 1
    window = starts[1 - first] + DEFAULT_TAU_S - starts[first]
    slack_fs = 4.0 * (math.ulp(max(starts) * 1e15) + 1.0)
    return (lengths[0] + lengths[1]) / (C * window), slack_fs / (window * 1e15)


def log_grid(v_min: float, v_max: float, points: int) -> list[float]:
    """The grid `moonbell sweep --spacing log` builds."""
    lo, hi = math.log10(v_min), math.log10(v_max)
    return [10.0 ** (lo + (hi - lo) * i / (points - 1)) for i in range(points)]


def _with_option(argv: tuple[str, ...], option: str, value: str) -> tuple[str, ...]:
    i = argv.index(option)
    return argv[: i + 1] + (value,) + argv[i + 2 :]


def _quantity(rng: random.Random, value: float, units: dict[str, float]) -> tuple[str, float]:
    """Text for ``value`` in a random unit, and the number the CLI reads back."""
    unit = rng.choice(list(units))
    text = repr(value / units[unit])
    return text + unit, float(text) * units[unit]


def _point(rng: random.Random) -> list[float]:
    scale = 10.0 ** rng.uniform(3.0, 9.0)
    return [rng.uniform(-1.0, 1.0) * scale for _ in range(3)]


def _path_length(path: list[list[float]]) -> float:
    return sum(math.dist(p, q) for p, q in zip(path, path[1:]))


def write_scenario(rng: random.Random, path: Path, invalid: str | None = None) -> dict:
    """Write a random two-arm scenario with 0-3 mirrors per arm.

    Returns the arm lengths and taus a valid file implies. ``invalid`` names
    one defect from INVALID_KINDS to plant instead.
    """
    source = _point(rng)
    arms = []
    for i in (0, 1):
        vertices = [source] + [_point(rng) for _ in range(rng.randint(0, 3))] + [_point(rng)]
        arm = {
            "detector": {"name": f"detector_{i}", "position": vertices[-1]},
            "path": vertices,
            "tau_s": 10.0 ** rng.uniform(-13.0, -10.0),
        }
        if rng.random() < 0.5:
            arm["offset_s"] = 10.0 ** rng.uniform(-12.0, -9.0)
        arms.append(arm)
    document = {"name": f"generated_{path.stem}", "source": {"name": "source", "position": source}, "arms": arms}
    spoiled = arms[rng.randrange(2)]
    if invalid == "unknown_field":
        spoiled["colour"] = "red"
    elif invalid == "zero_segment":
        j = rng.randrange(len(spoiled["path"]))
        spoiled["path"].insert(j, list(spoiled["path"][j]))
    elif invalid == "negative_tau":
        spoiled["tau_s"] = -spoiled["tau_s"]
    elif invalid == "endpoint_mismatch":
        spoiled["detector"]["position"] = [x + 1.0 for x in spoiled["detector"]["position"]]
    path.write_text(json.dumps(document), encoding="utf-8")
    return {
        "lengths": tuple(_path_length(a["path"]) for a in arms),
        "taus": tuple(a["tau_s"] for a in arms),
    }


_L_GISIN = PRESET_ARMS["gisin1999"][0]
_L_CAO = max(PRESET_ARMS["cao2017"])


def _bound_step(rng: random.Random, workdir: Path, index: int | str, fmt: str) -> Step:
    if rng.random() < 0.6:
        target = rng.choice(PRESETS)
        l_max, tau = max(PRESET_ARMS[target]), DEFAULT_TAU_S
    else:
        path = workdir / f"bound_{index}.json"
        facts = write_scenario(rng, path)
        target, l_max, tau = str(path), max(facts["lengths"]), max(facts["taus"])
    argv = ("bound", target, "--format", fmt)
    if rng.random() < 0.5:
        text, tau = _quantity(rng, 10.0 ** rng.uniform(-13.0, -9.0), _DURATION_UNITS)
        argv += ("--tau", text)
    check = functools.partial(verify.check_bound, l_max=l_max, tau=tau, l_gisin=_L_GISIN, l_cao=_L_CAO)
    return Step(argv, check, fmt)


def _presets_step(rng: random.Random, workdir: Path, index: int | str, fmt: str) -> Step:
    return Step(("presets", "--format", fmt), functools.partial(verify.check_presets, arms=PRESET_ARMS), fmt)


def _linkbudget_step(rng: random.Random, workdir: Path, index: int | str, fmt: str) -> Step:
    ref_text, ref = _quantity(rng, 10.0 ** rng.uniform(4.0, 6.0), _LENGTH_UNITS)
    # Arms at least 2% longer than the reference: shorter arms are rejected.
    a_text, length_a = _quantity(rng, ref * 10.0 ** rng.uniform(0.01, 4.0), _LENGTH_UNITS)
    b_text, length_b = _quantity(rng, ref * 10.0 ** rng.uniform(0.01, 4.0), _LENGTH_UNITS)
    values = {
        "ref_loss_db": rng.uniform(0.0, 30.0),
        "eff_a": rng.uniform(0.2, 1.0),
        "eff_b": rng.uniform(0.2, 1.0),
        "pair_rate": 10.0 ** rng.uniform(3.0, 9.0),
        "k_sigma": rng.choice((2.0, 3.0, 5.0)),
    }
    argv = ("linkbudget", "--length-a", a_text, "--length-b", b_text, "--ref-length", ref_text)
    for name, value in values.items():
        argv += ("--" + name.replace("_", "-"), repr(value))
    argv += ("--format", fmt)
    check = functools.partial(
        verify.check_linkbudget, length_a=length_a, length_b=length_b, ref_length=ref, **values
    )
    return Step(argv, check, fmt)


def _scales_step(rng: random.Random, workdir: Path, index: int | str, fmt: str) -> Step:
    argv: tuple[str, ...] = ("scales", "--format", fmt)
    n_values = [-1, 0, 1]
    if rng.random() < 0.8:
        n_values = rng.sample(range(-3, 4), rng.randint(1, 4))
        # One token, since a leading '-' would read as an option.
        argv += ("--n-values=" + ",".join(map(str, n_values)),)
    return Step(argv, functools.partial(verify.check_scales, n_values=n_values), fmt)


def _validate_step(rng: random.Random, workdir: Path, index: int | str, fmt: str) -> Step:
    path = workdir / f"validate_{index}.json"
    # Every tenth validate request gets a file with one planted defect.
    invalid = rng.choice(INVALID_KINDS) if (index + 1) % (10 * len(CLI_CYCLE)) == 0 else None
    facts = write_scenario(rng, path, invalid)
    argv = ("validate", str(path), "--format", fmt)
    if invalid:
        return Step(argv, None, fmt)
    return Step(argv, functools.partial(verify.check_validate, path=str(path), **facts), fmt)


_CLI_BUILDERS = {
    "bound": _bound_step,
    "presets": _presets_step,
    "linkbudget": _linkbudget_step,
    "scales": _scales_step,
    "validate": _validate_step,
}
CLI_CYCLE = tuple(_CLI_BUILDERS)


def cli_quick(rng: random.Random, workdir: Path, sizes: Sizes, nproc: int) -> Workload:
    requests = []
    for i in range(sizes.cli_requests):
        step = _CLI_BUILDERS[CLI_CYCLE[i % len(CLI_CYCLE)]](rng, workdir, i, rng.choice(FORMATS))
        requests.append(Request((step,)))
    warmups = [(r.steps[0].argv, r.steps[0].expect_rc) for r in requests[: len(CLI_CYCLE)]]
    first = requests[0].steps[0]
    return Workload(requests, warmups, (first, first.argv, {"MOONBELL_WORKERS": str(min(2, nproc))}))


@dataclass(frozen=True)
class SimScenario:
    name: str
    equalize: bool
    fallback: str
    v_star: float
    v_rel: float

    @property
    def flags(self) -> tuple[str, ...]:
        flags = (self.name, "--fallback", self.fallback)
        return flags + ("--equalize-starts",) if self.equalize else flags


def _sim_scenario(rng: random.Random) -> SimScenario:
    name = rng.choice(PRESETS)
    equalize = rng.random() < 0.5
    fallback = rng.choice(("uncorrelated", "lhv"))
    return SimScenario(name, equalize, fallback, *critical_speed(PRESET_ARMS[name], equalize))


def _simulate_step(sim: SimScenario, v: str, n: int, seed: int, trace: int = 0) -> Step:
    argv = ("simulate", *sim.flags, "-n", str(n), "--v-over-c", v, "--seed", str(seed))
    argv += ("--trace", str(trace)) if trace else ()
    check = functools.partial(
        verify.check_simulate, n_pairs=n, v_star=sim.v_star, v_rel=sim.v_rel,
        fallback=sim.fallback, trace=trace,
    )
    return Step(argv, check)


def simulate_large(rng: random.Random, workdir: Path, sizes: Sizes, nproc: int) -> Workload:
    requests = []
    for _ in range(sizes.sim_requests):
        sim = _sim_scenario(rng)
        # At least 2x away from the threshold, on a random side of it.
        v = sim.v_star * 10.0 ** (rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0))
        step = _simulate_step(sim, repr(v), sizes.sim_pairs, rng.randrange(2**31))
        requests.append(Request((step,), sizes.sim_pairs))
    first = requests[0].steps[0]
    warmups = [(_with_option(first.argv, "-n", "10000"), 0)]
    return Workload(requests, warmups, (first, first.argv + ("--workers", str(min(2, nproc))), {}))


def sweep_step(
    sim: SimScenario, v_range: tuple[float, float], points: int, n: int, workers: int, seed: int, out: Path
) -> Step:
    argv = (
        "sweep", *sim.flags, "--v-min", repr(v_range[0]), "--v-max", repr(v_range[1]),
        "--points", str(points), "-n", str(n), "--workers", str(workers), "--seed", str(seed),
        "--out", str(out),
    )
    check = functools.partial(
        verify.check_sweep, csv_path=str(out), grid=log_grid(*v_range, points), v_star=sim.v_star,
        v_rel=sim.v_rel, fallback=sim.fallback, n_pairs=n,
    )
    return Step(argv, check)


def sweep_study(rng: random.Random, workdir: Path, sizes: Sizes, nproc: int) -> Workload:
    """Studies modelled on demos/03: a sweep around v*, then a traced run at the transition found."""
    workers = min(2, nproc)
    requests = []
    for i in range(sizes.sim_requests):
        sim = _sim_scenario(rng)
        # Half a decade or more on each side, far beyond the threshold's precision.
        v_range = (sim.v_star * 10.0 ** -rng.uniform(0.5, 1.5), sim.v_star * 10.0 ** rng.uniform(0.5, 1.5))
        sweep = sweep_step(
            sim, v_range, sizes.sweep_points, sizes.sweep_pairs, workers, rng.randrange(2**31),
            workdir / f"sweep_{i}.csv",
        )
        traced = _simulate_step(sim, TRANSITION, sizes.trace_pairs, rng.randrange(2**31), sizes.trace_records)
        pairs = sizes.sweep_points * sizes.sweep_pairs + sizes.trace_pairs
        requests.append(Request((sweep, traced), pairs))
    sweep, traced = requests[0].steps
    warmups = [
        (_with_option(sweep.argv, "-n", "1000"), 0),
        (_with_option(_with_option(traced.argv, "-n", "1000"), "--v-over-c", "inf"), 0),
    ]
    return Workload(requests, warmups, (sweep, _with_option(sweep.argv, "--workers", "1"), {}))


def probe(workdir: Path, nproc: int) -> list[Request]:
    """Fixed small requests that reach every layer, for the traced run."""
    rng = random.Random("probe")
    sim = SimScenario("gisin1999", False, "lhv", *critical_speed(PRESET_ARMS["gisin1999"], False))
    # 70,000 pairs is just over one 65,536-pair block, so two workers start a pool.
    sweep = sweep_step(
        sim, (sim.v_star / 10.0, sim.v_star * 30.0), 3, 70_000, min(2, nproc), 1, workdir / "probe.csv"
    )
    return [
        Request((_bound_step(rng, workdir, "probe", "json"),)),
        Request((_linkbudget_step(rng, workdir, "probe", "json"),)),
        Request((sweep, _simulate_step(sim, TRANSITION, 70_000, 2, trace=10))),
    ]


WORKLOADS = {"cli_quick": cli_quick, "simulate_large": simulate_large, "sweep_study": sweep_study}


def generate(workload: str, seed: int, workdir: Path, sizes: Sizes, nproc: int) -> Workload:
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, workdir, sizes, nproc)
