"""Speed sweeps: one simulated point per speed of a grid, written as CSV.

Each point equals :func:`moonbell.simulate.simulate` at its own sub-seed,
:func:`moonbell.simulate.derive_seed` of the sweep's seed and the point's
index. Only the ``sweep`` command, whose handler lives here, loads this
module.
"""

from __future__ import annotations

import math

from .bounds import critical_speed
from .constants import record
from .simulate import CollapseModel, _cells, _check_pairs, _resolve_run, _sample, derive_seed

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from .bell import ChshSettings
    from .scenario import Scenario

# Most speeds one sweep may take; each costs a run and a CSV row.
MAX_POINTS = 100_000


@record
class SweepPoint:
    v_over_c: float
    s_hat: float
    stderr_s: float
    connected: bool


def sweep_speed(
    scenario: Scenario,
    fallback: str,
    settings: ChshSettings,
    v_grid: list[float],
    n_pairs_per_point: int,
    seed: int,
    depart_at_end: bool = False,
) -> tuple[SweepPoint, ...]:
    """One simulated point per grid speed, in grid order.

    Each point has its own sub-seed, from ``SeedSequence`` over (seed, point
    index), and equals :func:`~moonbell.simulate.simulate` at that sub-seed.  Before the first
    point, the sweep checks the grid, the first point's model and the pair
    count, and makes the threshold and both 16-cell tables once; each later
    point's model is checked when that point is reached.
    """
    grid = [float(v) for v in v_grid]
    if len(grid) == 0:
        raise ValueError("v_grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("v_grid must be strictly ascending")
    CollapseModel(v_over_c=grid[0], fallback=fallback, depart_at_end=depart_at_end)
    _check_pairs(n_pairs_per_point)
    v_star = critical_speed(scenario, depart_at_end)
    tables = {True: _cells(settings, "quantum"), False: _cells(settings, fallback)}
    points = []
    for i, v in enumerate(grid):
        model = CollapseModel(v_over_c=v, fallback=fallback, depart_at_end=depart_at_end)
        connected = model.v_over_c >= v_star
        _, _, _, s_hat, stderr = _sample(tables[connected], n_pairs_per_point, derive_seed(seed, i))
        points.append(SweepPoint(v, s_hat, stderr, connected))
    return tuple(points)


def _build_grid(v_min: float, v_max: float, points: int, spacing: str) -> list[float]:
    if points < 1:
        raise ValueError(f"--points must be >= 1, got {points}")
    if points > MAX_POINTS:
        raise ValueError(f"--points must be at most {MAX_POINTS}, got {points}")
    if not v_min > 0.0:
        raise ValueError(f"--v-min must be > 0, got {v_min!r}")
    if points == 1:
        return [v_min]
    for flag, v in (("--v-min", v_min), ("--v-max", v_max)):
        if not math.isfinite(v):
            raise ValueError(f"{flag} must be finite")
    if not v_max > v_min:
        raise ValueError(f"--v-max must exceed --v-min {v_min!r}, got {v_max!r}")
    if spacing == "log":
        lo, hi = math.log10(v_min), math.log10(v_max)
        grid = [10.0 ** (lo + (hi - lo) * i / (points - 1)) for i in range(points)]
    else:
        grid = [v_min + (v_max - v_min) * i / (points - 1) for i in range(points)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"--points {points} is too many for --v-min {v_min!r} to --v-max {v_max!r}: "
            f"the {spacing} grid repeats a speed"
        )
    return grid


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, dict]:
    scenario, settings, inputs = _resolve_run(args)
    grid = _build_grid(args.v_min, args.v_max, args.points, args.spacing)
    points = sweep_speed(
        scenario,
        fallback=args.fallback,
        settings=settings,
        v_grid=grid,
        n_pairs_per_point=args.pairs,
        seed=args.seed,
        depart_at_end=args.depart_at_end,
    )
    # Full-precision floats, so the file is byte-stable for fixed inputs.
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("v_over_c,S_hat,stderr_S,n_pairs,fraction_connected\n")
        for p in points:
            fh.write(f"{p.v_over_c!r},{p.s_hat!r},{p.stderr_s!r},{args.pairs},{float(p.connected)!r}\n")
    # The verdict is monotone in v, so these are the last disconnected and
    # the first connected grid speeds; None when the grid is one-sided.
    below = max((p.v_over_c for p in points if not p.connected), default=None)
    above = min((p.v_over_c for p in points if p.connected), default=None)
    v_star = critical_speed(scenario, args.depart_at_end)
    inputs.update(
        v_min=args.v_min,
        v_max=args.v_max,
        points=args.points,
        spacing=args.spacing,
        n_pairs_per_point=args.pairs,
        out=args.out,
    )
    return inputs, {
        "csv_path": args.out,
        "rows": len(points),
        "critical_v_over_c": v_star,
        "transition_bracket": {"below": below, "above": above},
        "bracket_contains_critical": (below is None or below < v_star) and (above is None or v_star <= above),
    }
