"""Monte Carlo of entangled pairs under a finite-speed collapse model.

A run is "connected", and samples quantum statistics, exactly when
v_over_c >= :func:`moonbell.bounds.critical_speed`, the event model over the
run's femtosecond timeline; otherwise a fallback model (uncorrelated or
local-hidden-variable) supplies the outcomes.

A run is thus n independent draws from one fixed 16-cell table (setting
combination times joint outcome), and its tallies are a single multinomial
draw.  Randomness comes from numpy's counter-based Philox stream keyed by
the seed (sweep sub-seeds via ``SeedSequence``), drawn through the pure-Python
port in :mod:`moonbell.philox`, so results are a pure function of the seed,
equal to numpy's own draws, and no command imports numpy; the worker count
changes neither the output nor the process count.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .bell import CHSH_SIGNS, FALLBACKS, OUTCOMES, ChshSettings, outcome_probabilities
from .bounds import critical_speed
from .constants import checked
from .philox import Philox, choice, multinomial, seed_state
from .scenario import Scenario

# Seeds are taken modulo 2^64, so negative and oversized seeds still run.
_SEED_MASK = (1 << 64) - 1

# Most pairs one run may trace; each traced pair is drawn and kept one by one.
MAX_TRACE = 100_000


@checked
class CollapseModel(NamedTuple):
    """Finite influence speed plus the statistics of disconnected pairs.

    ``depart_at_end`` switches the influence departure from the start of
    the first measurement to its completion (a stricter variant; default
    off).
    """

    v_over_c: float
    fallback: str = "uncorrelated"
    depart_at_end: bool = False

    def _checked(self) -> CollapseModel:
        if not self.v_over_c > 0.0:
            raise ValueError(f"v_over_c (--v-over-c) must be > 0 (inf for instantaneous), got {self.v_over_c!r}")
        if self.fallback not in FALLBACKS:
            raise ValueError(f"fallback must be one of {FALLBACKS}")
        return self


class PairRecord(NamedTuple):
    """One traced pair; its timeline is :func:`moonbell.bounds.scenario_timing`."""

    settings: tuple[float, float]
    outcomes: tuple[int, int]


class SimulationResult(NamedTuple):
    """One run: every pair shares the scenario's one timeline, hence ``connected``.

    ``e_hat``/``counts`` follow the setting order (a,b), (a,b'), (a',b),
    (a',b'); ``s_hat`` is their Bell combination and ``stderr_s`` is
    sqrt(sum (1 - E^2)/n) over the four settings.  ``records`` repeats one
    record object per cell for every traced pair of that cell.
    """

    e_hat: tuple[float, float, float, float]
    counts: tuple[int, int, int, int]
    s_hat: float
    stderr_s: float
    connected: bool
    records: tuple[PairRecord, ...] = ()


class SweepPoint(NamedTuple):
    v_over_c: float
    s_hat: float
    stderr_s: float
    connected: bool


def derive_seed(seed: int, index: int) -> int:
    """Stable sub-seed for sweep point ``index``."""
    return seed_state([seed & _SEED_MASK, index], 1)[0]


def _check_pairs(n_pairs: int) -> None:
    if n_pairs < 4:
        raise ValueError(f"n_pairs (-n/--pairs) must be at least 4, got {n_pairs}")
    if n_pairs > 2**63 - 1:  # the multinomial counts in int64, as numpy's does
        raise ValueError(f"n_pairs (-n/--pairs) must be at most 2**63 - 1, got {n_pairs}")


def _cells(settings: ChshSettings, row_model: str) -> list[float]:
    """The 16-cell table: cell 4*s + o is setting combination s (probability
    1/4) with outcome o under ``row_model``."""
    return [x / 4.0 for a, b in settings.pairs() for x in outcome_probabilities(row_model, a, b)]


def _run_table(
    scenario: Scenario, fallback: str, settings: ChshSettings, depart_at_end: bool
) -> Callable[[float], tuple[bool, list[float]]]:
    """For runs of ``scenario`` under ``fallback`` and ``settings``: a map from
    a speed to the run's verdict (connected or not) and its 16-cell table.
    The threshold and both tables are made once, here."""
    v_star = critical_speed(scenario, depart_at_end)
    tables = {True: _cells(settings, "quantum"), False: _cells(settings, fallback)}

    def table(v_over_c: float) -> tuple[bool, list[float]]:
        connected = v_over_c >= v_star
        return connected, tables[connected]

    return table


def _sample(
    p: list[float], n_pairs: int, seed: int, n_rec: int = 0
) -> tuple[list[int], tuple[float, ...], tuple[int, ...], float, float]:
    """One run of ``n_pairs`` draws from table ``p`` keyed by ``seed``: the
    cells of the first ``n_rec`` pairs, then ``e_hat``, ``counts``, ``s_hat``
    and ``stderr_s`` over all pairs."""
    bitgen = Philox(seed & _SEED_MASK)
    # Drawing no traced pair reads no word, so an untraced run skips choice.
    traced = choice(bitgen, p, n_rec) if n_rec else []
    tally = multinomial(bitgen, n_pairs - n_rec, p)
    for cell in traced:
        tally[cell] += 1

    # The same floats as numpy's int64 tallies: each division is float / float,
    # and the variance sum adds from 0.0 in setting order.
    rows = [tally[4 * s : 4 * s + 4] for s in range(4)]
    counts = tuple(sum(row) for row in rows)
    prod_sums = [sum(k * a * b for k, (a, b) in zip(row, OUTCOMES)) for row in rows]
    e_hat = tuple(float(ps) / float(count) if count else math.nan for ps, count in zip(prod_sums, counts))
    s_hat = 0.0
    for sign, e in zip(CHSH_SIGNS, e_hat):
        s_hat += sign * e
    var = 0.0
    for e, count in zip(e_hat, counts):
        var += (1.0 - e * e) / count if count else math.nan
    return traced, e_hat, counts, s_hat, math.sqrt(var)


def simulate(
    scenario: Scenario,
    model: CollapseModel,
    settings: ChshSettings,
    n_pairs: int,
    seed: int,
    workers: int = 1,
    trace_limit: int = 0,
) -> SimulationResult:
    """Monte Carlo estimate of the Bell combination for one configuration.

    Each pair is assigned one of the four setting combinations uniformly at
    random and sampled from the quantum joint distribution when the timing
    connects the measurements, else from the fallback.  The first
    ``trace_limit`` pairs (at most :data:`MAX_TRACE`) are drawn one by one
    and kept as records; the rest are tallied in one multinomial draw, and
    both count towards the estimate; traced pairs of one cell share one
    :class:`PairRecord` object.  Results are a pure function of (scenario, model,
    settings, n_pairs, seed, trace_limit) through a Philox stream keyed by
    ``seed``; ``workers`` is validated for compatibility and starts no process.

    A setting combination that draws no pair (likely only for small
    ``n_pairs``) has no correlation estimate: its ``e_hat`` entry is nan,
    so ``s_hat`` and ``stderr_s`` are nan too.  This is a result, not an
    error; the CLI prints the values as ``"nan"`` and exits 0.
    """
    _check_pairs(n_pairs)
    if trace_limit < 0:
        raise ValueError(f"trace_limit (--trace) must be >= 0, got {trace_limit}")
    if min(trace_limit, n_pairs) > MAX_TRACE:
        raise ValueError(f"trace_limit (--trace) must be at most {MAX_TRACE}, got {trace_limit}")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    is_connected, p = _run_table(scenario, model.fallback, settings, model.depart_at_end)(model.v_over_c)
    n_rec = min(trace_limit, n_pairs)
    traced, e_hat, counts, s_hat, stderr = _sample(p, n_pairs, seed, n_rec)

    # A traced pair is its cell, so each cell's record is built once and shared.
    angle_pairs = settings.pairs()
    cell_records = [PairRecord(angle_pairs[c // 4], OUTCOMES[c % 4]) for c in range(16)] if n_rec else []
    return SimulationResult(
        e_hat=e_hat,
        counts=counts,
        s_hat=s_hat,
        stderr_s=stderr,
        connected=is_connected,
        records=tuple(map(cell_records.__getitem__, traced)),
    )


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
    index), and equals :func:`simulate` at that sub-seed.  The threshold and
    both 16-cell tables are made once per sweep, after the first point's
    model and sub-seed, where :func:`simulate` would check and make them.
    """
    grid = [float(v) for v in v_grid]
    if len(grid) == 0:
        raise ValueError("v_grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("v_grid must be strictly ascending")
    points = []
    for i, v in enumerate(grid):
        model = CollapseModel(v_over_c=v, fallback=fallback, depart_at_end=depart_at_end)
        sub_seed = derive_seed(seed, i)
        if i == 0:
            _check_pairs(n_pairs_per_point)
            table = _run_table(scenario, fallback, settings, depart_at_end)
        connected, p = table(model.v_over_c)
        _, _, _, s_hat, stderr = _sample(p, n_pairs_per_point, sub_seed)
        points.append(SweepPoint(v, s_hat, stderr, connected))
    return tuple(points)
