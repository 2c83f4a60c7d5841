import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from moonbell import (
    CONSTANTS,
    DEFAULT_SETTINGS,
    Arm,
    ArmTiming,
    PRESET_NAMES,
    ChshSettings,
    CollapseModel,
    Scenario,
    Site,
    critical_speed,
    preset,
    scenario_timing,
    simulate,
    speed_bound,
    sweep_speed,
    symmetric_scenario,
    with_equalized_starts,
)
from moonbell.bell import FALLBACKS, OUTCOMES, outcome_probabilities
from moonbell.constants import FS_PER_SECOND
from moonbell.bounds import _threshold
from moonbell.simulate import PairRecord, derive_seed

C = CONSTANTS.c


def _connects(timing, lengths, v, depart_at_end=False):
    """The run verdict on a bare timeline, as ``simulate`` decides it."""
    return v >= _threshold(timing, lengths, depart_at_end)


def _run_connects(scen, v, depart_at_end=False):
    """The verdict a four-pair run of ``scen`` at speed ``v`` reports."""
    model = CollapseModel(v_over_c=v, depart_at_end=depart_at_end)
    return simulate(scen, model, DEFAULT_SETTINGS, n_pairs=4, seed=0).connected


def _timing(starts_fs, taus_fs, arrivals_fs=None):
    arrivals = arrivals_fs or starts_fs
    return tuple(
        ArmTiming(arrival_fs=a, measure_start_fs=s, measure_end_fs=s + t)
        for a, s, t in zip(arrivals, starts_fs, taus_fs)
    )


def test_timing_uses_exact_femtosecond_integers():
    t0, t1 = scenario_timing(preset("earth_moon_case3"))
    for t in (t0, t1):
        assert isinstance(t.arrival_fs, int)
        assert isinstance(t.measure_start_fs, int)
        assert isinstance(t.measure_end_fs, int)
    # long arm: 3.844e8 m at c, in fs
    assert t1.arrival_fs == round(3.844e8 / C * 1e15)
    assert t1.arrival_fs > 1.28e15  # seconds-scale delay
    assert t1.measure_end_fs - t1.measure_start_fs == 5000  # 5 ps window
    assert t0.measure_start_fs == t0.arrival_fs  # no offset configured


def test_timing_applies_offsets():
    s = with_equalized_starts(preset("earth_moon_case3"))
    t0, t1 = scenario_timing(s)
    assert t0.arrival_fs < t1.arrival_fs
    assert abs(t0.measure_start_fs - t1.measure_start_fs) <= 1


def test_connected_infinite_speed():
    timing = _timing((0, 0), (5000, 5000))
    assert _connects(timing, (1.0, 1.0), math.inf) is True


def test_connected_threshold_symmetric():
    # simultaneous starts, both arms 3.844e8 m, tau = 5 ps
    timing = _timing((0, 0), (5000, 5000))
    lengths = (3.844e8, 3.844e8)
    v_star = 2 * 3.844e8 / (5e-12 * C)
    assert _connects(timing, lengths, v_star * 1.001)
    assert not _connects(timing, lengths, v_star * 0.999)
    assert v_star == pytest.approx(5.13e11, rel=5e-3)


def test_connected_at_exact_critical_speed():
    for name in ("gisin1999", "cao2017", "earth_moon_case2", "earth_moon_case3", "mars"):
        scen = preset(name)
        v_star = critical_speed(scen)
        assert _run_connects(scen, v_star)
        assert not _run_connects(scen, math.nextafter(v_star, 0))
        assert _run_connects(scen, v_star * 1.05)
        assert not _run_connects(scen, v_star * 0.95)


def test_critical_speed_symmetric_matches_bound():
    s = symmetric_scenario(3.844e8)
    assert critical_speed(s) == pytest.approx(
        speed_bound(s).v_min_over_c, rel=1e-9
    )
    assert critical_speed(s) == pytest.approx(512_888_152_776.68, rel=1e-9)


def test_critical_speed_equalized_matches_bound_up_to_length_ratio():
    # speed_bound charges 2*L_max within tau with simultaneous starts; the
    # event model charges L_0 + L_1 within its window.  Equalized starts
    # leave only that difference (mars keeps a 4 fs start gap: ~8e-4).
    for name in PRESET_NAMES:
        scen = preset(name)
        bound = speed_bound(scen)
        total = scen.arms[0].length_m + scen.arms[1].length_m
        expected = bound.v_min_over_c * total / (2 * bound.l_max_m)
        v_star = critical_speed(with_equalized_starts(scen))
        assert v_star == pytest.approx(expected, rel=1e-3), name


_ARM_DRAW = st.tuples(st.floats(0.0, 12.0), *[st.floats(-1.0, 1.0)] * 3)


@given(
    st.tuples(*[st.floats(-1e9, 1e9)] * 3),
    st.tuples(_ARM_DRAW, _ARM_DRAW),
    st.floats(-12.0, -3.0),
)
@hyp_settings(max_examples=200, deadline=None)
def test_critical_speed_equalized_matches_bound_on_generated_geometries(source, arms, log_tau):
    # The identity above on straight arms of 1 m to 1e12 m and a shared tau.
    # Equalization leaves the starts gap_fs apart, so the event model's window
    # is gap_fs plus tau rounded to fs: v* differs by at most (gap_fs + 1)/window.
    tau = 10.0**log_tau
    built = []
    for i, (log_length, *direction) in enumerate(arms):
        norm = math.hypot(*direction)
        assume(norm > 0.1)
        detector = tuple(x + 10.0**log_length * d / norm for x, d in zip(source, direction))
        built.append(Arm(Site(f"detector_{i}", detector), (source, detector), tau))
    scen = with_equalized_starts(Scenario("generated", Site("source", source), tuple(built)))

    first, second = sorted(scenario_timing(scen), key=lambda t: t.measure_start_fs)
    gap_fs = second.measure_start_fs - first.measure_start_fs
    window_fs = second.measure_end_fs - first.measure_start_fs
    # The gap comes from three round() calls (0.5 fs each), the float-second
    # subtraction in with_equalized_starts (half an ulp of the later arrival)
    # and three products with 1e15 (each within 0.5625 of that ulp, in fs).
    latest_s = max(arm.length_m / C for arm in scen.arms)
    assert gap_fs <= 1.5 + 2.1875 * math.ulp(latest_s) * FS_PER_SECOND

    bound = speed_bound(scen)
    total = scen.arms[0].length_m + scen.arms[1].length_m
    expected = bound.v_min_over_c * total / (2 * bound.l_max_m)
    assert critical_speed(scen) == pytest.approx(expected, rel=(gap_fs + 1) / window_fs)


def test_critical_speed_natural_timing_just_below_light_speed():
    # With measurements at the natural photon arrivals, the light-time head
    # start of the short arm covers almost the whole influence path.
    scen = preset("earth_moon_case3")
    v_star = critical_speed(scen)
    l_long = scen.arms[1].length_m
    expected = l_long / (l_long + C * 5e-12)
    assert v_star < 1.0
    assert v_star == pytest.approx(expected, rel=1e-6)
    assert _run_connects(scen, 1.0 + 1e-6)


def test_connected_tie_break_is_deterministic():
    timing = _timing((100, 100), (4000, 5000))
    lengths = (1000.0, 2000.0)
    # window must come from arm 1 (the "second" on a tie with arm 0 first)
    v_min = (3000.0 * 1e15) / (C * (timing[1].measure_end_fs - 100))
    assert _connects(timing, lengths, v_min * 1.0001)
    assert not _connects(timing, lengths, v_min * 0.9999)


@given(
    st.integers(0, 10**15),
    st.integers(0, 10**15),
    st.integers(1, 10**5),
    st.integers(1, 10**5),
    st.floats(1e-6, 1e12),
    st.floats(1.0, 2.0),
)
@hyp_settings(max_examples=200, deadline=None)
def test_connected_monotone_in_speed(s0, s1, t0, t1, v, factor):
    timing = _timing((s0, s1), (t0, t1))
    lengths = (1234.5, 987.0)
    if _connects(timing, lengths, v):
        assert _connects(timing, lengths, v * factor)


def test_depart_at_end_is_stricter():
    scen = preset("earth_moon_case3")
    assert critical_speed(scen, depart_at_end=True) >= critical_speed(scen)
    v_star_end = critical_speed(scen, depart_at_end=True)
    assert _run_connects(scen, v_star_end, depart_at_end=True)
    assert not _run_connects(scen, v_star_end * 0.95, depart_at_end=True)


def test_simulate_requires_four_pairs():
    with pytest.raises(ValueError):
        simulate(
            preset("gisin1999"),
            CollapseModel(v_over_c=math.inf),
            DEFAULT_SETTINGS,
            n_pairs=3,
            seed=0,
        )


def test_simulate_quantum_limit():
    result = simulate(
        preset("earth_moon_case3"),
        CollapseModel(v_over_c=math.inf),
        DEFAULT_SETTINGS,
        n_pairs=200_000,
        seed=12,
    )
    assert result.connected is True
    assert sum(result.counts) == 200_000
    assert abs(result.s_hat - 2 * math.sqrt(2)) <= 5 * result.stderr_s
    assert result.stderr_s == pytest.approx(
        math.sqrt(sum((1 - e * e) / n for e, n in zip(result.e_hat, result.counts))), rel=1e-12
    )


def test_simulate_lhv_fallback_saturates_classical_bound():
    scen = with_equalized_starts(preset("earth_moon_case3"))
    result = simulate(
        scen,
        CollapseModel(v_over_c=1e-3, fallback="lhv"),
        DEFAULT_SETTINGS,
        n_pairs=200_000,
        seed=5,
        trace_limit=16,
    )
    assert not result.connected
    assert abs(result.s_hat - 2.0) <= 5 * result.stderr_s
    assert len(result.records) == 16


def test_simulate_uncorrelated_fallback_gives_zero():
    result = simulate(
        preset("earth_moon_case3"),
        CollapseModel(v_over_c=1e-3, fallback="uncorrelated"),
        DEFAULT_SETTINGS,
        n_pairs=200_000,
        seed=9,
    )
    assert abs(result.s_hat) <= 5 * result.stderr_s


def test_simulate_deterministic_and_worker_independent():
    scen = preset("gisin1999")
    model = CollapseModel(v_over_c=math.inf)
    a = simulate(scen, model, DEFAULT_SETTINGS, n_pairs=150_000, seed=77, workers=1)
    b = simulate(scen, model, DEFAULT_SETTINGS, n_pairs=150_000, seed=77, workers=1)
    assert a == b
    c = simulate(scen, model, DEFAULT_SETTINGS, n_pairs=150_000, seed=77, workers=3)
    assert a == c
    d = simulate(scen, model, DEFAULT_SETTINGS, n_pairs=150_000, seed=78)
    assert d != a


def test_estimator_consistency_on_angle_grid():
    # E_hat must track cos 2(a-b) within 5 standard errors per cell.
    scen = preset("gisin1999")
    model = CollapseModel(v_over_c=math.inf)
    grid = np.linspace(0.0, math.pi / 2, 5)
    n = 100_000
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            settings = ChshSettings(a=a, a_prime=a, b=b, b_prime=b)
            result = simulate(scen, model, settings, n_pairs=n, seed=1000 + 10 * i + j)
            pooled = sum(e * k for e, k in zip(result.e_hat, result.counts)) / sum(result.counts)
            truth = math.cos(2 * (a - b))
            tol = 5 * math.sqrt((1 - truth**2) / n + 1e-12)
            assert abs(pooled - truth) <= max(tol, 5e-3)


def test_pair_records_timing_invariants():
    scen = preset("earth_moon_case3")
    result = simulate(
        scen,
        CollapseModel(v_over_c=math.inf),
        DEFAULT_SETTINGS,
        n_pairs=64,
        seed=2,
        trace_limit=8,
    )
    assert len(result.records) == 8
    for arm_index, t in enumerate(scenario_timing(scen)):
        arm = scen.arms[arm_index]
        assert t.arrival_fs == round(arm.length_m / C * 1e15)
        assert t.measure_start_fs == t.arrival_fs + round(arm.offset_s * 1e15)
        assert t.measure_end_fs == t.measure_start_fs + round(arm.tau_s * 1e15)
    assert result.connected is True
    for rec in result.records:
        assert rec.outcomes[0] in (-1, 1) and rec.outcomes[1] in (-1, 1)
        assert rec.settings in DEFAULT_SETTINGS.pairs()


def test_sweep_transition_bracket():
    scen = symmetric_scenario(3.844e8)
    v_star = critical_speed(scen)
    grid = list(np.logspace(10, 13, 12))
    points = sweep_speed(
        scen,
        fallback="lhv",
        settings=DEFAULT_SETTINGS,
        v_grid=grid,
        n_pairs_per_point=4000,
        seed=3,
    )
    # One point per speed, in grid order; numpy scalars from the grid must
    # not leak into the points.
    assert [p.v_over_c for p in points] == grid
    assert all(type(p.v_over_c) is float for p in points)
    below = max(p.v_over_c for p in points if not p.connected)
    above = min(p.v_over_c for p in points if p.connected)
    assert below < v_star <= above
    for p in points:
        if p.connected:
            assert abs(p.s_hat - 2 * math.sqrt(2)) <= 5 * p.stderr_s
        else:
            assert p.s_hat <= 2.0 + 5 * p.stderr_s


def test_sweep_single_point_and_validation():
    scen = preset("gisin1999")
    points = sweep_speed(
        scen, "uncorrelated", DEFAULT_SETTINGS, [math.inf], 1000, seed=0
    )
    assert len(points) == 1
    assert points[0].connected is True
    with pytest.raises(ValueError):
        sweep_speed(scen, "lhv", DEFAULT_SETTINGS, [], 1000, seed=0)
    with pytest.raises(ValueError):
        sweep_speed(scen, "lhv", DEFAULT_SETTINGS, [2.0, 1.0], 1000, seed=0)


@pytest.mark.parametrize(
    "n_pairs, message",
    [
        (3, "n_pairs (-n/--pairs) must be at least 4, got 3"),
        (2**63, "n_pairs (-n/--pairs) must be at most 2**63 - 1, got 9223372036854775808"),
    ],
)
def test_sweep_checks_pairs_after_the_grid_and_the_first_model(n_pairs, message):
    scen = preset("gisin1999")

    def raises(match, fallback="lhv", grid=(1e6, 1e8)):
        with pytest.raises(ValueError, match=match):
            sweep_speed(scen, fallback, DEFAULT_SETTINGS, list(grid), n_pairs, seed=0)

    raises(re.escape(message))
    raises("v_grid must not be empty", grid=())
    raises("v_grid must be strictly ascending", grid=(2.0, 1.0))
    raises(r"v_over_c \(--v-over-c\) must be > 0", grid=(-1.0, 1.0))
    raises("fallback must be one of", fallback="telepathy")
    # A later point's speed is checked only when that point is reached.
    raises(re.escape(message), grid=(1.0, math.nan))
    with pytest.raises(ValueError, match=r"v_over_c \(--v-over-c\) must be > 0"):
        sweep_speed(scen, "lhv", DEFAULT_SETTINGS, [1.0, math.nan], 1000, seed=0)


@pytest.mark.parametrize("fallback", FALLBACKS)
def test_sweep_point_is_simulate_at_its_sub_seed(fallback):
    scen = preset("earth_moon_case3")
    settings = ChshSettings(a=0.1, a_prime=0.9, b=0.4, b_prime=1.3)
    v_star = critical_speed(scen, depart_at_end=True)
    grid = [v_star / 2, math.nextafter(v_star, 0.0), v_star, v_star * 2, math.inf]
    points = sweep_speed(scen, fallback, settings, grid, 5000, seed=11, depart_at_end=True)
    assert [p.connected for p in points] == [False, False, True, True, True]
    for i, (v, point) in enumerate(zip(grid, points)):
        result = simulate(scen, CollapseModel(v, fallback, True), settings, 5000, derive_seed(11, i))
        assert point == (v, result.s_hat, result.stderr_s, result.connected)


def test_derive_seed_spreads():
    seeds = {derive_seed(0, i) for i in range(100)}
    assert len(seeds) == 100


def test_collapse_model_validation():
    with pytest.raises(ValueError):
        CollapseModel(v_over_c=0.0)
    with pytest.raises(ValueError):
        CollapseModel(v_over_c=1.0, fallback="telepathy")


def test_trace_records_are_the_tallied_pairs():
    # With every pair traced, the records alone must reproduce the estimate.
    n = 4000
    result = simulate(
        preset("gisin1999"),
        CollapseModel(v_over_c=math.inf),
        DEFAULT_SETTINGS,
        n_pairs=n,
        seed=31,
        trace_limit=n,
    )
    angle_pairs = DEFAULT_SETTINGS.pairs()
    counts = [0, 0, 0, 0]
    prod_sums = [0, 0, 0, 0]
    for rec in result.records:
        k = angle_pairs.index(rec.settings)
        counts[k] += 1
        prod_sums[k] += rec.outcomes[0] * rec.outcomes[1]
    assert list(result.counts) == counts
    assert list(result.e_hat) == [s / c for s, c in zip(prod_sums, counts)]


def test_a_trace_is_its_cells():
    # Pair i's record is cell c = 4*s + o of the traced draw: angle pair s, outcome o.
    n, seed = 10_000, 5
    result = simulate(
        preset("earth_moon_case3"), CollapseModel(v_over_c=math.inf), DEFAULT_SETTINGS, n, seed, trace_limit=n
    )
    assert len(result.records) == n
    assert len({id(rec) for rec in result.records}) <= 16
    angle_pairs = DEFAULT_SETTINGS.pairs()
    p = np.array([outcome_probabilities("quantum", a, b) for a, b in angle_pairs]).ravel() / 4.0
    cells = np.random.Generator(np.random.Philox(seed)).choice(16, size=n, p=p).tolist()
    assert list(result.records) == [PairRecord(angle_pairs[c // 4], OUTCOMES[c % 4]) for c in cells]


def test_simulate_handles_1e15_pairs():
    n = 10**15
    result = simulate(
        preset("earth_moon_case3"), CollapseModel(v_over_c=math.inf), DEFAULT_SETTINGS, n, seed=8
    )
    assert sum(result.counts) == n
    assert abs(result.s_hat - 2 * math.sqrt(2)) <= 5 * result.stderr_s


def test_negative_seed_is_deterministic():
    scen = preset("gisin1999")
    model = CollapseModel(v_over_c=math.inf)
    a = simulate(scen, model, DEFAULT_SETTINGS, n_pairs=10_000, seed=-12, trace_limit=3)
    b = simulate(scen, model, DEFAULT_SETTINGS, n_pairs=10_000, seed=-12, trace_limit=3)
    assert a == b
    assert sum(a.counts) == 10_000


def test_pair_count_limited_to_int64():
    scen = preset("gisin1999")
    model = CollapseModel(v_over_c=math.inf)
    result = simulate(scen, model, DEFAULT_SETTINGS, n_pairs=2**63 - 1, seed=0)
    assert sum(result.counts) == 2**63 - 1
    with pytest.raises(ValueError, match="n_pairs"):
        simulate(scen, model, DEFAULT_SETTINGS, n_pairs=2**63, seed=0)
