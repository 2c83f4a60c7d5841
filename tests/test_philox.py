"""moonbell.philox draws what numpy draws, bit for bit, and simulate() gives
what its numpy implementation gave.

numpy is the oracle: each port is compared with the numpy call it replaces
(``SeedSequence.generate_state``, ``Philox.random_raw``, ``Generator.random``,
``Generator.choice`` with weights and ``Generator.multinomial``), on
generated inputs and on cases from the regimes where a straight transcription
of numpy's C code into Python arithmetic diverges.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from moonbell import PRESET_NAMES, ChshSettings, CollapseModel, critical_speed, preset, simulate
from moonbell import philox
from moonbell.bell import CHSH_SIGNS, FALLBACKS, OUTCOMES, outcome_probabilities
from moonbell.simulate import PairRecord, SimulationResult, derive_seed

INT64_MAX = 2**63 - 1
_SEEDS = st.integers(0, 2**64 - 1)
# n of a multinomial: weighted towards the doubles' integer limit and int64's.
_COUNTS = st.one_of(
    st.just(INT64_MAX),
    st.integers(2**53, INT64_MAX),
    st.integers(0, INT64_MAX),
    st.integers(0, 2000),
)
_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0).map(lambda x: x * 1e-18),
    st.floats(0.0, 1.0).map(lambda x: x * 1e-9),
)


@st.composite
def _pvals(draw, min_size=1, max_size=16):
    """Normalised probability vectors with zero and ~1e-18 entries."""
    weights = draw(st.lists(_WEIGHTS, min_size=min_size, max_size=max_size))
    total = math.fsum(weights)
    return [w / total for w in weights] if total > 0.0 else [0.0] * (len(weights) - 1) + [1.0]


def _numpy_error(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@hyp_settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**70), min_size=1, max_size=6), st.integers(1, 5))
def test_seed_state_is_seed_sequence(entropy, n_words):
    expected = np.random.SeedSequence(entropy).generate_state(n_words, np.uint64)
    assert philox.seed_state(entropy, n_words) == [int(x) for x in expected]


def test_seed_state_rejects_negative_entropy_as_numpy_does():
    with pytest.raises(ValueError) as expected:
        np.random.SeedSequence([5, -1])
    with pytest.raises(ValueError, match=str(expected.value)):
        philox.seed_state([5, -1], 1)


@hyp_settings(max_examples=200, deadline=None)
@given(_SEEDS, st.lists(st.integers(0, 200), max_size=8))
def test_philox_stream_is_numpy_philox(seed, sizes):
    """Raw words in chunks that start and stop inside and across blocks and refills."""
    ours, theirs = philox.Philox(seed), np.random.Philox(seed)
    for size in sizes:
        assert ours.random_raw(size) == [int(x) for x in theirs.random_raw(size)]


@hyp_settings(max_examples=200, deadline=None)
@given(_SEEDS, st.lists(st.tuples(st.booleans(), st.integers(0, 200)), max_size=8))
def test_uniforms_are_generator_random(seed, steps):
    """``random(size)`` and ``next_double()`` share one buffered stream."""
    ours, theirs = philox.Philox(seed), np.random.Generator(np.random.Philox(seed))
    for bulk, size in steps:
        expected = theirs.random(size).tolist()
        if bulk:
            assert ours.random(size) == expected
        else:
            assert [ours.next_double() for _ in range(size)] == expected


def test_long_stream_matches_numpy():
    """Thousands of blocks in one call, then the buffered remainder."""
    ours, theirs = philox.Philox(2**64 - 1), np.random.Philox(2**64 - 1)
    assert ours.random_raw(40_003) == [int(x) for x in theirs.random_raw(40_003)]
    assert ours.random_raw(6) == [int(x) for x in theirs.random_raw(6)]
    assert ours.next_double() == np.random.Generator(theirs).random()


@hyp_settings(max_examples=300, deadline=None)
@given(_SEEDS, _pvals(), st.integers(0, 300))
def test_choice_is_generator_choice(seed, p, size):
    expected = np.random.Generator(np.random.Philox(seed)).choice(len(p), size=size, p=p)
    assert philox.choice(philox.Philox(seed), p, size) == expected.tolist()


@pytest.mark.parametrize(
    "p",
    [[0.5, math.nan], [1.5, -0.5], [0.5, 0.4], [0.5, 0.5 + 1e-7], [math.inf, 0.0], [-math.inf, 1.0]],
    ids=["nan", "negative", "short", "long", "inf", "-inf"],
)
def test_choice_rejects_bad_p_as_numpy_does(p):
    expected = _numpy_error(lambda: np.random.Generator(np.random.Philox(0)).choice(len(p), size=3, p=p))
    assert expected.startswith("ValueError")
    assert _numpy_error(lambda: philox.choice(philox.Philox(0), p, 3)) == expected


@hyp_settings(max_examples=500, deadline=None)
@given(_SEEDS, _COUNTS, _pvals())
def test_multinomial_is_generator_multinomial(seed, n, p):
    expected = np.random.Generator(np.random.Philox(seed)).multinomial(n, p)
    assert philox.multinomial(philox.Philox(seed), n, p) == expected.tolist()


@pytest.mark.parametrize(
    "n, p",
    [
        (10, []),
        (10, [0.5, math.nan]),
        (10, [1.2, 0.0]),
        (10, [-0.1, 1.1]),
        (10, [0.6, 0.6, 0.0]),
        (10, [0.5, 0.5 + 1e-11, 0.0]),
        (-1, [0.5, 0.5]),
    ],
    ids=["empty", "nan", "above-one", "negative", "sum", "sum-by-1e-11", "negative-n"],
)
def test_multinomial_rejects_bad_input_as_numpy_does(n, p):
    expected = _numpy_error(lambda: np.random.Generator(np.random.Philox(0)).multinomial(n, p))
    assert expected.startswith("ValueError")
    assert _numpy_error(lambda: philox.multinomial(philox.Philox(0), n, p)) == expected


def test_multinomial_accepts_a_sum_within_numpy_tolerance():
    p = [0.5, 0.5 + 1e-13, 0.0]
    expected = np.random.Generator(np.random.Philox(3)).multinomial(1000, p)
    assert philox.multinomial(philox.Philox(3), 1000, p) == expected.tolist()


def _pair(x):
    return [x, 1.0 - x]


def _quantum_table(*angles):
    settings = ChshSettings(*angles)
    return [x / 4.0 for a, b in settings.pairs() for x in outcome_probabilities("quantum", a, b)]


# Each case comes from a regime where Python arithmetic and numpy's C differ;
# a port that used the Python form fails at least one of the draws.
_DIVERGENCE_CASES = {
    # BTPE's squeeze: t = -k*k / (2*nrq) takes k*k in int64, which wraps.
    "btpe-t-wraps": [
        (14618479990933150003, 4289972704822913322, _pair(0.3452776935813801)),
        (7211201198180763287, 5405651910301651686, _pair(0.37118462456515916)),
        (16622897231228678973, 8657384866695575995, _pair(0.16695389237012048)),
        (8136771448283715415, 7983201812868719510, _pair(0.35216098058912065)),
    ],
    # Inversion's qn is exp(n*log1p(-p)); exp(n*log(1 - p)) is 1 when 1 - p rounds to 1.
    "inversion-log1p": [(seed, INT64_MAX, _pair(1e-18)) for seed in range(4)]
    + [(seed, INT64_MAX, [3e-18, 0.5, 0.5 - 3e-18]) for seed in range(4)],
    # BTPE's squeeze terms z and w are float(n) + 1 - m and float(n) - y + 1,
    # which round differently from the int64 n + 1 - m and n - y + 1 once n >= 2**53.
    "btpe-z-rounds": [
        (2058310900, 7965627759119423055, _pair(1.912358319503643e-16)),
        (1052095808, 6798523362347142670, _pair(2.6731829187999998e-17)),
        (1920940605, 1032752488681331147, _pair(1.5720230029400415e-16)),
        (3647478598, 2550339796600990480, _pair(2.121521756370001e-16)),
    ],
    "btpe-w-rounds": [
        (3908271486, 4731617027901474513, _pair(2.086600286349251e-15)),
        (2232397920, 4318696434410710062, _pair(6.605919426956926e-17)),
        (3503894372, 3718238799007930609, _pair(6.231234273053579e-17)),
        (4082895271, 8920075092693439900, _pair(9.143364523472925e-16)),
    ],
    # BTPE's product test takes s * (n + 1) with n + 1 in int64, which wraps at 2**63 - 1.
    "btpe-n-plus-1-wraps": [(seed, INT64_MAX, _pair(x / 2**63)) for seed in range(6) for x in (31.0, 45.0)],
    # A table whose last cell is ~1e-33 drives p / remaining_p past 1 at cell 14, and
    # inversion then meets C's exp overflow (inf), sqrt of a negative (NaN) and the
    # int64 cast of NaN (INT64_MIN), each of which raises in Python.
    "p-past-one": [
        (seed, n, _quantum_table(0.0, 0.0, 0.5, math.pi / 2))
        for seed in range(3)
        for n in (INT64_MAX, 10**17, 10**7)
    ],
}


@pytest.mark.parametrize(
    "seed, n, p",
    [case for cases in _DIVERGENCE_CASES.values() for case in cases],
    ids=[f"{name}-{i}" for name, cases in _DIVERGENCE_CASES.items() for i in range(len(cases))],
)
def test_multinomial_follows_numpy_where_c_and_python_differ(seed, n, p):
    expected = np.random.Generator(np.random.Philox(seed)).multinomial(n, p)
    assert philox.multinomial(philox.Philox(seed), n, p) == expected.tolist()


def test_past_one_table_passes_one_at_cell_14():
    p = _quantum_table(0.0, 0.0, 0.5, math.pi / 2)
    remaining = 1.0
    for x in p[:14]:
        remaining -= x
    assert p[14] / remaining > 1.0


def _numpy_simulate(scenario, model, settings, n_pairs, seed, trace_limit):
    """simulate()'s sampling as numpy ran it, kept as the reference."""
    is_connected = model.v_over_c >= critical_speed(scenario, model.depart_at_end)
    angle_pairs = settings.pairs()
    row_model = "quantum" if is_connected else model.fallback
    tables = np.array(
        [outcome_probabilities(row_model, a, b) for a, b in angle_pairs], dtype=np.float64
    )
    p = tables.ravel() / 4.0
    rng = np.random.Generator(np.random.Philox(seed & (2**64 - 1)))
    n_rec = min(trace_limit, n_pairs)
    traced = rng.choice(16, size=n_rec, p=p) if n_rec else np.zeros(0, dtype=np.int64)
    tally = np.bincount(traced, minlength=16) + rng.multinomial(n_pairs - n_rec, p)
    cells = tally.reshape(4, 4)
    cell_records = [PairRecord(angle_pairs[c // 4], OUTCOMES[c % 4]) for c in range(16)] if n_rec else []
    records = tuple(map(cell_records.__getitem__, traced.tolist()))
    counts = cells.sum(axis=1)
    prod_sums = cells @ [a * b for a, b in OUTCOMES]
    e_hat = np.full(4, np.nan)
    nonzero = counts > 0
    e_hat[nonzero] = prod_sums[nonzero] / counts[nonzero]
    s_hat = 0.0
    for sign, e in zip(CHSH_SIGNS, e_hat):
        s_hat += sign * float(e)
    with np.errstate(divide="ignore", invalid="ignore"):
        stderr = float(np.sqrt(np.sum((1.0 - e_hat**2) / counts)))
    return SimulationResult(
        e_hat=tuple(float(x) for x in e_hat),
        counts=tuple(int(x) for x in counts),
        s_hat=s_hat,
        stderr_s=stderr,
        connected=is_connected,
        records=records,
    )


_ANGLES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2, 0.5, 1e-300]),
)


@hyp_settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(PRESET_NAMES),
    st.tuples(*[_ANGLES] * 4),
    st.sampled_from(FALLBACKS),
    st.sampled_from(["below", "at", "above", "inf"]),
    st.integers(-(2**70), 2**70),
    st.one_of(st.integers(4, 40), st.integers(4, 10**9), st.integers(2**53, INT64_MAX), st.just(INT64_MAX)),
    st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 3000)),
)
def test_simulate_is_its_numpy_implementation(name, angles, fallback, speed, seed, n_pairs, trace_limit):
    scenario = preset(name)
    v_star = critical_speed(scenario)
    v = {"below": math.nextafter(v_star, 0.0), "at": v_star, "above": 2 * v_star, "inf": math.inf}[speed]
    model = CollapseModel(v_over_c=v, fallback=fallback)
    settings = ChshSettings(*angles)
    got = simulate(scenario, model, settings, n_pairs, seed, trace_limit=trace_limit)
    expected = _numpy_simulate(scenario, model, settings, n_pairs, seed, trace_limit)
    # repr tells nan from nan-free results and -0.0 from 0.0, so this is bit-exact.
    assert repr(got) == repr(expected)


@hyp_settings(max_examples=300, deadline=None)
@given(st.integers(-(2**80), 2**80), st.integers(0, 2**40))
def test_derive_seed_is_seed_sequence(seed, index):
    expected = np.random.SeedSequence([seed & (2**64 - 1), index]).generate_state(1, np.uint64)
    assert derive_seed(seed, index) == int(expected[0])
