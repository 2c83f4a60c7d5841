"""Closed-form polarization correlation models and the four-angle Bell sum.

Two analytic models are provided: the quantum prediction for a maximally
entangled photon pair, E(a, b) = cos 2(a - b), and a deterministic
hidden-polarization model whose correlation is the sawtooth
E = 1 - 4*delta/pi (delta = |a - b| folded into [0, pi/2]).  The sawtooth
saturates the classical bound of 2 at the standard test angles, so it is the
sharpest local-realistic fallback for simulations.  Each model, and an
uncorrelated one, has a joint outcome table (:func:`outcome_probabilities`).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .constants import checked

CorrelationFn = Callable[[float, float], float]

MODELS = ("quantum", "lhv", "uncorrelated")
# The models a simulated run falls back to when the collapse influence is late.
FALLBACKS = ("uncorrelated", "lhv")
# Joint outcomes (arm A, arm B), in the order of outcome_probabilities.
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# Sign of each correlation over ChshSettings.pairs() in the Bell combination
# (Clauser, Horne, Shimony and Holt, PRL 23, 880, 1969).
CHSH_SIGNS = (1, -1, 1, 1)

# Quantum and classical ceilings of the four-term combination.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0


def canonical_angle(theta: float) -> float:
    """Fold an analyzer angle into [0, pi); polarizers are pi-periodic."""
    if not math.isfinite(theta):
        raise ValueError(f"analyzer angle (--settings) must be finite, got {theta!r}")
    folded = theta % math.pi
    # tiny negative inputs round up to pi itself under float modulo
    return 0.0 if folded == math.pi else folded


@checked
class ChshSettings(NamedTuple):
    """The four analyzer angles of one Bell test, radians, each folded by
    :func:`canonical_angle`.

    Defaults are the standard maximal-violation choice a=0, a'=pi/4,
    b=pi/8, b'=3pi/8.
    """

    a: float = 0.0
    a_prime: float = math.pi / 4.0
    b: float = math.pi / 8.0
    b_prime: float = 3.0 * math.pi / 8.0

    def _checked(self) -> ChshSettings:
        # tuple.__new__, not the constructor, which would fold (and call this) again.
        return tuple.__new__(type(self), map(canonical_angle, self))

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """The four measured angle combinations, in the order used by
        :func:`chsh_value`: (a,b), (a,b'), (a',b), (a',b')."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )


DEFAULT_SETTINGS = ChshSettings()


def quantum_correlation(a: float, b: float) -> float:
    """E(a, b) = cos 2(a - b) for a maximally entangled polarization pair."""
    return math.cos(2.0 * (a - b))


def _folded_delta(a: float, b: float) -> float:
    """|a - b| reduced to [0, pi/2] by polarizer symmetry."""
    delta = abs(a - b) % math.pi
    return math.pi - delta if delta > math.pi / 2.0 else delta


def lhv_correlation(a: float, b: float) -> float:
    """Sawtooth correlation of the deterministic hidden-polarization model.

    Each pair carries a hidden angle lambda, uniform over [0, pi); a
    detector at angle theta reports sign(cos 2(theta - lambda)).  Averaging
    the outcome product over lambda gives 1 - 4*delta/pi.
    """
    return 1.0 - 4.0 * _folded_delta(a, b) / math.pi


def outcome_probabilities(model: str, a: float, b: float) -> tuple[float, float, float, float]:
    """Joint outcome probabilities for one angle pair, in :data:`OUTCOMES` order.

    Every model has unbiased single-arm marginals (each outcome 1/2); its
    signed sum is the model's correlation function, and 0 for ``"uncorrelated"``.
    """
    if model == "quantum":
        same = math.cos(a - b) ** 2 / 2.0
        diff = math.sin(a - b) ** 2 / 2.0
    elif model == "lhv":
        e = lhv_correlation(a, b)
        same = (1.0 + e) / 4.0
        diff = (1.0 - e) / 4.0
    elif model == "uncorrelated":
        same = diff = 0.25
    else:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    return (same, diff, diff, same)


def chsh_value(correlation_fn: CorrelationFn, settings: ChshSettings = DEFAULT_SETTINGS) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b'): :data:`CHSH_SIGNS` over ``settings.pairs()``."""
    s = 0.0
    for sign, (a, b) in zip(CHSH_SIGNS, settings.pairs()):
        s += sign * correlation_fn(a, b)
    return s
