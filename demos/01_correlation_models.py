"""
Correlation models and the Bell combination
===========================================

The two closed-form models behind every simulation in this package: the
quantum cosine law for a polarization-entangled photon pair, and the
deterministic hidden-polarization sawtooth that any local-realistic
mechanism cannot beat.
"""

import math

from moonbell import (
    DEFAULT_SETTINGS,
    chsh_value,
    lhv_correlation,
    outcome_probabilities,
    quantum_correlation,
)

# Correlation as a function of the angle difference.
print("delta (deg)   quantum E     lhv E")
for deg in range(0, 91, 15):
    delta = math.radians(deg)
    print(f"{deg:8d}    {quantum_correlation(0.0, delta):+9.4f}   {lhv_correlation(0.0, delta):+9.4f}")

# The four-angle combination at the standard settings: the quantum model
# reaches 2*sqrt(2) ~ 2.828 while every hidden-variable model stays at 2.
print()
print("S (quantum) =", chsh_value(quantum_correlation, DEFAULT_SETTINGS))
print("S (lhv)     =", chsh_value(lhv_correlation, DEFAULT_SETTINGS))

# Joint outcome probabilities at one angle pair; these tables are what the
# Monte Carlo samples from.
print()
for model in ("quantum", "lhv"):
    p_pp, p_pm, p_mp, p_mm = outcome_probabilities(model, 0.0, math.pi / 8)
    print(f"{model:8s} p(++)={p_pp:.5f} p(+-)={p_pm:.5f} p(-+)={p_mp:.5f} p(--)={p_mm:.5f}"
          f"   E={p_pp + p_mm - p_pm - p_mp:+.4f}")
