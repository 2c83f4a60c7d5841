"""
Link budgets and statistical requirements
=========================================

Free-space loss grows with the square of the link length (20 dB per decade),
so stretching a 500 km satellite link to the Moon costs ~58 dB per arm.
This demo walks from losses to coincidence rates to the integration time a
3-sigma Bell violation needs.
"""

import math

from moonbell import (
    CONSTANTS,
    LinkSpec,
    budget_report,
    coincidence_rate,
    geometric_loss_db,
    pairs_for_significance,
)

ref_length = 500e3  # a low-orbit link as the measured operating point
for length in (500e3, 1203e3 / 2, CONSTANTS.d_earth_moon_mean, 2.25e11):
    print(f"{length / 1e3:12.4g} km -> extra geometric loss "
          f"{geometric_loss_db(ref_length, length):7.2f} dB")

# How many pairs make a violation statistically solid?
for k in (1.0, 3.0, 5.0):
    n = pairs_for_significance(2 * math.sqrt(2), k)
    print(f"k = {k:.0f} sigma: {n:4d} pairs/setting ({4 * n} total)")

# A full budget: lunar source, one arm to Earth, one local.
moon_arm = LinkSpec(
    length_m=CONSTANTS.d_earth_moon_mean,
    reference_length_m=ref_length,
    reference_loss_db=40.0,  # measured total at the reference length
    detector_efficiency=0.6,
)
local_arm = LinkSpec(
    length_m=1.0,
    reference_length_m=1.0,
    reference_loss_db=3.0,
    detector_efficiency=0.6,
)

print()
for pair_rate in (1e6, 1e9, 1e12):
    report = budget_report(moon_arm, local_arm, pair_rate_hz=pair_rate)
    rate = report["coincidence_rate"]
    t = report["integration_time_s"]
    flag = "yes" if report["cadence_flag"]["correction_applies"] else "no"
    print(f"source {pair_rate:8.1e} pairs/s -> {rate:10.4g} coincidences/s, "
          f"{report['pairs_required']} pairs in {t:10.4g} s, clock correction: {flag}")

# The correction flag alone, at the quoted 12.5 photons/s threshold: two
# lossless arms make the coincidence rate the pair rate.
lossless = LinkSpec(length_m=1.0, reference_length_m=1.0, reference_loss_db=0.0)
report = budget_report(lossless, lossless, pair_rate_hz=12.5)
print(f"\nat exactly 12.5 detections/s: {report['integration_time_s']:.2f} s, "
      f"correction applies: {report['cadence_flag']['correction_applies']}")
