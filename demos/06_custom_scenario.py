"""
Building, saving and timing a custom geometry
=============================================

Scenarios are plain JSON documents.  This demo builds a two-mirror relay by
hand, round-trips it through the file format, and inspects its event timing
and critical influence speed.
"""

import math

from moonbell import (
    critical_speed,
    load_scenario,
    scenario_timing,
    scenario_to_json,
    speed_bound,
    with_equalized_starts,
)

document = {
    "name": "relay_demo",
    "source": {"name": "valley_lab", "position": [0.0, 0.0, 0.0]},
    "arms": [
        {
            "detector": {"name": "north_station", "position": [0.0, 80e3, 0.0]},
            "path": [[0.0, 0.0, 0.0], [0.0, 80e3, 0.0]],
            "tau_s": 5e-12,
        },
        {
            # south route bounces over two mountain-top mirrors
            "detector": {"name": "south_station", "position": [10e3, -120e3, 0.0]},
            "path": [
                [0.0, 0.0, 0.0],
                [40e3, -30e3, 2.0e3],
                [5e3, -90e3, 1.5e3],
                [10e3, -120e3, 0.0],
            ],
            "tau_s": 5e-12,
        },
    ],
}

scenario = load_scenario(document)
text = scenario_to_json(scenario)
assert load_scenario(text) == scenario  # lossless round trip
print(f"arm lengths: {scenario.arms[0].length_m:.1f} m, "
      f"{scenario.arms[1].length_m:.1f} m")

bound = speed_bound(scenario)
print(f"speed bound: v_min/c = {bound.v_min_over_c:.4g} (L_max = {bound.l_max_m / 1e3:.1f} km)")

# The raw timeline: integer femtoseconds from emission.
for label, scen in (("natural", scenario), ("equalized", with_equalized_starts(scenario))):
    t0, t1 = scenario_timing(scen)
    print(f"\n{label} measurement starts: {t0.measure_start_fs} fs / {t1.measure_start_fs} fs")
    v_star = critical_speed(scen)
    print(f"{label} critical speed: {v_star:.6g} c"
          + ("" if math.isfinite(v_star) else " (never connects)"))
