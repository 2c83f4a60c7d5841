"""
Monte Carlo sweep over assumed influence speeds
===============================================

If collapse influences crawl along the photon trace paths at a finite speed,
the Bell value collapses to the fallback level once the speed drops below
the scenario's critical value.  This sweep shows the step on a symmetric
Earth-Moon geometry, where the threshold sits near 5.1e11 c.
"""

import math

from moonbell import (
    CONSTANTS,
    DEFAULT_SETTINGS,
    critical_speed,
    sweep_speed,
    symmetric_scenario,
)

scenario = symmetric_scenario(CONSTANTS.d_earth_moon_mean)
v_star = critical_speed(scenario)
print(f"critical speed: {v_star:.4g} c")

grid = [10.0 ** (10 + 3 * i / 15) for i in range(16)]
points = sweep_speed(
    scenario,
    fallback="lhv",
    settings=DEFAULT_SETTINGS,
    v_grid=grid,
    n_pairs_per_point=20_000,
    seed=2,
)

print(f"\n{'v/c':>12s} {'S_hat':>8s} {'stderr':>8s}  connected")
for p in points:
    marker = "yes" if p.connected else "no"
    print(f"{p.v_over_c:12.4g} {p.s_hat:8.4f} {p.stderr_s:8.4f}  {marker}")

below = max(p.v_over_c for p in points if not p.connected)
above = min(p.v_over_c for p in points if p.connected)
print(f"\ntransition bracket: ({below:.4g}, {above:.4g}]  contains v* = {v_star:.4g}")

# Optional picture when matplotlib is around.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    v = [p.v_over_c for p in points]
    s = [p.s_hat for p in points]
    err = [5 * p.stderr_s for p in points]
    ax.errorbar(v, s, yerr=err, fmt="o-", capsize=3, label="simulated S")
    ax.axhline(2.0, color="grey", ls="--", lw=1, label="classical bound")
    ax.axhline(2 * math.sqrt(2), color="green", ls=":", lw=1, label="quantum value")
    ax.axvline(v_star, color="red", lw=1, label="critical speed")
    ax.set_xscale("log")
    ax.set_xlabel("assumed influence speed, units of c")
    ax.set_ylabel("Bell value S")
    ax.legend(loc="lower right", fontsize=8)
    fig.tight_layout()
    fig.savefig("sweep_earth_moon.png", dpi=120)
    print("wrote sweep_earth_moon.png")
