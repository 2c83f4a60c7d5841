"""
Correlation-speed lower bounds across experiment geometries
===========================================================

For every built-in configuration: the maximal arm length, the implied lower
bound on the speed of quantum correlations (2 * L_max / tau, in units of c),
and the gain over the two reference experiments.  Ends with the ledger of
printed-versus-recomputed figures.
"""

from moonbell import PRESET_NAMES, all_claims, gain_factor, preset, speed_bound

gisin = preset("gisin1999")
cao = preset("cao2017")

print(f"{'preset':18s} {'L_max (m)':>12s} {'v_min/c':>12s} {'vs gisin':>10s} {'vs cao':>9s}")
for name in PRESET_NAMES:
    scen = preset(name)
    b = speed_bound(scen)
    print(
        f"{name:18s} {b.l_max_m:12.4g} {b.v_min_over_c:12.4g}"
        f" {gain_factor(scen, gisin):10.3g} {gain_factor(scen, cao):9.3g}"
    )

# A slower measurement weakens every bound proportionally.
b = speed_bound(preset("earth_moon_case3"), tau_override_s=50e-12)
print(f"\nearth_moon_case3 at tau = 50 ps: v_min/c = {b.v_min_over_c:.4g}")

# Figures printed in the analyzed proposal that disagree with its own
# formulas, kept side by side rather than silently corrected.
print("\nclaim ledger (printed vs recomputed):")
for claim in all_claims():
    print(f"  {claim.claim_id:36s} {claim.paper_value:>10.3g} -> {claim.computed_value:.6g}")
