"""
A-priori speed and distance scales
==================================

Dimensional analysis offers very few natural scales for a finite correlation
speed or range: powers of the tiny coupling kappa = G m^2/(hbar c) applied
to c and the Planck length, plus the modified-gravity scale of ~10 kpc.
None of them is both above the Planck length and inside the window an
Earth-Moon experiment probes, except the kappa^-1 distance, which the
analyzed proposal nevertheless lists as unobservable (see the claim ledger).
"""

from moonbell import (
    CONSTANTS,
    EARTH_MOON_WINDOW,
    apriori_scales,
    kappa,
    mond_candidate,
)

print(f"kappa(proton) = {kappa():.4g}")
print(f"observation window: {EARTH_MOON_WINDOW.d_min_m:g} m .. {EARTH_MOON_WINDOW.d_max_m:g} m")
print()

rows = apriori_scales([-2, -1, 0, 1, 2])
rows.append(mond_candidate())

print(f"{'N':>5s} {'V/c':>12s} {'D (m)':>12s}  classification")
for row in rows:
    n = "-" if row.n is None else f"{row.n:d}"
    v = "inf" if row.v_over_c == float("inf") else (
        "-" if row.v_over_c is None else f"{row.v_over_c:.3g}"
    )
    print(f"{n:>5s} {v:>12s} {row.d_m:12.3g}  {row.classification}")

# A heavier coupling mass rescales everything: the electron makes kappa
# ~3.4e6 times smaller and pushes the kappa^-1 scale out of the window.
m_electron = 9.1093837015e-31
print(f"\nkappa(electron) = {kappa(m_electron):.4g}")
for row in apriori_scales([-1], mass_kg=m_electron)[1:]:
    print(f"electron, N=-1: D = {row.d_m:.3g} m -> {row.classification}")

print(f"\nproton kappa^-1 distance: {CONSTANTS.planck_length / kappa():.4g} m")
