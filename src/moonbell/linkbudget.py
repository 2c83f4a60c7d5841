"""Free-space loss scaling, coincidence rates and statistical requirements.

Only the geometric L^-2 law is modeled explicitly (beam divergence against
a finite receiver aperture); atmospheric, pointing and optics losses enter
as one measured reference loss at a reference distance.  Scaling a link
from L_ref to L then adds 20*log10(L/L_ref) dB.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bell import CLASSICAL_BOUND, TSIRELSON_BOUND
from .claims import PUBLISHED_CADENCE_THRESHOLD_HZ
from .constants import checked


@checked
class LinkSpec(NamedTuple):
    """One optical arm: its length and a measured reference operating point.

    Parameters
    ----------
    length_m : float
        Actual link length, m.
    reference_length_m : float
        Length at which the total loss was measured or budgeted, m.
    reference_loss_db : float
        Total loss at the reference length (atmosphere, pointing, optics), dB.
    detector_efficiency : float
        End-detector efficiency, in (0, 1].
    """

    length_m: float
    reference_length_m: float
    reference_loss_db: float
    detector_efficiency: float = 1.0

    def _checked(self) -> LinkSpec:
        for flag, length in (
            ("--length-a/--length-b", self.length_m),
            ("--ref-length", self.reference_length_m),
        ):
            if not length > 0.0:
                raise ValueError(f"length ({flag}) must be > 0, got {length!r} m")
        loss, eff = self.reference_loss_db, self.detector_efficiency
        if not math.isfinite(loss):
            raise ValueError(f"reference loss (--ref-loss-db) must be finite, got {loss!r} dB")
        if loss < 0.0:
            raise ValueError(f"reference loss (--ref-loss-db) must be >= 0 dB, got {loss!r} dB")
        if not 0.0 < eff <= 1.0:
            raise ValueError(f"detector efficiency (--eff-a/--eff-b) must be in (0, 1], got {eff!r}")
        try:
            geometric_loss_db(self.reference_length_m, self.length_m)
        except ValueError as exc:
            raise ValueError(f"{exc} (--length-a/--length-b over --ref-length)") from None
        return self

    @property
    def total_loss_db(self) -> float:
        return self.reference_loss_db + geometric_loss_db(self.reference_length_m, self.length_m)


def geometric_loss_db(reference_length_m: float, length_m: float) -> float:
    """Extra loss from stretching a link, dB; the L^-2 law gives 20 dB/decade."""
    if not (reference_length_m > 0.0 and length_m > 0.0):
        raise ValueError("lengths must be > 0")
    ratio = length_m / reference_length_m
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"length ratio {length_m!r} m / {reference_length_m!r} m is out of range")
    return 20.0 * math.log10(ratio)


def pairs_for_significance(s_expected: float, k_sigma: float) -> int:
    """Smallest per-setting pair count putting the expected violation k sigma out.

    Uses the standard error that ``simulate`` prints, sqrt(sum (1 - E_i^2)/n),
    with n pairs per setting.  At the default angles an expected S means
    |E_i| = S/4 for all four settings (Clauser, Horne, Shimony and Holt,
    PRL 23, 880, 1969), so sum (1 - E_i^2) = 4 - S^2/4: 2 at S = 2*sqrt(2),
    and more as S falls towards 2.  ``s_expected`` must lie in (2, 2*sqrt(2)].
    The returned n satisfies
    (s_expected - 2) / sqrt((4 - s_expected**2 / 4) / n) >= k_sigma.
    """
    if not s_expected > CLASSICAL_BOUND:
        raise ValueError(f"s_expected (--s-expected) must exceed the classical bound 2, got {s_expected!r}")
    if s_expected > TSIRELSON_BOUND:
        raise ValueError(f"s_expected (--s-expected) must not exceed the Tsirelson bound 2*sqrt(2), got {s_expected!r}")
    if not k_sigma >= 0.0:
        raise ValueError(f"k_sigma (--k-sigma) must be >= 0, got {k_sigma!r}")
    try:
        n = max(1, math.ceil((4.0 - s_expected**2 / 4.0) * (k_sigma / (s_expected - CLASSICAL_BOUND)) ** 2))
    except OverflowError:
        raise ValueError(
            f"k_sigma / (s_expected - 2) is too large for a finite pair count, from --k-sigma "
            f"{k_sigma!r} and --s-expected {s_expected!r}"
        ) from None
    return n


def coincidence_rate(
    pair_rate_hz: float,
    loss_a_db: float,
    loss_b_db: float,
    eff_a: float = 1.0,
    eff_b: float = 1.0,
) -> float:
    """Detected coincidences per second after both arms' losses."""
    if not math.isfinite(pair_rate_hz):
        raise ValueError(f"pair rate (--pair-rate) must be finite, got {pair_rate_hz!r}")
    if not pair_rate_hz > 0.0:
        raise ValueError(f"pair rate (--pair-rate) must be > 0, got {pair_rate_hz!r}")
    if loss_a_db < 0.0 or loss_b_db < 0.0:
        raise ValueError("losses must be >= 0 dB")
    if not (0.0 < eff_a <= 1.0 and 0.0 < eff_b <= 1.0):
        raise ValueError("efficiencies must be in (0, 1]")
    return pair_rate_hz * 10.0 ** (-loss_a_db / 10.0) * 10.0 ** (-loss_b_db / 10.0) * eff_a * eff_b


def budget_report(
    arm_a: LinkSpec,
    arm_b: LinkSpec,
    pair_rate_hz: float,
    s_expected: float = TSIRELSON_BOUND,
    k_sigma: float = 3.0,
) -> dict:
    """Full link budget as the published JSON shape.

    The integration time is the 4n pairs over the coincidence rate, and the
    cadence flag is set when that rate reaches the threshold at which the
    printed proper-time corrections matter.
    """
    # The L^-2 law would turn the reference loss of a short arm into a gain.
    for name, arm in (("A", arm_a), ("B", arm_b)):
        if arm.total_loss_db < 0.0:
            raise ValueError(
                f"arm {name} ({arm.length_m!r} m) is shorter than --ref-length "
                f"({arm.reference_length_m!r} m) by more than --ref-loss-db "
                f"({arm.reference_loss_db!r} dB) covers; its loss would be "
                f"{arm.total_loss_db:.3f} dB"
            )
    loss_a, loss_b = arm_a.total_loss_db, arm_b.total_loss_db
    rate = coincidence_rate(
        pair_rate_hz, loss_a, loss_b, arm_a.detector_efficiency, arm_b.detector_efficiency
    )
    per_setting = pairs_for_significance(s_expected, k_sigma)
    if not rate > 0.0:
        ref_loss = " and ".join(
            f"{x!r} dB" for x in sorted({arm_a.reference_loss_db, arm_b.reference_loss_db})
        )
        raise ValueError(
            f"coincidence rate underflows to 0 from --pair-rate {pair_rate_hz!r} Hz, --eff-a "
            f"{arm_a.detector_efficiency!r} and --eff-b {arm_b.detector_efficiency!r} after arm "
            f"losses {loss_a!r} dB and {loss_b!r} dB; lower the reference loss (--ref-loss-db), "
            f"now {ref_loss}, or raise the pair rate or the efficiencies"
        )
    try:
        integration_s = 4 * per_setting / rate
    except OverflowError:  # a pair count beyond the float range
        integration_s = math.inf
    if integration_s == math.inf:
        raise ValueError(
            f"integration time overflows at {rate!r} coincidences/s; raise the pair rate "
            f"(--pair-rate, {pair_rate_hz!r} Hz) or lower k_sigma (--k-sigma, {k_sigma!r})"
        )
    return {
        "losses_db": {"arm_a": loss_a, "arm_b": loss_b},
        "coincidence_rate": rate,
        "pairs_required": 4 * per_setting,
        "pairs_per_setting": per_setting,
        "integration_time_s": integration_s,
        "cadence_flag": {
            "threshold_hz": PUBLISHED_CADENCE_THRESHOLD_HZ,
            "correction_applies": rate >= PUBLISHED_CADENCE_THRESHOLD_HZ,
        },
    }
