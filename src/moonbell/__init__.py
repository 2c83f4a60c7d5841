"""moonbell: Bell tests at astronomical distances.

Speed-of-correlation lower bounds for arbitrary experiment geometries,
event-timed Monte Carlo of entangled pairs under finite-speed collapse
models, and link-budget/sample-size planning for Earth-Moon scale links.
"""

__version__ = "0.1.0"

import sys as _sys
from types import ModuleType as _ModuleType

from .bell import (
    CLASSICAL_BOUND,
    DEFAULT_SETTINGS,
    MODELS,
    TSIRELSON_BOUND,
    ChshSettings,
    canonical_angle,
    chsh_value,
    lhv_correlation,
    outcome_probabilities,
    quantum_correlation,
)
from .bounds import (
    EARTH_MOON_WINDOW,
    MOND_SCALE_M,
    AprioriCandidate,
    ArmTiming,
    ObservationWindow,
    SpeedBound,
    apriori_scales,
    cadence_threshold,
    classify_scale,
    critical_speed,
    gain_factor,
    kappa,
    mond_candidate,
    proper_time_correction,
    scenario_timing,
    speed_bound,
)
from .claims import (
    PUBLISHED_CADENCE_THRESHOLD_HZ,
    Claim,
    all_claims,
    claims_as_dicts,
)
from .constants import CONSTANTS, DEFAULT_TAU_S, PhysicalConstants
from .scenario import (
    LOCAL_ARM_M,
    PRESET_NAMES,
    Arm,
    Scenario,
    ScenarioError,
    Site,
    UnknownPresetError,
    detector_separation,
    light_time,
    load_scenario,
    load_scenario_file,
    preset,
    scenario_to_dict,
    scenario_to_json,
    symmetric_scenario,
    with_equalized_starts,
)

# Names of the two modules that only sampling and link planning use. They are
# loaded on first access (PEP 562), so `import moonbell` and the commands that
# need neither stay short.
_LAZY = {
    **dict.fromkeys(
        (
            "LinkSpec",
            "budget_report",
            "coincidence_rate",
            "geometric_loss_db",
            "linkbudget",
            "pairs_for_significance",
        ),
        "linkbudget",
    ),
    **dict.fromkeys(
        (
            "CollapseModel",
            "PairRecord",
            "SimulationResult",
            "SweepPoint",
            "derive_seed",
            "simulate",
            "sweep_speed",
        ),
        "simulate",
    ),
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's path, unlike importlib.import_module's, shows
    # in `python -X importtime`.
    module_name = f"{__name__}.{_LAZY[name]}"
    __import__(module_name)
    module = _sys.modules[module_name]
    globals()[name] = value = module if name == "linkbudget" else getattr(module, name)
    return value


class _Package(_ModuleType):
    """The package, except that `simulate` stays the function.

    The import system binds a newly loaded submodule onto its package, and
    the `simulate` submodule would replace the function of the same name.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if not (name == "simulate" and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
