"""The package's public names, whichever moonbell module loads first.

`moonbell.simulate` and `moonbell.linkbudget` load on first access, and the
import system binds a newly loaded submodule onto its package. So each case
runs in a fresh interpreter and checks that every exported name, `simulate`
above all, is still the object its defining module holds.
"""

import json
import subprocess
import sys

import pytest

_EXPORTS = {
    "bell": [
        "CLASSICAL_BOUND", "DEFAULT_SETTINGS", "MODELS", "TSIRELSON_BOUND", "ChshSettings",
        "canonical_angle", "chsh_value", "lhv_correlation", "outcome_probabilities",
        "quantum_correlation",
    ],
    "bounds": [
        "EARTH_MOON_WINDOW", "MOND_SCALE_M", "AprioriCandidate", "ArmTiming",
        "ObservationWindow", "SpeedBound", "apriori_scales", "cadence_threshold",
        "classify_scale", "critical_speed", "gain_factor", "kappa", "mond_candidate",
        "proper_time_correction", "scenario_timing", "speed_bound",
    ],
    "claims": ["PUBLISHED_CADENCE_THRESHOLD_HZ", "Claim", "all_claims", "claims_as_dicts"],
    "constants": ["CONSTANTS", "DEFAULT_TAU_S", "PhysicalConstants"],
    "linkbudget": [
        "LinkSpec", "budget_report", "coincidence_rate", "geometric_loss_db",
        "pairs_for_significance",
    ],
    "scenario": [
        "LOCAL_ARM_M", "PRESET_NAMES", "Arm", "Scenario", "ScenarioError", "Site",
        "UnknownPresetError", "detector_separation", "light_time", "load_scenario",
        "load_scenario_file", "preset", "scenario_to_dict", "scenario_to_json",
        "symmetric_scenario", "with_equalized_starts",
    ],
    "simulate": [
        "CollapseModel", "PairRecord", "SimulationResult", "SweepPoint", "derive_seed",
        "simulate", "sweep_speed",
    ],
}
# Submodules exported by name; `simulate` is exported as the function.
_SUBMODULES = ["bell", "bounds", "claims", "constants", "linkbudget", "scenario"]

_SCRIPT = """
import importlib, json, sys
exports, submodules, first = json.loads(sys.argv[1])
exec(first, {})
import moonbell
simulate_module = importlib.import_module("moonbell.simulate")
assert moonbell.simulate is simulate_module.simulate, moonbell.simulate
star = {}
exec("from moonbell import *", star)
assert sorted(star) == sorted(moonbell.__all__ + ["__builtins__"])
for module, names in exports.items():
    defining = importlib.import_module(f"moonbell.{module}")
    for name in names:
        assert star[name] is getattr(defining, name), name
        assert getattr(moonbell, name) is getattr(defining, name), name
for module in submodules:
    assert star[module] is sys.modules[f"moonbell.{module}"], module
assert moonbell.simulate is simulate_module.simulate, moonbell.simulate
"""


def test_all_is_pinned():
    import moonbell

    expected = sorted(sum(_EXPORTS.values(), []) + _SUBMODULES)
    assert len(expected) == 67
    assert sorted(moonbell.__all__) == expected


@pytest.mark.parametrize(
    "first",
    [
        "",
        "import moonbell.simulate",
        "from moonbell.simulate import derive_seed",
        "import moonbell.linkbudget",
        "from moonbell import simulate",
        "from moonbell import cli; assert cli.main(['simulate', 'gisin1999', '-n', '10']) == 0",
        "from moonbell.cli import critical_speed",
    ],
)
def test_star_import_binds_the_defining_objects(first):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps([_EXPORTS, _SUBMODULES, first])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
