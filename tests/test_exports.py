"""The package's public names, whichever moonbell module loads first.

`moonbell.document`, `moonbell.scales`, `moonbell.simulate`,
`moonbell.sweep` and `moonbell.linkbudget` load on first access, and the import system binds a
newly loaded submodule onto its package. So each case runs in a fresh
interpreter and checks that every exported name, `simulate` above all, is
still the object its defining module holds.
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
        "ArmTiming", "SpeedBound", "cadence_threshold", "critical_speed", "gain_factor",
        "kappa", "proper_time_correction", "scenario_timing", "speed_bound",
    ],
    "claims": ["PUBLISHED_CADENCE_THRESHOLD_HZ", "Claim", "all_claims", "claims_as_dicts"],
    "constants": ["CONSTANTS", "DEFAULT_TAU_S", "PhysicalConstants"],
    "document": ["load_scenario", "load_scenario_file", "scenario_to_dict", "scenario_to_json"],
    "linkbudget": [
        "LinkSpec", "budget_report", "coincidence_rate", "geometric_loss_db",
        "pairs_for_significance",
    ],
    "scales": [
        "EARTH_MOON_WINDOW", "MOND_SCALE_M", "AprioriCandidate", "ObservationWindow",
        "apriori_scales", "classify_scale", "mond_candidate",
    ],
    "scenario": [
        "LOCAL_ARM_M", "PRESET_NAMES", "Arm", "Scenario", "ScenarioError", "Site",
        "UnknownPresetError", "detector_separation", "light_time", "preset",
        "symmetric_scenario", "with_equalized_starts",
    ],
    "simulate": ["CollapseModel", "PairRecord", "SimulationResult", "derive_seed", "simulate"],
    "sweep": ["SweepPoint", "sweep_speed"],
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
        "import moonbell.scales",
        "import moonbell.sweep",
        "from moonbell.cli import load_scenario_file",
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


_CLI_SCRIPT = """
import moonbell
from moonbell import cli
for name in moonbell._LAZY:
    assert getattr(cli, name) is getattr(moonbell, name), name
for name in ("nosuch", "chsh_value", "__path__"):
    try:
        getattr(cli, name)
    except AttributeError as exc:
        assert "'moonbell.cli'" in str(exc), exc
    else:
        raise AssertionError(name)
"""


def test_cli_binds_exactly_the_packages_lazy_names():
    proc = subprocess.run([sys.executable, "-c", _CLI_SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
