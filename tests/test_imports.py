"""Import hygiene: the packages export their names lazily, so importing
the exact core never loads numpy or the verification battery, and every
name the packages have always exported still resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isd
import isd.oracles

SRC = str(Path(isd.__file__).parents[1])
BUNDLED = str(Path(isd.__file__).parent / "data" / "news_pipeline.json")

# The exports of the package before they became lazy, by defining module.
ISD_EXPORTS = {
    "isd._version": ["__version__"],
    "isd.errors": [
        "ISDError", "InvalidInformationError", "NonInvertibleError",
        "ChainMismatchError", "CombineConflictError", "EmptyInformationError",
        "NotEquivalenceError", "ZeroTargetMeasureError", "NotACopyError",
        "IncompleteReflectionError", "ConfigShapeError", "UnknownScenarioError",
        "DocumentError", "DocumentParseError", "DocumentInvariantError",
        "UnresolvedReferenceError",
    ],
    "isd.timeset": ["TimeSet"],
    "isd.values": ["EntityId", "Realm", "Value", "objective", "subjective"],
    "isd.model": [
        "StateElement", "ReflectionElement", "Information", "RawMapping",
        "Violation", "Atom", "SerialChain", "validate", "is_reducible", "invert",
        "reduction_map", "check_link", "check_chain", "compose", "collapse_chain",
        "is_sub_information", "combine", "atoms", "is_copy",
    ],
    "isd.measures": [
        "ExtendedRate", "MeasureAssignment", "AtomWeighting", "Relation", "Metric",
        "volume", "delay", "scope", "granularity", "variety", "transport_relation",
        "induce_relation", "duration", "sampling_rate", "aggregation", "coverage",
        "distortion", "mismatch",
    ],
    "isd.dynamics": [
        "StageKind", "MeasureKind", "EFFICACY_MATRIX", "stage_efficacies", "Shape",
        "classify_config", "MeasureTransform", "StageSpec", "SystemConfig",
        "config_efficacies", "validate_config", "MeasureProfile",
        "PropagationResult", "propagate",
    ],
    "isd.document": [
        "ModelDocument", "BoundRelation", "NamedChain", "load_document",
        "loads_document", "emit_document", "save_document",
    ],
    "isd.scenario": ["build_news_pipeline", "run_scenario"],
    "isd.verify": ["run_verify"],
}

ORACLES_EXPORTS = {
    "isd.oracles.entropy": [
        "EntropyMaxReport", "EntropyResult", "ProbabilityVector",
        "shannon_entropy", "verify_entropy_max",
    ],
    "isd.oracles.formulas": [
        "RadarParams", "radar_max_range", "rayleigh_min_angle", "metcalfe_value",
        "network_info_bounds", "mtbf_mean_duration",
    ],
    "isd.oracles.kalman": [
        "KalmanModel", "KalmanResult", "TrackingRun", "kalman_filter",
        "kalman_reflection", "measurement_reflection", "simulate_tracking",
        "tracking_information",
    ],
    "isd.oracles.search": [
        "SearchLibrary", "SearchResult", "asl_sequential",
        "asl_sequential_empirical", "asl_binary", "asl_binary_closed_form",
        "min_mismatch_search",
    ],
    "isd.oracles.signals": [
        "PeriodicSignal", "ReconstructionResult", "sample_signal",
        "reconstruct_signal",
    ],
}

PACKAGES = [(isd, ISD_EXPORTS), (isd.oracles, ORACLES_EXPORTS)]


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "module", ["isd", "isd.model", "isd.document", "isd.oracles.search", "isd.cli"]
)
def test_import_does_not_load_numpy(module):
    proc = fresh_python(
        "-c", f"import sys, {module}; print('numpy' in sys.modules, 'isd.verify' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_analyze_does_not_load_numpy():
    code = (
        "import sys\n"
        "from isd.cli import main\n"
        "code = main(['analyze', sys.argv[1]])\n"
        "print('numpy loaded:', 'numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = fresh_python("-c", code, BUNDLED)
    assert proc.returncode == 0, proc.stderr
    assert "efficacy grid" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"


def test_import_trace_has_no_numpy_or_verify():
    proc = fresh_python("-X", "importtime", "-c", "import isd")
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "isd" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []
    assert "isd.verify" not in imported


@pytest.mark.parametrize("package, exports", PACKAGES, ids=["isd", "isd.oracles"])
def test_every_export_resolves_to_its_defining_object(package, exports):
    names = {n for ns in exports.values() for n in ns}
    assert set(package.__all__) == names
    assert len(package.__all__) == len(names)
    for module, ns in exports.items():
        owner = importlib.import_module(module)
        for name in ns:
            assert getattr(package, name) is getattr(owner, name), name
    assert names <= set(dir(package))


@pytest.mark.parametrize("package", [isd, isd.oracles], ids=["isd", "isd.oracles"])
def test_unknown_name_is_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})


@pytest.mark.parametrize("package", [isd, isd.oracles], ids=["isd", "isd.oracles"])
def test_star_import_binds_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)
