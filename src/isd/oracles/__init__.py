"""Independent numeric oracles for the measure-instance claims.

Each module here computes a classical quantity (entropy, radar range,
resolution limits, sampling reconstruction, filter recursions, network
value, search lengths, failure intervals) by its own standard method so
the measure layer can be checked against it rather than against itself.

Each name below is imported from its submodule on first use (PEP 562);
only ``kalman`` and ``signals`` load numpy.
"""

import importlib

_EXPORTS = {
    "entropy": (
        "EntropyMaxReport", "EntropyResult", "ProbabilityVector",
        "shannon_entropy", "verify_entropy_max",
    ),
    "formulas": (
        "RadarParams", "radar_max_range", "rayleigh_min_angle", "metcalfe_value",
        "network_info_bounds", "mtbf_mean_duration",
    ),
    "kalman": (
        "KalmanModel", "KalmanResult", "TrackingRun", "kalman_filter",
        "kalman_reflection", "measurement_reflection", "simulate_tracking",
        "tracking_information",
    ),
    "search": (
        "SearchLibrary", "SearchResult", "asl_sequential",
        "asl_sequential_empirical", "asl_binary", "asl_binary_closed_form",
        "min_mismatch_search",
    ),
    "signals": (
        "PeriodicSignal", "ReconstructionResult", "sample_signal",
        "reconstruct_signal",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
