"""Independent numeric oracles for the measure-instance claims.

Each module here computes a classical quantity (entropy, radar range,
resolution limits, sampling reconstruction, filter recursions, network
value, search lengths, failure intervals) by its own standard method so
the measure layer can be checked against it rather than against itself.

Each name below is imported from its submodule on first use (PEP 562);
only ``kalman`` and ``signals`` load numpy.
"""

from .. import _lazy_exports

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
__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
