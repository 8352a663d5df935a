"""Exact-arithmetic toolkit for state-to-reflection information models:
the sextuple data model, eleven measures, stage dynamics, documents, and
verification batteries.

Each name below is imported from its submodule on first use (PEP 562),
so ``import isd`` loads neither numpy nor the verification battery.
"""

import importlib

from ._version import __version__

_EXPORTS = {
    "errors": (
        "ISDError", "InvalidInformationError", "NonInvertibleError",
        "ChainMismatchError", "CombineConflictError", "EmptyInformationError",
        "NotEquivalenceError", "ZeroTargetMeasureError", "NotACopyError",
        "IncompleteReflectionError", "ConfigShapeError", "UnknownScenarioError",
        "DocumentError", "DocumentParseError", "DocumentInvariantError",
        "UnresolvedReferenceError",
    ),
    "timeset": ("TimeSet",),
    "values": ("EntityId", "Realm", "Value", "objective", "subjective"),
    "model": (
        "StateElement", "ReflectionElement", "Information", "RawMapping",
        "Violation", "Atom", "SerialChain", "validate", "is_reducible", "invert",
        "reduction_map", "check_link", "check_chain", "compose", "collapse_chain",
        "is_sub_information", "combine", "atoms", "is_copy",
    ),
    "measures": (
        "ExtendedRate", "MeasureAssignment", "AtomWeighting", "Relation", "Metric",
        "volume", "delay", "scope", "granularity", "variety", "transport_relation",
        "induce_relation", "duration", "sampling_rate", "aggregation", "coverage",
        "distortion", "mismatch",
    ),
    "dynamics": (
        "StageKind", "MeasureKind", "EFFICACY_MATRIX", "stage_efficacies", "Shape",
        "classify_config", "MeasureTransform", "StageSpec", "SystemConfig",
        "config_efficacies", "validate_config", "MeasureProfile",
        "PropagationResult", "propagate",
    ),
    "document": (
        "ModelDocument", "BoundRelation", "NamedChain", "load_document",
        "loads_document", "emit_document", "save_document",
    ),
    "scenario": ("build_news_pipeline", "run_scenario"),
    "verify": ("run_verify",),
}


def _lazy_exports(namespace: dict, exports: dict, extra=()):
    """A package's PEP 562 ``__all__``, ``__getattr__`` and ``__dir__``:
    each name of ``exports`` (submodule to names) is imported from its
    submodule on first use and kept in the package's ``namespace``."""
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{owner[name]}", package), name)
        namespace[name] = value
        return value

    names = [*extra, *owner]
    return names, __getattr__, lambda: sorted(set(namespace) | set(names))


__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS, ["__version__"])
