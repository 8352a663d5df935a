"""Exception types shared across the package.

Anything that reports a violated precondition carries enough context in its
message to identify the offending element; callers that want structured
details should catch the specific subclass.
"""

from __future__ import annotations


class ISDError(Exception):
    """Base class for every error raised by this package."""


class InvalidInformationError(ISDError):
    """An operation required a well-formed information value and got one
    that fails validation; ``violations`` holds the full report."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"information fails validation: {lines}")


class NonInvertibleError(ISDError):
    """Mapping is not injective, so no inverse exists."""


class ChainMismatchError(ISDError):
    """Adjacent links of a serial chain do not hand off to each other."""


class CombineConflictError(ISDError):
    """Two informations disagree on the reflection of a shared state."""


class EmptyInformationError(ISDError):
    """A measure was asked for on an information with no atoms."""


class NotEquivalenceError(ISDError):
    """A relation declared as an equivalence fails reflexivity, symmetry,
    or transitivity over the given states."""


class ZeroTargetMeasureError(ISDError):
    """Coverage was asked for against a target of measure zero."""


class NotACopyError(ISDError):
    """Coverage inputs must be pairwise copies of the base information."""


class IncompleteReflectionError(ISDError):
    """A reflection map does not assign an estimate to every reflection."""


class UnboundedTimeError(ISDError):
    """A time difference was requested where one endpoint is unbounded
    and no finite convention applies."""


class InsufficientSamplesError(ISDError):
    """Fewer samples than unknowns in a reconstruction fit."""


class NumericalSingularityError(ISDError):
    """A matrix needed by the filter recursion is too ill-conditioned, or
    a filter or tracking input is not finite."""


class EmptyLibraryError(ISDError):
    """A search was started over an empty library."""


class UnboundedSegmentError(ISDError):
    """A mean segment length was requested over an unbounded segment."""


class ConfigShapeError(ISDError):
    """A system configuration's declared shape does not match its stages."""


class MeasureInputError(ISDError, ValueError):
    """An input a measure cannot use: a non-positive or missing atom
    weight, a carrier reaching outside the coverage target, a symbolic
    value or values of different shapes under a numeric metric, or a
    tracking run whose steps cannot be matched with an information's pairs
    to build a reflection map."""


class MeasureRangeError(ISDError, ValueError):
    """A measure profile value outside its measure's range, which ``bound``
    names; from propagation the message names the stage and the measure."""

    bound = "finite"


class NegativeMeasureError(MeasureRangeError):
    """A measure other than Delay went below zero."""

    bound = "nonnegative"


class UnknownScenarioError(ISDError):
    """Scenario name not recognized."""


class DocumentError(ISDError):
    """Base class for model-document loading problems."""


class DocumentParseError(DocumentError):
    """The file is not syntactically valid (JSON error, bad rational,
    malformed structure); message includes position when known."""


class UnresolvedReferenceError(DocumentError):
    """A document refers to an entity, information, or measure that is
    not declared; message names the dangling identifier."""


class DocumentInvariantError(DocumentError):
    """One or more informations, relations or chains of a document are
    invalid; the aggregated violations are listed in the message."""

    def __init__(self, per_info):
        self.per_info = dict(per_info)
        lines = []
        for name, violations in self.per_info.items():
            for v in violations:
                lines.append(f"{name}: {v.message}")
        super().__init__("document invariants violated: " + "; ".join(lines))
