"""The package's measure-profile fold before profiles held one number
type, kept verbatim as a reference: ``ExtendedRate`` as a nonnegative
rational extended with +infinity, ``MeasureTransform``, ``MeasureProfile``
and ``propagate``.

Here a profile value is a ``Fraction`` or an ``ExtendedRate`` depending on
which transform wrote it last; ``isd.dynamics`` keeps every value an
``ExtendedRate`` and checks one range per measure.  ``StageSpec`` is the
unchecked seed stage, so that a stage can hold the reference transforms;
the package's ``SystemConfig`` holds such stages.  The property test
checks that both folds give the same per-stage and end profiles and the
same ``NegativeMeasureError`` messages.  The one intended difference: an
infinite value outside SamplingRate and Duration passes here and is
refused by ``isd.dynamics``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

from isd.dynamics import (
    ALL_MEASURES,
    MeasureKind,
    StageKind,
    SystemConfig,
    config_efficacies,
    stage_efficacies,
    validate_config,
)
from isd.errors import NegativeMeasureError
from isd.timeset import Rational, as_fraction


@functools.total_ordering
class ExtendedRate:
    """A nonnegative rational extended with +infinity.

    Used where a measure can be genuinely infinite: the sampling rate of
    a gap-free occurrence and the duration of an unbounded one.  Finite
    instances compare and test equal against plain rationals.
    """

    __slots__ = ("value",)

    def __init__(self, value: Fraction | None):
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("ExtendedRate is immutable")

    @classmethod
    def finite(cls, q: Rational) -> "ExtendedRate":
        q = as_fraction(q)
        if q < 0:
            raise ValueError("rate must be nonnegative")
        return cls(q)

    @classmethod
    def infinite(cls) -> "ExtendedRate":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _coerce(self, other):
        if isinstance(other, ExtendedRate):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtendedRate.finite(Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __hash__(self):
        # a finite rate equals its rational, so it must hash like it
        return hash(self.value)

    def plus(self, q: Rational) -> "ExtendedRate":
        """Add a rational; a sum below zero raises ValueError."""
        if self.value is None:
            return self
        return ExtendedRate.finite(self.value + as_fraction(q))

    def scaled(self, k: Rational) -> "ExtendedRate":
        k = as_fraction(k)
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        if self.value is None:
            return self if k != 0 else ExtendedRate.finite(0)
        return ExtendedRate(self.value * k)

    def clamped(self, cap: "ExtendedRate") -> "ExtendedRate":
        return self if self <= cap else cap

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return f"ExtendedRate({self})"


@dataclass(frozen=True)
class MeasureTransform:
    """How one stage moves one measure: add a delta, clamp to a cap,
    scale by a nonnegative factor, set outright, or leave alone."""

    kind: str
    amount: Union[Fraction, ExtendedRate, None] = None

    _KINDS = ("add", "clamp_max", "scale", "set_to", "identity")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown transform kind: {self.kind!r}")
        amount = self.amount
        if self.kind == "identity":
            if amount is not None:
                raise ValueError("identity takes no amount")
        else:
            if amount is None:
                raise ValueError(f"{self.kind} needs an amount")
            if isinstance(amount, ExtendedRate):
                if self.kind in ("add", "scale"):
                    raise ValueError(f"{self.kind} amount must be a rational")
            elif self.kind == "clamp_max":
                amount = ExtendedRate.finite(amount)  # a negative cap fails here
            else:
                amount = as_fraction(amount)
            if self.kind == "scale" and amount < 0:
                raise ValueError("scale factor must be a nonnegative rational")
            object.__setattr__(self, "amount", amount)

    @classmethod
    def add(cls, delta: Rational) -> "MeasureTransform":
        return cls("add", as_fraction(delta))

    @classmethod
    def clamp_max(cls, cap: Union[Rational, ExtendedRate]) -> "MeasureTransform":
        return cls("clamp_max", cap)

    @classmethod
    def scale(cls, factor: Rational) -> "MeasureTransform":
        return cls("scale", as_fraction(factor))

    @classmethod
    def set_to(cls, value: Union[Rational, ExtendedRate]) -> "MeasureTransform":
        return cls("set_to", value)

    @classmethod
    def identity(cls) -> "MeasureTransform":
        return cls("identity")


ProfileValue = Union[Fraction, ExtendedRate]


def _apply_transform(t: MeasureTransform, v: ProfileValue) -> ProfileValue:
    if t.kind == "identity":
        return v
    if t.kind == "add":
        if isinstance(v, ExtendedRate):
            return v.plus(t.amount)
        return v + t.amount
    if t.kind == "scale":
        if isinstance(v, ExtendedRate):
            return v.scaled(t.amount)
        return v * t.amount
    if t.kind == "set_to":
        return t.amount
    if t.kind == "clamp_max":
        return _clamp_value(v, t.amount)
    raise AssertionError(t.kind)


DEFAULT_PROFILE: dict[MeasureKind, ProfileValue] = {
    MeasureKind.VOLUME: Fraction(0),
    MeasureKind.DELAY: Fraction(0),
    MeasureKind.SCOPE: Fraction(0),
    MeasureKind.GRANULARITY: Fraction(0),
    MeasureKind.VARIETY: Fraction(0),
    MeasureKind.DURATION: Fraction(0),
    MeasureKind.SAMPLING_RATE: ExtendedRate.infinite(),
    MeasureKind.AGGREGATION: Fraction(0),
    MeasureKind.COVERAGE: Fraction(0),
    MeasureKind.DISTORTION: Fraction(0),
    MeasureKind.MISMATCH: Fraction(0),
}


@dataclass(frozen=True)
class MeasureProfile:
    """A value for each of the eleven measures.  Delay may be negative
    (prediction); sampling rate and duration may be infinite."""

    values: Mapping[MeasureKind, ProfileValue]

    def __post_init__(self):
        filled: dict[MeasureKind, ProfileValue] = dict(DEFAULT_PROFILE)
        for k, v in dict(self.values).items():
            if not isinstance(k, MeasureKind):
                raise TypeError(f"profile keys must be MeasureKind, got {k!r}")
            if not isinstance(v, ExtendedRate):
                v = as_fraction(v)
                if k is not MeasureKind.DELAY and v < 0:
                    raise ValueError(f"{k.value} must be nonnegative")
            filled[k] = v
        object.__setattr__(self, "values", filled)

    def __getitem__(self, k: MeasureKind) -> ProfileValue:
        return self.values[k]

    def replace(self, k: MeasureKind, v: ProfileValue) -> "MeasureProfile":
        out = dict(self.values)
        out[k] = v
        return MeasureProfile(out)


# Measures whose propagated value must never exceed a cap once some
# upstream stage imposed one: a later stage cannot re-create capacity,
# sampling density, variety, or recorded span that an earlier bottleneck
# already discarded.
_CAPPED = frozenset(
    {
        MeasureKind.VOLUME,
        MeasureKind.SAMPLING_RATE,
        MeasureKind.VARIETY,
        MeasureKind.DURATION,
    }
)


@dataclass(frozen=True)
class StageSpec:
    """One stage: a label, its kind, and its declared measure transforms.

    The package's ``StageSpec`` refuses a transform that is not its own
    ``MeasureTransform``; this one holds the reference transforms above."""

    name: str
    kind: StageKind
    transforms: Mapping[MeasureKind, MeasureTransform] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "transforms", dict(self.transforms))


@dataclass(frozen=True)
class PropagationResult:
    stage_profiles: tuple[MeasureProfile, ...]
    end: MeasureProfile
    warnings: tuple[str, ...]


def propagate(config: SystemConfig, source: MeasureProfile) -> PropagationResult:
    """Fold the source profile through the stages left to right.

    A transform only acts when its stage kind has the efficacy and the
    configuration as a whole retains the measure; otherwise it is forced
    to identity and a warning is recorded.  Delay adds exactly; capped
    measures never exceed the smallest upstream clamp.
    """
    validate_config(config)
    retained = config_efficacies(config)
    warnings: list[str] = []
    caps: dict[MeasureKind, ExtendedRate] = {}
    profile = source
    per_stage = []
    for stage in config.stages:
        allowed = stage_efficacies(stage.kind)
        for measure in ALL_MEASURES:
            t = stage.transforms.get(measure)
            if t is None or t.kind == "identity":
                continue
            if measure not in allowed:
                warnings.append(
                    f"stage {stage.name!r}: {stage.kind.value} lacks "
                    f"{measure.value} efficacy; transform suppressed"
                )
                continue
            if measure not in retained:
                warnings.append(
                    f"stage {stage.name!r}: configuration cannot move "
                    f"{measure.value}; transform suppressed"
                )
                continue
            old = profile[measure]
            try:
                v = _apply_transform(t, old)
            except ValueError:  # ExtendedRate.plus refuses a sum below zero
                v = old.value + t.amount
            if measure in _CAPPED:
                if t.kind == "clamp_max":
                    caps[measure] = min(caps.get(measure, t.amount), t.amount)
                if measure in caps:
                    v = _clamp_value(v, caps[measure])
            try:
                profile = profile.replace(measure, v)
            except ValueError as e:
                raise NegativeMeasureError(
                    f"stage {stage.name!r} drives {measure.value} to {v}; "
                    "it must be nonnegative"
                ) from e
        per_stage.append(profile)
    return PropagationResult(
        stage_profiles=tuple(per_stage), end=profile, warnings=tuple(warnings)
    )


def _clamp_value(v: ProfileValue, cap: ExtendedRate) -> ProfileValue:
    if isinstance(v, ExtendedRate):
        return v.clamped(cap)
    if cap.is_infinite:
        return v
    return min(v, cap.value)
