"""Which pipeline stages can move which measures, and how values flow.

A running system is a ring of stages around a working core: collection
brings information in, transmission moves it, processing reshapes it,
the data space holds it, exertion puts it to work.  Each stage kind can
affect a fixed subset of the eleven measures; a whole configuration can
affect the union of its stages' subsets, minus measures whose effect
needs a stage kind the configuration lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence, Union

from .errors import ConfigShapeError, MeasureRangeError, NegativeMeasureError
from .measures import ExtendedRate
from .timeset import Rational


class StageKind(Enum):
    COLLECTION = "Collection"
    TRANSMISSION = "Transmission"
    PROCESSING = "Processing"
    DATA_SPACE = "DataSpace"
    EXERTION = "Exertion"


class MeasureKind(Enum):
    VOLUME = "Volume"
    DELAY = "Delay"
    SCOPE = "Scope"
    GRANULARITY = "Granularity"
    VARIETY = "Variety"
    DURATION = "Duration"
    SAMPLING_RATE = "SamplingRate"
    AGGREGATION = "Aggregation"
    COVERAGE = "Coverage"
    DISTORTION = "Distortion"
    MISMATCH = "Mismatch"


ALL_MEASURES = tuple(MeasureKind)

# Every stage can move volume, delay, variety, duration, sampling rate,
# distortion, and mismatch.  A pure transport hop neither widens what the
# information is about nor changes the units it describes, so transmission
# cannot move scope or granularity.  Collection produces the one original,
# so it cannot move aggregation (no relations built yet) or coverage (no
# copies exist yet).
_EXEMPT: dict[StageKind, frozenset[MeasureKind]] = {
    StageKind.COLLECTION: frozenset({MeasureKind.AGGREGATION, MeasureKind.COVERAGE}),
    StageKind.TRANSMISSION: frozenset({MeasureKind.SCOPE, MeasureKind.GRANULARITY}),
    StageKind.PROCESSING: frozenset(),
    StageKind.DATA_SPACE: frozenset(),
    StageKind.EXERTION: frozenset(),
}

EFFICACY_MATRIX: dict[StageKind, frozenset[MeasureKind]] = {
    kind: frozenset(ALL_MEASURES) - exempt for kind, exempt in _EXEMPT.items()
}


def stage_efficacies(kind: StageKind) -> frozenset[MeasureKind]:
    """The measures a stage of this kind can move."""
    return EFFICACY_MATRIX[kind]


class Shape(Enum):
    SINGLE_RING = "SingleRing"
    DOUBLE_CTE = "DoubleCTE"
    DOUBLE_CPE = "DoubleCPE"
    DOUBLE_CDE = "DoubleCDE"
    TRIPLE_CTPTE = "TripleCTPTE"
    TRIPLE_CTDTE = "TripleCTDTE"
    TRIPLE_CPDPE = "TripleCPDPE"
    FULL_TRIPLE_RING_CORE = "FullTripleRingCore"
    CUSTOM = "Custom"


_C = StageKind.COLLECTION
_T = StageKind.TRANSMISSION
_P = StageKind.PROCESSING
_D = StageKind.DATA_SPACE
_E = StageKind.EXERTION

SHAPE_SEQUENCES: dict[Shape, tuple[StageKind, ...]] = {
    Shape.SINGLE_RING: (_C, _E),
    Shape.DOUBLE_CTE: (_C, _T, _E),
    Shape.DOUBLE_CPE: (_C, _P, _E),
    Shape.DOUBLE_CDE: (_C, _D, _E),
    Shape.TRIPLE_CTPTE: (_C, _T, _P, _T, _E),
    Shape.TRIPLE_CTDTE: (_C, _T, _D, _T, _E),
    Shape.TRIPLE_CPDPE: (_C, _P, _D, _P, _E),
    Shape.FULL_TRIPLE_RING_CORE: (_C, _T, _P, _D, _P, _T, _E),
}


def classify_config(kinds: Sequence[StageKind]) -> Shape:
    """Match a stage-kind sequence against the named configurations."""
    kinds = tuple(kinds)
    for shape, seq in SHAPE_SEQUENCES.items():
        if kinds == seq:
            return shape
    return Shape.CUSTOM


@dataclass(frozen=True)
class MeasureTransform:
    """How one stage moves one measure: add a rational delta, clamp to a
    nonnegative cap, scale by a nonnegative rational factor, set outright,
    or leave alone.  Every amount but identity's is an ExtendedRate."""

    kind: str
    amount: Union[Rational, ExtendedRate, None] = None

    _KINDS = ("add", "clamp_max", "scale", "set_to", "identity")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown transform kind: {self.kind!r}")
        if self.kind == "identity":
            if self.amount is not None:
                raise ValueError("identity takes no amount")
            return
        if self.amount is None:
            raise ValueError(f"{self.kind} needs an amount")
        amount = ExtendedRate.of(self.amount)
        if amount.is_infinite and self.kind in ("add", "scale"):
            raise ValueError(f"{self.kind} amount must be a rational")
        if amount < 0 and self.kind in ("clamp_max", "scale"):
            raise ValueError(f"{self.kind} amount must be nonnegative")
        object.__setattr__(self, "amount", amount)

    @classmethod
    def add(cls, delta: Rational) -> "MeasureTransform":
        return cls("add", delta)

    @classmethod
    def clamp_max(cls, cap: Union[Rational, ExtendedRate]) -> "MeasureTransform":
        return cls("clamp_max", cap)

    @classmethod
    def scale(cls, factor: Rational) -> "MeasureTransform":
        return cls("scale", factor)

    @classmethod
    def set_to(cls, value: Union[Rational, ExtendedRate]) -> "MeasureTransform":
        return cls("set_to", value)

    @classmethod
    def identity(cls) -> "MeasureTransform":
        return cls("identity")


def _apply_transform(t: MeasureTransform, v: ExtendedRate) -> ExtendedRate:
    if t.kind == "add":
        return v.plus(t.amount.value)
    if t.kind == "scale":
        return v.scaled(t.amount.value)
    if t.kind == "clamp_max":
        return v.clamped(t.amount)
    if t.kind == "set_to":
        return t.amount
    raise AssertionError(t.kind)


@dataclass(frozen=True)
class StageSpec:
    """One stage: a label, its kind, and its declared measure transforms."""

    name: str
    kind: StageKind
    transforms: Mapping[MeasureKind, MeasureTransform] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, StageKind):
            raise TypeError(f"stage kind must be a StageKind, got {self.kind!r}")
        transforms = dict(self.transforms)
        for k, t in transforms.items():
            if not isinstance(k, MeasureKind):
                raise TypeError(f"transform keys must be MeasureKind, got {k!r}")
            if not isinstance(t, MeasureTransform):
                raise TypeError(
                    f"transform for {k.value} must be a MeasureTransform, got {t!r}"
                )
        object.__setattr__(self, "transforms", transforms)


@dataclass(frozen=True)
class SystemConfig:
    """A named pipeline: ordered stages plus the shape they claim."""

    name: str
    stages: tuple[StageSpec, ...]
    shape: Shape = Shape.CUSTOM

    def __post_init__(self):
        if not isinstance(self.shape, Shape):
            raise TypeError(f"config shape must be a Shape, got {self.shape!r}")
        object.__setattr__(self, "stages", tuple(self.stages))

    def kinds(self) -> tuple[StageKind, ...]:
        return tuple(s.kind for s in self.stages)


def config_efficacies(config: SystemConfig) -> frozenset[MeasureKind]:
    """Measures the whole configuration can move: the union over stages,
    except that aggregation needs a processing or data-space stage to
    come into being and coverage needs a transmission stage to spread
    copies; without those the measure drops out end to end."""
    out = set()
    for stage in config.stages:
        out |= stage_efficacies(stage.kind)
    kinds = set(config.kinds())
    if not kinds & {StageKind.PROCESSING, StageKind.DATA_SPACE}:
        out.discard(MeasureKind.AGGREGATION)
    if StageKind.TRANSMISSION not in kinds:
        out.discard(MeasureKind.COVERAGE)
    return frozenset(out)


def validate_config(config: SystemConfig) -> list[str]:
    """Hard error when the declared shape does not match the stage kinds;
    returns warnings for transforms declared where the matrix denies the
    stage any effect (those are forced to identity when propagating)."""
    if config.shape is not Shape.CUSTOM:
        expected = SHAPE_SEQUENCES[config.shape]
        if config.kinds() != expected:
            want = ", ".join(k.value for k in expected)
            got = ", ".join(k.value for k in config.kinds())
            raise ConfigShapeError(
                f"{config.name!r} declares {config.shape.value} "
                f"(stages {want}) but has stages {got}"
            )
    warnings = []
    for stage in config.stages:
        allowed = stage_efficacies(stage.kind)
        for measure in sorted(stage.transforms, key=lambda m: m.value):
            if measure not in allowed:
                warnings.append(
                    f"matrix violation: {stage.kind.value} lacks {measure.value} "
                    f"(stage {stage.name!r}); transform will be ignored"
                )
    return warnings


# Every measure but sampling rate starts at zero; sampling rate starts
# infinite, as nothing has been sampled away yet.
DEFAULT_PROFILE: dict[MeasureKind, ExtendedRate] = {
    m: ExtendedRate.infinite() if m is MeasureKind.SAMPLING_RATE else ExtendedRate.finite(0)
    for m in ALL_MEASURES
}

# Only delay may be negative (a prediction), and only sampling rate and
# duration may be infinite (a gap-free or an unbounded occurrence).
_MAY_BE_INFINITE = frozenset({MeasureKind.SAMPLING_RATE, MeasureKind.DURATION})


def _in_range(k: MeasureKind, v: ExtendedRate) -> ExtendedRate:
    """``v``, if measure ``k`` may take it."""
    if not isinstance(k, MeasureKind):
        raise TypeError(f"profile keys must be MeasureKind, got {k!r}")
    if v.value is None:
        if k not in _MAY_BE_INFINITE:
            raise MeasureRangeError(f"{k.value} must be {MeasureRangeError.bound}")
    elif v.value < 0 and k is not MeasureKind.DELAY:
        raise NegativeMeasureError(f"{k.value} must be {NegativeMeasureError.bound}")
    return v


@dataclass(frozen=True)
class MeasureProfile:
    """A value for each of the eleven measures, every one an ExtendedRate;
    a measure left out takes its ``DEFAULT_PROFILE`` value.

    Each measure has one range: only Delay may be negative (a prediction),
    and only SamplingRate and Duration may be infinite.  A value outside
    its range raises ``MeasureRangeError`` (``NegativeMeasureError`` below
    zero).
    """

    values: Mapping[MeasureKind, Union[Rational, ExtendedRate]]

    def __post_init__(self):
        filled = dict(DEFAULT_PROFILE)
        for k, v in dict(self.values).items():
            filled[k] = _in_range(k, ExtendedRate.of(v))
        object.__setattr__(self, "values", filled)

    def __getitem__(self, k: MeasureKind) -> ExtendedRate:
        return self.values[k]

    def replace(self, k: MeasureKind, v: Union[Rational, ExtendedRate]) -> "MeasureProfile":
        """This profile with measure ``k`` set to ``v``; only ``v`` is checked."""
        values = dict(self.values)
        values[k] = _in_range(k, ExtendedRate.of(v))
        out = object.__new__(type(self))
        object.__setattr__(out, "values", values)
        return out


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
class PropagationResult:
    stage_profiles: tuple[MeasureProfile, ...]
    end: MeasureProfile
    warnings: tuple[str, ...]


def propagate(config: SystemConfig, source: MeasureProfile) -> PropagationResult:
    """Fold the source profile through the stages left to right.

    A transform only acts when its stage kind has the efficacy and the
    configuration as a whole retains the measure; otherwise it is forced
    to identity.  The warnings are those of ``validate_config`` followed by
    one per transform the configuration as a whole cannot apply.  Delay
    adds exactly; capped measures never exceed the smallest upstream
    clamp.  A value outside its measure's range raises the profile's
    ``MeasureRangeError``, reworded to name the stage.
    """
    warnings = validate_config(config)
    retained = config_efficacies(config)
    caps: dict[MeasureKind, ExtendedRate] = {}
    profile = source
    per_stage = []
    for stage in config.stages:
        allowed = stage_efficacies(stage.kind)
        for measure in ALL_MEASURES:
            t = stage.transforms.get(measure)
            if t is None or t.kind == "identity" or measure not in allowed:
                continue  # validate_config warned of a matrix violation
            if measure not in retained:
                warnings.append(
                    f"stage {stage.name!r}: configuration cannot move "
                    f"{measure.value}; transform suppressed"
                )
                continue
            v = _apply_transform(t, profile[measure])
            if measure in _CAPPED:
                if t.kind == "clamp_max":
                    caps[measure] = min(caps.get(measure, t.amount), t.amount)
                if measure in caps:
                    v = v.clamped(caps[measure])
            try:
                profile = profile.replace(measure, v)
            except MeasureRangeError as e:
                raise type(e)(
                    f"stage {stage.name!r} drives {measure.value} to {v}; "
                    f"it must be {e.bound}"
                ) from e
        per_stage.append(profile)
    return PropagationResult(
        stage_profiles=tuple(per_stage), end=profile, warnings=tuple(warnings)
    )
