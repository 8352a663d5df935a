"""Stage efficacies, configuration shapes, and profile propagation."""

from fractions import Fraction

import pytest

from isd.dynamics import (
    ALL_MEASURES,
    MeasureKind,
    MeasureProfile,
    MeasureTransform,
    Shape,
    StageKind,
    StageSpec,
    SystemConfig,
    classify_config,
    config_efficacies,
    propagate,
    stage_efficacies,
    validate_config,
)
from isd.errors import ConfigShapeError, ISDError, MeasureRangeError, NegativeMeasureError
from isd.measures import ExtendedRate

M = MeasureKind
K = StageKind


def _config(shape, names=None):
    from isd.dynamics import SHAPE_SEQUENCES

    kinds = SHAPE_SEQUENCES[shape]
    names = names or [f"s{i}" for i in range(len(kinds))]
    return SystemConfig(
        "rig", tuple(StageSpec(n, k) for n, k in zip(names, kinds)), shape
    )


# -- efficacy matrix ----------------------------------------------------------


def test_stage_efficacy_counts():
    assert len(stage_efficacies(K.COLLECTION)) == 9
    assert len(stage_efficacies(K.TRANSMISSION)) == 9
    assert len(stage_efficacies(K.PROCESSING)) == 11
    assert len(stage_efficacies(K.DATA_SPACE)) == 11
    assert len(stage_efficacies(K.EXERTION)) == 11


def test_stage_efficacy_exempt_sets():
    every = frozenset(ALL_MEASURES)
    assert stage_efficacies(K.COLLECTION) == every - {M.AGGREGATION, M.COVERAGE}
    assert stage_efficacies(K.TRANSMISSION) == every - {M.SCOPE, M.GRANULARITY}
    assert stage_efficacies(K.PROCESSING) == every
    assert stage_efficacies(K.DATA_SPACE) == every
    assert stage_efficacies(K.EXERTION) == every


def test_config_efficacies_all_shapes():
    every = frozenset(ALL_MEASURES)
    got = {
        shape: config_efficacies(_config(shape))
        for shape in (
            Shape.SINGLE_RING,
            Shape.DOUBLE_CTE,
            Shape.DOUBLE_CPE,
            Shape.DOUBLE_CDE,
            Shape.TRIPLE_CTPTE,
            Shape.TRIPLE_CTDTE,
            Shape.TRIPLE_CPDPE,
            Shape.FULL_TRIPLE_RING_CORE,
        )
    }
    assert got[Shape.SINGLE_RING] == every - {M.AGGREGATION, M.COVERAGE}
    assert got[Shape.DOUBLE_CTE] == every - {M.AGGREGATION}
    assert got[Shape.DOUBLE_CPE] == every - {M.COVERAGE}
    assert got[Shape.DOUBLE_CDE] == every - {M.COVERAGE}
    assert got[Shape.TRIPLE_CTPTE] == every
    assert got[Shape.TRIPLE_CTDTE] == every
    assert got[Shape.TRIPLE_CPDPE] == every - {M.COVERAGE}
    assert got[Shape.FULL_TRIPLE_RING_CORE] == every
    assert {s: len(v) for s, v in got.items()} == {
        Shape.SINGLE_RING: 9,
        Shape.DOUBLE_CTE: 10,
        Shape.DOUBLE_CPE: 10,
        Shape.DOUBLE_CDE: 10,
        Shape.TRIPLE_CTPTE: 11,
        Shape.TRIPLE_CTDTE: 11,
        Shape.TRIPLE_CPDPE: 10,
        Shape.FULL_TRIPLE_RING_CORE: 11,
    }


def test_classify_config():
    assert classify_config((K.COLLECTION, K.EXERTION)) is Shape.SINGLE_RING
    assert (
        classify_config(
            (K.COLLECTION, K.TRANSMISSION, K.PROCESSING, K.DATA_SPACE,
             K.PROCESSING, K.TRANSMISSION, K.EXERTION)
        )
        is Shape.FULL_TRIPLE_RING_CORE
    )
    assert classify_config((K.EXERTION, K.COLLECTION)) is Shape.CUSTOM
    assert classify_config(()) is Shape.CUSTOM


# -- transforms and profiles --------------------------------------------------


def test_transform_validation():
    with pytest.raises(ValueError):
        MeasureTransform("warp", Fraction(1))
    with pytest.raises(ValueError):
        MeasureTransform("add", None)
    with pytest.raises(ValueError):
        MeasureTransform("identity", Fraction(1))
    with pytest.raises(ValueError):
        MeasureTransform.scale(Fraction(-1))
    with pytest.raises(ValueError):
        MeasureTransform.clamp_max(-1)
    with pytest.raises(ValueError):
        MeasureTransform("add", ExtendedRate.infinite())
    assert isinstance(MeasureTransform.clamp_max(4).amount, ExtendedRate)
    assert MeasureTransform.add("1/2").amount == Fraction(1, 2)
    assert MeasureTransform.set_to(ExtendedRate.infinite()).amount.is_infinite


def test_profile_defaults_and_validation():
    p = MeasureProfile({})
    assert p[M.VOLUME] == 0
    assert p[M.SAMPLING_RATE].is_infinite
    q = MeasureProfile({M.DELAY: Fraction(-3)})
    assert q[M.DELAY] == -3
    with pytest.raises(ValueError):
        MeasureProfile({M.VOLUME: Fraction(-1)})
    r = MeasureProfile({M.DURATION: ExtendedRate.infinite(), M.SAMPLING_RATE: 2})
    assert r[M.DURATION].is_infinite and r[M.SAMPLING_RATE] == 2
    assert all(type(v) is ExtendedRate for v in r.values.values())
    for measure in (M.VOLUME, M.DELAY):
        with pytest.raises(MeasureRangeError, match=f"{measure.value} must be finite"):
            MeasureProfile({measure: ExtendedRate.infinite()})
    with pytest.raises(TypeError):
        MeasureProfile({"Volume": Fraction(1)})


def test_validate_config_shape_mismatch():
    bad = SystemConfig(
        "liar",
        (StageSpec("a", K.COLLECTION), StageSpec("b", K.PROCESSING)),
        Shape.SINGLE_RING,
    )
    with pytest.raises(ConfigShapeError):
        validate_config(bad)
    assert validate_config(_config(Shape.SINGLE_RING)) == []


def test_validate_config_matrix_warnings():
    rig = SystemConfig(
        "rig",
        (
            StageSpec(
                "cap",
                K.COLLECTION,
                {M.COVERAGE: MeasureTransform.add(1)},
            ),
            StageSpec("out", K.EXERTION),
        ),
        Shape.SINGLE_RING,
    )
    warnings = validate_config(rig)
    assert len(warnings) == 1
    assert "Coverage" in warnings[0] and "Collection" in warnings[0]


# -- propagation --------------------------------------------------------------


def test_propagate_delay_adds_exactly():
    config = SystemConfig(
        "chain",
        (
            StageSpec("c", K.COLLECTION, {M.DELAY: MeasureTransform.add(Fraction(1, 3))}),
            StageSpec("t", K.TRANSMISSION, {M.DELAY: MeasureTransform.add(Fraction(1, 6))}),
            StageSpec("e", K.EXERTION, {M.DELAY: MeasureTransform.add(Fraction(1, 2))}),
        ),
        Shape.DOUBLE_CTE,
    )
    out = propagate(config, MeasureProfile({M.DELAY: Fraction(1)}))
    assert out.end[M.DELAY] == 2
    assert [p[M.DELAY] for p in out.stage_profiles] == [
        Fraction(4, 3),
        Fraction(3, 2),
        Fraction(2),
    ]
    assert out.warnings == ()


def test_propagate_suppresses_stage_violations():
    config = SystemConfig(
        "rig",
        (
            StageSpec("c", K.COLLECTION),
            StageSpec(
                "t", K.TRANSMISSION, {M.SCOPE: MeasureTransform.add(5)}
            ),
            StageSpec("e", K.EXERTION),
        ),
        Shape.DOUBLE_CTE,
    )
    out = propagate(config, MeasureProfile({M.SCOPE: Fraction(2)}))
    assert out.end[M.SCOPE] == 2  # untouched
    assert any("lacks Scope" in w for w in out.warnings)


def test_propagate_suppresses_configuration_losses():
    # a CTE pipe cannot move aggregation even at stages that could
    config = SystemConfig(
        "rig",
        (
            StageSpec("c", K.COLLECTION),
            StageSpec("t", K.TRANSMISSION),
            StageSpec(
                "e", K.EXERTION, {M.AGGREGATION: MeasureTransform.add(1)}
            ),
        ),
        Shape.DOUBLE_CTE,
    )
    out = propagate(config, MeasureProfile({}))
    assert out.end[M.AGGREGATION] == 0
    assert any("configuration cannot move Aggregation" in w for w in out.warnings)


def test_propagate_caps_stick():
    config = SystemConfig(
        "rig",
        (
            StageSpec(
                "c",
                K.COLLECTION,
                {M.SAMPLING_RATE: MeasureTransform.clamp_max(Fraction(5))},
            ),
            StageSpec("p", K.PROCESSING, {
                M.SAMPLING_RATE: MeasureTransform.set_to(Fraction(50)),
            }),
            StageSpec("e", K.EXERTION),
        ),
        Shape.DOUBLE_CPE,
    )
    out = propagate(config, MeasureProfile({}))
    # source rate is infinite, clamp pulls it to 5, the later set_to
    # cannot beat the upstream bottleneck
    assert out.stage_profiles[0][M.SAMPLING_RATE] == 5
    assert out.end[M.SAMPLING_RATE] == 5


def test_propagate_volume_cap_then_add():
    config = SystemConfig(
        "rig",
        (
            StageSpec("c", K.COLLECTION, {M.VOLUME: MeasureTransform.set_to(10)}),
            StageSpec("p", K.PROCESSING, {M.VOLUME: MeasureTransform.clamp_max(4)}),
            StageSpec("e", K.EXERTION, {M.VOLUME: MeasureTransform.add(100)}),
        ),
        Shape.DOUBLE_CPE,
    )
    out = propagate(config, MeasureProfile({}))
    assert out.stage_profiles[0][M.VOLUME] == 10
    assert out.stage_profiles[1][M.VOLUME] == 4
    assert out.end[M.VOLUME] == 4  # the add is re-clamped by the bottleneck


@pytest.mark.parametrize(
    "transform",
    [
        {M.VOLUME: MeasureTransform.add(-4)},
        {M.VOLUME: MeasureTransform.set_to(-1)},
        # the clamp leaves an ExtendedRate, which must not floor at zero
        {M.SAMPLING_RATE: MeasureTransform.add(-10)},
    ],
)
def test_propagate_below_zero_is_typed(transform):
    first = {M.VOLUME: MeasureTransform.set_to(3), M.SAMPLING_RATE: MeasureTransform.clamp_max(5)}
    config = SystemConfig(
        "rig",
        (
            StageSpec("c", K.COLLECTION, first),
            StageSpec("p", K.PROCESSING, transform),
            StageSpec("e", K.EXERTION),
        ),
        Shape.DOUBLE_CPE,
    )
    (measure,) = transform
    driven = {M.VOLUME: "Volume to -1", M.SAMPLING_RATE: "SamplingRate to -5"}[measure]
    with pytest.raises(NegativeMeasureError, match=f"stage 'p' drives {driven}") as e:
        propagate(config, MeasureProfile({}))
    assert isinstance(e.value, ISDError) and isinstance(e.value, ValueError)


@pytest.mark.parametrize("measure", [M.DELAY, M.VOLUME])
def test_propagate_infinite_outside_range_is_typed(measure):
    # sampling rate and duration may go infinite; no other measure may
    inf = MeasureTransform.set_to(ExtendedRate.infinite())
    allowed = {M.SAMPLING_RATE: inf, M.DURATION: inf}
    out = propagate(
        SystemConfig("rig", (StageSpec("c", K.COLLECTION, allowed),)), MeasureProfile({})
    )
    assert out.end[M.SAMPLING_RATE].is_infinite and out.end[M.DURATION].is_infinite
    config = SystemConfig("rig", (StageSpec("c", K.COLLECTION, {**allowed, measure: inf}),))
    driven = f"^stage 'c' drives {measure.value} to inf; it must be finite$"
    with pytest.raises(MeasureRangeError, match=driven) as e:
        propagate(config, MeasureProfile({}))
    assert isinstance(e.value, ISDError) and not isinstance(e.value, NegativeMeasureError)


def test_propagate_uncapped_measures_can_grow():
    config = SystemConfig(
        "rig",
        (
            StageSpec("c", K.COLLECTION),
            StageSpec("p", K.PROCESSING, {M.DISTORTION: MeasureTransform.add(3)}),
            StageSpec("e", K.EXERTION, {M.DISTORTION: MeasureTransform.scale(2)}),
        ),
        Shape.DOUBLE_CPE,
    )
    out = propagate(config, MeasureProfile({M.DISTORTION: Fraction(1)}))
    assert out.end[M.DISTORTION] == 8


def test_extended_rate_arithmetic():
    inf = ExtendedRate.infinite()
    five = ExtendedRate.finite(5)
    assert inf.plus(Fraction(3)).is_infinite
    assert five.plus(Fraction(3)).value == 8
    assert five.plus(Fraction(-5)).value == 0
    assert five.plus(Fraction(-6)).value == -1  # the profile refuses it, not plus
    assert inf.scaled(Fraction(0)).value == 0  # 0 * inf = 0 by convention
    assert inf.scaled(Fraction(2)).is_infinite
    assert five.clamped(inf).value == 5
    assert inf.clamped(five).value == 5
    assert five.clamped(ExtendedRate.finite(2)).value == 2


@pytest.mark.parametrize("q", [0, 1, 5, Fraction(1, 3), Fraction(7, 2), 10**20])
def test_finite_extended_rate_hashes_like_its_rational(q):
    rate = ExtendedRate.finite(q)
    assert rate == q and Fraction(q) == rate
    assert hash(rate) == hash(q) == hash(Fraction(q))
    assert len({rate, Fraction(q)}) == 1
    assert Fraction(q) in {rate} and rate in {q}
    assert {q: "rational"}[rate] == "rational"
    assert ExtendedRate.infinite() not in {rate, q}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StageSpec("c", "Collection"), "stage kind must be a StageKind, got 'Collection'"),
        (
            lambda: StageSpec("c", K.COLLECTION, {"Delay": MeasureTransform.add(1)}),
            "transform keys must be MeasureKind, got 'Delay'",
        ),
        (
            lambda: StageSpec("c", K.COLLECTION, {M.DELAY: 1}),
            "transform for Delay must be a MeasureTransform, got 1",
        ),
        (
            lambda: SystemConfig("s", (StageSpec("c", K.COLLECTION),), "SingleRing"),
            "config shape must be a Shape, got 'SingleRing'",
        ),
    ],
    ids=["stage-kind", "transform-key", "transform-value", "config-shape"],
)
def test_config_parts_refuse_a_plain_name(build, message):
    """A name where an enum or a transform belongs is refused on
    construction, not by a KeyError or AttributeError in propagation."""
    with pytest.raises(TypeError) as caught:
        build()
    assert str(caught.value) == message
