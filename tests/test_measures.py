"""The eleven measures against hand-checked and brute-force values."""

import re
from fractions import Fraction
from math import inf, nan

import pytest

from isd.errors import (
    EmptyInformationError,
    MeasureInputError,
    NotACopyError,
    NotEquivalenceError,
    UnboundedTimeError,
    ZeroTargetMeasureError,
)
from isd.measures import (
    AtomWeighting,
    ExtendedRate,
    MeasureAssignment,
    Metric,
    Relation,
    aggregation,
    coverage,
    delay,
    distortion,
    duration,
    granularity,
    induce_relation,
    mismatch,
    sampling_rate,
    scope,
    variety,
    volume,
)
from isd.model import (
    Information,
    RawMapping,
    ReflectionElement,
    StateElement,
    atoms,
    is_copy,
    reduction_map,
)
from isd.oracles import rayleigh_min_angle
from isd.timeset import TimeSet
from isd.values import Value, objective

from conftest import two_atom_info


def _single(name, subject, s_at, s_val, carrier, r_at, r_val):
    s = StateElement({subject}, s_at, s_val)
    r = ReflectionElement({carrier}, r_at, r_val)
    return Information(name, {subject}, s_at, {s}, {carrier}, r_at, {r}, [(s, r)])


def _equal_gap_samples(gap, count):
    src, cam = objective("src"), objective("cam")
    pairs = []
    for k in range(count):
        t = TimeSet.point(k * gap)
        s = StateElement({src}, t, Value.scalar(k))
        r = ReflectionElement({cam}, t, Value.scalar(k))
        pairs.append((s, r))
    times = TimeSet.from_points([k * gap for k in range(count)])
    return Information(
        "samples",
        {src},
        times,
        {s for s, _ in pairs},
        {cam},
        times,
        {r for _, r in pairs},
        pairs,
    )


# -- volume -------------------------------------------------------------------


def test_volume_counting(pair_info):
    assert volume(pair_info, MeasureAssignment.counting()) == 1  # one camera


def test_volume_entropy_weighted_register():
    # Outcome distribution (1/2, 1/4, 1/4).  For dyadic probabilities the
    # entropy is exact: sum of p * (bit length of 1/p).
    probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    exact_bits = sum(p * (p.denominator.bit_length() - 1) for p in probs)
    assert exact_bits == Fraction(3, 2)

    # A prefix code with that expected length reconstructs every outcome:
    # brute-force decode of all two-symbol messages.
    code = {"a": "0", "b": "10", "c": "11"}
    assert sum(p * len(code[o]) for p, o in zip(probs, "abc")) == exact_bits
    for first in "abc":
        for second in "abc":
            message = code[first] + code[second]
            decoded, buf = [], ""
            for bit in message:
                buf += bit
                hit = [o for o, c in code.items() if c == buf]
                if hit:
                    decoded.append(hit[0])
                    buf = ""
            assert decoded == [first, second] and buf == ""

    register = objective("register")
    bits = MeasureAssignment("bits", {register: exact_bits})
    info = _single(
        "event",
        objective("die"),
        TimeSet.point(0),
        Value.symbol("outcome"),
        register,
        TimeSet.point(1),
        Value.symbol("stored"),
    )
    assert volume(info, bits) == Fraction(3, 2)


# -- delay --------------------------------------------------------------------


def test_delay_mean_of_sup_differences():
    a, cam = objective("a"), objective("cam")
    s1 = StateElement({a}, TimeSet.point(0), Value.scalar(1))
    s2 = StateElement({a}, TimeSet.point(1), Value.scalar(2))
    r1 = ReflectionElement({cam}, TimeSet.point(2), Value.scalar(1))
    r2 = ReflectionElement({cam}, TimeSet.point(5), Value.scalar(2))
    info = Information(
        "d",
        {a},
        TimeSet.from_points([0, 1]),
        {s1, s2},
        {cam},
        TimeSet.from_points([2, 5]),
        {r1, r2},
        [(s1, r1), (s2, r2)],
    )
    assert delay(info) == 3  # mean of {2, 4}


def test_delay_negative_is_prediction():
    info = _single(
        "p",
        objective("a"),
        TimeSet.point(7),
        Value.scalar(1),
        objective("cam"),
        TimeSet.point(5),
        Value.scalar(1),
    )
    assert delay(info) == -2


def test_delay_unbounded_occurrence_contributes_zero():
    info = _single(
        "u",
        objective("a"),
        TimeSet.ray(0),
        Value.scalar(1),
        objective("cam"),
        TimeSet.point(5),
        Value.scalar(1),
    )
    assert delay(info) == 0


def test_delay_unbounded_reflection_rejected():
    info = _single(
        "bad",
        objective("a"),
        TimeSet.point(0),
        Value.scalar(1),
        objective("cam"),
        TimeSet.ray(5),
        Value.scalar(1),
    )
    with pytest.raises(UnboundedTimeError):
        delay(info)


def test_delay_reads_each_weight_then_its_term():
    # atom 0's reflection is a ray over a bounded occurrence and atom 1 has
    # no weight: atom 0 is met first, so its error is the one raised
    a, b, cam = objective("a"), objective("b"), objective("cam")
    info = Information.from_pairs(
        "rayed",
        [
            (
                StateElement({a}, TimeSet.point(0), Value.scalar(1)),
                ReflectionElement({cam}, TimeSet.ray(1), Value.scalar(1)),
            ),
            (
                StateElement({b}, TimeSet.point(1), Value.scalar(2)),
                ReflectionElement({cam}, TimeSet.point(2), Value.scalar(2)),
            ),
        ],
    )
    with pytest.raises(UnboundedTimeError):
        delay(info, AtomWeighting.explicit({0: 1}))


def test_atom_means_need_an_atom():
    # a RawMapping is never validated, so it can be empty
    empty = RawMapping(
        "empty", set(), TimeSet.point(0), set(), set(), TimeSet.point(0), set(), []
    )
    with pytest.raises(EmptyInformationError, match="^delay needs at least one atom$"):
        delay(empty)
    with pytest.raises(
        EmptyInformationError, match="^granularity needs at least one atom$"
    ):
        granularity(empty, MeasureAssignment.counting())


def test_delay_explicit_weights(pair_info):
    # atoms sorted by state: (a, delay 2) then (b, delay 2); reweight anyway
    mu = AtomWeighting.explicit({0: Fraction(3), 1: Fraction(1)})
    assert delay(pair_info, mu) == 2


@pytest.mark.parametrize(
    "weights",
    [{0: 1, 0.5: 2}, {1.7: 1}, {True: 2}, {0: 1, "1": 1}, {0.5: 1.5}],
    ids=["fraction-overwrites-zero", "float-moves-to-one", "bool", "string", "bad-weight-too"],
)
def test_atom_weight_indices_must_be_integers(weights):
    # int(i) would keep one weight for 0, or move 1.7 and True to index 1
    with pytest.raises(MeasureInputError, match="^atom index must be an integer"):
        AtomWeighting.explicit(weights)
    assert AtomWeighting.explicit({0: 1, 1: 2}).weights == {0: 1, 1: 2}


_WEIGH = {
    "atom": lambda w: AtomWeighting.explicit({0: w}).weights[0],
    "entity": lambda w: MeasureAssignment("m", {objective("a"): w}).weights[objective("a")],
    "default": lambda w: MeasureAssignment("m", default_weight=w).default_weight,
}


@pytest.mark.parametrize("weigh", _WEIGH.values(), ids=_WEIGH.keys())
@pytest.mark.parametrize(
    "weight, message",
    [
        (True, "must be a rational, not True"),
        (0.5, ": 0.5 (not a rational value: 0.5)"),
        ("1/0", ": '1/0' ("),
        ("x", ": 'x' ("),
    ],
    ids=["bool", "float", "zero-denominator", "not-a-number"],
)
def test_weights_refused_typed(weigh, weight, message):
    # a bool was read as 1; the others raised a bare TypeError,
    # ZeroDivisionError or ValueError
    with pytest.raises(MeasureInputError, match=re.escape(message)):
        weigh(weight)
    assert weigh("7/2") == Fraction(7, 2)


@pytest.mark.parametrize("weight", [1, "x"], ids=["good-weight", "bad-weight"])
@pytest.mark.parametrize("key", ["a", 0, None, ("a",)], ids=["str", "int", "none", "tuple"])
def test_entity_weight_keys_must_be_entities(key, weight):
    # a document holding such a measure could not be written, and a bad
    # weight raised AttributeError while naming its key
    message = f"^weight keys must be entities, not {re.escape(repr(key))}$"
    with pytest.raises(MeasureInputError, match=message):
        MeasureAssignment("m", {key: weight})


def test_negative_entity_weights_refused_typed():
    with pytest.raises(MeasureInputError, match="^negative weight for a$"):
        MeasureAssignment("m", {objective("a"): -1})
    with pytest.raises(MeasureInputError, match="^negative default weight$"):
        MeasureAssignment("m", default_weight="-1/2")


# -- scope and granularity ----------------------------------------------------


def test_scope_counting(pair_info):
    assert scope(pair_info, MeasureAssignment.counting()) == 2


def test_scope_weighted_with_zero_default():
    entities = [objective(f"e{i}") for i in range(5)]
    sigma = MeasureAssignment(
        "partial",
        {entities[0]: Fraction(2), entities[1]: Fraction(3)},
        default_weight=Fraction(0),
    )
    cam = objective("cam")
    s = StateElement({entities[0]}, TimeSet.point(0), Value.scalar(1))
    r = ReflectionElement({cam}, TimeSet.point(1), Value.scalar(1))
    info = Information(
        "wide", set(entities), TimeSet.point(0), {s}, {cam}, TimeSet.point(1), {r}, [(s, r)]
    )
    assert scope(info, sigma) == 5


def test_granularity_mean(pair_info):
    assert granularity(pair_info, MeasureAssignment.counting()) == 1


def test_granularity_mean_of_subject_sizes():
    a, b, cam = objective("a"), objective("b"), objective("cam")
    sigma = MeasureAssignment("mass", {a: Fraction(2), b: Fraction(4)})
    s1 = StateElement({a}, TimeSet.point(0), Value.scalar(1))
    s2 = StateElement({b}, TimeSet.point(1), Value.scalar(2))
    r1 = ReflectionElement({cam}, TimeSet.point(2), Value.scalar(1))
    r2 = ReflectionElement({cam}, TimeSet.point(3), Value.scalar(2))
    info = Information(
        "g",
        {a, b},
        TimeSet.from_points([0, 1]),
        {s1, s2},
        {cam},
        TimeSet.from_points([2, 3]),
        {r1, r2},
        [(s1, r1), (s2, r2)],
    )
    assert granularity(info, sigma) == 3


def test_granularity_optical_quarter():
    # wavelength 1/2000 mm through aperture 1/500 mm: each pixel subtends
    # 1/4, and the mean over equal atoms stays 1/4
    angle = rayleigh_min_angle(Fraction(1, 2000), Fraction(1, 500))
    assert angle == Fraction(1, 4)
    pixel = objective("pixel")
    sigma = MeasureAssignment("angles", {pixel: angle})
    cam = objective("cam")
    pairs = []
    for k in range(3):
        s = StateElement({pixel}, TimeSet.point(k), Value.scalar(k))
        r = ReflectionElement({cam}, TimeSet.point(k + 1), Value.scalar(k))
        pairs.append((s, r))
    info = Information(
        "optics",
        {pixel},
        TimeSet.from_points([0, 1, 2]),
        {s for s, _ in pairs},
        {cam},
        TimeSet.from_points([1, 2, 3]),
        {r for _, r in pairs},
        pairs,
    )
    assert granularity(info, sigma) == Fraction(1, 4)


# -- variety and relation transport -------------------------------------------


def _value_classes_relation(info, name="values"):
    states = info.sorted_states()
    pairs = {
        (x, y) for x in states for y in states if x.value == y.value
    }
    return Relation(name, frozenset(pairs), declared_equivalence=True)


def test_variety_value_classes():
    a, cam = objective("a"), objective("cam")
    vals = [Value.symbol("a"), Value.symbol("a"), Value.symbol("b")]
    pairs = []
    for k, v in enumerate(vals):
        s = StateElement({a}, TimeSet.point(k), v)
        r = ReflectionElement({cam}, TimeSet.point(k + 10), Value.scalar(k))
        pairs.append((s, r))
    info = Information(
        "v",
        {a},
        TimeSet.from_points([0, 1, 2]),
        {s for s, _ in pairs},
        {cam},
        TimeSet.from_points([10, 11, 12]),
        {r for _, r in pairs},
        pairs,
    )
    assert variety(info, _value_classes_relation(info)) == 2

    states = info.sorted_states()
    total = Relation("total", frozenset((x, y) for x in states for y in states), True)
    assert variety(info, total) == 1
    identity = Relation("id", frozenset((x, x) for x in states), True)
    assert variety(info, identity) == 3


def test_variety_rejects_non_equivalence(pair_info):
    ordered = pair_info.sorted_states()
    broken = Relation("partial", frozenset({(ordered[0], ordered[1])}), True)
    with pytest.raises(NotEquivalenceError):
        variety(pair_info, broken)


_DIAGONAL = {(i, i) for i in range(3)}


@pytest.mark.parametrize(
    "case, pairs, size, want",
    [
        ("identity", _DIAGONAL, 3, True),
        ("two classes", _DIAGONAL | {(0, 1), (1, 0)}, 3, True),
        ("one class", {(a, b) for a in range(3) for b in range(3)}, 3, True),
        ("empty set", set(), 0, True),
        ("pair outside the set", {(0, 0), (1, 1), (0, 2), (2, 0)}, 2, False),
        ("missing diagonal", {(0, 0), (1, 1)}, 3, False),
        ("asymmetric", _DIAGONAL | {(0, 1)}, 3, False),
        ("not transitive", _DIAGONAL | {(0, 1), (1, 0), (1, 2), (2, 1)}, 3, False),
    ],
)
def test_is_equivalence_over_cases(case, pairs, size, want):
    """A relation on three elements, asked about the first ``size`` of them."""
    elems = [StateElement({objective(f"e{i}")}, TimeSet.point(i), Value.scalar(i)) for i in range(3)]
    relation = Relation(case, frozenset((elems[a], elems[b]) for a, b in pairs))
    assert relation.is_equivalence_over(elems[:size]) is want


def test_induced_relation_preserves_classes(pair_info):
    identity = Relation(
        "id", frozenset((s, s) for s in pair_info.states), True
    )
    q = induce_relation(pair_info, identity)
    assert q.is_equivalence_over(pair_info.reflections)
    assert len(q.classes_over(pair_info.reflections)) == 2

    total = Relation(
        "total",
        frozenset((x, y) for x in pair_info.states for y in pair_info.states),
        True,
    )
    q_total = induce_relation(pair_info, total)
    assert len(q_total.classes_over(pair_info.reflections)) == 1
    assert len(q_total.pairs) == 4


# -- duration and sampling rate -----------------------------------------------


def test_duration_hull():
    a, cam = objective("a"), objective("cam")
    s1 = StateElement({a}, TimeSet.interval(0, 2), Value.scalar(1))
    s2 = StateElement({a}, TimeSet.interval(5, 7), Value.scalar(2))
    r1 = ReflectionElement({cam}, TimeSet.point(8), Value.scalar(1))
    r2 = ReflectionElement({cam}, TimeSet.point(9), Value.scalar(2))
    info = Information(
        "hull",
        {a},
        TimeSet.from_intervals([(0, 2), (5, 7)]),
        {s1, s2},
        {cam},
        TimeSet.from_points([8, 9]),
        {r1, r2},
        [(s1, r1), (s2, r2)],
    )
    assert duration(info) == 7  # hull width, not total measure


def test_duration_point_and_interval():
    info = _single(
        "pt", objective("a"), TimeSet.point(3), Value.scalar(1),
        objective("cam"), TimeSet.point(4), Value.scalar(1),
    )
    assert duration(info) == 0
    span = _single(
        "iv", objective("a"), TimeSet.interval(0, 10), Value.scalar(1),
        objective("cam"), TimeSet.point(11), Value.scalar(1),
    )
    assert duration(span) == 10


def test_duration_unbounded():
    info = _single(
        "ray", objective("a"), TimeSet.ray(0), Value.scalar(1),
        objective("cam"), TimeSet.point(1), Value.scalar(1),
    )
    assert duration(info).is_infinite


def test_sampling_rate_eleven_points():
    info = _equal_gap_samples(Fraction(1), 11)
    assert sampling_rate(info) == 1


def test_sampling_rate_equal_gaps_inverse():
    for g in (Fraction(1, 4), Fraction(2), Fraction(3, 7)):
        info = _equal_gap_samples(g, 6)
        assert sampling_rate(info) == 1 / g


def test_sampling_rate_continuous_is_infinite():
    info = _single(
        "cont", objective("a"), TimeSet.interval(0, 5), Value.scalar(1),
        objective("cam"), TimeSet.point(6), Value.scalar(1),
    )
    assert sampling_rate(info).is_infinite
    assert sampling_rate(info) > ExtendedRate.finite(10**9)


# -- aggregation --------------------------------------------------------------


def test_aggregation_pairs_per_state():
    a, cam = objective("a"), objective("cam")
    pairs = []
    for k in range(4):
        s = StateElement({a}, TimeSet.point(k), Value.scalar(k))
        r = ReflectionElement({cam}, TimeSet.point(k + 10), Value.scalar(k))
        pairs.append((s, r))
    info = Information(
        "agg",
        {a},
        TimeSet.from_points(range(4)),
        {s for s, _ in pairs},
        {cam},
        TimeSet.from_points(range(10, 14)),
        {r for _, r in pairs},
        pairs,
    )
    states = info.sorted_states()
    six = frozenset(
        (states[i], states[j]) for i in range(4) for j in range(i + 1, 4)
    )
    rel = Relation("pairs", six, declared_equivalence=False)
    assert aggregation(info, [rel]) == Fraction(3, 2)
    assert aggregation(info, []) == 0
    assert aggregation(info, [rel], mode="types") == Fraction(1, 4)


def test_aggregation_equal_on_both_sides(pair_info):
    states = pair_info.sorted_states()
    rel = Relation("link", frozenset({(states[0], states[1])}), False)
    state_side = aggregation(pair_info, [rel])

    m = pair_info.map
    moved = frozenset((m[x], m[y]) for x, y in rel.pairs)
    reflection_side = Fraction(len(moved), len(pair_info.reflections))
    assert state_side == reflection_side


def test_aggregation_modes_validated():
    info = two_atom_info()
    assert aggregation(info, []) == 0
    with pytest.raises(ValueError):
        aggregation(info, [], mode="bogus")


# -- coverage -----------------------------------------------------------------


def _copy_on(base, carrier_id, shift):
    c = objective(carrier_id)
    return Information(
        carrier_id,
        base.ontology,
        base.occurrence,
        base.states,
        {c},
        base.reflection_time.shift(shift),
        {
            ReflectionElement({c}, r.at.shift(shift), r.value)
            for r in base.reflections
        },
        [
            (s, ReflectionElement({c}, r.at.shift(shift), r.value))
            for s, r in base.mapping
        ],
    )


def test_coverage_fractional(pair_info):
    copies = [_copy_on(pair_info, "mirror", 10), _copy_on(pair_info, "vault", 20)]
    # target of 6 entities, carriers reach 3 of them
    target = {objective("cam"), objective("mirror"), objective("vault")} | {
        objective(f"aud{i}") for i in range(3)
    }
    got = coverage(pair_info, copies, MeasureAssignment.counting(), target)
    assert got == Fraction(1, 2)


def test_coverage_weighted_three_fifths(pair_info):
    cam = objective("cam")
    mirror, vault = objective("mirror"), objective("vault")
    copies = [_copy_on(pair_info, "mirror", 10), _copy_on(pair_info, "vault", 20)]
    audience = objective("audience")
    sigma = MeasureAssignment(
        "area",
        {cam: Fraction(10), mirror: Fraction(20), vault: Fraction(30),
         audience: Fraction(40)},
    )
    got = coverage(
        pair_info, copies, sigma, {cam, mirror, vault, audience}
    )
    assert got == Fraction(3, 5)  # (10+20+30)/100


def test_coverage_identity(pair_info):
    got = coverage(pair_info, [], MeasureAssignment.counting(), pair_info.carrier)
    assert got == 1


def test_coverage_overlap_exceeds_one(pair_info):
    cam = objective("cam")
    wide = objective("wide")
    sigma = MeasureAssignment("area", {cam: Fraction(4, 5), wide: Fraction(1, 5)})
    twin = _copy_on(pair_info, "twin", 5)
    # re-carry the twin on the same cam entity so carriers overlap
    twin = Information(
        "twin",
        twin.ontology,
        twin.occurrence,
        twin.states,
        {cam},
        twin.reflection_time,
        {ReflectionElement({cam}, r.at, r.value) for r in twin.reflections},
        [(s, ReflectionElement({cam}, r.at, r.value)) for s, r in twin.mapping],
    )
    assert is_copy(pair_info, twin)
    got = coverage(pair_info, [twin], sigma, {cam, wide})
    assert got == Fraction(8, 5)  # 0.8 + 0.8 over a target of measure 1


def test_coverage_errors(pair_info):
    sigma = MeasureAssignment("zero", {}, default_weight=Fraction(0))
    with pytest.raises(ZeroTargetMeasureError):
        coverage(pair_info, [], sigma, pair_info.carrier)
    from conftest import lossy_info

    with pytest.raises(NotACopyError):
        coverage(
            pair_info,
            [lossy_info()],
            MeasureAssignment.counting(),
            pair_info.carrier | {objective("cam")},
        )
    got = coverage(
        pair_info,
        [],
        MeasureAssignment.counting(),
        pair_info.carrier,
        allow_non_copies=True,
    )
    assert got == 1


# -- distortion ---------------------------------------------------------------


def test_distortion_zero_for_inverse(pair_info):
    j = reduction_map(pair_info)
    for metric in (
        Metric("symmetric_difference_count"),
        Metric("jaccard_distance"),
        Metric("euclidean_on_values"),
    ):
        assert distortion(pair_info, j, metric) == 0


def test_distortion_euclidean_one_bad_coordinate():
    a, cam = objective("a"), objective("cam")
    truth = [1, 2, 3]
    est = [1, 2, 5]
    pairs = []
    decode = {}
    for k, (x, y) in enumerate(zip(truth, est)):
        s = StateElement({a}, TimeSet.point(k), Value.scalar(x))
        r = ReflectionElement({cam}, TimeSet.point(k + 10), Value.scalar(x))
        pairs.append((s, r))
        decode[r] = StateElement({a}, TimeSet.point(k), Value.scalar(y))
    info = Information(
        "track",
        {a},
        TimeSet.from_points(range(3)),
        {s for s, _ in pairs},
        {cam},
        TimeSet.from_points(range(10, 13)),
        {r for _, r in pairs},
        pairs,
    )
    assert distortion(info, decode, Metric("euclidean_on_values")) == 2


@pytest.mark.parametrize("side", ["state", "estimate"])
@pytest.mark.parametrize(
    "bad, good, number",
    [
        (lambda: Value("scalar", inf), Value.scalar(1), "inf"),
        (lambda: Value("scalar", "1/2"), Value.scalar(1), "'1/2'"),
        (lambda: Value("vector", (0.5, nan)), Value.vector([1, 2]), "nan"),
    ],
    ids=["inf", "string", "vector-nan"],
)
def test_distortion_refuses_a_number_with_no_integer_terms(side, bad, good, number):
    """No value holds a number with no integer terms: building one, for
    either side, refuses it by name, so the euclidean distance, which
    unpacks every number as an integer pair, never meets one."""
    with pytest.raises(MeasureInputError) as exc:
        truth, est = (bad(), good) if side == "state" else (good, bad())
    assert str(exc.value) == f"number {number} has no integer terms"


def test_distortion_requires_total_map(pair_info):
    from isd.errors import IncompleteReflectionError

    j = dict(reduction_map(pair_info))
    j.pop(next(iter(j)))
    with pytest.raises(IncompleteReflectionError):
        distortion(pair_info, j, Metric("symmetric_difference_count"))
    # with several missing, the first in canonical order is named
    first = pair_info.sorted_reflections()[0]
    with pytest.raises(IncompleteReflectionError) as exc:
        distortion(pair_info, {}, Metric("symmetric_difference_count"))
    assert str(exc.value) == f"no estimate for reflection {first}"


# -- mismatch -----------------------------------------------------------------


def test_mismatch_identity(pair_info):
    assert mismatch(pair_info, pair_info, Metric("weighted_product")) == 0


def test_mismatch_carrier_only_difference(pair_info):
    other = Information(
        "recarried",
        pair_info.ontology,
        pair_info.occurrence,
        pair_info.states,
        {objective("cam"), objective("spare")},
        pair_info.reflection_time,
        pair_info.reflections,
        pair_info.mapping,
    )
    assert mismatch(pair_info, other, Metric("weighted_product")) == 1


def test_mismatch_component_weights(pair_info):
    other = Information(
        "recarried",
        pair_info.ontology,
        pair_info.occurrence,
        pair_info.states,
        {objective("cam"), objective("spare")},
        pair_info.reflection_time,
        pair_info.reflections,
        pair_info.mapping,
    )
    heavy = Metric("weighted_product", {"carrier": Fraction(7)})
    assert mismatch(pair_info, other, heavy) == 7
    ignored = Metric("weighted_product", {"carrier": Fraction(0)})
    assert mismatch(pair_info, other, ignored) == 0


@pytest.mark.parametrize(
    "weight, message",
    [
        (True, "must be a rational, not True"),
        (0.5, "bad weight of 'carrier': 0.5 (not a rational value: 0.5)"),
        ("1/0", "bad weight of 'carrier': '1/0'"),
        ("half", "bad weight of 'carrier': 'half'"),
        (-1, "must be nonnegative"),
    ],
    ids=["bool", "float", "zero-denominator", "not-a-number", "negative"],
)
def test_metric_weights_refused_typed(weight, message):
    # a bool would be read as 1, a float and "1/0" raised untyped errors
    with pytest.raises(MeasureInputError, match=re.escape(message)):
        Metric("weighted_product", {"carrier": weight})
    good = Metric("weighted_product", {"carrier": "7/2", "states": 3, "occurrence": 0})
    assert good.component_weights == {
        "carrier": Fraction(7, 2), "states": Fraction(3), "occurrence": Fraction(0)
    }


def test_mismatch_symmetry_and_infinite_times(pair_info):
    other = two_atom_info("clone")
    assert mismatch(pair_info, other, Metric("weighted_product")) == 0
    unbounded = Information(
        "open",
        pair_info.ontology,
        pair_info.occurrence.union(TimeSet.ray(100)),
        pair_info.states,
        pair_info.carrier,
        pair_info.reflection_time,
        pair_info.reflections,
        pair_info.mapping,
    )
    assert mismatch(pair_info, unbounded, Metric("weighted_product")) == inf
    assert mismatch(unbounded, pair_info, Metric("weighted_product")) == inf


# -- monotonicity -------------------------------------------------------------


def test_volume_scope_monotone_under_sub_information(pair_info):
    sigma = MeasureAssignment.counting()
    for atom in atoms(pair_info):
        part = atom.lift()
        assert volume(part, sigma) <= volume(pair_info, sigma)
        assert scope(part, sigma) <= scope(pair_info, sigma)
