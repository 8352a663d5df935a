"""Randomized invariants.  Structured inputs come from the verify
builders, driven through hypothesis-chosen seeds so shrinking still
produces a small reproducible counterexample (the seed)."""

import dataclasses
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import isd.dynamics
from isd.document import loads_document, emit_document
from isd.dynamics import (
    ALL_MEASURES,
    MeasureKind,
    MeasureProfile,
    MeasureTransform,
    Shape,
    StageKind,
    StageSpec,
    SystemConfig,
    validate_config,
)
from isd.errors import MeasureRangeError, NegativeMeasureError
from isd.measures import (
    MISMATCH_COMPONENTS,
    AtomWeighting,
    ExtendedRate,
    MeasureAssignment,
    Metric,
    Relation,
    aggregation,
    coverage,
    delay,
    distortion,
    granularity,
    induce_relation,
    mismatch,
    sampling_rate,
    scope,
    variety,
    volume,
    _mismatch_set_part,
)
from functools import reduce

from isd.errors import (
    CombineConflictError,
    EmptyLibraryError,
    InvalidInformationError,
    NonInvertibleError,
)
from isd.model import (
    Element,
    Information,
    RawMapping,
    ReflectionElement,
    SerialChain,
    StateElement,
    atoms,
    check_chain,
    check_link,
    collapse_chain,
    combine,
    compose,
    invert,
    is_reducible,
    is_sub_information,
    reduction_map,
    validate,
)
from isd.oracles.search import SearchLibrary, min_mismatch_search
from isd.timeset import TimeSet, symmetric_difference_keys
from isd.values import Value, objective, subjective
from isd.verify import (
    random_chain,
    random_information,
    random_partition_relation,
)

import reference_dynamics
import reference_measures
import reference_model
import reference_search
import reference_timeset

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
seeds = st.integers(min_value=0, max_value=10**9)


@st.composite
def timesets(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        pts = draw(st.lists(rationals, min_size=1, max_size=6))
        return TimeSet.from_points(pts)
    if kind == 1:
        spans = draw(
            st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4)
        )
        return TimeSet.from_intervals(
            [(min(a, b), max(a, b)) for a, b in spans]
        )
    start = draw(rationals)
    return TimeSet.ray(start)


@st.composite
def infos(draw):
    rng = random.Random(draw(seeds))
    return random_information(rng)


# -- time sets ----------------------------------------------------------------


@given(timesets())
def test_timeset_normal_form_is_fixed_point(ts):
    rebuilt = None
    if ts.intervals:
        rebuilt = TimeSet.from_intervals(ts.intervals)
    if ts.ray_from is not None:
        ray = TimeSet.ray(ts.ray_from)
        rebuilt = ray if rebuilt is None else rebuilt.union(ray)
    assert rebuilt == ts


@given(timesets(), timesets())
def test_timeset_union_commutes(a, b):
    assert a.union(b) == b.union(a)


@given(timesets(), timesets())
def test_timeset_union_contains_both(a, b):
    u = a.union(b)
    assert a.is_subset(u) and b.is_subset(u)


@given(timesets())
def test_timeset_self_difference_vanishes(ts):
    length, _, isolated = symmetric_difference_keys(ts, ts)
    assert (length, isolated) == (0, 0)


@given(timesets(), timesets())
def test_timeset_difference_symmetric(a, b):
    assert symmetric_difference_keys(a, b) == symmetric_difference_keys(b, a)


@given(timesets(), rationals)
def test_timeset_shift_preserves_structure(ts, d):
    moved = ts.shift(d)
    assert moved.connected_components() == ts.connected_components()
    assert moved.is_unbounded == ts.is_unbounded
    if not ts.is_unbounded:
        assert moved.lebesgue_measure() == ts.lebesgue_measure()
    assert moved.shift(-d) == ts


# -- hashes -------------------------------------------------------------------
#
# Values and time sets compute their hash once, on construction.  A value
# hashes its tag and body, with each number of a scalar or vector as its
# integer terms; a time set hashes its integer keys.  Either way equal objects must hash equal, however they
# were written or rebuilt.  No output may show the hash values: symbols and
# entity ids hash by string, which differs from one process to the next.

values = st.recursive(
    st.one_of(
        st.text(min_size=1, max_size=3).map(Value.symbol),
        rationals.map(Value.scalar),
        st.lists(rationals, max_size=3).map(Value.vector),
    ),
    lambda inner: st.dictionaries(st.text(max_size=2), inner, max_size=3).map(
        Value.record
    ),
    max_leaves=8,
)


@st.composite
def touching_timesets(draw):
    """Intervals that share endpoints, isolated points, and maybe a ray
    that swallows some of them."""
    cuts = sorted(draw(st.lists(rationals, min_size=2, max_size=7)))
    pairs = list(zip(cuts, cuts[1:])) + [(t, t) for t in draw(st.lists(rationals, max_size=3))]
    ray = draw(st.none() | rationals)
    return TimeSet.from_intervals(draw(st.permutations(pairs)), ray)


def _fresh(q: Fraction) -> Fraction:
    return Fraction(q.numerator, q.denominator)


def _rebuilt(v: Value) -> Value:
    """An equal value that shares no object with ``v`` but its strings."""
    if v.tag == "symbol":
        return Value.symbol(v.body)
    if v.tag == "scalar":
        return Value.scalar(_fresh(v.body))
    if v.tag == "vector":
        return Value.vector(_fresh(q) for q in v.body)
    return Value.record({k: _rebuilt(inner) for k, inner in v.body})


def _with_parts(v: Value):
    yield v
    if v.tag == "record":
        for _, inner in v.body:
            yield from _with_parts(inner)


def _hashed_fields(v: Value) -> tuple:
    """What ``v`` hashes: (tag, n, d) for a scalar, (tag, ((n, d), ...))
    for a vector, and (tag, body) for a symbol or a record."""
    if v.tag == "scalar":
        return v.tag, v.body.numerator, v.body.denominator
    if v.tag == "vector":
        return v.tag, tuple((q.numerator, q.denominator) for q in v.body)
    return v.tag, v.body


@given(values)
@settings(max_examples=200, deadline=None)
def test_value_hash_is_the_field_tuple_hash(v):
    # by induction over the nesting, each record hashes its field tuple
    for part in _with_parts(v):
        assert hash(part) == hash(_hashed_fields(part))
    twin = _rebuilt(v)
    assert twin == v and hash(twin) == hash(v)


@pytest.mark.parametrize(
    "body, q",
    [(3, "3"), (-2, "-2"), (True, "1"), (0.5, "1/2"), (-0.375, "-3/8"), (2.0, "2"), (0.1, 0.1)],
)
def test_value_of_a_body_built_without_value_scalar_hashes_as_its_rational(body, q):
    # 0.1 stands for the exact binary fraction a float holds
    q = Fraction(q)
    for v, w in (
        (Value("scalar", body), Value.scalar(q)),
        (Value("vector", (body, 7)), Value.vector([q, 7])),
    ):
        assert v == w and w == v and hash(v) == hash(w)
    infinite = Value("scalar", math.inf)
    assert infinite == Value("scalar", math.inf) and hash(infinite) == hash(("scalar", math.inf))


@given(st.one_of(timesets(), touching_timesets()), st.none() | rationals)
@settings(max_examples=200, deadline=None)
def test_timeset_hash_is_the_hash_of_an_equal_set(ts, ray):
    assert hash(ts) == hash(TimeSet(ts.intervals, ts.ray_from))
    twin = TimeSet(
        tuple((_fresh(lo), _fresh(hi)) for lo, hi in ts.intervals),
        None if ts.ray_from is None else _fresh(ts.ray_from),
    )
    assert twin == ts and hash(twin) == hash(ts)
    assert hash(dataclasses.replace(ts)) == hash(ts)
    assume(ts.intervals or ray is not None)  # a TimeSet is never empty
    moved = dataclasses.replace(ts, ray_from=ray)
    assert moved == TimeSet(ts.intervals, ray)
    assert hash(moved) == hash(TimeSet(ts.intervals, ray))
    assert hash(moved) == hash(TimeSet(moved.intervals, moved.ray_from))


def test_cached_hashes_stay_in_their_process():
    """Symbols and entity ids hash by string, which differs from one
    process to the next, so values and elements still refuse to unpickle.
    A time set unpickles by construction, and hashes afresh."""
    v = Value.record({"k": Value.symbol("s")})
    e = Element({objective("p")}, TimeSet.point(0), v)
    for x in (v, e):
        with pytest.raises(AttributeError):
            pickle.loads(pickle.dumps(x))
    ts = TimeSet.from_intervals([(0, 1)])
    assert TimeSet.__reduce__(ts) == (TimeSet, (ts.intervals, None))
    back = pickle.loads(pickle.dumps(ts))
    assert back == ts and hash(back) == hash(TimeSet(back.intervals, back.ray_from))


# -- equality -------------------------------------------------------------------
#
# Value and Element equality check identity and the cached hash first, and
# compare scalar bodies by their terms.  Every answer must still be the
# one the plain field tuples give, for equal but distinct Fractions, time
# sets and entity ids, and for unequal values whose hashes collide: in
# CPython hash(-1) == hash(-2), so Value.scalar(-1) and Value.scalar(-2)
# share one, and so do vectors and records holding them.


def _value_fields(v: Value):
    """``v`` as nested tuples of its tag and body, so that comparing two
    never calls Value.__eq__."""
    if v.tag == "record":
        return v.tag, tuple((k, _value_fields(inner)) for k, inner in v.body)
    return v.tag, v.body


def _element_fields(e: Element):
    return e.entities, e.at, _value_fields(e.value)


def _twin_timeset(ts: TimeSet) -> TimeSet:
    return TimeSet(*_fresh_raw((ts.intervals, ts.ray_from)))


def _colliding_with(x, other):
    """A copy of ``x`` that carries ``other``'s cached hash, as if the two
    collided, so only the fields can tell them apart."""
    twin = Value(x.tag, x.body) if isinstance(x, Value) else Element(x.entities, x.at, x.value)
    object.__setattr__(twin, "_h", other._h)
    return twin


_minus_one, _minus_two = Value.scalar(-1), Value.scalar(-2)
_colliding = [
    (_minus_one, _minus_two),
    (Value.vector([-1, 3]), Value.vector([-2, 3])),
    (Value.record({"k": _minus_one}), Value.record({"k": _minus_two})),
]
_value_pairs = st.one_of(
    st.tuples(values, values),
    values.map(lambda v: (v, _rebuilt(v))),
    st.sampled_from(_colliding),
)
_entity_sets = st.sets(st.sampled_from(["p", "q", "m"]), min_size=1).map(
    lambda ids: frozenset(objective(i) for i in ids)
)
_element_sides = st.tuples(_entity_sets, st.one_of(timesets(), touching_timesets()))


@given(_value_pairs, _element_sides, st.one_of(_element_sides, st.none()))
@settings(max_examples=200, deadline=None)
@example(_colliding[0], (frozenset({objective("p")}), TimeSet.point(0)), None)
@example((Value.scalar("1/2"), Value.scalar("1/3")), (frozenset({objective("p")}), TimeSet.point(0)),
         None)
def test_equality_is_field_tuple_equality(pair, side, other_side):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a), (a, _colliding_with(b, a))):
        assert (x == y) is (_value_fields(x) == _value_fields(y))
        assert (x != y) is (_value_fields(x) != _value_fields(y))
    for v in (a, b):
        assert hash(v) == hash(_hashed_fields(v))
        assert (v == v.body) is False and (v == (v.tag, v.body)) is False
    # the second element's fields are equal but distinct objects, or drawn apart
    entities, at = side
    if other_side is None:
        other_side = frozenset(objective(e.id) for e in entities), _twin_timeset(at)
    ea, eb = Element(entities, at, a), Element(*other_side, b)
    for x, y in ((ea, eb), (eb, ea), (ea, _colliding_with(eb, ea))):
        assert (x == y) is (_element_fields(x) == _element_fields(y))
        assert (x != y) is (_element_fields(x) != _element_fields(y))
    for e in (ea, eb):
        assert hash(e) == hash((e.entities, e.at, e.value))
        assert (e == (1, 2, 3)) is False and ((1, 2, 3) == e) is False
        assert e != (e.entities, e.at, e.value)
    assert _minus_one != _minus_two and hash(_minus_one) == hash(_minus_two)


def _pickled(x):
    """What a pickle round trip of ``x`` gives: its fields and hash, or the
    type and text of the error unpickling raises."""
    try:
        back = pickle.loads(pickle.dumps(x))
    except Exception as e:
        return type(e), str(e)
    return _element_fields(back) if isinstance(back, Element) else _value_fields(back), hash(back)


@given(
    st.fractions() | rationals,
    _element_sides,
    st.sampled_from([objective("s"), subjective("s")]),
)
@settings(max_examples=150, deadline=None)
@example(Fraction(-1), (frozenset({objective("p")}), TimeSet.point(0)), objective("s"))
def test_trusted_element_and_scalar_are_the_public_ones(q, side, extra):
    """``Value.scalar`` skips ``Value.__init__``'s tag dispatch, and
    ``Element._from_set`` the public constructor's checks and copies; each
    gives the same object."""
    public, trusted = Value("scalar", q), Value.scalar(q)
    entities, at = side
    others = entities | {extra}
    elements = Element(others, at, public), Element._from_set(others, at, trusted)
    for a, b in ((public, trusted), elements):
        fields = _element_fields if isinstance(a, Element) else _value_fields
        assert fields(a) == fields(b)
        assert hash(a) == hash(b) and a._h == b._h
        assert a == b and b == a and not a != b
        assert repr(a) == repr(b)
        assert _pickled(a) == _pickled(b)
    assert trusted.body is q and elements[1].entities is others
    # the trusted element compares with one of other fields as the public one does
    unlike = Element(entities, at, Value.scalar(q + 1))
    assert (elements[1] == unlike) is (elements[0] == unlike) is False


# -- values built from terms ----------------------------------------------------
#
# ``Value._from_terms`` stores a number's integer terms and builds no body
# until it is read.  Drawn from a small pool as well as at large, the numbers
# repeat, so vectors are often prefixes of one another and values tie.

_huge = st.builds(Fraction, st.integers(-(2**130), 2**130), st.integers(1, 2**130))
_pool = [Fraction(0), Fraction(-1), Fraction(1, 3), Fraction(-7, 2), Fraction(2**100 + 1, 3**50)]
_numbers = st.one_of(st.sampled_from(_pool), rationals, _huge)
_specs = st.recursive(
    st.one_of(
        st.tuples(st.just("scalar"), _numbers),
        st.tuples(st.just("vector"), st.lists(_numbers, max_size=3).map(tuple)),
    ),
    lambda inner: st.tuples(
        st.just("record"), st.dictionaries(st.sampled_from("ab"), inner, max_size=2)
    ),
    max_leaves=5,
)


def _built(spec, how: str) -> Value:
    """The value ``spec`` describes, built from its terms (``how`` is
    "terms"), by ``Value.scalar``/``Value.vector`` ("named") or by
    ``Value(tag, body)`` ("public"); a record holds values built the same way."""
    tag, body = spec
    if tag == "record":
        return Value.record({k: _built(inner, how) for k, inner in body.items()})
    if how == "public":
        return Value(tag, body)
    if how == "named":
        return Value.scalar(body) if tag == "scalar" else Value.vector(body)
    if tag == "scalar":
        return Value._from_terms(tag, (body.numerator, body.denominator))
    return Value._from_terms(tag, tuple((q.numerator, q.denominator) for q in body))


def _body_fields(v: Value):
    """``v``'s tag and body, with the type of the body and of each number."""
    if v.tag == "record":
        return v.tag, type(v.body), tuple((k, _body_fields(inner)) for k, inner in v.body)
    if v.tag == "vector":
        return v.tag, type(v.body), tuple((type(q), q) for q in v.body)
    return v.tag, type(v.body), v.body


def _sign(a, b) -> int:
    return (a > b) - (a < b)


@given(st.lists(_specs, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
@example([("scalar", Fraction(0)), ("vector", ()), ("record", {})])
@example([("vector", (Fraction(1, 3), Fraction(-1))), ("vector", (Fraction(1, 3),))])
def test_value_from_terms_is_the_public_one(specs):
    """A value built from terms has the tag, body, hash, equality, repr and
    pickle outcome of the values ``Value.scalar``, ``Value.vector`` and
    ``Value(tag, body)`` build, and ``sort_key`` orders it as the seed's
    Fraction key does."""
    trusted = [_built(spec, "terms") for spec in specs]
    for spec, t in zip(specs, trusted):
        texts = repr(t), _pickled(t)  # read before any view is built
        for other in (_built(spec, "named"), _built(spec, "public")):
            assert hash(t) == hash(other) and t._h == other._h
            assert t == other and other == t and not t != other
            assert texts == (repr(other), _pickled(other))
            assert _body_fields(t) == _body_fields(other)
        assert repr(t) == texts[0]  # and after it is
    values = trusted + [_built(spec, "named") for spec in specs] + [Value.symbol("s")]
    by_terms = sorted(values, key=Value.sort_key)
    by_fractions = sorted(values, key=reference_model.value_sort_key)
    assert [id(v) for v in by_terms] == [id(v) for v in by_fractions]
    for a, b in zip(values, values[1:] + values[:1]):
        seed = _sign(reference_model.value_sort_key(a), reference_model.value_sort_key(b))
        assert _sign(a.sort_key(), b.sort_key()) == seed == (0 if a == b else seed)


def test_equality_on_float_bodies_keeps_its_answers():
    """A body given to ``Value(tag, body)`` that has no integer terms
    compares as itself: a NaN scalar equals no scalar, while a vector, a
    tuple, finds its own NaN object equal.  A float with terms compares
    by them."""
    nan = float("nan")
    assert (Value("scalar", nan) == Value("scalar", nan)) is False
    assert (Value("scalar", nan) != Value("scalar", nan)) is True
    assert (Value("vector", (nan,)) == Value("vector", (nan,))) is True
    half = Fraction(1, 2)
    for exact in (Value.scalar(half), Value._from_terms("scalar", (1, 2))):
        assert (Value("scalar", 0.5) == exact) is True and (exact == Value("scalar", 0.5)) is True
    assert Value("vector", (0.5, 3)) == Value._from_terms("vector", ((1, 2), (3, 1)))


# -- integer keys ---------------------------------------------------------------
#
# A time set also keeps its endpoints as integers over the least common
# denominator of its normal form, and compares, bisects and sweeps those.
# Denominators here are coprime or powers of two, so two sets seldom share
# one, yet their endpoints meet often enough to touch, nest and be equal.
# Every set is built from fresh Fraction objects, equal to but distinct
# from any other side's.

coprime_edges = st.builds(
    Fraction, st.integers(-24, 24), st.sampled_from((1, 2, 3, 7, 8, 21, 64))
)
coprime_raw = st.tuples(
    st.lists(
        st.one_of(
            st.tuples(coprime_edges, coprime_edges).map(sorted).map(tuple),
            coprime_edges.map(lambda t: (t, t)),
        ),
        max_size=5,
    ),
    st.none() | coprime_edges,
).filter(lambda raw: raw[0] or raw[1] is not None)


def _fresh_raw(raw):
    pairs, ray = raw
    return [(_fresh(lo), _fresh(hi)) for lo, hi in pairs], None if ray is None else _fresh(ray)


def _rewritten(ts: TimeSet, rnd: random.Random):
    """Another writing of the point set ``ts``: every interval split at
    its midpoint into two touching halves, a point inside each, pieces
    the ray absorbs, all shuffled.  Midpoints and absorbed pieces add
    denominators that the normal form drops again."""
    pieces = []
    for lo, hi in ts.intervals:
        mid = (lo + hi) / 2
        pieces += [(lo, mid), (mid, hi), (mid, mid), (lo, hi)]
    ray = ts.ray_from
    if ray is not None:
        pieces += [(ray, ray + Fraction(1, 5)), (ray + Fraction(2, 9), ray + 3)]
    rnd.shuffle(pieces)
    return _fresh_raw((pieces, ray))


def _assert_exact_keys(ts: TimeSet) -> None:
    """The integer keys are the normal form over its least common
    denominator, which makes them a function of the point set."""
    ends = [t for iv in ts.intervals for t in iv] + [ts.ray_from] * ts.is_unbounded
    assert ts._d == math.lcm(*(t.denominator for t in ends))
    scaled = [Fraction(k, ts._d) for iv in zip(ts._los, ts._his) for k in iv]
    if ts._ray is not None:
        scaled.append(Fraction(ts._ray, ts._d))
    assert scaled == ends and (ts._ray is None) == (ts.ray_from is None)
    assert all(type(k) is int for k in (*ts._los, *ts._his))


def _reference(raw) -> reference_timeset.TimeSet:
    return reference_timeset.TimeSet(*_fresh_raw(raw))


def _same_as_reference(ts, ref) -> bool:
    return ts.intervals == ref.intervals and ts.ray_from == ref.ray_from


def _shrunk(ts: TimeSet):
    """A subset of ``ts`` over other denominators: each interval loses a
    third of its length on the left and a seventh on the right, and the
    ray starts a third later."""
    pairs = [(lo + (hi - lo) / 3, hi - (hi - lo) / 7) for lo, hi in ts.intervals]
    ray = None if ts.ray_from is None else ts.ray_from + Fraction(1, 3)
    return _fresh_raw((pairs, ray))


@st.composite
def writings(draw):
    """Two inputs for time sets: independent, one point set written twice,
    or a set and a subset of it."""
    first = draw(coprime_raw)
    how = draw(st.sampled_from(("independent", "rewritten", "shrunk")))
    if how == "independent":
        return first, draw(coprime_raw)
    ts = TimeSet(*_fresh_raw(first))
    return first, _rewritten(ts, draw(st.randoms())) if how == "rewritten" else _shrunk(ts)


@given(writings(), st.lists(coprime_edges, max_size=6))
@settings(max_examples=300, deadline=None)
def test_integer_keys_decide_equality_as_the_reference_does(raw, probes):
    a, b = TimeSet(*_fresh_raw(raw[0])), TimeSet(*_fresh_raw(raw[1]))
    ref_a, ref_b = _reference(raw[0]), _reference(raw[1])
    assert _same_as_reference(a, ref_a) and _same_as_reference(b, ref_b)
    for ts in (a, b):
        _assert_exact_keys(ts)
        assert hash(ts) == hash(TimeSet(ts.intervals, ts.ray_from))
    equal = ref_a.intervals == ref_b.intervals and ref_a.ray_from == ref_b.ray_from
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
    if equal:
        assert hash(a) == hash(b)
    assert a.is_subset(b) == ref_a.is_subset(ref_b)
    assert b.is_subset(a) == ref_b.is_subset(ref_a)
    ends = [t for iv in a.intervals + b.intervals for t in iv]
    near = [t + Fraction(s, 97) for t in ends for s in (-1, 1)]
    for t in [*probes, *ends, *near]:
        assert a.contains_point(t) == ref_a.contains_point(t)
        assert b.contains_point(_fresh(t)) == ref_b.contains_point(t)


def test_integer_keys_past_the_hash_modulus():
    # Python hashes a rational m/n through the inverse of n modulo the prime
    # P = sys.hash_info.modulus, which a denominator that P divides does not
    # have; the keys of such a set are exact integers all the same
    big = Fraction(1, sys.hash_info.modulus)
    for ts in (TimeSet.point(big), TimeSet.from_intervals([(big, 1)], 2), TimeSet.ray(-big)):
        assert hash(ts) == hash(TimeSet(ts.intervals, ts.ray_from))
        _assert_exact_keys(ts)
        assert ts.is_subset(TimeSet.ray(-1)) and not TimeSet.ray(-1).is_subset(ts)


@given(coprime_raw, coprime_edges, st.randoms(), st.sampled_from((1, sys.hash_info.modulus)))
@settings(max_examples=200, deadline=None)
def test_integer_keys_survive_every_rebuild(raw, delta, rnd, scale):
    # every endpoint is divided by ``scale``: by 1, or by the prime modulus
    # of Python's numeric hash, which then divides every denominator
    pairs, ray = raw
    raw = [(lo / scale, hi / scale) for lo, hi in pairs], None if ray is None else ray / scale
    delta /= scale
    ts, ref = TimeSet(*_fresh_raw(raw)), _reference(raw)
    moved_ref = reference_timeset.TimeSet(
        tuple((lo + delta, hi + delta) for lo, hi in ref.intervals),
        None if ref.ray_from is None else ref.ray_from + delta,
    )
    rebuilt = {
        "replace": (dataclasses.replace(ts), ref),
        "pickle": (pickle.loads(pickle.dumps(ts)), ref),
        "shift": (ts.shift(delta), moved_ref),
        "union": (ts.union(ts.shift(delta)), ref.union(moved_ref)),
    }
    for how, (got, want) in rebuilt.items():
        assert _same_as_reference(got, want), how
        _assert_exact_keys(got)
        assert hash(got) == hash(TimeSet(got.intervals, got.ray_from)), how
        # an equal set built apart, from the reference's endpoints
        apart = TimeSet(*_fresh_raw((want.intervals, want.ray_from)))
        assert got == apart and hash(got) == hash(apart), how
        assert got.is_subset(ts) == want.is_subset(ref), how
        assert ts.is_subset(got) == ref.is_subset(want), how
        assert got.is_subset(got.union(ts)) and ts.is_subset(got.union(ts)), how
    assert rebuilt["replace"][0] == ts and rebuilt["pickle"][0] == ts
    back = ts.shift(delta).shift(-delta)
    assert back == ts and hash(back) == hash(ts)
    swapped = ts.shift(delta).union(ts)
    assert swapped == rebuilt["union"][0] and hash(swapped) == hash(rebuilt["union"][0])
    # an input already in normal form and a shuffled, overlapping writing
    # of it give one set, with one set of integer keys
    twin = TimeSet(*_rewritten(ts, rnd))
    assert twin == ts and hash(twin) == hash(ts)
    assert (twin._d, twin._los, twin._his, twin._ray) == (ts._d, ts._los, ts._his, ts._ray)


# -- structural round trips ---------------------------------------------------


@given(infos())
@settings(max_examples=60, deadline=None)
def test_random_information_valid_and_reducible(info):
    assert validate(info) == []
    assert is_reducible(info)


@given(infos())
@settings(max_examples=60, deadline=None)
def test_inverse_involution(info):
    back = invert(invert(info))
    assert back.ontology == info.ontology
    assert back.states == info.states
    assert back.reflections == info.reflections
    assert set(back.mapping) == set(info.mapping)


@given(infos())
@settings(max_examples=60, deadline=None)
def test_atoms_recombine(info):
    parts = [a.lift() for a in atoms(info)]
    whole = reduce(combine, parts)
    assert whole == info


@given(infos(), seeds)
@settings(max_examples=60, deadline=None)
def test_sub_information_reducible_and_monotone(info, pick):
    rng = random.Random(pick)
    pairs = list(info.mapping)
    kept = [p for p in pairs if rng.random() < 0.5] or [pairs[0]]
    sub = reference_model.from_pairs("sub", kept)
    ok, proper = is_sub_information(sub, info)
    assert ok
    assert proper == (len(kept) < len(pairs))
    assert is_reducible(sub)
    counting = MeasureAssignment.counting()
    assert volume(sub, counting) <= volume(info, counting)
    assert scope(sub, counting) <= scope(info, counting)


@given(infos())
@settings(max_examples=60, deadline=None)
def test_document_codec_round_trip(info):
    from isd.document import ModelDocument

    doc = ModelDocument(
        format_version="1",
        entities=(),
        informations=(info,),
        measures=(),
        relations=(),
        systems=(),
        chains=(),
    )
    text = emit_document(doc)
    again = loads_document(text)
    assert emit_document(again) == text


# -- validation ---------------------------------------------------------------

VIOLATION_CODES = (
    "empty-component",
    "carrier-not-objective",
    "state-subject-outside-ontology",
    "state-time-outside-occurrence",
    "reflection-part-outside-carrier",
    "reflection-time-outside",
    "mapping-not-total",
    "mapping-key-unknown",
    "mapping-not-surjective",
    "mapping-value-unknown",
)


def _inject(info, codes, rng):
    """Rebuild ``info`` with faults meant to raise each of ``codes``;
    several elements are hit at once, so report order matters."""
    f = {
        "ontology": set(info.ontology),
        "occurrence": info.occurrence,
        "states": set(info.states),
        "carrier": set(info.carrier),
        "reflection_time": info.reflection_time,
        "reflections": set(info.reflections),
    }
    pairs = list(info.mapping)
    states = sorted(info.states, key=StateElement.sort_key)
    reflections = sorted(info.reflections, key=ReflectionElement.sort_key)
    for code in codes:
        k = rng.randint(1, 3)
        if code == "empty-component":
            f[rng.choice(["ontology", "states", "carrier", "reflections"])] = set()
        elif code == "carrier-not-objective":
            f["carrier"] |= {subjective(f"ghost{i}") for i in range(k)}
        elif code == "state-subject-outside-ontology":
            for s in rng.sample(states, min(k, len(states))):
                f["ontology"].discard(rng.choice(sorted(s.subject, key=lambda e: e.id)))
        elif code == "state-time-outside-occurrence":
            f["occurrence"] = rng.choice(states).at
        elif code == "reflection-part-outside-carrier":
            for r in rng.sample(reflections, min(k, len(reflections))):
                f["carrier"].discard(rng.choice(sorted(r.carrier_part, key=lambda e: e.id)))
        elif code == "reflection-time-outside":
            f["reflection_time"] = rng.choice(reflections).at
        elif code == "mapping-not-total":
            start = rng.randrange(len(pairs))
            del pairs[start : start + k]
        elif code == "mapping-key-unknown":
            for i in range(k):
                at, value = TimeSet.point(900 + i), Value.symbol(f"stray{i}")
                stray = StateElement(rng.choice(states).subject, at, value)
                pairs.append((stray, rng.choice(reflections)))
        elif code == "mapping-not-surjective":
            for i in range(k):
                f["reflections"].add(
                    ReflectionElement(
                        rng.choice(reflections).carrier_part,
                        TimeSet.point(800 + i),
                        Value.symbol(f"orphan{i}"),
                    )
                )
        elif code == "mapping-value-unknown":
            for r in rng.sample(reflections, min(k, len(reflections))):
                f["reflections"].discard(r)
    return Information(info.name, mapping=pairs, **f)


@given(infos(), st.sets(st.sampled_from(VIOLATION_CODES)), seeds)
@settings(max_examples=150, deadline=None)
def test_validate_matches_reference(info, codes, pick):
    broken = _inject(info, sorted(codes), random.Random(pick))
    assert validate(broken) == reference_model.validate(broken)


def test_fault_injection_reaches_every_code():
    for code in VIOLATION_CODES:
        broken = _inject(random_information(random.Random(0)), [code], random.Random(0))
        assert code in {v.code for v in validate(broken)}


HANDOFF_CODES = ("handoff-carrier", "handoff-time", "handoff-element", "handoff-count")


def _inject_handoff(first, second, codes, rng):
    """Rebuild the pair with faults meant to raise each hand-off code;
    several states are hit at once, so report order matters."""
    carrier, occurrence, states = set(first.carrier), second.occurrence, set(second.states)
    for code in codes:
        k = rng.randint(1, 3)
        if code == "handoff-carrier":
            carrier.add(objective(f"spare{k}"))
        elif code == "handoff-time":
            occurrence = occurrence.union(TimeSet.point(700 + k))
        elif code == "handoff-element":
            ordered = sorted(states, key=StateElement.sort_key)
            for i, s in enumerate(rng.sample(ordered, min(k, len(ordered)))):
                states.discard(s)
                states.add(StateElement(s.subject, s.at, Value.symbol(f"moved{i}")))
        elif code == "handoff-count":
            subject = rng.choice(sorted(states, key=StateElement.sort_key)).subject
            for i in range(k):
                states.add(StateElement(subject, TimeSet.point(600 + i), Value.symbol("extra")))
    first = Information(
        first.name,
        first.ontology,
        first.occurrence,
        first.states,
        carrier,
        first.reflection_time,
        first.reflections,
        first.mapping,
    )
    second = Information(
        second.name,
        second.ontology,
        occurrence,
        states,
        second.carrier,
        second.reflection_time,
        second.reflections,
        second.mapping,
    )
    return first, second


@given(seeds, st.sets(st.sampled_from(HANDOFF_CODES)), seeds)
@settings(max_examples=100, deadline=None)
def test_check_link_matches_reference(seed, codes, pick):
    chain = random_chain(random.Random(seed), n_links=2)
    first, second = _inject_handoff(*chain.links, sorted(codes), random.Random(pick))
    assert check_link(first, second) == reference_model.check_link(first, second)


def test_handoff_injection_reaches_every_code():
    chain = random_chain(random.Random(0), n_links=2)
    for code in HANDOFF_CODES:
        first, second = _inject_handoff(*chain.links, [code], random.Random(0))
        assert code in {v.code for v in check_link(first, second)}


# Small pools, so that drawn elements often share subject, time or value
# and differ only in the rest of their sort key.
small_values = st.recursive(
    st.one_of(
        st.sampled_from("ab").map(Value.symbol),
        st.integers(0, 2).map(Value.scalar),
        st.lists(st.integers(0, 1), max_size=2).map(Value.vector),
    ),
    lambda inner: st.dictionaries(st.sampled_from("xy"), inner, max_size=2).map(
        Value.record
    ),
    max_leaves=3,
)
small_parts = st.sets(
    st.sampled_from([objective("p"), objective("q"), subjective("p")]), min_size=1
)
small_times = st.one_of(
    st.integers(0, 2).map(TimeSet.point),
    st.integers(0, 2).map(TimeSet.ray),
    timesets(),
)

small_pairs = st.tuples(
    st.builds(StateElement, small_parts, small_times, small_values),
    st.builds(ReflectionElement, small_parts, small_times, small_values),
)


@given(st.lists(small_pairs, max_size=12))
@settings(max_examples=100, deadline=None)
def test_mapping_order_matches_reference(pairs):
    pairs = list(dict(pairs).items())
    info = Information("m", set(), TimeSet.point(0), set(), set(), TimeSet.point(0), set(), pairs)
    assert info.mapping == reference_model.normalize_pairs(pairs)


@given(st.lists(small_pairs, min_size=1, max_size=12), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_from_pairs_matches_reference(pairs, duplicates):
    pairs = list(dict(pairs).items())
    pairs += pairs[:duplicates]
    info = Information.from_pairs("p", pairs)
    assert info == reference_model.from_pairs("p", pairs)
    assert info.name == "p"
    fresh = dataclasses.replace(info)
    assert not getattr(fresh, "_known_valid", False)
    report = validate(fresh)
    if getattr(info, "_known_valid", False):
        assert report == []
    else:
        assert report and {v.code for v in report} == {"carrier-not-objective"}


@given(small_parts, small_times, small_values)
@settings(max_examples=100, deadline=None)
def test_states_and_reflections_are_one_element_type(entities, at, value):
    assert StateElement is ReflectionElement is Element
    e = StateElement(entities, at, value)
    assert e == ReflectionElement(entities, at, value)
    assert hash(e) == hash((e.entities, e.at, e.value))
    assert e.subject == e.carrier_part == e.entities == frozenset(entities)


def _invert_outcome(invert_fn, info):
    try:
        return invert_fn(info)
    except NonInvertibleError as e:
        return str(e)


# Informations over subjective and objective subjects, with an objective
# carrier so that they are valid; several states may share one reflection,
# so many are lossy.
@given(
    st.lists(
        st.tuples(
            st.builds(StateElement, small_parts, small_times, small_values),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(
        st.builds(
            ReflectionElement,
            st.sets(st.sampled_from([objective("c"), objective("d")]), min_size=1),
            small_times,
            small_values,
        ),
        min_size=4,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_invert_matches_reference(states, reflections):
    info = Information.from_pairs("x", {s: reflections[k] for s, k in states}.items())
    got = _invert_outcome(invert, info)
    want = _invert_outcome(reference_model.invert, info)
    assert type(got) is type(want)
    assert got == want
    if not isinstance(got, str):
        # the inverse, a RawMapping when the ontology had subjective
        # entities, inverts back on both sides
        assert got.name == want.name
        assert got.mapping == want.mapping
        back = invert(got)
        assert type(back) is type(reference_model.invert(want)) is Information
        assert back == reference_model.invert(want) == info


@given(seeds, st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_collapsed_chain_validates_from_scratch(seed, n_links):
    whole = collapse_chain(random_chain(random.Random(seed), n_links=n_links))
    assert whole._known_valid
    fresh = Information(
        whole.name,
        whole.ontology,
        whole.occurrence,
        whole.states,
        whole.carrier,
        whole.reflection_time,
        whole.reflections,
        whole.mapping,
    )
    assert not getattr(fresh, "_known_valid", False)
    assert validate(fresh) == []


# -- chains -------------------------------------------------------------------


@given(seeds, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_sorted_states_is_the_canonical_order(seed, n_links):
    chain = random_chain(random.Random(seed), n_links=n_links)
    whole = collapse_chain(chain)
    for info in (*chain.links, whole, Information.from_pairs("p", whole.mapping)):
        assert info.sorted_states() == sorted(info.states, key=Element.sort_key)


def _as_raw(info) -> RawMapping:
    return RawMapping(
        info.name,
        info.ontology,
        info.occurrence,
        info.states,
        info.carrier,
        info.reflection_time,
        info.reflections,
        info.mapping,
    )


def _same_composite(got, want) -> None:
    assert type(got.mapping) is tuple and got.mapping == want.mapping
    assert got.map == want.map and got == want and got.name == want.name
    assert getattr(got, "_known_valid", False) == getattr(want, "_known_valid", False)
    assert validate(got) == validate(want)
    if isinstance(got, Information) and not validate(got):  # one raw link is no composite
        assert got.sorted_states() == sorted(got.states, key=Element.sort_key)


def _subjective_twin(info: Information) -> Information:
    """``info`` with every subject moved to the subjective realm, so its
    inverse keeps that ontology as carrier and stays a RawMapping."""
    return Information.from_pairs(
        info.name,
        [
            (Element({subjective(e.id) for e in s.entities}, s.at, s.value), r)
            for s, r in info.mapping
        ],
    )


@given(
    seeds,
    st.integers(min_value=1, max_value=5),
    st.integers(-1, 4),
    st.sampled_from([None, objective, subjective]),
)
@settings(max_examples=60, deadline=None)
def test_composition_matches_reference(seed, n_links, raw_at, loop):
    """Composites keep the first link's mapping order; the reference sorts
    them again.  Hand-built chains swap a link for a RawMapping with the
    same fields, or run a link, its inverse and the link again; with
    subjective subjects that inverse is a RawMapping, and the link
    composed with it is not valid."""
    links = list(random_chain(random.Random(seed), n_links=n_links).links)
    if loop is not None:
        first = links[0] if loop is objective else _subjective_twin(links[0])
        links = [first, invert(first), first]
        assert isinstance(links[1], RawMapping) is (loop is subjective)
    if raw_at < len(links):
        links[raw_at] = _as_raw(links[raw_at])
    chain = SerialChain(tuple(links))
    assert check_chain(chain) == []
    known = [not isinstance(link, RawMapping) for link in links]
    whole = collapse_chain(chain)
    _trusted(whole, all(known))  # before sorted_states checks and marks it
    _same_composite(whole, reduce(reference_model.join, links))
    if len(links) > 1:
        pair = compose(links[0], links[1])
        _trusted(pair, all(known[:2]))
        _same_composite(pair, reference_model.join(links[0], links[1]))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_chain_delay_additive(seed):
    rng = random.Random(seed)
    chain = random_chain(rng)
    assert check_chain(chain) == []
    whole = collapse_chain(chain)
    assert delay(whole) == sum(delay(link) for link in chain.links)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_chain_collapse_matches_pairwise(seed):
    from isd.model import compose
    from functools import reduce

    rng = random.Random(seed)
    chain = random_chain(rng, n_links=3)
    whole = collapse_chain(chain)
    paired = reduce(compose, chain.links)
    assert whole.states == paired.states
    assert whole.reflections == paired.reflections
    assert set(whole.mapping) == set(paired.mapping)
    assert whole.name == paired.name


# -- the trusted constructor ----------------------------------------------------
#
# ``from_pairs``, ``compose``, ``collapse_chain``, ``combine`` and ``promote``
# build through ``_Sextuple._presorted``, which keeps the mapping as given and
# records its caller's verdict as the mark.


def _trusted(got, marked: bool) -> None:
    """``got`` is what the public constructor builds from its fields, given
    its mapping in reverse order, and is marked exactly when ``marked``."""
    public = dataclasses.replace(got, mapping=got.mapping[::-1])
    assert type(got.mapping) is tuple and got.mapping == public.mapping
    assert got.map == public.map and got == public and got.name == public.name
    assert getattr(got, "_known_valid", False) == marked
    if marked:
        assert validate(got) == []


_valid_pairs = st.lists(
    st.tuples(
        st.builds(StateElement, small_parts, small_times, small_values),
        st.builds(
            ReflectionElement,
            st.sets(st.sampled_from([objective("c"), objective("d")]), min_size=1),
            small_times,
            small_values,
        ),
    ),
    min_size=1,
    max_size=6,
)


@given(
    st.lists(small_pairs, min_size=1, max_size=8),
    _valid_pairs,
    _valid_pairs,
    st.sampled_from([None, 0, 1]),
)
@settings(max_examples=100, deadline=None)
def test_trusted_builds_match_the_public_constructor(pairs, pairs_a, pairs_b, raw_at):
    """``from_pairs`` is marked when its carrier is objective; ``promote``
    when it returns; ``combine`` when neither side is a RawMapping.  The
    combined sides share a state that maps alike, and may share others
    that do not."""
    info = Information.from_pairs("p", dict(pairs).items())
    _trusted(info, all(e.is_objective for e in info.carrier))
    try:
        promoted = _as_raw(info).promote()
    except InvalidInformationError:
        assert validate(info)
    else:
        assert type(promoted) is Information and promoted == info
        _trusted(promoted, True)

    a = Information.from_pairs("a", dict(pairs_a).items())
    b = Information.from_pairs("b", {**dict(pairs_b), **dict(a.mapping[:1])}.items())
    sides = [a, b]
    if raw_at is not None:
        sides[raw_at] = _as_raw(sides[raw_at])
    try:
        want = reference_model.combine(*sides)
    except CombineConflictError:
        with pytest.raises(CombineConflictError):
            combine(*sides)
        return
    whole = combine(*sides)
    assert type(whole) is Information and whole == want and whole.name == want.name
    assert whole.mapping == want.mapping
    _trusted(whole, raw_at is None)


# -- measures -----------------------------------------------------------------


@given(infos(), seeds)
@settings(max_examples=60, deadline=None)
def test_variety_transport_invariant(info, pick):
    rng = random.Random(pick)
    rel = random_partition_relation(rng, info)
    induced = induce_relation(info, rel)
    assert variety(info, rel) == len(induced.classes_over(info.reflections))


_POOL = tuple(
    Element(frozenset([objective(f"e{i}")]), TimeSet.point(i), Value.scalar(i)) for i in range(5)
)


@st.composite
def relations_over(draw):
    """(relation, element set) over a pool of five elements.  Half the draws
    start from the pairs of a partition of the set; every draw may then lose
    a pair (a missing diagonal, an asymmetric or non-transitive remainder)
    and gain pairs, some of them naming elements outside the set."""
    chosen = draw(st.lists(st.integers(0, 4), unique=True, max_size=5))
    pairs = set()
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=len(chosen), max_size=len(chosen)))
        pairs = {(a, b) for a, la in zip(chosen, labels) for b, lb in zip(chosen, labels) if la == lb}
        if pairs and draw(st.booleans()):
            pairs.discard(draw(st.sampled_from(sorted(pairs))))
    index_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))
    pairs |= set(draw(st.lists(index_pairs, max_size=4)))
    elements = [_POOL[i] for i in chosen]
    return Relation("r", frozenset((_POOL[a], _POOL[b]) for a, b in pairs)), elements


@given(relations_over())
@settings(max_examples=400, deadline=None)
@example((Relation("r", frozenset()), []))
@example((Relation("r", frozenset((e, e) for e in _POOL[:2])), list(_POOL[:2])))
def test_is_equivalence_over_matches_reference(drawn):
    relation, elements = drawn
    assert relation.is_equivalence_over(elements) is (
        reference_measures.is_equivalence_over(relation, elements)
    )


@given(infos(), seeds)
@settings(max_examples=60, deadline=None)
def test_aggregation_two_sided(info, pick):
    rng = random.Random(pick)
    rel = random_partition_relation(rng, info)
    state_side = aggregation(info, [rel])
    m = info.map
    moved = frozenset((m[x], m[y]) for x, y in rel.pairs)
    assert state_side == Fraction(len(moved), len(info.reflections))


@given(infos())
@settings(max_examples=60, deadline=None)
def test_distortion_zero_under_reduction(info):
    j = reduction_map(info)
    for kind in (
        "symmetric_difference_count",
        "jaccard_distance",
        "euclidean_on_values",
    ):
        assert distortion(info, j, Metric(kind)) == 0


@given(infos())
@settings(max_examples=60, deadline=None)
def test_mismatch_reflexive(info):
    assert mismatch(info, info, Metric("weighted_product")) == 0


@given(infos(), infos())
@settings(max_examples=60, deadline=None)
def test_mismatch_symmetric(a, b):
    m = Metric("weighted_product")
    assert mismatch(a, b, m) == mismatch(b, a, m)


@given(st.fractions(min_value="1/8", max_value=8, max_denominator=8),
       st.integers(min_value=2, max_value=9))
def test_sampling_rate_inverse_gap(gap, count):
    from isd.model import Information, ReflectionElement, StateElement
    from isd.values import Value, objective

    src, cam = objective("src"), objective("cam")
    pairs = []
    for k in range(count):
        t = TimeSet.point(k * gap)
        pairs.append(
            (
                StateElement({src}, t, Value.scalar(k)),
                ReflectionElement({cam}, t, Value.scalar(k)),
            )
        )
    times = TimeSet.from_points([k * gap for k in range(count)])
    info = Information(
        "ticks", {src}, times, {s for s, _ in pairs},
        {cam}, times, {r for _, r in pairs}, pairs,
    )
    assert sampling_rate(info) == 1 / gap


# -- exact sums and atom means against the reference -------------------------
#
# Every measure that adds rationals must give the reference's value, of the
# reference's type, or its error with its message.  The inputs mix
# denominators, put reflections before their states (negative delays),
# make occurrences and reflection times rays, weigh atoms by partial
# explicit weights, give entities and components zero weights, and include
# an empty RawMapping.

_denominators = st.sampled_from([1, 2, 3, 4, 12])
_q = st.builds(Fraction, st.integers(-60, 60), _denominators)
_width = st.builds(Fraction, st.integers(1, 24), _denominators)
_weight = st.one_of(_width, _width, _width, st.just(Fraction(0)))
_subjects = [objective("p"), objective("q"), subjective("m")]
_carriers = [objective("c"), objective("d")]


@st.composite
def _times(draw):
    lo = draw(_q)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return TimeSet.point(lo)
    if kind == 1:
        return TimeSet.interval(lo, lo + draw(_width))
    if kind == 2:  # two components with a gap between them
        return TimeSet.from_intervals([(lo, lo + draw(_width)), (lo + 7, lo + 7 + draw(_width))])
    return TimeSet.ray(lo)


@st.composite
def _numbers(draw):
    """Mostly scalars, some vectors of one or two coordinates, now and then
    a symbol, which has no numeric components."""
    k = draw(st.integers(0, 7))
    if k == 0:
        return Value.symbol("blur")
    if k < 3:
        return Value.vector(draw(st.lists(_q, min_size=1, max_size=2)))
    return Value.scalar(draw(_q))


def _elements(parts):
    return st.builds(Element, st.sets(st.sampled_from(parts), min_size=1), _times(), _numbers())


_EMPTY = RawMapping("empty", set(), TimeSet.point(0), set(), set(), TimeSet.point(0), set(), [])
_pairs = st.lists(st.tuples(_elements(_subjects), _elements(_carriers)), min_size=1, max_size=6)


@st.composite
def _measured(draw):
    k = draw(st.integers(0, 9))
    if k == 0:
        return _EMPTY
    if k == 1:  # a composite, whose mapping keeps its first link's order
        return collapse_chain(random_chain(random.Random(draw(seeds))))
    return Information.from_pairs("x", dict(draw(_pairs)).items())


_mus = st.one_of(
    st.none(),
    st.just(AtomWeighting.counting()),
    # weights for the first few atoms, or for any few
    st.lists(_width, max_size=7).map(lambda ws: AtomWeighting.explicit(dict(enumerate(ws)))),
    st.dictionaries(st.integers(0, 6), _width, max_size=7).map(AtomWeighting.explicit),
)
_sigmas = st.builds(
    MeasureAssignment,
    st.just("w"),
    st.dictionaries(st.sampled_from(_subjects + _carriers), _weight),
    _weight,
)
# atom 0's reflection is a ray over a bounded occurrence, and only atom 0
# has an explicit weight: reading the weights first would raise the wrong error
_RAYED = Information.from_pairs(
    "rayed",
    [
        (
            Element({objective("p")}, TimeSet.point(k), Value.scalar(k)),
            Element({objective("c")}, TimeSet.ray(k + 1), Value.scalar(k)),
        )
        for k in (0, 1)
    ],
)


_COMPOSITE = collapse_chain(random_chain(random.Random(0), n_links=3))

# values as a float reading gives them: power-of-two denominators, beside one
# coordinate in thirds; the vector atom comes first in the mapping
def _at(who, t, value):
    return Element({objective(who)}, TimeSet.point(t), value)


_DYADIC = Information.from_pairs(
    "dyadic",
    [
        (
            _at("p", 0, Value.vector([Fraction(7, 8), Fraction(1, 3)])),
            _at("c", 1, Value.vector([Fraction(1, 2), Fraction(1, 4)])),
        ),
        (_at("q", 1, Value.scalar(Fraction(-3, 16))), _at("c", 2, Value.scalar(Fraction(5, 64)))),
    ],
)


def _dyadic_estimate(*coords):
    """An estimate for the vector atom of ``_DYADIC``; the scalar atom is
    estimated as its own state, at distance zero."""
    return [_at("p", 0, Value.vector(coords))]


# (3/4)**2 + 1**2 = 25/16, a rational square, and (3/4)**2 + (1/6)**2 =
# 85/144, which is not
_SQUARE_ESTIMATE = _dyadic_estimate(Fraction(1, 8), Fraction(-2, 3))
_NON_SQUARE_ESTIMATE = _dyadic_estimate(Fraction(1, 8), Fraction(1, 6))


def _outcome(f, *args, **kwargs):
    """The value with its type, or the error's type and message."""
    try:
        got = f(*args, **kwargs)
    except Exception as e:  # the error is the outcome under comparison
        return type(e), str(e)
    if isinstance(got, ExtendedRate):
        return ExtendedRate, type(got.value), got.value
    return type(got), got


@given(
    _measured(),
    _measured(),
    _mus,
    _sigmas,
    st.dictionaries(st.sampled_from(MISMATCH_COMPONENTS), _weight),
    st.lists(st.none() | _elements(_subjects), max_size=6),
    st.integers(0, 9),
    st.just(_subjects + _carriers) | st.sets(st.sampled_from(_subjects + _carriers)),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
@example(_RAYED, _RAYED, AtomWeighting.explicit({0: 1}), MeasureAssignment("w"), {}, [], 1,
         set(_subjects + _carriers), False)
@example(_EMPTY, _EMPTY, None, MeasureAssignment("w"), {}, [], 1, set(), True)
# a composite with explicit weights that miss atom 1
@example(_COMPOSITE, _RAYED, AtomWeighting.explicit({0: 2, 2: "1/3"}), MeasureAssignment("w"),
         {}, [], 0, set(_subjects + _carriers), True)
# euclidean_on_values distortion on float-derived values, once through each
# branch of exact_or_float_sqrt
@example(_DYADIC, _DYADIC, None, MeasureAssignment("w"), {}, _SQUARE_ESTIMATE, 0, set(), True)
@example(_DYADIC, _DYADIC, None, MeasureAssignment("w"), {}, _NON_SQUARE_ESTIMATE, 0, set(), True)
def test_measure_sums_match_reference(
    info, other, mu, sigma, component_weights, estimates, drop, target, allow
):
    ref = reference_measures
    entities = info.ontology | info.carrier
    assert _outcome(sigma.measure_of, entities) == _outcome(ref.measure_of, sigma, entities)
    assert _outcome(sigma.measure_of, []) == _outcome(ref.measure_of, sigma, [])
    for ts in (info.occurrence, info.reflection_time):
        assert _outcome(ts.lebesgue_measure) == _outcome(ref.lebesgue_measure, ts)
    assert _outcome(delay, info, mu) == _outcome(ref.delay, info, mu)
    assert _outcome(granularity, info, sigma, mu) == _outcome(ref.granularity, info, sigma, mu)
    assert _outcome(sampling_rate, info) == _outcome(ref.sampling_rate, info)
    for copies in ([], [other], [info, other]):
        assert _outcome(coverage, info, copies, sigma, target, allow_non_copies=allow) == (
            _outcome(ref.coverage, info, copies, sigma, target, allow_non_copies=allow)
        )
    # each reflection's estimate is a drawn element or, failing one, its state
    guesses = {r: s for s, r in info.mapping}
    for (s, r), e in zip(info.mapping, estimates):
        guesses[r] = e or s
    if drop == 1 and guesses:
        del guesses[min(guesses, key=Element.sort_key)]
    for kind in Metric._KINDS:
        metric = Metric(kind)
        assert _outcome(distortion, info, guesses, metric) == (
            _outcome(ref.distortion, info, guesses, metric)
        )
    for metric in (Metric("weighted_product", component_weights), Metric("jaccard_distance")):
        assert _outcome(mismatch, info, other, metric) == (
            _outcome(ref.mismatch, info, other, metric)
        )


@pytest.mark.parametrize(
    "estimate, want",
    [(_SQUARE_ESTIMATE, Fraction(5, 4)), (_NON_SQUARE_ESTIMATE, math.sqrt(85 / 144))],
)
def test_dyadic_distortion_takes_each_square_root_branch(estimate, want):
    """The two examples above reach both branches of exact_or_float_sqrt."""
    (s, r), (s2, r2) = _DYADIC.mapping
    got = distortion(_DYADIC, {r: estimate[0], r2: s2}, Metric("euclidean_on_values"))
    assert (type(got), got) == (type(want), want)


# -- the mismatch search against the reference --------------------------------
#
# The scan's answer hangs on exact comparisons of the distances, so the
# search over the package's mismatch must return the reference's index,
# comparison count and distance, of the reference's type.  The target is
# always in the pool the entries are drawn from, so zero distances and
# repeated entries (ties) are common; rays give infinite distances, and
# the weights mix denominators and zeros.


def _tick(name: str, t: Fraction | int, ray: bool = False) -> Information:
    """One atom at time t, reflected at t + 1, or from t + 1 on."""
    s = Element({objective("p")}, TimeSet.point(t), Value.scalar(t))
    at = TimeSet.ray(t + 1) if ray else TimeSet.point(t + 1)
    return Information.from_pairs(name, [(s, Element({objective("c")}, at, Value.scalar(t)))])


def _search_outcome(search, library):
    try:
        got = search(library)
    except Exception as e:  # the error is the outcome under comparison
        return type(e), str(e)
    return got.index, got.comparisons, got.distance, type(got.distance)


_T0, _T1, _T2 = _tick("t0", 0), _tick("t1", 1), _tick("t2", 2)
_T0_RAY, _T1_RAY = _tick("t0-ray", 0, ray=True), _tick("t1-ray", 1, ray=True)


def _variant(name: str, value: int, reflected_at: int) -> Information:
    """One atom at time 0 of value ``value``, reflected at ``reflected_at``;
    value 0 reflected at 1 is t0."""
    s = Element({objective("p")}, TimeSet.point(0), Value.scalar(value))
    r = Element({objective("c")}, TimeSet.point(reflected_at), Value.scalar(value))
    return Information.from_pairs(name, [(s, r)])


# against t0, both are 4 away: the new value is 4 in the set part and 0 in
# time; the late reflection 2 in the set part and 2 in time
_NEW_VALUE, _LATE = _variant("new-value", 5, 1), _variant("late", 0, 2)
# a subjective carrier: an invalid information, refused when validated
_GHOST = Information.from_pairs(
    "ghost",
    [(Element({objective("p")}, TimeSet.point(0), Value.scalar(0)),
      Element({subjective("c")}, TimeSet.point(1), Value.scalar(0)))],
)
_NO_SET_WEIGHTS = {name: Fraction(0) for name in ("ontology", "states", "carrier", "reflections")}


@given(
    _measured(),
    st.lists(_measured(), max_size=3),
    st.lists(st.integers(0, 3), max_size=6),
    st.one_of(st.none(), st.just(Fraction(0)), _q),
    st.dictionaries(st.sampled_from(MISMATCH_COMPONENTS), _weight),
)
@settings(max_examples=150, deadline=None)
# t1 and t2 are both 8 from t0: no entry meets the threshold, and the
# first of the tied best entries is returned
@example(_T0, [_T1, _T2], [1, 2], Fraction(1), {})
@example(_T0, [_T1, _T2], [1, 2, 0], None, {})
# one-sided rays: an infinite distance before a finite one, and only infinite ones
@example(_T0, [_T1_RAY, _T1], [1, 2], Fraction(0), {})
@example(_T0_RAY, [_T1], [1, 1], None, {})
# a zero weight skips the infinite component; mixed denominators
@example(_T0, [_T1_RAY], [1], None, {"reflection_time": Fraction(0), "states": Fraction(1, 3)})
@example(_T0, [_T1, _T2], [2, 1], Fraction(17, 6),
         {"occurrence": Fraction(5, 4), "carrier": Fraction(0), "reflections": Fraction(7, 12)})
# isolated points at half-integer times: the count is scaled by the denominator
@example(_T0, [_tick("t-half", Fraction(1, 2))], [1], None, {})
# an empty library
@example(_T0, [], [], None, {})
# pruning edges.  The late entry's set part (2) is visited first; the new
# value's set part (4) equals that best and must be swept, so the first of
# the tied entries wins, in both orders and under a threshold below both
@example(_T0, [_NEW_VALUE, _LATE], [1, 2], None, {})
@example(_T0, [_NEW_VALUE, _LATE], [2, 1], None, {})
@example(_T0, [_NEW_VALUE, _LATE], [1, 2], Fraction(1), {})
# set parts (4) within the threshold but distances (8) above it: swept in
# the scan, then reused; and a later hit
@example(_T0, [_T1, _T2], [1, 2], Fraction(5), {})
@example(_T0, [_T1, _NEW_VALUE], [1, 2], Fraction(5), {})
# a negative threshold is never met, not even by a zero distance
@example(_T0, [_T1], [1, 0], Fraction(-1), {})
# zero weights on all four set components: every bound is 0, nothing pruned
@example(_T0, [_T1, _T2, _T1_RAY], [3, 1, 2, 0], None, _NO_SET_WEIGHTS)
@example(_T0, [_T1, _T2], [1, 2], Fraction(4), _NO_SET_WEIGHTS)
# an infinite distance before a finite one, with no threshold
@example(_T0, [_T1_RAY, _T1], [1, 2], None, {})
# an invalid entry before the hit raises; one after the hit is never validated
@example(_T0, [_T1, _GHOST], [1, 2, 0], Fraction(0), {})
@example(_T0, [_GHOST], [0, 1], Fraction(0), {})
def test_min_mismatch_search_matches_reference(target, others, picks, threshold, weights):
    pool = [target, *others]
    entries = tuple(pool[k % len(pool)] for k in picks)
    library = SearchLibrary(target, entries, Metric("weighted_product", weights), threshold)
    assert _search_outcome(min_mismatch_search, library) == (
        _search_outcome(reference_search.min_mismatch_search, library)
    )


@pytest.mark.parametrize("entries", [(_T0, _T1), ()], ids=["nonempty", "empty"])
def test_min_mismatch_search_refuses_other_metrics_as_reference(entries):
    # ValueError from the first comparison; EmptyLibraryError before any
    library = SearchLibrary(_T0, entries, Metric("jaccard_distance"))
    got = _search_outcome(min_mismatch_search, library)
    assert got == _search_outcome(reference_search.min_mismatch_search, library)
    assert got[0] is (ValueError if entries else EmptyLibraryError)


@given(_measured(), _measured(), st.dictionaries(st.sampled_from(MISMATCH_COMPONENTS), _weight))
@settings(max_examples=150, deadline=None)
@example(_T0, _T1_RAY, {})
@example(_T0, _T1, _NO_SET_WEIGHTS)
def test_mismatch_set_part_is_a_lower_bound(info, other, weights):
    """The bound the search prunes with never exceeds the distance."""
    metric = Metric("weighted_product", weights)
    (n, d), _ = _mismatch_set_part(info, other, metric)
    assert Fraction(n, d) <= mismatch(info, other, metric)


# -- measure profiles ---------------------------------------------------------

M = MeasureKind
K = StageKind
_MAY_BE_INFINITE = (M.SAMPLING_RATE, M.DURATION)

# An amount is a rational, ("rate", q) for a finite ExtendedRate q >= 0, or
# "inf"; each fold builds it with its own ExtendedRate.
_small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
_amounts = st.one_of(
    _small,
    st.fractions(min_value=0, max_value=6, max_denominator=3).map(lambda q: ("rate", q)),
    st.just("inf"),
)
# the four measures with a special range or a sticky cap come up more often
_measures = st.one_of(
    st.sampled_from((M.DELAY, M.VOLUME, M.SAMPLING_RATE, M.DURATION)),
    st.sampled_from(ALL_MEASURES),
)
_transforms = st.tuples(
    st.sampled_from(("add", "clamp_max", "scale", "set_to", "identity")), _amounts
)
_stages = st.lists(
    st.tuples(
        st.sampled_from(StageKind),
        st.dictionaries(_measures, _transforms, max_size=4),
    ),
    min_size=1,
    max_size=5,
)
_sources = st.dictionaries(_measures, _amounts, max_size=2)


def _amount(rate, a):
    if a == "inf":
        return rate.infinite()
    return rate.finite(a[1]) if isinstance(a, tuple) else a


def _fold_outcome(module, config, source):
    """The fold's result or error, and each (measure, value) it stored."""
    log = []
    stored = module.MeasureProfile.replace

    def logging_replace(profile, k, v):
        log.append((k, str(v)))
        return stored(profile, k, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module.MeasureProfile, "replace", logging_replace)
        try:
            return module.propagate(config, source), log
        except ValueError as e:
            return e, log


def _plain(profile):
    return {m: str(profile[m]) for m in ALL_MEASURES}


@given(_stages, _sources)
@settings(max_examples=400, deadline=None)
@example([(K.PROCESSING, {M.DELAY: ("add", Fraction(-2))}),  # negative delays
          (K.EXERTION, {M.DELAY: ("scale", Fraction(2))})], {M.DELAY: Fraction(-3)})
@example([(K.COLLECTION, {M.SAMPLING_RATE: ("clamp_max", "inf"),  # inf caps, set_to inf
                          M.DURATION: ("set_to", "inf")}),
          (K.PROCESSING, {M.SAMPLING_RATE: ("set_to", "inf"),
                          M.DURATION: ("clamp_max", Fraction(3))})], {})
@example([(K.COLLECTION, {M.SAMPLING_RATE: ("scale", Fraction(0))})], {})  # 0 * inf
@example([(K.COLLECTION, {M.VOLUME: ("add", Fraction(-1))})], {})  # add below zero
@example([(K.COLLECTION, {M.SAMPLING_RATE: ("clamp_max", Fraction(5))}),  # clamp, add
          (K.PROCESSING, {M.SAMPLING_RATE: ("add", Fraction(-10))})], {})
@example([(K.COLLECTION, {M.VOLUME: ("set_to", Fraction(10))}),
          (K.PROCESSING, {M.VOLUME: ("clamp_max", Fraction(4))}),
          (K.EXERTION, {M.VOLUME: ("add", Fraction(100))})], {})
@example([(K.COLLECTION, {M.VOLUME: ("clamp_max", Fraction(2))}),  # the tightest cap sticks
          (K.PROCESSING, {M.VOLUME: ("clamp_max", Fraction(5))}),
          (K.EXERTION, {M.VOLUME: ("set_to", Fraction(10))})], {})
@example([(K.COLLECTION, {M.DELAY: ("set_to", "inf")})], {M.SCOPE: ("rate", Fraction(1))})
@example([(K.COLLECTION, {})], {M.VOLUME: "inf"})
def test_propagate_matches_reference(stages, source):
    specs, ref_specs = [], []
    for i, (kind, transforms) in enumerate(stages):
        mine, theirs = {}, {}
        for measure, (tkind, a) in transforms.items():
            if tkind == "identity":
                mine[measure] = MeasureTransform.identity()
                theirs[measure] = reference_dynamics.MeasureTransform.identity()
                continue
            # the reference takes a finite add or scale amount only as a rational
            ref_a = a[1] if isinstance(a, tuple) and tkind in ("add", "scale") else a
            try:
                theirs[measure] = reference_dynamics.MeasureTransform(
                    tkind, _amount(reference_dynamics.ExtendedRate, ref_a)
                )
            except ValueError:
                with pytest.raises(ValueError):
                    MeasureTransform(tkind, _amount(ExtendedRate, a))
                continue
            mine[measure] = MeasureTransform(tkind, _amount(ExtendedRate, a))
        specs.append(StageSpec(f"s{i}", kind, mine))
        ref_specs.append(reference_dynamics.StageSpec(f"s{i}", kind, theirs))
    config = SystemConfig("rig", tuple(specs), Shape.CUSTOM)
    ref_config = SystemConfig("rig", tuple(ref_specs), Shape.CUSTOM)

    bad_inf = [m for m, a in source.items() if a == "inf" and m not in _MAY_BE_INFINITE]
    try:
        ref_source = reference_dynamics.MeasureProfile(
            {m: _amount(reference_dynamics.ExtendedRate, a) for m, a in source.items()}
        )
    except ValueError:
        ref_source = None
    try:
        mine_source = MeasureProfile({m: _amount(ExtendedRate, a) for m, a in source.items()})
    except MeasureRangeError as e:
        assert bad_inf or (ref_source is None and type(e) is NegativeMeasureError)
        return
    assert not bad_inf and ref_source is not None

    want, ref_log = _fold_outcome(reference_dynamics, ref_config, ref_source)
    got, log = _fold_outcome(isd.dynamics, config, mine_source)
    stored_inf = [
        i for i, (m, v) in enumerate(ref_log) if v == "inf" and m not in _MAY_BE_INFINITE
    ]
    if stored_inf:
        # the reference stores an infinite value the profile's range refuses
        i = stored_inf[0]
        assert type(got) is MeasureRangeError
        assert str(got).endswith(f"drives {ref_log[i][0].value} to inf; it must be finite")
        assert log == ref_log[: i + 1]
        return
    assert log == ref_log
    if isinstance(want, Exception):
        assert type(want) is type(got) is NegativeMeasureError
        assert str(got) == str(want)
        return
    assert [_plain(p) for p in got.stage_profiles] == [_plain(p) for p in want.stage_profiles]
    assert _plain(got.end) == _plain(want.end)
    assert all(type(v) is ExtendedRate for p in got.stage_profiles for v in p.values.values())
    lost = [w for w in want.warnings if "configuration cannot move" in w]
    assert list(got.warnings) == validate_config(config) + lost
