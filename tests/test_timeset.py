"""Normal form, measure, gaps, and the symmetric-difference distance."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isd.model import Element, EntityId
from isd.timeset import (
    TimeSet,
    exact_or_float_sqrt,
    _rational_text,
    symmetric_difference_keys,
)
from isd.values import Value

import reference_timeset


def test_normalization_merges_touching_intervals():
    ts = TimeSet.from_intervals([(0, 1), (1, 2), (5, 6)])
    assert ts.intervals == ((Fraction(0), Fraction(2)), (Fraction(5), Fraction(6)))


def test_normalization_sorts_and_absorbs_overlap():
    ts = TimeSet.from_intervals([(3, 7), (0, 4)])
    assert ts.intervals == ((Fraction(0), Fraction(7)),)


def test_ray_absorbs_intervals_beyond_start():
    ts = TimeSet(((Fraction(0), Fraction(1)), (Fraction(4), Fraction(9))), Fraction(3))
    assert ts.intervals == ((Fraction(0), Fraction(1)),)
    assert ts.ray_from == Fraction(3)
    assert ts.is_unbounded
    assert ts.sup == inf


@pytest.mark.parametrize(
    "ts, text",
    [
        (
            TimeSet([(0, Fraction(1, 2))], 3),
            "TimeSet(intervals=((Fraction(0, 1), Fraction(1, 2)),), ray_from=Fraction(3, 1))",
        ),
        (
            TimeSet.point(2),
            "TimeSet(intervals=((Fraction(2, 1), Fraction(2, 1)),), ray_from=None)",
        ),
        (TimeSet.ray(Fraction(-1, 3)), "TimeSet(intervals=(), ray_from=Fraction(-1, 3))"),
    ],
    ids=["interval-and-ray", "point", "ray"],
)
def test_repr_names_the_fraction_endpoints(ts, text):
    assert repr(ts) == text


def test_element_repr_holds_the_time_set_repr():
    # an element's repr is part of every violation message that names it
    e = Element(frozenset({EntityId("a")}), TimeSet([(0, Fraction(1, 2))], 3), Value.scalar(1))
    assert repr(e) == (
        "Element(entities=frozenset({EntityId(id='a', realm=<Realm.OBJECTIVE: 'objective'>)}), "
        "at=TimeSet(intervals=((Fraction(0, 1), Fraction(1, 2)),), ray_from=Fraction(3, 1)), "
        "value=Value.scalar(Fraction(1, 1)))"
    )


def test_empty_rejected():
    with pytest.raises(ValueError):
        TimeSet((), None)


def test_point_and_string_rationals():
    p = TimeSet.point("3/2")
    assert p.inf == p.intervals[0][1] == Fraction(3, 2)
    assert str(p) == "[3/2, 3/2]"


def test_measure_and_components():
    ts = TimeSet.from_intervals([(0, 2), (5, 6)])
    assert ts.lebesgue_measure() == 3
    assert ts.connected_components() == 2
    assert ts.hull_gaps() == ((Fraction(2), Fraction(5)),)


def test_unbounded_measure():
    assert TimeSet.ray(0).lebesgue_measure() == inf


def test_gaps_of_points():
    ts = TimeSet.from_points([0, 1, 2, 5])
    assert ts.hull_gaps() == (
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(5)),
    )


def test_contains_point():
    ts = TimeSet.from_intervals([(0, 1)]).union(TimeSet.ray(10))
    assert ts.contains_point(0) and ts.contains_point(1)
    assert not ts.contains_point(2)
    assert ts.contains_point(10) and ts.contains_point("1000000")


def test_subset():
    big = TimeSet.from_intervals([(0, 10)])
    assert TimeSet.from_intervals([(1, 2), (3, 4)]).is_subset(big)
    assert not big.is_subset(TimeSet.from_intervals([(1, 2)]))
    assert TimeSet.ray(5).is_subset(TimeSet.ray(0))
    assert not TimeSet.ray(0).is_subset(TimeSet.ray(5))
    assert not TimeSet.ray(0).is_subset(big)


def test_union_and_shift():
    u = TimeSet.interval(0, 1).union(TimeSet.interval(2, 3))
    assert u.connected_components() == 2
    assert u.shift("1/2").intervals == (
        (Fraction(1, 2), Fraction(3, 2)),
        (Fraction(5, 2), Fraction(7, 2)),
    )
    assert TimeSet.ray(1).shift(-1) == TimeSet.ray(0)


def test_symmetric_difference_length_and_isolated_points():
    # (length numerator, common denominator, isolated points)
    a = TimeSet.from_intervals([(0, 2)])
    b = TimeSet.from_intervals([(1, 3)])
    assert symmetric_difference_keys(a, b) == (2, 1, 0)

    # distinct single points differ by two isolated points, length zero
    assert symmetric_difference_keys(TimeSet.point(0), TimeSet.point(1)) == (0, 1, 2)
    assert symmetric_difference_keys(a, a) == (0, 1, 0)


def test_symmetric_difference_point_against_interval():
    a = TimeSet.from_intervals([(0, 2)])
    with_point = a.union(TimeSet.point(5))
    assert symmetric_difference_keys(a, with_point) == (0, 1, 1)


def test_symmetric_difference_unbounded():
    # no length numerator: the difference is unbounded
    assert symmetric_difference_keys(TimeSet.ray(0), TimeSet.interval(0, 1))[0] is None
    assert symmetric_difference_keys(TimeSet.ray(0), TimeSet.ray(0)) == (0, 1, 0)
    # two rays differing in start: bounded difference
    assert symmetric_difference_keys(TimeSet.ray(0), TimeSet.ray(2)) == (2, 1, 0)


def test_symmetric_difference_keys_integer_form():
    # the length is an integer over the lcm of the two denominators
    a = TimeSet.interval(0, Fraction(1, 2))
    b = TimeSet.interval(0, Fraction(1, 3))
    assert symmetric_difference_keys(a, b) == (1, 6, 0)
    assert symmetric_difference_keys(TimeSet.point(0), TimeSet.point(Fraction(1, 2))) == (0, 2, 2)
    assert symmetric_difference_keys(a, a) == (0, 2, 0)
    # an unbounded difference has no length numerator
    assert symmetric_difference_keys(TimeSet.ray(0), TimeSet.interval(0, 1)) == (None, 1, 0)


def test_exact_or_float_sqrt():
    assert exact_or_float_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert isinstance(exact_or_float_sqrt(Fraction(9, 4)), Fraction)
    out = exact_or_float_sqrt(Fraction(2))
    assert isinstance(out, float)
    assert abs(out - 2**0.5) < 1e-15


# -- the seed kernel as the reference ------------------------------------------

# Half-unit grid points collide often, so touching and overlapping intervals,
# shared endpoints and equal sets are common; the wide range adds distinct
# denominators.
edges = st.one_of(
    st.integers(-8, 8).map(lambda k: Fraction(k, 2)),
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
)
spans = st.one_of(
    st.tuples(edges, edges).map(sorted).map(tuple),
    edges.map(lambda t: (t, t)),  # isolated instants
)
raw_timesets = st.tuples(
    st.lists(spans, max_size=6), st.one_of(st.none(), edges)
).filter(lambda raw: raw[0] or raw[1] is not None)
# both sides independent, or both from the same input
raw_pairs = st.one_of(
    st.tuples(raw_timesets, raw_timesets), raw_timesets.map(lambda r: (r, r))
)


def _both(raw):
    pairs, ray = raw
    return TimeSet(tuple(pairs), ray), reference_timeset.TimeSet(tuple(pairs), ray)


def _same(ts, ref):
    return ts.intervals == ref.intervals and ts.ray_from == ref.ray_from


def _size(a, b):
    """``symmetric_difference_keys`` in the reference's form:
    (Fraction length, or math.inf when unbounded, isolated points)."""
    length, den, isolated = symmetric_difference_keys(a, b)
    return (inf if length is None else Fraction(length, den)), isolated


@given(raw_timesets)
@settings(max_examples=150, deadline=None)
def test_normal_form_matches_reference(raw):
    ts, ref = _both(raw)
    assert _same(ts, ref)
    assert all(type(t) is Fraction for iv in ts.intervals for t in iv)


@given(raw_timesets, st.data())
@settings(max_examples=150, deadline=None)
def test_contains_point_matches_reference(raw, data):
    ts, ref = _both(raw)
    ends = [t for iv in ts.intervals for t in iv] + [ts.ray_from] * ts.is_unbounded
    near = st.sampled_from(ends).map(lambda t: t + Fraction(1, 100))
    probe = st.one_of(edges, st.sampled_from(ends), near)
    for t in data.draw(st.lists(probe, min_size=1, max_size=8)):
        assert ts.contains_point(t) == ref.contains_point(t)


@given(raw_pairs, raw_timesets)
@settings(max_examples=200, deadline=None)
def test_is_subset_and_union_match_reference(raw, extra):
    (a, ref_a), (b, ref_b) = _both(raw[0]), _both(raw[1])
    c, ref_c = _both(extra)
    grown, ref_grown = a.union(b, c), ref_a.union(ref_b, ref_c)
    assert _same(grown, ref_grown)
    assert a.is_subset(b) == ref_a.is_subset(ref_b)
    assert b.is_subset(a) == ref_b.is_subset(ref_a)
    assert a.is_subset(grown) and ref_a.is_subset(ref_grown)
    assert grown.is_subset(c) == ref_grown.is_subset(ref_c)


@given(raw_pairs)
@settings(max_examples=300, deadline=None)
def test_symmetric_difference_matches_reference(raw):
    (a, ref_a), (b, ref_b) = _both(raw[0]), _both(raw[1])
    got = _size(a, b)
    want = reference_timeset.symmetric_difference_size(ref_a, ref_b)
    assert got == want
    assert type(got[0]) is type(want[0]) and type(got[1]) is int


# -- order and text from the keys ----------------------------------------------
#
# ``sort_key`` and ``endpoint_texts`` read the integer keys.  The seed read
# the Fraction endpoints: its key is ``reference_timeset.sort_key`` and its
# text ``str`` of each Fraction.


@st.composite
def families(draw):
    """Raw time sets that share prefixes of one normal form, extended by
    further spans (points among them) and maybe a ray; repeats are kept."""
    base = TimeSet(*draw(raw_timesets)).intervals
    raws = []
    for _ in range(draw(st.integers(2, 8))):
        prefix = base[: draw(st.integers(0, len(base)))]
        more = draw(st.lists(spans, max_size=2))
        raws.append((tuple(prefix) + tuple(more), draw(st.one_of(st.none(), edges))))
    return [raw for raw in raws if raw[0] or raw[1] is not None]


@given(families())
@settings(max_examples=200, deadline=None)
def test_sort_key_orders_as_the_reference(raws):
    sets = [_both(raw) for raw in raws]
    keys = [ts.sort_key() for ts, _ in sets]
    ref_keys = [reference_timeset.sort_key(ref) for _, ref in sets]
    order = range(len(sets))
    assert sorted(order, key=keys.__getitem__) == sorted(order, key=ref_keys.__getitem__)
    for i in order:
        for j in order:
            assert (keys[i] < keys[j]) is (ref_keys[i] < ref_keys[j])
            assert (keys[i] == keys[j]) is (ref_keys[i] == ref_keys[j])
            assert (keys[i] >= keys[j]) is (ref_keys[i] >= ref_keys[j])


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_rational_text_is_str_of_the_fraction(n, d):
    assert _rational_text(n, d) == str(Fraction(n, d))
    assert _rational_text(n * d, d) == str(n)


@given(raw_timesets)
@settings(max_examples=150, deadline=None)
def test_endpoint_texts_are_str_of_the_endpoints(raw):
    ts, ref = _both(raw)
    pairs, ray = ts.endpoint_texts()
    assert pairs == [[str(lo), str(hi)] for lo, hi in ref.intervals]
    assert ray == (None if ref.ray_from is None else str(ref.ray_from))
    text = [f"[{lo}, {hi}]" for lo, hi in ref.intervals]
    text += [f"[{ref.ray_from}, +oo)"] * (ref.ray_from is not None)
    assert str(ts) == " u ".join(text)
