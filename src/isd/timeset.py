"""Finite unions of closed rational intervals on the time axis.

A TimeSet is the normal form of a finite union of closed intervals with
rational endpoints, optionally extended by one right-unbounded ray.  Normal
form means the bounded intervals are sorted, pairwise disjoint, and
non-adjacent (touching intervals are merged on construction), so structural
equality of TimeSets is equality of the underlying point sets.  Degenerate
intervals [t, t] represent isolated instants.

The endpoints are public as Fractions, and each set also keeps them as
integer keys: its least common denominator d, and every endpoint times d.
Fractions are stored in lowest terms and the normal form is unique, so
equal sets have equal keys.  The hash is the hash of the keys, equality
compares them, containment bisects over them, and the symmetric-difference
sweep rescales them to the two sides' common denominator, so none of these
runs Fraction arithmetic or comparison.  The constructor scales its input
once and checks it for normal form in one linear pass over the integers;
only input that fails (unsorted, overlapping or touching intervals, or
intervals the ray reaches) is sorted and merged, on the integers, and
scaled again.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isqrt, lcm
from operator import le, lt
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int, str]


def as_fraction(x: Rational) -> Fraction:
    """Coerce ints, Fractions, and "p/q" strings to Fraction; a bool is
    refused like a float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def _scaled(pairs, ray):
    """The Fraction ``pairs`` and ``ray`` over their least common
    denominator d: (d, lower ends, upper ends, ray), each endpoint now the
    integer it is times d, and the ray still None if it was."""
    dens = [t.denominator for pair in pairs for t in pair]
    d = lcm(*dens) if ray is None else lcm(ray.denominator, *dens)
    ends = tuple([t.numerator * (d // t.denominator) for pair in pairs for t in pair])
    r = None if ray is None else ray.numerator * (d // ray.denominator)
    return d, ends[0::2], ends[1::2], r


def _normalized(pairs, ray, los, his, r):
    """The normal form (pairs, ray) of ``pairs`` and ``ray``, whose scaled
    endpoints are ``los``, ``his`` and ``r``: sort on the lower endpoints,
    merge the intervals that overlap or touch, and let the ray absorb every
    one that reaches it."""
    merged, starts, tops = [], [], []
    for k in sorted(range(len(los)), key=los.__getitem__):
        if tops and los[k] <= tops[-1]:
            if his[k] > tops[-1]:
                tops[-1] = his[k]
                merged[-1] = (merged[-1][0], pairs[k][1])
        else:
            merged.append(pairs[k])
            starts.append(los[k])
            tops.append(his[k])
    if r is not None:
        # the merged upper endpoints increase, so the intervals that reach
        # the ray are a tail, and the ray starts at the first one if earlier
        k = bisect_left(tops, r)
        if k < len(tops):
            if starts[k] < r:
                ray = merged[k][0]
            del merged[k:]
    return merged, ray


@dataclass(frozen=True, eq=False, slots=True, init=False)
class TimeSet:
    """Normal-form union of closed rational intervals, plus optional ray.

    ``intervals`` holds the bounded part as (lo, hi) pairs with lo <= hi;
    ``ray_from`` is the start of a closed right-unbounded tail [ray_from, oo)
    or None.  The constructor normalizes arbitrary input: it sorts, merges
    overlapping or touching intervals, and absorbs intervals into the ray.
    A TimeSet is never empty.  The integer keys, the common denominator
    ``_d`` and the endpoints times ``_d`` (``_los``, ``_his``, ``_ray``),
    are computed once, on construction, and so is their hash.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    ray_from: Fraction | None = None
    _h: int = field(init=False, repr=False)
    _d: int = field(init=False, repr=False)
    _los: tuple[int, ...] = field(init=False, repr=False)
    _his: tuple[int, ...] = field(init=False, repr=False)
    _ray: int | None = field(init=False, repr=False)

    def __init__(
        self, intervals: Iterable[tuple[Rational, Rational]], ray_from: Rational | None = None
    ):
        pairs = [(as_fraction(lo), as_fraction(hi)) for lo, hi in intervals]
        ray = None if ray_from is None else as_fraction(ray_from)
        d, los, his, r = _scaled(pairs, ray)
        if not (
            all(map(le, los, his))
            and all(map(lt, his, los[1:]))
            and (r is None or not his or his[-1] < r)
        ):
            for (lo, hi), a, b in zip(pairs, los, his):
                if a > b:
                    raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
            pairs, ray = _normalized(pairs, ray, los, his, r)
            d, los, his, r = _scaled(pairs, ray)
        if not pairs and ray is None:
            raise ValueError("a TimeSet must be nonempty")
        pairs = tuple(pairs)
        setattr_ = object.__setattr__
        setattr_(self, "intervals", pairs)
        setattr_(self, "ray_from", ray)
        setattr_(self, "_h", hash((d, los, his, r)))
        setattr_(self, "_d", d)
        setattr_(self, "_los", los)
        setattr_(self, "_his", his)
        setattr_(self, "_ray", r)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not TimeSet:
            return NotImplemented
        return (
            self._h == other._h
            and self._d == other._d
            and self._los == other._los
            and self._his == other._his
            and self._ray == other._ray
        )

    def __hash__(self):
        return self._h

    def __reduce__(self):
        # rebuild rather than restore: hash(None) differs between processes
        return TimeSet, (self.intervals, self.ray_from)

    # -- constructors -------------------------------------------------

    @classmethod
    def interval(cls, lo: Rational, hi: Rational) -> TimeSet:
        return cls(((as_fraction(lo), as_fraction(hi)),))

    @classmethod
    def point(cls, t: Rational) -> TimeSet:
        t = as_fraction(t)
        return cls(((t, t),))

    @classmethod
    def from_points(cls, points: Iterable[Rational]) -> TimeSet:
        return cls(tuple((as_fraction(p), as_fraction(p)) for p in points))

    @classmethod
    def from_intervals(
        cls, pairs: Iterable[tuple[Rational, Rational]], ray_from: Rational | None = None
    ) -> TimeSet:
        return cls(tuple(pairs), ray_from)

    @classmethod
    def ray(cls, start: Rational) -> TimeSet:
        return cls((), as_fraction(start))

    # -- queries -------------------------------------------------------

    @property
    def is_unbounded(self) -> bool:
        return self.ray_from is not None

    @property
    def inf(self) -> Fraction:
        """Greatest lower bound (always attained: intervals are closed)."""
        if self.intervals:
            return self.intervals[0][0]
        return self.ray_from  # type: ignore[return-value]

    @property
    def sup(self):
        """Least upper bound: a Fraction, or math.inf when unbounded."""
        if self.ray_from is not None:
            return inf
        return self.intervals[-1][1]

    def sup_after(self, earlier: TimeSet) -> tuple[int, int]:
        """``self.sup - earlier.sup`` as an integer pair (numerator,
        denominator), not reduced, from the stored keys; both sets must be
        bounded."""
        da, db = self._d, earlier._d
        return self._his[-1] * db - earlier._his[-1] * da, da * db

    def lebesgue_measure(self):
        """Total length; math.inf when unbounded."""
        if self.ray_from is not None:
            return inf
        return Fraction(sum(self._his) - sum(self._los), self._d)

    def connected_components(self) -> int:
        return len(self.intervals) + (1 if self.ray_from is not None else 0)

    def hull_gaps(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Maximal open gaps (b, c) between consecutive components.

        These are exactly the open subintervals of the convex hull that
        miss the set; a single component has no gaps.
        """
        edges = list(self.intervals)
        if self.ray_from is not None:
            edges.append((self.ray_from, self.ray_from))
        gaps = []
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            gaps.append((hi, lo))
        return tuple(gaps)

    def contains_point(self, t: Rational) -> bool:
        return TimeSet.point(t).is_subset(self)

    def is_subset(self, other: TimeSet) -> bool:
        """Point-set containment.  Because both sides are in normal form,
        each component must fit inside a single component of ``other``,
        the last one that starts at or before it.  Both sides' integers
        are compared by cross-multiplying with the other's denominator."""
        da, db, ray = self._d, other._d, other._ray
        if self._ray is not None:
            if ray is None or ray * da > self._ray * db:
                return False
        los, his = other._los, other._his
        for lo, hi in zip(self._los, self._his):
            if ray is not None and lo * db >= ray * da:
                break  # this and every later component lie in the ray
            k = bisect_right(los, lo * db // da)
            if not k or hi * db > his[k - 1] * da:
                return False
        return True

    def union(self, *others: TimeSet) -> TimeSet:
        """Union with any number of TimeSets, normalized once."""
        sets = (self, *others)
        rays = [ts.ray_from for ts in sets if ts.ray_from is not None]
        return TimeSet(
            tuple(iv for ts in sets for iv in ts.intervals), min(rays, default=None)
        )

    def shift(self, delta: Rational) -> TimeSet:
        delta = as_fraction(delta)
        ray = None if self.ray_from is None else self.ray_from + delta
        return TimeSet(tuple((lo + delta, hi + delta) for lo, hi in self.intervals), ray)

    def sort_key(self):
        ray_part = (1, self.ray_from) if self.ray_from is not None else (0, Fraction(0))
        return (self.intervals, ray_part)

    def __str__(self):
        parts = [f"[{lo}, {hi}]" for lo, hi in self.intervals]
        if self.ray_from is not None:
            parts.append(f"[{self.ray_from}, +oo)")
        return " u ".join(parts)


def _edges(ts: TimeSet, scale: int) -> list[int]:
    """The endpoints lo0, hi0, lo1, hi1, ..., ray_from in order, as the
    integers they are times ``ts._d * scale``.

    In normal form they never decrease, and only a degenerate interval
    repeats one, once.  So after a cursor has passed every endpoint up to
    t, t lies in ``ts`` exactly when it was one of them or the count passed
    is odd, and the open gap just after t lies in ``ts`` exactly when that
    count is odd.
    """
    edges = [t * scale for iv in zip(ts._los, ts._his) for t in iv]
    if ts._ray is not None:
        edges.append(ts._ray * scale)
    return edges


def symmetric_difference_keys(a: TimeSet, b: TimeSet) -> tuple[int | None, int, int]:
    """Size of the symmetric difference of two TimeSets, in integers.

    Returns (length, den, isolated_points): the Lebesgue measure of the
    symmetric difference is ``length / den``, where ``den`` is the least
    common multiple of the two sides' denominators, and ``length`` is
    None when exactly one side is unbounded past every endpoint.  The
    result is (0, den, 0) exactly when a == b.  ``measures.mismatch``
    reads this form directly, so that it adds integer pairs and builds no
    Fraction per component.

    One pass of two cursors, one per side (see ``_edges``), over both
    sides' endpoints rescaled to the least common multiple of the two
    denominators.  Each step takes the smaller head t and moves each
    cursor past its endpoints equal to t (at most two).  A sentinel past
    both last endpoints ends the pass without bounds checks.  No point
    other than an endpoint is ever probed.
    """
    den = lcm(a._d, b._d)
    ea, eb = _edges(a, den // a._d), _edges(b, den // b._d)
    end = max(ea[-1], eb[-1]) + 1
    ea.append(end)
    eb.append(end)
    length = isolated = i = j = prev = 0
    before = False  # the open segment ending at the current cut is in a ^ b
    while True:
        x, y = ea[i], eb[j]
        t = x if x < y else y
        if t == end:
            break
        on_a = x == t
        if on_a:
            i += 1
            if ea[i] == t:
                i += 1
        on_b = y == t
        if on_b:
            j += 1
            if eb[j] == t:
                j += 1
        after = (i ^ j) & 1  # the open segment starting at t is in a ^ b
        if before:
            length += t - prev
        elif not after and (on_a or i & 1) != (on_b or j & 1):
            isolated += 1
        before, prev = after, t
    return (None if before else length), den, isolated


def exact_pair_sum(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The exact sum of the rationals n/d given as integer pairs (n, d),
    d > 0 and in any terms, as the pair (numerator, least common
    denominator): each n is scaled to that denominator and the results are
    added as integers.  Nothing is reduced; an empty sequence gives (0, 1)."""
    den = lcm(*[d for _, d in pairs])
    return sum([n * (den // d) for n, d in pairs]), den


def exact_sum(terms: Sequence[Fraction | int]) -> Fraction:
    """The exact sum of ``terms``, normalized once: ``exact_pair_sum`` of
    their terms, made into one Fraction.  An empty sequence sums to
    Fraction(0)."""
    return Fraction(*exact_pair_sum([(t.numerator, t.denominator) for t in terms]))


def exact_or_float_sqrt(q: Fraction):
    """Square root of a nonnegative rational: exact Fraction when the
    operand is a perfect square of rationals, float otherwise."""
    if q < 0:
        raise ValueError("square root of a negative value")
    sn, sd = isqrt(q.numerator), isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return float(q) ** 0.5
