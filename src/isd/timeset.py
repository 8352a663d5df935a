"""Finite unions of closed rational intervals on the time axis.

A TimeSet is the normal form of a finite union of closed intervals with
rational endpoints, optionally extended by one right-unbounded ray.  Normal
form means the bounded intervals are sorted, pairwise disjoint, and
non-adjacent (touching intervals are merged on construction), so structural
equality of TimeSets is equality of the underlying point sets.  Degenerate
intervals [t, t] represent isolated instants.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import merge
from math import inf, isqrt, lcm
from operator import itemgetter
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int, str]

_LO = itemgetter(0)


def as_fraction(x: Rational) -> Fraction:
    """Coerce ints, Fractions, and "p/q" strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


@dataclass(frozen=True)
class TimeSet:
    """Normal-form union of closed rational intervals, plus optional ray.

    ``intervals`` holds the bounded part as (lo, hi) pairs with lo <= hi;
    ``ray_from`` is the start of a closed right-unbounded tail [ray_from, oo)
    or None.  The constructor normalizes arbitrary input: it sorts, merges
    overlapping or touching intervals, and absorbs intervals into the ray.
    A TimeSet is never empty.  Its hash is computed once, on construction.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    ray_from: Fraction | None = None
    _h: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pairs = []
        for lo, hi in self.intervals:
            lo, hi = as_fraction(lo), as_fraction(hi)
            if lo > hi:
                raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
            pairs.append((lo, hi))
        ray = None if self.ray_from is None else as_fraction(self.ray_from)
        pairs.sort(key=_LO)  # equal lower endpoints merge in any order
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        if ray is not None:
            kept = []
            for lo, hi in merged:
                if hi >= ray:
                    ray = min(ray, lo)
                else:
                    kept.append((lo, hi))
            merged = kept
        if not merged and ray is None:
            raise ValueError("a TimeSet must be nonempty")
        merged = tuple(merged)
        object.__setattr__(self, "intervals", merged)
        object.__setattr__(self, "ray_from", ray)
        object.__setattr__(self, "_h", hash((merged, ray)))

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

    def lebesgue_measure(self):
        """Total length; math.inf when unbounded."""
        if self.ray_from is not None:
            return inf
        return exact_sum([hi - lo for lo, hi in self.intervals])

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

    def _last_starting_by(self, t: Fraction):
        """The last bounded interval with lo <= t, or None.  In normal form
        it is the only one that can contain t."""
        k = bisect_right(self.intervals, t, key=_LO)
        return self.intervals[k - 1] if k else None

    def contains_point(self, t: Rational) -> bool:
        t = as_fraction(t)
        if self.ray_from is not None and t >= self.ray_from:
            return True
        iv = self._last_starting_by(t)
        return iv is not None and t <= iv[1]

    def is_subset(self, other: TimeSet) -> bool:
        """Point-set containment.  Because both sides are in normal form,
        each component must fit inside a single component of ``other``."""
        if self.ray_from is not None:
            if other.ray_from is None or other.ray_from > self.ray_from:
                return False
        for lo, hi in self.intervals:
            if other.ray_from is not None and lo >= other.ray_from:
                break  # this and every later component lie in the ray
            iv = other._last_starting_by(lo)
            if iv is None or hi > iv[1]:
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


def _edges(ts: TimeSet) -> list[Fraction]:
    """The endpoints lo0, hi0, lo1, hi1, ..., ray_from in order.

    In normal form they never decrease, and only a degenerate interval
    repeats one.  So after a cursor has passed every endpoint up to t, t
    lies in ``ts`` exactly when it was one of them or the count passed is
    odd, and the open gap just after t lies in ``ts`` exactly when that
    count is odd.
    """
    edges = [t for iv in ts.intervals for t in iv]
    if ts.ray_from is not None:
        edges.append(ts.ray_from)
    return edges


def _past(edges: list[int], i: int, t: int) -> int:
    """Move a cursor at or before ``t`` past the endpoints equal to it."""
    while i < len(edges) and edges[i] == t:
        i += 1
    return i


def symmetric_difference_size(a: TimeSet, b: TimeSet) -> tuple:
    """Size of the symmetric difference of two TimeSets.

    Returns (length, isolated_points): the Lebesgue measure of the
    symmetric difference plus the count of its isolated points.  The pair
    is (0, 0) exactly when a == b, which is what makes it usable as a
    component distance; length is math.inf when exactly one side is
    unbounded past every breakpoint.

    One sweep over the merged endpoints of both sides, with one cursor
    per side (see ``_edges``).  The endpoints are first scaled to integers
    over their least common denominator, so the sweep compares and
    subtracts ints and builds a single Fraction at the end.  No point
    other than an endpoint is ever probed.
    """
    ea, eb = _edges(a), _edges(b)
    den = lcm(*(t.denominator for t in ea), *(t.denominator for t in eb))
    ea = [t.numerator * (den // t.denominator) for t in ea]
    eb = [t.numerator * (den // t.denominator) for t in eb]
    length = isolated = i = j = prev = 0
    before = False  # the open segment ending at the current cut is in a ^ b
    # A value both sides share comes out of the merge twice; the cursors have
    # passed it the first time, so the second pass changes nothing.
    for t in merge(ea, eb):
        i0, j0 = i, j
        i, j = _past(ea, i, t), _past(eb, j, t)
        after = i % 2 != j % 2  # the open segment starting at t is in a ^ b
        if before:
            length += t - prev
        elif not after and (i > i0 or i % 2 == 1) != (j > j0 or j % 2 == 1):
            isolated += 1
        before, prev = after, t
    if before:  # the tail past the last cut
        return inf, isolated
    return Fraction(length, den), isolated


def exact_sum(terms: Sequence[Fraction | int]) -> Fraction:
    """The exact sum of ``terms``, normalized once: the numerators are
    scaled to the least common denominator, added as integers and made
    into one Fraction.  An empty sequence sums to Fraction(0)."""
    den = lcm(*(t.denominator for t in terms))
    return Fraction(sum(t.numerator * (den // t.denominator) for t in terms), den)


def exact_or_float_sqrt(q: Fraction):
    """Square root of a nonnegative rational: exact Fraction when the
    operand is a perfect square of rationals, float otherwise."""
    if q < 0:
        raise ValueError("square root of a negative value")
    sn, sd = isqrt(q.numerator), isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return float(q) ** 0.5
