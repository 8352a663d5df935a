"""Finite unions of closed rational intervals on the time axis.

A TimeSet is the normal form of a finite union of closed intervals with
rational endpoints, optionally extended by one right-unbounded ray.  Normal
form means the bounded intervals are sorted, pairwise disjoint, and
non-adjacent (touching intervals are merged on construction), so structural
equality of TimeSets is equality of the underlying point sets.  Degenerate
intervals [t, t] represent isolated instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt
from typing import Iterable, Union

Rational = Union[Fraction, int, str]


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
    A TimeSet is never empty.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    ray_from: Fraction | None = None

    def __post_init__(self):
        pairs = []
        for lo, hi in self.intervals:
            lo, hi = as_fraction(lo), as_fraction(hi)
            if lo > hi:
                raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
            pairs.append((lo, hi))
        ray = None if self.ray_from is None else as_fraction(self.ray_from)
        pairs.sort()
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
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "ray_from", ray)

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
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

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
        t = as_fraction(t)
        if self.ray_from is not None and t >= self.ray_from:
            return True
        return any(lo <= t <= hi for lo, hi in self.intervals)

    def is_subset(self, other: TimeSet) -> bool:
        """Point-set containment.  Because both sides are in normal form,
        each component must fit inside a single component of ``other``."""
        for lo, hi in self.intervals:
            if other.ray_from is not None and lo >= other.ray_from:
                continue
            if not any(olo <= lo and hi <= ohi for olo, ohi in other.intervals):
                return False
        if self.ray_from is not None:
            if other.ray_from is None or other.ray_from > self.ray_from:
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


def symmetric_difference_size(a: TimeSet, b: TimeSet) -> tuple:
    """Size of the symmetric difference of two TimeSets.

    Returns (length, isolated_points): the Lebesgue measure of the
    symmetric difference plus the count of its isolated points.  The pair
    is (0, 0) exactly when a == b, which is what makes it usable as a
    component distance; length is math.inf when exactly one side is
    unbounded past every breakpoint.
    """
    pts = set()
    for ts in (a, b):
        for lo, hi in ts.intervals:
            pts.add(lo)
            pts.add(hi)
        if ts.ray_from is not None:
            pts.add(ts.ray_from)
    cuts = sorted(pts)

    def in_sym(t: Fraction) -> bool:
        return a.contains_point(t) != b.contains_point(t)

    seg_flags = []
    for lo, hi in zip(cuts, cuts[1:]):
        seg_flags.append(in_sym((lo + hi) / 2))
    tail_flag = False
    if cuts:
        tail_flag = in_sym(cuts[-1] + 1)

    length = Fraction(0)
    for flag, (lo, hi) in zip(seg_flags, zip(cuts, cuts[1:])):
        if flag:
            length += hi - lo
    if tail_flag:
        length = inf

    isolated = 0
    for i, t in enumerate(cuts):
        if not in_sym(t):
            continue
        left = seg_flags[i - 1] if i > 0 else False
        right = seg_flags[i] if i < len(seg_flags) else tail_flag
        if not left and not right:
            isolated += 1
    return (length, isolated)


def exact_or_float_sqrt(q: Fraction):
    """Square root of a nonnegative rational: exact Fraction when the
    operand is a perfect square of rationals, float otherwise."""
    if q < 0:
        raise ValueError("square root of a negative value")
    sn, sd = isqrt(q.numerator), isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return float(q) ** 0.5
