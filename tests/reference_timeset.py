"""The package's original ``TimeSet`` kernel, kept verbatim as the reference.

``isd.timeset`` sorts on the lower endpoint alone, bisects over the lower
endpoints in ``contains_point`` and ``is_subset``, sizes the symmetric
difference with ``symmetric_difference_keys``, one integer sweep over both
sides' endpoints, and orders sets by their integer keys.  The copies here
sort on whole pairs, scan every interval, probe every cut and every midpoint
between cuts, and order sets by their Fraction endpoints.  The property
tests check that both sides give the same normal form, the same booleans,
the same ``(length, isolated)`` pair, down to the type of ``length``, and
the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from isd.timeset import Rational, as_fraction


@dataclass(frozen=True)
class TimeSet:
    """The seed ``TimeSet``: normalization and the three queries."""

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


def sort_key(ts: TimeSet):
    """The seed's ``TimeSet.sort_key``: the Fraction endpoints, then the ray."""
    ray_part = (1, ts.ray_from) if ts.ray_from is not None else (0, Fraction(0))
    return (ts.intervals, ray_part)


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
