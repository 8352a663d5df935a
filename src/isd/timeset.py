"""Finite unions of closed rational intervals on the time axis.

A TimeSet is the normal form of a finite union of closed intervals with
rational endpoints, optionally extended by one right-unbounded ray.  Normal
form means the bounded intervals are sorted, pairwise disjoint, and
non-adjacent (touching intervals are merged on construction), so structural
equality of TimeSets is equality of the underlying point sets.  Degenerate
intervals [t, t] represent isolated instants.

A set stores its endpoints once, as integer keys: the least common
denominator d of its endpoints, and every endpoint times d.  The normal
form is unique, so equal sets have equal keys.  The hash is the hash of the
keys, equality compares them, containment bisects over them, ``sort_key``
orders by them, ``union`` and ``shift`` build new keys from them, the
endpoint text is written from them, and the symmetric-difference sweep
rescales them to the two sides' common denominator, so none of these builds
a Fraction.  The public endpoints ``intervals`` and ``ray_from`` are a view:
two cached properties, each built from the keys on its first read.  The
constructor reduces its input to integer pairs once.  ``_keys_of_terms``,
which the document loader also calls with the pairs it parses, builds the
keys from such pairs and checks them for normal form in one linear pass;
only input that fails (unsorted, overlapping or touching intervals, or
intervals the ray reaches) is sorted and merged, on the integers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, inf, isqrt, lcm
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


def _terms(x: Rational) -> tuple[int, int]:
    """``x`` as (numerator, denominator) in lowest terms."""
    if x.__class__ is not int:
        x = as_fraction(x)
    return x.numerator, x.denominator


def _rational_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, written without the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _reduced(d, los, his, r):
    """The keys ``d``, ``los``, ``his``, ``r`` over the least common
    denominator of the endpoints they hold: all divided by their greatest
    common divisor."""
    g = gcd(d, *los, *his, r or 0)
    keys = tuple([k // g for k in los]), tuple([k // g for k in his])
    return d // g, *keys, None if r is None else r // g


def _normal_form(d, los, his, r):
    """The keys of the set whose endpoints times ``d`` are the tuples
    ``los`` and ``his`` and the ray ``r``: as they are when one linear pass
    finds them in normal form, and ``_merged`` otherwise."""
    if (
        all(map(le, los, his))
        and all(map(lt, his, los[1:]))
        and (r is None or not his or his[-1] < r)
    ):
        return d, los, his, r
    return _merged(d, los, his, r)


def _keys_of_terms(ends: list[tuple[int, int]], has_ray: bool):
    """The normal-form keys of the set whose endpoints lo0, hi0, lo1, ...,
    then the ray's start when ``has_ray``, are the lowest-terms pairs
    (numerator, denominator) ``ends``.  No endpoint, or an interval whose
    ends are out of order, raises ValueError."""
    if not ends:
        raise ValueError("a TimeSet must be nonempty")
    d = lcm(*[den for _, den in ends])
    keys = [n * (d // den) for n, den in ends]
    r = keys.pop() if has_ray else None
    return _normal_form(d, tuple(keys[0::2]), tuple(keys[1::2]), r)


def _merged(d, los, his, r):
    """The normal form of keys that are not in it: the intervals sorted on
    their lower endpoints, those that overlap or touch merged, every one
    the ray reaches absorbed, and the result ``_reduced``.  An interval
    whose ends are out of order raises ValueError."""
    for a, b in zip(los, his):
        if a > b:
            lo, hi = _rational_text(a, d), _rational_text(b, d)
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
    starts, tops = [], []
    for k in sorted(range(len(los)), key=los.__getitem__):
        if tops and los[k] <= tops[-1]:
            if his[k] > tops[-1]:
                tops[-1] = his[k]
        else:
            starts.append(los[k])
            tops.append(his[k])
    if r is not None:
        # the merged upper endpoints increase, so the intervals that reach
        # the ray are a tail, and the ray starts at the first one if earlier
        k = bisect_left(tops, r)
        if k < len(tops):
            r = min(r, starts[k])
            del starts[k:], tops[k:]
    return _reduced(d, starts, tops, r)


def _intervals(ts: TimeSet) -> tuple[tuple[Fraction, Fraction], ...]:
    """The bounded part of ``ts`` as Fraction pairs, built from its keys."""
    d = ts._d
    return tuple([(Fraction(lo, d), Fraction(hi, d)) for lo, hi in zip(ts._los, ts._his)])


def _ray_from(ts: TimeSet) -> Fraction | None:
    """The start of ``ts``'s ray as a Fraction, or None."""
    return None if ts._ray is None else Fraction(ts._ray, ts._d)


@dataclass(frozen=True, eq=False, init=False)
class TimeSet:
    """Normal-form union of closed rational intervals, plus optional ray.

    ``intervals`` holds the bounded part as (lo, hi) pairs with lo <= hi;
    ``ray_from`` is the start of a closed right-unbounded tail [ray_from, oo)
    or None.  The constructor normalizes arbitrary input: it sorts, merges
    overlapping or touching intervals, and absorbs intervals into the ray.
    A TimeSet is never empty.  What it stores are the integer keys, the
    least common denominator ``_d`` and the endpoints times ``_d``
    (``_los``, ``_his``, ``_ray``), and their hash; ``intervals`` and
    ``ray_from`` are Fractions built from the keys when first read.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...] = cached_property(_intervals)
    ray_from: Fraction | None = cached_property(_ray_from)
    _h: int = field(init=False, repr=False)
    _d: int = field(init=False, repr=False)
    _los: tuple[int, ...] = field(init=False, repr=False)
    _his: tuple[int, ...] = field(init=False, repr=False)
    _ray: int | None = field(init=False, repr=False)

    def __init__(
        self, intervals: Iterable[tuple[Rational, Rational]], ray_from: Rational | None = None
    ):
        ends = [_terms(t) for lo, hi in intervals for t in (lo, hi)]
        if ray_from is not None:
            ends.append(_terms(ray_from))
        self._keep(*_keys_of_terms(ends, ray_from is not None))

    @classmethod
    def _from_keys(cls, d: int, los: tuple[int, ...], his: tuple[int, ...], r: int | None):
        """The trusted constructor: keys already in normal form, with ``d``
        the least common denominator of the endpoints."""
        ts = object.__new__(cls)
        ts._keep(d, los, his, r)
        return ts

    def _keep(self, d, los, his, r):
        setattr_ = object.__setattr__
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
        return cls(((lo, hi),))

    @classmethod
    def point(cls, t: Rational) -> TimeSet:
        n, d = _terms(t)
        return cls._from_keys(d, (n,), (n,), None)

    @classmethod
    def from_points(cls, points: Iterable[Rational]) -> TimeSet:
        return cls([(p, p) for p in points])

    @classmethod
    def from_intervals(
        cls, pairs: Iterable[tuple[Rational, Rational]], ray_from: Rational | None = None
    ) -> TimeSet:
        return cls(pairs, ray_from)

    @classmethod
    def ray(cls, start: Rational) -> TimeSet:
        n, d = _terms(start)
        return cls._from_keys(d, (), (), n)

    # -- queries -------------------------------------------------------

    @property
    def is_unbounded(self) -> bool:
        return self._ray is not None

    @property
    def inf(self) -> Fraction:
        """Greatest lower bound (always attained: intervals are closed)."""
        return Fraction(self._los[0] if self._los else self._ray, self._d)

    @property
    def sup(self):
        """Least upper bound: a Fraction, or math.inf when unbounded."""
        if self._ray is not None:
            return inf
        return Fraction(self._his[-1], self._d)

    def sup_after(self, earlier: TimeSet) -> tuple[int, int]:
        """``self.sup - earlier.sup`` as an integer pair (numerator,
        denominator), not reduced, from the stored keys; both sets must be
        bounded."""
        da, db = self._d, earlier._d
        return self._his[-1] * db - earlier._his[-1] * da, da * db

    def lebesgue_measure(self):
        """Total length; math.inf when unbounded."""
        if self._ray is not None:
            return inf
        return Fraction(sum(self._his) - sum(self._los), self._d)

    def connected_components(self) -> int:
        return len(self._los) + (self._ray is not None)

    def hull_gaps(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Maximal open gaps (b, c) between consecutive components.

        These are exactly the open subintervals of the convex hull that
        miss the set; a single component has no gaps.
        """
        d, starts = self._d, self._los[1:]
        if self._ray is not None:
            starts += (self._ray,)
        return tuple([(Fraction(b, d), Fraction(c, d)) for b, c in zip(self._his, starts)])

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
        """Union with any number of TimeSets, normalized once, on keys
        rescaled to the sets' common denominator."""
        sets = (self, *others)
        d = lcm(*[ts._d for ts in sets])
        los, his, rays = [], [], []
        for ts in sets:
            m = d // ts._d
            los += [k * m for k in ts._los]
            his += [k * m for k in ts._his]
            if ts._ray is not None:
                rays.append(ts._ray * m)
        keys = _normal_form(d, tuple(los), tuple(his), min(rays, default=None))
        if len(rays) > 1:  # the rays left out may have needed all of d
            keys = _reduced(*keys)
        return TimeSet._from_keys(*keys)

    def shift(self, delta: Rational) -> TimeSet:
        n, e = _terms(delta)
        d = lcm(self._d, e)
        m, step = d // self._d, n * (d // e)
        r = None if self._ray is None else self._ray * m + step
        los = [k * m + step for k in self._los]
        his = [k * m + step for k in self._his]
        return TimeSet._from_keys(*_reduced(d, los, his, r))

    def sort_key(self):
        return _order_key(self)

    def endpoint_texts(self) -> tuple[list[list[str]], str | None]:
        """The endpoints as ``str`` writes their Fractions, from the keys:
        a new list of [lo, hi] pairs, and the ray's start or None."""
        d = self._d
        pairs = [[_rational_text(a, d), _rational_text(b, d)] for a, b in zip(self._los, self._his)]
        return pairs, None if self._ray is None else _rational_text(self._ray, d)

    def __str__(self):
        pairs, ray = self.endpoint_texts()
        parts = [f"[{lo}, {hi}]" for lo, hi in pairs]
        if ray is not None:
            parts.append(f"[{ray}, +oo)")
        return " u ".join(parts)


def _compare(a: TimeSet, b: TimeSet) -> int:
    """-1, 0 or 1 as ``a`` comes before, with or after ``b`` in the
    canonical order.  It is the order of ``(intervals, (1, ray_from) if a
    ray else (0, 0))`` over Fractions: the endpoints lo0, hi0, lo1, ...
    lexicographically, a shorter list first, then no ray before a ray, and
    rays by their start.  Each side's keys are compared times the other's
    denominator."""
    ma, mb = b._d, a._d
    for alo, ahi, blo, bhi in zip(a._los, a._his, b._los, b._his):
        x, y = alo * ma, blo * mb
        if x == y:
            x, y = ahi * ma, bhi * mb
        if x != y:
            return -1 if x < y else 1
    x, y = len(a._los), len(b._los)
    if x == y:
        if a._ray is None or b._ray is None:
            x, y = a._ray is not None, b._ray is not None
        else:
            x, y = a._ray * ma, b._ray * mb
    return (x > y) - (x < y)


_order_key = cmp_to_key(_compare)


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
