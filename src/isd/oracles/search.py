"""Search cost oracles: average search length and mismatch retrieval.

Retrieving the library entry closest to a target costs comparisons; with
a zero-mismatch entry present and an early-stop threshold the expected
cost of a sequential scan is (n+1)/2, a balanced discrimination tree
averages ((n+1)/n) log2(n+1) - 1 for n = 2^h - 1, and without a
threshold a strictly positive minimum forces all n comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Sequence

from ..errors import EmptyLibraryError
from ..measures import _INFINITE_PAIR, _mismatch_set_part, _mismatch_time_part
from ..measures import Metric, mismatch
from ..model import Information
from ..timeset import as_fraction


def asl_sequential(n: int) -> Fraction:
    """Expected comparisons of a sequential scan that stops at the match,
    with the match uniformly placed: (n + 1) / 2."""
    if n < 1:
        raise ValueError("need at least one entry")
    return Fraction(n + 1, 2)


def _tree_depth_total(lo: int, hi: int, depth: int) -> int:
    """Sum of node depths of the midpoint discrimination tree on [lo, hi]."""
    if lo > hi:
        return 0
    mid = (lo + hi) // 2
    return (
        depth
        + _tree_depth_total(lo, mid - 1, depth + 1)
        + _tree_depth_total(mid + 1, hi, depth + 1)
    )


def asl_binary(n: int) -> Fraction:
    """Exact average depth (root depth 1) of the midpoint discrimination
    tree over n ordered entries, computed by building the tree."""
    if n < 1:
        raise ValueError("need at least one entry")
    return Fraction(_tree_depth_total(1, n, 1), n)


def asl_binary_closed_form(n: int) -> Fraction:
    """((n+1)/n) log2(n+1) - 1, exact; only full trees (n = 2^h - 1)
    admit the closed form, anything else raises ValueError."""
    if n < 1:
        raise ValueError("need at least one entry")
    m = n + 1
    h = m.bit_length() - 1
    if m != 1 << h:
        raise ValueError(f"{n} is not of the form 2^h - 1")
    return Fraction(n + 1, n) * h - 1


@dataclass(frozen=True)
class SearchLibrary:
    """A target, the entries to scan, the mismatch metric, and an
    optional early-stop threshold, read as a Fraction: an int, a Fraction
    or a "p/q" string; a bool or a float raises TypeError."""

    target: Information
    entries: tuple[Information, ...]
    metric: Metric
    threshold: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", as_fraction(self.threshold))


@dataclass(frozen=True)
class SearchResult:
    index: int
    comparisons: int
    distance: Fraction | float


def min_mismatch_search(library: SearchLibrary) -> SearchResult:
    """Scan the entries in order for the one closest to the target.

    With a threshold, stop at the first entry at or below it (comparisons
    = its position).  Without one, or when no entry meets it, all n
    entries count as compared and the first entry attaining the minimum
    is returned.  Answers and errors are those of running ``mismatch`` on
    every entry in turn.

    Each entry's distance is taken set part first: the weighted set
    differences, an exact lower bound of the whole mismatch.  The time
    sweeps run only where they can change the answer.  The scan, in entry
    order, sweeps an entry only when its bound is within the threshold.
    The best is deferred to a second pass over the bounds kept for this
    call, which sweeps an entry only when its bound is not strictly above
    the best distance so far (a tie is swept, so the first index wins) and
    reuses the distances the scan completed.  Distances stay integer pairs
    compared by cross-multiplication; the reported one is built once, as
    a Fraction, or ``math.inf`` when every distance is infinite.
    """
    target, metric, threshold = library.target, library.metric, library.threshold
    if not library.entries:
        raise EmptyLibraryError("cannot search an empty library")
    if threshold is not None:
        tn, td = threshold.numerator, threshold.denominator
    scanned = []  # per entry: (set part numerator, index, its denominator, time pairs, whole)
    for i, entry in enumerate(library.entries):
        low, times = _mismatch_set_part(target, entry, metric)
        whole = None
        if threshold is not None and low[0] * td <= tn * low[1]:
            whole = _mismatch_time_part(low, times)
            if whole[0] * td <= tn * whole[1]:
                return SearchResult(index=i, comparisons=i + 1, distance=Fraction(*whole))
        scanned.append((low[0], i, low[1], times, whole))
    # The set parts share the metric's denominator, so sorting by numerator
    # visits the entries by ascending bound, ties by index: the best turns
    # up early and most sweeps are skipped.  The answer does not depend on
    # this order, as every skip and tie is decided exactly.
    best_i, (bn, bd) = 0, _INFINITE_PAIR
    for ln, i, ld, times, whole in sorted(scanned):
        if ln * bd > bn * ld:
            continue
        n, d = whole or _mismatch_time_part((ln, ld), times)
        if n * bd < bn * d or (n * bd == bn * d and i < best_i):
            best_i, bn, bd = i, n, d
    return SearchResult(
        index=best_i, comparisons=len(scanned), distance=Fraction(bn, bd) if bd else inf
    )


def asl_sequential_empirical(
    entries: Sequence[Information],
    metric: Metric,
    trials: int = 100_000,
    seed: int = 0,
) -> Fraction:
    """Mean comparisons of the threshold-zero sequential search when the
    target is a uniformly random entry.

    The pairwise mismatch distances are computed once with the real
    metric; each trial then replays the sequential scan over the
    precomputed row, counting comparisons until the zero entry.
    """
    n = len(entries)
    if n == 0:
        raise EmptyLibraryError("cannot search an empty library")
    rows = []
    for target in entries:
        rows.append([mismatch(target, e, metric) for e in entries])
    for k, row in enumerate(rows):
        if row[k] != 0:
            raise ValueError(f"entry {k} does not match itself under the metric")
    rng = random.Random(seed)
    total = 0
    for _ in range(trials):
        row = rows[rng.randrange(n)]
        comparisons = 0
        for d in row:
            comparisons += 1
            if d == 0:
                break
        total += comparisons
    return Fraction(total, trials)
