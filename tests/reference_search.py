"""The package's original ``min_mismatch_search``, kept as the reference.

The body is the seed scan, calling ``reference_measures.mismatch``, which
adds each weighted component distance into a ``Fraction`` accumulator on
every entry.  ``isd.oracles.search`` takes each entry's integer set part
first, as a lower bound, and runs the time sweeps only where that bound
cannot settle the answer.  The property tests check that both searches
return the same index, comparison count and distance, with the distance
of the same type, or raise the same error.
"""

from __future__ import annotations

from isd.errors import EmptyLibraryError
from isd.oracles.search import SearchLibrary, SearchResult

from reference_measures import mismatch


def min_mismatch_search(library: SearchLibrary) -> SearchResult:
    if not library.entries:
        raise EmptyLibraryError("cannot search an empty library")
    best_i = 0
    best_d = None
    for i, entry in enumerate(library.entries):
        d = mismatch(library.target, entry, library.metric)
        if library.threshold is not None and d <= library.threshold:
            return SearchResult(index=i, comparisons=i + 1, distance=d)
        if best_d is None or d < best_d:
            best_i, best_d = i, d
    return SearchResult(index=best_i, comparisons=len(library.entries), distance=best_d)
