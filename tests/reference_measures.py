"""The package's original exact sums and atom means, kept verbatim as
references.

``isd.measures`` adds rationals through one ``exact_sum`` (one common
denominator, one integer sum, one ``Fraction``) and computes ``delay`` and
``granularity`` through one ``_atom_mean``; these copies add term by term
into a ``Fraction(0)`` accumulator, one measure at a time.  The bodies are
the originals: ``MeasureAssignment.measure_of`` and
``TimeSet.lebesgue_measure`` become functions of the assignment and the
time set, and the measures call the reference ``measure_of``.
``mismatch``'s time distance comes from the seed sweep in
``reference_timeset``, not from the package's.  ``is_equivalence_over``
is the seed method, which builds every pair inside every class; the package
compares the pair count with the class sizes instead.  The property
tests check that both sides return equal values of the same type and
raise the same errors with the same messages.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Iterable, Mapping, Sequence

from isd.errors import (
    EmptyInformationError,
    IncompleteReflectionError,
    MeasureInputError,
    NotACopyError,
    UnboundedTimeError,
    ZeroTargetMeasureError,
)
from isd.measures import (
    MISMATCH_COMPONENTS,
    AtomWeighting,
    ExtendedRate,
    MeasureAssignment,
    Metric,
    Relation,
)
from isd.model import (
    Element,
    Information,
    InformationLike,
    atoms,
    is_copy,
    require_valid,
)
from isd.timeset import TimeSet, exact_or_float_sqrt
from isd.values import EntityId

import reference_timeset


def measure_of(sigma: MeasureAssignment, entities: Iterable[EntityId]) -> Fraction:
    total = Fraction(0)
    for e in entities:
        total += sigma.weights.get(e, sigma.default_weight)
    return total


def lebesgue_measure(ts: TimeSet):
    """Total length; math.inf when unbounded."""
    if ts.ray_from is not None:
        return inf
    return sum((hi - lo for lo, hi in ts.intervals), Fraction(0))


def delay(info: InformationLike, mu: AtomWeighting | None = None) -> Fraction:
    mu = mu or AtomWeighting.counting()
    ats = atoms(info)
    if not ats:
        raise EmptyInformationError("delay needs at least one atom")
    total_w = Fraction(0)
    acc = Fraction(0)
    for i, atom in enumerate(ats):
        w = mu.weight(i)
        total_w += w
        if atom.state.at.is_unbounded:
            continue
        if atom.reflection.at.is_unbounded:
            raise UnboundedTimeError(
                "reflection time is unbounded over a bounded occurrence"
            )
        acc += w * (atom.reflection.at.sup - atom.state.at.sup)
    if total_w == 0:
        raise EmptyInformationError("atom weights sum to zero")
    return acc / total_w


def granularity(
    info: InformationLike,
    sigma: MeasureAssignment,
    mu: AtomWeighting | None = None,
) -> Fraction:
    mu = mu or AtomWeighting.counting()
    ats = atoms(info)
    if not ats:
        raise EmptyInformationError("granularity needs at least one atom")
    total_w = Fraction(0)
    acc = Fraction(0)
    for i, atom in enumerate(ats):
        w = mu.weight(i)
        total_w += w
        acc += w * measure_of(sigma, atom.state.entities)
    if total_w == 0:
        raise EmptyInformationError("atom weights sum to zero")
    return acc / total_w


def sampling_rate(info: InformationLike) -> ExtendedRate:
    require_valid(info)
    gaps = info.occurrence.hull_gaps()
    if not gaps:
        return ExtendedRate.infinite()
    total = sum((hi - lo for lo, hi in gaps), Fraction(0))
    if total == 0:
        return ExtendedRate.infinite()
    return ExtendedRate.finite(Fraction(len(gaps)) / total)


def coverage(
    base: Information,
    copies: Sequence[Information],
    sigma: MeasureAssignment,
    target: Iterable[EntityId],
    *,
    allow_non_copies: bool = False,
) -> Fraction:
    require_valid(base)
    target = frozenset(target)
    denom = measure_of(sigma, target)
    if denom == 0:
        raise ZeroTargetMeasureError("target has sigma-measure zero")
    members = [base, *copies]
    for c in copies:
        require_valid(c)
        if not allow_non_copies and not is_copy(base, c):
            raise NotACopyError(
                f"{c.name!r} is not a copy of {base.name!r} "
                "(pass allow_non_copies=True to compute anyway)"
            )
    for m in members:
        if not m.carrier <= target:
            raise MeasureInputError(f"carrier of {m.name!r} reaches outside the target")
    total = sum((measure_of(sigma, m.carrier) for m in members), Fraction(0))
    return total / denom


def _set_distance(kind: str, a: frozenset, b: frozenset):
    sym = len(a ^ b)
    if kind == "symmetric_difference_count":
        return Fraction(sym)
    if kind == "jaccard_distance":
        union = len(a | b)
        return Fraction(sym, union) if union else Fraction(0)
    raise ValueError(f"metric kind {kind!r} does not apply to element sets")


def _timeset_distance(a: TimeSet, b: TimeSet):
    length, isolated = reference_timeset.symmetric_difference_size(
        reference_timeset.TimeSet(a.intervals, a.ray_from),
        reference_timeset.TimeSet(b.intervals, b.ray_from),
    )
    if length is inf:
        return inf
    return length + isolated


def distortion(
    info: InformationLike,
    reflection_map: Mapping[Element, Element],
    metric: Metric,
) -> Fraction | float:
    require_valid(info)
    missing = [r for r in info.reflections if r not in reflection_map]
    if missing:
        first = min(missing, key=Element.sort_key)
        raise IncompleteReflectionError(f"no estimate for reflection {first}")
    if metric.kind in ("symmetric_difference_count", "jaccard_distance"):
        estimated = frozenset(reflection_map[r] for r in info.reflections)
        return _set_distance(metric.kind, frozenset(info.states), estimated)
    if metric.kind == "euclidean_on_values":
        total = Fraction(0)
        for s, r in info.mapping:
            truth = s.value.numeric_components()
            est = reflection_map[r].value.numeric_components()
            if len(truth) != len(est):
                raise MeasureInputError(
                    "state and estimate values have different numeric shapes"
                )
            for x, y in zip(truth, est):
                total += (x - y) ** 2
        return exact_or_float_sqrt(total)
    raise ValueError(f"metric kind {metric.kind!r} does not apply to distortion")


def mismatch(info: InformationLike, target: InformationLike, metric: Metric) -> Fraction | float:
    if metric.kind != "weighted_product":
        raise ValueError("mismatch requires a weighted_product metric")
    require_valid(info)
    require_valid(target)
    total = Fraction(0)
    for name in MISMATCH_COMPONENTS:
        w = metric.component_weights.get(name, Fraction(1))
        if w == 0:
            continue
        a, b = getattr(info, name), getattr(target, name)
        if isinstance(a, TimeSet):
            dist = _timeset_distance(a, b)
            if isinstance(dist, float):  # only inf escapes the rationals here
                return inf
        else:
            dist = len(a ^ b)
        total += w * dist
    return total


def is_equivalence_over(self: Relation, elements: Iterable[Element]) -> bool:
    """Exactly the pairs of some partition of ``elements``: reflexive
    on all of them, symmetric, and transitive (closure adds nothing)."""
    elems = set(elements)
    for a, b in self.pairs:
        if a not in elems or b not in elems:
            return False
    classes = self.classes_over(elems)
    expected = set()
    for cls_ in classes:
        for a in cls_:
            for b in cls_:
                expected.add((a, b))
    return self.pairs == expected
