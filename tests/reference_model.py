"""The package's original ``validate``, ``check_link``, ``invert``,
mapping normalization and tight-information assembly, kept verbatim as
references.

``isd.model.validate`` and ``isd.model.check_link`` sort only the
elements that break a rule; these copies sort every component first.
``isd.model.invert`` swaps each pair as it stands; ``invert`` here
rebuilds each element from the other side's fields.
``isd.model`` orders a mapping by state key alone; ``normalize_pairs``
orders it by state and reflection keys.  ``isd.model._join`` keeps the
first link's mapping order for a composite; ``join`` here sorts the
composite's pairs again through the public ``Information`` constructor,
and so does ``combine`` here with the six unions written out one by one.  ``Information.from_pairs``
unions each time component in one normalization; ``from_pairs`` here
folds pairwise unions field by field.  The property tests check that
both sides return the same violations, the same mapping in the same
order, and the same information.  ``value_sort_key`` is the original
``Value.sort_key``, which orders bodies as Fractions; ``isd.values``
cross-multiplies integer terms.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping

from isd.errors import CombineConflictError, InvalidInformationError, NonInvertibleError
from isd.model import (
    Information,
    InformationLike,
    RawMapping,
    ReflectionElement,
    StateElement,
    Violation,
    is_reducible,
    require_valid,
)
from isd.timeset import TimeSet
from isd.values import EntityId


def validate(info: InformationLike) -> list[Violation]:
    """Check every semantic invariant; returns an empty list when clean.

    Violations, not exceptions: a report can name several problems at
    once, which is what document loading wants.
    """
    out: list[Violation] = []
    for label, comp in (
        ("ontology", info.ontology),
        ("states", info.states),
        ("carrier", info.carrier),
        ("reflections", info.reflections),
    ):
        if not comp:
            out.append(Violation("empty-component", f"{label} is empty"))

    for e in sorted(info.carrier, key=EntityId.sort_key):
        if not e.is_objective:
            out.append(
                Violation("carrier-not-objective", f"carrier not objective: {e.id}")
            )

    for s in sorted(info.states, key=StateElement.sort_key):
        if not s.subject <= info.ontology:
            extra = ", ".join(sorted(e.id for e in s.subject - info.ontology))
            out.append(
                Violation(
                    "state-subject-outside-ontology",
                    f"state subject outside ontology: {extra}",
                )
            )
        if not s.at.is_subset(info.occurrence):
            out.append(
                Violation(
                    "state-time-outside-occurrence",
                    f"state time {s.at} outside occurrence {info.occurrence}",
                )
            )

    for r in sorted(info.reflections, key=ReflectionElement.sort_key):
        if not r.carrier_part <= info.carrier:
            extra = ", ".join(sorted(e.id for e in r.carrier_part - info.carrier))
            out.append(
                Violation(
                    "reflection-part-outside-carrier",
                    f"reflection carrier part outside carrier: {extra}",
                )
            )
        if not r.at.is_subset(info.reflection_time):
            out.append(
                Violation(
                    "reflection-time-outside",
                    f"reflection time {r.at} outside reflection time {info.reflection_time}",
                )
            )

    mapped = {s for s, _ in info.mapping}
    for s in sorted(info.states - mapped, key=StateElement.sort_key):
        out.append(
            Violation("mapping-not-total", f"mapping not total: no reflection for {s}")
        )
    for s in sorted(mapped - info.states, key=StateElement.sort_key):
        out.append(
            Violation("mapping-key-unknown", f"mapping key is not a state: {s}")
        )
    images = {r for _, r in info.mapping}
    for r in sorted(info.reflections - images, key=ReflectionElement.sort_key):
        out.append(
            Violation(
                "mapping-not-surjective", f"mapping not surjective: {r} never reached"
            )
        )
    for r in sorted(images - info.reflections, key=ReflectionElement.sort_key):
        out.append(
            Violation("mapping-value-unknown", f"mapping value is not a reflection: {r}")
        )
    return out


def check_link(first: InformationLike, second: InformationLike) -> list[Violation]:
    """The hand-off conditions between consecutive links: the first link's
    carrier, reflection times, and reflections must be the second link's
    ontology, occurrence, and states (value-for-value)."""
    out = []
    if first.carrier != second.ontology:
        out.append(
            Violation(
                "handoff-carrier",
                f"carrier of {first.name!r} differs from ontology of {second.name!r}",
            )
        )
    if first.reflection_time != second.occurrence:
        out.append(
            Violation(
                "handoff-time",
                f"reflection time of {first.name!r} differs from occurrence of {second.name!r}",
            )
        )
    for r in sorted(first.reflections, key=ReflectionElement.sort_key):
        if StateElement(r.carrier_part, r.at, r.value) not in second.states:
            out.append(
                Violation(
                    "handoff-element",
                    f"reflection {r} of {first.name!r} has no matching state in {second.name!r}",
                )
            )
    if len(first.reflections) != len(second.states):
        out.append(
            Violation(
                "handoff-count",
                f"{first.name!r} has {len(first.reflections)} reflections but "
                f"{second.name!r} has {len(second.states)} states",
            )
        )
    return out


def invert(info: InformationLike) -> InformationLike:
    """Swap the state and reflection sides of a reducible information.

    The result has the reflections as states and recovers the original
    states as reflections.  It is returned as a RawMapping unless it
    happens to satisfy every Information invariant (in particular an
    all-objective carrier), in which case it is promoted.  Inverting
    twice returns to the original value.
    """
    if not is_reducible(info):
        raise NonInvertibleError("mapping is not injective; no inverse exists")
    inv_pairs = []
    for s, r in info.mapping:
        new_state = StateElement(r.carrier_part, r.at, r.value)
        new_reflection = ReflectionElement(s.subject, s.at, s.value)
        inv_pairs.append((new_state, new_reflection))
    raw = RawMapping(
        info.name,
        frozenset(info.carrier),
        info.reflection_time,
        frozenset(s for s, _ in inv_pairs),
        frozenset(info.ontology),
        info.occurrence,
        frozenset(r for _, r in inv_pairs),
        inv_pairs,
    )
    try:
        return raw.promote()
    except InvalidInformationError:
        return raw


def normalize_pairs(mapping):
    if isinstance(mapping, Mapping):
        items = list(mapping.items())
    else:
        items = [(s, r) for s, r in mapping]
    seen = {}
    for s, r in items:
        if s in seen and seen[s] != r:
            raise ValueError(f"mapping assigns two reflections to one state: {s}")
        seen[s] = r
    return tuple(sorted(seen.items(), key=lambda p: (p[0].sort_key(), p[1].sort_key())))


def from_pairs(name, pairs) -> Information:
    states = [s for s, _ in pairs]
    reflections = [r for _, r in pairs]
    times = lambda els: reduce(TimeSet.union, (e.at for e in els))
    return Information(
        name,
        frozenset().union(*(s.subject for s in states)),
        times(states),
        frozenset(states),
        frozenset().union(*(r.carrier_part for r in reflections)),
        times(reflections),
        frozenset(reflections),
        pairs,
    )


def join(first: Information, second: Information) -> Information:
    """``compose`` after both links and their hand-off passed.  The result
    is valid by construction: it keeps the first link's clean state side
    and the second's clean reflection side, and the hand-off is one-to-one,
    so the mapping is total and onto.  That holds only for links known to
    be valid: RawMapping links are exempt from checks, so a composite of
    one, and every composite built on that one, is not marked."""
    pairs = [(s, second.map[r]) for s, r in first.mapping]
    out = Information(
        f"{first.name}*{second.name}",
        first.ontology,
        first.occurrence,
        first.states,
        second.carrier,
        second.reflection_time,
        second.reflections,
        pairs,
    )
    if getattr(first, "_known_valid", False) and getattr(second, "_known_valid", False):
        object.__setattr__(out, "_known_valid", True)
    return out


def combine(a: Information, b: Information) -> Information:
    """Componentwise union.  The mappings must agree on shared states;
    disagreement raises CombineConflictError naming the state."""
    require_valid(a)
    require_valid(b)
    for s in a.states & b.states:
        if a.map[s] != b.map[s]:
            raise CombineConflictError(
                f"shared state maps to different reflections: {s}"
            )
    pairs = dict(a.mapping)
    pairs.update(dict(b.mapping))
    name = a.name if a.name == b.name else f"{a.name}+{b.name}"
    return Information(
        name,
        a.ontology | b.ontology,
        a.occurrence.union(b.occurrence),
        a.states | b.states,
        a.carrier | b.carrier,
        a.reflection_time.union(b.reflection_time),
        a.reflections | b.reflections,
        pairs,
    )


def value_sort_key(v):
    """The tag's rank, then the body: a symbol's string, a scalar's
    Fraction, a vector's tuple of Fractions, or a record's pairs of key and
    this key of the value."""
    if v.tag == "record":
        return (3, tuple((k, value_sort_key(inner)) for k, inner in v.body))
    return ({"symbol": 0, "scalar": 1, "vector": 2}[v.tag], v.body)
