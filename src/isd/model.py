"""The sextuple information model and its structural operations.

An Information bundles six components: an ontology (what the information
is about), the occurrence times of its states, the states themselves, an
objective carrier, the reflection times, and the reflections, together
with a total single-valued mapping from states onto reflections.  The
operations here are the structural algebra: validation, reducibility and
inversion, serial composition, sub-information, combination, atoms, and
copy detection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import (
    ChainMismatchError,
    CombineConflictError,
    InvalidInformationError,
    NonInvertibleError,
)
from .timeset import TimeSet
from .values import EntityId, Value


@dataclass(frozen=True, slots=True)
class StateElement:
    """One state: some subjects, the times it holds, and its value."""

    subject: frozenset[EntityId]
    at: TimeSet
    value: Value

    def __post_init__(self):
        object.__setattr__(self, "subject", frozenset(self.subject))
        if not self.subject:
            raise ValueError("a state needs at least one subject")

    def sort_key(self):
        ids = tuple(sorted(e.sort_key() for e in self.subject))
        return (ids, self.at.sort_key(), self.value.sort_key())


@dataclass(frozen=True, slots=True)
class ReflectionElement:
    """One reflection: the carrier parts holding it, when, and its value."""

    carrier_part: frozenset[EntityId]
    at: TimeSet
    value: Value

    def __post_init__(self):
        object.__setattr__(self, "carrier_part", frozenset(self.carrier_part))
        if not self.carrier_part:
            raise ValueError("a reflection needs at least one carrier part")

    def sort_key(self):
        ids = tuple(sorted(e.sort_key() for e in self.carrier_part))
        return (ids, self.at.sort_key(), self.value.sort_key())


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


MappingLike = Union[
    Mapping[StateElement, ReflectionElement],
    Iterable[tuple[StateElement, ReflectionElement]],
]


def _normalize_pairs(mapping: MappingLike):
    if isinstance(mapping, Mapping):
        items = list(mapping.items())
    else:
        items = [(s, r) for s, r in mapping]
    seen = {}
    for s, r in items:
        if s in seen and seen[s] != r:
            raise ValueError(f"mapping assigns two reflections to one state: {s}")
        seen[s] = r
    # states are unique here and StateElement.sort_key is injective, so the
    # state key alone gives the full (state, reflection) order
    return tuple(sorted(seen.items(), key=lambda p: p[0].sort_key()))


@dataclass(frozen=True)
class _Sextuple:
    """The fields and normalization shared by Information and RawMapping."""

    name: str = field(compare=False)
    ontology: frozenset[EntityId]
    occurrence: TimeSet
    states: frozenset[StateElement]
    carrier: frozenset[EntityId]
    reflection_time: TimeSet
    reflections: frozenset[ReflectionElement]
    mapping: tuple[tuple[StateElement, ReflectionElement], ...]
    _map: dict = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "ontology", frozenset(self.ontology))
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        object.__setattr__(self, "reflections", frozenset(self.reflections))
        object.__setattr__(self, "mapping", _normalize_pairs(self.mapping))
        object.__setattr__(self, "_map", dict(self.mapping))

    @property
    def map(self) -> Mapping[StateElement, ReflectionElement]:
        return self._map


@dataclass(frozen=True)
class Information(_Sextuple):
    """A sextuple with its state-to-reflection mapping.

    ``name`` is a label for documents and reports and is excluded from
    structural equality.  The constructor normalizes sets and mapping
    order but does not enforce semantic invariants; ``validate`` reports
    them.  Operations that need a well-formed value check it once, and
    composites of checked links and ``from_pairs`` values with an
    objective carrier are valid by construction.
    """

    @classmethod
    def from_pairs(
        cls, name: str, pairs: Iterable[tuple[StateElement, ReflectionElement]]
    ) -> Information:
        """The tightest information holding ``pairs``: ontology, occurrence,
        carrier and reflection time are the unions of the subjects, state
        times, carrier parts and reflection times; states and reflections
        are the pairs' two sides.  Such a value can break only the
        objective-carrier rule, so it is marked valid when its carrier is
        objective.  Raises ValueError when ``pairs`` is empty or gives one
        state two reflections."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("an information needs at least one pair")
        states = frozenset(s for s, _ in pairs)
        reflections = frozenset(r for _, r in pairs)
        out = cls(
            name,
            frozenset().union(*(s.subject for s in states)),
            TimeSet.union(*(s.at for s in states)),
            states,
            frozenset().union(*(r.carrier_part for r in reflections)),
            TimeSet.union(*(r.at for r in reflections)),
            reflections,
            pairs,
        )
        if all(e.is_objective for e in out.carrier):
            object.__setattr__(out, "_known_valid", True)
        return out

    def sorted_states(self) -> list[StateElement]:
        return sorted(self.states, key=StateElement.sort_key)

    def sorted_reflections(self) -> list[ReflectionElement]:
        return sorted(self.reflections, key=ReflectionElement.sort_key)

    def components(self):
        """The six components as a tuple, in canonical order."""
        return (
            self.ontology,
            self.occurrence,
            self.states,
            self.carrier,
            self.reflection_time,
            self.reflections,
        )

    def __repr__(self):
        return (
            f"Information({self.name!r}, |o|={len(self.ontology)}, "
            f"|f|={len(self.states)}, |c|={len(self.carrier)}, "
            f"|g|={len(self.reflections)})"
        )


@dataclass(frozen=True)
class RawMapping(_Sextuple):
    """An unvalidated sextuple-shaped value.

    Inverting an information swaps the state and reflection sides; the
    result's "carrier" is the original ontology, which may contain
    subjective entities, so it is returned in this exempt form rather
    than as an Information.  ``promote`` upgrades it when it happens to
    satisfy every invariant.
    """

    def promote(self) -> Information:
        info = Information(
            self.name,
            self.ontology,
            self.occurrence,
            self.states,
            self.carrier,
            self.reflection_time,
            self.reflections,
            self.mapping,
        )
        require_valid(info)
        return info


InformationLike = Union[Information, RawMapping]


# -- validation ------------------------------------------------------------


def validate(info: InformationLike) -> list[Violation]:
    """Check every semantic invariant; returns an empty list when clean.

    Violations, not exceptions: a report can name several problems at
    once, which is what document loading wants.  Uncached; only the
    elements that break a rule are sorted into the report.
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

    bad_carrier = (e for e in info.carrier if not e.is_objective)
    for e in sorted(bad_carrier, key=EntityId.sort_key):
        out.append(
            Violation("carrier-not-objective", f"carrier not objective: {e.id}")
        )

    bad_states = (
        s
        for s in info.states
        if not (s.subject <= info.ontology and s.at.is_subset(info.occurrence))
    )
    for s in sorted(bad_states, key=StateElement.sort_key):
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

    bad_reflections = (
        r
        for r in info.reflections
        if not (r.carrier_part <= info.carrier and r.at.is_subset(info.reflection_time))
    )
    for r in sorted(bad_reflections, key=ReflectionElement.sort_key):
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


def _checked(info: InformationLike) -> list[Violation]:
    """``validate`` at most once per value: frozen objects cannot become
    invalid, so a clean result is remembered as ``_known_valid``."""
    if getattr(info, "_known_valid", False):
        return []
    report = validate(info)
    if not report:
        object.__setattr__(info, "_known_valid", True)
    return report


def require_valid(info: InformationLike) -> None:
    if isinstance(info, RawMapping):
        return  # exempt by construction
    report = _checked(info)
    if report:
        raise InvalidInformationError(report)


# -- reducibility and inversion ---------------------------------------------


def is_reducible(info: InformationLike) -> bool:
    """True when the mapping is injective, hence a bijection onto the
    reflections; the original states can then be recovered exactly."""
    require_valid(info)
    return len({r for _, r in info.mapping}) == len(info.mapping)


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


def reduction_map(info: InformationLike) -> Mapping[ReflectionElement, StateElement]:
    """The inverse mapping reflection -> original state, as a dict."""
    if not is_reducible(info):
        raise NonInvertibleError("mapping is not injective; no inverse exists")
    return {r: s for s, r in info.mapping}


# -- serial composition ------------------------------------------------------


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
    unmatched = [
        r
        for r in first.reflections
        if StateElement(r.carrier_part, r.at, r.value) not in second.states
    ]
    for r in sorted(unmatched, key=ReflectionElement.sort_key):
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


def compose(first: Information, second: Information) -> Information:
    """Serial composition: feed the first link's reflections through the
    second link's mapping.  The result keeps the first link's state side
    and takes the second link's reflection side."""
    require_valid(first)
    require_valid(second)
    problems = check_link(first, second)
    if problems:
        raise ChainMismatchError(problems[0].message)
    return _join(first, second)


def _join(first: Information, second: Information) -> Information:
    """``compose`` after both links and their hand-off passed.  The result
    is valid by construction: it keeps the first link's clean state side
    and the second's clean reflection side, and the hand-off is one-to-one,
    so the mapping is total and onto.  RawMapping links are exempt from
    checks, so a composite of one is not marked."""
    pairs = [
        (s, second.map[StateElement(r.carrier_part, r.at, r.value)])
        for s, r in first.mapping
    ]
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
    if isinstance(first, Information) and isinstance(second, Information):
        object.__setattr__(out, "_known_valid", True)
    return out


@dataclass(frozen=True)
class SerialChain:
    """A sequence of informations meant to hand off one to the next."""

    links: tuple[Information, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValueError("a chain needs at least one link")


def check_chain(chain: SerialChain) -> list[Violation]:
    out = []
    for i, link in enumerate(chain.links):
        for v in _checked(link):
            out.append(Violation(v.code, f"link {i} ({link.name!r}): {v.message}"))
    for i, (a, b) in enumerate(zip(chain.links, chain.links[1:])):
        for v in check_link(a, b):
            out.append(Violation(v.code, f"links {i}-{i + 1}: {v.message}"))
    return out


def collapse_chain(chain: SerialChain) -> Information:
    """Compose every link left to right into a single information."""
    problems = check_chain(chain)
    if problems:
        raise ChainMismatchError(problems[0].message)
    return functools.reduce(_join, chain.links)


# -- sub-information and combination ----------------------------------------


def is_sub_information(candidate: Information, whole: Information) -> tuple[bool, bool]:
    """(is_sub, is_proper): every component of ``candidate`` is contained
    in the matching component of ``whole`` and the mappings agree on the
    shared states.  Proper means at least one containment is strict."""
    require_valid(candidate)
    require_valid(whole)
    checks = [
        candidate.ontology <= whole.ontology,
        candidate.occurrence.is_subset(whole.occurrence),
        candidate.states <= whole.states,
        candidate.carrier <= whole.carrier,
        candidate.reflection_time.is_subset(whole.reflection_time),
        candidate.reflections <= whole.reflections,
    ]
    if not all(checks):
        return (False, False)
    for s, r in candidate.mapping:
        if whole.map.get(s) != r:
            return (False, False)
    proper = candidate.components() != whole.components()
    return (True, proper)


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


# -- atoms -------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One mapping pair.  Atoms are the minimal proper sub-informations
    of any information with more than one pair: lift one pair with the
    tightest components that still contain it and nothing smaller is a
    well-formed information."""

    state: StateElement
    reflection: ReflectionElement

    def lift(self, name: str = "atom") -> Information:
        return Information.from_pairs(name, [(self.state, self.reflection)])


def atoms(info: InformationLike) -> tuple[Atom, ...]:
    """The mapping pairs in canonical order (deterministic for weights)."""
    require_valid(info)
    return tuple(Atom(s, r) for s, r in info.mapping)


# -- copies ------------------------------------------------------------------


def is_copy(a: Information, b: Information) -> bool:
    """True when both are reducible and share ontology, occurrence, and
    states: they reduce to the same original, whatever their carriers."""
    require_valid(a)
    require_valid(b)
    if not (is_reducible(a) and is_reducible(b)):
        return False
    return (
        a.ontology == b.ontology
        and a.occurrence == b.occurrence
        and a.states == b.states
    )
