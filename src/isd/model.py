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
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Union

from .errors import (
    ChainMismatchError,
    CombineConflictError,
    InvalidInformationError,
    NonInvertibleError,
)
from .timeset import TimeSet
from .values import EntityId, Value


@dataclass(frozen=True, eq=False, slots=True)
class Element:
    """One state or reflection: the entities holding it, when, and its value.

    A state's entities are its subjects and a reflection's are its carrier
    parts.  One type serves both sides, so a link's reflections are the
    next link's states by plain equality, and inverting a mapping swaps
    each pair as it stands.  The hash is computed once, on construction,
    and equality compares it before any field.
    """

    entities: frozenset[EntityId]
    at: TimeSet
    value: Value
    _h: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        entities = frozenset(self.entities)
        if not entities:
            raise ValueError("an element needs at least one entity")
        object.__setattr__(self, "entities", entities)
        object.__setattr__(self, "_h", hash((entities, self.at, self.value)))

    @classmethod
    def _from_set(cls, entities: frozenset[EntityId], at: TimeSet, value: Value) -> Element:
        """The trusted constructor: ``entities`` is a nonempty frozenset,
        kept as given, and the hash is the one the public constructor
        computes."""
        e = object.__new__(cls)
        object.__setattr__(e, "entities", entities)
        object.__setattr__(e, "at", at)
        object.__setattr__(e, "value", value)
        object.__setattr__(e, "_h", hash((entities, at, value)))
        return e

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._h == other._h
            and self.at == other.at
            and self.value == other.value
            and self.entities == other.entities
        )

    def __hash__(self):
        return self._h

    @property
    def subject(self) -> frozenset[EntityId]:
        return self.entities

    @property
    def carrier_part(self) -> frozenset[EntityId]:
        return self.entities

    def sort_key(self):
        ids = tuple(sorted(e.sort_key() for e in self.entities))
        return (ids, self.at.sort_key(), self.value.sort_key())


StateElement = ReflectionElement = Element


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


MappingLike = Union[
    Mapping[Element, Element],
    Iterable[tuple[Element, Element]],
]


def _normalize_pairs(mapping: MappingLike):
    seen = {}
    for s, r in mapping.items() if isinstance(mapping, Mapping) else mapping:
        if s in seen and seen[s] != r:
            raise ValueError(f"mapping assigns two reflections to one state: {s}")
        seen[s] = r
    # states are unique here and Element.sort_key is injective, so the
    # state key alone gives the full (state, reflection) order
    return tuple(sorted(seen.items(), key=lambda p: p[0].sort_key()))


@dataclass(frozen=True)
class _Sextuple:
    """The fields and normalization shared by Information and RawMapping."""

    name: str = field(compare=False)
    ontology: frozenset[EntityId]
    occurrence: TimeSet
    states: frozenset[Element]
    carrier: frozenset[EntityId]
    reflection_time: TimeSet
    reflections: frozenset[Element]
    mapping: tuple[tuple[Element, Element], ...]
    _known_valid: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ontology", frozenset(self.ontology))
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        object.__setattr__(self, "reflections", frozenset(self.reflections))
        object.__setattr__(self, "mapping", _normalize_pairs(self.mapping))

    @classmethod
    def _presorted(cls, *values, valid=False):
        """The one trusted constructor: the name, the six components as
        frozensets and TimeSets, and a mapping tuple in canonical order with
        one pair per state, kept as given.  ``valid`` is the caller's verdict
        that the value is valid by construction, recorded in ``_known_valid``."""
        out = object.__new__(cls)
        for f, v in zip(_SEXTUPLE_FIELDS, (*values, valid)):
            object.__setattr__(out, f, v)
        return out

    @functools.cached_property
    def map(self) -> Mapping[Element, Element]:
        """The mapping as a dict, built on first read."""
        return dict(self.mapping)

    def components(self):
        """The six components as a tuple, in canonical order."""
        return tuple([getattr(self, c) for c in COMPONENTS])


_SEXTUPLE_FIELDS = tuple(f.name for f in fields(_Sextuple))
# the six components, in canonical order: the one place they are listed
COMPONENTS = _SEXTUPLE_FIELDS[1:7]


@dataclass(frozen=True)
class Information(_Sextuple):
    """A sextuple with its state-to-reflection mapping.

    ``name`` is a label for documents and reports and is excluded from
    structural equality.  The constructor normalizes sets and mapping
    order but does not enforce semantic invariants; ``validate`` reports
    them.  Operations that need a well-formed value check it once.  The
    six components are listed once, as ``COMPONENTS``.  Composites and
    combinations of checked informations, and ``from_pairs`` values with an
    objective carrier, are valid by construction and marked so.
    """

    @classmethod
    def from_pairs(
        cls, name: str, pairs: Iterable[tuple[Element, Element]]
    ) -> Information:
        """The tightest information holding ``pairs``: ontology, occurrence,
        carrier and reflection time are the unions of the subjects, state
        times, carrier parts and reflection times; states and reflections
        are the pairs' two sides.  Such a value can break only the
        objective-carrier rule, so it is marked valid when its carrier is
        objective.  Raises ValueError when ``pairs`` is empty or gives one
        state two reflections.  The unions follow the canonical mapping,
        so time-ordered pairs give normal-form time sets."""
        mapping = _normalize_pairs(pairs)
        if not mapping:
            raise ValueError("an information needs at least one pair")
        carrier = frozenset().union(*(r.entities for _, r in mapping))
        return cls._presorted(
            name,
            frozenset().union(*(s.entities for s, _ in mapping)),
            TimeSet.union(*(s.at for s, _ in mapping)),
            frozenset([s for s, _ in mapping]),
            carrier,
            TimeSet.union(*(r.at for _, r in mapping)),
            frozenset([r for _, r in mapping]),
            mapping,
            valid=all(e.is_objective for e in carrier),
        )

    def sorted_states(self) -> list[Element]:
        """The states in canonical order: the state column of the valid mapping."""
        require_valid(self)
        return [s for s, _ in self.mapping]

    def sorted_reflections(self) -> list[Element]:
        return sorted(self.reflections, key=Element.sort_key)

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
        # the mapping is canonical already: the constructor sorted it
        info = Information._presorted(self.name, *self.components(), self.mapping)
        require_valid(info)
        return info


InformationLike = Union[Information, RawMapping]


# -- validation ------------------------------------------------------------

# The (code, wording) of each rule an element of one side can break: its
# entities outside the side's entity set, its time outside the side's time
# set, the mapping missing it, and the mapping naming it without holding it.
_STATE_RULES = (
    ("state-subject-outside-ontology", "state subject outside ontology: {}"),
    ("state-time-outside-occurrence", "state time {} outside occurrence {}"),
    ("mapping-not-total", "mapping not total: no reflection for {}"),
    ("mapping-key-unknown", "mapping key is not a state: {}"),
)
_REFLECTION_RULES = (
    ("reflection-part-outside-carrier", "reflection carrier part outside carrier: {}"),
    ("reflection-time-outside", "reflection time {} outside reflection time {}"),
    ("mapping-not-surjective", "mapping not surjective: {} never reached"),
    ("mapping-value-unknown", "mapping value is not a reflection: {}"),
)


def validate(info: InformationLike) -> list[Violation]:
    """Check every semantic invariant; returns an empty list when clean.

    Violations, not exceptions: a report can name several problems at
    once, which is what document loading wants.  Uncached; only the
    elements that break a rule are sorted into the report.
    """
    out: list[Violation] = []
    for label in ("ontology", "states", "carrier", "reflections"):
        if not getattr(info, label):
            out.append(Violation("empty-component", f"{label} is empty"))

    bad_carrier = (e for e in info.carrier if not e.is_objective)
    for e in sorted(bad_carrier, key=EntityId.sort_key):
        out.append(
            Violation("carrier-not-objective", f"carrier not objective: {e.id}")
        )

    mapped = {s for s, _ in info.mapping}
    images = {r for _, r in info.mapping}
    sides = (
        (info.states, info.ontology, info.occurrence, mapped, _STATE_RULES),
        (info.reflections, info.carrier, info.reflection_time, images, _REFLECTION_RULES),
    )
    for elements, entities, times, _, (part_rule, time_rule, _, _) in sides:
        bad = (
            e for e in elements if not (e.entities <= entities and e.at.is_subset(times))
        )
        for e in sorted(bad, key=Element.sort_key):
            if not e.entities <= entities:
                extra = ", ".join(sorted(x.id for x in e.entities - entities))
                out.append(Violation(part_rule[0], part_rule[1].format(extra)))
            if not e.at.is_subset(times):
                out.append(Violation(time_rule[0], time_rule[1].format(e.at, times)))
    for elements, _, _, reached, (_, _, missing_rule, unknown_rule) in sides:
        for e in sorted(elements - reached, key=Element.sort_key):
            out.append(Violation(missing_rule[0], missing_rule[1].format(e)))
        for e in sorted(reached - elements, key=Element.sort_key):
            out.append(Violation(unknown_rule[0], unknown_rule[1].format(e)))
    return out


def _checked(info: InformationLike) -> list[Violation]:
    """``validate`` at most once per value: frozen objects cannot become
    invalid, so a clean result is remembered as ``_known_valid``.  A
    RawMapping is exempt by construction and reports nothing."""
    if isinstance(info, RawMapping) or info._known_valid:
        return []
    report = validate(info)
    if not report:
        object.__setattr__(info, "_known_valid", True)
    return report


def require_valid(info: InformationLike) -> None:
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
    # the sides come from the mapping, not from ``info``: a RawMapping is
    # never validated, so its sides may differ from its mapping's
    raw = RawMapping(
        info.name,
        info.carrier,
        info.reflection_time,
        frozenset(r for _, r in info.mapping),
        info.ontology,
        info.occurrence,
        frozenset(s for s, _ in info.mapping),
        [(r, s) for s, r in info.mapping],
    )
    try:
        return raw.promote()
    except InvalidInformationError:
        return raw


def reduction_map(info: InformationLike) -> Mapping[Element, Element]:
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
    unmatched = [r for r in first.reflections if r not in second.states]
    for r in sorted(unmatched, key=Element.sort_key):
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
    so the mapping is total and onto.  That holds only for links known to
    be valid: RawMapping links are exempt from checks, so a composite of
    one, and every composite built on that one, is not marked.  The pairs
    come in the first link's mapping order, which is already canonical for
    its states, so they are kept as they are rather than sorted again.  The
    same reasoning makes a ``combine`` of checked parts valid by
    construction; both go through the one trusted constructor."""
    pairs = tuple([(s, second.map[r]) for s, r in first.mapping])
    return Information._presorted(
        f"{first.name}*{second.name}",
        first.ontology,
        first.occurrence,
        first.states,
        second.carrier,
        second.reflection_time,
        second.reflections,
        pairs,
        valid=first._known_valid and second._known_valid,
    )


@dataclass(frozen=True)
class SerialChain:
    """A sequence of informations meant to hand off one to the next."""

    links: tuple[Information, ...]
    _known_valid: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValueError("a chain needs at least one link")


def check_chain(chain: SerialChain) -> list[Violation]:
    """Every link's violations, then every hand-off's.  A clean report
    marks the chain, so a later check of the same object is free."""
    if chain._known_valid:
        return []
    out = []
    for i, link in enumerate(chain.links):
        for v in _checked(link):
            out.append(Violation(v.code, f"link {i} ({link.name!r}): {v.message}"))
    for i, (a, b) in enumerate(zip(chain.links, chain.links[1:])):
        for v in check_link(a, b):
            out.append(Violation(v.code, f"links {i}-{i + 1}: {v.message}"))
    if not out:
        object.__setattr__(chain, "_known_valid", True)
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
    for x, y in zip(candidate.components(), whole.components()):
        if not (x.is_subset(y) if isinstance(x, TimeSet) else x <= y):
            return (False, False)
    if any(whole.map.get(s) != r for s, r in candidate.mapping):
        return (False, False)
    return (True, candidate.components() != whole.components())


def combine(a: Information, b: Information) -> Information:
    """Componentwise union.  The mappings must agree on shared states;
    disagreement raises CombineConflictError naming the state.  The union
    of two checked informations keeps every rule, so it is marked valid."""
    require_valid(a)
    require_valid(b)
    for s in a.states & b.states:
        if a.map[s] != b.map[s]:
            raise CombineConflictError(
                f"shared state maps to different reflections: {s}"
            )
    name = a.name if a.name == b.name else f"{a.name}+{b.name}"
    return Information._presorted(
        name,
        *[x.union(y) for x, y in zip(a.components(), b.components())],
        _normalize_pairs({**a.map, **b.map}),
        valid=a._known_valid and b._known_valid,
    )


# -- atoms -------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One mapping pair.  Atoms are the minimal proper sub-informations
    of any information with more than one pair: lift one pair with the
    tightest components that still contain it and nothing smaller is a
    well-formed information."""

    state: Element
    reflection: Element

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
    return a.components()[:3] == b.components()[:3]
