"""The eleven measurable properties of an information value.

Everything here is exact rational arithmetic over the finite model:
entity measures are weighted sums, atom means are computed with explicit
weights, and set distances count elements.  Floats appear only where a
metric genuinely leaves the rationals (euclidean distances whose square
root is irrational).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    EmptyInformationError,
    IncompleteReflectionError,
    MeasureInputError,
    NonInvertibleError,
    NotACopyError,
    NotEquivalenceError,
    UnboundedTimeError,
    ZeroTargetMeasureError,
)
from .model import (
    COMPONENTS,
    Information,
    InformationLike,
    Element,
    is_copy,
    is_reducible,
    require_valid,
)
from .timeset import Rational, TimeSet, as_fraction, exact_or_float_sqrt, exact_sum
from .timeset import exact_pair_sum, symmetric_difference_keys
from .values import EntityId


@functools.total_ordering
class ExtendedRate:
    """A rational extended with +infinity.

    The one number type of measure profiles, and the type of the sampling
    rate of a gap-free occurrence and the duration of an unbounded one.
    The arithmetic does not check signs: which values a measure may take
    is the profile's rule (see ``isd.dynamics.MeasureProfile``).  Finite
    instances compare, test equal, hash and print like their rationals.
    """

    __slots__ = ("value",)

    def __init__(self, value: Fraction | None):
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("ExtendedRate is immutable")

    @classmethod
    def finite(cls, q: Rational) -> "ExtendedRate":
        return cls(as_fraction(q))

    @classmethod
    def infinite(cls) -> "ExtendedRate":
        return cls(None)

    @classmethod
    def of(cls, x: "Rational | ExtendedRate") -> "ExtendedRate":
        """``x`` itself if it is an ExtendedRate, else its finite rate."""
        return x if isinstance(x, ExtendedRate) else cls.finite(x)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _coerce(self, other):
        if isinstance(other, ExtendedRate):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtendedRate.finite(Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __hash__(self):
        # a finite rate equals its rational, so it must hash like it
        return hash(self.value)

    def plus(self, q: Rational) -> "ExtendedRate":
        """Add a rational; infinity absorbs it."""
        if self.value is None:
            return self
        return ExtendedRate(self.value + as_fraction(q))

    def scaled(self, k: Rational) -> "ExtendedRate":
        """Multiply by a factor ``k >= 0``; 0 * inf = 0 by convention."""
        k = as_fraction(k)
        if self.value is None:
            return self if k != 0 else ExtendedRate.finite(0)
        return ExtendedRate(self.value * k)

    def clamped(self, cap: "ExtendedRate") -> "ExtendedRate":
        return self if self <= cap else cap

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return f"ExtendedRate({self})"


def _weight(w, what: str, *key) -> Fraction:
    """The weight ``w`` as a Fraction.  A bool, a type other than a
    rational or a string Fraction cannot read is refused with
    MeasureInputError, naming ``what.format(*key)``: only a refusal
    formats it."""
    if isinstance(w, bool):
        raise MeasureInputError(f"{what.format(*key)} must be a rational, not {w!r}")
    try:
        return as_fraction(w)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise MeasureInputError(f"bad {what.format(*key)}: {w!r} ({e})") from None


@dataclass(frozen=True)
class MeasureAssignment:
    """A finite measure on entities: explicit weights with a default for
    everything else.  The counting measure is the all-ones default."""

    name: str
    weights: Mapping[EntityId, Fraction] = field(default_factory=dict)
    default_weight: Fraction = Fraction(1)

    def __post_init__(self):
        clean = {}
        for e, w in dict(self.weights).items():
            if not isinstance(e, EntityId):
                raise MeasureInputError(f"weight keys must be entities, not {e!r}")
            w = _weight(w, "weight for {.id}", e)
            if w < 0:
                raise MeasureInputError(f"negative weight for {e.id}")
            clean[e] = w
        object.__setattr__(self, "weights", clean)
        default = _weight(self.default_weight, "default weight")
        if default < 0:
            raise MeasureInputError("negative default weight")
        object.__setattr__(self, "default_weight", default)

    @classmethod
    def counting(cls, name: str = "counting") -> "MeasureAssignment":
        return cls(name)

    def measure_of(self, entities: Iterable[EntityId]) -> Fraction:
        return exact_sum([self.weights.get(e, self.default_weight) for e in entities])


@dataclass(frozen=True)
class AtomWeighting:
    """Weights over atom positions (canonical atom order); the counting
    mode weighs every atom 1."""

    mode: str = "counting"
    weights: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("counting", "explicit"):
            raise ValueError(f"unknown atom weighting mode: {self.mode!r}")
        clean = {}
        for i, w in dict(self.weights).items():
            # int(i) would let 0.5 overwrite 0, and move 1.7 and True to 1
            if not isinstance(i, int) or isinstance(i, bool):
                raise MeasureInputError(f"atom index must be an integer, not {i!r}")
            w = _weight(w, "weight of atom {}", i)
            if w <= 0:
                raise MeasureInputError("explicit atom weights must be positive")
            clean[i] = w
        object.__setattr__(self, "weights", clean)

    @classmethod
    def counting(cls) -> "AtomWeighting":
        return cls("counting")

    @classmethod
    def explicit(cls, weights: Mapping[int, Rational]) -> "AtomWeighting":
        return cls("explicit", dict(weights))

    def weight(self, index: int) -> Fraction:
        if self.mode == "counting":
            return Fraction(1)
        try:
            return self.weights[index]
        except KeyError:
            raise MeasureInputError(f"no weight for atom index {index}") from None


@dataclass(frozen=True)
class Relation:
    """A named binary relation over concrete elements, stored as ordered
    pairs.  ``declared_equivalence`` is the author's claim; equivalence
    is still checked against the element set it is used on."""

    name: str
    pairs: frozenset[tuple[Element, Element]]
    declared_equivalence: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(tuple(p) for p in self.pairs))

    def classes_over(self, elements: Iterable[Element]) -> list[frozenset]:
        """Partition ``elements`` by the reflexive-symmetric-transitive
        closure of the pairs restricted to them."""
        elems = list(elements)
        index = {e: i for i, e in enumerate(elems)}
        parent = list(range(len(elems)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in self.pairs:
            if a in index and b in index:
                ra, rb = find(index[a]), find(index[b])
                if ra != rb:
                    parent[ra] = rb
        groups: dict[int, set] = {}
        for e, i in index.items():
            groups.setdefault(find(i), set()).add(e)
        return [frozenset(g) for g in groups.values()]

    def is_equivalence_over(self, elements: Iterable[Element]) -> bool:
        """Exactly the pairs of some partition of ``elements``: reflexive
        on all of them, symmetric, and transitive (closure adds nothing)."""
        elems = set(elements)
        for a, b in self.pairs:
            if a not in elems or b not in elems:
                return False
        # the pairs lie inside the closure's classes, which hold sum |c|^2
        # pairs, so the two sets are equal exactly when their sizes are
        return len(self.pairs) == sum(len(c) ** 2 for c in self.classes_over(elems))


# -- the eleven measures -----------------------------------------------------


def volume(info: InformationLike, sigma: MeasureAssignment) -> Fraction:
    """sigma-measure of the carrier."""
    require_valid(info)
    return sigma.measure_of(info.carrier)


def _atom_mean(
    info: InformationLike,
    mu: AtomWeighting | None,
    what: str,
    term: Callable[[Element, Element], tuple[int, int]],
) -> Fraction:
    """The mu-weighted mean of ``term(state, reflection)`` over the atoms
    (mapping pairs) of ``info``.  Each term is an integer pair (n, d), the
    rational n/d.  Each atom's weight is read before its term, atom by
    atom, so the first failure in atom order is the one raised.  The
    weighted terms are added as integers over one common denominator and
    a single Fraction is built at the end.  The total weight is positive:
    counting weighs 1 and explicit weights are positive."""
    require_valid(info)
    mapping = info.mapping
    if not mapping:
        raise EmptyInformationError(f"{what} needs at least one atom")
    if mu is None or mu.mode == "counting":
        num, den = exact_pair_sum([term(s, r) for s, r in mapping])
        return Fraction(num, den * len(mapping))
    weights, terms = [], []
    for i, (s, r) in enumerate(mapping):
        w = mu.weight(i)
        weights.append(w)
        n, d = term(s, r)
        terms.append((w.numerator * n, w.denominator * d))
    num, den = exact_pair_sum(terms)
    total = exact_sum(weights)
    return Fraction(num * total.denominator, den * total.numerator)


def _lag(state: Element, reflection: Element) -> tuple[int, int]:
    if state.at.is_unbounded:
        return 0, 1
    if reflection.at.is_unbounded:
        raise UnboundedTimeError("reflection time is unbounded over a bounded occurrence")
    return reflection.at.sup_after(state.at)


def delay(info: InformationLike, mu: AtomWeighting | None = None) -> Fraction:
    """Weighted mean, over atoms, of reflection-time sup minus
    occurrence-time sup.  Negative values mean the reflection runs ahead
    of the fact (a prediction).  An atom whose occurrence is unbounded
    contributes zero; an unbounded reflection time over a bounded
    occurrence has no finite convention and is an error."""
    return _atom_mean(info, mu, "delay", _lag)


def scope(info: InformationLike, sigma: MeasureAssignment) -> Fraction:
    """sigma-measure of the ontology."""
    require_valid(info)
    return sigma.measure_of(info.ontology)


def granularity(
    info: InformationLike,
    sigma: MeasureAssignment,
    mu: AtomWeighting | None = None,
) -> Fraction:
    """Weighted mean, over atoms, of the sigma-measure of each atom's
    subject: how coarse the average described unit is."""
    def size(state: Element, _) -> tuple[int, int]:
        m = sigma.measure_of(state.entities)
        return m.numerator, m.denominator

    return _atom_mean(info, mu, "granularity", size)


def variety(info: InformationLike, relation: Relation) -> int:
    """Number of equivalence classes the relation induces on the states."""
    require_valid(info)
    if not relation.is_equivalence_over(info.states):
        raise NotEquivalenceError(
            f"relation {relation.name!r} is not an equivalence over the states"
        )
    return len(relation.classes_over(info.states))


def transport_relation(info: InformationLike, relation: Relation) -> Relation:
    """Push a relation on states through the mapping onto reflections.
    Needs reducibility so the transport is faithful in both directions."""
    if not is_reducible(info):
        raise NonInvertibleError("relation transport needs a reducible information")
    m = info.map
    pairs = frozenset((m[a], m[b]) for a, b in relation.pairs)
    return Relation(relation.name, pairs, relation.declared_equivalence)


def induce_relation(info: InformationLike, relation: Relation) -> Relation:
    """Transport an equivalence on states to the reflections.  The result
    is again an equivalence with the same number of classes."""
    if not relation.is_equivalence_over(info.states):
        raise NotEquivalenceError(
            f"relation {relation.name!r} is not an equivalence over the states"
        )
    return transport_relation(info, relation)


def duration(info: InformationLike) -> ExtendedRate:
    """Width of the occurrence hull: sup minus inf, infinite when the
    occurrence is unbounded above."""
    require_valid(info)
    occ = info.occurrence
    if occ.is_unbounded:
        return ExtendedRate.infinite()
    return ExtendedRate.finite(occ.sup - occ.inf)


def sampling_rate(info: InformationLike) -> ExtendedRate:
    """Gap count divided by total gap length over the occurrence hull.

    Equally spaced samples with gap g measure exactly 1/g; an occurrence
    with no gaps (one connected component) is continuous sampling and
    measures infinite.
    """
    require_valid(info)
    gaps = info.occurrence.hull_gaps()  # in normal form, every gap is wider than 0
    if not gaps:
        return ExtendedRate.infinite()
    return ExtendedRate.finite(Fraction(len(gaps)) / exact_sum([hi - lo for lo, hi in gaps]))


def aggregation(
    info: InformationLike,
    relations: Sequence[Relation],
    mode: str = "instances",
) -> Fraction:
    """Relation instances per state: the total count of distinct labeled
    tuples across the given relations, divided by the number of states.
    ``mode="types"`` counts each relation once instead."""
    require_valid(info)
    if not info.states:
        raise EmptyInformationError("aggregation needs at least one state")
    if mode == "instances":
        count = sum(len(r.pairs) for r in relations)
    elif mode == "types":
        count = len(relations)
    else:
        raise ValueError(f"unknown aggregation mode: {mode!r}")
    return Fraction(count, len(info.states))


def coverage(
    base: Information,
    copies: Sequence[Information],
    sigma: MeasureAssignment,
    target: Iterable[EntityId],
    *,
    allow_non_copies: bool = False,
) -> Fraction:
    """Summed carrier measure of the base and its copies, relative to a
    target entity set.  More copies on disjoint carriers mean the same
    content reaches more of the target; the ratio may exceed 1 when
    carriers overlap or the target is narrow."""
    require_valid(base)
    target = frozenset(target)
    denom = sigma.measure_of(target)
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
    return exact_sum([sigma.measure_of(m.carrier) for m in members]) / denom


# -- metrics -----------------------------------------------------------------

MISMATCH_COMPONENTS = COMPONENTS


@dataclass(frozen=True)
class Metric:
    """How far apart two things are, and in what units.

    kinds: ``symmetric_difference_count`` and ``jaccard_distance`` compare
    element sets; ``euclidean_on_values`` compares numeric values aligned
    through the mapping; ``weighted_product`` sums per-component set
    distances of the six components with the given weights (default 1).
    """

    kind: str
    component_weights: Mapping[str, Fraction] = field(default_factory=dict)

    _KINDS = (
        "symmetric_difference_count",
        "jaccard_distance",
        "euclidean_on_values",
        "weighted_product",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown metric kind: {self.kind!r}")
        clean = {}
        for k, w in dict(self.component_weights).items():
            if k not in MISMATCH_COMPONENTS:
                raise ValueError(f"unknown mismatch component: {k!r}")
            w = _weight(w, "weight of {!r}", k)
            if w < 0:
                raise MeasureInputError("component weights must be nonnegative")
            clean[k] = w
        object.__setattr__(self, "component_weights", clean)


def distortion(
    info: InformationLike,
    reflection_map: Mapping[Element, Element],
    metric: Metric,
) -> Fraction | float:
    """Distance between the true states and the states estimated from the
    reflections.  ``reflection_map`` must assign an estimate to every
    reflection; the exact inverse of a reducible information gives
    distance zero under every metric kind."""
    require_valid(info)
    missing = [r for r in info.reflections if r not in reflection_map]
    if missing:
        first = min(missing, key=Element.sort_key)
        raise IncompleteReflectionError(f"no estimate for reflection {first}")
    if metric.kind in ("symmetric_difference_count", "jaccard_distance"):
        estimated = frozenset(reflection_map[r] for r in info.reflections)
        sym = len(info.states ^ estimated)
        if metric.kind == "symmetric_difference_count":
            return Fraction(sym)
        union = len(info.states | estimated)
        return Fraction(sym, union) if union else Fraction(0)
    if metric.kind == "euclidean_on_values":
        # each (x - y)**2 as the integer pair ((xn yd - yn xd)**2, (xd yd)**2),
        # read from the values' terms: two scalars' straight from their slot
        squares = []
        for s, r in info.mapping:
            x, y = s.value, reflection_map[r].value
            xt, yt = x._t, y._t
            if x.tag == y.tag == "scalar" and len(xt) == 2 == len(yt):
                (xn, xd), (yn, yd) = xt, yt
                squares.append(((xn * yd - yn * xd) ** 2, (xd * yd) ** 2))
                continue
            if len(x.numeric_terms()) != len(y.numeric_terms()):
                raise MeasureInputError(
                    "state and estimate values have different numeric shapes"
                )
            for (xn, xd), (yn, yd) in zip(x._integer_terms(), y._integer_terms()):
                squares.append(((xn * yd - yn * xd) ** 2, (xd * yd) ** 2))
        return exact_or_float_sqrt(Fraction(*exact_pair_sum(squares)))
    raise ValueError(f"metric kind {metric.kind!r} does not apply to distortion")


# an infinite distance as an integer pair: n * 0 < 1 * d for every finite
# n/d, so cross-multiplied comparisons order it above them all
_INFINITE_PAIR = (1, 0)


class _MismatchPlan:
    """The ``weighted_product`` distance from one information, read once
    for any number of comparisons.  Building it checks the metric and the
    information.  Each weighted set component is kept as ``(name, scale,
    its frozenset)``, its weight being ``scale / den`` over the common
    denominator ``den`` of the set weights, and each weighted time
    component as ``(name, wn, wd, its TimeSet)``.  A missing weight is 1;
    a zero weight drops its component.  A plan lives for one call, so
    nothing it holds outlives a request."""

    __slots__ = ("den", "sets", "times")

    def __init__(self, info: InformationLike, metric: Metric):
        if metric.kind != "weighted_product":
            raise ValueError("mismatch requires a weighted_product metric")
        require_valid(info)
        weights = metric.component_weights
        sets, self.times = [], []
        for name in MISMATCH_COMPONENTS:
            w = weights.get(name)
            wn, wd = (1, 1) if w is None else (w.numerator, w.denominator)
            if not wn:
                continue
            a = getattr(info, name)
            if isinstance(a, TimeSet):
                self.times.append((name, wn, wd, a))
            else:
                sets.append((name, wn, wd, a))
        self.den = den = lcm(*[wd for _, _, wd, _ in sets])
        self.sets = [(name, wn * (den // wd), a) for name, wn, wd, a in sets]

    def set_part(self, other: InformationLike) -> int:
        """Check ``other``, then return its weighted set-component distance
        from the plan's information as an integer over ``den``.  Each
        ``len(a ^ b)`` is counted as ``len(a) + len(b) - 2 * len(a & b)``,
        so no difference set is built.  Every weight and distance is >= 0,
        so this bounds the whole distance from below."""
        require_valid(other)
        total = 0
        for name, scale, a in self.sets:
            b = getattr(other, name)
            total += scale * (len(a) + len(b) - 2 * len(a & b))
        return total

    def whole(self, low: int, other: InformationLike) -> tuple[int, int]:
        """The whole distance to ``other``, whose set part is ``low``: that
        part plus each weighted time distance, read from the sweep's integer
        length and isolated-point count over its common denominator, as one
        integer pair; _INFINITE_PAIR when a difference is unbounded."""
        terms = [(low, self.den)]
        for name, wn, wd, a in self.times:
            length, den, isolated = symmetric_difference_keys(a, getattr(other, name))
            if length is None:
                return _INFINITE_PAIR
            terms.append((wn * (length + isolated * den), wd * den))
        return exact_pair_sum(terms)

    def distance(self, other: InformationLike) -> Fraction | float:
        """``mismatch`` of the plan's information and ``other``."""
        n, d = self.whole(self.set_part(other), other)
        return Fraction(n, d) if d else inf


def _mismatch_set_part(info: InformationLike, target: InformationLike, metric: Metric):
    """Step one of ``mismatch``, through its plan: check the metric and both
    sides, then the weighted set-component distances as the integer pair
    (numerator, denominator), an exact lower bound of the whole distance,
    and the ``(wn, wd, a, b)`` of each weighted time component."""
    plan = _MismatchPlan(info, metric)
    low = plan.set_part(target)
    times = [(wn, wd, a, getattr(target, name)) for name, wn, wd, a in plan.times]
    return (low, plan.den), times


def mismatch(info: InformationLike, target: InformationLike, metric: Metric) -> Fraction | float:
    """Weighted sum of the six per-component distances between two
    informations.  Zero exactly when all six components coincide; set
    components use symmetric-difference counts, time components use
    symmetric-difference length plus isolated-point count.

    The sum is taken by a ``_MismatchPlan`` of ``info``: set part first,
    which is an exact lower bound of the whole, then the two time sweeps;
    ``min_mismatch_search`` runs the same two steps with one plan of its
    target and sweeps only where the bound cannot settle its answer.  The
    terms are integer pairs added by ``exact_pair_sum``, and one Fraction
    is built; an unbounded time difference gives ``math.inf``."""
    return _MismatchPlan(info, metric).distance(target)
