"""Entity identifiers and the tagged values states can take."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Mapping

from .errors import MeasureInputError
from .timeset import Rational, as_fraction


class Realm(Enum):
    OBJECTIVE = "objective"
    SUBJECTIVE = "subjective"


@dataclass(frozen=True, slots=True)
class EntityId:
    """A named thing in the world; realm records whether it is part of
    objective reality or of some subject's awareness.  Carriers must be
    objective, everything else may live in either realm."""

    id: str
    realm: Realm = Realm.OBJECTIVE

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"entity id must be a str, got {self.id!r}")
        if not isinstance(self.realm, Realm):
            raise TypeError(f"entity realm must be a Realm, got {self.realm!r}")
        if not self.id:
            raise ValueError("entity id must be nonempty")

    # Written by hand, not generated: identity first, then the id, then the
    # realm by identity (enum members are singletons).  The hash is the one
    # the dataclass would generate, so set order is unchanged.
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not EntityId:
            return NotImplemented
        return self.id == other.id and self.realm is other.realm

    def __hash__(self):
        return hash((self.id, self.realm))

    @property
    def is_objective(self) -> bool:
        return self.realm is Realm.OBJECTIVE

    def sort_key(self):
        return (self.id, self.realm.value)


def objective(id: str) -> EntityId:
    return EntityId(id, Realm.OBJECTIVE)


def subjective(id: str) -> EntityId:
    return EntityId(id, Realm.SUBJECTIVE)


_TAG_ORDER = {"symbol": 0, "scalar": 1, "vector": 2, "record": 3}


def _hash_terms(q) -> tuple:
    """A numeric body's (numerator, denominator) in lowest terms, which
    equal numbers share: an int or Fraction holds them, and a float gives
    them by ``as_integer_ratio``.  Anything else, such as a non-finite
    float, is returned as ``(q,)``."""
    try:
        return q.numerator, q.denominator
    except AttributeError:
        pass
    try:
        return q.as_integer_ratio()
    except (AttributeError, OverflowError, ValueError):
        return (q,)


def _view(tag: str, terms):
    """The body of a number built from its terms: a scalar's Fraction, or
    a vector's tuple of them."""
    if tag == "scalar":
        return Fraction(*terms)
    return tuple([Fraction(n, d) for n, d in terms])


class Value:
    """Immutable tagged value: symbol, scalar, vector, or record.

    Scalars and vector entries are exact rationals; records map string
    keys to nested Values and are stored as sorted pairs so equality and
    hashing are structural.  A number is stored as its integer terms: a
    scalar as ``(n, d)`` in lowest terms with d > 0, a vector as a tuple of
    those.  Its ``body``, a Fraction or a tuple of them, is a view built on
    first read, unless the constructor was given one, which it keeps.  The
    hash is computed once, on construction: a scalar hashes ``(tag, n, d)``
    and a vector ``(tag, ((n, d), ...))``, which skips the modular inverse
    that hashing a Fraction computes; a symbol or record hashes ``(tag,
    body)``.  Equality, ``sort_key`` and ``repr`` read the terms, so none of
    them builds a view.
    """

    __slots__ = ("tag", "_t", "_h", "_b")

    def __init__(self, tag: str, body):
        if tag not in _TAG_ORDER:
            raise ValueError(f"unknown value tag: {tag!r}")
        if tag == "scalar":
            terms = _hash_terms(body)
        elif tag == "vector":
            terms = tuple(map(_hash_terms, body))
        else:
            terms = body
        self._keep(tag, terms)
        _set_b(self, body)

    @classmethod
    def _from_terms(cls, tag: str, terms) -> Value:
        """The trusted constructor of a number: ``terms`` is a scalar's
        ``(n, d)`` in lowest terms with d > 0, or a vector's tuple of them,
        kept as given.  The body is a view, built on first read."""
        v = object.__new__(cls)
        v._keep(tag, terms)
        return v

    def _keep(self, tag, terms):
        _set_tag(self, tag)
        _set_t(self, terms)
        _set_h(self, hash((tag, *terms)) if tag == "scalar" else hash((tag, terms)))

    def __setattr__(self, *_):
        raise AttributeError("Value is immutable")

    @property
    def body(self):
        """A symbol's string, a record's sorted pairs, or a number as a
        Fraction or a tuple of them, built from its terms on first read."""
        try:
            return self._b
        except AttributeError:
            body = _view(self.tag, self._t)
            _set_b(self, body)
            return body

    @classmethod
    def symbol(cls, token: str) -> Value:
        if not isinstance(token, str) or not token:
            raise ValueError("symbol token must be a nonempty string")
        return cls("symbol", token)

    @classmethod
    def scalar(cls, q: Rational) -> Value:
        """``Value("scalar", as_fraction(q))``: the terms of ``q``, with
        ``q`` kept as the body."""
        q = as_fraction(q)
        v = cls._from_terms("scalar", (q.numerator, q.denominator))
        _set_b(v, q)
        return v

    @classmethod
    def vector(cls, qs: Iterable[Rational]) -> Value:
        return cls("vector", tuple(as_fraction(q) for q in qs))

    @classmethod
    def record(cls, entries: Mapping[str, "Value"]) -> Value:
        if not all(isinstance(k, str) for k in entries):
            raise TypeError("record keys must be strings")
        items = []
        for k in sorted(entries):
            v = entries[k]
            if not isinstance(v, Value):
                raise TypeError("record entries must be Values")
            items.append((k, v))
        return cls("record", tuple(items))

    def numeric_components(self) -> tuple[Fraction, ...]:
        """Flatten to rational coordinates; errors on symbolic content."""
        return self._numbers("body")

    def numeric_terms(self) -> tuple[tuple[int, int], ...]:
        """The coordinates ``numeric_components`` lists, each as its terms
        ``(n, d)``, read with no view built."""
        return self._numbers("_t")

    def _integer_terms(self) -> tuple[tuple[int, int], ...]:
        """``numeric_terms()``, refusing a number with no integer terms,
        such as an infinity or a NaN, with MeasureInputError naming it."""
        terms = self.numeric_terms()
        for t in terms:
            if len(t) != 2:
                raise MeasureInputError(
                    f"value {self!r} holds {t[0]!r}, which has no integer terms"
                )
        return terms

    def _numbers(self, field: str) -> tuple:
        """The numbers of this value's scalars and vectors, in order, as
        each holds them in ``field``: ``body`` or the terms ``_t``."""
        if self.tag == "scalar":
            return (getattr(self, field),)
        if self.tag == "vector":
            return getattr(self, field)
        if self.tag == "record":
            return tuple([q for _, v in self._t for q in v._numbers(field)])
        raise MeasureInputError(f"symbol value {self.body!r} has no numeric components")

    def sort_key(self):
        return _order_key(self)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Value) or self._h != other._h or self.tag != other.tag:
            return False
        a, b = self._t, other._t
        if self.tag == "scalar" and not len(a) == len(b) == 2:
            # a body with no integer terms, such as a NaN, compares as itself
            return self.body == other.body
        return a == b

    def __hash__(self):
        return self._h

    def __repr__(self):
        if self.tag == "record":
            inner = ", ".join(f"{k}={v!r}" for k, v in self._t)
            return f"Value.record({inner})"
        try:
            text = repr(self._b)
        except AttributeError:  # a number built from its terms
            if self.tag == "scalar":
                text = "Fraction({}, {})".format(*self._t)
            else:
                items = [f"Fraction({n}, {d})" for n, d in self._t]
                text = "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
        return f"Value.{self.tag}({text})"


# the slots' own setters, which write past ``Value.__setattr__``'s refusal
# with no lookup by name
_set_tag, _set_t, _set_h, _set_b = (
    getattr(Value, name).__set__ for name in ("tag", "_t", "_h", "_b")
)


def _compare(a: Value, b: Value) -> int:
    """-1, 0 or 1 as ``a`` comes before, with or after ``b`` in the
    canonical order.  It is the order of ``(rank of the tag, body)`` over
    Fractions: symbols by their string, numbers by value, each vector's
    numbers in turn with a shorter vector first, and records pair by pair,
    key then value.  Two numbers' terms are cross-multiplied."""
    x, y = _TAG_ORDER[a.tag], _TAG_ORDER[b.tag]
    if x == y == 0:
        x, y = a._t, b._t
    elif x == y == 3:
        for (j, v), (k, w) in zip(a._t, b._t):
            c = _compare(v, w) if j == k else (j > k) - (j < k)
            if c:
                return c
        x, y = len(a._t), len(b._t)
    elif x == y:
        s, t = a.numeric_terms(), b.numeric_terms()
        for p, q in zip(s, t):
            if len(p) == 2 == len(q):
                x, y = p[0] * q[1], q[0] * p[1]
            else:  # a number with no integer terms, such as a NaN, as itself
                x, y = [(u[0] if len(u) == 1 else Fraction(*u),) for u in (p, q)]
            if x != y:
                return (x > y) - (x < y)
        x, y = len(s), len(t)
    return (x > y) - (x < y)


_order_key = cmp_to_key(_compare)
