"""Entity identifiers and the tagged values states can take."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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


class Value:
    """Immutable tagged value: symbol, scalar, vector, or record.

    Scalars and vector entries are exact rationals; records map string
    keys to nested Values and are stored as sorted pairs so equality and
    hashing are structural.  The hash is computed once, on construction: a
    scalar hashes ``(tag, n, d)`` and a vector ``(tag, ((n, d), ...))``, its
    numbers' integer terms, which skips the modular inverse that hashing a
    Fraction computes; a symbol or record hashes ``(tag, body)``.
    """

    __slots__ = ("tag", "body", "_h")

    def __init__(self, tag: str, body):
        if tag not in _TAG_ORDER:
            raise ValueError(f"unknown value tag: {tag!r}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "body", body)
        if tag == "scalar":
            h = hash((tag, *_hash_terms(body)))
        elif tag == "vector":
            h = hash((tag, tuple(map(_hash_terms, body))))
        else:
            h = hash((tag, body))
        object.__setattr__(self, "_h", h)

    def __setattr__(self, *_):
        raise AttributeError("Value is immutable")

    @classmethod
    def symbol(cls, token: str) -> Value:
        if not isinstance(token, str) or not token:
            raise ValueError("symbol token must be a nonempty string")
        return cls("symbol", token)

    @classmethod
    def scalar(cls, q: Rational) -> Value:
        """``Value("scalar", as_fraction(q))``, built without ``__init__``'s
        tag dispatch; the hash is the one it computes."""
        q = as_fraction(q)
        v = object.__new__(cls)
        object.__setattr__(v, "tag", "scalar")
        object.__setattr__(v, "body", q)
        object.__setattr__(v, "_h", hash(("scalar", q.numerator, q.denominator)))
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
        if self.tag == "scalar":
            return (self.body,)
        if self.tag == "vector":
            return self.body
        if self.tag == "record":
            out = []
            for _, v in self.body:
                out.extend(v.numeric_components())
            return tuple(out)
        raise MeasureInputError(f"symbol value {self.body!r} has no numeric components")

    def sort_key(self):
        if self.tag == "symbol":
            return (0, self.body)
        if self.tag == "scalar":
            return (1, self.body)
        if self.tag == "vector":
            return (2, self.body)
        return (3, tuple((k, v.sort_key()) for k, v in self.body))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Value) or self._h != other._h or self.tag != other.tag:
            return False
        a, b = self.body, other.body
        if self.tag == "scalar":
            # Fractions are in lowest terms, so equal ones have equal terms;
            # this skips Fraction.__eq__ and its isinstance checks
            try:
                return a.numerator == b.numerator and a.denominator == b.denominator
            except AttributeError:  # a body built without Value.scalar
                return a == b
        return a == b

    def __hash__(self):
        return self._h

    def __repr__(self):
        if self.tag == "record":
            inner = ", ".join(f"{k}={v!r}" for k, v in self.body)
            return f"Value.record({inner})"
        return f"Value.{self.tag}({self.body!r})"
