"""Model documents: the on-disk JSON form of everything modelable here.

A document declares entities, informations, entity measures, relations
(bound to an information's states by index), system configurations, and
serial chains.  Rationals are exact "p/q" strings; times are interval
lists where a null upper endpoint marks a right-unbounded tail.  Emission
is canonical (sorted, stable), so load -> emit -> load is idempotent and
canonical files round-trip byte for byte.

The writer owns the schema: ``emit_document`` writes indent-2 JSON
directly, each state and reflection straight from its ``Element``, and
``document_to_json`` is that text parsed.  While one load runs, each
distinct rational string is parsed once, to its integer terms: a time
set's keys are built from its endpoints' terms, a scalar or vector value
keeps its numbers' terms, and a weight or amount is a Fraction made from
them.  Each value is written back from its terms.  A rational with a
term too long to write back is refused: on loading, a huge exponent
before its power of ten is expanded, and on emission, naming the entry
that holds it.
"""

from __future__ import annotations

import fractions
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd
from operator import attrgetter
from typing import Any, NamedTuple, NoReturn

from .dynamics import (
    MeasureKind,
    MeasureTransform,
    Shape,
    StageKind,
    StageSpec,
    SystemConfig,
)
from .errors import (
    DocumentInvariantError,
    DocumentParseError,
    UnresolvedReferenceError,
)
from .measures import ExtendedRate, MeasureAssignment, Relation
from .model import Element, Information, SerialChain, Violation, _checked
from .timeset import TimeSet, _keys_of_terms
from .values import EntityId, Realm, Value

FORMAT_VERSION = "1"


# -- typed access ------------------------------------------------------------
#
# Every reader takes a location ``where``: the source name, or a tuple of
# location parts (strings, list indices, nested locations).  Tuples are
# cheap to build and are rendered only when a check fails, so loading a
# valid document formats no messages.

_JSON_TYPES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}
_REQUIRED = object()


def _loc(where) -> str:
    if type(where) is str:
        return where
    return "".join(f"[{part}]" if type(part) is int else _loc(part) for part in where)


def _fail(where, problem: str, error: type = DocumentParseError) -> NoReturn:
    raise error(f"{_loc(where)}: {problem}") from None


def _typed(value, kind: type, where):
    """``value`` when it is exactly a JSON ``kind``: ``true`` is no integer."""
    if type(value) is not kind:
        _fail(where, f"must be {_JSON_TYPES[kind]}, not {_JSON_TYPES[type(value)]}")
    return value


def _field(obj: dict, key: str, kind: type, where, default=_REQUIRED):
    """``obj[key]`` as a JSON ``kind``; ``default`` when absent, if given."""
    value = obj.get(key, default)
    if value is _REQUIRED:
        _fail(where, f"missing {key!r}")
    return _typed(value, kind, (where, ": ", key))


def _enum(cls, value, where, what: str):
    try:
        return cls(value)
    except ValueError:
        _fail(where, f"unknown {what} {value!r}")


def _index_pairs(obj: dict, key: str, left: list, right: list, where) -> list:
    """``obj[key]`` as ``[i, j]`` index pairs, resolved to ``(left[i], right[j])``."""
    out = []
    for n, entry in enumerate(_field(obj, key, list, where)):
        if (
            type(entry) is not list
            or len(entry) != 2
            or type(entry[0]) is not int
            or type(entry[1]) is not int
            or not 0 <= entry[0] < len(left)
            or not 0 <= entry[1] < len(right)
        ):
            _fail(
                where,
                f"{key} entry {n} must be [i, j] with 0 <= i < {len(left)} "
                f"and 0 <= j < {len(right)}",
            )
        out.append((left[entry[0]], right[entry[1]]))
    return out


# -- primitive codecs --------------------------------------------------------


# The spellings read by ``int``, which include every one emission writes:
# ASCII digits with an optional minus sign, over ASCII digits or alone.
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _too_long(s: str, where) -> NoReturn:
    limit = sys.get_int_max_str_digits()
    _fail(where, f"bad rational {s!r} (a term has more than {limit} digits)")


# ``Fraction``'s own grammar, a private name of ``fractions``: without it, or
# without the groups read below, ``_exponent_terms`` leaves every string to
# ``Fraction(s)``.
_RATIONAL_FORMAT = getattr(fractions, "_RATIONAL_FORMAT", None)
if not {"num", "decimal", "exp"} <= set(getattr(_RATIONAL_FORMAT, "groupindex", ())):
    _RATIONAL_FORMAT = None


def _exponent_terms(s: str, where) -> tuple[int, int] | None:
    """Settle a decimal string with an exponent before ``Fraction(s)``
    expands its power of ten: (0, 1) for a zero mantissa, a refusal when a
    term of the value must have more digits than ``str`` may write, and
    None otherwise, where ``Fraction(s)`` computes no power of ten longer
    than about three times that limit.  The parts are read by ``Fraction``'s
    own grammar, this Python's ``_RATIONAL_FORMAT``; a string it refuses, or
    one with a part too long for ``int``, is left to it, so that it refuses
    in its own words.  So is every string when that grammar or the int-string
    limit is missing."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    m = _RATIONAL_FORMAT.match(s) if limit and _RATIONAL_FORMAT else None
    if m is None or not m["exp"]:
        return None
    num, dec = m["num"] or "0", (m["decimal"] or "").replace("_", "")
    try:
        whole, part, exp = int(num), int(dec or "0"), int(m["exp"])
    except ValueError:
        return None
    if not (whole or part):
        return 0, 1
    # the value is M * 10**e for an integer M, 1 <= M < 10**digits: with
    # e >= 0 its numerator M * 10**e has more than e digits, and with e < 0
    # its denominator, 10**-e over a divisor of M, exceeds 10**(-e - digits)
    e = exp - len(dec)
    digits = len(num.replace("_", "")) + len(dec)
    if e >= limit or -e - digits >= limit:
        _too_long(s, where)
    return None


def _terms_from_json(s: Any, where) -> tuple[int, int]:
    """The rational string ``s`` as (numerator, denominator) in lowest
    terms.  A canonical spelling with a nonzero denominator is read by
    ``int``; any other goes through ``Fraction(s)``, which refuses what is
    no rational in its own words, and then a rational whose terms have more
    digits than ``str`` may write is refused too.  A string with an
    exponent is settled first by ``_exponent_terms`` when it can be, so a
    huge exponent costs no power of ten."""
    m = _CANONICAL.fullmatch(s) if type(s) is str else None
    if m is not None:
        num, den = m.groups()
        try:
            n, d = int(num), int(den) if den else 1
        except ValueError:  # more digits than int conversion allows
            d = 0
        if d:
            g = gcd(n, d)
            return n // g, d // g
    terms = _exponent_terms(_typed(s, str, where), where)
    if terms is not None:
        return terms
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        _fail(where, f"bad rational {s!r} ({e})")
    try:
        str(q)
    except ValueError:
        _too_long(s, where)
    return q.numerator, q.denominator


def _memo_terms(s: Any, where, memo: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """The rational string ``s`` as its lowest terms.  ``memo`` holds the
    strings this load has already parsed; it belongs to one
    ``loads_document`` call."""
    terms = memo.get(s) if type(s) is str else None
    if terms is None:
        terms = memo[s] = _terms_from_json(s, where)
    return terms


def _frac_from_json(s: Any, where, memo) -> Fraction:
    """The rational string ``s``, a weight or an amount, as a Fraction."""
    return Fraction(*_memo_terms(s, where, memo))


def _rate_from_json(s: Any, where, memo):
    if s == "inf":
        return ExtendedRate.infinite()
    return _frac_from_json(s, where, memo)


def _timeset_from_json(obj: dict, key: str, where, memo) -> TimeSet:
    """The time set ``obj[key]``: intervals, the last of which may be a ray.
    Its keys are built from the endpoints' integer terms, with no Fraction."""
    at = (where, ".", key)
    entries = _field(_field(obj, key, dict, where), "intervals", list, at)
    if not entries:
        _fail(at, "intervals must be a nonempty list")
    terms = []
    ray = False
    for i, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != 2:
            _fail(at, f"interval {i} must be a [lo, hi] pair")
        terms.append(_memo_terms(entry[0], (at, ".intervals", i, 0), memo))
        if entry[1] is not None:
            terms.append(_memo_terms(entry[1], (at, ".intervals", i, 1), memo))
        elif i != len(entries) - 1:
            _fail(at, "only the last interval may be unbounded")
        else:
            ray = True
    try:
        return TimeSet._from_keys(*_keys_of_terms(terms, ray))
    except ValueError as e:
        _fail(at, str(e))


def _value_from_json(obj: Any, where, memo) -> Value:
    """The value ``obj``; a scalar or vector is built from its numbers'
    terms, with no Fraction."""
    if type(obj) is not dict or len(obj) != 1:
        _fail(where, "value must be a single-key object")
    (tag, body), = obj.items()
    if tag == "symbol":
        if type(body) is not str or not body:
            _fail(where, "symbol must be a nonempty string")
        return Value.symbol(body)
    if tag == "scalar":
        return Value._from_terms("scalar", _memo_terms(body, where, memo))
    if tag == "vector":
        numbers = _typed(body, list, where)
        return Value._from_terms("vector", tuple([_memo_terms(q, where, memo) for q in numbers]))
    if tag == "record":
        return Value.record(
            {
                k: _value_from_json(inner, (where, ".", k), memo)
                for k, inner in _typed(body, dict, where).items()
            }
        )
    _fail(where, f"unknown value tag {tag!r}")


# -- document dataclasses ----------------------------------------------------


@dataclass(frozen=True)
class BoundRelation:
    """A relation as declared in a document: bound to one information,
    with pairs resolved to that information's state elements."""

    info: str
    relation: Relation


@dataclass(frozen=True)
class NamedChain:
    name: str
    link_names: tuple[str, ...]
    chain: SerialChain


def _lookup(items, what: str, name: str, key=attrgetter("name")):
    for item in items:
        if key(item) == name:
            return item
    raise UnresolvedReferenceError(f"no {what} named {name!r}")


@dataclass(frozen=True)
class ModelDocument:
    format_version: str = FORMAT_VERSION
    entities: tuple[EntityId, ...] = ()
    informations: tuple[Information, ...] = ()
    measures: tuple[MeasureAssignment, ...] = ()
    relations: tuple[BoundRelation, ...] = ()
    systems: tuple[SystemConfig, ...] = ()
    chains: tuple[NamedChain, ...] = ()

    def information(self, name: str) -> Information:
        return _lookup(self.informations, "information", name)

    def measure(self, name: str) -> MeasureAssignment:
        return _lookup(self.measures, "measure", name)

    def bound_relation(self, name: str) -> BoundRelation:
        return _lookup(self.relations, "relation", name, attrgetter("relation.name"))

    def system(self, name: str) -> SystemConfig:
        return _lookup(self.systems, "system", name)

    def chain(self, name: str) -> NamedChain:
        return _lookup(self.chains, "chain", name)


# -- loading ------------------------------------------------------------------


def _entity_list(obj: dict, key: str, table, where) -> frozenset[EntityId]:
    at = (where, ".", key)
    out = []
    for n, eid in enumerate(_field(obj, key, list, where)):
        if _typed(eid, str, (at, n)) not in table:
            _fail(at, f"undeclared entity {eid!r}", UnresolvedReferenceError)
        out.append(table[eid])
    return frozenset(out)


def _element_from_json(obj: Any, table, where, key: str, memo) -> Element:
    """An element whose entities are listed under ``key``: "subject" for a
    state, "carrier_part" for a reflection."""
    entities = _entity_list(_typed(obj, dict, where), key, table, where)
    if not entities:
        _fail((where, ".", key), "must name at least one entity")
    at = _timeset_from_json(obj, "at", where, memo)
    value = _value_from_json(_field(obj, "value", dict, where), (where, ".value"), memo)
    return Element._from_set(entities, at, value)


def _information_from_json(obj: dict, name: str, table, where, memo) -> Information:
    states = [
        _element_from_json(e, table, (where, ".states", i), "subject", memo)
        for i, e in enumerate(_field(obj, "states", list, where))
    ]
    reflections = [
        _element_from_json(e, table, (where, ".reflections", i), "carrier_part", memo)
        for i, e in enumerate(_field(obj, "reflections", list, where))
    ]
    try:
        return Information(
            name,
            _entity_list(obj, "ontology", table, where),
            _timeset_from_json(obj, "occurrence", where, memo),
            frozenset(states),
            _entity_list(obj, "carrier", table, where),
            _timeset_from_json(obj, "reflection_time", where, memo),
            frozenset(reflections),
            _index_pairs(obj, "mapping", states, reflections, where),
        )
    except ValueError as e:  # one state mapped to two reflections
        _fail(where, str(e))


def _named_entries(raw: dict, key: str, noun: str, source: str):
    """Each entry of the collection ``raw[key]`` as (where, name, obj): an
    object whose ``name`` is a nonempty string that no earlier entry of the
    collection has taken."""
    taken = set()
    for i, obj in enumerate(_field(raw, key, list, source, [])):
        where = (source, f": {key}", i)
        name = _field(_typed(obj, dict, where), "name", str, where)
        if not name:
            _fail(where, "name must be nonempty")
        if name in taken:
            _fail(where, f"duplicate {noun} name {name!r}")
        taken.add(name)
        yield where, name, obj


def _information_named(by_name, name: Any, where) -> Information:
    if _typed(name, str, where) not in by_name:
        _fail(where, f"undeclared information {name!r}", UnresolvedReferenceError)
    return by_name[name]


def _transform_from_json(obj: Any, where, memo) -> MeasureTransform:
    kind = _field(_typed(obj, dict, where), "kind", str, where)
    if kind == "identity":
        return MeasureTransform.identity()
    amount = _rate_from_json(_field(obj, "amount", str, where), (where, ".amount"), memo)
    try:
        return MeasureTransform(kind, amount)
    except ValueError as e:
        _fail(where, str(e))


def _system_from_json(obj: dict, name: str, where, memo) -> SystemConfig:
    shape = _enum(Shape, _field(obj, "shape", str, where), where, "shape")
    stages = []
    for i, st in enumerate(_field(obj, "stages", list, where)):
        w = (where, ".stages", i)
        kind = _enum(StageKind, _field(_typed(st, dict, w), "kind", str, w), w, "stage kind")
        transforms = {
            _enum(MeasureKind, mname, w, "measure"): _transform_from_json(
                tobj, (w, ".transforms.", mname), memo
            )
            for mname, tobj in sorted(_field(st, "transforms", dict, w, {}).items())
        }
        stages.append(StageSpec(_field(st, "name", str, w), kind, transforms))
    return SystemConfig(name, tuple(stages), shape)


def _document_from_json(raw: Any, source: str) -> ModelDocument:
    version = _typed(raw, dict, source).get("format_version")
    if version != FORMAT_VERSION:
        _fail(source, f"unsupported format_version {version!r} (expected {FORMAT_VERSION!r})")

    table: dict[str, EntityId] = {}
    for i, ent in enumerate(_field(raw, "entities", list, source, [])):
        w = (source, ": entities", i)
        eid = _field(_typed(ent, dict, w), "id", str, w)
        if not eid or eid in table:
            _fail(w, f"id must be nonempty and unique, got {eid!r}")
        realm = _enum(Realm, _field(ent, "realm", str, w, "objective"), w, "realm")
        table[eid] = EntityId(eid, realm)

    # the memo of this load: every rational string as its integer terms
    memo: dict[str, tuple[int, int]] = {}
    by_name: dict[str, Information] = {}
    for w, name, obj in _named_entries(raw, "informations", "information", source):
        by_name[name] = _information_from_json(obj, name, table, w, memo)

    _require_valid("information", "", [(i.name, _checked(i)) for i in by_name.values()])

    measures = []
    for w, name, obj in _named_entries(raw, "measures", "measure", source):
        weights = {}
        for eid, wt in _field(obj, "weights", dict, w, {}).items():
            if eid not in table:
                _fail(w, f"undeclared entity {eid!r}", UnresolvedReferenceError)
            weights[table[eid]] = _frac_from_json(wt, (w, ".weights.", eid), memo)
        default = _frac_from_json(
            _field(obj, "default_weight", str, w, "1"), (w, ".default_weight"), memo
        )
        try:
            measures.append(MeasureAssignment(name, weights, default))
        except ValueError as e:  # a negative weight
            _fail(w, str(e))

    relations = []
    for w, name, obj in _named_entries(raw, "relations", "relation", source):
        info_name = _field(obj, "info", str, w)
        ordered = _information_named(by_name, info_name, w).sorted_states()
        pairs = frozenset(_index_pairs(obj, "pairs", ordered, ordered, w))
        equivalence = _field(obj, "declared_equivalence", bool, w, False)
        relations.append(BoundRelation(info_name, Relation(name, pairs, equivalence)))

    systems = tuple(
        _system_from_json(obj, name, w, memo)
        for w, name, obj in _named_entries(raw, "systems", "system", source)
    )

    chains = []
    for w, name, obj in _named_entries(raw, "chains", "chain", source):
        names = _field(obj, "links", list, w)
        if not names:
            _fail(w, "links must be a nonempty list")
        links = tuple(
            _information_named(by_name, link, (w, ".links", k)) for k, link in enumerate(names)
        )
        chains.append(NamedChain(name, tuple(names), SerialChain(links)))

    return ModelDocument(
        format_version=version,
        entities=tuple(sorted(table.values(), key=EntityId.sort_key)),
        informations=tuple(by_name.values()),
        measures=tuple(measures),
        relations=tuple(relations),
        systems=systems,
        chains=tuple(chains),
    )


def _require_valid(noun: str, prefix: str, entries) -> None:
    """Raise one DocumentInvariantError listing what is wrong with the
    ``noun`` entries, given as (name, violations) pairs, where violations
    is None for a kind with no checks of its own.  An entry's report is a
    duplicate-name violation when an earlier entry took its name, then its
    own violations, then a name-invalid violation when the name is not a
    nonempty string; an invalid name with no checks of its own is not also
    a duplicate.  Codes begin with ``prefix``.  Reports are keyed by name,
    or by its repr when it is unhashable, and entries of one name share one."""
    reports: dict[Any, list[Violation]] = {}
    for name, own in entries:
        key = name
        try:
            hash(name)
        except TypeError:
            key = repr(name)
        valid = isinstance(name, str) and name
        if key in reports and (valid or own is not None):
            problem = f"another {noun} is named {name!r}"
            reports[key].append(Violation(f"{prefix}duplicate-name", problem))
        report = reports.setdefault(key, [])
        report.extend(own or ())
        if not valid:
            article = "an" if noun[0] in "aeiou" else "a"
            problem = f"{article} {noun}'s name must be a nonempty string, not {name!r}"
            report.append(Violation(f"{prefix}name-invalid", problem))
    bad = {key: report for key, report in reports.items() if report}
    if bad:
        raise DocumentInvariantError(bad)


def loads_document(text: str, source: str = "<string>") -> ModelDocument:
    """Parse and fully check a document: syntax, declared-before-used
    references, and every information invariant (violations aggregated).
    Any malformed input raises a ``DocumentError`` naming its location."""
    try:
        return _document_from_json(json.loads(text), source)
    except json.JSONDecodeError as e:
        raise DocumentParseError(
            f"{source}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise DocumentParseError(f"{source}: nested too deeply to read") from None


def load_document(path: str) -> ModelDocument:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise DocumentParseError(f"cannot read {path}: {e}") from None
    return loads_document(text, source=path)


# -- emission -----------------------------------------------------------------
#
# The tree ``_document_tree`` builds holds each time set as the TimeSet and
# each state or reflection as an ``_ElementNode``, which ``_write_json``
# writes from the objects: the element schema is stated once.


class _ElementNode(NamedTuple):
    """A state or reflection of the tree: its element and the key its
    entities are listed under, "subject" or "carrier_part"."""

    key: str
    element: Element


def _list_text(items: list[str], indent: str) -> str:
    """The JSON list of the JSON texts ``items``, starting on a line
    indented by ``indent`` (a newline and spaces)."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _time_set_text(ts: TimeSet, indent: str) -> str:
    """``ts`` as ``{"intervals": [[lo, hi], ..., [ray, null]]}``."""
    k1, k2, k3 = indent + "  ", indent + "    ", indent + "      "
    pairs, ray = ts.endpoint_texts()
    items = [f'[{k3}"{lo}",{k3}"{hi}"{k2}]' for lo, hi in pairs]
    if ray is not None:
        items.append(f'[{k3}"{ray}",{k3}null{k2}]')
    return "{" + k1 + '"intervals": ' + _list_text(items, k1) + indent + "}"


def _number_text(terms: tuple) -> str:
    """The JSON string of a value's number, from its terms: ``str`` of its
    Fraction."""
    text = str(terms[0]) if terms[1] == 1 else f"{terms[0]}/{terms[1]}"
    return '"' + text + '"'


def _value_text(v: Value, indent: str) -> str:
    """``v`` as the single-key object of its tag: a symbol's string, a
    scalar's rational, a vector's list of rationals, or a record's object of
    values by key.  Numbers are written from their terms."""
    k1 = indent + "  "
    if v.tag == "symbol":
        body = encode_basestring(v.body)
    elif v.tag == "scalar":
        body = _number_text(v.numeric_terms()[0])
    elif v.tag == "vector":
        body = _list_text([_number_text(t) for t in v.numeric_terms()], k1)
    else:
        k2 = k1 + "  "
        entries = [encode_basestring(k) + ": " + _value_text(inner, k2) for k, inner in v.body]
        body = "{" + k2 + ("," + k2).join(entries) + k1 + "}" if entries else "{}"
    return "{" + k1 + '"' + v.tag + '": ' + body + indent + "}"


def _element_text(node: _ElementNode, indent: str) -> str:
    """``node``'s element as its object: the sorted ids of its entities
    under ``node.key``, its time set under "at", its value under "value"."""
    e, k1 = node.element, indent + "  "
    ids = _list_text([encode_basestring(i) for i in sorted([x.id for x in e.entities])], k1)
    return (
        "{" + k1 + '"' + node.key + '": ' + ids
        + "," + k1 + '"at": ' + _time_set_text(e.at, k1)
        + "," + k1 + '"value": ' + _value_text(e.value, k1)
        + indent + "}"
    )


def _information_tree(info: Information, s_index: dict[Element, int]) -> dict:
    reflections = info.sorted_reflections()
    r_index = {r: i for i, r in enumerate(reflections)}
    # a valid mapping lists the states in s_index order, once each
    mapping = [[i, r_index[r]] for i, (_, r) in enumerate(info.mapping)]
    return {
        "name": info.name,
        "ontology": sorted(e.id for e in info.ontology),
        "occurrence": info.occurrence,
        "states": [_ElementNode("subject", s) for s in s_index],
        "carrier": sorted(e.id for e in info.carrier),
        "reflection_time": info.reflection_time,
        "reflections": [_ElementNode("carrier_part", r) for r in reflections],
        "mapping": mapping,
    }


def _chain_to_json(c: NamedChain, by_name: dict[str, Information]) -> dict:
    """``c`` as the names of its links, each of which must load back as the
    document's information of that name."""
    names = [link.name for link in c.chain.links]
    if list(c.link_names) != names:
        problem = f"names its links {list(c.link_names)} but holds {names}"
    elif any(by_name.get(n) != link for n, link in zip(names, c.chain.links)):
        problem = "holds a link other than the document's information of its name"
    else:
        return {"name": c.name, "links": names}
    violation = Violation("chain-link-unknown", f"chain {c.name!r} {problem}")
    raise DocumentInvariantError({c.name: [violation]})


def _state_index(info: Information) -> dict[Element, int]:
    """``info``'s states in canonical order, each to its index."""
    return {s: i for i, s in enumerate(info.sorted_states())}


def _measure_tree(m: MeasureAssignment) -> dict:
    return {
        "name": m.name,
        "default_weight": str(m.default_weight),
        "weights": {
            e.id: str(w) for e, w in sorted(m.weights.items(), key=lambda kv: kv[0].sort_key())
        },
    }


def _system_tree(system: SystemConfig) -> dict:
    stages = []
    for stage in system.stages:
        tr = {}
        for mk in sorted(stage.transforms, key=lambda m: m.value):
            t = stage.transforms[mk]
            entry: dict[str, Any] = {"kind": t.kind}
            if t.kind != "identity":
                entry["amount"] = str(t.amount)
            tr[mk.value] = entry
        stages.append({"name": stage.name, "kind": stage.kind.value, "transforms": tr})
    return {"name": system.name, "shape": system.shape.value, "stages": stages}


def _unwritable(doc: ModelDocument) -> dict[str, list[Violation]]:
    """The informations, measures and systems of ``doc`` that hold a
    rational no document can load, each by name with its violation: one
    with a term of more digits than ``str`` may write.  Only a failed
    emission looks for them."""
    limit = sys.get_int_max_str_digits()
    bad: dict[str, list[Violation]] = {}
    for noun, entries, tree in (
        ("information", doc.informations, lambda i: _information_tree(i, _state_index(i))),
        ("measure", doc.measures, _measure_tree),
        ("system", doc.systems, _system_tree),
    ):
        for entry in entries:
            try:
                _json_text(tree(entry))
            except ValueError:
                problem = (
                    f"{noun} {entry.name!r} holds a rational with a term of more "
                    f"than {limit} digits"
                )
                bad.setdefault(entry.name, []).append(Violation("rational-too-long", problem))
    return bad


def _document_entity_table(doc: ModelDocument) -> list[EntityId]:
    """Every entity the document names, once.  A document writes one realm
    per id, so an id named in both realms raises DocumentInvariantError."""
    named = set(doc.entities)
    for info in doc.informations:  # valid, so its elements hold no other entities
        named |= info.ontology | info.carrier
    for m in doc.measures:
        named |= m.weights.keys()
    table = sorted(named, key=EntityId.sort_key)
    clashes = [a.id for a, b in zip(table, table[1:]) if a.id == b.id]
    if clashes:
        raise DocumentInvariantError(
            {i: [Violation("entity-realm-conflict", f"entity {i!r} is in both realms")]
             for i in clashes}
        )
    return table


def _document_tree(doc: ModelDocument) -> dict:
    """The tree ``emit_document`` writes.  What loading would refuse raises
    DocumentInvariantError: a format version other than this one, an
    invalid information, an information, measure, relation, system or
    chain whose name is not a nonempty string or is another one's of its
    kind, an entity id in both realms, a relation pairing elements that
    are not states of its information, or a chain whose links are not the
    document's informations of the names it lists."""
    if doc.format_version != FORMAT_VERSION:
        problem = f"unsupported format_version {doc.format_version!r}"
        raise DocumentInvariantError(
            {"format_version": [Violation("format-version-unsupported", problem)]}
        )
    _require_valid("information", "", [(i.name, _checked(i)) for i in doc.informations])
    for noun, names in (
        ("measure", [m.name for m in doc.measures]),
        ("relation", [b.relation.name for b in doc.relations]),
        ("system", [s.name for s in doc.systems]),
        ("chain", [c.name for c in doc.chains]),
    ):
        _require_valid(noun, f"{noun}-", [(name, None) for name in names])
    out: dict[str, Any] = {"format_version": doc.format_version}
    out["entities"] = [
        {"id": e.id, "realm": e.realm.value} for e in _document_entity_table(doc)
    ]
    # each information's states in canonical order, indexed once for its
    # own mapping and for the pairs of every relation bound to it
    state_index = {id(info): _state_index(info) for info in doc.informations}
    out["informations"] = [
        _information_tree(info, state_index[id(info)])
        for info in sorted(doc.informations, key=lambda i: i.name)
    ]
    out["measures"] = [_measure_tree(m) for m in sorted(doc.measures, key=lambda m: m.name)]
    rel_out = []
    for bound in sorted(doc.relations, key=lambda b: b.relation.name):
        index = state_index[id(doc.information(bound.info))]
        try:
            pairs = sorted([index[a], index[b]] for a, b in bound.relation.pairs)
        except KeyError:
            problem = Violation(
                "relation-element-unknown",
                f"relation {bound.relation.name!r} pairs an element that is not a state",
            )
            raise DocumentInvariantError({bound.info: [problem]}) from None
        rel_out.append(
            {
                "name": bound.relation.name,
                "info": bound.info,
                "pairs": pairs,
                "declared_equivalence": bound.relation.declared_equivalence,
            }
        )
    out["relations"] = rel_out
    out["systems"] = [_system_tree(s) for s in sorted(doc.systems, key=lambda s: s.name)]
    by_name = {info.name: info for info in doc.informations}
    out["chains"] = [_chain_to_json(c, by_name) for c in sorted(doc.chains, key=lambda c: c.name)]
    return out


def _write_json(node, indent: str, out: list[str]) -> None:
    """Append ``node`` to ``out`` as ``json.dumps(node, indent=2,
    ensure_ascii=False)`` writes it; ``indent`` is the newline and the
    indentation of the line ``node`` starts on.  A TimeSet or an
    ``_ElementNode`` is written as the object the schema makes of it.  Only
    the node types of a ``_document_tree`` are accepted: anything else is a
    TypeError."""
    kind = type(node)
    if kind is str:
        out.append(encode_basestring(node))
    elif kind is dict:
        if not node:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in node.items():
            if type(key) is not str:
                raise TypeError(f"document JSON keys must be strings, not {key!r}")
            out.append(sep + encode_basestring(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif kind is list:
        if not node:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in node:
            if type(value) is int:  # the index pairs of mappings and relations
                out.append(sep + repr(value))
            else:
                out.append(sep)
                _write_json(value, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif kind is _ElementNode:
        out.append(_element_text(node, indent))
    elif kind is TimeSet:
        out.append(_time_set_text(node, indent))
    elif kind is int:
        out.append(repr(node))
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif node is None:
        out.append("null")
    else:
        raise TypeError(f"cannot write {kind.__name__} {node!r} as document JSON")


def _json_text(tree) -> str:
    """``json.dumps(tree, indent=2, ensure_ascii=False)``, written directly:
    the standard encoder falls back to pure Python whenever it indents."""
    out: list[str] = []
    _write_json(tree, "\n", out)
    return "".join(out)


def emit_document(doc: ModelDocument) -> str:
    """``doc`` as canonical indent-2 JSON text; see ``_document_tree`` for
    what it refuses.  A rational with a term of more digits than ``str``
    may write raises DocumentInvariantError naming the entry that holds
    it."""
    try:
        return _json_text(_document_tree(doc)) + "\n"
    except ValueError:
        bad = _unwritable(doc)
        if not bad:
            raise
        raise DocumentInvariantError(bad) from None


def document_to_json(doc: ModelDocument) -> dict:
    """The canonical tree of dicts, lists, strings, integers, booleans and
    nulls: the text ``emit_document`` writes, parsed."""
    return json.loads(emit_document(doc))


def save_document(doc: ModelDocument, path: str) -> None:
    """Write atomically: full content to a sibling temp file, then rename."""
    atomic_write_text(path, emit_document(doc))


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to a sibling temporary file, then rename it to
    ``path``.  A failed rename raises an OSError naming ``path`` alone:
    the temporary file is removed and was never the caller's."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".isd-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise OSError(e.errno, e.strerror, path) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
