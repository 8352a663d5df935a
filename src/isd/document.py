"""Model documents: the on-disk JSON form of everything modelable here.

A document declares entities, informations, entity measures, relations
(bound to an information's states by index), system configurations, and
serial chains.  Rationals are exact "p/q" strings; times are interval
lists where a null upper endpoint marks a right-unbounded tail.  Emission
is canonical (sorted, stable), so load -> emit -> load is idempotent and
canonical files round-trip byte for byte.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

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
from .model import (
    Information,
    ReflectionElement,
    SerialChain,
    StateElement,
    validate,
)
from .timeset import TimeSet
from .values import EntityId, Realm, Value

FORMAT_VERSION = "1"


# -- primitive codecs --------------------------------------------------------


def _frac_to_json(q: Fraction) -> str:
    return str(q)


def _frac_from_json(s: Any, where: str) -> Fraction:
    if not isinstance(s, str):
        raise DocumentParseError(f"{where}: rational must be a string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise DocumentParseError(f"{where}: bad rational {s!r} ({e})") from None


def _rate_to_json(r) -> str:
    if isinstance(r, ExtendedRate):
        return "inf" if r.is_infinite else str(r.value)
    return str(r)


def _rate_from_json(s: Any, where: str):
    if s == "inf":
        return ExtendedRate.infinite()
    return _frac_from_json(s, where)


def _timeset_to_json(ts: TimeSet) -> dict:
    intervals = [[str(lo), str(hi)] for lo, hi in ts.intervals]
    if ts.ray_from is not None:
        intervals.append([str(ts.ray_from), None])
    return {"intervals": intervals}


def _timeset_from_json(obj: Any, where: str) -> TimeSet:
    if not isinstance(obj, dict) or "intervals" not in obj:
        raise DocumentParseError(f"{where}: time set must be an object with intervals")
    pairs = []
    ray = None
    entries = obj["intervals"]
    if not isinstance(entries, list) or not entries:
        raise DocumentParseError(f"{where}: intervals must be a nonempty list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentParseError(f"{where}: interval {i} must be a [lo, hi] pair")
        lo = _frac_from_json(entry[0], f"{where}: interval {i} lower endpoint")
        if entry[1] is None:
            if i != len(entries) - 1:
                raise DocumentParseError(
                    f"{where}: only the last interval may be unbounded"
                )
            ray = lo
        else:
            hi = _frac_from_json(entry[1], f"{where}: interval {i} upper endpoint")
            if lo > hi:
                raise DocumentParseError(
                    f"{where}: interval {i} endpoints out of order"
                )
            pairs.append((lo, hi))
    try:
        return TimeSet(tuple(pairs), ray)
    except ValueError as e:
        raise DocumentParseError(f"{where}: {e}") from None


def _value_to_json(v: Value) -> dict:
    if v.tag == "symbol":
        return {"symbol": v.body}
    if v.tag == "scalar":
        return {"scalar": str(v.body)}
    if v.tag == "vector":
        return {"vector": [str(q) for q in v.body]}
    return {"record": {k: _value_to_json(inner) for k, inner in v.body}}


def _value_from_json(obj: Any, where: str) -> Value:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise DocumentParseError(f"{where}: value must be a single-key object")
    (tag, body), = obj.items()
    if tag == "symbol":
        if not isinstance(body, str) or not body:
            raise DocumentParseError(f"{where}: symbol must be a nonempty string")
        return Value.symbol(body)
    if tag == "scalar":
        return Value.scalar(_frac_from_json(body, where))
    if tag == "vector":
        if not isinstance(body, list):
            raise DocumentParseError(f"{where}: vector must be a list")
        return Value.vector([_frac_from_json(q, where) for q in body])
    if tag == "record":
        if not isinstance(body, dict):
            raise DocumentParseError(f"{where}: record must be an object")
        return Value.record(
            {k: _value_from_json(inner, f"{where}.{k}") for k, inner in body.items()}
        )
    raise DocumentParseError(f"{where}: unknown value tag {tag!r}")


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
        for info in self.informations:
            if info.name == name:
                return info
        raise UnresolvedReferenceError(f"no information named {name!r}")

    def measure(self, name: str) -> MeasureAssignment:
        for m in self.measures:
            if m.name == name:
                return m
        raise UnresolvedReferenceError(f"no measure named {name!r}")

    def bound_relation(self, name: str) -> BoundRelation:
        for r in self.relations:
            if r.relation.name == name:
                return r
        raise UnresolvedReferenceError(f"no relation named {name!r}")

    def system(self, name: str) -> SystemConfig:
        for s in self.systems:
            if s.name == name:
                return s
        raise UnresolvedReferenceError(f"no system named {name!r}")

    def chain(self, name: str) -> NamedChain:
        for c in self.chains:
            if c.name == name:
                return c
        raise UnresolvedReferenceError(f"no chain named {name!r}")


# -- loading ------------------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise DocumentParseError(message)


def _entity_list(ids: Any, table: Mapping[str, EntityId], where: str) -> frozenset[EntityId]:
    _require(isinstance(ids, list), f"{where}: must be a list of entity ids")
    out = []
    for i in ids:
        _require(isinstance(i, str), f"{where}: entity ids must be strings")
        if i not in table:
            raise UnresolvedReferenceError(f"{where}: undeclared entity {i!r}")
        out.append(table[i])
    return frozenset(out)


def _element_from_json(obj: Any, table, where: str, reflection: bool):
    _require(isinstance(obj, dict), f"{where}: element must be an object")
    part_key = "carrier_part" if reflection else "subject"
    for key in (part_key, "at", "value"):
        _require(key in obj, f"{where}: element missing {key!r}")
    part = _entity_list(obj[part_key], table, f"{where}.{part_key}")
    _require(part, f"{where}.{part_key}: must name at least one entity")
    at = _timeset_from_json(obj["at"], f"{where}.at")
    value = _value_from_json(obj["value"], f"{where}.value")
    if reflection:
        return ReflectionElement(part, at, value)
    return StateElement(part, at, value)


def _information_from_json(obj: Any, table, where: str) -> Information:
    _require(isinstance(obj, dict), f"{where}: information must be an object")
    for key in (
        "name",
        "ontology",
        "occurrence",
        "states",
        "carrier",
        "reflection_time",
        "reflections",
        "mapping",
    ):
        _require(key in obj, f"{where}: missing {key!r}")
    name = obj["name"]
    _require(isinstance(name, str) and name, f"{where}: name must be nonempty")
    for key in ("states", "reflections", "mapping"):
        _require(isinstance(obj[key], list), f"{where}: {key} must be a list")
    states = [
        _element_from_json(e, table, f"{where}.states[{i}]", reflection=False)
        for i, e in enumerate(obj["states"])
    ]
    reflections = [
        _element_from_json(e, table, f"{where}.reflections[{i}]", reflection=True)
        for i, e in enumerate(obj["reflections"])
    ]
    pairs = []
    for i, entry in enumerate(obj["mapping"]):
        _require(
            isinstance(entry, list) and len(entry) == 2,
            f"{where}: mapping entry {i} must be [state_index, reflection_index]",
        )
        si, ri = entry
        _require(
            isinstance(si, int) and 0 <= si < len(states),
            f"{where}: mapping entry {i} has bad state index {si!r}",
        )
        _require(
            isinstance(ri, int) and 0 <= ri < len(reflections),
            f"{where}: mapping entry {i} has bad reflection index {ri!r}",
        )
        pairs.append((states[si], reflections[ri]))
    return Information(
        name,
        _entity_list(obj["ontology"], table, f"{where}.ontology"),
        _timeset_from_json(obj["occurrence"], f"{where}.occurrence"),
        frozenset(states),
        _entity_list(obj["carrier"], table, f"{where}.carrier"),
        _timeset_from_json(obj["reflection_time"], f"{where}.reflection_time"),
        frozenset(reflections),
        pairs,
    )


def _transform_from_json(obj: Any, where: str) -> MeasureTransform:
    _require(isinstance(obj, dict) and "kind" in obj, f"{where}: transform needs a kind")
    kind = obj["kind"]
    if kind == "identity":
        return MeasureTransform.identity()
    _require("amount" in obj, f"{where}: {kind} transform needs an amount")
    amount = _rate_from_json(obj["amount"], f"{where}.amount")
    try:
        return MeasureTransform(kind, amount)
    except ValueError as e:
        raise DocumentParseError(f"{where}: {e}") from None


def _system_from_json(obj: Any, where: str) -> SystemConfig:
    _require(isinstance(obj, dict), f"{where}: system must be an object")
    for key in ("name", "shape", "stages"):
        _require(key in obj, f"{where}: missing {key!r}")
    try:
        shape = Shape(obj["shape"])
    except ValueError:
        raise DocumentParseError(f"{where}: unknown shape {obj['shape']!r}") from None
    stages = []
    for i, st in enumerate(obj["stages"]):
        w = f"{where}.stages[{i}]"
        _require(isinstance(st, dict), f"{w}: stage must be an object")
        for key in ("name", "kind"):
            _require(key in st, f"{w}: missing {key!r}")
        try:
            kind = StageKind(st["kind"])
        except ValueError:
            raise DocumentParseError(f"{w}: unknown stage kind {st['kind']!r}") from None
        transforms = {}
        for mname, tobj in sorted(st.get("transforms", {}).items()):
            try:
                mk = MeasureKind(mname)
            except ValueError:
                raise DocumentParseError(f"{w}: unknown measure {mname!r}") from None
            transforms[mk] = _transform_from_json(tobj, f"{w}.transforms.{mname}")
        stages.append(StageSpec(st["name"], kind, transforms))
    return SystemConfig(obj["name"], tuple(stages), shape)


def loads_document(text: str, source: str = "<string>") -> ModelDocument:
    """Parse and fully check a document: syntax, declared-before-used
    references, and every information invariant (violations aggregated)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentParseError(
            f"{source}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    _require(isinstance(raw, dict), f"{source}: document must be a JSON object")
    version = raw.get("format_version")
    _require(
        version == FORMAT_VERSION,
        f"{source}: unsupported format_version {version!r} (expected {FORMAT_VERSION!r})",
    )

    table: dict[str, EntityId] = {}
    for i, ent in enumerate(raw.get("entities", [])):
        w = f"{source}: entities[{i}]"
        _require(isinstance(ent, dict) and "id" in ent, f"{w}: needs an id")
        eid = ent["id"]
        _require(isinstance(eid, str) and eid, f"{w}: id must be nonempty")
        _require(eid not in table, f"{w}: duplicate entity id {eid!r}")
        realm_name = ent.get("realm", "objective")
        try:
            realm = Realm(realm_name)
        except ValueError:
            raise DocumentParseError(f"{w}: unknown realm {realm_name!r}") from None
        table[eid] = EntityId(eid, realm)

    informations = []
    seen_names = set()
    for i, obj in enumerate(raw.get("informations", [])):
        info = _information_from_json(obj, table, f"{source}: informations[{i}]")
        _require(
            info.name not in seen_names,
            f"{source}: duplicate information name {info.name!r}",
        )
        seen_names.add(info.name)
        informations.append(info)

    bad = {}
    for info in informations:
        report = validate(info)
        if report:
            bad[info.name] = report
    if bad:
        raise DocumentInvariantError(bad)

    measures = []
    for i, obj in enumerate(raw.get("measures", [])):
        w = f"{source}: measures[{i}]"
        _require(isinstance(obj, dict) and "name" in obj, f"{w}: needs a name")
        weights = {}
        for eid, wt in obj.get("weights", {}).items():
            if eid not in table:
                raise UnresolvedReferenceError(f"{w}: undeclared entity {eid!r}")
            weights[table[eid]] = _frac_from_json(wt, f"{w}.weights.{eid}")
        default = _frac_from_json(obj.get("default_weight", "1"), f"{w}.default_weight")
        measures.append(MeasureAssignment(obj["name"], weights, default))

    by_name = {info.name: info for info in informations}
    relations = []
    for i, obj in enumerate(raw.get("relations", [])):
        w = f"{source}: relations[{i}]"
        _require(isinstance(obj, dict), f"{w}: relation must be an object")
        for key in ("name", "info", "pairs"):
            _require(key in obj, f"{w}: missing {key!r}")
        if obj["info"] not in by_name:
            raise UnresolvedReferenceError(
                f"{w}: undeclared information {obj['info']!r}"
            )
        info = by_name[obj["info"]]
        ordered = info.sorted_states()
        pairs = set()
        for j, entry in enumerate(obj["pairs"]):
            _require(
                isinstance(entry, list) and len(entry) == 2,
                f"{w}: pair {j} must be [i, j] state indices",
            )
            a, b = entry
            for idx in (a, b):
                _require(
                    isinstance(idx, int) and 0 <= idx < len(ordered),
                    f"{w}: pair {j} has bad state index {idx!r}",
                )
            pairs.add((ordered[a], ordered[b]))
        relations.append(
            BoundRelation(
                obj["info"],
                Relation(
                    obj["name"],
                    frozenset(pairs),
                    bool(obj.get("declared_equivalence", False)),
                ),
            )
        )

    systems = tuple(
        _system_from_json(obj, f"{source}: systems[{i}]")
        for i, obj in enumerate(raw.get("systems", []))
    )

    chains = []
    for i, obj in enumerate(raw.get("chains", [])):
        w = f"{source}: chains[{i}]"
        _require(isinstance(obj, dict), f"{w}: chain must be an object")
        for key in ("name", "links"):
            _require(key in obj, f"{w}: missing {key!r}")
        names = obj["links"]
        _require(isinstance(names, list) and names, f"{w}: links must be a nonempty list")
        links = []
        for lname in names:
            if lname not in by_name:
                raise UnresolvedReferenceError(f"{w}: undeclared information {lname!r}")
            links.append(by_name[lname])
        chains.append(NamedChain(obj["name"], tuple(names), SerialChain(tuple(links))))

    return ModelDocument(
        format_version=version,
        entities=tuple(sorted(table.values(), key=EntityId.sort_key)),
        informations=tuple(informations),
        measures=tuple(measures),
        relations=tuple(relations),
        systems=systems,
        chains=tuple(chains),
    )


def load_document(path: str) -> ModelDocument:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise DocumentParseError(f"cannot read {path}: {e}") from None
    return loads_document(text, source=path)


# -- emission -----------------------------------------------------------------


def _element_to_json(e, reflection: bool) -> dict:
    part = e.carrier_part if reflection else e.subject
    key = "carrier_part" if reflection else "subject"
    return {
        key: sorted(x.id for x in part),
        "at": _timeset_to_json(e.at),
        "value": _value_to_json(e.value),
    }


def _information_to_json(info: Information) -> dict:
    states = info.sorted_states()
    reflections = info.sorted_reflections()
    s_index = {s: i for i, s in enumerate(states)}
    r_index = {r: i for i, r in enumerate(reflections)}
    mapping = sorted([s_index[s], r_index[r]] for s, r in info.mapping)
    return {
        "name": info.name,
        "ontology": sorted(e.id for e in info.ontology),
        "occurrence": _timeset_to_json(info.occurrence),
        "states": [_element_to_json(s, reflection=False) for s in states],
        "carrier": sorted(e.id for e in info.carrier),
        "reflection_time": _timeset_to_json(info.reflection_time),
        "reflections": [_element_to_json(r, reflection=True) for r in reflections],
        "mapping": mapping,
    }


def _document_entity_table(doc: ModelDocument) -> list[EntityId]:
    seen = {e.id: e for e in doc.entities}
    for info in doc.informations:
        for e in info.ontology | info.carrier:
            seen.setdefault(e.id, e)
        for s in info.states:
            for e in s.subject:
                seen.setdefault(e.id, e)
        for r in info.reflections:
            for e in r.carrier_part:
                seen.setdefault(e.id, e)
    for m in doc.measures:
        for e in m.weights:
            seen.setdefault(e.id, e)
    return sorted(seen.values(), key=EntityId.sort_key)


def document_to_json(doc: ModelDocument) -> dict:
    out: dict[str, Any] = {"format_version": doc.format_version}
    out["entities"] = [
        {"id": e.id, "realm": e.realm.value} for e in _document_entity_table(doc)
    ]
    out["informations"] = [
        _information_to_json(info)
        for info in sorted(doc.informations, key=lambda i: i.name)
    ]
    out["measures"] = [
        {
            "name": m.name,
            "default_weight": str(m.default_weight),
            "weights": {
                e.id: str(w)
                for e, w in sorted(m.weights.items(), key=lambda kv: kv[0].sort_key())
            },
        }
        for m in sorted(doc.measures, key=lambda m: m.name)
    ]
    rel_out = []
    for bound in sorted(doc.relations, key=lambda b: b.relation.name):
        info = doc.information(bound.info)
        index = {s: i for i, s in enumerate(info.sorted_states())}
        pairs = sorted([index[a], index[b]] for a, b in bound.relation.pairs)
        rel_out.append(
            {
                "name": bound.relation.name,
                "info": bound.info,
                "pairs": pairs,
                "declared_equivalence": bound.relation.declared_equivalence,
            }
        )
    out["relations"] = rel_out
    sys_out = []
    for system in sorted(doc.systems, key=lambda s: s.name):
        stages = []
        for stage in system.stages:
            tr = {}
            for mk in sorted(stage.transforms, key=lambda m: m.value):
                t = stage.transforms[mk]
                entry: dict[str, Any] = {"kind": t.kind}
                if t.kind != "identity":
                    entry["amount"] = _rate_to_json(t.amount)
                tr[mk.value] = entry
            stages.append({"name": stage.name, "kind": stage.kind.value, "transforms": tr})
        sys_out.append({"name": system.name, "shape": system.shape.value, "stages": stages})
    out["systems"] = sys_out
    out["chains"] = [
        {"name": c.name, "links": list(c.link_names)}
        for c in sorted(doc.chains, key=lambda c: c.name)
    ]
    return out


def emit_document(doc: ModelDocument) -> str:
    return json.dumps(document_to_json(doc), indent=2, ensure_ascii=False) + "\n"


def save_document(doc: ModelDocument, path: str) -> None:
    """Write atomically: full content to a sibling temp file, then rename."""
    atomic_write_text(path, emit_document(doc))


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".isd-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
