"""Document format: parsing, validation, canonical emission."""

import copy
import dataclasses
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isd
import reference_document
from isd.document import (
    BoundRelation,
    ModelDocument,
    NamedChain,
    _json_text,
    _terms_from_json,
    document_to_json,
    emit_document,
    load_document,
    loads_document,
    save_document,
)
from isd.errors import (
    DocumentError,
    DocumentInvariantError,
    DocumentParseError,
    MeasureInputError,
    UnresolvedReferenceError,
)
from isd.dynamics import MeasureKind, MeasureProfile, propagate
from isd.measures import Metric, Relation, distortion
from isd.model import SerialChain, validate
from isd.oracles import (
    kalman_reflection,
    measurement_reflection,
    simulate_tracking,
    tracking_information,
)
from isd.timeset import TimeSet
from isd.values import Value

BUNDLED = Path(isd.__file__).parent / "data" / "news_pipeline.json"
_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0

SYNTHETIC = """
{
  "format_version": "1",
  "entities": [
    {"id": "lab"},
    {"id": "ghost", "realm": "subjective"},
    {"id": "vault"},
    {"id": "desk"}
  ],
  "informations": [
    {
      "name": "probe",
      "ontology": ["ghost"],
      "occurrence": {"intervals": [["0", "1/2"]]},
      "states": [
        {
          "subject": ["ghost"],
          "at": {"intervals": [["0", "0"]]},
          "value": {
            "record": {
              "pos": {"vector": ["1", "2/3"]},
              "tag": {"symbol": "ok"}
            }
          }
        },
        {
          "subject": ["ghost"],
          "at": {"intervals": [["1/2", "1/2"]]},
          "value": {"scalar": "-3/4"}
        }
      ],
      "carrier": ["lab", "vault"],
      "reflection_time": {"intervals": [["1", null]]},
      "reflections": [
        {
          "carrier_part": ["lab"],
          "at": {"intervals": [["1", null]]},
          "value": {"scalar": "7/2"}
        },
        {
          "carrier_part": ["vault"],
          "at": {"intervals": [["2", "2"]]},
          "value": {"symbol": "copy"}
        }
      ],
      "mapping": [[1, 0], [0, 1]]
    }
  ],
  "measures": [
    {
      "name": "floorspace",
      "weights": {"lab": "3/2", "vault": "10"},
      "default_weight": "0"
    }
  ],
  "relations": [
    {
      "name": "same_origin",
      "info": "probe",
      "pairs": [[0, 0], [1, 1], [0, 1], [1, 0]],
      "declared_equivalence": true
    }
  ],
  "systems": [
    {
      "name": "bench",
      "shape": "DoubleCPE",
      "stages": [
        {"name": "grab", "kind": "Collection",
         "transforms": {"Delay": {"kind": "add", "amount": "1/3"}}},
        {"name": "crunch", "kind": "Processing",
         "transforms": {"SamplingRate": {"kind": "clamp_max", "amount": "inf"},
                        "Volume": {"kind": "set_to", "amount": "12"},
                        "Distortion": {"kind": "scale", "amount": "2"},
                        "Mismatch": {"kind": "identity"}}},
        {"name": "act", "kind": "Exertion", "transforms": {}}
      ]
    }
  ],
  "chains": []
}
"""


def test_bundled_document_round_trips_byte_identical():
    text = BUNDLED.read_text(encoding="utf-8")
    doc = loads_document(text, source=str(BUNDLED))
    assert emit_document(doc) == text


def test_synthetic_load_emit_load_idempotent():
    doc = loads_document(SYNTHETIC)
    once = emit_document(doc)
    assert once != SYNTHETIC  # the hand-written form is not canonical
    again = emit_document(loads_document(once))
    assert again == once


def test_synthetic_content_survives():
    doc = loads_document(SYNTHETIC)
    info = doc.information("probe")
    assert len(info.states) == 2
    assert any(e.realm.value == "subjective" for e in info.ontology)
    assert info.reflection_time.is_unbounded
    m = doc.measure("floorspace")
    assert m.default_weight == 0
    rel = doc.bound_relation("same_origin")
    assert rel.info == "probe"
    assert rel.relation.is_equivalence_over(info.states)
    sys_ = doc.system("bench")
    assert sys_.shape.value == "DoubleCPE"
    assert len(sys_.stages) == 3


def test_lookup_misses_raise():
    doc = loads_document(SYNTHETIC)
    for probe in (
        lambda: doc.information("nope"),
        lambda: doc.measure("nope"),
        lambda: doc.bound_relation("nope"),
        lambda: doc.system("nope"),
        lambda: doc.chain("nope"),
    ):
        with pytest.raises(UnresolvedReferenceError):
            probe()


def test_save_document_atomic(tmp_path):
    doc = loads_document(SYNTHETIC)
    out = tmp_path / "nested" / "doc.json"
    out.parent.mkdir()
    save_document(doc, str(out))
    assert out.read_text(encoding="utf-8") == emit_document(doc)
    assert loads_document(out.read_text(encoding="utf-8")) is not None


def _patch(mutate):
    raw = json.loads(SYNTHETIC)
    mutate(raw)
    return json.dumps(raw)


def test_parse_error_bad_json_reports_position():
    with pytest.raises(DocumentParseError) as exc:
        loads_document('{"format_version": "1",\n  "entities": [}', source="bad.json")
    msg = str(exc.value)
    assert "bad.json" in msg and "line 2" in msg


def test_parse_error_cases():
    cases = [
        lambda r: r.update(format_version="99"),
        lambda r: r["entities"].append({"id": "lab"}),  # duplicate
        lambda r: r["entities"].append({"id": "odd", "realm": "imaginary"}),
        lambda r: r["informations"][0]["states"][0].update(
            value={"tensor": []}
        ),
        lambda r: r["informations"][0]["states"][0].update(
            at={"intervals": [["0", None], ["5", "6"]]}
        ),
        lambda r: r["informations"][0].update(mapping=[[0, 9]]),
        lambda r: r["measures"][0].update(default_weight="1/0x"),
        lambda r: r["systems"][0].update(shape="Pentagon"),
        lambda r: r["systems"][0]["stages"][0].update(kind="Storage"),
        lambda r: r["systems"][0]["stages"][1]["transforms"].update(
            Sharpness={"kind": "add", "amount": "1"}
        ),
        lambda r: r["informations"].append(dict(r["informations"][0])),  # dup name
    ]
    for mutate in cases:
        with pytest.raises(DocumentParseError):
            loads_document(_patch(mutate))


def _info0(r):
    return r["informations"][0]


def _deep_record(depth):
    """SYNTHETIC with one state value nested ``depth`` records deep."""
    leaf = '{"scalar": "-3/4"}'
    return SYNTHETIC.replace(leaf, '{"record": {"k": ' * depth + leaf + "}}" * depth)


@pytest.mark.parametrize(
    "text, where",
    [
        (
            _patch(lambda r: _info0(r)["states"][0].update(subject=[])),
            "informations[0].states[0].subject",
        ),
        (
            _patch(lambda r: _info0(r)["reflections"][1].update(carrier_part=[])),
            "informations[0].reflections[1].carrier_part",
        ),
        (_patch(lambda r: _info0(r).update(states=7)), "informations[0]: states"),
        (_patch(lambda r: _info0(r).update(reflections=None)), "informations[0]: reflections"),
        (_patch(lambda r: r.update(chains=[{"name": "c", "links": []}])), "chains[0]: links"),
        (_patch(lambda r: r.update(chains=[{"name": "c", "links": "probe"}])), "chains[0]: links"),
        (_patch(lambda r: r.update(entities=3)), "entities"),
        (
            _patch(lambda r: r["systems"][0]["stages"][0].update(transforms=[])),
            "systems[0].stages[0]: transforms",
        ),
        (_deep_record(3000), "nested too deeply"),
        (_patch(lambda r: r["measures"][0]["weights"].update(lab="-1")), "measures[0]"),
        (_patch(lambda r: r["measures"][0].update(default_weight="-2")), "measures[0]"),
        (
            _patch(lambda r: _info0(r).update(mapping=[[0, 0], [0, 1], [1, 0]])),
            "informations[0]: mapping assigns two reflections",
        ),
        (
            _patch(lambda r: r["relations"][0].update(declared_equivalence="no")),
            "relations[0]: declared_equivalence",
        ),
    ],
    ids=[
        "empty-subject",
        "empty-carrier-part",
        "states-not-list",
        "reflections-not-list",
        "chain-no-links",
        "chain-links-not-list",
        "entities-not-list",
        "transforms-not-object",
        "record-nested-3000-deep",
        "negative-weight",
        "negative-default-weight",
        "state-mapped-twice",
        "equivalence-not-boolean",
    ],
)
def test_malformed_document_names_location(text, where):
    with pytest.raises(DocumentParseError) as exc:
        loads_document(text, source="doc.json")
    assert f"doc.json: {where}" in str(exc.value)


REPLACEMENTS = [
    3, -1, True, None, "", "x", "-1", "1/0",
    [], {}, [1], {"a": 1}, [[0, 0]], ["0", "1"], "inf", 1.5,
]


def _node_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _node_paths(child, path + (key,))


def test_every_single_node_replacement_fails_typed():
    base = json.loads(SYNTHETIC)
    escapes, cases = [], 0
    for path in _node_paths(base):
        for value in REPLACEMENTS:
            raw = copy.deepcopy(base)
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            cases += 1
            try:
                loads_document(json.dumps(raw))
            except DocumentError:
                pass
            except Exception as e:  # anything else escapes the package's errors
                escapes.append((path, value, repr(e)))
    assert cases == 2256
    assert escapes == []


def test_unresolved_references():
    cases = [
        lambda r: r["informations"][0].update(ontology=["martian"]),
        lambda r: r["measures"][0]["weights"].update(dungeon="4"),
        lambda r: r["relations"][0].update(info="phantom"),
        lambda r: r.update(chains=[{"name": "c", "links": ["phantom"]}]),
    ]
    for mutate in cases:
        with pytest.raises(UnresolvedReferenceError):
            loads_document(_patch(mutate))


def test_invariant_violations_aggregate():
    def break_containment(r):
        r["informations"][0]["states"][0]["at"] = {"intervals": [["40", "40"]]}

    with pytest.raises(DocumentInvariantError) as exc:
        loads_document(_patch(break_containment))
    assert "probe" in exc.value.per_info
    codes = {v.code for v in exc.value.per_info["probe"]}
    assert "state-time-outside-occurrence" in codes


def test_document_requires_object_root():
    with pytest.raises(DocumentParseError):
        loads_document("[1, 2, 3]")
    with pytest.raises(DocumentParseError):
        loads_document("")


def test_load_document_missing_file(tmp_path):
    with pytest.raises(DocumentParseError, match="cannot read"):
        load_document(str(tmp_path / "absent.json"))


def test_emission_collects_undeclared_entities():
    # entities referenced only inside informations still get declared rows
    doc = loads_document(SYNTHETIC)
    bare = ModelDocument(
        format_version=doc.format_version,
        entities=(),
        informations=doc.informations,
        measures=(),
        relations=(),
        systems=(),
        chains=(),
    )
    text = emit_document(bare)
    ids = [e["id"] for e in json.loads(text)["entities"]]
    assert ids == sorted(ids)
    assert "ghost" in ids and "vault" in ids


def _mis_mapped_probe(shape):
    """The synthetic "probe" with a mapping that names a state outside its
    states, or that leaves one of its states out."""
    info = loads_document(SYNTHETIC).information("probe")
    (s, r), *rest = info.mapping
    if shape == "unknown-state":
        rest.append((dataclasses.replace(s, value=isd.Value.symbol("stray")), r))
    return dataclasses.replace(info, mapping=rest)


@pytest.mark.parametrize(
    "shape, code",
    [("unknown-state", "mapping-key-unknown"), ("unmapped-state", "mapping-not-total")],
)
def test_emission_refuses_invalid_information(shape, code, tmp_path):
    doc = ModelDocument(informations=(_mis_mapped_probe(shape),))
    with pytest.raises(DocumentInvariantError) as exc:
        emit_document(doc)
    assert code in {v.code for v in exc.value.per_info["probe"]}
    with pytest.raises(DocumentInvariantError):
        save_document(doc, str(tmp_path / "doc.json"))
    assert list(tmp_path.iterdir()) == []


def _refused_on_emission(doc, tmp_path) -> DocumentInvariantError:
    """The error that emitting ``doc`` raises; saving it writes nothing."""
    with pytest.raises(DocumentInvariantError) as exc:
        emit_document(doc)
    with pytest.raises(DocumentInvariantError):
        save_document(doc, str(tmp_path / "doc.json"))
    assert list(tmp_path.iterdir()) == []
    return exc.value


def test_emission_refuses_a_relation_on_foreign_elements(tmp_path):
    # loading binds a relation's pairs to its information's states by index,
    # so a pair holding another information's state cannot be written
    doc = load_document(str(BUNDLED))
    capture, uplink = doc.information("capture"), doc.information("uplink")
    foreign = next(s for s in uplink.sorted_states() if s not in capture.states)
    cross = Relation("cross", frozenset({(capture.sorted_states()[0], foreign)}))
    bad = dataclasses.replace(doc, relations=(*doc.relations, BoundRelation("capture", cross)))
    error = _refused_on_emission(bad, tmp_path)
    assert [v.code for v in error.per_info["capture"]] == ["relation-element-unknown"]
    assert "'cross'" in str(error)


def test_emission_refuses_two_informations_of_one_name(tmp_path):
    doc = load_document(str(BUNDLED))
    twin = dataclasses.replace(doc.information("uplink"), name="capture")
    error = _refused_on_emission(
        dataclasses.replace(doc, informations=(*doc.informations, twin)), tmp_path
    )
    assert [v.code for v in error.per_info["capture"]] == ["duplicate-name"]


@pytest.mark.parametrize(
    "names, links",
    [
        (("capture", "archive"), None),
        (("nope",), None),
        (("ghost",), "ghost"),
        (("capture",), "capture"),
    ],
    ids=["fewer-names", "unknown-name", "absent-link", "unequal-link"],
)
def test_emission_refuses_a_chain_other_than_it_names(tmp_path, names, links):
    """``links`` None keeps the bundled chain; a name makes a one-link chain
    of uplink renamed to it, which the document does not hold."""
    doc = load_document(str(BUNDLED))
    chain = doc.chains[0].chain
    if links is not None:
        chain = SerialChain((dataclasses.replace(doc.information("uplink"), name=links),))
    bad = dataclasses.replace(doc, chains=(NamedChain("x", names, chain),))
    error = _refused_on_emission(bad, tmp_path)
    assert [v.code for v in error.per_info["x"]] == ["chain-link-unknown"]


def test_emission_writes_a_chain_of_equal_links(tmp_path):
    doc = load_document(str(BUNDLED))
    named = doc.chains[0]
    twins = SerialChain(tuple(dataclasses.replace(link) for link in named.chain.links))
    assert twins.links == named.chain.links
    again = dataclasses.replace(doc, chains=(NamedChain(named.name, named.link_names, twins),))
    assert emit_document(again) == emit_document(doc)


def _one_pair(subject, carrier) -> isd.Information:
    s = isd.StateElement({subject}, isd.TimeSet.point(0), isd.Value.scalar(1))
    r = isd.ReflectionElement({carrier}, isd.TimeSet.point(1), isd.Value.scalar(1))
    return isd.Information.from_pairs("x", [(s, r)])


@pytest.mark.parametrize("where", ["information", "declared", "measure"])
def test_emission_refuses_an_id_in_both_realms(tmp_path, where):
    """A document writes one realm per id.  Emission kept whichever "a" it
    met first in set order, so the text depended on the hash seed: it
    loaded back as another information, or not at all."""
    a, cam, sub_a = isd.objective("a"), isd.objective("cam"), isd.subjective("a")
    doc = {
        "information": ModelDocument(informations=(_one_pair(sub_a, a),)),
        "declared": ModelDocument(entities=(a,), informations=(_one_pair(sub_a, cam),)),
        "measure": ModelDocument(
            informations=(_one_pair(a, cam),),
            measures=(isd.MeasureAssignment("m", {sub_a: 2}),),
        ),
    }[where]
    error = _refused_on_emission(doc, tmp_path)
    assert {k: [v.code for v in vs] for k, vs in error.per_info.items()} == {
        "a": ["entity-realm-conflict"]
    }


def test_emission_refuses_an_unsupported_format_version(tmp_path):
    doc = dataclasses.replace(load_document(str(BUNDLED)), format_version="2")
    error = _refused_on_emission(doc, tmp_path)
    assert [v.code for v in error.per_info["format_version"]] == ["format-version-unsupported"]
    assert "'2'" in str(error)


@pytest.mark.parametrize("name", ["", 5], ids=["empty", "int"])
def test_emission_refuses_an_information_without_a_string_name(tmp_path, name):
    # loading refuses both; an int name also broke the sort by name
    unnamed = dataclasses.replace(load_document(str(BUNDLED)).information("capture"), name=name)
    error = _refused_on_emission(ModelDocument(informations=(unnamed,)), tmp_path)
    assert [v.code for v in error.per_info[name]] == ["name-invalid"]


@pytest.mark.parametrize(
    "names",
    [(7,), ("floorspace", 7), ("",)],
    ids=["int", "int-beside-a-string", "empty"],
)
def test_emission_refuses_a_measure_without_a_string_name(tmp_path, names):
    """Loading refuses each of these names.  An int name was written as a
    JSON number; beside a string name it broke the sort by name."""
    doc = dataclasses.replace(
        loads_document(SYNTHETIC), measures=tuple(isd.MeasureAssignment(n) for n in names)
    )
    error = _refused_on_emission(doc, tmp_path)
    assert {k: [v.code for v in vs] for k, vs in error.per_info.items()} == {
        names[-1]: ["measure-name-invalid"]
    }


def test_emission_refuses_two_measures_of_one_name(tmp_path):
    twins = (isd.MeasureAssignment("m"), isd.MeasureAssignment("m", default_weight=2))
    doc = dataclasses.replace(loads_document(SYNTHETIC), measures=twins)
    error = _refused_on_emission(doc, tmp_path)
    assert [v.code for v in error.per_info["m"]] == ["measure-duplicate-name"]
    assert "another measure is named 'm'" in str(error)


def _holding(where: str, q: Fraction) -> ModelDocument:
    """The synthetic document with the rational ``q`` put ``where``."""
    doc = loads_document(SYNTHETIC)
    lab = isd.objective("lab")
    if where == "default-weight":
        return dataclasses.replace(doc, measures=(isd.MeasureAssignment("m", {}, q),))
    if where == "weight":
        return dataclasses.replace(doc, measures=(isd.MeasureAssignment("m", {lab: q}),))
    if where == "amount":
        system = doc.system("bench")
        stages = list(system.stages)
        stages[0] = dataclasses.replace(
            stages[0], transforms={MeasureKind.DELAY: isd.MeasureTransform("add", q)}
        )
        return dataclasses.replace(doc, systems=(dataclasses.replace(system, stages=stages),))
    at, value = TimeSet.point(0), Value.scalar(1)
    if where == "value":
        value = Value.scalar(q)
    else:
        at = TimeSet.point(1 / q)
    s = isd.StateElement({lab}, at, value)
    r = isd.ReflectionElement({lab}, TimeSet.point(1), Value.scalar(1))
    return ModelDocument(informations=(isd.Information.from_pairs("x", [(s, r)]),))


@pytest.mark.skipif(not _LIMIT, reason="this Python limits no int-to-str conversion")
@pytest.mark.parametrize(
    "where, noun, name",
    [
        ("default-weight", "measure", "m"),
        ("weight", "measure", "m"),
        ("amount", "system", "bench"),
        ("value", "information", "x"),
        ("endpoint", "information", "x"),
    ],
)
def test_emission_refuses_a_rational_too_long_to_write(tmp_path, where, noun, name):
    """Loading refuses such a rational, so only a document built in code
    holds one; emission names the entry that holds it, not a raw
    ValueError."""
    huge = Fraction(10**_LIMIT)  # one digit more than str may write
    error = _refused_on_emission(_holding(where, huge), tmp_path)
    assert {k: [v.code for v in vs] for k, vs in error.per_info.items()} == {
        name: ["rational-too-long"]
    }
    assert str(error) == (
        f"document invariants violated: {name}: {noun} {name!r} holds a rational "
        f"with a term of more than {_LIMIT} digits"
    )
    # one digit fewer is written, and loads back
    doc = _holding(where, Fraction(10 ** (_LIMIT - 1)))
    assert emit_document(loads_document(emit_document(doc))) == emit_document(doc)


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "value, shown",
    [
        (lambda: Value("scalar", _INF), "inf"),
        (lambda: Value("scalar", -_INF), "-inf"),
        (lambda: Value("vector", (0.5, _NAN)), "nan"),
        (lambda: Value.record({"a": Value.scalar(1), "b": Value("vector", (_INF,))}), "inf"),
        (lambda: Value("scalar", "1/2"), "'1/2'"),
    ],
    ids=["inf", "minus-inf", "vector-nan", "record-inf", "string"],
)
def test_emission_refuses_a_number_with_no_integer_terms(value, shown):
    """Written as text such a number would be refused by loading; no Value
    can hold one, since building it refuses the number by name, so
    emission never meets one."""
    with pytest.raises(MeasureInputError) as exc:
        value()
    assert str(exc.value) == f"number {shown} has no integer terms"


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (
            lambda r: r["measures"].append(dict(r["measures"][0])),
            "duplicate measure name 'floorspace'",
        ),
        (lambda r: r["measures"][0].update(name=""), "name must be nonempty"),
    ],
    ids=["duplicate", "empty"],
)
def test_loading_refuses_a_measure_name_emission_refuses(mutate, problem):
    # the second measure of a name could not be reached by ModelDocument.measure
    with pytest.raises(DocumentParseError, match=f"measures\\[\\d\\]: {problem}"):
        loads_document(_patch(mutate))


_RENAMED = {
    "informations": lambda info, name: dataclasses.replace(info, name=name),
    "measures": lambda m, name: dataclasses.replace(m, name=name),
    "relations": lambda b, name: BoundRelation(b.info, dataclasses.replace(b.relation, name=name)),
    "systems": lambda system, name: dataclasses.replace(system, name=name),
    "chains": lambda c, name: NamedChain(name, c.link_names, c.chain),
}


def _with_names(doc, kind: str, names) -> ModelDocument:
    """``doc`` whose ``kind`` entries are its first one under each of ``names``."""
    first = getattr(doc, kind)[0]
    return dataclasses.replace(doc, **{kind: tuple(_RENAMED[kind](first, n) for n in names)})


@pytest.mark.parametrize("kind", ["relations", "systems", "chains"])
@pytest.mark.parametrize(
    "names, problem",
    [
        (("x", "x"), "duplicate-name"),
        (("x", 5), "name-invalid"),
        (("",), "name-invalid"),
        ((["x"],), "name-invalid"),
    ],
    ids=["duplicate", "int-beside-a-string", "empty", "unhashable"],
)
def test_emission_refuses_a_name_loading_refuses(tmp_path, kind, names, problem):
    """The second entry of a name could not be reached by name; an int
    beside a string broke the sort by name; an empty name was written."""
    doc = _with_names(load_document(str(BUNDLED)), kind, names)
    error = _refused_on_emission(doc, tmp_path)
    key = names[-1] if isinstance(names[-1], (str, int)) else repr(names[-1])
    assert {k: [v.code for v in vs] for k, vs in error.per_info.items()} == {
        key: [f"{kind[:-1]}-{problem}"]
    }


@pytest.mark.parametrize("kind", ["informations", "measures"])
def test_emission_keys_an_unhashable_name_by_its_repr(tmp_path, kind):
    # the report was keyed by the name itself, and emission died with a
    # bare TypeError: unhashable type: 'list'
    doc = _with_names(load_document(str(BUNDLED)), kind, [["x"]])
    error = _refused_on_emission(doc, tmp_path)
    code = "name-invalid" if kind == "informations" else "measure-name-invalid"
    assert [v.code for v in error.per_info["['x']"]] == [code]


@pytest.mark.parametrize("kind", ["informations", "relations", "systems", "chains"])
@pytest.mark.parametrize(
    "names, problem",
    [(("c", "c"), "duplicate {} name 'c'"), (("",), "name must be nonempty")],
    ids=["duplicate", "empty"],
)
def test_loading_refuses_a_name_emission_refuses(kind, names, problem):
    def mutate(raw):
        raw["chains"] = [{"name": "c", "links": ["probe"]}]
        first = raw[kind][0]
        raw[kind] = [{**first, "name": n} for n in names]

    where = f"{kind}\\[{len(names) - 1}\\]"
    with pytest.raises(DocumentParseError, match=f"{where}: {problem.format(kind[:-1])}"):
        loads_document(_patch(mutate))


def test_a_repeated_information_name_is_refused_at_its_entry():
    # the message named the document only, not the entry that repeats the name
    repeated = _patch(lambda raw: raw["informations"].append(dict(raw["informations"][0])))
    with pytest.raises(DocumentParseError) as exc:
        loads_document(repeated, source="doc.json")
    assert str(exc.value) == "doc.json: informations[1]: duplicate information name 'probe'"


@pytest.mark.parametrize("kind", ["informations", "measures", "relations", "systems", "chains"])
@pytest.mark.parametrize(
    "entry, problem",
    [
        (lambda first: 5, "must be an object, not an integer"),
        (lambda first: {k: v for k, v in first.items() if k != "name"}, "missing 'name'"),
        (lambda first: {**first, "name": 7}, "name: must be a string, not an integer"),
    ],
    ids=["not-an-object", "no-name", "int-name"],
)
def test_every_named_collection_refuses_a_malformed_entry_alike(kind, entry, problem):
    raw = json.loads(BUNDLED.read_text(encoding="utf-8"))
    raw[kind][0] = entry(raw[kind][0])
    with pytest.raises(DocumentParseError) as exc:
        loads_document(json.dumps(raw), source="doc.json")
    assert str(exc.value) == f"doc.json: {kind}[0]: {problem}"


def test_informations_of_one_name_keep_both_reports(tmp_path):
    twins = (_mis_mapped_probe("unknown-state"), _mis_mapped_probe("unmapped-state"))
    error = _refused_on_emission(ModelDocument(informations=twins), tmp_path)
    first, second = ([v.code for v in validate(info)] for info in twins)
    assert "mapping-key-unknown" in first and "mapping-not-total" in second
    assert [v.code for v in error.per_info["probe"]] == [*first, "duplicate-name", *second]


# -- the indent-2 writer ---------------------------------------------------------
#
# ``emit_document`` writes indent-2 JSON itself, each element straight from
# the ``Element``; ``json.dumps(tree, indent=2, ensure_ascii=False)`` is its
# oracle, on plain trees and on ``document_to_json``, the emitted text parsed.

json_text = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u00e9\U0001f600'),
    max_size=8,
)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=40,
)


def _nested(depth: int):
    tree = {"leaf": ["x", 1, None, {}, []]}
    for k in range(depth):
        tree = [tree] if k % 2 else {"k": tree}
    return tree


@given(json_trees)
@settings(max_examples=200, deadline=None)
@example([True, 1, False, 0, {"true": True, "1": 1, "false": False, "0": 0}])
@example({"": {}, "[]": [], "quote\"back\\slash": ["\x00\t\n\u00e9\U0001f600"]})
@example(_nested(120))
def test_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, ensure_ascii=False)


def test_writer_matches_json_dumps_on_documents():
    """The emitted text is exactly the indent-2 form of what it parses to."""
    for text in (BUNDLED.read_text(encoding="utf-8"), SYNTHETIC):
        doc = loads_document(text)
        tree = document_to_json(doc)
        assert emit_document(doc) == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "tree",
    [1.5, [0, 2.0], {"a": {"b": float("nan")}}, {1: "x"}, [{None: 1}], (1, 2), Fraction(1, 2)],
    ids=["float", "nested-float", "nan", "int-key", "none-key", "tuple", "fraction"],
)
def test_writer_refuses_what_a_document_tree_never_holds(tree):
    with pytest.raises(TypeError):
        _json_text(tree)


# -- the per-load rational memo -------------------------------------------------


def _value_terms(doc):
    """The integer terms every scalar and vector of the document's values
    holds, read with no view built."""
    def of_value(v):
        if v.tag in ("scalar", "vector"):
            yield from v.numeric_terms()
        elif v.tag == "record":
            for _, inner in v.body:
                yield from of_value(inner)

    for info in doc.informations:
        for element in (*info.states, *info.reflections):
            yield from of_value(element.value)


def _weights_and_amounts(doc):
    """Every Fraction the loader builds: measure weights and finite
    transform amounts."""
    for m in doc.measures:
        yield m.default_weight
        yield from m.weights.values()
    for system in doc.systems:
        for stage in system.stages:
            for t in stage.transforms.values():
                if t.kind != "identity" and not t.amount.is_infinite:
                    yield t.amount.value


def _endpoints(doc):
    """Every endpoint of the document's time sets, read through the view."""
    for info in doc.informations:
        times = [info.occurrence, info.reflection_time]
        times += [element.at for element in (*info.states, *info.reflections)]
        for ts in times:
            for lo, hi in ts.intervals:
                yield lo
                yield hi
            if ts.ray_from is not None:
                yield ts.ray_from


def _numeric_bundled() -> str:
    """The bundled document with numeric values, whose canonical strings
    repeat across informations, and a measure of repeated weights."""
    raw = json.loads(BUNDLED.read_text(encoding="utf-8"))
    for info in raw["informations"]:
        for k, state in enumerate(info["states"]):
            state["value"] = {"scalar": str(Fraction(k, 2))}
        for k, reflection in enumerate(info["reflections"]):
            reflection["value"] = {"vector": [str(Fraction(k, 2)), "3"]}
    weights = {"camera": "1/2", "recorder": "3"}
    raw["measures"].append({"name": "halves", "default_weight": "1/2", "weights": weights})
    return json.dumps(raw)


def _rational_strings(text: str) -> list[str]:
    """Every rational string of the document ``text``: time-set endpoints,
    the numbers of scalar and vector values, weights, default weights and
    finite transform amounts."""
    raw = json.loads(text)

    def of_value(obj):
        ((tag, body),) = obj.items()
        if tag == "scalar":
            yield body
        elif tag == "vector":
            yield from body
        elif tag == "record":
            for inner in body.values():
                yield from of_value(inner)

    out = []
    for info in raw["informations"]:
        times = [info["occurrence"], info["reflection_time"]]
        for element in (*info["states"], *info["reflections"]):
            times.append(element["at"])
            out += of_value(element["value"])
        for ts in times:
            out += [t for pair in ts["intervals"] for t in pair if t is not None]
    for m in raw["measures"]:
        out += [m.get("default_weight", "1"), *m.get("weights", {}).values()]
    for system in raw["systems"]:
        for stage in system["stages"]:
            for t in stage.get("transforms", {}).values():
                if t["kind"] != "identity" and t["amount"] != "inf":
                    out.append(t["amount"])
    return out


def test_rational_memo_lives_for_one_load(monkeypatch):
    text = _numeric_bundled()
    parsed = []
    real = isd.document._terms_from_json
    monkeypatch.setattr(
        isd.document,
        "_terms_from_json",
        lambda s, where: parsed.append(s) or real(s, where),
    )
    first = loads_document(text)
    parsed_first = list(parsed)
    parsed.clear()
    second = loads_document(text)
    # within one load, each distinct rational string is parsed once, and the
    # next load parses each again: its memo entries did not outlive the load
    strings = _rational_strings(text)
    assert len(set(strings)) < len(strings)
    assert sorted(parsed_first) == sorted(parsed) == sorted(set(strings))
    assert {"scalar", "vector"} <= {
        e.value.tag for info in first.informations for e in (*info.states, *info.reflections)
    }
    # within one load, values of one string share the memo's terms ...
    terms = list(_value_terms(first))
    one_each = {}
    for t in terms:
        assert one_each.setdefault(t, t) is t
    assert len(one_each) < len(terms)
    # ... and nothing parsed outlives the load that made it
    assert not {id(t) for t in terms} & {id(t) for t in _value_terms(second)}
    fractions = list(_weights_and_amounts(first))
    assert not {id(q) for q in fractions} & {id(q) for q in _weights_and_amounts(second)}
    # endpoints are views of each set's own keys, so no load shares one
    assert not {id(q) for q in _endpoints(first)} & {id(q) for q in _endpoints(second)}


def _run_request_paths():
    """A tracking request (simulate, package, both reflections and both
    distortions), then a round trip of each golden document with
    propagation."""
    run = simulate_tracking(steps=60, dt=0.1, seed=3)
    info = tracking_information(run)
    metric = Metric("euclidean_on_values")
    distortion(info, kalman_reflection(run, info), metric)
    distortion(info, measurement_reflection(info), metric)
    source = MeasureProfile({MeasureKind.DELAY: 0, MeasureKind.VOLUME: 100})
    for path in sorted((Path(__file__).parent / "golden").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        doc = loads_document(text)
        for system in doc.systems:
            propagate(system, source)
        assert emit_document(doc) == text


def test_request_paths_build_no_endpoint_view(monkeypatch):
    """Tracking, and a document round trip with propagation, read only the
    integer keys of their time sets: none builds its Fraction endpoints."""
    built = []
    for name in ("intervals", "ray_from"):
        view = TimeSet.__dict__[name]
        count = lambda ts, name=name, real=view.func: built.append((name, ts)) or real(ts)
        monkeypatch.setattr(view, "func", count)
    _run_request_paths()
    assert built == []
    # each field is built once, on its own first read, and repr builds no more
    ts = TimeSet.from_intervals([(0, 1)], 3)
    assert ts.intervals == ((Fraction(0), Fraction(1)),)
    assert built == [("intervals", ts)]
    assert ts.ray_from == Fraction(3)
    assert built == [("intervals", ts), ("ray_from", ts)]
    repr(ts)
    assert built == [("intervals", ts), ("ray_from", ts)]


def test_request_paths_build_no_value_view(monkeypatch):
    """The same paths read only the integer terms of their scalar and
    vector values: none builds a value's Fraction body."""
    built = []
    real = isd.values._view
    monkeypatch.setattr(
        isd.values, "_view", lambda tag, terms: built.append(tag) or real(tag, terms)
    )
    _run_request_paths()
    assert built == []
    # the body is built once, on its first read, and repr, sort_key and
    # equality build none
    v = Value._from_terms("vector", ((1, 2), (-3, 1)))
    assert repr(v) == "Value.vector((Fraction(1, 2), Fraction(-3, 1)))"
    assert v == Value.vector(["1/2", -3]) and v.sort_key() < Value.vector([1]).sort_key()
    assert built == []
    assert v.body == (Fraction(1, 2), Fraction(-3)) and v.body is v.body
    assert built == ["vector"]


def test_golden_documents_load_with_no_endpoint_fraction(monkeypatch):
    """The loader builds every time set from its endpoints' integer terms
    and every scalar and vector value from its numbers' terms: it takes no
    Rational apart as ``TimeSet`` does, and the only Fractions it makes are
    weights and amounts."""
    made, taken_apart = [], []
    real = Fraction

    def fraction(*args):
        made.append(isd.document._loc(sys._getframe(1).f_locals["where"]))
        return real(*args)

    monkeypatch.setattr(isd.document, "Fraction", fraction)
    real_terms = isd.timeset._terms
    monkeypatch.setattr(
        isd.timeset, "_terms", lambda x: taken_apart.append(x) or real_terms(x)
    )
    real_view = isd.values._view
    monkeypatch.setattr(
        isd.values, "_view", lambda tag, terms: taken_apart.append(terms) or real_view(tag, terms)
    )
    for path in sorted((Path(__file__).parent / "golden").glob("*.json")):
        loads_document(path.read_text(encoding="utf-8"), source=path.name)
    assert any(".default_weight" in where for where in made)
    assert any(".amount" in where for where in made)
    others = [w for w in made if ".weights." not in w]
    assert [w for w in others if not w.endswith((".default_weight", ".amount"))] == []
    assert taken_apart == []


@pytest.mark.parametrize(
    "bad, message",
    [
        ("3/0", "bad rational '3/0' (Fraction(3, 0))"),
        ("1/2x", "bad rational '1/2x' (Invalid literal for Fraction: '1/2x')"),
        ("1/00", "bad rational '1/00' (Fraction(1, 0))"),
        ("nan", "bad rational 'nan' (Invalid literal for Fraction: 'nan')"),
        ("3/-6", "bad rational '3/-6' (Invalid literal for Fraction: '3/-6')"),
    ],
)
def test_bad_rational_deep_inside_keeps_its_location(bad, message):
    raw = json.loads(BUNDLED.read_text(encoding="utf-8"))
    # the lower endpoint "7/2" was parsed earlier in the document
    interval = raw["informations"][6]["reflections"][2]["at"]["intervals"][0]
    assert interval == ["7/2", "7/2"]
    interval[1] = bad
    raw["measures"][0]["default_weight"] = bad  # the same string again, later
    with pytest.raises(DocumentParseError) as exc:
        loads_document(json.dumps(raw), source="doc.json")
    assert str(exc.value) == (
        f"doc.json: informations[6].reflections[2].at.intervals[0][1]: {message}"
    )


# -- rationals too long to write back -------------------------------------------
#
# ``Fraction`` reads an exponent, so a short string can stand for a rational
# whose terms have more digits than ``str`` may write.  Loading refuses it
# where it stands, deciding a huge exponent before it is expanded, so
# violation messages never meet one; emission refuses one that a document
# built in code holds.


@pytest.mark.skipif(not _LIMIT, reason="this Python limits no int-to-str conversion")
@pytest.mark.parametrize(
    "mutate, where, text",
    [
        (
            lambda r: r["informations"][0]["states"][1].update(value={"scalar": "1e5000"}),
            "informations[0].states[1].value",
            "1e5000",
        ),
        (
            lambda r: r["informations"][0]["states"][0]["value"]["record"].update(
                pos={"vector": ["1", "1e-5000"]}
            ),
            "informations[0].states[0].value.pos",
            "1e-5000",
        ),
        (
            lambda r: r["informations"][0]["states"][0].update(
                at={"intervals": [["1e100000", "1e100001"]]}
            ),
            "informations[0].states[0].at.intervals[0][0]",
            "1e100000",
        ),
        (
            lambda r: r["informations"][0]["states"][1].update(value={"scalar": "-1e1000000"}),
            "informations[0].states[1].value",
            "-1e1000000",
        ),
        (
            lambda r: r["measures"][0]["weights"].update(lab="15e4999"),
            "measures[0].weights.lab",
            "15e4999",
        ),
        (
            lambda r: r["systems"][0]["stages"][0]["transforms"]["Delay"].update(
                amount="1e-5000"
            ),
            "systems[0].stages[0].transforms.Delay.amount",
            "1e-5000",
        ),
    ],
    ids=["value", "vector-in-record", "endpoint", "huge-exponent", "weight", "amount"],
)
def test_a_rational_too_long_to_write_is_refused_where_it_stands(mutate, where, text):
    with pytest.raises(DocumentParseError) as exc:
        loads_document(_patch(mutate), source="doc.json")
    assert str(exc.value) == (
        f"doc.json: {where}: bad rational {text!r} (a term has more than {_LIMIT} digits)"
    )


def test_a_long_rational_that_reduces_to_a_short_one_loads():
    doc = loads_document(
        _patch(lambda r: r["informations"][0]["states"][1].update(value={"scalar": "0e9999"}))
    )
    assert doc.information("probe").sorted_states()[1].value.body == 0


_HUGE_EXPONENT = "9" * 4000  # int reads it, and 10**it has no room in memory


@pytest.mark.skipif(not _LIMIT, reason="this Python limits no int-to-str conversion")
@pytest.mark.parametrize(
    "text, terms",
    [
        ("1e1000000", None),
        ("1e-1000000", None),
        ("-2.5e" + _HUGE_EXPONENT, None),
        ("1e-" + _HUGE_EXPONENT, None),
        ("0e1000000", (0, 1)),
        ("-0.00e" + _HUGE_EXPONENT, (0, 1)),
        (".0e-" + _HUGE_EXPONENT, (0, 1)),
    ],
)
def test_a_huge_exponent_is_settled_before_its_power_of_ten(text, terms):
    """``Fraction`` expands ``10**exp`` in full, which takes 0.3 s for
    "1e1000000" and never ends for an exponent of 4,000 digits; the loader
    settles each of these from the exponent's size and the mantissa's
    digits, before any power of ten."""
    start = time.perf_counter()
    if terms is None:
        with pytest.raises(DocumentParseError) as exc:
            _terms_from_json(text, "doc.json")
        assert str(exc.value) == (
            f"doc.json: bad rational {text!r} (a term has more than {_LIMIT} digits)"
        )
    else:
        assert _terms_from_json(text, "doc.json") == terms
    assert time.perf_counter() - start < 0.05


_exponent_spellings = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", "-", "+", " "]),
    st.from_regex(r"[0-9]{0,4}", fullmatch=True),
    st.sampled_from(["", "."]) | st.from_regex(r"\.[0-9]{1,4}", fullmatch=True),
    st.sampled_from(["e", "E", "e+", "e-", "E-0", "e_"]),
    st.integers(0, (_LIMIT or 4300) + 10).map(str),
)


@given(
    _exponent_spellings
    | st.sampled_from(
        ["1_0e4_299", "1_0e4_300", "\u0661e4300", "\u0660e9999", "1.de5", " 1e4300 ", ".5e-4300"]
    )
)
@settings(max_examples=300, deadline=None)
@example("1e" + str(_LIMIT - 1))
@example("10e" + str(_LIMIT - 1))
@example("5e-" + str(_LIMIT))
@example("0.5e-" + str(_LIMIT - 1))
def test_exponent_parse_matches_the_seed_parse_and_refusal(s):
    """Near the int-to-str limit, where the exponent check decides, the
    parse gives the terms or the refusal text of ``Fraction(s)`` followed
    by the check that each term can be written."""
    try:
        want = reference_document.written_rational_terms(s, "doc.json")
    except DocumentParseError as e:
        with pytest.raises(DocumentParseError) as exc:
            _terms_from_json(s, "doc.json")
        assert str(exc.value) == str(e)
    else:
        assert _terms_from_json(s, "doc.json") == want


@pytest.mark.parametrize("s", ["1e3", "-2.5E-3", "0e9999", "1e" + str(_LIMIT or 4300), "1.de5"])
def test_without_the_fractions_grammar_fraction_decides(monkeypatch, s):
    """``fractions._RATIONAL_FORMAT`` is private; a Python without it, or
    without the groups the exponent check reads, still loads and refuses
    every spelling as ``Fraction(s)`` and the length check do."""
    monkeypatch.setattr(isd.document, "_RATIONAL_FORMAT", None)
    try:
        want = reference_document.written_rational_terms(s, "doc.json")
    except DocumentParseError as e:
        with pytest.raises(DocumentParseError) as exc:
            _terms_from_json(s, "doc.json")
        assert str(exc.value) == str(e)
    else:
        assert _terms_from_json(s, "doc.json") == want


# -- the endpoint parse against the seed's --------------------------------------

_SPELLINGS = [
    "+1", " 1", "1 ", "1_0", "0.5", "1e3", "2/4", "-0", "-0/7", "007/010", "1/0", "1/00",
    "3/-6", "-3/6", "--1", "1/2/3", "/2", "1/", "١", "²", "", "-", "nan", "inf",
    "9" * (_LIMIT or 4300) + "1", "1/" + "9" * (_LIMIT or 4300) + "1",
]


@given(
    st.from_regex(r"-?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True)
    | st.sampled_from(_SPELLINGS)
    | st.text(st.sampled_from("0123456789-/+._ ١²"), max_size=12)
)
@settings(max_examples=400, deadline=None)
@example("17/4")
def test_endpoint_parse_matches_the_seed_parse(s):
    try:
        want = reference_document.rational_terms(s, "doc.json")
    except DocumentParseError as e:
        with pytest.raises(DocumentParseError) as exc:
            _terms_from_json(s, "doc.json")
        assert str(exc.value) == str(e)
    else:
        assert _terms_from_json(s, "doc.json") == want


# -- the element writer ---------------------------------------------------------

values = st.recursive(
    st.one_of(
        json_text.filter(bool).map(Value.symbol),
        st.fractions().map(Value.scalar),
        st.lists(st.fractions(), max_size=3).map(Value.vector),
    ),
    lambda inner: st.dictionaries(json_text, inner, max_size=3).map(Value.record),
    max_leaves=8,
)


@given(values, st.sampled_from(["ghost", 'gh"o\\st', "gést\U0001f600"]))
@settings(max_examples=100, deadline=None)
def test_element_writer_writes_the_seed_schema(value, ghost):
    raw = json.loads(SYNTHETIC)
    raw["entities"][1]["id"] = ghost
    info = raw["informations"][0]
    info["ontology"] = info["states"][0]["subject"] = info["states"][1]["subject"] = [ghost]
    info["states"][0]["value"] = reference_document.value_to_json(value)
    doc = loads_document(json.dumps(raw))
    text = emit_document(doc)
    tree = document_to_json(doc)
    assert text == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
    state = tree["informations"][0]["states"][0]
    assert state == {
        "subject": [ghost],
        "at": {"intervals": [["0", "0"]]},
        "value": reference_document.value_to_json(value),
    }
    assert loads_document(text).information("probe").sorted_states()[0].value == value
