"""Structural algebra: validation, inversion, chains, sub-information,
combination, atoms, copies."""

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction

import pytest

import isd.model
import isd.timeset

from isd.errors import (
    ChainMismatchError,
    CombineConflictError,
    InvalidInformationError,
    NonInvertibleError,
)
from isd.model import (
    Information,
    RawMapping,
    ReflectionElement,
    SerialChain,
    StateElement,
    atoms,
    check_chain,
    check_link,
    collapse_chain,
    combine,
    compose,
    invert,
    is_copy,
    is_reducible,
    is_sub_information,
    reduction_map,
    validate,
)
from isd.measures import MISMATCH_COMPONENTS
from isd.timeset import TimeSet
from isd.values import EntityId, Realm, Value, objective, subjective
from isd.verify import random_chain

from conftest import lossy_info, two_atom_info


def test_valid_info_has_no_violations(pair_info):
    assert validate(pair_info) == []


def test_subjective_carrier_rejected():
    a = objective("a")
    ghost = subjective("ghost")
    s = StateElement({a}, TimeSet.point(0), Value.scalar(1))
    r = ReflectionElement({ghost}, TimeSet.point(1), Value.scalar(1))
    info = Information(
        "bad", {a}, TimeSet.point(0), {s}, {ghost}, TimeSet.point(1), {r}, [(s, r)]
    )
    messages = [v.message for v in validate(info)]
    assert any(m == "carrier not objective: ghost" for m in messages)


def test_subjective_ontology_allowed():
    mind = subjective("mind")
    cam = objective("cam")
    s = StateElement({mind}, TimeSet.point(0), Value.symbol("idea"))
    r = ReflectionElement({cam}, TimeSet.point(1), Value.symbol("note"))
    info = Information(
        "memoir", {mind}, TimeSet.point(0), {s}, {cam}, TimeSet.point(1), {r}, [(s, r)]
    )
    assert validate(info) == []


@pytest.mark.parametrize(
    "args, message",
    [
        (("a", "objective"), "entity realm must be a Realm, got 'objective'"),
        ((5,), "entity id must be a str, got 5"),
        ((None,), "entity id must be a str, got None"),
    ],
)
def test_entity_id_refuses_wrong_types(args, message):
    """A plain string realm would make a non-objective carrier, and a
    non-string id would break the sorted document emission."""
    with pytest.raises(TypeError) as caught:
        EntityId(*args)
    assert str(caught.value) == message


def test_entity_id_equality_hash_and_copies():
    """``__eq__`` is written by hand; equality, the hash, the repr, pickling
    and ``dataclasses.replace`` behave as the generated ones did."""
    x = objective("x")
    twin = EntityId("x")
    assert x == twin and x is not twin and not (x != twin)
    assert objective("x") != subjective("x") and objective("x") != objective("y")
    assert x != ("x", Realm.OBJECTIVE) and x != "x"
    assert hash(x) == hash(twin) == hash(("x", Realm.OBJECTIVE))
    assert repr(subjective("x")) == "EntityId(id='x', realm=<Realm.SUBJECTIVE: 'subjective'>)"
    assert pickle.loads(pickle.dumps(subjective("x"))) == subjective("x")
    assert dataclasses.replace(x, realm=Realm.SUBJECTIVE) == subjective("x")
    assert {x, twin, subjective("x")} == {subjective("x"), x}


def test_totality_and_surjectivity_reported():
    a, cam = objective("a"), objective("cam")
    s1 = StateElement({a}, TimeSet.point(0), Value.scalar(1))
    s2 = StateElement({a}, TimeSet.point(1), Value.scalar(2))
    r1 = ReflectionElement({cam}, TimeSet.point(2), Value.scalar(1))
    r2 = ReflectionElement({cam}, TimeSet.point(3), Value.scalar(2))
    partial = Information(
        "partial",
        {a},
        TimeSet.from_points([0, 1]),
        {s1, s2},
        {cam},
        TimeSet.from_points([2, 3]),
        {r1, r2},
        [(s1, r1)],
    )
    codes = {v.code for v in validate(partial)}
    assert "mapping-not-total" in codes
    assert "mapping-not-surjective" in codes


def test_two_reflections_for_one_state_rejected_at_construction():
    a, cam = objective("a"), objective("cam")
    s = StateElement({a}, TimeSet.point(0), Value.scalar(1))
    r1 = ReflectionElement({cam}, TimeSet.point(1), Value.scalar(1))
    r2 = ReflectionElement({cam}, TimeSet.point(2), Value.scalar(2))
    with pytest.raises(ValueError):
        Information(
            "multi",
            {a},
            TimeSet.point(0),
            {s},
            {cam},
            TimeSet.from_points([1, 2]),
            {r1, r2},
            [(s, r1), (s, r2)],
        )


def test_containment_violations():
    a, b, cam = objective("a"), objective("b"), objective("cam")
    s = StateElement({b}, TimeSet.point(5), Value.scalar(1))
    r = ReflectionElement({cam}, TimeSet.point(6), Value.scalar(1))
    info = Information(
        "loose", {a}, TimeSet.point(0), {s}, {cam}, TimeSet.point(6), {r}, [(s, r)]
    )
    codes = {v.code for v in validate(info)}
    assert "state-subject-outside-ontology" in codes
    assert "state-time-outside-occurrence" in codes


def test_name_excluded_from_equality(pair_info):
    again = two_atom_info(name="other label")
    assert pair_info == again
    assert hash(pair_info) == hash(again)


def test_reducibility(pair_info):
    assert is_reducible(pair_info)
    assert not is_reducible(lossy_info())


def test_invert_roundtrip(pair_info):
    back = invert(invert(pair_info))
    assert back == pair_info
    assert isinstance(back, Information)


def test_invert_into_subjective_ontology_stays_raw():
    mind = subjective("mind")
    cam = objective("cam")
    s = StateElement({mind}, TimeSet.point(0), Value.symbol("idea"))
    r = ReflectionElement({cam}, TimeSet.point(1), Value.symbol("note"))
    info = Information(
        "memoir", {mind}, TimeSet.point(0), {s}, {cam}, TimeSet.point(1), {r}, [(s, r)]
    )
    inv = invert(info)
    assert isinstance(inv, RawMapping)
    assert invert(inv) == info


def test_raw_link_is_exempt_in_chains_as_in_compose():
    mind, cam = subjective("mind"), objective("cam")
    s = StateElement({mind}, TimeSet.point(0), Value.symbol("idea"))
    r = ReflectionElement({cam}, TimeSet.point(1), Value.symbol("note"))
    memoir = Information(
        "memoir", {mind}, TimeSet.point(0), {s}, {cam}, TimeSet.point(1), {r}, [(s, r)]
    )
    inv = invert(memoir)
    assert isinstance(inv, RawMapping)
    nxt = _follow_on(inv)
    chain = SerialChain((inv, nxt))
    assert check_chain(chain) == []
    whole = collapse_chain(chain)
    assert whole == compose(inv, nxt)
    assert not getattr(whole, "_known_valid", False)


def test_invert_requires_injectivity():
    with pytest.raises(NonInvertibleError):
        invert(lossy_info())


def test_reduction_map_recovers_states(pair_info):
    m = reduction_map(pair_info)
    assert set(m.values()) == set(pair_info.states)


def _follow_on(info):
    """A second link that stores ``info``'s reflections on a disk."""
    states = [StateElement(r.carrier_part, r.at, r.value) for r in info.reflections]
    disk = objective("disk")
    pairs = [(s, ReflectionElement({disk}, s.at.shift(1), s.value)) for s in states]
    return Information(
        "store",
        info.carrier,
        info.reflection_time,
        states,
        {disk},
        info.reflection_time.shift(1),
        [r for _, r in pairs],
        pairs,
    )


def _as_raw(info):
    return RawMapping(
        info.name,
        info.ontology,
        info.occurrence,
        info.states,
        info.carrier,
        info.reflection_time,
        info.reflections,
        info.mapping,
    )


def test_check_link_and_compose(pair_info):
    nxt = _follow_on(pair_info)
    assert check_link(pair_info, nxt) == []
    composed = compose(pair_info, nxt)
    assert composed.states == pair_info.states
    assert composed.carrier == {objective("disk")}
    assert len(composed.mapping) == 2

    with pytest.raises(ChainMismatchError):
        compose(nxt, pair_info)


def test_chain_collapse_matches_pairwise_compose(pair_info):
    nxt = _follow_on(pair_info)
    chain = SerialChain((pair_info, nxt))
    assert check_chain(chain) == []
    assert collapse_chain(chain) == compose(pair_info, nxt)


def test_chain_validates_each_link_once(monkeypatch):
    # unmarked copies: random_chain builds its links already validated
    links = random_chain(random.Random(7), n_links=8).links
    chain = SerialChain(tuple(dataclasses.replace(link) for link in links))
    calls = []
    real = isd.model.validate

    def counting(info):
        calls.append(info.name)
        return real(info)

    monkeypatch.setattr(isd.model, "validate", counting)
    assert check_chain(chain) == []
    whole = collapse_chain(chain)
    assert calls == [link.name for link in chain.links]
    assert whole._known_valid


def test_from_pairs_needs_a_pair():
    with pytest.raises(ValueError, match="at least one pair"):
        Information.from_pairs("empty", [])


def test_composite_of_raw_link_not_marked_valid(pair_info):
    nxt = _follow_on(pair_info)
    assert compose(pair_info, nxt)._known_valid
    raw = _as_raw(pair_info)
    assert not getattr(compose(raw, nxt), "_known_valid", False)
    assert not getattr(collapse_chain(SerialChain((raw, nxt))), "_known_valid", False)


def test_composite_past_a_raw_link_not_marked_valid(pair_info):
    """Links A, raw B, C: B's mapping never reaches its third reflection,
    and C carries that reflection on, so A*B*C is not onto."""
    store = _follow_on(pair_info)
    disk = objective("disk")
    spare = ReflectionElement({disk}, TimeSet.point(9), Value.symbol("spare"))
    raw = RawMapping(
        "lossy-store",
        store.ontology,
        store.occurrence,
        store.states,
        store.carrier,
        store.reflection_time.union(spare.at),
        store.reflections | {spare},
        store.mapping,
    )
    assert "mapping-not-surjective" in {v.code for v in validate(raw)}
    archive = _follow_on(raw)
    chain = SerialChain((pair_info, raw, archive))
    assert check_chain(chain) == []
    whole = collapse_chain(chain)
    assert not getattr(whole, "_known_valid", False)
    assert "mapping-not-surjective" in {v.code for v in validate(whole)}
    with pytest.raises(InvalidInformationError, match="never reached"):
        whole.sorted_states()


def test_raw_mapping_differs_from_information(pair_info):
    raw = _as_raw(pair_info)
    assert raw != pair_info
    assert raw.map == pair_info.map
    assert repr(raw).startswith("RawMapping(name='pair', ontology=")
    assert raw.promote() == pair_info


def test_chain_mismatch_detected(pair_info):
    other = lossy_info()
    problems = check_chain(SerialChain((pair_info, other)))
    assert problems
    with pytest.raises(ChainMismatchError):
        collapse_chain(SerialChain((pair_info, other)))


@pytest.mark.parametrize("cls", [Information, RawMapping, SerialChain])
def test_the_mark_is_one_declared_field(cls):
    mark = {f.name: f for f in dataclasses.fields(cls)}["_known_valid"]
    assert (mark.default, mark.init, mark.compare, mark.repr) == (False,) * 4


def test_a_checked_chain_is_not_checked_again(monkeypatch):
    chain = random_chain(random.Random(7), n_links=8)
    calls = _counting(monkeypatch, "check_link")
    assert check_chain(chain) == []
    collapse_chain(chain)
    assert len(calls) == 7
    # a replace copy carries no mark, so its hand-offs are checked again
    copy = dataclasses.replace(chain)
    assert not copy._known_valid
    assert check_chain(copy) == []
    assert len(calls) == 14


def test_a_broken_chain_is_never_marked(pair_info):
    chain = SerialChain((pair_info, lossy_info()))
    problems = check_chain(chain)
    assert problems and check_chain(chain) == problems
    for _ in range(2):
        with pytest.raises(ChainMismatchError, match=re.escape(problems[0].message)):
            collapse_chain(chain)
    assert not chain._known_valid


def test_the_chain_mark_is_not_part_of_the_value():
    chain = random_chain(random.Random(3), n_links=3)
    copy = dataclasses.replace(chain)
    assert check_chain(chain) == [] and chain._known_valid and not copy._known_valid
    assert chain == copy
    assert repr(chain) == repr(copy)
    assert hash(chain) == hash(copy)


def test_map_is_the_mapping_built_on_first_read(pair_info):
    # elements refuse to unpickle (their hashes hold per process), so an
    # information is copied, not pickled
    for info in (dataclasses.replace(pair_info), Information.from_pairs("p", pair_info.mapping)):
        assert "map" not in vars(info)
        assert list(info.map.items()) == list(info.mapping)
        assert "map" in vars(info)
        assert info.map is info.map
        assert copy.copy(info).map is info.map
        assert "map" not in vars(dataclasses.replace(info))


def test_from_pairs_of_time_ordered_pairs_takes_the_normal_form(monkeypatch):
    # the unions follow the canonical mapping, not set order, so point
    # times that arrive in order need no sort and merge
    cam, disk = objective("cam"), objective("disk")
    pairs = [
        (
            StateElement({cam}, TimeSet.point(t), Value.scalar(t)),
            ReflectionElement({disk}, TimeSet.point(Fraction(2 * t + 1, 2)), Value.scalar(t)),
        )
        for t in range(60)
    ]
    calls = []
    real = isd.timeset._merged
    monkeypatch.setattr(isd.timeset, "_merged", lambda *args: calls.append(1) or real(*args))
    info = Information.from_pairs("track", reversed(pairs))
    assert calls == []
    assert info.occurrence == TimeSet.union(*(s.at for s, _ in pairs))
    assert info.reflection_time == TimeSet.union(*(r.at for _, r in pairs))


def test_sub_information(pair_info):
    (first, second) = atoms(pair_info)
    part = first.lift("part")
    is_sub, proper = is_sub_information(part, pair_info)
    assert is_sub and proper
    assert is_sub_information(pair_info, pair_info) == (True, False)
    foreign = lossy_info()
    assert is_sub_information(foreign, pair_info) == (False, False)


def test_combine_atoms_rebuilds(pair_info):
    first, second = (a.lift() for a in atoms(pair_info))
    assert combine(first, second) == pair_info


def test_raw_mapping_is_a_sub_information(pair_info):
    # a RawMapping had no components(), so this raised AttributeError
    raw = _as_raw(pair_info)
    assert raw.components() == pair_info.components()
    assert is_sub_information(raw, pair_info) == (True, False)
    assert is_sub_information(pair_info, raw) == (True, False)


def test_components_are_the_fields_in_order(pair_info):
    names = ("ontology", "occurrence", "states", "carrier", "reflection_time", "reflections")
    assert tuple(f.name for f in dataclasses.fields(Information))[1:7] == names
    assert isd.model.COMPONENTS == MISMATCH_COMPONENTS == names
    assert pair_info.components() == tuple(getattr(pair_info, n) for n in names)


def _counting(monkeypatch, name):
    """The names of the values passed to ``isd.model.<name>`` from now on."""
    calls = []
    real = getattr(isd.model, name)

    def counting(arg, *rest):
        calls.append(getattr(arg, "name", arg))
        return real(arg, *rest)

    monkeypatch.setattr(isd.model, name, counting)
    return calls


def test_combine_of_checked_parts_is_never_validated(monkeypatch, pair_info):
    # unmarked copies of the atoms, so each is validated once by combine
    first, second = (dataclasses.replace(a.lift(f"a{i}")) for i, a in enumerate(atoms(pair_info)))
    calls = _counting(monkeypatch, "validate")
    whole = combine(first, second)
    assert calls == ["a0", "a1"]
    assert whole._known_valid and whole == pair_info
    nxt = _follow_on(pair_info)
    built = [
        compose(whole, nxt),
        collapse_chain(SerialChain((whole, nxt))),
        combine(whole, first),
    ]
    assert is_sub_information(first, whole) == (True, True)
    assert atoms(whole) == atoms(pair_info)
    assert calls == ["a0", "a1", "store"]
    assert all(b._known_valid for b in built)


def test_combine_with_a_raw_side_is_not_marked(pair_info):
    first, second = (a.lift() for a in atoms(pair_info))
    whole = combine(_as_raw(first), second)
    assert type(whole) is Information and whole == pair_info
    assert not getattr(whole, "_known_valid", False)
    assert not getattr(dataclasses.replace(combine(first, second)), "_known_valid", False)


def test_invert_sorts_the_mapping_once(monkeypatch, pair_info):
    # promote used to rebuild the inverse through the public constructor,
    # which sorted the already sorted mapping again
    calls = _counting(monkeypatch, "_normalize_pairs")
    back = invert(pair_info)
    assert type(back) is Information and back._known_valid
    assert len(calls) == 1


def test_combine_conflict():
    a, cam = objective("a"), objective("cam")
    s = StateElement({a}, TimeSet.point(0), Value.scalar(1))
    r1 = ReflectionElement({cam}, TimeSet.point(1), Value.scalar(1))
    r2 = ReflectionElement({cam}, TimeSet.point(2), Value.scalar(2))
    one = Information(
        "one", {a}, TimeSet.point(0), {s}, {cam}, TimeSet.point(1), {r1}, [(s, r1)]
    )
    other = Information(
        "other", {a}, TimeSet.point(0), {s}, {cam}, TimeSet.point(2), {r2}, [(s, r2)]
    )
    with pytest.raises(CombineConflictError):
        combine(one, other)


def test_atoms_canonical_order(pair_info):
    ats = atoms(pair_info)
    assert [a.state.sort_key() for a in ats] == sorted(
        a.state.sort_key() for a in ats
    )


def test_is_copy(pair_info):
    mirror_carrier = objective("mirror")
    mirrored = Information(
        "mirror",
        pair_info.ontology,
        pair_info.occurrence,
        pair_info.states,
        {mirror_carrier},
        pair_info.reflection_time.shift(10),
        {
            ReflectionElement({mirror_carrier}, r.at.shift(10), r.value)
            for r in pair_info.reflections
        },
        [
            (s, ReflectionElement({mirror_carrier}, r.at.shift(10), r.value))
            for s, r in pair_info.mapping
        ],
    )
    assert is_copy(pair_info, mirrored)
    assert not is_copy(pair_info, lossy_info())


def test_promote_rejects_invalid():
    a = objective("a")
    ghost = subjective("ghost")
    s = StateElement({a}, TimeSet.point(0), Value.scalar(1))
    r = ReflectionElement({ghost}, TimeSet.point(1), Value.scalar(1))
    raw = RawMapping(
        "raw", {a}, TimeSet.point(0), {s}, {ghost}, TimeSet.point(1), {r}, [(s, r)]
    )
    with pytest.raises(InvalidInformationError):
        raw.promote()


def test_values_structural_equality():
    assert Value.vector([1, 2]) == Value.vector([Fraction(1), Fraction(2)])
    assert Value.record({"x": Value.scalar(1), "y": Value.symbol("k")}) == Value.record(
        {"y": Value.symbol("k"), "x": Value.scalar(1)}
    )
    assert Value.scalar("1/3").numeric_components() == (Fraction(1, 3),)
    with pytest.raises(ValueError):
        Value.symbol("").sort_key()


@pytest.mark.parametrize(
    "entries",
    [
        {1: Value.symbol("a")},
        {"k": Value.symbol("a"), 1: Value.symbol("b")},
        {None: Value.scalar(0)},
    ],
    ids=["int", "mixed", "none"],
)
def test_record_keys_must_be_strings(entries):
    # a document cannot write such a record, and mixed keys cannot be sorted
    with pytest.raises(TypeError, match="^record keys must be strings$"):
        Value.record(entries)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Value.scalar(True),
        lambda: Value.vector([True, False]),
        lambda: TimeSet.point(True),
        lambda: TimeSet.from_intervals([(False, 1)]),
    ],
    ids=["scalar", "vector", "point", "interval"],
)
def test_a_bool_is_not_a_rational(build):
    # a bool is an int, so each of these read True as 1 and False as 0
    with pytest.raises(TypeError, match="^not a rational value: (True|False)$"):
        build()
