"""Built-in worked scenarios.

news_pipeline: three interview items (a portrait, a recorded statement,
and an opinion held in someone's head) travel through a seven-link chain
from capture to the living room.  Every link is reducible, every handoff
is exact, and the per-link delays sum to the collapsed end-to-end delay.
"""

from __future__ import annotations

from fractions import Fraction

from .dynamics import (
    MeasureKind,
    MeasureProfile,
    MeasureTransform,
    Shape,
    StageKind,
    StageSpec,
    SystemConfig,
    propagate,
)
from .document import BoundRelation, ModelDocument, NamedChain
from .errors import UnknownScenarioError
from .measures import (
    MeasureAssignment,
    Relation,
    delay,
    variety,
    volume,
)
from .model import (
    Element,
    Information,
    SerialChain,
    check_chain,
    collapse_chain,
)
from .report import Report
from .timeset import TimeSet
from .values import EntityId, Value, objective, subjective

# One atom per content item per link.  Each row is
# (item key, capture subject, capture time, raw value).
_ITEMS = (
    ("img", "alice", Fraction(0), "alice_portrait"),
    ("aud", "bob", Fraction(1), "bob_statement"),
    ("opn", "alice_mind", Fraction(2), "alice_opinion"),
)

# (link name, stage kind, carrier ids, per-link delay, value transform)
_LINKS = (
    ("capture", StageKind.COLLECTION, ("camera", "recorder", "notebook"), Fraction(1), "capture"),
    ("uplink", StageKind.TRANSMISSION, ("internet",), Fraction(1, 2), None),
    ("ingest", StageKind.PROCESSING, ("processor",), Fraction(3, 2), "edit"),
    ("archive", StageKind.DATA_SPACE, ("news_db",), Fraction(24), "stored"),
    ("produce", StageKind.PROCESSING, ("studio",), Fraction(1), "cut"),
    ("broadcast", StageKind.TRANSMISSION, ("network_feed",), Fraction(1, 2), None),
    ("deliver", StageKind.EXERTION, ("tv", "radio", "phone"), Fraction(3, 2), "aired"),
)

_CAPTURE_FORMAT = {"img": "jpg", "aud": "wav", "opn": "txt"}


def _transform(kind: str | None, item: str, text: str) -> str:
    if kind is None:
        return text
    if kind == "capture":
        return f"{text}.{_CAPTURE_FORMAT[item]}"
    return f"{kind}({text})"


def link_delays() -> tuple[Fraction, ...]:
    return tuple(d for _, _, _, d, _ in _LINKS)


def _build_links() -> list[Information]:
    # Running state per item: (subject ids, time, value text).
    heads: dict[str, tuple[frozenset[EntityId], Fraction, str]] = {}
    for item, subject, t, raw in _ITEMS:
        realm = subjective if subject.endswith("_mind") else objective
        heads[item] = (frozenset({realm(subject)}), t, raw)

    links = []
    for name, _, carrier_ids, d, vt in _LINKS:
        carriers = tuple(objective(c) for c in carrier_ids)
        pairs = []
        next_heads = {}
        for i, (item, *_rest) in enumerate(_ITEMS):
            subj, t, text = heads[item]
            # Dedicated device per item when the link fans out, else the
            # single shared carrier.
            part = frozenset({carriers[i] if len(carriers) == 3 else carriers[0]})
            out_text = _transform(vt, item, text)
            s = Element(subj, TimeSet.point(t), Value.symbol(text))
            r = Element(part, TimeSet.point(t + d), Value.symbol(out_text))
            pairs.append((s, r))
            next_heads[item] = (part, t + d, out_text)
        links.append(Information.from_pairs(name, pairs))
        heads = next_heads
    return links


def _newsroom_system() -> SystemConfig:
    f = Fraction
    stage_specs = []
    for name, kind, _, d, _ in _LINKS:
        transforms = {MeasureKind.DELAY: MeasureTransform.add(d)}
        if name == "capture":
            transforms[MeasureKind.VOLUME] = MeasureTransform.set_to(f(3))
            transforms[MeasureKind.VARIETY] = MeasureTransform.set_to(f(3))
            transforms[MeasureKind.SCOPE] = MeasureTransform.set_to(f(3))
            transforms[MeasureKind.DURATION] = MeasureTransform.set_to(f(2))
            transforms[MeasureKind.SAMPLING_RATE] = MeasureTransform.set_to(f(1))
        if name == "archive":
            transforms[MeasureKind.COVERAGE] = MeasureTransform.set_to(f(1))
        stage_specs.append(StageSpec(name, kind, transforms))
    return SystemConfig("newsroom", tuple(stage_specs), Shape.FULL_TRIPLE_RING_CORE)


def build_news_pipeline() -> ModelDocument:
    links = _build_links()
    capture = links[0]
    ordered = capture.sorted_states()
    by_item = {}
    for s in ordered:
        (subject,) = s.entities
        by_item[subject.id] = s
    # Alice's portrait and Alice's opinion trace back to the same person.
    a, m, b = by_item["alice"], by_item["alice_mind"], by_item["bob"]
    same_source = Relation(
        "same_source",
        frozenset({(a, a), (m, m), (a, m), (m, a), (b, b)}),
        declared_equivalence=True,
    )
    return ModelDocument(
        entities=tuple(
            sorted(
                frozenset().union(
                    *(info.ontology | info.carrier for info in links)
                ),
                key=EntityId.sort_key,
            )
        ),
        informations=tuple(links),
        measures=(MeasureAssignment.counting("unit"),),
        relations=(BoundRelation("capture", same_source),),
        systems=(_newsroom_system(),),
        chains=(
            NamedChain(
                "news_path",
                tuple(info.name for info in links),
                SerialChain(tuple(links)),
            ),
        ),
    )


def run_news_pipeline() -> Report:
    doc = build_news_pipeline()
    chain = doc.chain("news_path").chain
    mu = doc.measure("unit")
    sigma = mu

    report = Report("scenario: news_pipeline")
    report.stamp("scenario", "news_pipeline")
    report.stamp("links", len(chain.links))

    ok = True
    problems = check_chain(chain)
    handoffs = not problems
    if problems:
        ok = False
        sec = report.section("handoff problems")
        for v in problems:
            sec.say(v.message)

    links_sec = report.section("links")
    total = Fraction(0)
    for info in chain.links:
        d = delay(info)
        total += d
        links_sec.add(f"{info.name} delay", d, note=f"volume {volume(info, sigma)}")

    end = report.section("end to end")
    end.add("handoffs consistent", handoffs)
    if handoffs:
        collapsed = collapse_chain(chain)
        d_end = delay(collapsed)
        end.add("sum of link delays", total)
        end.add("collapsed delay", d_end)
        additive = d_end == total
        end.add("delays additive", additive)
        ok = ok and additive
        bound = doc.bound_relation("same_source")
        end.add(
            "capture variety (same_source)",
            variety(chain.links[0], bound.relation),
        )

    sys_sec = report.section("system")
    system = doc.system("newsroom")
    result = propagate(system, MeasureProfile({}))
    sys_sec.add("configuration", system.name, note=system.shape.value)
    sys_sec.add("propagated delay", result.end[MeasureKind.DELAY])
    matches = result.end[MeasureKind.DELAY] == total
    sys_sec.add("matches chain delay", matches)
    for w in result.warnings:
        sys_sec.say(f"warning: {w}")
    ok = ok and matches

    report.ok = ok
    return report


SCENARIOS = {"news_pipeline": run_news_pipeline}


def run_scenario(name: str) -> Report:
    try:
        runner = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise UnknownScenarioError(
            f"unknown scenario {name!r} (available: {known})"
        ) from None
    return runner()
