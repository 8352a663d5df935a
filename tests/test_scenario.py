"""The bundled newsroom walkthrough."""

from fractions import Fraction
from pathlib import Path

import pytest

import isd
from isd.document import emit_document
from isd.dynamics import Shape
from isd.errors import UnknownScenarioError
from isd.measures import delay
from isd.model import check_chain, collapse_chain
from isd.scenario import (
    SCENARIOS,
    build_news_pipeline,
    link_delays,
    run_news_pipeline,
    run_scenario,
)


def test_pipeline_document_structure():
    doc = build_news_pipeline()
    assert len(doc.informations) == 7
    chain = doc.chain("news_path")
    assert len(chain.chain.links) == 7
    assert check_chain(chain.chain) == []
    assert doc.system("newsroom").shape is Shape.FULL_TRIPLE_RING_CORE


@pytest.mark.parametrize(
    "path",
    [
        Path(isd.__file__).parent / "data" / "news_pipeline.json",
        Path(__file__).parent / "golden" / "news_pipeline.json",
    ],
    ids=["bundled", "golden"],
)
def test_committed_document_is_the_builder_output(path):
    """``scripts/regenerate_data.py`` writes this text; the committed copies
    must be exactly what it would write now."""
    assert emit_document(build_news_pipeline()).encode("utf-8") == path.read_bytes()


def test_handoff_identities():
    doc = build_news_pipeline()
    links = [doc.information(n) for n in doc.chain("news_path").link_names]
    for first, second in zip(links, links[1:]):
        assert first.carrier == second.ontology
        assert first.reflection_time == second.occurrence
        handed = {(r.carrier_part, r.at, r.value) for r in first.reflections}
        taken = {(s.subject, s.at, s.value) for s in second.states}
        assert handed == taken


def test_link_delays_sum():
    delays = link_delays()
    assert len(delays) == 7
    assert sum(delays) == 30
    doc = build_news_pipeline()
    links = [doc.information(n) for n in doc.chain("news_path").link_names]
    assert [delay(l) for l in links] == list(delays)
    assert delay(collapse_chain(doc.chain("news_path").chain)) == Fraction(30)


def test_run_news_pipeline_report():
    report = run_news_pipeline()
    assert report.ok
    text = report.to_text(color=False)
    assert "delays additive" in text
    assert "true" in text


def test_run_scenario_dispatch():
    assert "news_pipeline" in SCENARIOS
    assert run_scenario("news_pipeline").ok
    with pytest.raises(UnknownScenarioError, match="news_pipeline"):
        run_scenario("cooking_show")
