"""The four workloads: how each turns plain inputs into program objects,
what one timed request calls, and how its result is checked.

A workload object offers

- ``make(i)``: the plain input of request ``i`` (no ``isd`` objects);
- ``build(plain)``: program objects for one request, all newly made;
- ``request(objs, tr)``: the timed calls, each wrapped by ``tr.call``;
- ``check(plain, objs, out, counts)``: a list of problems (empty when
  the result is right), adding the workload's counters to ``counts``;
- ``inputs(objs)`` / ``outputs(out)``: the stateful program objects a
  request receives and returns, for the fresh-object guard;
- ``period``: how many requests pass before plain inputs repeat.

``resident()`` builds state that lives for the whole run; only
``library_search`` has any, and only it has ``instrument(tracer)``, which
gives the search's internal ``mismatch`` calls spans of their own.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

import numpy as np

import isd.oracles.search
from isd.document import emit_document, loads_document
from isd.dynamics import MeasureKind, MeasureProfile, propagate
from isd.measures import Metric, delay, distortion, mismatch
from isd.model import (
    Information,
    ReflectionElement,
    SerialChain,
    StateElement,
    check_chain,
    collapse_chain,
    require_valid,
)
from isd.oracles import (
    SearchLibrary,
    kalman_reflection,
    measurement_reflection,
    min_mismatch_search,
    simulate_tracking,
    tracking_information,
)
from isd.timeset import TimeSet
from isd.values import EntityId, Value

import inputs


class StaleInputError(RuntimeError):
    """A request was handed an object an earlier request already touched."""


class FreshGuard:
    """Refuses request inputs that an earlier request or warm-up touched,
    or whose validation is already cached (``require_valid`` marks a
    clean information ``_known_valid`` and never checks it again)."""

    def __init__(self):
        self._touched: dict[int, weakref.ref] = {}

    def admit(self, objs) -> None:
        for o in objs:
            ref = self._touched.get(id(o))
            if ref is not None and ref() is o:
                raise StaleInputError(f"{type(o).__name__} reused across requests")
            if getattr(o, "_known_valid", False):
                raise StaleInputError(f"{type(o).__name__} arrives already validated")

    def retire(self, objs) -> None:
        for o in objs:
            self._touched[id(o)] = weakref.ref(o)


# -- plain data -> program objects ---------------------------------------------


def _timeset(pairs) -> TimeSet:
    return TimeSet.from_intervals(pairs)


def _value(tagged) -> Value:
    tag, body = tagged
    return Value.scalar(body) if tag == "scalar" else Value.symbol(body)


def build_information(plain: dict) -> Information:
    pairs = []
    for s, r in plain["pairs"]:
        state = StateElement(frozenset(map(EntityId, s["ids"])), _timeset(s["at"]), _value(s["value"]))
        refl = ReflectionElement(
            frozenset(map(EntityId, r["ids"])), _timeset(r["at"]), _value(r["value"])
        )
        pairs.append((state, refl))
    return Information(
        plain["name"],
        frozenset(map(EntityId, plain["ontology"])),
        _timeset(plain["occurrence"]),
        frozenset(s for s, _ in pairs),
        frozenset(map(EntityId, plain["carrier"])),
        _timeset(plain["reflection_time"]),
        frozenset(r for _, r in pairs),
        pairs,
    )


def _rel_close(got: float, want: float, tol: float = 1e-9) -> bool:
    return abs(got - want) <= tol * max(abs(want), 1e-300)


# -- chain_collapse ------------------------------------------------------------


class ChainCollapse:
    name = "chain_collapse"
    period = 2  # inputs never repeat, so any even period balances tracing

    def __init__(self, seed: int):
        self.seed = seed

    def resident(self):
        return None

    def make(self, i: int) -> dict:
        return inputs.chain_input(inputs.request_rng(self.seed, self.name, i))

    def build(self, plain: dict):
        return SerialChain(tuple(build_information(link) for link in plain["links"]))

    def inputs(self, chain):
        return (chain, *chain.links)

    def outputs(self, out):
        return (out[1],)

    def request(self, chain, tr):
        problems = tr.call("model.check_chain", check_chain, chain)
        whole = tr.call("model.collapse_chain", collapse_chain, chain)
        link_delays = [tr.call("measures.delay", delay, link) for link in chain.links]
        return problems, whole, link_delays, tr.call("measures.delay", delay, whole)

    def check(self, plain, chain, out, counts) -> list[str]:
        problems, whole, link_delays, whole_delay = out
        counts["atoms"] = counts.get("atoms", 0) + plain["atoms"]
        want = Fraction(plain["expected_delay"])
        bad = []
        if problems:
            bad.append(f"check_chain reported {problems[0].message}")
        if sum(link_delays, Fraction(0)) != want:
            bad.append(f"link delays sum to {sum(link_delays)}, expected {want}")
        if whole_delay != want:
            bad.append(f"collapsed delay {whole_delay}, expected {want}")
        if len(whole.mapping) != len(plain["links"][0]["pairs"]):
            bad.append("collapsed chain lost atoms")
        return bad


# -- doc_roundtrip -------------------------------------------------------------


class DocRoundtrip:
    """Generating a document costs about as much as the round trip, so a
    pool of distinct documents is made up front and cycled; every request
    still parses its own newly made copy of the text."""

    name = "doc_roundtrip"
    period = inputs.DOC_POOL

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = [
            inputs.document_input(inputs.request_rng(seed, self.name, k))
            for k in range(self.period)
        ]

    def resident(self):
        return None

    def make(self, i: int) -> dict:
        return self.pool[i % self.period]

    def build(self, plain: dict):
        source = MeasureProfile({MeasureKind(k): Fraction(v) for k, v in plain["source"].items()})
        return plain["text"].encode().decode(), source

    def inputs(self, objs):
        return (objs[1],)  # a str cannot be weakly referenced, and build copies it

    def outputs(self, out):
        return (out[0],)

    def request(self, objs, tr):
        text, source = objs
        doc = tr.call("document.loads_document", loads_document, text)
        results = [tr.call("dynamics.propagate", propagate, system, source) for system in doc.systems]
        return doc, results, tr.call("document.emit_document", emit_document, doc)

    def check(self, plain, objs, out, counts) -> list[str]:
        doc, results, emitted = out
        text = plain["text"]
        counts["bytes_in"] = counts.get("bytes_in", 0) + len(text.encode())
        counts["bytes_out"] = counts.get("bytes_out", 0) + len(emitted.encode())
        stable = emitted == text
        counts["stable"] = counts.get("stable", 0) + stable
        bad = [] if stable else ["emitted document differs from its canonical input"]
        if [s.name for s in doc.systems] != sorted(plain["expected"]):
            bad.append("document systems differ from the generated ones")
        for system, result in zip(doc.systems, results):
            want = plain["expected"][system.name]
            if result.warnings:
                bad.append(f"{system.name}: unexpected warning {result.warnings[0]}")
            for kind, value in want.items():
                got = result.end[MeasureKind(kind)]
                if got != Fraction(value):
                    bad.append(f"{system.name}: end {kind} {got}, expected {value}")
        return bad


# -- tracking ------------------------------------------------------------------


def reference_kalman(run) -> np.ndarray:
    """Filtered positions by the textbook recursion, solved rather than
    inverted; independent of ``isd.oracles.kalman_filter``."""
    m = run.model
    x, P = m.x0.copy(), m.P0.copy()
    out = np.empty(len(m.zs))
    for k, (u, z) in enumerate(zip(m.us, m.zs)):
        x = m.A @ x + m.B @ u
        P = m.A @ P @ m.A.T + m.Q
        S = m.H @ P @ m.H.T + m.R
        G = np.linalg.solve(S.T, (P @ m.H.T).T).T
        x = x + G @ (z - m.H @ x)
        P = (np.eye(len(x)) - G @ m.H) @ P
        out[k] = x[0]
    return out


class Tracking:
    name = "tracking"
    period = 2  # inputs never repeat, so any even period balances tracing

    def __init__(self, seed: int):
        self.seed = seed

    def resident(self):
        return None

    def make(self, i: int) -> dict:
        return inputs.tracking_input(inputs.request_rng(self.seed, self.name, i))

    def build(self, plain: dict):
        return plain, Metric("euclidean_on_values")

    def inputs(self, objs):
        return (objs[1],)  # the simulation parameters are plain numbers

    def outputs(self, out):
        return out[:2]

    def request(self, objs, tr):
        params, metric = objs
        run = tr.call("oracles.simulate_tracking", simulate_tracking, **params)
        info = tr.call("oracles.tracking_information", tracking_information, run)
        kmap = tr.call("oracles.kalman_reflection", kalman_reflection, run, info)
        d_filter = tr.call("measures.distortion", distortion, info, kmap, metric, label="filter")
        rmap = tr.call("oracles.measurement_reflection", measurement_reflection, info)
        d_raw = tr.call("measures.distortion", distortion, info, rmap, metric, label="raw")
        return run, info, float(d_filter), float(d_raw)

    def check(self, plain, objs, out, counts) -> list[str]:
        run, info, d_filter, d_raw = out
        truth = run.true_positions
        bad = []
        if len(truth) != plain["steps"] or len(info.mapping) != plain["steps"]:
            return [f"expected {plain['steps']} steps"]
        want_filter = float(np.sqrt(np.sum((truth - reference_kalman(run)) ** 2)))
        want_raw = float(np.sqrt(np.sum((truth - run.model.zs[:, 0]) ** 2)))
        if not _rel_close(d_filter, want_filter):
            bad.append(f"filter distortion {d_filter!r}, numpy reference {want_filter!r}")
        if not _rel_close(d_raw, want_raw):
            bad.append(f"raw distortion {d_raw!r}, numpy reference {want_raw!r}")
        counts["filter_wins"] = counts.get("filter_wins", 0) + (d_filter < d_raw)
        return bad


# -- library_search ------------------------------------------------------------


class LibrarySearch:
    """Searches one resident library.  The library is the one documented
    exception to fresh objects: it is built and validated once in set-up,
    as a long-lived service would hold it; every query target is new."""

    name = "library_search"
    period = inputs.LIBRARY_QUERIES  # the query cycle

    def __init__(self, seed: int):
        self.seed = seed
        self.plain = inputs.library_input(seed)
        self.metric = Metric("weighted_product")
        self.entries: tuple[Information, ...] = ()
        self.cycle_comparisons: dict[int, int] = {}

    def resident(self):
        entries = tuple(build_information(e) for e in self.plain["entries"])
        for entry in entries:
            require_valid(entry)
        self.entries = entries

    def make(self, i: int) -> dict:
        queries = self.plain["queries"]
        return {**queries[i % len(queries)], "position": i % len(queries)}

    def build(self, plain: dict):
        target = build_information(plain["target"])
        threshold = Fraction(0) if plain["kind"] == "planted" else None
        return SearchLibrary(target, self.entries, self.metric, threshold)

    def inputs(self, library):
        return (library, library.target)

    def outputs(self, out):
        return (out,)

    def request(self, library, tr):
        return tr.call("oracles.min_mismatch_search", min_mismatch_search, library)

    def instrument(self, tracer):
        """Route the search's own calls to ``mismatch`` through the tracer,
        so each comparison gets a child span; returns the undo function."""
        original = isd.oracles.search.mismatch

        def traced(*args, **kwargs):
            return tracer.call("measures.mismatch", original, *args, **kwargs)

        isd.oracles.search.mismatch = traced

        def restore():
            isd.oracles.search.mismatch = original

        return restore

    def check(self, plain, library, result, counts) -> list[str]:
        self.cycle_comparisons.setdefault(plain["position"], result.comparisons)
        p = plain["index"]
        if plain["kind"] == "planted":
            want = (p, p + 1, 0)
            got = (result.index, result.comparisons, result.distance)
            return [] if got == want else [f"planted search gave {got}, expected {want}"]
        bad = []
        if result.comparisons != len(self.entries):
            bad.append(f"full scan made {result.comparisons} comparisons")
        recomputed = mismatch(library.target, self.entries[result.index], self.metric)
        if result.distance != recomputed:
            bad.append(f"reported distance {result.distance}, recomputed {recomputed}")
        if not 0 < result.distance <= mismatch(library.target, self.entries[p], self.metric):
            bad.append(f"distance {result.distance} is not a positive minimum")
        return bad


WORKLOADS = {w.name: w for w in (ChainCollapse, DocRoundtrip, Tracking, LibrarySearch)}

