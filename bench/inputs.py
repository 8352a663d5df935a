"""Seeded plain-data inputs for the benchmark workloads.

Everything here is plain Python data (strings, numbers, lists, dicts)
derived from a seed, plus the answers the correctness checks compare
against.  Nothing here imports ``isd``: the program under test only ever
sees what these functions return, and the expected results are worked
out independently of it.

Rationals travel as "p/q" strings, time sets as lists of [lo, hi] string
pairs in normal form (sorted, disjoint, non-touching).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# -- shapes -------------------------------------------------------------------

CHAIN_LINKS = 8
CHAIN_ATOMS = 16

DOC_INFORMATIONS = 8
DOC_ATOMS = 24
DOC_SYSTEMS = 4
DOC_POOL = 16  # distinct documents per seed, cycled; each request gets its own copy

TRACK_STEPS = 200

LIBRARY_ENTRIES = 64
LIBRARY_ATOMS = 8
LIBRARY_QUERIES = 32  # one cycle of queries
LIBRARY_PLANTED = 20  # of them exact copies; the rest are perturbed


def request_rng(seed: int, workload: str, index: int) -> random.Random:
    """The generator for one request; independent of every other request."""
    return random.Random(f"{seed}:{workload}:{index}")


def _union(intervals):
    """Normal form of a union of closed intervals given as Fraction pairs."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _ts(intervals):
    return [[str(lo), str(hi)] for lo, hi in intervals]


def _shift(intervals, d):
    return [(lo + d, hi + d) for lo, hi in intervals]


def _random_times(rng: random.Random, pieces: int, span: int):
    """Up to ``pieces`` disjoint, non-touching intervals inside [0, span]."""
    cuts = sorted(rng.sample(range(span + 1), 2 * pieces))
    out = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        den = rng.choice((1, 2, 3))
        lo_f = Fraction(lo)
        hi_f = lo_f + Fraction(rng.randint(0, (hi - lo) * den), den)
        out.append((lo_f, min(hi_f, Fraction(hi))))
    return _union(out)


def _plain_info(name: str, pairs) -> dict:
    """An information in plain form from (state, reflection) pairs whose
    times are still Fraction pairs; the four set components are the
    tightest ones that hold every element."""
    return {
        "name": name,
        "ontology": sorted({i for s, _ in pairs for i in s["ids"]}),
        "occurrence": _ts(_union([iv for s, _ in pairs for iv in s["at"]])),
        "carrier": sorted({i for _, r in pairs for i in r["ids"]}),
        "reflection_time": _ts(_union([iv for _, r in pairs for iv in r["at"]])),
        "pairs": [
            ({**s, "at": _ts(s["at"])}, {**r, "at": _ts(r["at"])}) for s, r in pairs
        ],
    }


# -- chain_collapse -----------------------------------------------------------


def chain_input(rng: random.Random, links: int = CHAIN_LINKS, n_atoms: int = CHAIN_ATOMS) -> dict:
    """A serial chain that hands off cleanly from link to link.

    Atom k of link 0 holds one or two of five subjects over an interval;
    each link reflects every atom onto one or two of its own three
    carrier parts, the same interval shifted later by a random rational.
    Link l's states are link l-1's reflections, element for element.
    The collapsed delay is the mean over atoms of the summed shifts.
    """
    subjects = [f"s{i}" for i in range(5)]
    states = []
    for k in range(n_atoms):
        t = Fraction(rng.randint(0, 4 * n_atoms), rng.choice((1, 2, 3)))
        w = Fraction(rng.randint(0, 2), 2)
        states.append(
            {
                "ids": sorted(rng.sample(subjects, rng.randint(1, 2))),
                "at": [(t, t + w)],
                "value": ["scalar", str(10 * k + rng.randint(0, 9))],
            }
        )
    out_links = []
    total_shift = Fraction(0)
    for li in range(links):
        pool = [f"L{li}.c{i}" for i in range(3)]
        pairs = []
        for k, s in enumerate(states):
            d = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))
            total_shift += d
            r = {
                "ids": sorted(rng.sample(pool, rng.randint(1, 2))),
                "at": _shift(s["at"], d),
                "value": ["scalar", str(1000 * k + rng.randint(0, 99))],
            }
            pairs.append((s, r))
        out_links.append(_plain_info(f"link{li}", pairs))
        states = [r for _, r in pairs]
    return {
        "links": out_links,
        "atoms": links * n_atoms,
        "expected_delay": str(total_shift / n_atoms),
    }


# -- doc_roundtrip ------------------------------------------------------------

_STAGE_KINDS = {
    "SingleRing": ("Collection", "Exertion"),
    "DoubleCTE": ("Collection", "Transmission", "Exertion"),
    "TripleCTPTE": ("Collection", "Transmission", "Processing", "Transmission", "Exertion"),
    "FullTripleRingCore": (
        "Collection", "Transmission", "Processing", "DataSpace",
        "Processing", "Transmission", "Exertion",
    ),
}


def _value(rng: random.Random, k: int):
    """A tagged value unique to atom ``k``, with its canonical sort key."""
    kind = rng.randrange(3)
    if kind == 0:
        token = f"v{k}x{rng.randint(0, 99)}"
        return {"symbol": token}, (0, token)
    if kind == 1:
        q = 100 * k + Fraction(rng.randint(0, 99), rng.choice((1, 2, 3, 7)))
        return {"scalar": str(q)}, (1, q)
    qs = (Fraction(k), Fraction(rng.randint(-50, 50), rng.choice((1, 4))))
    return {"vector": [str(q) for q in qs]}, (2, qs)


def _element(rng, k, key, ids, at):
    value, vkey = _value(rng, k)
    obj = {key: ids, "at": {"intervals": _ts(at)}, "value": value}
    sort_key = (tuple((i, "objective" if i.startswith("c") else "subjective") for i in ids),
                (tuple(at), (0, Fraction(0))), vkey)
    return obj, sort_key


def _doc_information(rng: random.Random, name: str, n_atoms: int, subjects, carriers):
    states, reflections = [], []
    for k in range(n_atoms):
        at = _random_times(rng, rng.randint(1, 3), 12 * n_atoms)
        s = _element(rng, k, "subject", sorted(rng.sample(subjects, rng.randint(1, 2))), at)
        d = Fraction(rng.randint(0, 24), rng.choice((1, 2, 4)))
        r = _element(rng, k, "carrier_part", sorted(rng.sample(carriers, rng.randint(1, 2))),
                     _shift(at, d))
        states.append((s, at))
        reflections.append((r, _shift(at, d)))
    s_order = sorted(range(n_atoms), key=lambda i: states[i][0][1])
    r_order = sorted(range(n_atoms), key=lambda i: reflections[i][0][1])
    s_pos = {atom: pos for pos, atom in enumerate(s_order)}
    r_pos = {atom: pos for pos, atom in enumerate(r_order)}
    ontology = sorted({i for (obj, _), _ in states for i in obj["subject"]} | set(rng.sample(subjects, 2)))
    carrier = sorted({i for (obj, _), _ in reflections for i in obj["carrier_part"]})
    info = {
        "name": name,
        "ontology": ontology,
        "occurrence": {"intervals": _ts(_union([iv for _, at in states for iv in at]))},
        "states": [states[i][0][0] for i in s_order],
        "carrier": carrier,
        "reflection_time": {"intervals": _ts(_union([iv for _, at in reflections for iv in at]))},
        "reflections": [reflections[i][0][0] for i in r_order],
        "mapping": sorted([s_pos[k], r_pos[k]] for k in range(n_atoms)),
    }
    # an equivalence over the states: blocks of consecutive canonical indices
    pairs = []
    block = max(1, n_atoms // 8)
    for a in range(n_atoms):
        for b in range(n_atoms):
            if a // block == b // block:
                pairs.append([a, b])
    relation = {"name": f"{name}.blocks", "info": name, "pairs": pairs, "declared_equivalence": True}
    return info, relation


def _system(rng: random.Random, name: str, shape: str):
    """Stages with a delay step each and a few volume caps; only measures
    every stage kind can move, so propagation suppresses nothing."""
    stages = []
    delay = Fraction(0)
    volume = Fraction(100)
    for i, kind in enumerate(_STAGE_KINDS[shape]):
        add = Fraction(rng.randint(0, 40), rng.choice((1, 2, 3)))
        delay += add
        transforms = {"Delay": {"kind": "add", "amount": str(add)}}
        if rng.random() < 0.5:
            cap = Fraction(rng.randint(10, 200))
            volume = min(volume, cap)
            transforms["Volume"] = {"kind": "clamp_max", "amount": str(cap)}
        stages.append({"name": f"{name}.st{i}", "kind": kind, "transforms": transforms})
    return {"name": name, "shape": shape, "stages": stages}, delay, volume


def document_input(
    rng: random.Random,
    n_infos: int = DOC_INFORMATIONS,
    n_atoms: int = DOC_ATOMS,
    n_systems: int = DOC_SYSTEMS,
) -> dict:
    """A canonical document text and the results propagation must give.

    The text is laid out exactly as the canonical emitter lays it out:
    every list in sort order and every object's keys in emission order,
    so loading and emitting it again must reproduce it byte for byte.
    Subject entities ("e*") are subjective, carriers ("c*") objective.
    """
    subjects = [f"e{i:02d}" for i in range(24)]
    carriers = [f"c{i:02d}" for i in range(12)]
    infos, relations = [], []
    for i in range(n_infos):
        info, rel = _doc_information(rng, f"info{i:02d}", n_atoms, subjects, carriers)
        infos.append(info)
        relations.append(rel)
    systems, expected = [], {}
    shapes = sorted(_STAGE_KINDS)
    for i in range(n_systems):
        name = f"sys{i:02d}"
        system, delay, volume = _system(rng, name, shapes[i % len(shapes)])
        systems.append(system)
        expected[name] = {"Delay": str(delay), "Volume": str(volume)}
    weights = {c: str(Fraction(rng.randint(1, 9), rng.choice((1, 2)))) for c in carriers}
    doc = {
        "format_version": "1",
        "entities": [{"id": c, "realm": "objective"} for c in carriers]
        + [{"id": e, "realm": "subjective"} for e in subjects],
        "informations": infos,
        "measures": [{"name": "weighted", "default_weight": "1", "weights": weights}],
        "relations": relations,
        "systems": systems,
        "chains": [],
    }
    text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    return {"text": text, "source": {"Delay": "0", "Volume": "100"}, "expected": expected}


# -- tracking -----------------------------------------------------------------


def tracking_input(rng: random.Random, steps: int = TRACK_STEPS) -> dict:
    return {
        "steps": steps,
        "dt": 1.0,
        "process_noise": 1e-4,
        "measurement_noise": 1.0,
        "seed": rng.randrange(2**31),
    }


# -- library_search -----------------------------------------------------------


def _library_pairs(rng: random.Random, name: str, n_atoms: int) -> list:
    """One library entry's atoms, two to a slot: both atoms of slot j hold
    over the same interval inside [16j, 16j + 16) and are reflected by the
    same shift, still inside the slot.  Every entry's occurrence and
    reflection time are then unions of exactly n_atoms / 2 disjoint
    intervals, so every comparison costs about the same.  The reflection
    values name the entry, so every entry differs from every other."""
    subjects = [f"t{i}" for i in range(6)]
    sensors = [f"m{i}" for i in range(4)]
    pairs = []
    for k in range(n_atoms):
        if k % 2 == 0:
            lo = 16 * (k // 2) + Fraction(rng.randint(0, 16), 2)
            at = [(lo, lo + rng.randint(1, 4))]
            d = Fraction(rng.randint(2, 6), 2)
        s = {
            "ids": sorted(rng.sample(subjects, rng.randint(1, 2))),
            "at": at,
            "value": ["scalar", str(Fraction(rng.randint(0, 10**6), rng.choice((1, 3))))],
        }
        r = {
            "ids": sorted(rng.sample(sensors, rng.randint(1, 2))),
            "at": _shift(at, d),
            "value": ["symbol", f"{name}.{k}"],
        }
        pairs.append((s, r))
    return pairs


def _perturb(rng: random.Random, pairs: list) -> list:
    """Move one state's times by 1/7 of a unit (no generated time uses
    sevenths, so the result equals no entry) and relabel one reflection."""
    pairs = list(pairs)
    k = rng.randrange(len(pairs))
    s, r = pairs[k]
    pairs[k] = ({**s, "at": _shift(s["at"], Fraction(1, 7))}, r)
    j = rng.randrange(len(pairs))
    s, r = pairs[j]
    pairs[j] = (s, {**r, "value": ["symbol", r["value"][1] + ".moved"]})
    return pairs


def library_input(
    seed: int,
    n_entries: int = LIBRARY_ENTRIES,
    n_atoms: int = LIBRARY_ATOMS,
    n_queries: int = LIBRARY_QUERIES,
    n_planted: int = LIBRARY_PLANTED,
) -> dict:
    """The resident library and one cycle of queries, in shuffled order.

    A planted query is an exact copy of entry p, searched with threshold
    0, so the scan must stop at p with p+1 comparisons and distance 0.
    The planted positions are spread evenly over the library (one drawn
    from each of ``n_planted`` equal strata), so the mean scan length is
    the same for every seed.  A perturbed query is entry p nudged off
    every entry and scanned in full (64 comparisons, distance > 0).
    Planted queries are the majority, so the median latency falls inside
    the early-stop group and the 90th percentile among the full scans.
    """
    rng = random.Random(f"{seed}:library_search")
    entries = [_library_pairs(rng, f"lib{i:02d}", n_atoms) for i in range(n_entries)]
    planted = [int((j + rng.random()) * n_entries / n_planted) for j in range(n_planted)]
    perturbed = [rng.randrange(n_entries) for _ in range(n_queries - n_planted)]
    order = [("planted", p) for p in planted] + [("perturbed", p) for p in perturbed]
    rng.shuffle(order)
    queries = []
    for kind, p in order:
        if kind == "planted":
            target = _plain_info(f"copy-of-lib{p:02d}", entries[p])
        else:
            target = _plain_info(f"near-lib{p:02d}", _perturb(rng, entries[p]))
        queries.append({"kind": kind, "index": p, "target": target})
    return {
        "entries": [_plain_info(f"lib{i:02d}", pairs) for i, pairs in enumerate(entries)],
        "queries": queries,
    }
