"""The package's verification battery before checks shared one failure
path, kept verbatim as a reference: each check builds and returns its own
``CheckOutcome`` and ends a broken trial loop with
``out.require(label, False); return out``.

``isd.verify`` hands every check one outcome and stops a check through
``CheckOutcome.stop``.  The fault test patches the same law-breaking
function into both modules and checks that both give the same report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from isd._version import __version__
from isd.errors import UnresolvedReferenceError
from isd.measures import (
    Metric,
    Relation,
    aggregation,
    delay,
    distortion,
    duration,
    induce_relation,
    variety,
)
from isd.model import (
    Element,
    Information,
    SerialChain,
    atoms,
    check_chain,
    collapse_chain,
    combine,
    compose,
    invert,
    is_reducible,
    is_sub_information,
)
from isd.oracles import (
    KalmanModel,
    PeriodicSignal,
    ProbabilityVector,
    RadarParams,
    asl_binary,
    asl_binary_closed_form,
    asl_sequential,
    asl_sequential_empirical,
    kalman_filter,
    kalman_reflection,
    measurement_reflection,
    metcalfe_value,
    mtbf_mean_duration,
    network_info_bounds,
    radar_max_range,
    rayleigh_min_angle,
    reconstruct_signal,
    sample_signal,
    shannon_entropy,
    simulate_tracking,
    tracking_information,
    verify_entropy_max,
)
from isd.report import Report
from isd.timeset import TimeSet
from isd.values import Value, objective

THRESHOLD_NOTE = (
    "sampling threshold: a rate is judged against 2/period, i.e. sample "
    "spacing at most period/2; the 1/(2*period) form sometimes quoted for "
    "the same spacing contradicts it and is not used here."
)


@dataclass
class CheckOutcome:
    ok: bool = True
    rows: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def add(self, label, value, note=""):
        self.rows.append((label, value, note))

    def expect(self, label, got, want, note=""):
        hit = got == want
        self.ok = self.ok and hit
        self.rows.append((label, got, note or (f"expected {want}" if not hit else "")))
        return hit

    def require(self, label, cond, note=""):
        self.ok = self.ok and bool(cond)
        self.rows.append((label, bool(cond), note))
        return bool(cond)


# -- random model builders ----------------------------------------------------


def _random_states(rng: random.Random, n: int) -> list[Element]:
    pool = [objective(f"s{i}") for i in range(5)]
    out = []
    for k in range(n):
        subject = frozenset(rng.sample(pool, rng.randint(1, 2)))
        t = Fraction(rng.randint(0, 48), rng.choice([1, 2, 3]))
        out.append(
            Element(subject, TimeSet.point(t), Value.scalar(Fraction(10 * k + rng.randint(0, 9))))
        )
    return out


def _link_from_states(rng: random.Random, name: str, states) -> Information:
    pool = [objective(f"{name}.c{i}") for i in range(3)]
    pairs = []
    for k, s in enumerate(sorted(states, key=Element.sort_key)):
        part = frozenset(rng.sample(pool, rng.randint(1, 2)))
        d = Fraction(rng.randint(0, 12), rng.choice([1, 2, 3]))
        r = Element(
            part, s.at.shift(d), Value.scalar(Fraction(1000 * k + rng.randint(0, 99)))
        )
        pairs.append((s, r))
    return Information.from_pairs(name, pairs)


def random_information(rng: random.Random, n_atoms: int | None = None, name: str = "rand") -> Information:
    return _link_from_states(rng, name, _random_states(rng, n_atoms or rng.randint(2, 5)))


def random_chain(rng: random.Random, n_links: int | None = None) -> SerialChain:
    links = [random_information(rng, name="link0")]
    for i in range(1, n_links or rng.randint(2, 4)):
        prev = links[-1]
        links.append(_link_from_states(rng, f"link{i}", list(prev.reflections)))
    return SerialChain(tuple(links))


def random_partition_relation(rng: random.Random, info: Information, name: str = "blocks") -> Relation:
    ordered = info.sorted_states()
    labels = [rng.randrange(1 + len(ordered) // 2) for _ in ordered]
    pairs = {
        (a, b)
        for a, la in zip(ordered, labels)
        for b, lb in zip(ordered, labels)
        if la == lb
    }
    return Relation(name, frozenset(pairs), declared_equivalence=True)


def _rng_for(seed: int, check: str) -> random.Random:
    return random.Random(f"{seed}:{check}")


# -- the checks ---------------------------------------------------------------


def check_entropy_volume_bound(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    half = shannon_entropy(ProbabilityVector.of(Fraction(1, 2), Fraction(1, 2)))
    out.require("H(1/2,1/2) = 1 bit", abs(half.bits - 1.0) <= 1e-12)
    for n in (2, 3, 5, 8):
        rep = verify_entropy_max(n, trials=max(400, trials), seed=rng.randrange(2**32))
        out.require(f"n={n} all samples within H <= log2 n <= n-1", rep.all_within_bounds)
        out.require(f"n={n} maximum attained near uniform", rep.max_is_near_uniform)
        out.require(f"n={n} near-maximum only near uniform", rep.near_max_always_near_uniform)
        out.add(f"n={n} max gap to log2 n", rep.max_gap_to_log2_n, note="bits")
    return out


def check_serial_delay_additivity(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    worst = 0
    for _ in range(trials):
        chain = random_chain(rng)
        if check_chain(chain):
            out.require("generated chain hands off cleanly", False)
            return out
        total = sum((delay(link) for link in chain.links), Fraction(0))
        collapsed = delay(collapse_chain(chain))
        if collapsed != total:
            out.require("collapsed delay equals sum of link delays", False,
                        note=f"{collapsed} vs {total}")
            return out
        worst = max(worst, len(chain.links))
    out.require("collapsed delay equals sum of link delays", True,
                note=f"{trials} random chains, up to {worst} links, exact")
    return out


def check_radar_range_scaling(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    base = RadarParams(1.0e6, 1.0e3, 1.0, 4.0, 1.0e-12)
    r = radar_max_range(base)
    out.add("range at base parameters", r, note="m")
    r16 = radar_max_range(
        RadarParams(16 * base.transmit_power, base.transmit_gain,
                    base.effective_aperture, base.cross_section,
                    base.min_detectable_power)
    )
    out.require("16x transmit power doubles the range", abs(r16 / r - 2.0) <= 1e-12)
    for _ in range(min(trials, 50)):
        p = RadarParams(*(math.exp(rng.uniform(-2, 2)) for _ in range(5)))
        f = math.exp(rng.uniform(0.1, 3))
        lhs = radar_max_range(
            RadarParams(p.transmit_power * f**4, p.transmit_gain,
                        p.effective_aperture, p.cross_section,
                        p.min_detectable_power)
        )
        if abs(lhs - f * radar_max_range(p)) > 1e-9 * lhs:
            out.require("quartic scaling holds at random parameters", False)
            return out
    out.require("quartic scaling holds at random parameters", True)
    return out


def check_optical_granularity_ratio(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    theta = rayleigh_min_angle(Fraction(1, 2_000_000), Fraction(1, 10))
    out.add("min angle, 500nm through 10cm", theta, note="rad")
    out.expect("doubling the aperture halves the angle",
               rayleigh_min_angle(Fraction(1, 2_000_000), Fraction(1, 5)), theta / 2)
    for _ in range(min(trials, 200)):
        lam = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        a = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        k = Fraction(rng.randint(1, 9))
        if rayleigh_min_angle(lam, k * a) != rayleigh_min_angle(lam, a) / k:
            out.require("aperture scaling exact at random parameters", False)
            return out
    out.require("aperture scaling exact at random parameters", True)
    return out


def check_variety_transport(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    for _ in range(trials):
        info = random_information(rng)
        rel = random_partition_relation(rng, info)
        v = variety(info, rel)
        moved = induce_relation(info, rel)
        if not moved.is_equivalence_over(info.reflections):
            out.require("transported relation is an equivalence", False)
            return out
        if len(moved.classes_over(info.reflections)) != v:
            out.require("class count preserved through the mapping", False)
            return out
    out.require("transported relation is an equivalence", True)
    out.require("class count preserved through the mapping", True,
                note=f"{trials} random partitions")
    return out


def check_monitoring_duration_mtbf(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    segments = [
        TimeSet.interval(0, 3),
        TimeSet.interval(5, 6),
        TimeSet.interval(10, 14),
    ]
    out.expect("mean width of three sessions", mtbf_mean_duration(segments), Fraction(8, 3))
    for _ in range(trials):
        segs = []
        widths = []
        t = Fraction(0)
        for _ in range(rng.randint(1, 6)):
            w = Fraction(rng.randint(0, 20), rng.choice([1, 2, 4]))
            segs.append(TimeSet.interval(t, t + w))
            widths.append(w)
            t += w + 1
        want = sum(widths, Fraction(0)) / len(widths)
        if mtbf_mean_duration(segs) != want:
            out.require("mean width exact at random sessions", False)
            return out
        one = random_information(rng, n_atoms=2)
        if duration(one) != one.occurrence.sup - one.occurrence.inf:
            out.require("duration equals hull width", False)
            return out
    out.require("mean width exact at random sessions", True)
    out.require("duration equals hull width", True)
    return out


def check_nyquist_reconstruction(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    tone = PeriodicSignal.tone(2)
    fast = reconstruct_signal(sample_signal(tone, 1, 6), 2, reference=tone)
    out.add("gap 1 residual", fast.residual)
    out.require("gap 1 meets the rate threshold", fast.meets_rate_threshold,
                note=f"rate {fast.measured_rate} vs {fast.threshold_rate}")
    out.require("gap 1 recovers the tone", fast.reducible and fast.residual < 1e-9)
    slow = reconstruct_signal(sample_signal(tone, 4, 8), 2, reference=tone)
    out.add("gap 4 residual", slow.residual)
    out.require("gap 4 misses the rate threshold", not slow.meets_rate_threshold,
                note=f"rate {slow.measured_rate} vs {slow.threshold_rate}")
    out.require("gap 4 cannot recover the tone", not slow.reducible and slow.residual > 1e-3)
    dense = reconstruct_signal(sample_signal(tone, Fraction(1, 4), 6), 2, reference=tone)
    out.require("gap 1/4 recovers the tone", dense.reducible)
    out.lines.append(THRESHOLD_NOTE)
    return out


def check_aggregation_two_sided(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    for _ in range(trials):
        info = random_information(rng)
        rels = [random_partition_relation(rng, info, name=f"r{j}")
                for j in range(rng.randint(1, 3))]
        inst = aggregation(info, rels)
        want = Fraction(sum(len(r.pairs) for r in rels), len(info.states))
        if inst != want:
            out.require("instance count per state exact", False)
            return out
        if aggregation(info, rels, mode="types") != Fraction(len(rels), len(info.states)):
            out.require("type count per state exact", False)
            return out
        if inst < aggregation(info, rels, mode="types"):
            out.require("instances dominate types", False)
            return out
    out.require("instance count per state exact", True)
    out.require("type count per state exact", True)
    out.require("instances dominate types", True,
                note="every relation has at least its diagonal")
    return out


def check_network_value_bounds(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    for n in range(0, 101):
        s, c = network_info_bounds(n)
        if metcalfe_value(n) != s * c:
            out.require("n^2 equals max scope times max coverage", False,
                        note=f"n={n}")
            return out
    out.require("n^2 equals max scope times max coverage", True, note="n = 0..100")
    out.expect("value at n=100", metcalfe_value(100), 10_000)
    return out


def check_kalman_min_distortion(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    euclid = Metric("euclidean_on_values")
    wins = 0
    runs = max(2, min(6, trials // 40 or 2))
    for _ in range(runs):
        run = simulate_tracking(steps=300, seed=rng.randrange(2**32))
        info = tracking_information(run)
        d_filter = distortion(info, kalman_reflection(run, info), euclid)
        d_raw = distortion(info, measurement_reflection(info), euclid)
        if d_filter < d_raw:
            wins += 1
    out.require("filter beats raw measurements", wins == runs,
                note=f"{wins}/{runs} runs")
    p0, r = 2.0, 0.5
    steps = 12
    model = KalmanModel(
        A=np.array([[1.0]]), B=np.zeros((1, 1)), H=np.array([[1.0]]),
        Q=np.zeros((1, 1)), R=np.array([[r]]),
        x0=np.array([0.0]), P0=np.array([[p0]]),
        us=np.zeros((steps, 1)), zs=np.zeros((steps, 1)),
    )
    res = kalman_filter(model)
    worst = max(
        abs(res.covariances[k - 1][0, 0] - p0 * r / (k * p0 + r))
        for k in range(1, steps + 1)
    )
    out.require("static covariance matches closed form", worst <= 1e-10,
                note=f"max deviation {worst:.2e}")
    return out


def check_search_average_length(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    out.expect("sequential mean, 7 entries", asl_sequential(7), Fraction(4))
    out.expect("binary mean, 7 entries", asl_binary(7), Fraction(17, 7))
    out.expect("binary closed form, 7 entries", asl_binary_closed_form(7), Fraction(17, 7))
    metric = Metric("weighted_product")
    base = _rng_for(0, "library")
    entries = [random_information(base, n_atoms=3, name=f"doc{i}") for i in range(5)]
    out.require(
        "library entries pairwise distinct",
        all(a != b for i, a in enumerate(entries) for b in entries[i + 1:]),
    )
    emp = asl_sequential_empirical(entries, metric, trials=max(trials * 10, 2000),
                                   seed=rng.randrange(2**32))
    out.add("sequential mean over 5 entries, empirical", emp)
    out.require("empirical mean within 5% of (n+1)/2",
                abs(emp - Fraction(3)) <= Fraction(3, 20))
    return out


def check_sub_information_reducibility(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    for _ in range(trials):
        whole = random_information(rng)
        if not is_reducible(whole):
            out.require("generator yields reducible informations", False)
            return out
        pairs = list(whole.mapping)
        take = sorted(rng.sample(range(len(pairs)), rng.randint(1, len(pairs))))
        kept = [pairs[i] for i in take]
        sub = Information.from_pairs("sub", kept)
        is_sub, proper = is_sub_information(sub, whole)
        if not is_sub:
            out.require("atom-restriction is a sub-information", False)
            return out
        if proper != (len(kept) < len(pairs)):
            out.require("properness tracks strict restriction", False)
            return out
        if not is_reducible(sub):
            out.require("sub-information of reducible stays reducible", False)
            return out
    out.require("atom-restriction is a sub-information", True)
    out.require("sub-information of reducible stays reducible", True,
                note=f"{trials} random restrictions")
    return out


def check_inverse_involution(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    for _ in range(trials):
        info = random_information(rng)
        back = invert(invert(info))
        if back != info:
            out.require("double inverse returns the original", False)
            return out
    out.require("double inverse returns the original", True,
                note=f"{trials} random informations")
    return out


def check_compose_associativity(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    for _ in range(trials):
        chain = random_chain(rng, n_links=3)
        a, b, c = chain.links
        if compose(compose(a, b), c) != compose(a, compose(b, c)):
            out.require("composition is associative", False)
            return out
    out.require("composition is associative", True, note=f"{trials} random triples")
    return out


def check_atom_recombination(rng: random.Random, trials: int) -> CheckOutcome:
    out = CheckOutcome()
    for _ in range(trials):
        info = random_information(rng)
        parts = [a.lift() for a in atoms(info)]
        rng.shuffle(parts)
        rebuilt = parts[0]
        for p in parts[1:]:
            rebuilt = combine(rebuilt, p)
        if rebuilt != info:
            out.require("combining all atoms rebuilds the information", False)
            return out
    out.require("combining all atoms rebuilds the information", True,
                note=f"{trials} random informations")
    return out


CHECKS: dict[str, Callable[[random.Random, int], CheckOutcome]] = {
    "entropy_volume_bound": check_entropy_volume_bound,
    "serial_delay_additivity": check_serial_delay_additivity,
    "radar_range_scaling": check_radar_range_scaling,
    "optical_granularity_ratio": check_optical_granularity_ratio,
    "variety_transport": check_variety_transport,
    "monitoring_duration_mtbf": check_monitoring_duration_mtbf,
    "nyquist_reconstruction": check_nyquist_reconstruction,
    "aggregation_two_sided": check_aggregation_two_sided,
    "network_value_bounds": check_network_value_bounds,
    "kalman_min_distortion": check_kalman_min_distortion,
    "search_average_length": check_search_average_length,
    "sub_information_reducibility": check_sub_information_reducibility,
    "inverse_involution": check_inverse_involution,
    "compose_associativity": check_compose_associativity,
    "atom_recombination": check_atom_recombination,
}


def run_verify(seed: int = 0, trials: int = 200, names: list[str] | None = None) -> Report:
    if names:
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            known = ", ".join(CHECKS)
            raise UnresolvedReferenceError(
                f"unknown check {unknown[0]!r} (available: {known})"
            )
        selected = [n for n in CHECKS if n in set(names)]
    else:
        selected = list(CHECKS)

    report = Report("verification")
    report.stamp("seed", seed)
    report.stamp("trials", trials)
    report.stamp("version", __version__)
    report.stamp("residual tolerance", 1e-9)
    report.stamp("entropy tolerance", 1e-3)

    all_ok = True
    for name in selected:
        outcome = CHECKS[name](_rng_for(seed, name), trials)
        all_ok = all_ok and outcome.ok
        sec = report.section(name)
        sec.add("result", "pass" if outcome.ok else "FAIL")
        for label, value, note in outcome.rows:
            sec.add(label, value, note)
        for line in outcome.lines:
            sec.say(line)

    notes = report.section("notes")
    notes.say(THRESHOLD_NOTE)
    report.ok = all_ok
    return report
