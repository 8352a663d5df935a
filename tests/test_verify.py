"""The self-check battery and its random builders."""

import random
from fractions import Fraction

import pytest

import isd.verify
import reference_verify
from isd.cli import main
from isd.errors import UnresolvedReferenceError
from isd.measures import aggregation, delay, duration, variety
from isd.model import (
    Information,
    check_chain,
    collapse_chain,
    combine,
    compose,
    invert,
    is_reducible,
    is_sub_information,
    validate,
)
from isd.oracles import metcalfe_value, mtbf_mean_duration, radar_max_range, rayleigh_min_angle
from isd.verify import (
    CHECKS,
    THRESHOLD_NOTE,
    random_chain,
    random_information,
    random_partition_relation,
    run_verify,
)


def test_full_battery_passes_quickly():
    report = run_verify(seed=4, trials=40)
    assert report.ok
    titles = [s.title for s in report.sections]
    for name in CHECKS:
        assert name in titles
    assert report.provenance["seed"] == "4"


def test_battery_deterministic():
    a = run_verify(seed=9, trials=20).to_json()
    b = run_verify(seed=9, trials=20).to_json()
    assert a == b


def test_threshold_note_always_present():
    report = run_verify(seed=0, trials=5, names=["network_value_bounds"])
    assert THRESHOLD_NOTE in report.to_text(color=False)


def test_name_filter_and_unknown_name():
    report = run_verify(seed=0, trials=5, names=["radar_range_scaling"])
    titles = [s.title for s in report.sections]
    assert "radar_range_scaling" in titles
    assert "kalman_min_distortion" not in titles
    with pytest.raises(UnresolvedReferenceError):
        run_verify(names=["palmistry"])


def test_random_information_always_valid():
    rng = random.Random(12)
    for _ in range(50):
        info = random_information(rng)
        assert validate(info) == []
        assert is_reducible(info)


def test_random_chain_links_and_collapses():
    rng = random.Random(5)
    for _ in range(25):
        chain = random_chain(rng)
        assert check_chain(chain) == []
        whole = collapse_chain(chain)
        assert validate(whole) == []


def test_random_partition_relation_is_equivalence():
    rng = random.Random(8)
    for _ in range(25):
        info = random_information(rng)
        rel = random_partition_relation(rng, info)
        assert rel.is_equivalence_over(info.states)


# -- one failure path, checked against the reference battery ------------------
#
# Each fault below breaks exactly one law of the battery, most of them only
# at some later trial, so the rows recorded before the failure matter.  The
# fault is patched into the namespace of ``isd.verify`` and of the verbatim
# reference copy alike; both must then give the same report.


def _drop_first_pair(info):
    return Information.from_pairs(info.name, info.mapping[1:])


def _fault_check_chain(chain):
    return check_chain(chain) or (["late hand-off"] if len(chain.links) == 4 else [])


def _fault_delay(info, *args):
    return delay(info, *args) + 1


def _fault_radar(p):
    return radar_max_range(p) * (1.001 if p.transmit_power > 50 else 1)


def _fault_rayleigh(lam, aperture):
    return rayleigh_min_angle(lam, aperture) + (aperture > 50) * Fraction(1, 10**9)


def _fault_variety(info, rel):
    return variety(info, rel) + (len(info.states) == 5)


def _fault_mtbf(segments):
    return mtbf_mean_duration(segments) + (len(segments) == 5)


def _fault_duration(info):
    return duration(info).plus(int(info.occurrence.inf > 10))  # plus refuses a bool


def _fault_aggregation(info, relations, mode="instances"):
    return aggregation(info, relations, mode=mode) + (mode == "types" and len(relations) == 3)


def _fault_metcalfe(n):
    return metcalfe_value(n) + (n == 57)


def _fault_is_reducible(info):
    return is_reducible(info) and not (info.name == "sub" and len(info.mapping) == 4)


def _fault_is_sub_information(candidate, whole):
    return is_sub_information(candidate, whole)[0], True


def _fault_invert(info):
    if len(info.mapping) == 5:
        info = _drop_first_pair(info)
    return invert(info)


def _fault_compose(first, second):
    out = compose(first, second)
    if "*" in first.name and len(out.mapping) >= 4:
        return _drop_first_pair(out)
    return out


def _fault_combine(a, b):
    return a if len(a.mapping) == 3 else combine(a, b)


FAULTS = [
    ("serial_delay_additivity", "check_chain", _fault_check_chain,
     "generated chain hands off cleanly"),
    ("serial_delay_additivity", "delay", _fault_delay,
     "collapsed delay equals sum of link delays"),
    ("radar_range_scaling", "radar_max_range", _fault_radar,
     "quartic scaling holds at random parameters"),
    ("optical_granularity_ratio", "rayleigh_min_angle", _fault_rayleigh,
     "aperture scaling exact at random parameters"),
    ("variety_transport", "variety", _fault_variety,
     "class count preserved through the mapping"),
    ("monitoring_duration_mtbf", "mtbf_mean_duration", _fault_mtbf,
     "mean width exact at random sessions"),
    ("monitoring_duration_mtbf", "duration", _fault_duration,
     "duration equals hull width"),
    ("aggregation_two_sided", "aggregation", _fault_aggregation,
     "type count per state exact"),
    ("network_value_bounds", "metcalfe_value", _fault_metcalfe,
     "n^2 equals max scope times max coverage"),
    ("sub_information_reducibility", "is_reducible", _fault_is_reducible,
     "sub-information of reducible stays reducible"),
    ("sub_information_reducibility", "is_sub_information", _fault_is_sub_information,
     "properness tracks strict restriction"),
    ("inverse_involution", "invert", _fault_invert,
     "double inverse returns the original"),
    ("compose_associativity", "compose", _fault_compose,
     "composition is associative"),
    ("atom_recombination", "combine", _fault_combine,
     "combining all atoms rebuilds the information"),
]


@pytest.mark.parametrize(
    "check, name, fault, law", FAULTS, ids=[f"{c}-{n}" for c, n, _, _ in FAULTS]
)
def test_broken_law_reports_like_reference(monkeypatch, capsys, check, name, fault, law):
    for module in (isd.verify, reference_verify):
        monkeypatch.setattr(module, name, fault)
    got = run_verify(seed=2, trials=30)
    assert got.to_json() == reference_verify.run_verify(seed=2, trials=30).to_json()
    assert not got.ok
    (section,) = [s for s in got.sections if s.title == check]
    assert section.rows[0].label == "result" and section.rows[0].value == "FAIL"
    assert (section.rows[-1].label, section.rows[-1].value) == (law, "false")
    assert main(["verify", "--seed", "2", "--trials", "30", "--filter", check]) == 1
    assert "FAIL" in capsys.readouterr().out
