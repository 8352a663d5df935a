"""Command-line front end.

    isd measure  DOC.json --info NAME [inputs...]   eleven measures of one information
    isd analyze  DOC.json --system NAME             efficacy grid and propagation
    isd verify   [--seed N --trials N --filter a,b] named verification checks
    isd scenario NAME                               run a built-in scenario

Exit codes: 0 success, 1 a verification or scenario check failed,
2 bad input (unreadable document, unknown name, bad flag value).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from ._version import __version__
from .dynamics import (
    ALL_MEASURES,
    MeasureProfile,
    config_efficacies,
    propagate,
    stage_efficacies,
)
from .document import atomic_write_text, load_document
from .errors import ISDError, MeasureInputError
from .measures import (
    AtomWeighting,
    MeasureAssignment,
    Metric,
    aggregation,
    coverage,
    delay,
    distortion,
    duration,
    granularity,
    mismatch,
    sampling_rate,
    scope,
    variety,
    volume,
)
from .model import atoms
from .report import Report

_NOT_COMPUTED = "not computed: missing {}"


def _parse_mu(args) -> AtomWeighting:
    if args.mu == "counting":
        return AtomWeighting.counting()
    if not args.mu_weights:
        raise ISDError("--mu explicit needs --mu-weights like '0=1,1=1/2'")
    weights = {}
    for part in args.mu_weights.split(","):
        try:
            idx, w = part.split("=", 1)
            idx, w = int(idx), Fraction(w)
        except (ValueError, ZeroDivisionError):
            raise ISDError(f"bad --mu-weights entry {part!r}") from None
        if idx in weights:
            raise MeasureInputError(f"--mu-weights gives atom index {idx} twice")
        weights[idx] = w
    return AtomWeighting.explicit(weights)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return n


def _split(text: str | None) -> list[str]:
    return [p for p in (text or "").split(",") if p]


def cmd_measure(args) -> int:
    from .oracles import measurement_reflection

    doc = load_document(args.document)
    if args.info:
        info = doc.information(args.info)
    elif len(doc.informations) == 1:
        info = doc.informations[0]
    elif not doc.informations:
        raise ISDError("document declares no information to measure")
    else:
        names = ", ".join(i.name for i in doc.informations)
        raise ISDError(f"document has several informations; pick one with --info ({names})")

    sigma = doc.measure(args.sigma) if args.sigma else MeasureAssignment.counting()
    mu = _parse_mu(args)
    n_atoms = len(atoms(info))
    for idx in mu.weights:
        if not 0 <= idx < n_atoms:
            raise MeasureInputError(
                f"--mu-weights names atom index {idx}, but {info.name!r} has "
                f"atoms 0 to {n_atoms - 1}"
            )
    bound = [doc.bound_relation(n) for n in _split(args.relations)]
    for b in bound:
        if b.info != info.name:
            raise ISDError(
                f"relation {b.relation.name!r} is declared on {b.info!r}, not {info.name!r}"
            )
    relations = [b.relation for b in bound]

    report = Report(f"measures: {info.name}")
    report.stamp("version", __version__)
    report.stamp("sigma", args.sigma or "counting")
    report.stamp("mu", args.mu)
    sec = report.section("measures")

    sec.add("Volume", volume(info, sigma))
    sec.add("Delay", delay(info, mu))
    sec.add("Scope", scope(info, sigma))
    sec.add("Granularity", granularity(info, sigma, mu))

    eq = next((r for r in relations if r.declared_equivalence), None)
    if eq is None:
        sec.add("Variety", _NOT_COMPUTED.format("equivalence relation (--relations)"))
    else:
        sec.add("Variety", variety(info, eq), note=f"relation {eq.name!r}")

    sec.add("Duration", duration(info))
    sec.add("SamplingRate", sampling_rate(info))

    if relations:
        sec.add("Aggregation", aggregation(info, relations, mode=args.aggregation_mode),
                note=f"{len(relations)} relation(s), {args.aggregation_mode}")
    else:
        sec.add("Aggregation", _NOT_COMPUTED.format("relations (--relations)"))

    if args.coverage_target:
        target = []
        declared = {e.id: e for e in doc.entities}
        for eid in _split(args.coverage_target):
            if eid not in declared:
                raise ISDError(f"unknown entity {eid!r} in --coverage-target")
            target.append(declared[eid])
        copies = [doc.information(n) for n in _split(args.copies)]
        sec.add(
            "Coverage",
            coverage(info, copies, sigma, target,
                     allow_non_copies=args.allow_non_copies),
            note=f"{len(copies)} copies",
        )
    else:
        sec.add("Coverage", _NOT_COMPUTED.format("target entities (--coverage-target)"))

    metric = Metric(args.metric)
    sec.add("Distortion", distortion(info, measurement_reflection(info), metric),
            note=f"identity decode, {args.metric}")

    if args.target:
        other = doc.information(args.target)
        sec.add("Mismatch", mismatch(info, other, Metric("weighted_product")),
                note=f"against {other.name!r}")
    else:
        sec.add("Mismatch", _NOT_COMPUTED.format("target information (--target)"))

    _deliver(report, args)
    return 0


def cmd_analyze(args) -> int:
    doc = load_document(args.document)
    if args.system:
        system = doc.system(args.system)
    elif len(doc.systems) == 1:
        system = doc.systems[0]
    else:
        names = ", ".join(s.name for s in doc.systems) or "none declared"
        raise ISDError(f"pick a system with --system ({names})")

    retained = config_efficacies(system)

    report = Report(f"analysis: {system.name}")
    report.stamp("version", __version__)
    report.stamp("shape", system.shape.value)

    grid = report.section("efficacy grid")
    stage_cols = [f"{s.name}:{s.kind.value}" for s in system.stages]
    header = ["measure", *stage_cols, "config"]
    widths = [len(h) for h in header]
    rows = []
    for m in ALL_MEASURES:
        cells = [m.value]
        for s in system.stages:
            cells.append("x" if m in stage_efficacies(s.kind) else "-")
        cells.append("x" if m in retained else "-")
        rows.append(cells)
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    grid.say("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for cells in rows:
        grid.say("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    grid.add("measures the configuration can move", len(retained))

    prop = report.section("propagation from defaults")
    result = propagate(system, MeasureProfile({}))
    for m in ALL_MEASURES:
        prop.add(m.value, result.end[m])
    for w in result.warnings:
        prop.say(f"warning: {w}")

    _deliver(report, args)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verify

    report = run_verify(seed=args.seed, trials=args.trials, names=_split(args.filter))
    _deliver(report, args)
    return 0 if report.ok else 1


def cmd_scenario(args) -> int:
    from .scenario import run_scenario

    report = run_scenario(args.name)
    _deliver(report, args)
    return 0 if report.ok else 1


def _deliver(report: Report, args) -> None:
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2, ensure_ascii=False) + "\n"
    else:
        text = report.to_text(color=False if args.output else None)
    if args.output:
        atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="rendering (default text)")
    p.add_argument("--output", metavar="PATH",
                   help="write the report to PATH (atomic) instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isd", description="information measures, dynamics, and checks"
    )
    parser.add_argument("--version", action="version", version=f"isd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="compute the eleven measures of one information")
    m.add_argument("document", help="model document (JSON)")
    m.add_argument("--info", help="information name (optional when the document has one)")
    m.add_argument("--sigma", help="entity measure name from the document (default counting)")
    m.add_argument("--mu", choices=("counting", "explicit"), default="counting",
                   help="atom weighting (default counting)")
    m.add_argument("--mu-weights", help="explicit atom weights like '0=1,1=1/2'")
    m.add_argument("--relations", help="comma-separated relation names bound to the information")
    m.add_argument("--aggregation-mode", choices=("instances", "types"), default="instances")
    m.add_argument("--coverage-target", help="comma-separated entity ids the copies should reach")
    m.add_argument("--copies", help="comma-separated information names counted as copies")
    m.add_argument("--allow-non-copies", action="store_true",
                   help="count informations that are not literal copies")
    m.add_argument("--target", help="information name to compare against for mismatch")
    m.add_argument("--metric", default="symmetric_difference_count",
                   choices=("symmetric_difference_count", "jaccard_distance",
                            "euclidean_on_values"),
                   help="distortion metric (default symmetric_difference_count)")
    _common_output(m)
    m.set_defaults(fn=cmd_measure)

    a = sub.add_parser("analyze", help="efficacy grid and propagation for a system")
    a.add_argument("document", help="model document (JSON)")
    a.add_argument("--system", help="system name (optional when the document has one)")
    _common_output(a)
    a.set_defaults(fn=cmd_analyze)

    v = sub.add_parser("verify", help="run the named verification checks")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=_positive_int, default=200)
    v.add_argument("--filter", help="comma-separated check names to run")
    _common_output(v)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scenario", help="run a built-in scenario")
    s.add_argument("name", help="scenario name (news_pipeline)")
    _common_output(s)
    s.set_defaults(fn=cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ISDError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
