"""Benchmark for the isd package: four seeded single-client workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Each workload is a closed loop with one client in one process: the next
request starts only after the previous one has returned and been
checked.  Inputs come from ``inputs.py`` and depend only on the seed;
the program is imported from ``src/`` next to this directory.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that reports per-layer spans.  End-to-end times are scaled to a
reference core speed measured around every timed step (see ``probe_s``);
the wall-clock figures are printed next to them.  In a traced run every other request
is traced, so the traced and untraced halves run under the same
conditions and their mean latencies give the tracing overhead.  Every
line before the last names a metric with its value and unit; the last
line is one JSON object.  Any failed request makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("chain_collapse", "doc_roundtrip", "tracking", "library_search")
SETUP_REPEATS = 7
WARMUP_REQUESTS = 2

# The benchmark shares its cores with other machines' work, which can slow
# pure-Python code twofold from one second to the next.  A
# fixed probe timed just before and just after each timed step shows how
# fast the core runs at that moment; end-to-end times are reported at the
# speed where the probe takes PROBE_REF_S, which is about what it takes on
# an uncontended core of the reference hardware (Xeon, Sapphire Rapids).
PROBE_ITERATIONS = 400
PROBE_REF_S = 0.0015

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (span name, label) for every call the workloads wrap; a traced run
# reports all of them, with zeros for layers its workload never calls
SPANS = (
    ("request", ""),
    ("model.check_chain", ""),
    ("model.collapse_chain", ""),
    ("measures.delay", ""),
    ("document.loads_document", ""),
    ("document.emit_document", ""),
    ("dynamics.propagate", ""),
    ("oracles.simulate_tracking", ""),
    ("oracles.tracking_information", ""),
    ("oracles.kalman_reflection", ""),
    ("oracles.measurement_reflection", ""),
    ("measures.distortion", "filter"),
    ("measures.distortion", "raw"),
    ("oracles.min_mismatch_search", ""),
    ("measures.mismatch", ""),
)
SELF_TIME_SPANS = ("request", "oracles.min_mismatch_search")


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for name, label in SPANS:
        prefix = f"{name}.{label}_" if label else f"{name}."
        out += [(prefix + "busy_s", "s"), (prefix + "calls", "count"), (prefix + "ms_per_call", "ms")]
    out += [(f"{name}.self_s", "s") for name in SELF_TIME_SPANS]
    out += [(f"{name}.errors", "count") for name in dict.fromkeys(n for n, _ in SPANS)]
    out += [
        ("model.atoms_per_request", "count"),
        ("document.bytes_in", "bytes"),
        ("document.bytes_out", "bytes"),
        ("document.byte_stable_ratio", "ratio"),
        ("oracles.filter_win_ratio", "ratio"),
        ("oracles.search.comparisons", "count"),
        ("trace.requests", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


class SetupError(RuntimeError):
    """The program cannot be found or imported from this checkout."""


def import_program():
    """Put this checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "isd", "__init__.py")):
        raise SetupError(f"no program source at {SRC}")
    sys.path.insert(0, SRC)
    import isd

    if os.path.dirname(os.path.dirname(os.path.abspath(isd.__file__))) != SRC:
        raise SetupError(f"isd was imported from {isd.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_s() -> float:
    """Time a fixed piece of pure-Python work that shares no code with the
    program but is made of what its hot paths are made of: tuples, str,
    dict and frozenset building, Fraction arithmetic and a keyed sort."""
    t0 = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for k in range(PROBE_ITERATIONS):
        table[(k % 17, str(k))] = frozenset((k, k + 1, k % 5))
        acc += Fraction(k, 7 + k % 3)
    sorted(table, key=lambda key: (key[1], key[0]))
    return time.perf_counter() - t0


def measure(step):
    """Run ``step`` between two probes; returns its result, its wall time
    and that time at the reference speed."""
    before = probe_s()
    t0 = time.perf_counter()
    value = step()
    wall = time.perf_counter() - t0
    return value, wall, wall * 2 * PROBE_REF_S / (before + probe_s())


def end_to_end(setups: list, builds: list, requests: list) -> dict[str, float]:
    """The timed end-to-end metrics from seconds per set-up step and request."""
    return {
        "setup_s": statistics.median(setups) + statistics.median(builds),
        "throughput_rps": len(requests) / sum(requests) if requests else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(requests) if requests else 0.0,
        "latency_p90_ms": 1e3 * statistics.quantiles(requests, n=10)[8] if len(requests) > 1 else 0.0,
    }


def startup() -> None:
    """A fresh interpreter starts and imports the package."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import isd"
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"fresh interpreter could not import isd: {proc.stderr.decode()[-500:]}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, warm up and measure one workload; returns the result object
    and the text lines to print before it."""
    wl_mod = import_program()
    from spans import Tracer, Untraced, summarize

    wl = wl_mod.WORKLOADS[name](seed)

    # set-up: a fresh interpreter importing the package, then turning
    # the plain inputs into program objects (the resident library, when
    # there is one, is validated here), each repeated and the medians summed
    first = wl.make(0)

    def build_first():
        wl.resident()
        wl.build(first)

    imports = [measure(startup)[1:] for _ in range(SETUP_REPEATS)]
    builds = [measure(build_first)[1:] for _ in range(SETUP_REPEATS)]

    tracer = Tracer() if trace else Untraced()
    restore = wl.instrument(tracer) if trace and hasattr(wl, "instrument") else None
    guard = wl_mod.FreshGuard()
    counts: dict[str, int] = {}
    # (wall, scaled) seconds per timed request, keyed by whether it was traced
    latencies = {True: [], False: []}
    scale: dict[int, float] = {}  # scaled over wall time, per traced request
    attempted = failed = 0
    problems: list[str] = []

    def one(i: int, timed: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        # alternate so that, over two passes of a workload's repeating
        # input cycle, each input runs once traced and once untraced
        lap, position = divmod(i, wl.period)
        traced = trace and timed and (position + lap) % 2 == 0
        plain = wl.make(i)
        try:
            objs = wl.build(plain)
            guard.admit(wl.inputs(objs))
            # collect the client's own garbage (inputs made, results checked)
            # now, so that no request is charged for it
            gc.collect()
            tracer.active = traced

            def step():
                with tracer.request(i):
                    return wl.request(objs, tracer)

            out, *elapsed = measure(step)
            tracer.active = False
            if traced:
                scale[i] = elapsed[1] / elapsed[0]
            guard.retire((*wl.inputs(objs), *wl.outputs(out)))
            bad = wl.check(plain, objs, out, counts if traced or not trace else {})
        except Exception:
            tracer.active = False
            bad = [traceback.format_exc()]
        if bad:
            failed += 1
            problems.append(f"request {i}: {bad[0]}")
        elif timed:
            latencies[traced].append(tuple(elapsed))

    try:
        for i in range(WARMUP_REQUESTS):
            one(i, timed=False)
        # what exists now lives for the whole run (modules, the resident
        # library); keep it out of the per-request collections
        gc.collect()
        gc.freeze()
        i = WARMUP_REQUESTS
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            one(i, timed=True)
            i += 1
    finally:
        if restore is not None:
            restore()

    lat = latencies[True] + latencies[False]
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]
    lines += [f"  {p}" for p in problems[:5]]
    lines.append(
        "wait_s none: one client, closed loop, no queues or threads, so no request waits"
    )
    lines.append(f"latency_samples {len(lat)} count")
    lines.append(f"error_rate {failed / attempted} ratio")
    if len(lat) < 100:
        lines.append("note: fewer than 100 timed requests; latency_p90_ms has under ten samples beyond it")

    metrics: dict[str, float] = {}
    if not trace:
        wall = end_to_end(*([w for w, _ in ts] for ts in (imports, builds, lat)))
        scaled = end_to_end(*([s for _, s in ts] for ts in (imports, builds, lat)))
        for key, value in wall.items():
            lines.append(f"wall_{key} {value} {dict(END_TO_END)[key]}")
        metrics.update(scaled)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    else:
        metrics.update(layer_metrics(wl, summarize(tracer.spans, scale), counts, latencies))
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(path)
        lines.append(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        units = dict(per_layer_names())
    for key, value in metrics.items():
        lines.append(f"{key} {value} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def layer_metrics(wl, stats, counts, latencies) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, label in SPANS:
        st = stats.get((name, label))
        prefix = f"{name}.{label}_" if label else f"{name}."
        out[prefix + "busy_s"] = st.busy_s if st else 0.0
        out[prefix + "calls"] = st.calls if st else 0
        out[prefix + "ms_per_call"] = 1e3 * st.busy_s / st.calls if st else 0.0
    for name in SELF_TIME_SPANS:
        st = stats.get((name, ""))
        out[f"{name}.self_s"] = st.self_s if st else 0.0
    for name, _ in SPANS:
        out[f"{name}.errors"] = sum(st.errors for (n, _), st in stats.items() if n == name)

    traced, untraced = latencies[True], latencies[False]
    n = max(len(traced), 1)
    out["model.atoms_per_request"] = counts.get("atoms", 0) / n
    out["document.bytes_in"] = counts.get("bytes_in", 0)
    out["document.bytes_out"] = counts.get("bytes_out", 0)
    out["document.byte_stable_ratio"] = counts.get("stable", 0) / n
    out["oracles.filter_win_ratio"] = counts.get("filter_wins", 0) / n
    out["oracles.search.comparisons"] = sum(getattr(wl, "cycle_comparisons", {}).values())
    out["trace.requests"] = len(traced)
    if traced and untraced:
        traced_mean = statistics.fmean(s for _, s in traced)
        out["trace.overhead_frac"] = traced_mean / statistics.fmean(s for _, s in untraced) - 1
    else:
        out["trace.overhead_frac"] = 0.0
    return {k: out[k] for k, _ in per_layer_names()}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line, flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace {trace} printed no result:\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            merged["correct"] &= result["correct"] and proc.returncode == 0
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                merged["metrics"][f"{name}/{key}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as e:
        print(f"benchmark cannot start: {e}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
