#!/usr/bin/env python3
"""Benchmark for fusioncast, run from the root of a source checkout:

    python3 bench/run.py --workload {experiment,record,live} --seed N --seconds S --trace {0,1}

The workload's inputs come from --seed. Passes of the workload's pipeline run
until they have taken --seconds; each pass's outputs are checked after it,
outside the timed region. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an untraced
run, with every time scaled to a reference host speed (see hostspeed.py).
--trace 1 reports its per-layer metrics: after a traced set-up, untraced and
traced passes alternate for --seconds, and the spans are written to
.bench_out/ when the run ends.

The benchmark builds nothing: it imports fusioncast from src/ of the
checkout and exits with an error when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread of numerical work, whatever the machine has; set before numpy
# loads.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

from hostspeed import kernel_time, reference_factor  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# A p99 needs ten samples beyond it.
MIN_UNITS = 1000


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Pass:
    duration: float  # seconds as measured
    factor: float  # to reference-host seconds (see hostspeed.py)
    frames: int
    latencies: list  # seconds as measured, one per unit of result


def measure(workload, tracer, seconds: float):
    """Run passes until their timed parts add up to ``seconds`` (at least one).

    The reference kernel is timed before the first pass and after each pass,
    and each pass gets the factor of the kernel times on either side of it.
    Returns the passes, and the counts of output checks attempted and failed.
    """
    passes = []
    attempted = failed = elapsed = 0
    before = kernel_time()
    while not passes or elapsed < seconds:
        start = time.perf_counter()
        with tracer.span("pass"):
            result = workload.run_pass(tracer)
        duration = time.perf_counter() - start
        after = kernel_time()
        elapsed += duration
        passes.append(Pass(duration, reference_factor(before, after), result.frames,
                           result.latencies))
        before = after
        a, f = workload.check(result)
        attempted, failed = attempted + a, failed + f
    return passes, attempted, failed


def latency_percentiles(passes):
    """p50 and p99 of the scaled unit-of-result latencies, and how they were
    taken.

    Consecutive passes are grouped so that each group holds MIN_UNITS
    latencies (a last, smaller group joins the one before it), and each
    percentile is the median of its per-group values. A run with fewer than
    MIN_UNITS latencies in all has too few for a p99: each unit of result (a
    report, a session) is then taken at its median over the passes.
    """
    groups, current = [], []
    for p in passes:
        current += [lat * p.factor for lat in p.latencies]
        if len(current) >= MIN_UNITS:
            groups.append(current)
            current = []
    if not groups:
        units = [statistics.median(lat * p.factor for lat, p in zip(unit, passes))
                 for unit in zip(*(p.latencies for p in passes))]
        return percentile(units, 0.50), percentile(units, 0.99), f"over {len(units)} units"
    groups[-1] += current
    return (statistics.median(percentile(g, 0.50) for g in groups),
            statistics.median(percentile(g, 0.99) for g in groups),
            f"median over {len(groups)} groups of passes")


def end_to_end(workload, seconds: float):
    """End-to-end figures: medians over the whole run, in reference-host
    seconds."""
    tracer = NullTracer()
    setups, passes = [], []
    attempted = failed = 0
    # Set-up repeats between stretches of passes, so that one slow spell of
    # the machine cannot set the median of the set-up times.
    for _ in range(SETUP_REPEATS):
        before = kernel_time()
        start = time.perf_counter()
        workload.setup(tracer)
        duration = time.perf_counter() - start
        setups.append(duration * reference_factor(before, kernel_time()))
        more, a, f = measure(workload, tracer, seconds / SETUP_REPEATS)
        passes += more
        attempted, failed = attempted + a, failed + f

    wall_s = statistics.median(p.duration * p.factor for p in passes)
    p50, p99, samples = latency_percentiles(passes)
    print(f"passes {len(passes)}; percentiles {samples}; median pass "
          f"{statistics.median(p.duration for p in passes):.4f} s as measured, "
          f"factor {statistics.median(p.factor for p in passes):.4f}")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "frames_per_s": passes[0].frames / wall_s,
        "lat_p50_ms": p50 * 1e3,
        "lat_p99_ms": p99 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, attempted, failed


def per_layer(workload, name: str, seed: int, seconds: float, scale: str, out_dir: Path):
    """Per-layer figures for one set-up plus one pass (pass figures are the
    mean over the traced passes), and the tracing overhead per pass.

    Untraced and traced passes alternate, so that both kinds see the same
    spells of a shared machine and their difference is the tracing cost.
    """
    from workloads import COUNTERS, GROWTH_BASE_BYTES, feed_growth

    setup_tracer, pass_tracer = Tracer(), Tracer()
    start = time.perf_counter()
    with setup_tracer.span("setup"):
        workload.setup(setup_tracer)
    setup_s = time.perf_counter() - start
    untraced, traced = [], []
    attempted = failed = 0
    while sum(p.duration for p in untraced + traced) < seconds or not traced:
        for tracer, passes in ((NullTracer(), untraced), (pass_tracer, traced)):
            more, a, f = measure(workload, tracer, 0)
            passes += more
            attempted, failed = attempted + a, failed + f

    spans = [setup_tracer.summary(), pass_tracer.summary()]
    counters = [setup_tracer.counters, pass_tracer.counters]
    weights = [1.0, 1.0 / len(traced)]

    def span_total(layer: str, field: str) -> float:
        return sum(w * s[layer][field] for s, w in zip(spans, weights) if layer in s)

    def counter(key: str) -> float:
        return sum(w * c.get(key, 0.0) for c, w in zip(counters, weights))

    values = {}
    for layer in ("metrics.evaluate", "predictors.sample", "predictors.predict", "predictors.fit",
                  "windows.segment", "simulate.generate", "protocol.feed", "protocol.encode",
                  "sessions.save", "sessions.load", "sessions.push", "sessions.resample"):
        for field in ("calls", "busy_s", "self_s"):
            values[f"{layer}.{field}"] = span_total(layer, field)
    for key in COUNTERS:
        values[key] = counter(key)
    possible = counter("windows.segment.possible")
    values["windows.segment.yield"] = counter("windows.segment.windows") / possible if possible else 0.0
    values["protocol.feed.growth"] = feed_growth(seed, GROWTH_BASE_BYTES[scale])
    values["bench.self_s"] = span_total("pass", "self_s")
    values["trace.setup_s"] = setup_s
    values["trace.pass_s"] = statistics.fmean(p.duration for p in traced)
    values["trace.untraced_pass_s"] = statistics.fmean(p.duration for p in untraced)
    values["trace.overhead_s"] = values["trace.pass_s"] - values["trace.untraced_pass_s"]

    out_dir.mkdir(parents=True, exist_ok=True)
    run_info = {"workload": name, "seed": seed, "traced_passes": len(traced)}
    setup_tracer.dump(out_dir / f"spans-{name}-{seed}-setup.json", run_info)
    pass_tracer.dump(out_dir / f"spans-{name}-{seed}-passes.json", run_info)
    return values, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "fusioncast" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a fusioncast checkout; {src}/fusioncast or {spec_path} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    seed = args.seed % 2**32
    out_dir = ROOT / ".bench_out"
    workload = WORKLOADS[args.workload](seed, args.scale, out_dir / f"run-{os.getpid()}")
    try:
        if args.trace:
            values, attempted, failed = per_layer(
                workload, args.workload, seed, args.seconds, args.scale, out_dir)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed = end_to_end(workload, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        workload.close()

    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:32s} {value:16.6f} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
