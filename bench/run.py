"""Benchmark of the kgraphs package: three seeded workloads, one closed-loop
client each, run against the package source in ``src/`` of this checkout.

    python3 bench/run.py --workload graded|search|pipeline --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` it sets up the inputs several times (reporting the
median as ``setup_s``), repeats the workload's operation cycle until
``--seconds`` have passed, checks every answer against ``oracle.py`` and
prints the end-to-end metrics. With ``--trace 1`` it runs the first
cycle three times (to fill the package's caches, untraced, traced) and
prints the per-layer metrics of ``tracer.py``. Metric names and units
come from ``BENCHMARK.json``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A wrong answer exits 1; a checkout without the package exits
2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import sys

from harness import (REFERENCE_S, ROOT, Outcome, calibrate, cli_probe, cpu_seconds, import_package,
                     peak_rss_mb, percentile)

SETUP_REPEATS = 11
# The package's searches walk dicts and sets of strings, whose order
# follows Python's per-process hash seed: with a random one, the median
# `search` operation on the same inputs took from 0.43 to 0.50 ms from
# run to run. The run, and every child it starts, uses this fixed hash
# seed instead.
HASH_SEED = "0"
BATCH_OPS = 100  # so that a batch's p90 has at least ten samples beyond it


# ------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its scratch files and stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    wl = importlib.import_module(args.workload)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            return traced_run(wl, args, workdir, spec["per_layer"])
        return timed_run(wl, args, workdir, spec["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def setup(wl, seed: int, workdir: str, repeats: int):
    """Set up `repeats` times; the median CPU time, each repetition scaled
    like the operations by the reference speed measured around it."""
    ref = calibrate()
    times = []
    for _ in range(repeats):
        t0 = cpu_seconds()
        pkg = import_package()
        state = wl.setup(pkg, seed, workdir)
        spent = cpu_seconds() - t0
        ref_after = calibrate()
        times.append(spent * REFERENCE_S / ((ref + ref_after) / 2))
        ref = ref_after
    return pkg, state, statistics.median(times)


def report(spec: list[dict], correct: bool, attempted: int, failed: int, values: dict[str, float]) -> int:
    """Print the metrics of `spec` (a metric list of BENCHMARK.json) by
    name and unit, then the JSON result line."""
    if {m["name"] for m in spec} != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def timed_run(wl, args, workdir: str, spec: list[dict]) -> int:
    pkg, state, setup_s = setup(wl, args.seed, workdir, SETUP_REPEATS)
    out = Outcome()
    cycle = 0
    while cycle == 0 or out.wall < args.seconds:
        out.run_cycle(wl.cycle(pkg, state, cycle))
        cycle += 1
    wrong = out.wrong_answers()
    for line in wrong[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    n = len(out.latencies)
    if n < BATCH_OPS:
        print(f"warning: {n} operations; p90 has fewer than 10 samples beyond it", file=sys.stderr)
    # Each batch of whole cycles has enough operations for its own p90; the
    # median over batches discounts a batch that ran in a slow spell.
    batches = out.batches(BATCH_OPS)
    metrics = {
        "throughput_ops_s": statistics.median(len(b) / sum(b) for b in batches),
        "lat_p50_ms": statistics.median(percentile(b, 0.50) for b in batches) * 1000.0,
        "lat_p90_ms": statistics.median(percentile(b, 0.90) for b in batches) * 1000.0,
        "success_rate": (n - out.failed) / n,
        "peak_rss_mb": peak_rss_mb(children=wl.USES_CLI),
        "setup_s": setup_s,
    }
    print(f"{args.workload}: {cycle} cycles in {len(batches)} batches, {n} operations, "
          f"{out.failed} failed, {len(wrong)} wrong, wall {out.wall:.2f} s", file=sys.stderr)
    return report(spec, not wrong, n, out.failed, metrics)


def traced_run(wl, args, workdir: str, spec: list[dict]) -> int:
    import tracer

    pkg, state, _ = setup(wl, args.seed, workdir, 1)
    warm, plain, traced = Outcome(), Outcome(), Outcome()
    # the first pass fills the package's own caches (catalog graphs and
    # their matrix memos), so the untraced and traced passes start alike
    warm.run_cycle(wl.cycle(pkg, state, 0))
    plain.run_cycle(wl.cycle(pkg, state, 0))
    t = tracer.Tracer()
    spans_dir = os.path.join(workdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    if wl.USES_CLI:
        state["trace_dir"] = spans_dir
    else:
        t.install()
    try:
        traced.run_cycle(wl.cycle(pkg, state, 0), on_op=lambda i: setattr(t, "op", i))
    finally:
        t.uninstall()
        state.pop("trace_dir", None)
    spans, counters = t.spans, t.counters
    if wl.USES_CLI:
        spans, counters = load_child_spans(spans_dir)
    outcomes = (warm, plain, traced)
    wrong = [line for o in outcomes for line in o.wrong_answers()]
    probe, probe_wrong = cli_probe()
    wrong += probe_wrong
    for line in wrong[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    metrics = tracer.layer_metrics(spans, counters)
    metrics.update(probe)
    metrics["trace.overhead_ratio"] = traced.busy / plain.busy
    metrics["trace.spans"] = len(spans)
    n = sum(len(o.latencies) for o in outcomes)
    return report(spec, not wrong, n, sum(o.failed for o in outcomes), metrics)


def load_child_spans(spans_dir: str) -> tuple[list[list], dict]:
    import tracer

    spans: list[list] = []
    counters: dict = {}
    for name in sorted(os.listdir(spans_dir), key=lambda s: int(s.split(".")[0])):
        with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        base = len(spans)
        for span in doc["spans"]:
            if span[3] >= 0:
                span[3] += base
            spans.append(span)
        tracer.merge_counters(counters, doc["counters"])
    return spans, counters


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    raise SystemExit(main())
