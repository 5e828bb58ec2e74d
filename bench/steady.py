"""Steadiness check: two sets of runs of the same code must agree.

    python3 bench/steady.py [--runs 10] [--workloads graded,search]

Runs ``bench/run.py`` (untraced, for BENCHMARK.json's ``run_seconds``) in
two sets of `--runs` runs per workload, each run with its own seed, and
reports per workload and end-to-end metric the median and quartiles of
both sets (``statistics.quantiles(n=4)``), the spread (interquartile
distance over the median) and whether the metric is steady: both spreads
within the metric's bound from BENCHMARK.json, and the two medians apart
by at most the bound, as a share of the first. Seeds count up from a fixed
offset per workload, so every check of a workload uses the same seeds.
The last line of standard output is a JSON summary; the exit status is 1
if any metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEED_OFFSET = 1000  # workload i (from 0, in BENCHMARK.json order) uses seeds from (i + 1) * SEED_OFFSET


def one_run(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: wrong answers")
    return {name: m["value"] for name, m in result["metrics"].items()}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def apart_by(first: float, second: float) -> float:
    return abs(second - first) / first if first else 0.0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    summary: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        first_seed = seed = (names.index(workload) + 1) * SEED_OFFSET
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(args.runs):
                runs.append(one_run(spec, workload, seed, seconds))
                seed += 1
            sets.append(runs)
        summary[workload] = {"first_seed": first_seed, "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([run[name] for run in runs]) for runs in sets]
            ok = all(s["spread"] <= bound and apart_by(stats[0]["median"], s["median"]) <= bound for s in stats)
            steady = steady and ok
            summary[workload]["metrics"][name] = {"sets": stats, "bound": bound, "steady": ok}
            cells = "  ".join(f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] {s['spread']:.3f}" for s in stats)
            print(f"{workload:9s} {name:18s} {cells}  bound {bound}  {'ok' if ok else 'NOT STEADY'}", flush=True)
    print(json.dumps({"steady": steady, "runs": args.runs, "seconds": seconds, "workloads": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
