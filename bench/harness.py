"""Shared pieces of the benchmark: paths of the checkout, the operation
record, the closed-loop runner and the child-process runner for `kgraph`
commands."""

from __future__ import annotations

import gc
import importlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, NamedTuple

import gen
import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT_S = 60


class Op(NamedTuple):
    """One operation: `run` performs it and returns a comparable result,
    `check` returns None for a correct result or a description of the
    wrong answer. Ops with equal keys must give equal results."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


class OpFailed(Exception):
    """The operation did not produce an answer (error exit, traceback)."""


# ------------------------------------------------------------ the program

def import_package():
    """A fresh import of the package from this checkout's src/, so every
    set-up repetition pays the import."""
    if not os.path.isfile(os.path.join(SRC, "kgraphs", "__init__.py")):
        print(f"error: no package source at {SRC}/kgraphs", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "kgraphs" or m.startswith("kgraphs.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("kgraphs")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        print(f"error: imported kgraphs from {pkg.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return pkg


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], stdout_path: str | None = None, traced: tuple[str, int] | None = None) -> str:
    """Run one `kgraph` command in a child interpreter and return its
    standard output (or write it to `stdout_path`). A traced child runs
    bench/trace_child.py, which records spans into the given file."""
    if traced is None:
        cmd = [sys.executable, "-m", "kgraphs.cli", *argv]
    else:
        spans_path, op = traced
        cmd = [sys.executable, os.path.join(ROOT, "bench", "trace_child.py"), spans_path, str(op), *argv]
    if stdout_path is None:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env(), timeout=CLI_TIMEOUT_S)
        out = proc.stdout
    else:
        with open(stdout_path, "w", encoding="utf-8") as fh:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.PIPE, text=True, env=cli_env(),
                                  timeout=CLI_TIMEOUT_S)
        out = ""
    if "Traceback" in proc.stderr:
        raise OpFailed(f"traceback: {proc.stderr.strip().splitlines()[-1]}")
    if proc.returncode != 0:
        raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return out


# ---------------------------------------------------------------- harness

def cpu_seconds() -> float:
    """CPU time of this process plus the children it has waited for."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


# Reported times are CPU seconds scaled to a nominal machine speed, at
# which `reference_work` takes REFERENCE_S. The speed is measured again
# after every CALIBRATE_EVERY_S of measured work. On a shared 2-vCPU
# virtual machine the same pure-Python work took from 0.23 to 0.33 s of CPU
# (and of wall) time within a minute, in spells of several seconds, as
# co-tenants came and went; scaling by the reference measured around each
# stretch of work roughly halves the spread of single measurements. Wall
# time would add the time the host gives to other tenants (steal). The
# workloads are single-threaded and CPU-bound and wait only on their own
# children.
REFERENCE_S = 0.012
CALIBRATE_EVERY_S = 0.25
_REF_MATRIX = [[(i * 7919 + j * 104729 + 1) ** 5 for j in range(20)] for i in range(20)]


def reference_work() -> None:
    """A fixed mix of big-integer dot products and dictionary updates, the
    two kinds of work the package does most."""
    cols = list(zip(*_REF_MATRIX))
    [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _REF_MATRIX]
    counts: dict[tuple[int, int], int] = {}
    for i in range(25000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i


def calibrate() -> float:
    """CPU seconds `reference_work` takes now: the least of three tries,
    with the cyclic garbage collector off, whose passes over the
    benchmark's own live objects would otherwise land in some tries."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = cpu_seconds()
            reference_work()
            times.append(cpu_seconds() - t0)
    finally:
        gc.enable()
    return min(times)


class Outcome:
    def __init__(self):
        self.latencies: list[float] = []  # scaled CPU seconds per operation
        self.failed = 0
        # (key, check, result): not the op itself, whose closure may hold a
        # graph and its memo after the session is over
        self.results: list[tuple[str, Callable, Any]] = []
        self.cycle_ends: list[int] = []  # len(latencies) after each cycle
        self.wall = 0.0
        self._ref = calibrate()
        self._window: list[float] = []  # raw CPU seconds since the last calibration
        self._window_cpu = 0.0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def _close_window(self) -> None:
        ref = calibrate()
        scale = REFERENCE_S / ((self._ref + ref) / 2)
        self.latencies += [t * scale for t in self._window]
        self._window.clear()
        self._window_cpu = 0.0
        self._ref = ref

    def run_cycle(self, ops: list[Op], on_op: Callable[[int], None] | None = None) -> None:
        wall0 = time.perf_counter()
        for op in ops:
            if on_op is not None:
                on_op(len(self.latencies) + len(self._window))
            t0 = cpu_seconds()
            try:
                result = op.run()
            except Exception as exc:  # noqa: BLE001 - any error is a failed operation
                result = exc
            dt = cpu_seconds() - t0
            self._window.append(dt)
            self._window_cpu += dt
            if isinstance(result, Exception):
                self.failed += 1
                print(f"failed: {op.key}: {type(result).__name__}: {result}", file=sys.stderr)
            else:
                self.results.append((op.key, op.check, result))
            if self._window_cpu >= CALIBRATE_EVERY_S:
                self._close_window()
        self._close_window()
        self.cycle_ends.append(len(self.latencies))
        self.wall += time.perf_counter() - wall0

    def batches(self, min_ops: int) -> list[list[float]]:
        """The latencies cut at cycle ends into runs of consecutive cycles
        with at least `min_ops` operations each (a short remainder joins
        the last batch)."""
        out: list[list[float]] = []
        start = 0
        for end in self.cycle_ends:
            if end - start >= min_ops:
                out.append(self.latencies[start:end])
                start = end
        if start < len(self.latencies):
            if out:
                out[-1] = out[-1] + self.latencies[start:]
            else:
                out.append(self.latencies[start:])
        return out

    def wrong_answers(self) -> list[str]:
        seen: dict[str, Any] = {}
        wrong = []
        for key, check, result in self.results:
            if key in seen and seen[key] == result:
                continue
            problem = check(result)
            if problem is None:
                seen[key] = result
            else:
                wrong.append(f"{key}: {problem}")
        return wrong


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def fixture_data(name: str) -> gen.GraphData:
    """A catalog graph read straight from its JSON file."""
    with open(os.path.join(SRC, "kgraphs", "fixtures", f"{name}.json"), encoding="utf-8") as fh:
        return gen.from_json(fh.read())


# `tm-eq` cases whose shifts differ by thousands of steps: the dense push
# recurses once per step and ends in a RecursionError traceback.
DEEP_SHIFT_CASES = (("ex3.5-LambdaS", (0, 0), (0, 5000)), ("ex3.5-Lambda", (-3000, 0), (0, 0)))


def cli_probe() -> tuple[dict[str, float], list[str]]:
    """CPU time of starting the CLI beside a bare interpreter (median of
    5), and how many deep-shift cases fail (a nonzero exit or a traceback);
    an answer they do give is checked. Returns the metrics and any wrong
    answers."""
    def start(code: str) -> float:
        times = []
        for _ in range(5):
            t0 = cpu_seconds()
            subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True, timeout=CLI_TIMEOUT_S)
            times.append(cpu_seconds() - t0)
        return statistics.median(times) * 1000.0

    failures, wrong = 0, []
    for name, a, b in DEEP_SHIFT_CASES:
        args = [f"u:{a[0]},{a[1]}", f"u:{b[0]},{b[1]}"]
        try:
            out = run_cli(["tm-eq", name, *args]).strip()
        except OpFailed:
            failures += 1
            continue
        g = fixture_data(name)
        unit = [int(v == "u") for v in g.vertices]
        want = "equal" if oracle.Pusher(g).equal((unit, a), (unit, b)) else "not equal"
        if out != want:
            wrong.append(f"tm-eq {name} {' '.join(args)}: got {out!r}, want {want!r}")
    metrics = {
        "cli.startup_ms": start("import kgraphs.cli"),
        "cli.bare_python_ms": start("pass"),
        "cli.deep_shift_failures": failures,
    }
    return metrics, wrong
