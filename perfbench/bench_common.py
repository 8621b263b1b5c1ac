"""Helpers shared by the benchmark's workloads.

Everything here is stdlib-only, so the harness adds no layer of its own
to what it measures: locating the checkout's source, the time-budgeted
measurement loop, in-memory spans, set-up probes, summary statistics
and the single JSON result line the benchmark ends with.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from speed import scale

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for server caches, logs and span exports (gitignored).
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def load_expected(workload: str) -> Dict[str, Any]:
    """Recorded outputs for ``workload`` (see ``record.py``)."""
    try:
        with open(EXPECTED_PATH) as handle:
            return json.load(handle)[workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no recorded outputs for {workload}: {exc}")


def input_order(workload: str, seed: int, keys: List[Any]) -> List[Any]:
    """The run's inputs: the recorded pool in a seed-determined order."""
    return random.Random(f"{workload}:{seed}").sample(list(keys), len(keys))


def workdir(name: str) -> str:
    """A fresh, empty scratch directory under the checkout."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Tracer:
    """In-memory spans (name, start, end, parent); exported at the end."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack
                  else None, "start": time.perf_counter(), **tags}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def export(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **record},
                                        sort_keys=True) + "\n")


def measure(
    seconds: float,
    inputs: List[Any],
    run_unit: Callable[[Any], Dict[str, Any]],
    min_units: int = 3,
) -> Tuple[float, float, List[Dict[str, Any]]]:
    """Run units back to back for about ``seconds``.

    A new unit starts only while the median unit so far is expected to
    finish inside the budget (and always until ``min_units`` ran), so
    the phase length tracks ``seconds`` without a long overshoot.
    ``run_unit`` returns a record; its ``wall_s`` is filled in here.
    Returns the phase's start and end (``perf_counter``) and the
    per-unit records.
    """
    records: List[Dict[str, Any]] = []
    started = time.perf_counter()
    for item in inputs:
        elapsed = time.perf_counter() - started
        if len(records) >= min_units:
            typical = statistics.median(r["wall_s"] for r in records)
            if elapsed + typical > seconds:
                break
        t0 = time.perf_counter()
        record = run_unit(item)
        record["wall_s"] = time.perf_counter() - t0
        records.append(record)
    else:
        if len(records) < min_units:
            raise BenchError("input pool exhausted before min_units ran")
    return started, time.perf_counter(), records


def probe_setup(workload: str) -> float:
    """Time from spawning a fresh interpreter to its ready line.

    The probe samples its own speed (``speed.SpeedProbe``) and reports
    the reference's mean and total time on the ready line; the result
    is in nominal seconds.
    """
    argv = [sys.executable, os.path.abspath(sys.argv[0]),
            "--workload", workload, "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    fields = line.split()
    if code != 0 or len(fields) != 3 or fields[0] != b"ready":
        raise BenchError(f"set-up probe for {workload} failed (exit {code})")
    return scale(ready - float(fields[2]), float(fields[1]))


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with fewer than eleven samples
    there is no such percentile and the value is ``0.0``.
    """
    n = len(samples)
    if n < 11:
        return 0.0, 0.0, n
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process and every reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the result object as the last stdout line."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def note(message: str) -> None:
    """A human-readable report line (never the last line)."""
    print(message, flush=True)


def median(values: List[float]) -> float:
    """The median, or 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def end_to_end(setup: List[float], phase_s: float,
               records: List[Dict[str, Any]]) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics every workload reports.

    ``setup`` and ``phase_s`` are in nominal seconds (``speed.py``).
    ``wall_s`` is the measured phase's length per unit of work;
    ``ops_per_s`` counts each record's ``ops`` over the phase.
    """
    ops = sum(r["ops"] for r in records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (phase_s / len(records), "s"),
        "ops_per_s": (ops / phase_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
