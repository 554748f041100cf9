"""Shared plumbing: locating the program, statistics, run records, output."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: ``perfbench/`` — the benchmark's own directory.
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The checkout root (the benchmark runs from there).
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Span files and reports land here (ignored by git).
OUT_DIR = os.path.join(BENCH_DIR, "out")


class ProgramMissing(RuntimeError):
    """The checkout holds no simulator sources to benchmark."""


def load_program() -> None:
    """Put ``src/`` on the import path; fail when the program is absent.

    Pool workers start through forkserver, which hands them this
    process's ``sys.path``; ``PYTHONPATH`` is set as well so any other
    child sees the same sources.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no simulator sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """``pct``-th percentile (inclusive method; a single sample is itself)."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def self_peak_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pool_peak_mb(pool) -> float:
    """Sum of the pool workers' peak resident sets.

    Forkserver workers are not children of this process, so
    ``RUSAGE_CHILDREN`` never sees them; instead one ``getrusage`` task
    goes to each worker. The pool hands concurrently submitted tasks to
    distinct idle workers, so the pool must be idle when this is called.
    """
    futures = [
        pool.submit(resource.getrusage, resource.RUSAGE_SELF)
        for _ in range(pool.workers)
    ]
    return sum(f.result(timeout=60).ru_maxrss for f in futures) / 1024.0


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _llc_bytes() -> Optional[int]:
    for name in ("SC_LEVEL3_CACHE_SIZE", "SC_LEVEL2_CACHE_SIZE"):
        try:
            size = os.sysconf(name)
        except (ValueError, OSError):
            continue
        if size and size > 0:
            return int(size)
    return None


def run_record() -> dict:
    """What the machine looked like when a result was taken."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "loadavg_1m_start": os.getloadavg()[0],
        "started_unix": time.time(),
    }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    workload: str
    seed: int
    trace: bool
    record: dict
    #: Metric name -> unit, from ``BENCHMARK.json``.
    units: Dict[str, str]
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[dict] = field(default_factory=list)
    inputs: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    #: The traced run's :class:`~benchlib.tracing.SpanLog`.
    spans: Optional[object] = None

    def put(self, name: str, value: float, samples: int, note: str = "") -> None:
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = Metric(value, self.units[name], int(samples), note)

    def operation(self, ok: bool, count: int = 1) -> None:
        """Count ``count`` attempted operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failing check is a failed operation."""
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        self.operation(bool(ok))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)

    def table(self) -> str:
        """Human-readable summary printed before the JSON line."""
        lines = [
            f"workload {self.workload}  seed {self.seed}  trace {int(self.trace)}",
            "machine  " + ", ".join(f"{k}={v}" for k, v in self.record.items()),
        ]
        if self.inputs:
            lines.append(
                "inputs   " + ", ".join(f"{k}={v}" for k, v in self.inputs.items())
            )
        lines.append(f"{'metric':34s} {'value':>14s} {'unit':14s} {'n':>7s}")
        for name, m in self.metrics.items():
            line = f"{name:34s} {m.value:14.6g} {m.unit:14s} {m.samples:7d}"
            if m.note:
                line += f"  {m.note}"
            lines.append(line)
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        lines.append(
            f"{'error_rate':34s} {error_rate:14.6g} {'fraction':14s} "
            f"{self.attempted:7d}  ({self.failed} failed)"
        )
        for c in self.checks:
            status = "ok  " if c["ok"] else "FAIL"
            lines.append(f"check {status} {c['check']}  {c['detail']}")
        return "\n".join(lines)

    def summary_line(self, names: Sequence[str]) -> str:
        """The final stdout line: the ``names`` metrics and the tallies."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.metrics[name].value, "unit": self.metrics[name].unit}
                    for name in names
                },
            }
        )

    def save(self, path: str) -> None:
        self.record["loadavg_1m_end"] = os.getloadavg()[0]
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "record": self.record,
            "inputs": self.inputs,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted if self.attempted else 1.0,
            "checks": self.checks,
            "metrics": {
                name: {
                    "value": m.value,
                    "unit": m.unit,
                    "samples": m.samples,
                    **({"note": m.note} if m.note else {}),
                }
                for name, m in self.metrics.items()
            },
            **self.extra,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=False)
            fh.write("\n")


def repeat_while_time_left(seconds: float, once, minimum: int = 1) -> List:
    """Call ``once()`` whole, again only while another call fits in ``seconds``.

    The run always measures at least ``minimum`` whole units of work; a
    unit is never cut short, so every run measures the same kind of work.
    """
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(once())
        last = time.perf_counter() - t0
    return results
