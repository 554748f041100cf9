"""``paper_lem``: the paper's reference crowd, one in-process caller.

``run_simulation(paper_config(2560, "lem", seed), engine="vectorized")``
on the 480x480 grid for 400 steps — long enough for the two groups to
meet mid-grid (around step 250 the number of agents that can decide a
move collapses to roughly a fifth, and it recovers by step ~350). The
run is compute-bound and never touches the planner, pool or service.
"""

from __future__ import annotations

import time

import numpy as np
from repro import build_engine, paper_config, run_simulation
from repro.engine.warmstate import reset_warmstate, warmstate_stats

from .common import Outcome, median, percentile, repeat_while_time_left, self_peak_mb
from .counting import BYTES_BACKEND, bytes_tally
from .layers import warm_hit_ratio
from .tracing import SpanLog, put_engine_metrics, wrap_engine

AGENTS = 2560
STEPS = 400
SETUP_REPS = 5
#: Runs measured at least: this box's CPU speed drifts by 10-20% within
#: seconds, so one run alone would not repeat within the bound.
MIN_RUNS = 2


def config(seed: int):
    return paper_config(AGENTS, "lem", seed=seed, steps=STEPS)


def measure_setup(cfg) -> float:
    """Median cold engine construction (warm-state caches emptied first)."""
    walls = []
    for _ in range(SETUP_REPS):
        reset_warmstate()
        t0 = time.perf_counter()
        build_engine(cfg, engine="vectorized")
        walls.append(time.perf_counter() - t0)
    return median(walls)


class StepClock:
    """``run_simulation`` callback: wall between consecutive step reports."""

    def __init__(self) -> None:
        self.walls = []
        self.decided = []
        self._last = None

    def __call__(self, engine, report) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.walls.append(now - self._last)
        self._last = now
        self.decided.append(report.decided)


def timed_run(cfg, **kwargs):
    clock = kwargs.pop("callback", None) or StepClock()
    t0 = time.perf_counter()
    timed = run_simulation(cfg, engine="vectorized", callback=clock, **kwargs)
    wall = time.perf_counter() - t0
    return {"timed": timed, "wall": wall, "clock": clock}


def end_to_end(runs, cfg) -> dict:
    walls = [r["wall"] for r in runs]
    steps = [w for r in runs for w in r["clock"].walls]
    return {
        "agent_steps_per_s": (cfg.total_agents * cfg.steps * len(runs) / sum(walls), len(runs)),
        "step_ms_p50": (1e3 * median(steps), len(steps)),
        "jobs_per_s": (len(runs) / sum(walls), len(runs)),
        "job_latency_ms_p50": (1e3 * percentile(walls, 50), len(walls)),
        "job_latency_ms_p90": (1e3 * percentile(walls, 90), len(walls)),
    }


def check(out: Outcome, cfg, runs, sequential) -> None:
    ref = sequential.result
    for i, r in enumerate(runs):
        res = r["timed"].result
        out.check(
            f"paper_lem run {i} equals SequentialEngine",
            res.throughput_total == ref.throughput_total
            and np.array_equal(res.moved_per_step, ref.moved_per_step)
            and np.array_equal(res.crossings_per_step, ref.crossings_per_step),
            f"throughput {res.throughput_total} vs {ref.throughput_total}, "
            f"moved total {int(res.moved_per_step.sum())} vs {int(ref.moved_per_step.sum())}",
        )
    decided = runs[0]["clock"].decided
    low = int(np.argmin(decided))
    out.check(
        "paper_lem groups meet mid-grid and recover",
        decided[low] < 0.5 * cfg.total_agents
        and 150 <= low <= 350
        and decided[-1] >= 0.95 * cfg.total_agents,
        f"decided falls to {decided[low]} at step {low}, ends at {decided[-1]}",
    )


def run(out: Outcome, seconds: float) -> None:
    cfg = config(out.seed)
    out.inputs.update(
        grid="480x480",
        agents=cfg.total_agents,
        steps=cfg.steps,
        model="lem",
        loop="closed, 1 in-process caller",
        repeated_spec_share=0.0,
        results_above_shm_threshold=0.0,
        padded_slot_share=0.0,
    )
    setup_s = measure_setup(cfg)

    runs = []

    def once():
        runs.append(timed_run(cfg))
        out.operation(True)

    repeat_while_time_left(seconds, once, MIN_RUNS)
    e2e = end_to_end(runs, cfg)
    out.put("setup_s", setup_s, SETUP_REPS)
    out.put("peak_rss_mb", self_peak_mb(), 1)
    for name, (value, n) in e2e.items():
        out.put(name, value, n)
    out.inputs["agent_steps"] = cfg.total_agents * cfg.steps * len(runs)

    # Correctness, outside the timed region: the plain single-threaded
    # engine is the reference (and, traced, the sequential baseline).
    sequential = run_simulation(cfg, engine="sequential")
    check(out, cfg, runs, sequential)

    if out.trace:
        traced_pass(out, cfg, sequential)


def traced_pass(out: Outcome, cfg, sequential) -> None:
    """Spans around the engine's stages; dispatch, alloc and byte counts.

    The stage spans and the counting backend share one run; their cost is
    part of the tracing overhead the run reports.
    """
    log = SpanLog()
    tally = bytes_tally()
    byte_marks = []

    class TracedClock(StepClock):
        def __call__(self, engine, report) -> None:
            if self._last is None:
                # First report: the engine exists now; span its stages
                # from step 1 on (step 0 pays one-off scratch allocation).
                wrap_engine(log, engine, "paper_lem")
            byte_marks.append(tally.nbytes)
            super().__call__(engine, report)

    before = warmstate_stats()
    with log.span("workload.run", "paper_lem"):
        # profile=True wraps the byte-counting backend in the program's
        # dispatch-counting one.
        r = timed_run(cfg, callback=TracedClock(), backend=BYTES_BACKEND, profile=True)
    hit_ratio = warm_hit_ratio(before, warmstate_stats())

    check(out, cfg, [r], sequential)
    traced = end_to_end([r], cfg)
    put_engine_metrics(out, log)
    profile = r["timed"].profile
    out.put(
        "engine.sequential.step_ms",
        1e3 * sequential.wall_seconds / sequential.result.steps_run,
        sequential.result.steps_run,
    )
    out.put("backend.dispatches_per_step", profile.ops_per_step, profile.steps)
    out.put("backend.allocs_per_step", profile.allocs_per_step, profile.steps)
    out.put(
        "backend.bytes_per_step",
        (byte_marks[-1] - byte_marks[0]) / (len(byte_marks) - 1),
        len(byte_marks) - 1,
        note="computed",
    )
    out.put("warmstate.hit_ratio", hit_ratio, 1)
    traced_e2e = {k: v[0] for k, v in traced.items()}
    traced_e2e["peak_rss_mb"] = self_peak_mb()
    out.extra["traced_e2e"] = traced_e2e
    out.spans = log
