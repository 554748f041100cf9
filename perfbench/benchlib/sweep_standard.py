"""``sweep_standard``: the experiments harness's traffic on a shared pool.

``SweepRunner(pad_lanes=True)`` over a 2-worker ``ExecutorPool``: Figure
6a scenarios 1-4 x {lem, aco} x 2 seeds at the ``standard`` scale
(80x80, 694 steps). One caller waits for the whole sweep. The planner
packs the 16 points into 4 launches of 7/1/6/2 lanes; on these
dispatch-bound grids the largest launch bounds the wall.
"""

from __future__ import annotations

import random
import time
from typing import List

from repro import BatchedEngine, ExecutorPool, SimulationConfig, build_engine, run_simulation
from repro.experiments.sweep import SweepRunner, sweep_grid

from .common import Outcome, median, percentile, pool_peak_mb, repeat_while_time_left, self_peak_mb
from .counting import COUNTED_BACKEND, bytes_tally
from .layers import PoolProbe, plan_shape, pool_warmstate, put_transport, warm_hit_ratio
from .tracing import SpanLog, put_engine_metrics, wrap_engine

SCENARIOS = (1, 2, 3, 4)
MODELS = ("lem", "aco")
WORKERS = 2
SETUP_REPS = 3
#: Sweeps a run measures at least; the figures are medians over them.
MIN_SWEEPS = 2
#: Steps of each launch replayed on the counting backend (traced run).
COUNTED_STEPS = 100


def points(seed: int):
    """The sweep grid; its two replication seeds derive from ``seed``."""
    seeds = tuple(random.Random(seed).sample(range(1 << 30), 2))
    return sweep_grid(SCENARIOS, seeds=seeds, models=MODELS, scale="standard")


def start_pool():
    """Spawn the pool and warm each worker with one tiny launch."""
    pool = ExecutorPool(WORKERS)
    warm = SimulationConfig(height=16, width=16, n_per_side=8, steps=5)
    futures = [pool.submit(run_simulation, warm) for _ in range(WORKERS)]
    for f in futures:
        f.result(timeout=120)
    return pool


def measure_setup(reps: int):
    """Median pool spawn + warm-up over ``reps`` set-ups; keeps the last pool."""
    walls = []
    pool = None
    for _ in range(reps):
        if pool is not None:
            pool.close()
        t0 = time.perf_counter()
        pool = start_pool()
        walls.append(time.perf_counter() - t0)
    return median(walls), pool


def unit_lanes(unit):
    """Per-lane configs of one planned unit, as the launch would run them."""
    if unit.points is not None:
        return [p.config() for p in unit.points]
    base = unit.point.config()
    return [base.replace(seed=s) for s in unit.seeds]


def plan_of(pts, units) -> dict:
    return plan_shape(
        [[c.total_agents for c in unit_lanes(u)] for u in units],
        [pts[u.indices[0]].config().steps for u in units],
    )


def sweep_once(runner, pts):
    t0 = time.perf_counter()
    records = runner.run(pts)
    return {"records": records, "wall": time.perf_counter() - t0}


def end_to_end(sweeps, pts, units) -> dict:
    walls = [s["wall"] for s in sweeps]
    agent_steps = sum(r.total_agents * r.steps for s in sweeps for r in s["records"])
    # The launch with the most agent-steps bounds the sweep's wall; its
    # records carry its wall amortised over its lanes.
    critical = max(units, key=lambda u: sum(pts[i].config().total_agents for i in u.indices))
    step_ms = []
    for s in sweeps:
        rec = s["records"][critical.indices[0]]
        step_ms.append(1e3 * rec.wall_seconds * len(critical.indices) / rec.steps)
    latencies = [s["wall"] for s in sweeps for _ in pts]
    return {
        "agent_steps_per_s": (agent_steps / sum(walls), len(sweeps)),
        "step_ms_p50": (median(step_ms), len(step_ms)),
        "jobs_per_s": (len(pts) * len(sweeps) / sum(walls), len(sweeps)),
        "job_latency_ms_p50": (1e3 * percentile(latencies, 50), len(latencies)),
        "job_latency_ms_p90": (1e3 * percentile(latencies, 90), len(latencies)),
    }


def check(out: Outcome, pool, pts, sweeps) -> None:
    """Each record's throughput must equal a solo ``run_simulation``."""
    futures = [
        pool.submit(run_simulation, p.config(), "vectorized", None, None, None, False)
        for p in pts
    ]
    solo = [f.result(timeout=170).result.throughput_total for f in futures]
    for k, s in enumerate(sweeps):
        got = [r.throughput for r in s["records"]]
        bad = [i for i, (a, b) in enumerate(zip(got, solo)) if a != b]
        out.check(
            f"sweep {k}: every record equals a solo run",
            len(got) == len(pts) and not bad,
            f"{len(pts) - len(bad)}/{len(pts)} points match",
        )


def run(out: Outcome, seconds: float) -> None:
    pts = points(out.seed)
    # Set-up time is an untraced metric: a traced run sets up once.
    reps = 1 if out.trace else SETUP_REPS
    setup_s, pool = measure_setup(reps)
    try:
        runner = SweepRunner(pad_lanes=True, executor=pool)
        units = runner.plan(pts)
        shape = plan_of(pts, units)
        out.inputs.update(
            points=len(pts),
            scale="standard 80x80, 694 steps",
            loop="closed, 1 caller waits for the whole sweep",
            launches="/".join(str(len(u.indices)) for u in units),
            repeated_spec_share=0.0,
            results_above_shm_threshold=0.0,
            padded_slot_share=round(shape["pad_frac"], 4),
        )
        sweeps: List[dict] = []

        def once():
            sweeps.append(sweep_once(runner, pts))
            out.operation(True, len(pts))

        repeat_while_time_left(seconds, once, MIN_SWEEPS)
        e2e = end_to_end(sweeps, pts, units)
        out.inputs["agent_steps"] = sum(r.total_agents * r.steps for r in sweeps[0]["records"])
        out.put("setup_s", setup_s, reps)
        out.put("peak_rss_mb", self_peak_mb() + pool_peak_mb(pool), 1 + WORKERS)
        for name, (value, n) in e2e.items():
            out.put(name, value, n)

        check(out, pool, pts, sweeps)
        if out.trace:
            traced_pass(out, pool, pts, units, sweeps[0])
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_pass(out: Outcome, pool, pts, units, reference) -> None:
    log = SpanLog()
    runner = SweepRunner(pad_lanes=True, executor=pool)
    log.wrap(runner, "plan", "planner.plan")
    warm0 = pool_warmstate(pool)
    transport0 = pool.transport_stats()
    with PoolProbe(log, pool) as probe:
        with log.span("workload.sweep", "sweep"):
            traced = sweep_once(runner, pts)
    put_transport(out, transport0, pool.transport_stats())
    out.put("warmstate.hit_ratio", warm_hit_ratio(warm0, pool_warmstate(pool)), WORKERS)
    out.check(
        "traced sweep equals untraced sweep",
        [r.throughput for r in traced["records"]] == [r.throughput for r in reference["records"]],
    )

    plan_ms = [1e3 * s.duration for s in log.named("planner.plan")]
    out.put("planner.plan_ms", median(plan_ms), len(plan_ms))
    for key, value in plan_of(pts, units).items():
        out.put(f"planner.{key}", value, 1)
    probe.put_metrics(out, traced["wall"])
    traced_e2e = {k: v[0] for k, v in end_to_end([traced], pts, units).items()}
    traced_e2e["peak_rss_mb"] = self_peak_mb() + pool_peak_mb(pool)
    out.extra["traced_e2e"] = traced_e2e

    replay(out, log, units, reference)
    out.spans = log


def build_unit_engine(unit, backend=None):
    """The engine a planned unit's launch would build, built here."""
    configs = unit_lanes(unit)
    if backend is not None:
        configs = [c.replace(backend=backend) for c in configs]
    if unit.batched and len(configs) > 1:
        lanes = configs if unit.points is not None else configs[0]
        return BatchedEngine(lanes, [c.seed for c in configs])
    return build_engine(configs[0], engine="vectorized")


def replay(out: Outcome, log: SpanLog, units, reference) -> None:
    """Re-run each planned unit in-process so the stage spans reach the engine."""
    got, want = [], []
    for k, unit in enumerate(units):
        with log.span("workload.replay", f"unit{k}"):
            eng = build_unit_engine(unit)
            wrap_engine(log, eng, f"unit{k}")
            results = eng.run(record_timeline=False)
        results = results if isinstance(results, list) else [results]
        got += [r.throughput_total for r in results]
        want += [reference["records"][i].throughput for i in unit.indices]
    out.check("in-process replay of the plan equals the pooled sweep", got == want)
    put_engine_metrics(out, log)
    counted(out, units)


def counted(out: Outcome, units) -> None:
    """Dispatch, allocation and computed-byte counts over each launch's first steps."""
    tally = bytes_tally()
    ops = allocs = nbytes = steps = 0
    for unit in units:
        eng = build_unit_engine(unit, backend=COUNTED_BACKEND)
        prof = eng.backend
        prof.reset()
        b0 = tally.nbytes
        eng.run(steps=COUNTED_STEPS, record_timeline=False)
        snap = prof.snapshot()
        ops += snap.ops
        allocs += snap.allocs
        nbytes += tally.nbytes - b0
        steps += COUNTED_STEPS
    out.put("backend.dispatches_per_step", ops / steps, steps)
    out.put("backend.allocs_per_step", allocs / steps, steps)
    out.put("backend.bytes_per_step", nbytes / steps, steps, note="computed")
