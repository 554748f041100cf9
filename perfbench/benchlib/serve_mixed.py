"""``serve_mixed``: the HTTP service under two closed-loop clients.

A ``ServiceServer`` on an ephemeral port over ``SimulationService(executor=
ExecutorPool(1), record_timeline=True, trace=False)``. Two client threads
each submit a burst of 4 jobs in one request, poll until all 4 are done,
then send the next burst. Jobs come from a seeded generator: square grids
of 32-64 cells, 1.1-4.4% density, half LEM and half ACO, step budgets
from 60 to 2050 (short jobs 60-100). About 20% of jobs repeat an earlier
spec exactly, and about 10% of results hold a 2050-step timeline, larger
than the pool's 32 KB shared-memory threshold (per 104 jobs three long
jobs run, and seven repeats ask for them again). Engine work per job is
small, so the HTTP layer, the scheduler's micro-batching, the pool, the
result transport, the result cache with coalescing and the JSONL store
all show.

The generator is stratified: every block of 52 jobs per client has the
same make-up in the same slots (1 or 2 long jobs, 10 repeats, the rest
short; sizes and densities spread evenly over their ranges), so runs
with different seeds do the same amount of work in the same pattern.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import threading
import time
from contextlib import nullcontext
from typing import Dict, List

import numpy as np
from repro import ExecutorPool, SimulationConfig, run_simulation
from repro.engine.warmstate import reset_warmstate, warmstate_stats
from repro.service import ServiceServer, SimulationService
from repro.service.client import get_job, get_stats, submit_jobs

from .common import OUT_DIR, Outcome, median, percentile, pool_peak_mb, self_peak_mb
from .counting import BYTES_BACKEND, bytes_tally
from .layers import PoolProbe, add_stats, plan_shape, pool_warmstate, put_transport, warm_hit_ratio
from .tracing import SpanLog, put_engine_metrics, wrap_engine

WORKERS = 1
CLIENTS = 2
BURST = 4
#: Each client sends at least this many bursts, two blocks: 2 x 26 x 4 =
#: 208 jobs, so well over ten latency samples lie beyond the reported
#: 90th percentile, and the run is long enough to average out this box's
#: CPU-speed drift (10-20% within seconds).
MIN_BURSTS = 26
#: Status polls of a client's pending jobs; also the latency resolution.
POLL_S = 0.05
JOB_TIMEOUT_S = 60.0
SETUP_REPS = 3
#: One block of a client's job stream: 13 bursts of 4. Its make-up and
#: the slot of every kind are fixed per client; the seed picks the order
#: of sizes, densities, models and step budgets within a kind, and the
#: job seeds.
BLOCK = 52
#: Per client: the slots of long jobs, and repeats as slot -> how many
#: slots back the repeated spec is. One back is the same burst (coalesced
#: in one tick); further back is an earlier burst (a result-cache hit).
#: Three long jobs run, and seven repeats ask for them again, so about a
#: fifth of the jobs wait behind a long one: p50 falls among the jobs
#: that do not, p90 among those that do.
PATTERNS = (
    {"big": (3, 27), "repeat": {1: 1, 6: 5, 7: 4, 13: 1, 18: 5, 22: 1, 31: 4, 41: 1, 44: 41, 50: 5}},
    {"big": (11,), "repeat": {1: 1, 6: 5, 13: 1, 15: 4, 18: 5, 22: 11, 39: 28, 41: 1, 48: 37, 50: 5}},
)
#: Long jobs: their 2050-step timelines (16 bytes a step) make results
#: above the shm threshold. They are all ACO, on the smallest, sparsest
#: grids, so every long job holds up its tick for about as long.
BIG_STEPS = (2050,)
BIG_SIZES = (32, 36)
BIG_DENSITIES = (0.011, 0.022)
SMALL_STEPS = (60, 70, 80, 90, 100)
#: Executed jobs re-run in-process as a check (and, traced, for the engine).
SAMPLE_JOBS = 5
SHM_THRESHOLD_BYTES = 32 * 1024


def _spread(rng, n: int, lo: float, hi: float) -> list:
    """``n`` values evenly spread over ``[lo, hi]``, in seeded order."""
    values = [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _block(rng, history: List[dict], client: int):
    """One block of job specs (see :data:`BLOCK`)."""
    pattern = PATTERNS[client % len(PATTERNS)]
    kinds = [
        "repeat" if i in pattern["repeat"] else "big" if i in pattern["big"] else "small"
        for i in range(BLOCK)
    ]
    fresh = {}
    for kind, steps, sizes, densities in (
        ("big", BIG_STEPS, BIG_SIZES, BIG_DENSITIES),
        ("small", SMALL_STEPS, (32, 64), (0.011, 0.044)),
    ):
        n = kinds.count(kind)
        if kind == "big":
            models = ["aco"] * n
        else:
            # LEM makes up for the ACO long jobs: half the executed jobs
            # of each client are LEM.
            lem = (n + kinds.count("big")) // 2
            models = ["lem"] * lem + ["aco"] * (n - lem)
        fresh[kind] = {
            "size": _spread(rng, n, *sizes),
            "density": _spread(rng, n, *densities),
            "model": rng.sample(models, n),
            "steps": rng.sample([steps[i % len(steps)] for i in range(n)], n),
        }
    for i, kind in enumerate(kinds):
        if kind == "repeat":
            spec = history[-pattern["repeat"][i]]
        else:
            col = fresh[kind]
            size = int(round(col["size"].pop()))
            cfg = SimulationConfig(
                height=size,
                width=size,
                n_per_side=max(1, round(col["density"].pop() * size * size / 2)),
                steps=col["steps"].pop(),
                seed=rng.randrange(1 << 30),
            ).with_model(col["model"].pop())
            spec = {"config": cfg.to_dict(), "engine": "vectorized"}
        history.append(spec)
        yield spec


def job_specs(seed: int, client: int):
    """Endless seeded stream of wire job specs for one client."""
    rng = random.Random(f"serve_mixed:{seed}:{client}")
    history: List[dict] = []
    while True:
        yield from _block(rng, history, client)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Stack:
    """Pool, service and HTTP server of one pass, torn down together."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        self.pool = ExecutorPool(WORKERS)
        warm = SimulationConfig(height=16, width=16, n_per_side=8, steps=5)
        futures = [self.pool.submit(run_simulation, warm) for _ in range(WORKERS)]
        for f in futures:
            f.result(timeout=120)
        run_simulation(warm)  # the tick thread runs single-launch ticks inline
        self.service = SimulationService(
            state_dir, executor=self.pool, record_timeline=True, trace=False
        )
        self.server = ServiceServer(self.service, host="127.0.0.1", port=0)
        self.server.start()
        get_stats(port=self.server.port)  # serving

    def close(self) -> None:
        self.server.shutdown()
        self.pool.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


_stack_ids = iter(range(1 << 30))


def new_stack() -> Stack:
    return Stack(os.path.join(OUT_DIR, f"serve-state-{os.getpid()}-{next(_stack_ids)}"))


def measure_setup(reps: int):
    """Median set-up over ``reps`` stacks; keeps the last one running."""
    walls = []
    stack = None
    for _ in range(reps):
        if stack is not None:
            stack.close()
        t0 = time.perf_counter()
        stack = new_stack()
        walls.append(time.perf_counter() - t0)
    return median(walls), stack


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------
class Traffic:
    """Both clients' shared state: completed jobs and the stop rule."""

    def __init__(self, seconds: float) -> None:
        self.lock = threading.Lock()
        self.jobs: List[dict] = []
        self.errors: List[str] = []
        self.seconds = seconds
        self.start = 0.0
        self.end = 0.0

    def keep_going(self, bursts: int) -> bool:
        with self.lock:
            if self.errors:
                return False
        return bursts < MIN_BURSTS or time.perf_counter() - self.start < self.seconds


def client_loop(cid: int, seed: int, port: int, traffic: Traffic, barrier, log=None) -> None:
    def request(fn, *args, trace_id=None, **attrs):
        if log is None:
            return fn(*args, port=port)
        with log.span("http.request", trace_id, **attrs):
            return fn(*args, port=port)

    specs = job_specs(seed, cid)
    barrier.wait()
    n = 0
    try:
        while traffic.keep_going(n):
            burst = [next(specs) for _ in range(BURST)]
            burst_id = f"client{cid}/burst{n}"
            n += 1
            with log.span("client.burst", burst_id) if log is not None else nullcontext():
                t_submit = time.perf_counter()
                jobs = request(submit_jobs, burst, trace_id=burst_id, route="POST /jobs")
                pending = {j["job_id"]: spec for j, spec in zip(jobs, burst)}
                while pending:
                    time.sleep(POLL_S)
                    for job_id in list(pending):
                        job = request(get_job, job_id, trace_id=job_id, route="GET /jobs/<id>")
                        now = time.perf_counter()
                        if job["state"] in ("done", "failed"):
                            job["latency_s"] = now - t_submit
                            job["spec"] = pending.pop(job_id)
                            with traffic.lock:
                                traffic.jobs.append(job)
                                traffic.end = max(traffic.end, now)
                    if pending and time.perf_counter() - t_submit > JOB_TIMEOUT_S:
                        with traffic.lock:
                            traffic.errors.append(f"timed out: {sorted(pending)}")
                        break
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        with traffic.lock:
            traffic.errors.append(f"client {cid}: {exc!r}")


def drive(stack: Stack, seed: int, seconds: float, log=None) -> Traffic:
    traffic = Traffic(seconds)
    barrier = threading.Barrier(CLIENTS + 1)
    threads = [
        threading.Thread(
            target=client_loop,
            args=(cid, seed, stack.server.port, traffic, barrier, log),
            name=f"bench-client-{cid}",
        )
        for cid in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    traffic.start = time.perf_counter()
    barrier.wait()
    for t in threads:
        t.join(timeout=JOB_TIMEOUT_S + seconds + 60)
    if any(t.is_alive() for t in threads):
        traffic.errors.append("a client did not finish")
    return traffic


# ----------------------------------------------------------------------
# Metrics and checks
# ----------------------------------------------------------------------
def _agent_steps(config: dict) -> int:
    return 2 * config["n_per_side"] * config["steps"]


def end_to_end(traffic: Traffic) -> dict:
    done = [j for j in traffic.jobs if j["state"] == "done"]
    wall = traffic.end - traffic.start
    executed = [j for j in done if not j["cache_hit"]]
    # Engine step wall as the service reports it, over the launches that
    # ran one job (a batched launch reports each lane's amortised wall).
    step_ms = [
        1e3 * j["wall_seconds"] / j["spec"]["config"]["steps"] for j in executed if j["lanes"] == 1
    ]
    latencies = [j["latency_s"] for j in done]
    return {
        "agent_steps_per_s": (sum(_agent_steps(j["spec"]["config"]) for j in executed) / wall, len(executed)),
        "step_ms_p50": (median(step_ms), len(step_ms)),
        "jobs_per_s": (len(done) / wall, len(done)),
        "job_latency_ms_p50": (1e3 * percentile(latencies, 50), len(latencies)),
        "job_latency_ms_p90": (1e3 * percentile(latencies, 90), len(latencies)),
    }


def job_record(job: dict) -> dict:
    """What the result file keeps of one job (its wire result omitted)."""
    cfg = job["spec"]["config"]
    return {
        "job_id": job["job_id"],
        "state": job["state"],
        "latency_s": job["latency_s"],
        "queue_wait_s": job["queue_wait_s"],
        "cache_hit": job["cache_hit"],
        "lanes": job["lanes"],
        "wall_seconds": job["wall_seconds"],
        "grid": cfg["height"],
        "agents": 2 * cfg["n_per_side"],
        "steps": cfg["steps"],
        "model": cfg["params"]["model_name"],
    }


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def input_properties(traffic: Traffic) -> Dict[str, object]:
    jobs = traffic.jobs
    keys = [spec_key(j["spec"]) for j in jobs]
    repeats = len(keys) - len(set(keys))
    big = sum(16 * j["spec"]["config"]["steps"] >= SHM_THRESHOLD_BYTES for j in jobs)
    lem = sum(j["spec"]["config"]["params"]["model_name"] == "lem" for j in jobs)
    return {
        "jobs": len(jobs),
        "repeated_spec_share": round(repeats / len(jobs), 4),
        "results_above_shm_threshold": round(big / len(jobs), 4),
        "lem_share": round(lem / len(jobs), 4),
        "agent_steps": sum(_agent_steps(j["spec"]["config"]) for j in jobs if not j["cache_hit"]),
    }


def check(out: Outcome, traffic: Traffic) -> List[dict]:
    """Failed jobs and time-outs count as errors; repeats and a sample must match.

    Returns the sampled executed jobs (re-run in-process by the caller).
    """
    for err in traffic.errors:
        out.check("serve_mixed traffic", False, err)
    for job in traffic.jobs:
        out.operation(job["state"] == "done")
    first: Dict[str, dict] = {}
    mismatched = repeats = 0
    # Job ids number submissions in order.
    for job in sorted(traffic.jobs, key=lambda j: j["job_id"]):
        key = spec_key(job["spec"])
        if key in first:
            repeats += 1
            mismatched += job["result"] != first[key]["result"]
        else:
            first[key] = job
    out.check(
        "repeated specs return their first result",
        mismatched == 0,
        f"{repeats - mismatched}/{repeats} repeats identical",
    )
    executed = [j for j in first.values() if not j["cache_hit"] and j["state"] == "done"]
    big = [j for j in executed if j["spec"]["config"]["steps"] in BIG_STEPS]
    small = [j for j in executed if j["spec"]["config"]["steps"] not in BIG_STEPS]
    # One long job (a result above the shm threshold) and short ones.
    rng = random.Random(f"serve_mixed-sample:{out.seed}")
    return rng.sample(big, min(1, len(big))) + rng.sample(small, min(SAMPLE_JOBS - 1, len(small)))


def rerun_sample(out: Outcome, sample: List[dict], log=None, counted: bool = False) -> list:
    """Re-run sampled jobs in-process; each must equal its served result.

    ``log`` spans the engines' stages; ``counted`` runs on the counting
    backends and marks the byte count at every step report.
    """
    tally = bytes_tally() if counted else None
    timed = []
    for k, job in enumerate(sample):
        cfg = SimulationConfig.from_dict(job["spec"]["config"])
        marks = []

        def callback(engine, report, label=f"sample{k}"):
            # From the first report on: the engine exists only now.
            if log is not None and not marks:
                wrap_engine(log, engine, label)
            marks.append(tally.nbytes if tally is not None else 0)

        # profile=True wraps the byte-counting backend in the program's
        # dispatch-counting one.
        kwargs = {"backend": BYTES_BACKEND, "profile": True} if counted else {}
        t = run_simulation(cfg, engine="vectorized", callback=callback, **kwargs)
        t.byte_marks = marks
        res, wire = t.result, job["result"]
        out.check(
            f"served job {job['job_id']} equals in-process run_simulation",
            res.throughput_total == wire["throughput_total"]
            and res.throughput_top == wire["throughput_top"]
            and res.steps_run == wire["steps_run"]
            and np.array_equal(res.moved_per_step, wire["moved_per_step"])
            and np.array_equal(res.crossings_per_step, wire["crossings_per_step"]),
        )
        timed.append(t)
    return timed


def run(out: Outcome, seconds: float) -> None:
    # Set-up time is an untraced metric: a traced run sets up once.
    reps = 1 if out.trace else SETUP_REPS
    setup_s, stack = measure_setup(reps)
    try:
        traffic = drive(stack, out.seed, seconds)
        peak = self_peak_mb() + pool_peak_mb(stack.pool)
    finally:
        stack.close()
    if traffic.jobs:
        out.inputs.update(input_properties(traffic))
        out.extra["jobs"] = [job_record(j) for j in traffic.jobs]
    out.inputs.update(loop=f"closed, {CLIENTS} HTTP clients x bursts of {BURST}", padded_slot_share="see planner.pad_frac")
    sample = check(out, traffic)
    out.put("setup_s", setup_s, reps)
    out.put("peak_rss_mb", peak, 1 + WORKERS)
    for name, (value, n) in end_to_end(traffic).items():
        out.put(name, value, n)
    rerun_sample(out, sample)
    if out.trace:
        traced_pass(out, seconds, sample)


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_pass(out: Outcome, seconds: float, sample: List[dict]) -> None:
    # Same inputs, cold caches: a fresh pool, service and state directory.
    reset_warmstate()
    stack = new_stack()
    log = SpanLog()
    svc, pool = stack.service, stack.pool
    plans = []
    tick_ids = itertools.count()

    def traced_tick(inner=svc.tick):
        with log.span("service.tick", f"tick{next(tick_ids)}") as sp:
            done = inner()
        sp.attrs["jobs"] = done
        return done

    def traced_plan(jobs, inner=svc.scheduler.plan):
        with log.span("planner.plan"):
            plan = inner(jobs)
        plans.append(
            (
                [[jobs[i].config.total_agents for i in b.indices] for b in plan],
                [jobs[b.indices[0]].config.steps for b in plan],
            )
        )
        return plan

    svc.tick = traced_tick
    svc.scheduler.plan = traced_plan
    log.wrap(svc.store, "submit_all", "store.append")
    log.wrap(svc.store, "update_all", "store.append")
    try:
        with PoolProbe(log, pool) as probe:
            traffic = drive(stack, out.seed, seconds, log)
        stats = get_stats(port=stack.server.port)
        put_transport(out, {}, pool.transport_stats())
        # The pool's caches start empty and the inline ones were reset.
        warm = add_stats(pool_warmstate(pool), warmstate_stats())
        peak = self_peak_mb() + pool_peak_mb(pool)
    finally:
        stack.close()
    for err in traffic.errors:
        out.check("serve_mixed traced traffic", False, err)
    out.put("warmstate.hit_ratio", warm_hit_ratio({}, warm), 1 + WORKERS)

    busy_ticks = [1e3 * s.duration for s in log.named("service.tick") if s.attrs.get("jobs")]
    out.put("service.tick_ms_p50", median(busy_ticks), len(busy_ticks))
    waits = [1e3 * j["queue_wait_s"] for j in traffic.jobs]
    out.put("service.queue_wait_ms_p50", median(waits), len(waits))
    out.put("cache.hit_ratio", (stats["cache_hits"] + stats["coalesced"]) / stats["completed"], stats["completed"])
    appends = [1e3 * s.duration for s in log.named("store.append")]
    out.put("store.append_ms_p50", median(appends), len(appends))
    requests = [1e3 * s.duration for s in log.named("http.request")]
    out.put("http.request_ms_p50", median(requests), len(requests))

    plan_ms = [1e3 * s.duration for s in log.named("planner.plan")]
    out.put("planner.plan_ms", median(plan_ms), len(plan_ms))
    agents = [a for call, _ in plans for a in call]
    steps = [s for _, call in plans for s in call]
    shape = plan_shape(agents, steps)
    out.put("planner.launches", len(agents) / len(plans), len(plans))
    out.put("planner.lanes_per_launch", shape["lanes_per_launch"], len(agents))
    out.put("planner.pad_frac", shape["pad_frac"], len(agents))
    crit = [plan_shape(a, s)["critical_share"] for a, s in plans]
    out.put("planner.critical_share", sum(crit) / len(crit), len(crit))
    out.inputs["padded_slot_share"] = round(shape["pad_frac"], 4)

    probe.put_metrics(out, traffic.end - traffic.start)

    # Engine and backend figures come from re-running the sampled jobs
    # in-process: the served launches run inside the pool, out of reach.
    rerun_sample(out, sample, log=log)
    put_engine_metrics(out, log)
    counted = rerun_sample(out, sample, counted=True)
    total_steps = sum(t.profile.steps for t in counted)
    out.put("backend.dispatches_per_step", sum(t.profile.counts.ops for t in counted) / total_steps, total_steps)
    out.put("backend.allocs_per_step", sum(t.profile.counts.allocs for t in counted) / total_steps, total_steps)
    # Bytes from the first report on, so engine construction is excluded.
    nbytes = sum(t.byte_marks[-1] - t.byte_marks[0] for t in counted)
    byte_steps = sum(len(t.byte_marks) - 1 for t in counted)
    out.put("backend.bytes_per_step", nbytes / byte_steps, byte_steps, note="computed")

    traced_e2e = {k: v[0] for k, v in end_to_end(traffic).items()}
    traced_e2e["peak_rss_mb"] = peak
    out.extra["traced_e2e"] = traced_e2e
    out.spans = log
