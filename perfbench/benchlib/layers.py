"""Per-layer helpers shared by the workloads' traced runs."""

from __future__ import annotations

import time
from typing import Dict

from repro.engine.warmstate import warmstate_stats

from .common import median


def warm_hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Hit share of warm-state cache lookups between two ``warmstate_stats()``."""
    hits = misses = 0
    for key, value in after.items():
        if key.endswith("_hits"):
            hits += value - before.get(key, 0)
        elif key.endswith("_misses"):
            misses += value - before.get(key, 0)
    return hits / (hits + misses) if hits + misses else 0.0


def pool_warmstate(pool) -> Dict[str, int]:
    """``warmstate_stats()`` summed over the pool's workers.

    One task per worker, submitted together while the pool is idle, so
    each lands on a different worker (as in ``pool_peak_mb``).
    """
    futures = [pool.submit(warmstate_stats) for _ in range(pool.workers)]
    total: Dict[str, int] = {}
    for f in futures:
        for key, value in f.result(timeout=60).items():
            total[key] = total.get(key, 0) + value
    return total


def add_stats(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def plan_shape(unit_agents, unit_steps) -> Dict[str, float]:
    """Planner figures from a plan's units.

    ``unit_agents`` holds each launch's per-lane real populations and
    ``unit_steps`` each launch's step budget. A padded launch gives every
    lane the slots of its largest lane; ``pad_frac`` is the share of
    those slots that hold no agent. ``critical_share`` is the largest
    launch's share of the plan's agent-steps — with a pool, the launch
    that bounds the wall.
    """
    slots = sum(len(a) * max(a) for a in unit_agents)
    real = sum(sum(a) for a in unit_agents)
    work = [sum(a) * s for a, s in zip(unit_agents, unit_steps)]
    lanes = sum(len(a) for a in unit_agents)
    return {
        "launches": float(len(unit_agents)),
        "lanes_per_launch": lanes / len(unit_agents),
        "pad_frac": 1.0 - real / slots,
        "critical_share": max(work) / sum(work),
    }


class PoolProbe:
    """Spans every launch submitted to a pool while the probe is active.

    ``pool.submit`` is shadowed on the instance; each future's span runs
    from submit to its done-callback, under the span that submitted it.
    A launch's overhead is that round trip minus the engine wall its
    ``LaunchOutcome`` reports, so it includes waiting in the pool queue.
    """

    def __init__(self, log, pool) -> None:
        self.log = log
        self.pool = pool
        #: ``(round trip s, engine s)`` per completed launch.
        self.launches = []
        self._submitted = 0

    def __enter__(self) -> "PoolProbe":
        submit = self.pool.submit

        def traced_submit(fn, *args, **kwargs):
            parent = self.log.current()
            start = time.perf_counter()
            future = submit(fn, *args, **kwargs)
            self._submitted += 1
            future.add_done_callback(lambda f: self._done(f, start, parent))
            return future

        self.pool.submit = traced_submit
        return self

    def __exit__(self, *exc_info) -> None:
        del self.pool.submit
        # Done-callbacks run just after a future's waiters wake; let the
        # last ones land.
        deadline = time.perf_counter() + 5.0
        while len(self.launches) < self._submitted and time.perf_counter() < deadline:
            time.sleep(0.01)

    def _done(self, future, start: float, parent) -> None:
        end = time.perf_counter()
        engine_s = sum(future.result().wall_seconds) if future.exception() is None else 0.0
        self.launches.append((end - start, engine_s))
        self.log.add(
            "pool.launch",
            start,
            end,
            parent.trace_id if parent is not None else "pool",
            parent.span_id if parent is not None else None,
            engine_s=engine_s,
        )

    def put_metrics(self, out, wall: float) -> None:
        n = len(self.launches)
        out.put("pool.launch_ms_p50", median([1e3 * r for r, _ in self.launches]), n)
        out.put("pool.overhead_ms_p50", median([1e3 * (r - e) for r, e in self.launches]), n)
        busy = sum(e for _, e in self.launches) / (self.pool.workers * wall)
        out.put("pool.busy_frac", busy, n)


def put_transport(out, before: Dict[str, int], after: Dict[str, int]) -> None:
    """Result-transport counts between two ``transport_stats()`` readings."""
    d = {k: after[k] - before.get(k, 0) for k in after}
    results = d["shm_results"] + d["inline_results"]
    out.put("transport.shm_results", d["shm_results"], results)
    out.put("transport.inline_results", d["inline_results"], results)
    moved = d["shm_payload_bytes"] + d["shm_head_bytes"] + d["inline_bytes"]
    out.put("transport.bytes_per_result", moved / results if results else 0.0, results)
