"""Padded mixed-scenario batching vs a solo-run loop.

A population sweep with *one seed per scenario* gives every point a
distinct batch key, so the same-shape replication batching of
``test_bench_batched_sweep.py`` cannot fuse any of it — the whole grid
degrades to solo runs. Padded packing relaxes the key: lanes that share
model/engine/scale/steps fuse into one whole-array launch with per-agent
arrays padded to the largest lane (bounded by the waste cap), which
amortises the fixed NumPy dispatch overhead across scenarios of
*different* sizes. This benchmark pins down that the padded plan beats
the solo loop on such a grid while producing bit-identical records.
"""

import os
import statistics
import time

import pytest

from repro.experiments.sweep import SweepRunner, sweep_grid

#: Six distinct scenario populations (24..152 total agents at quick scale).
SCENARIOS = (1, 2, 3, 4, 5, 6)

#: Interleaved solo/padded wall-clock pairs per model.
REPEATS = 5


def _points(model):
    return sweep_grid(SCENARIOS, (0,), models=(model,), scale="quick")


@pytest.mark.parametrize("model", ["lem", "aco"])
def test_bench_padded_sweep_beats_solo_loop(benchmark, model):
    """Mixed-scenario grid, 1 seed per point: padded plan vs solo loop."""
    points = _points(model)
    solo_runner = SweepRunner(max_lanes=1)
    padded_runner = SweepRunner(max_lanes=8, pad_lanes=True)

    # The padded plan must actually fuse lanes (same-shape batching cannot
    # fuse this grid at all) ...
    padded_units = padded_runner.plan(points)
    assert all(len(u.seeds) == 1 for u in solo_runner.plan(points))
    assert any(u.points is not None for u in padded_units)
    assert len(padded_units) < len(points)

    # ... and the records stay bit-identical to the solo runs.
    solo_records = solo_runner.run(points)
    padded_records = padded_runner.run(points)
    assert [r.throughput for r in padded_records] == [
        r.throughput for r in solo_records
    ]

    # End-to-end walls, both including planning and engine construction.
    # Solo and padded runs alternate so a slow spell of a shared machine
    # hits both sides; the median ratio of the pairs ignores one-off
    # scheduler spikes in either direction.
    def wall(runner):
        t0 = time.perf_counter()
        runner.run(points)
        return time.perf_counter() - t0

    ratios = [wall(solo_runner) / wall(padded_runner) for _ in range(REPEATS)]

    benchmark.pedantic(padded_runner.run, args=(points,), rounds=1, iterations=1)
    # The padded plan must beat the solo loop by a clear margin. The
    # observed gain is ~3x; the assert demands 1.5x locally but only
    # parity on CI, where shared-runner noise is out of our hands.
    margin = 1.0 if os.environ.get("CI") else 1.5
    assert statistics.median(ratios) > margin, ratios
