"""Differential fuzzing: every engine walks the same trajectory.

Hypothesis draws small configs across the knobs that change a step's
control flow (LEM/ACO, the forward-priority rule, a slow velocity class,
static obstacles and a mid-run panic hook) and runs each one through the
sequential, vectorized and tiled engines, a one-lane ``BatchedEngine``
and a padded heterogeneous three-lane ``BatchedEngine`` whose other two
lanes differ in grid shape, population and extension knobs. Every engine
must report the same per-step ``moved``/``new_crossings`` series and end
in the same ``engine_state_digest``.

``derandomize=True`` with a fixed ``max_examples`` makes the drawn
examples a pure function of this file, so the test is deterministic.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, build_engine
from repro.components.hooks import PanicHook
from repro.engine import BatchedEngine
from repro.grid.obstacles import ObstacleSpec
from repro.io import engine_state_digest

SOLO_ENGINES = ("sequential", "vectorized", "tiled")

OBSTACLES = (
    None,
    ObstacleSpec(kind="bottleneck", gap=6),
    ObstacleSpec(kind="pillars", spacing=5, size=1, band=0.4),
)


@st.composite
def configs(draw):
    """A small tile-aligned config with the step-shaping knobs drawn."""
    height = draw(st.sampled_from((16, 32)))
    width = draw(st.sampled_from((16, 32)))
    trigger = draw(st.one_of(st.none(), st.integers(0, 12)))
    return SimulationConfig(
        height=height,
        width=width,
        # Up to three agents per column and side: dense enough that many
        # cells are contested once the groups meet mid-grid.
        n_per_side=draw(st.integers(width // 2, width * 3)),
        steps=draw(st.integers(12, 36)),
        seed=draw(st.integers(0, 2**16)),
        forward_priority=draw(st.booleans()),
        slow_fraction=draw(st.sampled_from((0.3, 0.0))),
        obstacles=draw(st.sampled_from(OBSTACLES)),
        hooks=() if trigger is None else (PanicHook(trigger_step=trigger),),
    ).with_model(draw(st.sampled_from(("lem", "aco"))))


def _lane_digest(batched, lane):
    view = SimpleNamespace(
        backend=batched.backend,
        pop=batched.lane_population(lane),
        env=batched.lane_environment(lane),
    )
    return engine_state_digest(view)


def _trace(result):
    return result.moved_per_step, result.crossings_per_step


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cfg=configs())
def test_engines_agree_step_by_step(cfg):
    runs = {}
    for name in SOLO_ENGINES:
        eng = build_engine(cfg, engine=name)
        runs[name] = (_trace(eng.run(record_timeline=True)), engine_state_digest(eng))

    one = BatchedEngine([cfg], (cfg.seed,))
    runs["batched1"] = (_trace(one.run(record_timeline=True)[0]), _lane_digest(one, 0))

    # Lane 0 is the drawn config; the neighbours share its model and step
    # budget (a batch requirement) but not its shape, population or knobs.
    wide = cfg.replace(
        height=cfg.height + 5,
        width=cfg.width + 3,
        n_per_side=cfg.n_per_side + 7,
        forward_priority=not cfg.forward_priority,
        slow_fraction=0.0,
        obstacles=None,
        hooks=(),
    )
    small = cfg.replace(
        height=12, width=10, n_per_side=5, obstacles=OBSTACLES[1], hooks=()
    )
    padded = BatchedEngine([cfg, wide, small], (cfg.seed, cfg.seed + 1, cfg.seed + 2))
    runs["padded3"] = (
        _trace(padded.run(record_timeline=True)[0]),
        _lane_digest(padded, 0),
    )
    padded.validate_state()

    (ref_moved, ref_cross), ref_digest = runs["sequential"]
    assert ref_moved.sum() > 0
    for name, ((moved, cross), digest) in runs.items():
        assert np.array_equal(moved, ref_moved), name
        assert np.array_equal(cross, ref_cross), name
        assert digest == ref_digest, name
