"""Per-step dispatch budgets: the fused kernels must stay fused.

Each engine gets a steady-state namespace-dispatch budget measured on
the PR-8 tree (32x32 grid, 24 agents/side, LEM) with ~20% headroom for
benign drift. Exceeding a budget means a whole-batch launch was split
back into per-group or per-lane passes — the regression this PR exists
to prevent. The ``PRE_FUSION`` constants are the same measurement taken
on the PR-7 tree (per-group TOP/BOTTOM passes, unfused RNG), kept as
fixed reference points so the batched engine's headline criterion — at
least a 40% dispatch cut — is asserted against history, not against a
number that drifts with the code under test.

Only ``xp.*`` namespace calls count (array methods and operator
indexing do not — see ``repro.backend.profiling``), so budgets are a
stable lower bound on real kernel launches.
"""

import pytest

from repro import SimulationConfig
from repro.backend import resolve_backend
from repro.engine import BatchedEngine, build_engine

#: Steady-state ops/step on the PR-7 tree (pre-fusion), same scenario.
PRE_FUSION = {
    "sequential": 47.2,
    "vectorized": 155.0,
    "tiled": 262.0,
    "batched4": 171.0,
    "padded4": 171.6,
}

#: Post-fusion budgets: measured steady-state ops/step plus ~20% headroom.
#: The whole-array engines were re-measured after the move stage became a
#: sort-based sparse gather (vectorized 37, batched4/padded4 38 ops/step).
BUDGETS = {
    "sequential": 22,
    "vectorized": 45,
    "tiled": 220,
    "batched4": 46,
    "padded4": 46,
}

#: The one backend-name string every measurement here resolves: the
#: counting instance is cached per exact name, so the engine and the
#: assertion must agree on it.
PROFILE_NAME = "profile:numpy"

WARMUP_STEPS = 3
MEASURED_STEPS = 5


def _config(seed: int = 0, height: int = 32) -> SimulationConfig:
    return SimulationConfig(
        height=height, width=32, n_per_side=24, steps=40, seed=seed,
        backend=PROFILE_NAME,
    ).with_model("lem")


def _steady_ops_per_step(engine) -> float:
    """Ops/step over MEASURED_STEPS after WARMUP_STEPS of warm-up."""
    backend = engine.backend
    for _ in range(WARMUP_STEPS):
        engine.step()
    backend.reset()
    for _ in range(MEASURED_STEPS):
        engine.step()
    return backend.snapshot().ops / MEASURED_STEPS


def _build(kind: str):
    if kind == "batched4":
        return BatchedEngine(_config(), seeds=(0, 1, 2, 3))
    if kind == "padded4":
        configs = [_config(s, height=32 if s % 2 == 0 else 48) for s in range(4)]
        return BatchedEngine(configs, seeds=tuple(range(4)))
    return build_engine(_config(), engine=kind)


@pytest.mark.parametrize("kind", sorted(BUDGETS))
def test_engine_stays_within_dispatch_budget(kind):
    resolve_backend(PROFILE_NAME).reset()
    ops = _steady_ops_per_step(_build(kind))
    assert ops <= BUDGETS[kind], (
        f"{kind}: {ops:.1f} ops/step exceeds the {BUDGETS[kind]} budget — "
        f"a fused whole-batch launch has likely been split"
    )


def test_batched_dispatch_cut_meets_headline_criterion():
    """PR-8 acceptance: batched per-step dispatches down >= 40% vs PR 7."""
    resolve_backend(PROFILE_NAME).reset()
    ops = _steady_ops_per_step(_build("batched4"))
    assert ops <= 0.6 * PRE_FUSION["batched4"], (
        f"batched engine at {ops:.1f} ops/step is less than a 40% cut from "
        f"the pre-fusion {PRE_FUSION['batched4']} ops/step"
    )


def test_batched_dispatch_independent_of_batch_width():
    """Fused whole-batch launches: ops/step must not scale with lanes.

    This is the structural claim behind batching — B lanes share one
    dispatch sequence. A small fixed allowance covers per-lane host-side
    bookkeeping at the recording boundary.
    """
    resolve_backend(PROFILE_NAME).reset()
    ops2 = _steady_ops_per_step(BatchedEngine(_config(), seeds=(0, 1)))
    resolve_backend(PROFILE_NAME).reset()
    ops8 = _steady_ops_per_step(
        BatchedEngine(_config(), seeds=tuple(range(8)))
    )
    assert ops8 <= ops2 + 5, (
        f"ops/step grew from {ops2:.1f} (B=2) to {ops8:.1f} (B=8): "
        f"per-lane dispatch is leaking back in"
    )


def test_fused_engines_cheaper_than_pre_fusion_everywhere():
    """No engine regressed past its own pre-fusion dispatch count."""
    for kind, pre in PRE_FUSION.items():
        resolve_backend(PROFILE_NAME).reset()
        ops = _steady_ops_per_step(_build(kind))
        assert ops < pre, f"{kind}: {ops:.1f} ops/step >= pre-fusion {pre}"
