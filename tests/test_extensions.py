"""Tests for the Section VII future-work extensions.

The panic alarm itself is a step hook; its engine behaviour is covered
with the component framework in ``tests/test_components.py``.
"""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine
from repro.errors import ConfigurationError
from repro.components.hooks import panic_variant
from repro.models import ACOParams, LEMParams, RandomParams


class TestPanicVariant:
    def test_lem_panic_always_moves(self):
        p = panic_variant(LEMParams())
        assert p.rule == "ceil"
        p.validate()

    def test_aco_panic_weights(self):
        base = ACOParams()
        p = panic_variant(base)
        assert p.beta >= 3.0
        assert p.rho > base.rho
        p.validate()

    def test_unknown_params_raise(self):
        with pytest.raises(ConfigurationError):
            panic_variant(RandomParams())


class TestHeterogeneousSpeeds:
    def _cfg(self, slow=0.5, period=2):
        return SimulationConfig(
            height=32, width=32, n_per_side=50, steps=120, seed=21,
            slow_fraction=slow, slow_period=period,
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(slow_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SimulationConfig(slow_period=1)

    def test_eligibility_mask_default_all(self):
        eng = build_engine(self._cfg(slow=0.0), "vectorized")
        assert eng.eligible_mask(3).all()

    def test_slow_fraction_assignment(self):
        eng = build_engine(self._cfg(slow=0.5), "vectorized")
        frac = eng._slow_mask[1:].mean()
        assert frac == pytest.approx(0.5, abs=0.15)
        assert not eng._slow_mask[0]

    def test_slow_agents_gated_by_period(self):
        eng = build_engine(self._cfg(slow=1.0, period=3), "vectorized")
        masks = np.stack([eng.eligible_mask(t)[1:] for t in range(3)])
        # Each agent is eligible in exactly one of any 3 consecutive steps.
        assert np.array_equal(masks.sum(axis=0), np.ones(eng.pop.n_agents))

    def test_slow_crowd_crosses_later(self):
        from repro.metrics import ThroughputTracker

        def mean_step(slow):
            eng = build_engine(self._cfg(slow=slow), "vectorized")
            tracker = ThroughputTracker()
            eng.run(callback=tracker, record_timeline=False)
            return tracker.summary().mean_crossing_step

        assert mean_step(0.8) > mean_step(0.0)

    def test_equivalence_with_speed_classes(self):
        cfg = self._cfg(slow=0.4).replace(steps=40)
        for model in ("lem", "aco"):
            seq = build_engine(cfg.with_model(model), "sequential")
            vec = build_engine(cfg.with_model(model), "vectorized")
            til = build_engine(cfg.with_model(model), "tiled")
            for _ in range(40):
                rs, rv, rt = seq.step(), vec.step(), til.step()
                assert rs == rv == rt
            assert seq.state_equals(vec) and vec.state_equals(til)

    def test_slow_agents_move_less(self):
        cfg = self._cfg(slow=0.5, period=2).replace(steps=60)
        eng = build_engine(cfg, "vectorized")
        eng.run(record_timeline=False)
        slow_tours = eng.pop.tour[eng._slow_mask]
        fast_tours = eng.pop.tour[~eng._slow_mask & (eng.pop.ids > 0)]
        assert slow_tours.mean() < fast_tours.mean()