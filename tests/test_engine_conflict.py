"""Scatter-to-gather helper tests."""

import numpy as np

from repro.agents.population import NO_FUTURE
from repro.backend import resolve_backend
from repro.engine import ABS_STEP_COSTS, DIRECTION_INDEX, winner_rank
from repro.engine.conflict import SparseGather
from repro.grid import ABSOLUTE_OFFSETS


class TestWinnerRank:
    def test_range(self):
        u = np.linspace(0.001, 0.999, 100)
        k = np.full(100, 5)
        picks = winner_rank(u, k)
        assert picks.min() >= 0 and picks.max() <= 4

    def test_uniformity(self, rng):
        from repro.rng import Stream

        u = rng.uniform(Stream.EXPERIMENT, 0, np.arange(100000))
        picks = winner_rank(u, np.full(100000, 4))
        for v in range(4):
            assert abs(np.mean(picks == v) - 0.25) < 0.01

    def test_single_candidate(self):
        assert winner_rank(np.array([0.7]), np.array([1]))[0] == 0

    def test_clamp_at_boundary(self):
        almost_one = np.nextafter(1.0, 0.0)
        assert winner_rank(np.array([almost_one]), np.array([3]))[0] == 2


class TestDirectionIndex:
    def test_covers_all_offsets(self):
        assert set(DIRECTION_INDEX.keys()) == set(ABSOLUTE_OFFSETS)

    def test_indices_match_sweep_order(self):
        for d, off in enumerate(ABSOLUTE_OFFSETS):
            assert DIRECTION_INDEX[off] == d


def _dense_gather(mats, index, future_rows, future_cols, draw):
    """Reference per-cell gather: every empty cell reads its eight
    neighbours in ``ABSOLUTE_OFFSETS`` order and picks one candidate."""
    lanes, h, w = mats.shape
    out = []
    for b in range(lanes):
        for r in range(h):
            for c in range(w):
                if mats[b, r, c] != 0:
                    continue
                cands = []
                for d, (dr, dc) in enumerate(ABSOLUTE_OFFSETS):
                    sr, sc = r + dr, c + dc
                    if not (0 <= sr < h and 0 <= sc < w):
                        continue
                    a = index[b, sr, sc]
                    if a and (future_rows[b, a], future_cols[b, a]) == (r, c):
                        cands.append((a, d))
                if cands:
                    u = draw(np.array([b]), np.array([r]), np.array([c]))
                    a, d = cands[int(winner_rank(u, np.array([len(cands)]))[0])]
                    out.append((a, b, r, c, ABS_STEP_COSTS[d]))
    return out


def _random_state(seed, lanes=3, h=7, w=9, density=0.4):
    """Random occupancy with futures: each agent targets a random
    neighbour (in or out of bounds, empty or not) or stays put."""
    gen = np.random.default_rng(seed)
    n = int(density * h * w)
    slots = n + 1
    mats = np.zeros((lanes, h, w), dtype=np.int8)
    index = np.zeros((lanes, h, w), dtype=np.int32)
    rows = np.zeros((lanes, slots), dtype=np.int64)
    cols = np.zeros((lanes, slots), dtype=np.int64)
    fr = np.full((lanes, slots), NO_FUTURE, dtype=np.int64)
    fc = np.full((lanes, slots), NO_FUTURE, dtype=np.int64)
    for b in range(lanes):
        cells = gen.choice(h * w, size=n, replace=False)
        for a, cell in enumerate(cells, start=1):
            r, c = divmod(int(cell), w)
            mats[b, r, c], index[b, r, c] = 1, a
            rows[b, a], cols[b, a] = r, c
            dr, dc = ABSOLUTE_OFFSETS[gen.integers(8)]
            if gen.random() < 0.8 and 0 <= r - dr < h and 0 <= c - dc < w:
                fr[b, a], fc[b, a] = r - dr, c - dc
    return mats, index, rows, cols, fr, fc


class TestSparseGather:
    @staticmethod
    def _draw(b, r, c):
        return ((b * 31 + r * 7 + c * 3) % 97 + 0.5) / 97.0

    def test_matches_dense_gather(self):
        for seed in range(10):
            mats, index, rows, cols, fr, fc = _random_state(seed)
            lanes, h, w = mats.shape
            gather = SparseGather(resolve_backend("numpy"), rows.shape[1], h, w)
            moves = gather(fr, fc, rows, cols, mats, self._draw)
            got = list(
                zip(
                    moves.agent.tolist(),
                    moves.lane.tolist(),
                    moves.row.tolist(),
                    moves.col.tolist(),
                    moves.cost.tolist(),
                )
            )
            assert got == _dense_gather(mats, index, fr, fc, self._draw)

    def test_solo_arrays_are_the_one_lane_case(self):
        mats, index, rows, cols, fr, fc = _random_state(3, lanes=1)
        gather = SparseGather(resolve_backend("numpy"), rows.shape[1], *mats.shape[1:])
        solo = gather(fr[0], fc[0], rows[0], cols[0], mats[0], self._draw)
        stacked = gather(fr, fc, rows, cols, mats, self._draw)
        for a, b in zip(solo, stacked):
            assert np.array_equal(a, b)
        assert not solo.lane.any()

    def test_occupied_destinations_gather_nothing(self):
        mats, index, rows, cols, fr, fc = _random_state(5, lanes=1)
        occupied = fr.copy()
        # Point every mover at its own (occupied) cell.
        has = fr != NO_FUTURE
        occupied[has] = rows[has]
        fc2 = np.where(has, cols, NO_FUTURE)
        gather = SparseGather(resolve_backend("numpy"), rows.shape[1], *mats.shape[1:])
        assert gather(occupied, fc2, rows, cols, mats, self._draw) is None
