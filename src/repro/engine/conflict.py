"""Scatter-to-gather conflict resolution helpers (paper IV.d, Figure 4).

Several agents may target the same empty cell in the same step. Instead of
serialising the writes with atomics, the paper inverts the problem: each
*empty cell* gathers the set of neighbouring agents whose FUTURE
coordinates point at it and picks one winner uniformly at random. These
helpers implement the pieces shared by the vectorized, batched and tiled
engines.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..agents.population import NO_FUTURE
from ..grid.neighborhood import ABSOLUTE_OFFSETS
from .base import ABS_STEP_COSTS

__all__ = ["SparseGather", "Moves", "winner_rank", "DIRECTION_INDEX"]

#: Map from (src - dst) offset to the absolute gather-direction index, i.e.
#: the position of the *source* cell relative to the destination.
DIRECTION_INDEX: Dict[Tuple[int, int], int] = {
    off: d for d, off in enumerate(ABSOLUTE_OFFSETS)
}


def winner_rank(u: np.ndarray, counts: np.ndarray, xp=np) -> np.ndarray:
    """Uniform winner index in ``[0, counts)`` from uniforms in ``(0, 1)``.

    ``floor(u * k)`` clamped to ``k - 1`` (the clamp only matters in the
    measure-zero limit ``u -> 1``); identical arithmetic on scalar and
    vector paths (and across array backends). The clamp runs in place on
    the intermediate ``k - 1`` array (fresh by construction), so the call
    performs no allocating namespace dispatch beyond the gather itself.
    """
    k = xp.asarray(counts, dtype=np.int64)
    pick = (xp.asarray(u, dtype=np.float64) * k).astype(np.int64)
    hi = k - 1
    if getattr(hi, "ndim", 0) == 0:
        # 0-d inputs: numpy arithmetic on 0-d arrays returns scalars,
        # which cannot be ``out=`` targets. The engines always pass
        # vectors, so this path only serves scalar callers.
        return xp.minimum(pick, xp.maximum(hi, 0))
    xp.maximum(hi, 0, out=hi)
    xp.minimum(pick, hi, out=hi)
    return hi


class Moves(NamedTuple):
    """The winning moves of one step, one entry per contested cell.

    Entries run in (lane, row, col) order of the destination cell.
    """

    #: Lane-local index of each winning agent.
    agent: np.ndarray
    #: Lane of each move (all zero for a solo engine).
    lane: np.ndarray
    #: Destination cell of each move.
    row: np.ndarray
    col: np.ndarray
    #: Euclidean length of each move (the tour increment).
    cost: np.ndarray


#: ``draw(lane, row, col)`` -> one ``Stream.MOVE_WINNER`` uniform per cell.
WinnerDraw = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class SparseGather:
    """Agent-proportional scatter-to-gather over ``lanes`` stacked grids.

    The dense formulation visits every cell in eight gather directions;
    this one visits only the agents that chose a future cell. Each such
    agent gets the key ``((lane * H + row) * W + col) * 8 + d`` of its
    destination cell and gather direction ``d`` (the source's position in
    ``ABSOLUTE_OFFSETS`` order). One argsort then groups the candidates by
    cell, cells in lane-major, row-major order and each cell's candidates
    in gather-direction order, so segment ``s`` holds the contested cell's
    candidates ranked exactly as the dense gather ranks them, and
    ``start + winner_rank(u, count)`` is the same winner. A solo engine is
    the one-lane case.

    ``slots`` is the per-lane length of the agent arrays (sentinel row 0
    included) and ``(height, width)`` the per-lane (padded) grid shape.
    """

    def __init__(self, backend, slots: int, height: int, width: int) -> None:
        self.xp = backend.xp
        self.slots, self.height, self.width = int(slots), int(height), int(width)
        lut = np.full(9, -1, dtype=np.int64)
        for d, (dr, dc) in enumerate(ABSOLUTE_OFFSETS):
            lut[(dr + 1) * 3 + dc + 1] = d
        #: Gather direction by ``(src - dst)`` offset, indexed
        #: ``(dr + 1) * 3 + (dc + 1)``.
        self._direction = backend.from_host(lut)
        self._cost = backend.from_host(np.asarray(ABS_STEP_COSTS))

    def __call__(
        self, future_rows, future_cols, rows, cols, cells, draw: WinnerDraw
    ) -> Optional[Moves]:
        """Resolve one step's moves; ``None`` when no cell is contested.

        The agent arrays are ``(lanes, slots)`` or ``(slots,)`` and
        ``cells`` is the ``(lanes, H, W)`` or ``(H, W)`` occupancy matrix.
        Only empty destination cells gather candidates.
        """
        xp = self.xp
        fr_all = future_rows.ravel()
        slot = xp.flatnonzero(fr_all != NO_FUTURE)
        fr = fr_all[slot]
        fc = future_cols.ravel()[slot]
        dst = (slot // self.slots * self.height + fr) * self.width + fc
        empty = cells.ravel()[dst] == 0
        slot, fr, fc, dst = slot[empty], fr[empty], fc[empty], dst[empty]
        if slot.size == 0:
            return None
        dr = rows.ravel()[slot] - fr
        dc = cols.ravel()[slot] - fc
        keys = dst * 8 + self._direction[dr * 3 + dc + 4]
        order = xp.argsort(keys)
        keys = keys[order]
        cell = keys >> 3
        # Segment bounds: a new cell starts wherever the sorted cell id
        # changes; the trailing bound closes the last segment.
        n = int(cell.size)
        edge = xp.empty(n + 1, dtype=bool)
        edge[0] = edge[n] = True
        xp.not_equal(cell[1:], cell[:-1], out=edge[1:n])
        bounds = xp.flatnonzero(edge)
        starts = bounds[:-1]
        cell = cell[starts]
        lane, rc = divmod(cell, self.height * self.width)
        row, col = divmod(rc, self.width)
        pick = winner_rank(draw(lane, row, col), bounds[1:] - starts, xp=xp)
        win = starts + pick
        return Moves(
            agent=slot[order[win]] - lane * self.slots,
            lane=lane,
            row=row,
            col=col,
            cost=self._cost[keys[win] & 7],
        )
