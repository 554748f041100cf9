"""CC 2.0 occupancy calculator (the paper's "CUDA Occupancy Calculator").

Computes the number of thread blocks resident on one SM given the block's
thread count, per-thread register usage and per-block shared memory, under
the Fermi allocation rules: registers are allocated per warp in units of
``register_allocation_unit``, shared memory in units of
``shared_allocation_unit``, and warps per block round up to the warp
allocation granularity.

The paper's claim "maintaining 100% occupancy, the maximum number of
threads that could be launched in a single thread block is 256" is verified
in the tests: 1536 threads/SM / 256 = 6 blocks <= 8, and 6 x 8 warps fills
all 48 warp slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import OccupancyError
from .device import CC_20_LIMITS, ComputeCapabilityLimits

__all__ = ["OccupancyResult", "occupancy"]


def _round_up(value: int, granularity: int) -> int:
    return ((value + granularity - 1) // granularity) * granularity


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of an occupancy calculation for one launch configuration."""

    threads_per_block: int
    warps_per_block: int
    active_blocks_per_sm: int
    active_warps_per_sm: int
    occupancy: float
    #: Which resource limits the block count: "threads", "blocks",
    #: "registers" or "shared".
    limiter: str

    @property
    def is_full(self) -> bool:
        """True at 100% theoretical occupancy."""
        return self.occupancy >= 1.0


def occupancy(
    threads_per_block: int,
    registers_per_thread: int = 20,
    shared_per_block: int = 0,
    limits: ComputeCapabilityLimits = CC_20_LIMITS,
) -> OccupancyResult:
    """Theoretical occupancy of one SM for the given block resources."""
    if threads_per_block < 1 or threads_per_block > limits.max_threads_per_block:
        raise OccupancyError(
            f"threads_per_block must be in [1, {limits.max_threads_per_block}], "
            f"got {threads_per_block}"
        )
    if registers_per_thread < 0:
        raise OccupancyError("registers_per_thread must be >= 0")
    if shared_per_block < 0 or shared_per_block > limits.shared_mem_per_sm:
        raise OccupancyError(
            f"shared_per_block must be in [0, {limits.shared_mem_per_sm}], "
            f"got {shared_per_block}"
        )

    warps_per_block = _round_up(
        math.ceil(threads_per_block / limits.warp_size),
        limits.warp_allocation_granularity,
    )

    by_threads = limits.max_threads_per_sm // threads_per_block
    by_blocks = limits.max_blocks_per_sm
    by_warps = limits.max_warps_per_sm // warps_per_block

    if registers_per_thread > 0:
        regs_per_warp = _round_up(
            registers_per_thread * limits.warp_size, limits.register_allocation_unit
        )
        regs_per_block = regs_per_warp * warps_per_block
        if regs_per_block > limits.registers_per_sm:
            by_registers = 0
        else:
            by_registers = limits.registers_per_sm // regs_per_block
    else:
        by_registers = by_blocks

    if shared_per_block > 0:
        shared_alloc = _round_up(shared_per_block, limits.shared_allocation_unit)
        by_shared = limits.shared_mem_per_sm // shared_alloc
    else:
        by_shared = by_blocks

    candidates = {
        "threads": min(by_threads, by_warps),
        "blocks": by_blocks,
        "registers": by_registers,
        "shared": by_shared,
    }
    blocks = min(candidates.values())
    limiter = min(candidates, key=lambda k: candidates[k])
    if blocks == 0:
        raise OccupancyError(
            "kernel cannot launch: a single block exceeds SM resources "
            f"(limited by {limiter})"
        )
    active_warps = blocks * warps_per_block
    return OccupancyResult(
        threads_per_block=threads_per_block,
        warps_per_block=warps_per_block,
        active_blocks_per_sm=blocks,
        active_warps_per_sm=active_warps,
        occupancy=active_warps / limits.max_warps_per_sm,
        limiter=limiter,
    )
