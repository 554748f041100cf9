"""Device specifications — the paper's Table I hardware.

The evaluation hardware is an NVIDIA GeForce GTX 560 Ti (the 448-core
GF110-based variant: 14 SMs x 32 SPs, Fermi, compute capability 2.0) against
an Intel Core i7-930 used single-threaded. These specs drive the occupancy
calculator and the analytic cost model; the table printed by
``repro.experiments.tables.table1_hardware`` is generated from them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ComputeCapabilityLimits",
    "DeviceSpec",
    "CpuSpec",
    "CC_20_LIMITS",
    "GTX_560_TI_448",
    "I7_930",
]


@dataclass(frozen=True)
class ComputeCapabilityLimits:
    """Per-SM resource limits of a CUDA compute capability."""

    compute_capability: str
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_warps_per_sm: int
    warp_size: int
    max_threads_per_block: int
    registers_per_sm: int
    #: Register allocation granularity (registers, allocated per warp).
    register_allocation_unit: int
    shared_mem_per_sm: int
    #: Shared memory allocation granularity in bytes.
    shared_allocation_unit: int
    #: Warp allocation granularity (warps per block round up to this).
    warp_allocation_granularity: int


#: Compute capability 2.0 (Fermi) limits — the paper's GPU.
CC_20_LIMITS = ComputeCapabilityLimits(
    compute_capability="2.0",
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    max_warps_per_sm=48,
    warp_size=32,
    max_threads_per_block=1024,
    registers_per_sm=32768,
    register_allocation_unit=64,
    shared_mem_per_sm=49152,
    shared_allocation_unit=128,
    warp_allocation_granularity=2,
)


@dataclass(frozen=True)
class DeviceSpec:
    """A CUDA device model (paper Table I row for the GPU)."""

    name: str
    manufacturer: str
    sm_count: int
    cores_per_sm: int
    clock_ghz: float
    limits: ComputeCapabilityLimits
    #: Peak global memory bandwidth in GB/s.
    memory_bandwidth_gbs: float
    #: Global memory latency in cycles (Fermi: roughly 400-800).
    global_latency_cycles: int
    #: L1/shared configuration string (Table I "L1 cache" row).
    l1_description: str
    l2_cache_bytes: int
    dram_description: str
    #: Fixed host-side cost of one kernel launch, in seconds.
    kernel_launch_overhead_s: float = 5e-6

    @property
    def total_cores(self) -> int:
        """Total number of streaming processors (Table I "Processor Cores")."""
        return self.sm_count * self.cores_per_sm

    @property
    def peak_ips(self) -> float:
        """Peak scalar instructions per second (1 instruction/core/clock)."""
        return self.total_cores * self.clock_ghz * 1e9

    @property
    def peak_bandwidth_bytes(self) -> float:
        """Peak global memory bandwidth in bytes/s."""
        return self.memory_bandwidth_gbs * 1e9


@dataclass(frozen=True)
class CpuSpec:
    """A CPU model (paper Table I row for the CPU; used single-threaded)."""

    name: str
    manufacturer: str
    cores: int
    clock_ghz: float
    l1_description: str
    l2_cache_bytes: int
    l3_cache_bytes: int
    dram_description: str
    #: Effective sustained instructions/cycle for the scalar simulation code.
    effective_ipc: float = 1.0

    @property
    def scalar_ips(self) -> float:
        """Sustained single-thread instructions per second."""
        return self.clock_ghz * 1e9 * self.effective_ipc


#: The paper's GPU: GeForce GTX 560 Ti, 448-core Fermi variant (Table I).
GTX_560_TI_448 = DeviceSpec(
    name="GeForce GTX 560 Ti",
    manufacturer="Nvidia",
    sm_count=14,
    cores_per_sm=32,
    clock_ghz=1.464,
    limits=CC_20_LIMITS,
    memory_bandwidth_gbs=152.0,
    global_latency_cycles=600,
    l1_description="16 KB + 48 KB (shared memory configurable)",
    l2_cache_bytes=768 * 1024,
    dram_description="1.25 GB GDDR5",
)

#: The paper's CPU: Intel Core i7-930 (Table I), single-threaded baseline.
I7_930 = CpuSpec(
    name="Core i7-930",
    manufacturer="Intel",
    cores=4,
    clock_ghz=2.8,
    l1_description="32 KB + 32 KB",
    l2_cache_bytes=256 * 1024,
    l3_cache_bytes=8 * 1024 * 1024,
    dram_description="6 GB DDR3",
)
