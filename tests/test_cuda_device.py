"""Device registry tests (paper Table I values)."""

from repro.cuda import CC_20_LIMITS, GTX_560_TI_448, I7_930


class TestGpuSpec:
    def test_table1_core_count(self):
        assert GTX_560_TI_448.total_cores == 448

    def test_table1_clock(self):
        assert GTX_560_TI_448.clock_ghz == 1.464

    def test_table1_memory(self):
        assert GTX_560_TI_448.dram_description == "1.25 GB GDDR5"
        assert GTX_560_TI_448.l2_cache_bytes == 768 * 1024

    def test_fermi_geometry(self):
        assert GTX_560_TI_448.sm_count * GTX_560_TI_448.cores_per_sm == 448

    def test_peak_rates(self):
        assert GTX_560_TI_448.peak_ips == 448 * 1.464e9
        assert GTX_560_TI_448.peak_bandwidth_bytes == 152.0e9


class TestCpuSpec:
    def test_table1_values(self):
        assert I7_930.cores == 4
        assert I7_930.clock_ghz == 2.8
        assert I7_930.l3_cache_bytes == 8 * 1024 * 1024
        assert I7_930.dram_description == "6 GB DDR3"

    def test_single_thread_rate(self):
        assert I7_930.scalar_ips == 2.8e9 * I7_930.effective_ipc


class TestCC20Limits:
    def test_fermi_limits(self):
        assert CC_20_LIMITS.max_threads_per_sm == 1536
        assert CC_20_LIMITS.max_blocks_per_sm == 8
        assert CC_20_LIMITS.max_warps_per_sm == 48
        assert CC_20_LIMITS.warp_size == 32
        assert CC_20_LIMITS.registers_per_sm == 32768
        assert CC_20_LIMITS.shared_mem_per_sm == 49152

    def test_warps_consistent_with_threads(self):
        assert (
            CC_20_LIMITS.max_warps_per_sm * CC_20_LIMITS.warp_size
            == CC_20_LIMITS.max_threads_per_sm
        )
