"""Tests for repro.core.functional."""

from repro.core.functional import FunctionalSimulator
from repro.memory.backing import BackingMemory
from repro.params import KB, CacheConfig, MachineConfig
from repro.trace.ops import LOAD, Trace
from repro.workloads.base import WorkloadContext
from repro.workloads.kernels import ArrayScanKernel, ListTraversalKernel
from repro.workloads.structures import build_data_array, build_linked_list


def small_config(**content_kwargs):
    config = MachineConfig(
        l1d=CacheConfig(4 * KB, 8, latency=3),
        ul2=CacheConfig(64 * KB, 8, latency=16),
    )
    if content_kwargs:
        config = config.with_content(**content_kwargs)
    return config


def chase_workload(nodes=2000, locality=0.0, payload_words=14):
    ctx = WorkloadContext("chase", seed=11)
    lst = build_linked_list(ctx, nodes, payload_words, locality)
    ListTraversalKernel(ctx, lst, payload_loads=1, work_per_node=4).emit()
    return ctx.build()


def array_workload(words=30_000):
    ctx = WorkloadContext("array", seed=12)
    array = build_data_array(ctx, words)
    ArrayScanKernel(ctx, array).emit()
    return ctx.build()


class TestBasicCounting:
    def test_uops_and_loads_counted(self):
        workload = chase_workload(nodes=200)
        sim = FunctionalSimulator(small_config(), workload.memory)
        result = sim.run(workload.trace)
        assert result.uops == workload.trace.uop_count
        assert result.loads == workload.trace.load_count
        assert result.stores == workload.trace.store_count

    def test_warmup_excluded(self):
        workload = chase_workload(nodes=500)
        sim = FunctionalSimulator(small_config(), workload.memory)
        warm = workload.trace.uop_count // 2
        result = sim.run(workload.trace, warmup_uops=warm)
        assert result.uops == workload.trace.uop_count - warm
        assert result.loads < workload.trace.load_count

    def test_mptu_positive_for_oversized_working_set(self):
        workload = chase_workload(nodes=3000)  # ~180 KB > 64 KB L2
        config = small_config(enabled=False)
        result = FunctionalSimulator(config, workload.memory).run(
            workload.trace
        )
        assert result.mptu > 1.0

    def test_mptu_trace_windows(self):
        workload = chase_workload(nodes=1000)
        sim = FunctionalSimulator(
            small_config(), workload.memory, mptu_window_uops=1000
        )
        result = sim.run(workload.trace)
        expected = workload.trace.uop_count // 1000
        assert len(result.mptu_trace) == expected


class TestTranslation:
    """A UL2 access translates through the DTLB, walking on a miss."""

    @staticmethod
    def run_loads(*vaddrs):
        memory = BackingMemory()
        memory.write_word(0x0840_1000, 1)
        sim = FunctionalSimulator(small_config(enabled=False), memory)
        ops = [(LOAD, vaddr, 0x0804_8000, -1) for vaddr in vaddrs]
        trace = Trace("loads", ops=ops)
        return sim, sim.run(trace)

    def test_first_access_walks_the_page_table(self):
        sim, result = self.run_loads(0x0840_1234)
        assert result.tlb_misses == 1
        paddr = sim.hier.dtlb.peek(0x0840_1234)
        assert paddr & 0xFFF == 0x234
        assert paddr == sim.hier.page_table.translate(0x0840_1234)
        assert sim.hier.l2.peek(paddr & ~63) is not None

    def test_second_access_to_a_page_hits_the_dtlb(self):
        sim, result = self.run_loads(0x0840_1234, 0x0840_1FF0)
        assert result.tlb_misses == 1
        assert sim.hier.dtlb.stats.hits == 1
        first = sim.hier.dtlb.peek(0x0840_1234)
        second = sim.hier.dtlb.peek(0x0840_1FF0)
        assert first >> 12 == second >> 12
        assert sim.hier.l2.peek(second & ~63) is not None


class TestPrefetchAccounting:
    def test_content_covers_pointer_chase(self):
        workload = chase_workload(nodes=3000)
        base = FunctionalSimulator(
            small_config(enabled=False), workload.memory
        ).run(workload.trace)
        enhanced = FunctionalSimulator(
            small_config(), workload.memory
        ).run(workload.trace)
        assert enhanced.content.useful > 0
        assert enhanced.demand_l2_misses < base.demand_l2_misses
        assert 0 < enhanced.coverage("content") <= 1.0
        assert 0 < enhanced.accuracy("content") <= 1.0

    def test_stride_covers_array_scan(self):
        workload = array_workload()
        result = FunctionalSimulator(
            small_config(enabled=False), workload.memory
        ).run(workload.trace)
        assert result.stride.useful > 0
        assert result.accuracy("stride") > 0.8

    def test_adjusted_metrics_bounded(self):
        workload = chase_workload(nodes=2000, locality=0.9)
        result = FunctionalSimulator(
            small_config(), workload.memory
        ).run(workload.trace, warmup_uops=workload.trace.uop_count // 4)
        assert 0.0 <= result.adjusted_content_coverage <= 1.0
        assert 0.0 <= result.adjusted_content_accuracy <= 1.0
        assert result.adjusted_content_coverage <= result.coverage("content") + 1e-9

    def test_misses_without_prefetching_identity(self):
        workload = chase_workload(nodes=1500)
        result = FunctionalSimulator(
            small_config(), workload.memory
        ).run(workload.trace)
        assert result.misses_without_prefetching == (
            result.demand_l2_misses
            + result.stride.useful + result.content.useful
            + result.markov.useful
        )


class TestHeuristicSensitivity:
    def test_more_compare_bits_never_add_candidates(self):
        workload = chase_workload(nodes=1500)
        issued = []
        for bits in (8, 12):
            result = FunctionalSimulator(
                small_config(compare_bits=bits, next_lines=0),
                workload.memory,
            ).run(workload.trace)
            issued.append(result.content.issued)
        assert issued[1] <= issued[0]

    def test_offchip_drops_untranslated(self):
        workload = chase_workload(nodes=3000)
        result = FunctionalSimulator(
            small_config(placement="offchip"), workload.memory
        ).run(workload.trace)
        assert result.content.dropped_untranslated > 0
