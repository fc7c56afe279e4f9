"""Regression tests for subtle bugs found during calibration.

Each test pins down a behaviour that was once wrong; see the comments for
what used to happen.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.core.functional import FunctionalSimulator
from repro.core.memsys import TimingMemorySystem
from repro.core.results import TimingResult
from repro.memory.backing import BackingMemory
from repro.params import KB, CacheConfig, MachineConfig
from repro.prefetch.content import ContentPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.core.simulator import TimingSimulator
from repro.service.http import encode_result
from repro.trace.ops import LOAD, Trace, TraceBuilder
from repro.workloads.base import WorkloadContext
from repro.workloads.kernels import ListTraversalKernel
from repro.workloads.structures import build_linked_list

HEAP = 0x0840_0000
PC = 0x0804_8000


def small_config(**content_kwargs):
    config = MachineConfig(
        l1d=CacheConfig(4 * KB, 8, latency=3),
        ul2=CacheConfig(64 * KB, 8, latency=16),
    )
    if content_kwargs:
        config = config.with_content(**content_kwargs)
    return config


def build_memsys(config, memory):
    hierarchy = CacheHierarchy(config, memory)
    return TimingMemorySystem(
        config, hierarchy,
        StridePrefetcher(config.stride, config.line_size),
        ContentPrefetcher(config.content, config.line_size),
        result=TimingResult("test"),
    )


class TestWarmupAccountingConsistency:
    """Prefetches issued during warm-up must not inflate accuracy.

    Originally, issues were counted only after warm-up but hits were
    counted for any prefetched line — accuracy could exceed 100%.
    """

    def test_functional_accuracy_bounded(self):
        ctx = WorkloadContext("t", seed=4)
        lst = build_linked_list(ctx, 2500, payload_words=14, locality=0.2)
        kernel = ListTraversalKernel(ctx, lst, payload_loads=1,
                                     work_per_node=4)
        kernel.emit()
        kernel.emit()
        workload = ctx.build()
        result = FunctionalSimulator(
            small_config(), workload.memory
        ).run(workload.trace, warmup_uops=workload.trace.uop_count // 2)
        assert result.content.useful <= result.content.issued
        assert 0.0 <= result.adjusted_content_accuracy <= 1.0


class TestReinforcementGating:
    """Without reinforcement, in-flight depth must never reset.

    Originally, a demand matching an in-flight prefetch reset its depth
    unconditionally, so 'nr' chains never actually terminated and
    Figure 9's no-reinforcement ordering could not reproduce.
    """

    def test_nr_chain_terminates_despite_demand_match(self):
        memory = BackingMemory()
        nodes = [HEAP + i * 256 for i in range(12)]
        for here, nxt in zip(nodes, nodes[1:]):
            memory.write_word(here, nxt)
        memory.write_word(nodes[-1], 0)
        memsys = build_memsys(
            small_config(next_lines=0, reinforcement=False,
                         depth_threshold=3),
            memory,
        )
        memsys.load(nodes[0], PC, 0)
        # Chase the chain with demand loads hot on the prefetcher's heels.
        time = 100
        for node in nodes[1:6]:
            memsys.load(node, PC, time)
            time = memsys.now + 30
        memsys.drain()
        # Depth-threshold-3 chains from each miss: the prefetcher must
        # never have run more than 3 links past a *miss* — with the old
        # bug it covered the whole list from the first miss.
        assert memsys.result.rescans == 0
        assert memsys.result.content.issued <= 9


class TestUnmappedJunkFiltering:
    """Junk candidates must not grow the page table or thrash the TLB.

    Originally, a junk candidate's page walk *mapped* the page
    (first-touch), inserting garbage translations and page-table lines.
    """

    def test_junk_does_not_map_pages(self):
        memory = BackingMemory()
        memory.write_word(HEAP, HEAP + 0x20_0000)  # unmapped target
        memsys = build_memsys(small_config(next_lines=0), memory)
        pages_before = memsys.hier.page_table.pages_mapped
        memsys.load(HEAP, PC, 0)
        memsys.drain()
        assert memsys.hier.page_table.pages_mapped == pages_before + 0
        assert memsys.result.content.dropped_unmapped == 1

    def test_valid_chain_crosses_page_boundaries(self):
        # Pages the image contains are premapped, so a chain running into
        # the next (allocated but not yet demanded) page must not drop.
        memory = BackingMemory()
        a, b = HEAP + 4096 - 256, HEAP + 4096 + 64  # adjacent pages
        memory.write_word(a, b)
        memory.write_word(b, 0)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(a, PC, 0)
        memsys.drain()
        assert memsys.result.content.issued == 1
        assert memsys.result.content.dropped_unmapped == 0


class TestSpeculativeWalkYield:
    """Prefetch-triggered page walks must not claim bus slots.

    Originally they grabbed the bus eagerly (demand style), delaying
    demand fills behind bursts of speculative PT reads.
    """

    def test_prefetch_walk_does_not_consume_bus(self):
        memory = BackingMemory()
        target = HEAP + 64 * 4096  # far page: TLB-cold but premapped
        memory.write_word(HEAP, target)
        memory.write_word(target, 0)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(HEAP, PC, 0)
        memsys.drain()
        assert memsys.result.prefetch_page_walks == 1
        # Bus transfers: demand walk PT lines (2) + demand fill (1) +
        # the chained prefetch fill (1).  The prefetch walk's PT reads
        # must not appear.
        assert memsys.bus.stats.transfers <= 4


class TestWarmupInterpolation:
    """The warm-up boundary can land inside a coalesced compute run."""

    def test_single_compute_op_split(self):
        from repro.core.cpu import OutOfOrderCore
        from repro.params import CoreConfig

        class NullMemory:
            def load(self, *a):
                return 1

            def store(self, *a):
                return 1

            def drain(self):
                return 0

        builder = TraceBuilder("t")
        builder.compute(6000)
        core = OutOfOrderCore(CoreConfig(), NullMemory())
        measured = core.run(builder.build(), warmup_uops=3000)
        assert abs(measured - 1000) < 5  # half of 2000 cycles


class TestSharedImageUntouchedByRuns:
    """A run must not write to the workload image it reads.

    Sweeps and fabric workers build many simulators on one image, and
    each maps the image's pages at construction.  Reads of unwritten
    addresses used to materialise zero pages in the image, so the next
    simulator handed out different physical frames and a cell's result
    depended on what had run before it on that image.
    """

    @staticmethod
    def image_and_trace():
        memory = BackingMemory()
        for page in range(64):
            memory.write_word(HEAP + page * 4096, HEAP + (page + 1) * 4096)
        ops = [(LOAD, HEAP + page * 4096, PC, -1) for page in range(64)]
        # Eight loads of pages the image never wrote.
        unwritten = 0x0900_0000
        ops += [(LOAD, unwritten + page * 4096, PC, -1) for page in range(8)]
        return memory, Trace("image", ops=ops)

    def test_timing_runs_repeat_and_leave_the_image_alone(self):
        memory, trace = self.image_and_trace()
        config = small_config()
        first = TimingSimulator(config, memory).run(trace)
        assert memory.touched_pages == 64
        second = TimingSimulator(config, memory).run(trace)
        assert memory.touched_pages == 64
        assert encode_result(second)["digest"] == (
            encode_result(first)["digest"]
        )
        assert second.cycles == first.cycles

    def test_functional_runs_repeat_and_leave_the_image_alone(self):
        memory, trace = self.image_and_trace()
        config = small_config()
        first = FunctionalSimulator(config, memory).run(trace)
        second = FunctionalSimulator(config, memory).run(trace)
        assert memory.touched_pages == 64
        assert encode_result(second)["digest"] == (
            encode_result(first)["digest"]
        )
