"""Tests for repro.core.memsys (the event-driven memory system)."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import Requester
from repro.core.memsys import TimingMemorySystem
from repro.core.results import TimingResult
from repro.memory.backing import BackingMemory
from repro.params import KB, CacheConfig, MachineConfig
from repro.prefetch.content import ContentPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.stride import StridePrefetcher

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


def build_memsys(config=None, memory=None):
    config = config or small_config()
    memory = memory if memory is not None else BackingMemory()
    hierarchy = CacheHierarchy(config, memory)
    memsys = TimingMemorySystem(
        config,
        hierarchy,
        StridePrefetcher(config.stride, config.line_size),
        ContentPrefetcher(config.content, config.line_size),
        markov=(MarkovPrefetcher(config.markov, config.line_size)
                if config.markov.enabled else None),
        result=TimingResult("test"),
    )
    return memsys


def chain_memory(nodes, start=HEAP, pitch=256):
    """A linked chain of pointers, one per line, `pitch` bytes apart."""
    memory = BackingMemory()
    addresses = [start + i * pitch for i in range(nodes)]
    for here, nxt in zip(addresses, addresses[1:]):
        memory.write_word(here, nxt)
    memory.write_word(addresses[-1], 0)
    return memory, addresses


class TestDemandPath:
    def test_l1_hit_latency(self):
        memsys = build_memsys()
        memsys.load(HEAP, PC, 0)           # cold miss fills L1
        latency = memsys.load(HEAP + 8, PC, 5000)
        assert latency == memsys.config.l1d.latency

    def test_cold_miss_pays_bus_latency(self):
        memsys = build_memsys()
        latency = memsys.load(HEAP, PC, 0)
        assert latency >= memsys.config.bus.bus_latency

    def test_l2_hit_after_l1_eviction_costs_l2_latency(self):
        config = small_config()
        memsys = build_memsys(config)
        memsys.load(HEAP, PC, 0)
        # Thrash the tiny L1 set so HEAP's line falls out of L1 only.
        l1_span = config.l1d.size_bytes
        for i in range(1, 12):
            memsys.load(HEAP + i * l1_span, PC, 1000 + i * 600)
        latency = memsys.load(HEAP, PC, 50_000)
        assert latency < 60
        assert latency >= config.ul2.latency

    def test_demand_miss_counts(self):
        memsys = build_memsys()
        memsys.load(HEAP, PC, 0)
        assert memsys.result.unmasked_l2_misses == 1
        assert memsys.result.demand_l1_misses == 1

    def test_store_allocates_but_not_counted_as_load_miss(self):
        memsys = build_memsys()
        memsys.store(HEAP, PC, 0)
        assert memsys.result.unmasked_l2_misses == 0
        assert memsys.result.demand_l1_misses == 1

    def test_page_walk_charged_on_tlb_miss(self):
        memsys = build_memsys()
        memsys.load(HEAP, PC, 0)
        assert memsys.result.demand_page_walks == 1
        # Second access to the same page: no walk.
        memsys.load(HEAP + 4096 - 64, PC, 5000)
        assert memsys.result.demand_page_walks == 1


class TestContentChaining:
    def test_chain_prefetches_issue_from_demand_fill(self):
        memory, addresses = chain_memory(8)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(addresses[0], PC, 0)
        memsys.drain()
        issued = memsys.result.content.issued
        # Depth threshold 3: nodes 1..3 prefetched.
        assert issued == 3

    def test_chain_respects_depth_threshold(self):
        memory, addresses = chain_memory(12)
        memsys = build_memsys(
            small_config(next_lines=0, depth_threshold=5), memory
        )
        memsys.load(addresses[0], PC, 0)
        memsys.drain()
        assert memsys.result.content.issued == 5

    def test_prefetched_line_gives_full_hit(self):
        memory, addresses = chain_memory(4)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(addresses[0], PC, 0)
        memsys.drain()
        latency = memsys.load(addresses[1], PC, memsys.now + 100)
        assert latency < 60
        assert memsys.result.content.full_hits == 1

    def test_demand_matching_inflight_prefetch_is_partial(self):
        memory, addresses = chain_memory(4)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(addresses[0], PC, 0)
        # Advance until node 1's chained prefetch is in flight, then touch
        # it while the fill has not yet arrived.
        line1 = None
        time = 0
        while line1 is None and time < 100_000:
            time += 50
            memsys.advance_to(time)
            for line in memsys.mshr.inflight_lines():
                status = memsys.mshr.lookup(line)
                if status.line_vaddr == addresses[1] & ~63:
                    line1 = status
        assert line1 is not None, "chained prefetch never issued"
        latency = memsys.load(addresses[1], PC, time)
        assert latency > memsys.config.ul2.latency
        memsys.drain()
        assert memsys.result.content.partial_hits == 1

    def test_next_line_prefetches_issued(self):
        memory, addresses = chain_memory(4)
        memsys = build_memsys(small_config(next_lines=2), memory)
        memsys.load(addresses[0], PC, 0)
        memsys.drain()
        assert memsys.result.content.issued_by_kind.get("next", 0) > 0

    def test_unmapped_candidates_dropped(self):
        memory = BackingMemory()
        # A line whose pointer targets an untouched (unmapped) page in the
        # same compare-bit region.
        memory.write_word(HEAP, HEAP + 0x10_0000)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(HEAP, PC, 0)
        memsys.drain()
        assert memsys.result.content.dropped_unmapped == 1
        assert memsys.result.content.issued == 0

    def test_resident_candidate_dropped(self):
        memory, addresses = chain_memory(2)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(addresses[1], PC, 0)      # bring node 1 in as demand
        memsys.drain()
        memsys.load(addresses[0], PC, memsys.now + 10)
        memsys.drain()
        assert memsys.result.content.dropped_resident >= 1


class TestReinforcement:
    def test_demand_hit_on_prefetched_line_extends_chain(self):
        memory, addresses = chain_memory(10)
        memsys = build_memsys(
            small_config(next_lines=0, depth_threshold=3), memory
        )
        memsys.load(addresses[0], PC, 0)
        memsys.drain()
        assert memsys.result.content.issued == 3
        # Demand hit on node 1 (stored depth 1) promotes + rescans,
        # extending the chain to node 4.
        memsys.load(addresses[1], PC, memsys.now + 50)
        memsys.drain()
        assert memsys.result.rescans >= 1
        assert memsys.result.content.issued >= 4

    def test_no_reinforcement_means_no_rescans(self):
        memory, addresses = chain_memory(10)
        memsys = build_memsys(
            small_config(next_lines=0, reinforcement=False), memory
        )
        memsys.load(addresses[0], PC, 0)
        memsys.drain()
        memsys.load(addresses[1], PC, memsys.now + 50)
        memsys.drain()
        assert memsys.result.rescans == 0
        assert memsys.result.content.issued == 3

    def test_promoted_line_depth_reset(self):
        memory, addresses = chain_memory(6)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(addresses[0], PC, 0)
        memsys.drain()
        memsys.load(addresses[1], PC, memsys.now + 50)
        line = memsys.hier.l2.peek(
            memsys.hier.dtlb.peek(addresses[1]) & ~63
        )
        assert line.depth == 0

    @staticmethod
    def _until_inflight(memsys, vaddr):
        """Advance until *vaddr*'s line has a fill in flight."""
        time = 0
        while time < 100_000:
            time += 50
            memsys.advance_to(time)
            for line in memsys.mshr.inflight_lines():
                status = memsys.mshr.lookup(line)
                if status.line_vaddr == vaddr & ~63:
                    return status, time
        raise AssertionError("no fill ever went in flight")

    def test_inflight_prefetch_promoted_once_with_depth_reset(self):
        memory, addresses = chain_memory(6)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(addresses[0], PC, 0)
        status, time = self._until_inflight(memsys, addresses[1])
        assert status.requester is Requester.CONTENT
        assert (status.depth, status.promoted) == (1, False)
        memsys.load(addresses[1], PC, time)
        assert (status.depth, status.promoted) == (0, True)
        assert status.demand_waiters == 1
        # A second demand waits on the same fill; nothing resets again.
        memsys.load(addresses[1] + 4, PC, time + 1)
        assert status.demand_waiters == 2
        assert status.requester is Requester.CONTENT

    def test_inflight_demand_fill_is_not_promoted(self):
        memsys = build_memsys()
        memsys.load(HEAP, PC, 0)
        status = memsys.mshr.lookup(memsys.hier.dtlb.peek(HEAP) & ~63)
        memsys.load(HEAP + 8, PC, 10)
        assert status.requester is Requester.DEMAND
        assert status.demand_waiters == 1
        assert not status.promoted


class TestArbitersAndBus:
    def test_bus_transfers_counted(self):
        memsys = build_memsys()
        memsys.load(HEAP, PC, 0)
        memsys.finalize()
        assert memsys.result.bus_transfers == memsys.bus.stats.transfers
        assert memsys.result.bus_transfers > 0

    def test_page_walk_fills_bypass_scanner(self):
        # Page-table lines are full of pointers; scanning them would
        # explode.  Ensure walk fills generate no content prefetches.
        memory = BackingMemory()
        memory.write_word(HEAP, 0)  # no pointers in the data line
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(HEAP, PC, 0)
        memsys.drain()
        assert memsys.result.content.issued == 0

    def test_pollution_injection(self):
        memsys = build_memsys()
        memsys.inject_pollution = True
        for i in range(20):
            memsys.load(HEAP + i * 4096, PC, i * 2000)
        memsys.drain()
        assert memsys.pollution_fills > 0


class TestMarkovIntegration:
    def test_markov_observes_and_issues(self):
        config = small_config().with_markov(enabled=True)
        memory = BackingMemory()
        memsys = build_memsys(config, memory)
        a, b = HEAP, HEAP + 8192
        # Train the A -> B transition, then revisit A.
        memsys.load(a, PC, 0)
        memsys.load(b, PC, 2000)
        # Evict nothing; misses on same lines won't recur, so touch fresh
        # lines mapping the same transition via line granularity.
        memsys.load(a + 4096 * 16, PC, 4000)   # unrelated miss
        memsys.drain()
        assert memsys.markov.stats.misses_observed == 3


class TestFinalize:
    def test_finalize_populates_eviction_stats(self):
        memory, addresses = chain_memory(4)
        memsys = build_memsys(small_config(next_lines=0), memory)
        memsys.load(addresses[0], PC, 0)
        memsys.finalize()
        content = memsys.result.content
        assert content.evicted_unused == max(
            0, memsys.hier.l2.stats.prefetch_fills_by.get("CONTENT", 0)
            - content.useful
        )


class TestWritebacks:
    # The L2 is physically indexed with first-touch frame assignment, so
    # page-granular strides (one line per page, pages touched in order)
    # land in a small number of sets and overflow them deterministically.

    def _pressure(self, memsys, op, count):
        time = 0
        for i in range(count):
            op(HEAP + i * 8192, PC, time)
            memsys.drain()
            time = memsys.now + 1000

    def test_dirty_victims_write_back(self):
        memsys = build_memsys()
        self._pressure(memsys, memsys.store, 20)
        assert memsys.hier.l2.stats.evictions >= 1
        assert memsys.result.writebacks >= 1

    def test_clean_victims_do_not_write_back(self):
        memsys = build_memsys()
        self._pressure(memsys, memsys.load, 20)
        assert memsys.hier.l2.stats.evictions >= 1
        assert memsys.result.writebacks == 0

    def test_store_miss_fill_is_dirty(self):
        memsys = build_memsys()
        memsys.store(HEAP, PC, 0)
        memsys.drain()
        paddr = memsys.hier.dtlb.peek(HEAP)
        assert memsys.hier.l2.peek(paddr & ~63).dirty

    def test_store_hit_marks_line_dirty(self):
        memsys = build_memsys()
        memsys.load(HEAP, PC, 0)
        memsys.drain()
        memsys.store(HEAP + 8, PC, memsys.now + 10)
        paddr = memsys.hier.dtlb.peek(HEAP)
        line = memsys.hier.l2.peek(paddr & ~63)
        assert line.dirty
