"""Tests for repro.cache.hierarchy."""

from repro.cache.hierarchy import CacheHierarchy
from repro.memory.backing import BackingMemory
from repro.params import KB, CacheConfig, MachineConfig


def small_machine():
    return MachineConfig(
        l1d=CacheConfig(4 * KB, 8, latency=3),
        ul2=CacheConfig(64 * KB, 8, latency=16),
    )


class TestPremapping:
    def test_image_pages_premapped(self):
        memory = BackingMemory()
        memory.write_word(0x0840_0000, 0x1234)
        memory.write_word(0x0900_5000, 0x5678)
        hierarchy = CacheHierarchy(small_machine(), memory)
        assert hierarchy.page_table.is_mapped(0x0840_0000)
        assert hierarchy.page_table.is_mapped(0x0900_5000)
        assert not hierarchy.page_table.is_mapped(0x0A00_0000)

    def test_premapping_leaves_tlb_cold(self):
        memory = BackingMemory()
        memory.write_word(0x0840_0000, 0x1234)
        hierarchy = CacheHierarchy(small_machine(), memory)
        assert hierarchy.dtlb.peek(0x0840_0000) is None

    def test_premapping_is_deterministic(self):
        def build():
            memory = BackingMemory()
            memory.write_word(0x0840_0000, 1)
            memory.write_word(0x0900_0000, 1)
            hierarchy = CacheHierarchy(small_machine(), memory)
            return hierarchy.page_table.translate(0x0840_0000)

        assert build() == build()


class TestHelpers:
    def test_line_of(self):
        hierarchy = CacheHierarchy(small_machine(), BackingMemory())
        assert hierarchy.line_of(0x1234_5678) == 0x1234_5640

    def test_reset_stats(self):
        hierarchy = CacheHierarchy(small_machine(), BackingMemory())
        hierarchy.l1.lookup(0x1000)
        hierarchy.dtlb.translate(0x1000)
        hierarchy.reset_stats()
        assert hierarchy.l1.stats.accesses == 0
        assert hierarchy.dtlb.stats.accesses == 0
