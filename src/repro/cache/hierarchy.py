"""Wiring of the two-level cache hierarchy plus address translation.

The paper's memory system (Figure 6) features "a virtually indexed L1 data
cache and a physically indexed L2 unified cache; meaning L1 cache misses
require a virtual-to-physical address translation prior to accessing the L2
cache".  :class:`CacheHierarchy` bundles the L1, UL2, DTLB, page table and
backing memory for one machine.  Each simulator translates on its own miss
path, straight through the DTLB and the page table: the timing simulator
prices the page walker's reads, the functional one does not.
"""

from __future__ import annotations

from repro.cache.setassoc import SetAssociativeCache
from repro.memory.address import line_mask
from repro.memory.backing import BackingMemory
from repro.memory.pagetable import PageTable
from repro.params import MachineConfig
from repro.tlb.dtlb import DataTLB

__all__ = ["CacheHierarchy"]


class CacheHierarchy:
    """L1 + UL2 + DTLB + page table + backing memory for one machine."""

    def __init__(
        self,
        config: MachineConfig,
        memory: BackingMemory | None = None,
        page_table: PageTable | None = None,
    ) -> None:
        self.config = config
        self.memory = memory if memory is not None else BackingMemory(
            page_size=config.page_size
        )
        self.page_table = page_table if page_table is not None else PageTable(
            page_size=config.page_size
        )
        self.l1 = SetAssociativeCache(config.l1d, name="L1D")
        self.l2 = SetAssociativeCache(config.ul2, name="UL2")
        self.dtlb = DataTLB(config.dtlb)
        self._line_mask = line_mask(
            config.line_size, config.content.address_bits
        )
        # Pages the workload image actually contains are mapped up front —
        # a real allocator mapped them at allocation time.  The TLB stays
        # cold (translations still require walks), but prefetches to
        # genuinely unmapped space (junk candidates) can be recognised and
        # dropped, as a failing hardware walk would.
        page_shift = config.page_size.bit_length() - 1
        for page_number in self.memory.touched_page_numbers():
            self.page_table.translate(page_number << page_shift)

    # -- address helpers -----------------------------------------------------

    def line_of(self, address: int) -> int:
        return address & self._line_mask

    def reset_stats(self) -> None:
        self.l1.stats = type(self.l1.stats)()
        self.l2.stats = type(self.l2.stats)()
        self.dtlb.reset_stats()

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        """L1 + UL2 + DTLB + page table (backing memory is read-only).

        The workload's memory image is deliberately excluded: timing runs
        never mutate it (stores are timing-only), and the experiments
        rebuild it deterministically from the workload key — snapshots
        stay megabytes smaller for it.
        """
        return {
            "l1": self.l1.state_dict(),
            "l2": self.l2.state_dict(),
            "dtlb": self.dtlb.state_dict(),
            "page_table": self.page_table.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.l1.load_state_dict(state["l1"])
        self.l2.load_state_dict(state["l2"])
        self.dtlb.load_state_dict(state["dtlb"])
        self.page_table.load_state_dict(state["page_table"])
