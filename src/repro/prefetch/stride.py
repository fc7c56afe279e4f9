"""Baseline hardware stride prefetcher.

Every configuration in the paper — including the baseline all speedups are
measured against — contains "a stride-based hardware prefetcher" that
"monitors all the L1 cache miss traffic and issues requests to the L2
arbiter" (Table 1, Figure 6).  The paper does not give its internals, so we
implement the classic Chen & Baer reference-prediction-table design the
text cites: a PC-indexed table of (last address, stride, confidence)
entries with LRU replacement; once the same stride repeats
``confidence_threshold`` times the prefetcher issues requests
``prefetch_distance`` strides ahead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.memory.address import ADDRESS_BITS, address_mask, line_mask
from repro.params import StrideConfig
from repro.prefetch.base import PrefetchCandidate, PrefetchKind, make_candidate
from repro.snapshot.hooks import dataclass_state, load_dataclass_state

__all__ = ["StrideEntry", "StrideStats", "StridePrefetcher"]

_KIND_STRIDE = PrefetchKind.STRIDE


@dataclass(slots=True)
class StrideEntry:
    last_addr: int
    stride: int = 0
    confidence: int = 0


@dataclass(slots=True)
class StrideStats:
    observations: int = 0
    issued: int = 0
    entries_evicted: int = 0


class StridePrefetcher:
    """PC-indexed reference prediction table."""

    __slots__ = (
        "config",
        "stats",
        "_addr_mask",
        "_line_mask",
        "_line_size",
        "_table",
    )

    def __init__(
        self,
        config: StrideConfig,
        line_size: int = 64,
        address_bits: int = ADDRESS_BITS,
    ) -> None:
        self.config = config
        self.stats = StrideStats()
        self._addr_mask = address_mask(address_bits)
        self._line_mask = line_mask(line_size, address_bits)
        self._line_size = line_size
        self._table: OrderedDict[int, StrideEntry] = OrderedDict()

    def observe(self, pc: int, vaddr: int) -> list[PrefetchCandidate]:
        """Feed one L1 miss; returns stride prefetch candidates (if any)."""
        config = self.config
        if not config.enabled:
            return []
        self.stats.observations += 1
        table = self._table
        entry = table.get(pc)
        if entry is None:
            self._insert(pc, StrideEntry(vaddr))
            return []
        table.move_to_end(pc)
        threshold = config.confidence_threshold
        stride = vaddr - entry.last_addr
        if stride == entry.stride and stride != 0:
            if entry.confidence < threshold:
                entry.confidence += 1
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_addr = vaddr
        if entry.confidence < threshold:
            return []
        return self._issue(vaddr, entry.stride)

    def _issue(self, vaddr: int, stride: int) -> list[PrefetchCandidate]:
        candidates = []
        addr_mask = self._addr_mask
        line_mask = self._line_mask
        seen_lines = {vaddr & line_mask}
        for k in range(1, self.config.prefetch_distance + 1):
            target = (vaddr + k * stride) & addr_mask
            line = target & line_mask
            if line in seen_lines:
                continue
            seen_lines.add(line)
            candidates.append(
                make_candidate((target, 1, _KIND_STRIDE, vaddr))
            )
        self.stats.issued += len(candidates)
        return candidates

    def would_cover(self, pc: int, vaddr: int) -> bool:
        """Non-mutating probe: would this PC's entry predict *vaddr*'s line?

        Used to compute the paper's *adjusted* coverage/accuracy, which
        subtracts content prefetches the stride prefetcher would also have
        issued (Figure 7).
        """
        entry = self._table.get(pc)
        if entry is None or entry.confidence < self.config.confidence_threshold:
            return False
        if entry.stride == 0:
            return False
        for k in range(1, self.config.prefetch_distance + 1):
            predicted = (entry.last_addr + k * entry.stride) & self._addr_mask
            if predicted & self._line_mask == vaddr & self._line_mask:
                return True
        return False

    def _insert(self, pc: int, entry: StrideEntry) -> None:
        if len(self._table) >= self.config.table_entries:
            self._table.popitem(last=False)
            self.stats.entries_evicted += 1
        self._table[pc] = entry

    def __len__(self) -> int:
        return len(self._table)

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        """Reference-prediction table in LRU order, plus counters."""
        return {
            "stats": dataclass_state(self.stats),
            "table": [
                [pc, entry.last_addr, entry.stride, entry.confidence]
                for pc, entry in self._table.items()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        load_dataclass_state(self.stats, state["stats"])
        self._table = OrderedDict(
            (pc, StrideEntry(last_addr, stride, confidence))
            for pc, last_addr, stride, confidence in state["table"]
        )
