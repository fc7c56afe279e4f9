"""Functional (untimed) cache simulator.

Prefetches complete instantly here, so every covered miss is a "full" hit —
which is exactly why the paper restricts coverage/accuracy to *tuning* the
heuristic ("they ... should not be construed as providing any true insight
into the performance").  This simulator serves three experiments:

* Figure 1 / Table 2 — MPTU (demand L2 misses per 1000 µops), windowed and
  aggregate, at 1 MB and 4 MB UL2 sizes;
* Figures 7 and 8 — adjusted coverage/accuracy sweeps over the matcher's
  compare/filter/align/step knobs.

"Adjusted" means content prefetches the stride prefetcher would also have
issued are subtracted (the paper isolates the content prefetcher's own
contribution); we implement that with a non-mutating
:meth:`StridePrefetcher.would_cover` probe at content-issue time.
"""

from __future__ import annotations

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import Requester
from repro.core.results import FunctionalResult
from repro.memory.address import line_mask
from repro.memory.backing import BackingMemory
from repro.memory.pagetable import PageTable
from repro.params import MachineConfig
from repro.prefetch.content import ContentPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.trace.ops import BRANCH, COMPUTE, LOAD, Trace

__all__ = ["FunctionalSimulator"]

_DEMAND = Requester.DEMAND
_STRIDE = Requester.STRIDE
_CONTENT = Requester.CONTENT
_MARKOV = Requester.MARKOV

# Per-line tracking flags (bitset line_tracking mode).
_FLAG_STRIDE = 1
_FLAG_OVERLAP = 2
_FLAG_COUNTED = 4


class FunctionalSimulator:
    """Runs a trace through the cache hierarchy with zero-latency fills."""

    def __init__(
        self,
        config: MachineConfig,
        memory: BackingMemory,
        page_table: PageTable | None = None,
        mptu_window_uops: int = 0,
        line_tracking: str = "bitset",
    ) -> None:
        self.config = config
        self.hier = CacheHierarchy(config, memory, page_table)
        self.stride = StridePrefetcher(
            config.stride, config.line_size,
            address_bits=config.content.address_bits,
        )
        self.content = ContentPrefetcher(config.content, config.line_size)
        self.markov = (
            MarkovPrefetcher(
                config.markov, config.line_size,
                address_bits=config.content.address_bits,
            )
            if config.markov.enabled else None
        )
        self.result = FunctionalResult("run")
        self.result.mptu_window_uops = mptu_window_uops
        # Hot-path aliases (the hierarchy's components never change).
        self._l1 = self.hier.l1
        self._l2 = self.hier.l2
        self._dtlb = self.hier.dtlb
        self._page_table = self.hier.page_table
        self._memory = self.hier.memory
        self._line_size = config.line_size
        self._line_mask = line_mask(
            config.line_size, config.content.address_bits
        )
        self._content_enabled = config.content.enabled
        self._content_offchip = config.content.placement == "offchip"
        # Accounting by requester value (DEMAND maps to None).
        self._accts = (
            None, self.result.stride, self.result.content,
            self.result.markov,
        )
        # Per-line tracking bits (see _FLAG_*): lines the stride
        # prefetcher has issued, the subset of content-prefetched lines
        # that overlap them (for the adjusted metrics of Figures 7/8),
        # and prefetch fills whose issue was counted (i.e. happened after
        # warm-up) — only their hits count as useful, keeping coverage
        # and accuracy consistent across the warm-up boundary.
        #
        # The default representation is one flag byte per physical line
        # index in a flat bytearray: the page table allocates frames
        # densely upward from its frame base, so line indexes are dense
        # and a bytearray replaces three hash sets on the per-prefetch
        # hot path.  ``line_tracking="sets"`` selects the original
        # three-set representation, kept as the equivalence oracle
        # (tests/test_functional_sim.py drives both and compares results).
        if line_tracking not in ("bitset", "sets"):
            raise ValueError("unknown line_tracking: %r" % line_tracking)
        self.line_tracking = line_tracking
        self._use_sets = line_tracking == "sets"
        self._line_shift = (config.line_size - 1).bit_length()
        self._line_flags = bytearray()
        self._stride_lines: set[int] = set()
        self._content_overlap: set[int] = set()
        self._counted_fills: set[int] = set()
        self._window_misses = 0
        self._window_uops = 0

    # ------------------------------------------------------------------

    def run(self, trace: Trace, warmup_uops: int = 0) -> FunctionalResult:
        """Simulate *trace*; statistics exclude the first *warmup_uops*."""
        result = self.result
        result.name = trace.name
        measuring = warmup_uops == 0
        uops_seen = 0
        # Hot loop: bind the per-op callees once, probe the L1 here (most
        # accesses hit), and skip the window bookkeeping call entirely
        # when no MPTU window is configured (the common case for
        # coverage/accuracy sweeps).
        windowed = bool(result.mptu_window_uops)
        tick = self._tick_window
        l1_lookup = self._l1.lookup
        miss = self._miss
        for op in trace.ops:
            kind = op[0]
            if kind == COMPUTE:
                uops_seen += op[1]
                if windowed:
                    tick(op[1], measuring)
            elif kind == BRANCH:
                uops_seen += 1
                if windowed:
                    tick(1, measuring)
            else:
                uops_seen += 1
                if windowed:
                    tick(1, measuring)
                if l1_lookup(op[1]) is None:
                    miss(op[1], op[2], measuring)
                if measuring:
                    if kind == LOAD:
                        result.loads += 1
                    else:
                        result.stores += 1
            if not measuring and uops_seen >= warmup_uops:
                measuring = True
        result.uops = max(0, trace.uop_count - warmup_uops)
        result.instructions = trace.instruction_count
        result.tlb_misses = self._dtlb.stats.misses
        return result

    def _flag_index(self, line_p: int) -> int:
        """Bitset index for a physical line, growing the array to fit.

        Frames are allocated densely upward from the page table's frame
        base (see :mod:`repro.memory.pagetable`), so indexing by absolute
        line number keeps the array proportional to the touched physical
        footprint — one byte per line.
        """
        index = line_p >> self._line_shift
        flags = self._line_flags
        if index >= len(flags):
            flags.extend(bytes(index + 4096 - len(flags)))
        return index

    def _tick_window(self, uops: int, measuring: bool) -> None:
        window = self.result.mptu_window_uops
        if not window or not measuring:
            return
        self._window_uops += uops
        while self._window_uops >= window:
            self.result.mptu_trace.append(
                1000.0 * self._window_misses / window
            )
            self._window_misses = 0
            self._window_uops -= window

    # ------------------------------------------------------------------

    def _miss(self, vaddr: int, pc: int, measuring: bool) -> None:
        """One L1 miss: observe, translate, then hit or fill the UL2."""
        result = self.result
        if measuring:
            result.demand_l1_misses += 1
        stride_candidates = self.stride.observe(pc, vaddr)
        # Translate through the DTLB, walking the page table on a miss.
        dtlb = self._dtlb
        paddr = dtlb.translate(vaddr)
        if paddr is None:
            paddr = self._page_table.translate(vaddr)
            dtlb.insert(vaddr, paddr)
        if stride_candidates:
            self._issue(stride_candidates, _STRIDE, measuring)
        if measuring:
            result.l2_requests += 1
        line_mask = self._line_mask
        line_p = paddr & line_mask
        line_v = vaddr & line_mask
        l2 = self._l2
        line = l2.lookup(paddr)
        if line is not None:
            requester = line.requester
            if requester is not _DEMAND and not line.referenced and measuring:
                if self._use_sets:
                    counted = line_p in self._counted_fills
                    overlap = line_p in self._content_overlap
                    if counted:
                        self._counted_fills.discard(line_p)
                else:
                    index = self._flag_index(line_p)
                    flags = self._line_flags[index]
                    counted = flags & _FLAG_COUNTED
                    overlap = flags & _FLAG_OVERLAP
                    if counted:
                        self._line_flags[index] = flags ^ _FLAG_COUNTED
                if counted:
                    self._accts[requester].full_hits += 1
                    if requester is _CONTENT and overlap:
                        result.content_useful_overlap += 1
            depth = line.depth
            rescan = self.content.should_rescan(depth, 0)
            # CacheLine.promote(0, DEMAND), inline.
            if depth > 0:
                line.depth = 0
            line.referenced = True
            if rescan:
                self._scan(line.vaddr, vaddr, 0, measuring)
        else:
            if measuring:
                result.demand_l2_misses += 1
                self._window_misses += 1
            if self._use_sets:
                self._counted_fills.discard(line_p)
            else:
                self._line_flags[self._flag_index(line_p)] &= ~_FLAG_COUNTED
            l2.fill(paddr, line_v)
            if self.markov is not None:
                markov_candidates = self.markov.observe_miss(
                    vaddr, bool(stride_candidates)
                )
                if markov_candidates:
                    self._issue(markov_candidates, _MARKOV, measuring)
            self._scan(line_v, vaddr, 0, measuring)
        self._l1.fill(vaddr, line_v)

    # ------------------------------------------------------------------

    def _issue(
        self, candidates, requester: Requester, measuring: bool,
    ) -> None:
        """Fill one prefetcher's candidates, in order, at once.

        A content prefetch fill is scanned as it lands, so its own
        candidates fill before the next one here.
        """
        acct = self._accts[requester]
        result = self.result
        dtlb = self._dtlb
        page_table = self._page_table
        l2 = self._l2
        line_mask = self._line_mask
        use_sets = self._use_sets
        is_stride = requester is _STRIDE
        is_content = requester is _CONTENT
        # Off-chip placement has no DTLB access (Section 3.2).
        drop_untranslated = is_content and self._content_offchip
        for vaddr, depth, _, _ in candidates:
            paddr = dtlb.peek(vaddr)
            if paddr is None:
                if drop_untranslated:
                    acct.dropped_untranslated += 1
                    continue
                if not page_table.is_mapped(vaddr):
                    if measuring:
                        acct.dropped_unmapped += 1
                    continue
                # The walk: a counted DTLB miss, then the page table.
                dtlb.translate(vaddr)
                paddr = page_table.translate(vaddr)
                dtlb.insert(vaddr, paddr)
                if measuring:
                    result.prefetch_page_walks += 1
            line_p = paddr & line_mask
            if is_stride:
                if use_sets:
                    self._stride_lines.add(line_p)
                else:
                    self._line_flags[self._flag_index(line_p)] |= _FLAG_STRIDE
            resident = l2.peek(line_p)
            if resident is not None:
                if self.content.should_rescan(resident.depth, depth):
                    resident.promote(depth, requester)
                    self._scan(resident.vaddr, vaddr, depth, measuring)
                acct.dropped_resident += 1
                continue
            if use_sets:
                if measuring:
                    acct.issued += 1
                    self._counted_fills.add(line_p)
                else:
                    self._counted_fills.discard(line_p)
                if is_content:
                    if line_p in self._stride_lines:
                        self._content_overlap.add(line_p)
                        if measuring:
                            result.content_issued_overlap += 1
                    else:
                        self._content_overlap.discard(line_p)
            else:
                index = self._flag_index(line_p)
                flags = self._line_flags[index]
                if measuring:
                    acct.issued += 1
                    flags |= _FLAG_COUNTED
                else:
                    flags &= ~_FLAG_COUNTED
                if is_content:
                    if flags & _FLAG_STRIDE:
                        flags |= _FLAG_OVERLAP
                        if measuring:
                            result.content_issued_overlap += 1
                    else:
                        flags &= ~_FLAG_OVERLAP
                self._line_flags[index] = flags
            line_v = vaddr & line_mask
            l2.fill(
                line_p, line_v, requester, self.content.clamp_depth(depth)
            )
            # Prefetch fills are themselves scanned (the recurrence
            # component).
            if is_content:
                self._scan(line_v, vaddr, depth, measuring)

    def _scan(
        self, line_vaddr: int, effective_vaddr: int, depth: int,
        measuring: bool,
    ) -> None:
        if not self._content_enabled:
            return
        candidates = self.content.scan_fill(
            line_vaddr,
            self._memory.read_line(line_vaddr, self._line_size),
            effective_vaddr,
            depth,
        )
        if candidates:
            self._issue(candidates, _CONTENT, measuring)
