"""Event-driven timing model of the memory system of Figure 6.

The core (see :mod:`repro.core.cpu`) calls :meth:`TimingMemorySystem.load`
and :meth:`~TimingMemorySystem.store` with the cycle at which each access
executes; the memory system returns the access latency and, internally,
advances an event queue that models:

* the L1 (virtually indexed) and UL2 (physically indexed) caches;
* the DTLB and hardware page walker (walk fills bypass the scanner);
* the stride prefetcher observing L1 miss traffic;
* the content prefetcher scanning a copy of all UL2 fill traffic and
  issuing chained/width prefetches, with per-line depth bits, promotion,
  and reinforcement rescans through the L2 port;
* the optional Markov prefetcher observing UL2 demand misses;
* a priority bus arbiter (demand > stride > content/markov; shallower
  depth first) with squash-on-full and displace-for-demand semantics;
* a serially-occupied front-side bus with a fixed fill latency.

Timing approximations (documented in DESIGN.md): demand requests claim the
bus at request time (which realises their top arbiter priority), and cache
state queries slightly in the past are answered with present state — the
event queue only moves forward.
"""

from __future__ import annotations

import heapq

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import Requester
from repro.cache.mshr import MissStatus, MSHRFile
from repro.cache.prefetchbuffer import PrefetchBuffer
from repro.core.results import TimingResult
from repro.interconnect.arbiter import MemoryRequest, PriorityArbiter
from repro.interconnect.bus import Bus, L2Port
from repro.memory.address import line_mask
from repro.params import BusConfig, MachineConfig
from repro.prefetch.content import ContentPrefetcher
from repro.snapshot.hooks import canonical_heap
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.stride import StridePrefetcher

__all__ = ["TimingMemorySystem"]

_EV_FILL = 0
_EV_BUS = 1

# Hot-path aliases: enum member lookups are class-attribute accesses.
_DEMAND = Requester.DEMAND
_STRIDE = Requester.STRIDE
_CONTENT = Requester.CONTENT
_MARKOV = Requester.MARKOV

# A fill_time of -1 marks an in-flight entry still queued at the bus
# arbiter (not yet granted).
_NOT_GRANTED = -1


class TimingMemorySystem:
    """The full memory side of the machine."""

    def __init__(
        self,
        config: MachineConfig,
        hierarchy: CacheHierarchy,
        stride: StridePrefetcher,
        content: ContentPrefetcher,
        markov: MarkovPrefetcher | None = None,
        result: TimingResult | None = None,
        adaptive=None,
        faults=None,
    ) -> None:
        self.config = config
        self.hier = hierarchy
        self.stride = stride
        self.content = content
        self.markov = markov
        self.adaptive = adaptive
        self.result = result if result is not None else TimingResult("mem")
        # Hot-path aliases: the hierarchy's components never change after
        # construction, and the per-requester accounting map is fixed, so
        # resolve both once instead of per access.
        self._l1 = hierarchy.l1
        self._l2 = hierarchy.l2
        self._dtlb = hierarchy.dtlb
        self._memory = hierarchy.memory
        self._line_size = config.line_size
        self._l1_latency = hierarchy.l1.config.latency
        self._l2_latency = hierarchy.l2.config.latency
        self._l1_l2_latency = self._l1_latency + self._l2_latency
        # Accounting by requester value (DEMAND maps to None).
        self._accts = (
            None, self.result.stride, self.result.content, self.result.markov,
        )
        # Static content-policy knobs consulted on every fill and issue.
        self._content_enabled = config.content.enabled
        self._content_offchip = config.content.placement == "offchip"
        self._reinforcement = config.content.reinforcement
        self.bus = Bus(config.bus, line_size=config.line_size)
        self.l2_port = L2Port(config.bus.l2_throughput)
        self.bus_arbiter = PriorityArbiter(
            config.bus.bus_queue_size, name="bus"
        )
        self.mshr = MSHRFile()
        # Optional dedicated prefetch buffer (fill_target="buffer").
        self.prefetch_buffer = (
            PrefetchBuffer(config.content.buffer_entries)
            if config.content.fill_target == "buffer" else None
        )
        self.now = 0
        self._events: list = []
        # Explicit event tie-break counter (not itertools.count) so
        # snapshots capture and restore the exact posting sequence.
        self._seq = 0
        # Event-drain implementation (see set_drain_mode), held as a plain
        # function and called as ``self._drain(self, time)``.  A bound
        # method stored on the instance would be a reference cycle
        # (self -> method -> self) that keeps a finished memory system and
        # its whole hierarchy alive until the cyclic GC happens to run.
        self.drain_mode = "batched"
        self._drain = _DRAINS["batched"]
        self._bus_service_pending = False
        self._line_mask = line_mask(
            config.line_size, config.content.address_bits
        )
        # Recycled MemoryRequest objects: prefetch issue is the hottest
        # allocation site in the event loop, and a request's life ends the
        # moment the bus grants it — so granted requests go back to this
        # free list instead of the garbage collector.
        self._request_pool: list = []
        # L2-queue backlog limit: rescans are dropped once the port backlog
        # (in accesses) exceeds the 128-entry L2 queue.
        self._l2_queue_limit = (
            config.bus.l2_queue_size * config.bus.l2_throughput
        )
        self.dropped_rescans = 0
        # Section 3.5 limit study: when enabled, bad prefetches are
        # injected whenever the bus is idle, forcing UL2 evictions.
        self.inject_pollution = False
        self.pollution_fills = 0
        self._pollution_cursor = 0xE000_0000
        # Injection is paced at Table 1's bus occupancy (one line per ~60
        # cycles): the paper injected on idle cycles of *that* bus; the
        # model machine's scaled-up bandwidth must not multiply the
        # injection rate.
        self._pollution_interval = max(
            self.bus.occupancy, BusConfig().line_occupancy(config.line_size)
        )
        self._last_pollution = -10**9
        # Optional observer (see repro.analysis): receives prefetch
        # lifecycle callbacks.  Kept None in normal runs.
        self.observer = None
        # Optional fault injector (see repro.faults): perturbs bus grants,
        # DTLB state, scanned line bytes, MSHR availability, and resident
        # prefetched lines.  None in normal runs.
        self.faults = None
        if faults is not None:
            faults.attach(self)
        # Live invariant checking (see repro.core.invariants): when on,
        # monotonicity violations are recorded here and surfaced by the
        # post-run checker.
        self.integrity_checks = False
        self.integrity_log: list = []

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------

    def _post(self, time: int, kind: int, payload) -> None:
        if self.integrity_checks and time < self.now:
            self.integrity_log.append(
                "event posted in the past: t=%d with now=%d (kind=%d)"
                % (time, self.now, kind)
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._events, (time, seq, kind, payload))

    def _grant_bus(self, time: int) -> int:
        """Grant a bus transfer; returns its fill time, applying any
        injected grant fault."""
        fill = self.bus.grant(time)[1]
        if self.faults is not None:
            fill += self.faults.bus_grant_penalty()
        return fill

    def _advance_batched(self, time: int) -> None:
        """Batched event drain: dispatch same-timestamp runs in one pass.

        Pops the entire run of events sharing the head timestamp before
        dispatching any of them, then processes the run in (seq) order —
        the precomputed grant order for that cycle.  This reproduces the
        reference (one-pop-at-a-time) order exactly: events posted during
        processing always carry a seq greater than every already-pending
        event, so within a timestamp the pending run drains first in both
        schemes, and the outer loop re-checks the heap for runs the batch
        itself scheduled.  Equivalence is property-tested digest-for-digest
        against :meth:`_advance_reference` (tests/test_drain_equivalence).
        """
        events = self._events
        pop = heapq.heappop
        complete_fill = self._complete_fill
        service_bus = self._service_bus
        while events and events[0][0] <= time:
            batch_time = events[0][0]
            batch = [pop(events)]
            while events and events[0][0] == batch_time:
                batch.append(pop(events))
            if batch_time > self.now:
                self.now = batch_time
            for event in batch:
                if event[2] == _EV_FILL:
                    complete_fill(event[3], batch_time)
                else:
                    service_bus(batch_time)
        if time > self.now:
            self.now = time

    def _advance_reference(self, time: int) -> None:
        """The original one-event-per-heap-pass drain, kept as the oracle
        for the batched implementation (and selectable via
        :meth:`set_drain_mode` for divergence hunts)."""
        events = self._events
        while events and events[0][0] <= time:
            ev_time, _, kind, payload = heapq.heappop(events)
            if ev_time > self.now:
                self.now = ev_time
            if kind == _EV_FILL:
                self._complete_fill(payload, ev_time)
            else:
                self._service_bus(ev_time)
        if time > self.now:
            self.now = time

    def set_drain_mode(self, mode: str) -> None:
        """Select the event-drain implementation.

        ``"batched"`` (the default) and ``"reference"`` are
        digest-identical; the mode is an implementation choice, not
        architectural state, so it is deliberately absent from
        :meth:`state_dict` — a snapshot taken under either drain resumes
        under either.
        """
        if mode not in _DRAINS:
            raise ValueError("unknown drain mode: %r" % mode)
        self.drain_mode = mode
        self._drain = _DRAINS[mode]

    def advance_to(self, time: int) -> None:
        """Process all memory-system events up to *time*."""
        self._drain(self, time)

    def drain(self) -> int:
        """Run all outstanding events; returns the final event time."""
        while self._events:
            self._drain(self, self._events[0][0])
        return self.now

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------

    def load(self, vaddr: int, pc: int, time: int) -> int:
        """Execute a demand load at cycle *time*; returns its latency."""
        # Inline the no-pending-events fast path of the drain: most
        # demand accesses find nothing due, and both drain implementations
        # reduce to exactly this clock bump in that case.
        events = self._events
        if events and events[0][0] <= time:
            self._drain(self, time)
        elif time > self.now:
            self.now = time
        if self.inject_pollution:
            self._maybe_inject_pollution(time)
        if self._l1.lookup(vaddr) is not None:
            return self._l1_latency
        return self._miss(vaddr, pc, time, True)

    def store(self, vaddr: int, pc: int, time: int) -> int:
        """Execute a demand store (write-allocate); returns fill latency."""
        events = self._events
        if events and events[0][0] <= time:
            self._drain(self, time)
        elif time > self.now:
            self.now = time
        if self.inject_pollution:
            self._maybe_inject_pollution(time)
        if self._l1.lookup(vaddr) is not None:
            # Stores that hit the L1 dirty the L2 copy too (the model has
            # no separate L1 writeback path).
            paddr = self._dtlb.peek(vaddr)
            if paddr is not None:
                resident = self._l2.peek(paddr & self._line_mask)
                if resident is not None:
                    resident.dirty = True
            return self._l1_latency
        return self._miss(vaddr, pc, time, False)

    def _miss(self, vaddr: int, pc: int, time: int, is_load: bool) -> int:
        """One L1 miss, start to finish; returns the access latency.

        In order: the stride prefetcher observes the miss, the DTLB
        translates it (walking on a miss), the stride candidates issue,
        and one UL2 port slot is reserved.  The line is then a UL2 hit, a
        prefetch-buffer hit, a match of an in-flight fill, or a UL2 miss;
        every case but the buffer hit is handled here.
        """
        result = self.result
        result.demand_l1_misses += 1
        # The stride prefetcher monitors all L1 miss traffic (Figure 6).
        stride_candidates = self.stride.observe(pc, vaddr)
        # Translation: the L2 is physically indexed.
        dtlb = self._dtlb
        if self.faults is not None:
            self.faults.pre_translation(dtlb, vaddr)
        paddr = dtlb.translate(vaddr)
        t_l2 = time
        if paddr is None:
            result.demand_page_walks += 1
            walk_latency, paddr = self._page_walk(vaddr, time, False)
            t_l2 += walk_latency
        if stride_candidates:
            self._issue(stride_candidates, _STRIDE, time)
        result.demand_l2_requests += 1
        line_p = paddr & self._line_mask
        # L2Port.reserve, inline.
        port = self.l2_port
        slot = port.next_free
        if t_l2 > slot:
            slot = t_l2
        port.next_free = slot + port.cycles_per_access
        port.accesses += 1

        line = self._l2.lookup(paddr)
        if line is not None:
            requester = line.requester
            if is_load and requester is not _DEMAND and not line.referenced:
                # A demand access found a prefetched line resident: the
                # prefetch fully masked the would-be miss.
                acct = self._accts[requester]
                acct.full_hits += 1
                if line.kind:
                    acct.record_useful_kind(line.kind)
                if self.observer is not None:
                    self.observer.on_prefetch_hit(line_p, time, full=True)
                if self.adaptive is not None and requester is _CONTENT:
                    self.adaptive.record_outcome(True)
            depth = line.depth
            rescan = self.content.should_rescan(depth, 0)
            # CacheLine.promote(0, DEMAND), inline.
            if depth > 0:
                line.depth = 0
            line.referenced = True
            if not is_load:
                line.dirty = True
            if rescan:
                self._rescan(line.vaddr, vaddr, 0, slot)
            self._l1.fill(vaddr, vaddr & self._line_mask)
            return (slot - time) + self._l1_l2_latency

        if self.prefetch_buffer is not None:
            buffered = self.prefetch_buffer.promote(line_p)
            if buffered is not None:
                return self._demand_buffer_hit(
                    buffered, line_p, vaddr, time, slot, is_load
                )

        status = self.mshr.lookup(line_p)
        if status is not None:
            # The line is already in flight.
            first_match = status.demand_waiters == 0
            status.demand_waiters += 1
            requester = status.requester
            was_prefetch = requester is not _DEMAND
            if was_prefetch and not status.promoted:
                # The in-flight prefetch is promoted to demand priority;
                # the depth reset (which keeps the chain alive when the
                # fill is scanned) is part of the path-reinforcement
                # mechanism of Figure 3 and is gated accordingly.
                status.promoted = True
                if self._reinforcement:
                    status.depth = 0
            fill_time = status.fill_time
            if fill_time == _NOT_GRANTED:
                # Still queued at the bus arbiter: the demand claims the
                # bus itself (top priority); the queued prefetch earned
                # nothing.
                fill = self._grant_bus(slot)
                status.fill_time = fill
                self._post(fill, _EV_FILL, status)
                if is_load and first_match:
                    result.unmasked_l2_misses += 1
                return (fill - time) + self._l1_latency
            # Granted and in flight: wait for the scheduled fill — a
            # partially masked miss if the original request was a
            # prefetch.
            wait = fill_time - slot
            if wait < 0:
                wait = 0
            if is_load and first_match and was_prefetch:
                acct = self._accts[requester]
                acct.partial_hits += 1
                kind = status.extra.get("kind", "")
                if kind:
                    acct.record_useful_kind(kind)
                if self.observer is not None:
                    self.observer.on_prefetch_hit(line_p, slot, full=False)
                if self.adaptive is not None and requester is _CONTENT:
                    self.adaptive.record_outcome(True)
            return (slot - time) + self._l1_latency + wait

        # UL2 miss: the demand claims the bus at once.
        if is_load:
            result.unmasked_l2_misses += 1
        fill = self._grant_bus(slot)
        extra = {"eff_vaddr": vaddr, "fill_l1": True}
        if not is_load:
            extra["dirty"] = True
        status = MissStatus(
            line_p, vaddr & self._line_mask, _DEMAND, 0, slot, fill,
            0, False, extra,
        )
        self.mshr.allocate(status)
        self._post(fill, _EV_FILL, status)
        if self.markov is not None:
            markov_candidates = self.markov.observe_miss(
                vaddr, bool(stride_candidates)
            )
            if markov_candidates:
                self._issue(markov_candidates, _MARKOV, time)
        return (fill - time) + self._l1_latency

    def _demand_buffer_hit(
        self, buffered, line_p: int, vaddr: int, time: int, slot: int,
        is_load: bool,
    ) -> int:
        """Demand hit in the prefetch buffer: move the line into the UL2.

        Costs one extra port slot for the transfer; otherwise L2-hit
        latency — the buffer sits beside the cache.
        """
        transfer_slot = self.l2_port.reserve(slot)
        latency = (transfer_slot - time) + self._l1_l2_latency
        if is_load:
            acct = self._accts[buffered.requester]
            acct.full_hits += 1
            if buffered.kind:
                acct.record_useful_kind(buffered.kind)
            if self.observer is not None:
                self.observer.on_prefetch_hit(
                    line_p, transfer_slot, full=True
                )
        victim = self._l2.fill(
            line_p, buffered.vaddr, buffered.requester, buffered.depth,
            transfer_slot, buffered.kind,
        )
        resident = self._l2.peek(line_p)
        if resident is not None:
            rescan = self.content.should_rescan(resident.depth, 0)
            resident.promote(0, _DEMAND)
            if not is_load:
                resident.dirty = True
            if rescan:
                self._rescan(resident.vaddr, vaddr, 0, transfer_slot)
        if victim is not None and victim.dirty:
            # Write the dirty victim back (bus occupancy only).
            self.bus.grant(transfer_slot)
            self.result.writebacks += 1
        self._l1.fill(vaddr, vaddr & self._line_mask)
        return latency

    def _maybe_inject_pollution(self, time: int) -> None:
        """Inject a bad prefetch on an idle bus (the Section 3.5 study)."""
        if self.bus.busy_at(time):
            return
        if time - self._last_pollution < self._pollution_interval:
            return
        self._last_pollution = time
        line = self._pollution_cursor
        self._pollution_cursor += self.config.line_size
        if self._pollution_cursor >= 0xE000_0000 + (8 << 20):
            self._pollution_cursor = 0xE000_0000
        if line in self.mshr:
            return
        _, fill = self.bus.grant(time)
        status = MissStatus(
            line, line, _CONTENT, self.config.content.depth_threshold,
            time, fill, 0, False, {"pollution": True},
        )
        self.mshr.allocate(status)
        self._post(fill, _EV_FILL, status)
        self.pollution_fills += 1

    # ------------------------------------------------------------------
    # page walking
    # ------------------------------------------------------------------

    def _page_walk(
        self, vaddr: int, time: int, prefetch: bool
    ) -> tuple[int, int]:
        """Walk the page table; returns ``(latency, paddr)``.

        Walk fills go through the L2/bus for timing but bypass the content
        prefetcher's scanner (Section 3.5).
        """
        table = self.hier.page_table
        l2 = self._l2
        paddr = table.translate(vaddr)
        latency = 0
        for walk_addr in table.walk_addresses(vaddr):
            walk_line = walk_addr & self._line_mask
            slot = self.l2_port.reserve(time + latency)
            if l2.peek(walk_line) is not None:
                latency = (slot - time) + self._l2_latency
            elif prefetch:
                # Speculative walks yield to demand traffic: the PT read
                # pays the full memory latency but does not claim a bus
                # slot ahead of demand fills (it drains in arbiter slack).
                latency = (slot - time) + self.bus.latency
                l2.fill(walk_line, walk_line, time=slot + self.bus.latency)
            else:
                fill = self._grant_bus(slot)
                latency = fill - time
                l2.fill(walk_line, walk_line, time=fill)
        self._dtlb.insert(vaddr, paddr, prefetch=prefetch)
        if prefetch:
            self.result.prefetch_page_walks += 1
        return latency, paddr

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------

    def _issue(self, candidates, requester: Requester, time: int) -> None:
        """Issue one prefetcher's candidates, in order, at cycle *time*.

        A candidate is dropped when it cannot be translated, when its
        line is resident (a shallower request reinforces the line), or
        when the line is already in flight; it is squashed when no MSHR
        or arbiter entry is free.  Otherwise it queues at the bus arbiter
        with an in-flight MSHR entry.  A reinforcement rescan issues its
        own candidates before the next one here, as a nested batch.
        """
        acct = self._accts[requester]
        dtlb_peek = self._dtlb.peek
        l2_peek = self._l2.peek
        mshr = self.mshr
        buffer = self.prefetch_buffer
        pool = self._request_pool
        line_mask = self._line_mask
        # Off-chip placement has no DTLB access (Section 3.2).
        drop_untranslated = requester is _CONTENT and self._content_offchip
        for vaddr, depth, kind, trigger in candidates:
            issue_time = time
            paddr = dtlb_peek(vaddr)
            if paddr is None:
                if drop_untranslated:
                    acct.dropped_untranslated += 1
                    continue
                if not self.hier.page_table.is_mapped(vaddr):
                    # The walk would find no valid PTE: a junk candidate
                    # into unmapped space.  Hardware drops the prefetch
                    # (demand accesses fault pages in; speculative ones
                    # cannot).
                    acct.dropped_unmapped += 1
                    continue
                self.result.prefetch_walk_required += 1
                walk_latency, paddr = self._page_walk(vaddr, time, True)
                issue_time += walk_latency
            line_p = paddr & line_mask
            if buffer is not None and line_p in buffer:
                acct.dropped_resident += 1
                continue
            # Already resident: drop, but a lower-depth touch reinforces.
            resident = l2_peek(line_p)
            if resident is not None:
                if self.content.should_rescan(resident.depth, depth):
                    resident.promote(depth, requester)
                    self._rescan(resident.vaddr, vaddr, depth, issue_time)
                acct.dropped_resident += 1
                continue
            # Matching transaction in flight: drop (and, with
            # reinforcement, reset its depth — Figure 3's "prefetch mem
            # transaction found in-flight" case).
            status = mshr.lookup(line_p)
            if status is not None:
                if self._reinforcement and depth < status.depth:
                    status.depth = depth
                acct.dropped_inflight += 1
                continue
            # MSHR exhaustion (a real capacity bound, or an injected
            # burst): the prefetch finds no free entry and is squashed.
            # Demand misses are never refused — see MSHRFile.
            if mshr.full or (
                self.faults is not None
                and self.faults.mshr_exhausted(issue_time)
            ):
                acct.squashed_mshr_full += 1
                continue
            line_v = vaddr & line_mask
            if pool:
                request = pool.pop()
                request.line_paddr = line_p
                request.line_vaddr = line_v
                request.requester = requester
                request.depth = depth
                request.create_time = issue_time
                request.pc = 0
                request.scannable = True
            else:
                request = MemoryRequest(
                    line_p, line_v, requester, depth, issue_time
                )
            if not self.bus_arbiter.enqueue(request):
                pool.append(request)
                acct.squashed_queue_full += 1
                continue
            # The enum's ``.value`` is a Python-level property;
            # ``_value_`` is the same string as a plain attribute.
            kind_name = kind._value_
            acct.issued += 1
            acct.record_issue_kind(kind_name)
            if self.observer is not None:
                self.observer.on_prefetch_issue(
                    line_p, requester, depth, kind_name, issue_time,
                )
            mshr.allocate(MissStatus(
                line_p, line_v, requester, depth, issue_time, _NOT_GRANTED,
                0, False, {"eff_vaddr": trigger or vaddr, "kind": kind_name},
            ))
            self._schedule_bus_service(issue_time)

    def _schedule_bus_service(self, time: int) -> None:
        if self._bus_service_pending:
            return
        self._bus_service_pending = True
        self._post(max(time, self.bus.next_free), _EV_BUS, None)

    def _service_bus(self, time: int) -> None:
        self._bus_service_pending = False
        if self.bus.busy_at(time):
            self._schedule_bus_service(self.bus.next_free)
            return
        pool = self._request_pool
        while True:
            request = self.bus_arbiter.pop()
            if request is None:
                return
            status = self.mshr.lookup(request.line_paddr)
            pool.append(request)
            if status is None or status.fill_time != _NOT_GRANTED:
                # Cancelled, or a demand already claimed this line's fill.
                continue
            break
        fill = self._grant_bus(time)
        status.fill_time = fill
        self._post(fill, _EV_FILL, status)
        if len(self.bus_arbiter):
            self._schedule_bus_service(self.bus.next_free)

    # ------------------------------------------------------------------
    # fills and scans
    # ------------------------------------------------------------------

    def _complete_fill(self, status: MissStatus, time: int) -> None:
        """A fill arrives: install the line, account for it, scan it."""
        line_p = status.line_paddr
        line_v = status.line_vaddr
        requester = status.requester
        depth = status.depth
        promoted = status.promoted
        extra = status.extra
        self.mshr.complete(line_p)
        stored_depth = self.content.clamp_depth(depth)
        kind = extra.get("kind", "")
        if (
            self.prefetch_buffer is not None
            and requester is not _DEMAND
            and not promoted
        ):
            self.prefetch_buffer.fill(
                line_p, line_v, requester, stored_depth, time, kind
            )
            victim = None
        else:
            # Promoted fills insert at demand priority; their scan depth
            # is status.depth, which the reinforcement gating may have
            # reset.
            victim = self._l2.fill(
                line_p, line_v, _DEMAND if promoted else requester,
                stored_depth, time, kind,
            )
        if extra.get("dirty"):
            resident = self._l2.peek(line_p)
            if resident is not None:
                resident.dirty = True
        if victim is not None and victim.dirty:
            # Write the dirty victim back (bus occupancy only).
            self.bus.grant(time)
            self.result.writebacks += 1
        if extra.get("pollution"):
            return
        if requester is not _DEMAND:
            self._accts[requester].completed += 1
            if self.observer is not None:
                self.observer.on_prefetch_fill(line_p, time)
            if self.faults is not None and not promoted:
                # Thrash strikes freshly-filled *prefetched* lines; a
                # promoted fill is demand data and is left alone.
                self.faults.maybe_thrash(self)
        if promoted or extra.get("fill_l1"):
            self._l1.fill(line_v, line_v)
        if not self._content_enabled:
            return
        # A copy of all UL2 fill traffic goes to the content prefetcher,
        # through one port slot (L2Port.reserve, inline).
        effective = extra.get("eff_vaddr", line_v)
        port = self.l2_port
        slot = port.next_free
        if time > slot:
            slot = time
        port.next_free = slot + port.cycles_per_access
        port.accesses += 1
        line_bytes = self._memory.read_line(line_v, self._line_size)
        if self.faults is not None:
            line_bytes = self.faults.maybe_corrupt_line(
                line_bytes, effective, self.config.content
            )
        candidates = self.content.scan_fill(
            line_v, line_bytes, effective, depth
        )
        if candidates:
            self._issue(candidates, _CONTENT, slot)

    def _rescan(
        self, line_vaddr: int, effective_vaddr: int, depth: int, time: int,
    ) -> None:
        """Reinforcement rescan of a resident line (Section 3.4.2)."""
        port = self.l2_port
        if port.next_free - time > self._l2_queue_limit:
            # Rescans can flood the cache read ports; past the L2 queue
            # depth they are dropped rather than queued indefinitely.
            self.dropped_rescans += 1
            return
        self.result.rescans += 1
        if not self._content_enabled:
            return
        slot = port.reserve(time, is_rescan=True)
        line_bytes = self._memory.read_line(line_vaddr, self._line_size)
        if self.faults is not None:
            line_bytes = self.faults.maybe_corrupt_line(
                line_bytes, effective_vaddr, self.config.content
            )
        candidates = self.content.scan_fill(
            line_vaddr, line_bytes, effective_vaddr, depth, True
        )
        if candidates:
            self._issue(candidates, _CONTENT, slot)

    # ------------------------------------------------------------------
    # snapshot hooks
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Event queue, MSHRs, interconnect, and injection state.

        Shared components (hierarchy, prefetchers, fault injector, the
        result) are serialized by their owners — the simulator composes
        the full tree.  The event heap is captured in canonical (sorted)
        order: event keys ``(time, seq)`` are unique, so pop order is a
        pure function of the pending set and a sorted array is itself a
        valid heap (see :func:`repro.snapshot.hooks.canonical_heap`) —
        this is what makes the batched and reference drains, whose heap
        *layouts* differ, produce identical state digests and accept each
        other's snapshots.  Fill-event payloads are MissStatus objects shared
        with the MSHR file; they serialize as line-address references and
        are resolved against the restored MSHRs on load, preserving the
        identity sharing (a demand promotion after resume must mutate the
        same object the pending fill event carries).

        The request free list is deliberately excluded: pooled requests
        have every field overwritten before reuse, so pool contents never
        affect architectural state.
        """
        return {
            "now": self.now,
            "seq": self._seq,
            "bus_service_pending": self._bus_service_pending,
            "events": [
                [time, seq, kind,
                 payload.line_paddr if kind == _EV_FILL else None]
                for time, seq, kind, payload in canonical_heap(self._events)
            ],
            "mshr": self.mshr.state_dict(),
            "bus": self.bus.state_dict(),
            "l2_port": self.l2_port.state_dict(),
            "bus_arbiter": self.bus_arbiter.state_dict(),
            "prefetch_buffer": (
                self.prefetch_buffer.state_dict()
                if self.prefetch_buffer is not None else None
            ),
            "dropped_rescans": self.dropped_rescans,
            "inject_pollution": self.inject_pollution,
            "pollution_fills": self.pollution_fills,
            "pollution_cursor": self._pollution_cursor,
            "last_pollution": self._last_pollution,
            "integrity_log": list(self.integrity_log),
        }

    def load_state_dict(self, state: dict) -> None:
        self.now = state["now"]
        self._seq = state["seq"]
        self._bus_service_pending = state["bus_service_pending"]
        self.mshr.load_state_dict(state["mshr"])
        events = []
        for time, seq, kind, line_paddr in state["events"]:
            if kind == _EV_FILL:
                payload = self.mshr.lookup(line_paddr)
                if payload is None:
                    raise ValueError(
                        "snapshot has a fill event for line 0x%x with no "
                        "matching MSHR entry" % line_paddr
                    )
            else:
                payload = None
            events.append((time, seq, kind, payload))
        self._events = events
        self.bus.load_state_dict(state["bus"])
        self.l2_port.load_state_dict(state["l2_port"])
        self.bus_arbiter.load_state_dict(state["bus_arbiter"])
        buffer_state = state["prefetch_buffer"]
        if (buffer_state is None) != (self.prefetch_buffer is None):
            raise ValueError(
                "snapshot prefetch-buffer presence does not match this "
                "machine's fill_target configuration"
            )
        if self.prefetch_buffer is not None:
            self.prefetch_buffer.load_state_dict(buffer_state)
        self.dropped_rescans = state["dropped_rescans"]
        self.inject_pollution = state["inject_pollution"]
        self.pollution_fills = state["pollution_fills"]
        self._pollution_cursor = state["pollution_cursor"]
        self._last_pollution = state["last_pollution"]
        self.integrity_log = list(state["integrity_log"])

    # ------------------------------------------------------------------
    # end-of-run bookkeeping
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Drain events and fold component stats into the result."""
        self.drain()
        if self.faults is not None:
            self.result.fault_injections = self.faults.stats.as_dict()
        self.result.bus_transfers = self.bus.stats.transfers
        self.result.bus_queue_delay = self.bus.stats.total_queue_delay
        self.result.l2_pollution_evictions = (
            self.hier.l2.stats.polluting_evictions
        )
        for requester, acct in (
            (Requester.STRIDE, self.result.stride),
            (Requester.CONTENT, self.result.content),
            (Requester.MARKOV, self.result.markov),
        ):
            fills = self.hier.l2.stats.prefetch_fills_by.get(requester.name, 0)
            acct.evicted_unused = max(0, fills - acct.useful)


#: Event-drain implementations by mode (see ``set_drain_mode``).
_DRAINS = {
    "batched": TimingMemorySystem._advance_batched,
    "reference": TimingMemorySystem._advance_reference,
}
