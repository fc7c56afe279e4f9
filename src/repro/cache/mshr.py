"""Miss-status holding registers: in-flight fill tracking.

The paper's arbiters check "to see if a matching memory transaction is
currently in-flight" before enqueueing a prefetch (dropped if so), and a
demand load that encounters an in-flight *prefetch* for the same line
promotes it to demand priority and depth — positive reinforcement plus a
partially-masked miss (Section 3.5).  :class:`MSHRFile` is the structure
both behaviours query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.line import Requester

__all__ = ["MissStatus", "MSHRFile"]


@dataclass(slots=True)
class MissStatus:
    """One in-flight line fill."""

    line_paddr: int
    line_vaddr: int
    requester: Requester
    depth: int
    issue_time: int
    fill_time: int
    # Demand requests that arrived while this fill was in flight; each one
    # is a partially-masked miss if the original request was a prefetch.
    demand_waiters: int = 0
    promoted: bool = False
    extra: dict = field(default_factory=dict)

    def state_dict(self) -> dict:
        """Snapshot hook: one in-flight fill as a plain-value tree."""
        return {
            "line_paddr": self.line_paddr,
            "line_vaddr": self.line_vaddr,
            "requester": int(self.requester),
            "depth": self.depth,
            "issue_time": self.issue_time,
            "fill_time": self.fill_time,
            "demand_waiters": self.demand_waiters,
            "promoted": self.promoted,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MissStatus":
        status = cls(
            state["line_paddr"],
            state["line_vaddr"],
            Requester(state["requester"]),
            state["depth"],
            state["issue_time"],
            state["fill_time"],
            demand_waiters=state["demand_waiters"],
            promoted=state["promoted"],
        )
        status.extra = dict(state["extra"])
        return status


class MSHRFile:
    """Tracks fills in flight between the L2 and memory.

    *capacity* bounds prefetch allocations: callers consult :attr:`full`
    before allocating on behalf of a prefetcher and squash when no entry
    is free.  Demand allocations are never refused (the machine would
    stall the core instead; the timing cost surfaces as queueing delay),
    so ``allocate`` itself does not enforce the bound.
    """

    __slots__ = ("capacity", "_inflight", "peak_occupancy")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self._inflight: dict[int, MissStatus] = {}
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, line_paddr: int) -> bool:
        return line_paddr in self._inflight

    @property
    def full(self) -> bool:
        """No entry free for a new *prefetch* allocation."""
        return (
            self.capacity is not None
            and len(self._inflight) >= self.capacity
        )

    def lookup(self, line_paddr: int) -> MissStatus | None:
        return self._inflight.get(line_paddr)

    def allocate(self, status: MissStatus) -> None:
        """Register an in-flight fill.

        A duplicate ``line_paddr`` raises rather than clobbering the
        existing entry: the arbiters' in-flight check (Section 3.5) must
        have dropped the request before it got here, so a duplicate is a
        simulator bug — silently replacing the entry would orphan the
        original fill event and corrupt the prefetch accounting.
        """
        if status.line_paddr in self._inflight:
            raise ValueError(
                "duplicate in-flight fill for line 0x%x" % status.line_paddr
            )
        self._inflight[status.line_paddr] = status
        if len(self._inflight) > self.peak_occupancy:
            self.peak_occupancy = len(self._inflight)

    def complete(self, line_paddr: int) -> MissStatus:
        """Retire the in-flight entry when its fill arrives."""
        status = self._inflight.pop(line_paddr, None)
        if status is None:
            raise KeyError("no in-flight fill for line 0x%x" % line_paddr)
        return status

    def cancel(self, line_paddr: int) -> MissStatus | None:
        """Drop an in-flight entry (squashed prefetch)."""
        return self._inflight.pop(line_paddr, None)

    def inflight_lines(self) -> list[int]:
        return list(self._inflight)

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        """In-flight fills in allocation order, plus the peak counter."""
        return {
            "inflight": [
                status.state_dict() for status in self._inflight.values()
            ],
            "peak_occupancy": self.peak_occupancy,
        }

    def load_state_dict(self, state: dict) -> None:
        self._inflight = {}
        for status_state in state["inflight"]:
            status = MissStatus.from_state(status_state)
            self._inflight[status.line_paddr] = status
        self.peak_occupancy = state["peak_occupancy"]
