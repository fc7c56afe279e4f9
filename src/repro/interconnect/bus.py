"""Front-side bus / DRAM timing and the L2 access port.

Table 1 gives a 460-processor-cycle bus latency (8 bus cycles through the
chipset plus 55 ns of DRAM) and 4.26 GB/s of bandwidth.  We model the bus as
a single serially-occupied resource: a granted line transfer holds the bus
for ``line_size / bytes_per_cycle`` cycles (~60 cycles for a 64-byte line at
4 GHz), and its fill data arrives ``bus_latency`` cycles after the grant.
Queueing delay emerges naturally when transfers are requested faster than
the occupancy allows — this is the mechanism that makes over-aggressive
prefetching hurt.

The L2 port models Table 1's "L2 throughput: 1 cycle": every L2 lookup,
fill, prefetcher scan or reinforcement *rescan* consumes a port slot, which
is how the paper's observation that long-chain rescans "can flood the bus
arbiters and cache read ports" manifests in the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import BusConfig
from repro.snapshot.hooks import dataclass_state, load_dataclass_state

__all__ = ["BusStats", "Bus", "L2Port"]


@dataclass(slots=True)
class BusStats:
    transfers: int = 0
    busy_cycles: int = 0
    total_queue_delay: int = 0

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)


class Bus:
    """Serially-occupied front-side bus with fixed fill latency."""

    __slots__ = ("config", "occupancy", "latency", "stats", "_next_free")

    def __init__(self, config: BusConfig, line_size: int = 64) -> None:
        self.config = config
        self.occupancy = config.line_occupancy(line_size)
        self.latency = config.bus_latency
        self.stats = BusStats()
        self._next_free = 0

    @property
    def next_free(self) -> int:
        return self._next_free

    def busy_at(self, time: int) -> bool:
        return time < self._next_free

    def grant(self, time: int) -> tuple[int, int]:
        """Grant a line transfer requested at *time*.

        Returns ``(grant_time, fill_time)``: when the transfer actually
        started and when its data arrives at the L2.
        """
        occupancy = self.occupancy
        grant_time = max(time, self._next_free)
        self._next_free = grant_time + occupancy
        fill_time = grant_time + self.latency
        stats = self.stats
        stats.transfers += 1
        stats.busy_cycles += occupancy
        stats.total_queue_delay += grant_time - time
        return grant_time, fill_time

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "next_free": self._next_free,
            "stats": dataclass_state(self.stats),
        }

    def load_state_dict(self, state: dict) -> None:
        self._next_free = state["next_free"]
        load_dataclass_state(self.stats, state["stats"])


class L2Port:
    """The UL2's single access port (1-cycle throughput).

    ``next_free`` is a plain attribute: the timing memory system's miss
    path reserves its slot inline (the body of :meth:`reserve`) rather
    than through a call per L1 miss.
    """

    __slots__ = ("cycles_per_access", "next_free", "accesses", "rescans")

    def __init__(self, cycles_per_access: int = 1) -> None:
        self.cycles_per_access = cycles_per_access
        self.next_free = 0
        self.accesses = 0
        self.rescans = 0

    def reserve(self, time: int, is_rescan: bool = False) -> int:
        """Claim one access slot at or after *time*; returns the slot time."""
        slot = max(time, self.next_free)
        self.next_free = slot + self.cycles_per_access
        self.accesses += 1
        if is_rescan:
            self.rescans += 1
        return slot

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "next_free": self.next_free,
            "accesses": self.accesses,
            "rescans": self.rescans,
        }

    def load_state_dict(self, state: dict) -> None:
        self.next_free = state["next_free"]
        self.accesses = state["accesses"]
        self.rescans = state["rescans"]
