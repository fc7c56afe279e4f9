"""Set-associative cache with true-LRU replacement.

Each set is an ``OrderedDict`` mapping tag to :class:`CacheLine`; moving a
line to the end on access gives O(1) true LRU.  The cache is indexed by
whatever address the caller passes (the L1 is virtually indexed, the UL2
physically indexed — the caller chooses).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cache.line import CacheLine, Requester
from repro.params import CacheConfig
from repro.snapshot.hooks import dataclass_state, load_dataclass_state

__all__ = ["CacheStats", "SetAssociativeCache"]

_DEMAND = Requester.DEMAND
#: Requester names indexed by requester value (the stats keys).
_REQUESTER_NAMES = tuple(requester.name for requester in Requester)


@dataclass(slots=True)
class CacheStats:
    """Counters accumulated by one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    fills: int = 0
    prefetch_fills_by: dict = field(default_factory=dict)
    useful_prefetches_by: dict = field(default_factory=dict)
    polluting_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A single cache level."""

    __slots__ = (
        "config",
        "name",
        "stats",
        "_num_sets",
        "_line_shift",
        "_set_mask",
        "_assoc",
        "_sets",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._line_shift = config.line_size.bit_length() - 1
        # Power-of-two set counts (every real configuration) index with a
        # mask; the modulo fallback only exists for odd test geometries.
        if self._num_sets & (self._num_sets - 1) == 0:
            self._set_mask = self._num_sets - 1
        else:
            self._set_mask = None
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    # -- geometry -----------------------------------------------------------

    def set_index(self, address: int) -> int:
        if self._set_mask is not None:
            return (address >> self._line_shift) & self._set_mask
        return (address >> self._line_shift) % self._num_sets

    def tag_of(self, address: int) -> int:
        return address >> self._line_shift

    # -- access -------------------------------------------------------------

    def lookup(self, address: int, update_lru: bool = True) -> CacheLine | None:
        """Access the cache; returns the line on a hit, ``None`` on a miss.

        Counts towards hit/miss statistics.  Use :meth:`peek` for
        non-architectural probes (e.g. the prefetcher checking whether a
        candidate already resides in the cache).
        """
        stats = self.stats
        stats.accesses += 1
        tag = address >> self._line_shift
        mask = self._set_mask
        cache_set = self._sets[
            tag & mask if mask is not None else tag % self._num_sets
        ]
        line = cache_set.get(tag)
        if line is None:
            stats.misses += 1
            return None
        stats.hits += 1
        if update_lru:
            cache_set.move_to_end(tag)
        return line

    def peek(self, address: int) -> CacheLine | None:
        """Probe without touching LRU state or statistics."""
        tag = address >> self._line_shift
        mask = self._set_mask
        cache_set = self._sets[
            tag & mask if mask is not None else tag % self._num_sets
        ]
        return cache_set.get(tag)

    def fill(
        self,
        address: int,
        vaddr: int | None = None,
        requester: Requester = _DEMAND,
        depth: int = 0,
        time: int = 0,
        kind: str = "",
    ) -> CacheLine | None:
        """Insert the line containing *address*; returns the evicted line.

        If the line is already resident its metadata is promoted instead of
        being refilled (a prefetch that raced a demand fill, for example).
        """
        tag = address >> self._line_shift
        mask = self._set_mask
        cache_set = self._sets[
            tag & mask if mask is not None else tag % self._num_sets
        ]
        existing = cache_set.get(tag)
        if existing is not None:
            # Inline CacheLine.promote (a fill racing a resident line is
            # common on the prefetch path): monotone depth, demand marks.
            if depth < existing.depth:
                existing.depth = depth
            if requester is _DEMAND:
                existing.referenced = True
            cache_set.move_to_end(tag)
            return None
        stats = self.stats
        victim = None
        if len(cache_set) >= self._assoc:
            victim = cache_set.popitem(False)[1]
            stats.evictions += 1
            if victim.requester is not _DEMAND and not victim.referenced:
                stats.polluting_evictions += 1
        cache_set[tag] = CacheLine(
            tag, address if vaddr is None else vaddr, requester, depth,
            time, kind,
        )
        stats.fills += 1
        if requester is not _DEMAND:
            # Keyed by requester name; the enum's ``.name`` is a
            # Python-level property, so index a precomputed tuple.
            name = _REQUESTER_NAMES[requester]
            by = stats.prefetch_fills_by
            by[name] = by.get(name, 0) + 1
        return victim

    def invalidate(self, address: int) -> CacheLine | None:
        """Remove and return the line containing *address*, if resident."""
        cache_set = self._sets[self.set_index(address)]
        return cache_set.pop(self.tag_of(address), None)

    # -- introspection --------------------------------------------------------

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def contents(self) -> list[CacheLine]:
        """All resident lines (test/debug helper)."""
        return [line for s in self._sets for line in s.values()]

    def lru_order(self, address: int) -> list[int]:
        """Tags in the set of *address*, LRU first (test helper)."""
        return list(self._sets[self.set_index(address)])

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        """Full architectural state: every set's lines in LRU order."""
        return {
            "stats": dataclass_state(self.stats),
            "sets": [
                [line.state_dict() for line in cache_set.values()]
                for cache_set in self._sets
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore contents, LRU order, and depth bits exactly."""
        sets = state["sets"]
        if len(sets) != self._num_sets:
            raise ValueError(
                "%s snapshot has %d sets; this cache has %d"
                % (self.name, len(sets), self._num_sets)
            )
        load_dataclass_state(self.stats, state["stats"])
        self._sets = [
            OrderedDict(
                (line_state["tag"], CacheLine.from_state(line_state))
                for line_state in set_state
            )
            for set_state in sets
        ]
