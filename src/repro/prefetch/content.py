"""The content-directed data prefetcher.

This class is deliberately *policy only*: it decides what to prefetch (by
scanning fill contents), when a chain terminates (depth threshold), when a
cache hit should reinforce a chain (rescan margin), and how wide to fetch
(previous/next lines).  Mechanism — translation, arbitration, cache fills,
timing — belongs to the simulators, mirroring the paper's split between the
predictor (Figure 5) and the memory-system microarchitecture (Figure 6).

Statelessness is the headline property: between fills the prefetcher keeps
*no* prediction state at all (``MatcherStats`` counters are observability
only).  The only persistent state the scheme needs is the ~2 depth bits per
L2 line, stored in the cache itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.memory.address import address_mask, line_mask
from repro.params import ContentConfig
from repro.prefetch.base import PrefetchCandidate, PrefetchKind, make_candidate
from repro.prefetch.matcher import VirtualAddressMatcher
from repro.snapshot.hooks import dataclass_state, load_dataclass_state

__all__ = ["ContentStats", "ContentPrefetcher"]

# Hot-loop aliases: enum member lookups are class-dict accesses.
_KIND_CHAIN = PrefetchKind.CHAIN
_KIND_PREV = PrefetchKind.PREV_LINE
_KIND_NEXT = PrefetchKind.NEXT_LINE


@dataclass(slots=True)
class ContentStats:
    lines_scanned: int = 0
    rescans: int = 0
    chain_candidates: int = 0
    width_candidates: int = 0
    chains_terminated_by_depth: int = 0


class ContentPrefetcher:
    """Scans fill contents and emits prefetch candidates."""

    __slots__ = (
        "_config",
        "matcher",
        "stats",
        "_line_size",
        "_addr_mask",
        "_line_mask",
        "_enabled",
        "_depth_threshold",
        "_rescan_on",
        "_rescan_margin",
        "_prev_lines",
        "_next_lines",
        "_max_depth",
    )

    def __init__(self, config: ContentConfig, line_size: int = 64) -> None:
        self.config = config
        self.matcher = VirtualAddressMatcher(config)
        self.stats = ContentStats()
        self._line_size = line_size
        self._addr_mask = address_mask(config.address_bits)
        self._line_mask = line_mask(line_size, config.address_bits)

    @property
    def config(self) -> ContentConfig:
        return self._config

    @config.setter
    def config(self, config: ContentConfig) -> None:
        # The policy knobs consulted on every scan/hit are cached as flat
        # attributes; routing assignment through this setter keeps them
        # coherent when the adaptive controller swaps the config object
        # mid-run (it retunes filter_bits, preserving these fields).
        self._config = config
        self._enabled = config.enabled
        self._depth_threshold = config.depth_threshold
        self._rescan_on = config.reinforcement and config.enabled
        self._rescan_margin = config.rescan_margin
        self._prev_lines = config.prev_lines
        self._next_lines = config.next_lines
        # The deepest depth the per-line bits can encode.
        self._max_depth = (1 << self.depth_bits) - 1

    # -- depth bookkeeping ----------------------------------------------------

    @property
    def depth_bits(self) -> int:
        """Bits of per-line storage needed to encode the depth threshold."""
        return max(1, self.config.depth_threshold.bit_length())

    @property
    def space_overhead(self) -> float:
        """Fraction of L2 space consumed by the depth bits (paper: <0.5%)."""
        return self.depth_bits / (8.0 * self._line_size)

    def clamp_depth(self, depth: int) -> int:
        """Depths saturate at what the per-line bits can encode."""
        return depth if depth < self._max_depth else self._max_depth

    # -- scanning ---------------------------------------------------------------

    def scan_fill(
        self,
        line_vaddr: int,
        line_bytes: bytes,
        effective_vaddr: int,
        depth: int,
        is_rescan: bool = False,
    ) -> list[PrefetchCandidate]:
        """Scan one filled (or reinforced) cache line.

        Parameters
        ----------
        line_vaddr:
            Virtual base address of the scanned line.
        line_bytes:
            The line's data, as delivered by the fill.
        effective_vaddr:
            Effective address of the request that triggered the fill — the
            reference point for the compare bits.
        depth:
            Request depth of the fill being scanned (demand = 0).  The
            candidates produced get ``depth + 1``; if that exceeds the
            depth threshold the chain is terminated and nothing is
            returned ("Line D is not scanned", Figure 3).

        Returns the candidate list in line-scan order; chain candidates are
        followed by their width (previous/next line) companions.  Each
        line is emitted at most once per scan, and never the scanned line
        itself.
        """
        if not self._enabled:
            return []
        stats = self.stats
        next_depth = depth + 1
        if next_depth > self._depth_threshold:
            stats.chains_terminated_by_depth += 1
            return []
        stats.lines_scanned += 1
        if is_rescan:
            stats.rescans += 1
        pointers = self.matcher.scan(line_bytes, effective_vaddr)
        if not pointers:
            return []
        line_mask = self._line_mask
        addr_mask = self._addr_mask
        line_size = self._line_size
        prev_lines = self._prev_lines
        next_range = range(1, self._next_lines + 1)
        emitted = {line_vaddr & line_mask}
        add = emitted.add
        candidates: list[PrefetchCandidate] = []
        append = candidates.append
        new = make_candidate
        chains = widths = 0
        for pointer in pointers:
            line = pointer & line_mask
            if line not in emitted:
                add(line)
                append(new((pointer, next_depth, _KIND_CHAIN, pointer)))
                chains += 1
            if prev_lines:
                for k in range(1, prev_lines + 1):
                    width = (line - k * line_size) & addr_mask
                    if width not in emitted:
                        add(width)
                        append(new((width, next_depth, _KIND_PREV, pointer)))
                        widths += 1
            for k in next_range:
                width = (line + k * line_size) & addr_mask
                if width not in emitted:
                    add(width)
                    append(new((width, next_depth, _KIND_NEXT, pointer)))
                    widths += 1
        stats.chain_candidates += chains
        stats.width_candidates += widths
        return candidates

    # -- reinforcement policy ------------------------------------------------------

    def should_rescan(self, stored_depth: int, incoming_depth: int) -> bool:
        """Does a hit at *incoming_depth* reinforce a line at *stored_depth*?

        Figure 4(b): rescan whenever the incoming request's depth is lower
        than the stored depth (margin 1).  Figure 4(c): "re-establishing a
        chain only when the incoming depth is at least two fewer than the
        stored depth" (margin 2) halves the rescan count.
        """
        return (
            self._rescan_on
            and incoming_depth <= stored_depth - self._rescan_margin
        )

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        """Counters plus the live filter width.

        The predictor itself is stateless (the paper's headline property),
        but the :class:`~repro.prefetch.adaptive.AdaptiveController` may
        have retuned ``filter_bits`` mid-run — the current value must
        survive a resume or the matcher diverges.
        """
        return {
            "stats": dataclass_state(self.stats),
            "matcher_stats": dataclass_state(self.matcher.stats),
            "filter_bits": self.config.filter_bits,
        }

    def load_state_dict(self, state: dict) -> None:
        if state["filter_bits"] != self.config.filter_bits:
            self.config = dataclasses.replace(
                self.config, filter_bits=state["filter_bits"]
            )
            self.matcher = VirtualAddressMatcher(self.config)
        load_dataclass_state(self.stats, state["stats"])
        load_dataclass_state(self.matcher.stats, state["matcher_stats"])
