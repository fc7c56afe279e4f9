"""Shared prefetcher types."""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from repro.memory.address import ADDRESS_BITS, line_mask

__all__ = ["PrefetchKind", "PrefetchCandidate", "make_candidate"]


class PrefetchKind(enum.Enum):
    """Why a prefetch candidate was generated."""

    #: The candidate address itself (a pointer found in a scanned line).
    CHAIN = "chain"
    #: A "wider" next-line prefetch following a candidate (Section 3.4.3).
    NEXT_LINE = "next"
    #: A previous-line prefetch (evaluated and rejected by Figure 9).
    PREV_LINE = "prev"
    #: A stride-predicted address.
    STRIDE = "stride"
    #: A Markov STAB successor.
    MARKOV = "markov"


class PrefetchCandidate(NamedTuple):
    """One address a prefetcher wants brought into the cache.

    A ``NamedTuple`` rather than a (frozen) dataclass: candidates are
    allocated once per matched pointer on every scanned fill, and tuple
    construction skips both the instance ``__dict__`` and the
    ``object.__setattr__`` calls frozen dataclasses pay per field.
    """

    vaddr: int
    depth: int
    kind: PrefetchKind
    # The effective address whose fill/scan produced this candidate; used
    # for chained scans (the new trigger) and for debugging.
    trigger_vaddr: int = 0

    def line(
        self, line_size: int = 64, address_bits: int = ADDRESS_BITS
    ) -> int:
        return self.vaddr & line_mask(line_size, address_bits)


#: Builds a candidate from a ``(vaddr, depth, kind, trigger_vaddr)``
#: tuple in C, skipping the NamedTuple's Python-level ``__new__``:
#: prefetchers build one per emitted line on their hot paths.
make_candidate = functools.partial(tuple.__new__, PrefetchCandidate)
