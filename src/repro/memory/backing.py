"""Sparse byte-addressable backing memory.

The content prefetcher works by scanning the actual bytes of filled cache
lines, so the simulator must keep real memory contents.  Pages are
materialised lazily by writes (a 64 MB heap region costs nothing until
written) and stored as ``bytearray`` objects keyed by virtual page number.
Reads never materialise a page: an unwritten address reads as the fill
byte.

Words are little-endian 32-bit, matching the IA-32 target of the paper.
"""

from __future__ import annotations

__all__ = ["BackingMemory"]

_WORD_SIZE = 4


class BackingMemory:
    """Lazily-allocated sparse memory holding real byte contents."""

    def __init__(self, page_size: int = 4096, fill_byte: int = 0) -> None:
        if page_size & (page_size - 1):
            raise ValueError("page_size must be a power of two")
        if not 0 <= fill_byte <= 0xFF:
            raise ValueError("fill_byte must be a byte value")
        self.page_size = page_size
        self._fill_byte = fill_byte
        self._pages: dict[int, bytearray] = {}
        self._page_shift = page_size.bit_length() - 1
        self._offset_mask = page_size - 1

    # -- page bookkeeping -------------------------------------------------

    def _page(self, address: int) -> bytearray:
        """The page holding *address*, materialised if absent (writes only).

        Reads never come through here: a read of an absent page returns
        fill bytes and leaves the image as it was.  The image is shared
        by every simulator built on it, and each one maps the pages it
        holds at construction, so a read that inserted a page would change
        the physical frames — and the results — of the runs after it.
        """
        number = address >> self._page_shift
        page = self._pages.get(number)
        if page is None:
            page = bytearray([self._fill_byte]) * self.page_size
            self._pages[number] = page
        return page

    @property
    def touched_pages(self) -> int:
        """Number of pages materialised so far."""
        return len(self._pages)

    def touched_page_numbers(self) -> list[int]:
        return sorted(self._pages)

    def is_touched(self, address: int) -> bool:
        return (address >> self._page_shift) in self._pages

    # -- byte access ------------------------------------------------------

    def read_byte(self, address: int) -> int:
        page = self._pages.get(address >> self._page_shift)
        if page is None:
            return self._fill_byte
        return page[address & self._offset_mask]

    def write_byte(self, address: int, value: int) -> None:
        self._page(address)[address & self._offset_mask] = value & 0xFF

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read *length* bytes, handling page-boundary crossings."""
        out = bytearray()
        pages = self._pages
        while length > 0:
            offset = address & self._offset_mask
            chunk = min(length, self.page_size - offset)
            page = pages.get(address >> self._page_shift)
            if page is None:
                out += bytes([self._fill_byte]) * chunk
            else:
                out += page[offset:offset + chunk]
            address += chunk
            length -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        view = memoryview(data)
        while view:
            offset = address & self._offset_mask
            chunk = min(len(view), self.page_size - offset)
            self._page(address)[offset:offset + chunk] = view[:chunk]
            address += chunk
            view = view[chunk:]

    # -- word access (little-endian 32-bit) -------------------------------

    def read_word(self, address: int) -> int:
        """Read a 32-bit little-endian word (may be unaligned)."""
        offset = address & self._offset_mask
        if offset <= self.page_size - _WORD_SIZE:
            page = self._pages.get(address >> self._page_shift)
            if page is not None:
                return int.from_bytes(
                    page[offset:offset + _WORD_SIZE], "little"
                )
        return int.from_bytes(self.read_bytes(address, _WORD_SIZE), "little")

    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit little-endian word (may be unaligned)."""
        data = (value & 0xFFFF_FFFF).to_bytes(_WORD_SIZE, "little")
        self.write_bytes(address, data)

    def read_line(
        self, line_address: int, line_size: int = 64
    ) -> bytes | bytearray:
        """Read one cache line of bytes starting at *line_address*.

        This is the scanner's read of every filled line.  A line-aligned
        line never crosses a page, so it is one slice of one page (a
        ``bytearray`` copy); an absent page reads as fill bytes.
        """
        offset = line_address & self._offset_mask
        if offset + line_size > self.page_size:
            return self.read_bytes(line_address, line_size)
        page = self._pages.get(line_address >> self._page_shift)
        if page is None:
            return bytes([self._fill_byte]) * line_size
        return page[offset:offset + line_size]
