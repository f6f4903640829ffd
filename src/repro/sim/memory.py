"""Sparse, paged byte-addressable memory.

Backing store is a dictionary of 4 KiB ``bytearray`` pages allocated on
first touch, so a program can scatter data across a 64-bit address space
without cost.  Accesses are little-endian, matching RISC-V.  The page map
is also the unit of checkpointing: :meth:`Memory.snapshot_pages` captures
exactly the touched pages.
"""

from __future__ import annotations

import struct

from repro.errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: pages below this number (32 MiB of address space — text, data, stack
#: and heap base all live here) also get a slot in a flat array, so the
#: scalar fast path is a list index instead of a dict probe
_DIRECT_PAGES = 1 << 13

#: the little-endian layouts of a scalar access, by width in bytes:
#: unsigned (loads and stores), signed (sign-extending loads) and IEEE
#: binary64.  The executor's compiled loads and stores use these too.
UNSIGNED = {width: struct.Struct(code)
            for width, code in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"))}
SIGNED = {width: struct.Struct(code)
          for width, code in ((1, "<b"), (2, "<h"), (4, "<i"))}
F64 = struct.Struct("<d")

_UNPACK = {width: layout.unpack_from for width, layout in UNSIGNED.items()}
_PACK = {width: layout.pack_into for width, layout in UNSIGNED.items()}


class Memory:
    """Sparse paged memory with little-endian scalar accessors.

    The dict of pages remains the single source of truth (snapshots,
    clones and page counts all walk it); ``direct`` is a read-through
    acceleration structure for the low address range the executor's
    loads and stores almost always hit.  It holds the same ``bytearray``
    objects as the dict (``None`` for an untouched page), so a direct
    write is a write to the page; the executor's compiled superblocks
    index it themselves and call :meth:`load`/:meth:`store` only for an
    untouched page, a page-crossing access or an address past its end.
    """

    __slots__ = ("_pages", "direct")

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self.direct: list[bytearray | None] = [None] * _DIRECT_PAGES

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------

    def write_bytes(self, address: int, data: bytes) -> None:
        """Copy ``data`` into memory starting at ``address``."""
        if address < 0:
            raise MemoryFault(address, "negative address")
        offset = 0
        remaining = len(data)
        while remaining:
            page = self._page(address + offset)
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - page_offset)
            page[page_offset:page_offset + chunk] = data[offset:offset + chunk]
            offset += chunk
            remaining -= chunk

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        if address < 0:
            raise MemoryFault(address, "negative address")
        out = bytearray()
        offset = 0
        while offset < length:
            page = self._page(address + offset)
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            out += page[page_offset:page_offset + chunk]
            offset += chunk
        return bytes(out)

    # ------------------------------------------------------------------
    # scalar accessors (the executor's hot path)
    # ------------------------------------------------------------------

    def load(self, address: int, width: int) -> int:
        """Load ``width`` (1, 2, 4 or 8) bytes at ``address``, unsigned."""
        page_offset = address & PAGE_MASK
        if page_offset + width <= PAGE_SIZE:
            return _UNPACK[width](self._scalar_page(address),
                                  page_offset)[0]
        return int.from_bytes(self.read_bytes(address, width), "little")

    def store(self, address: int, value: int, width: int) -> None:
        """Store the low ``width`` (1, 2, 4 or 8) bytes of ``value``."""
        value &= (1 << (8 * width)) - 1
        page_offset = address & PAGE_MASK
        if page_offset + width <= PAGE_SIZE:
            _PACK[width](self._scalar_page(address), page_offset, value)
        else:
            self.write_bytes(address, value.to_bytes(width, "little"))

    def load_f64(self, address: int) -> float:
        """Load the IEEE binary64 value at ``address``, bit for bit."""
        page_offset = address & PAGE_MASK
        if page_offset + 8 <= PAGE_SIZE:
            return F64.unpack_from(self._scalar_page(address),
                                    page_offset)[0]
        return F64.unpack(self.read_bytes(address, 8))[0]

    def store_f64(self, address: int, value: float) -> None:
        """Store ``value`` as IEEE binary64 at ``address``, bit for bit."""
        page_offset = address & PAGE_MASK
        if page_offset + 8 <= PAGE_SIZE:
            F64.pack_into(self._scalar_page(address), page_offset, value)
        else:
            self.write_bytes(address, F64.pack(value))

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------

    def snapshot_pages(self) -> dict[int, bytes]:
        """Return an immutable copy of every touched page (by page number)."""
        return {number: bytes(page) for number, page in self._pages.items()}

    def restore_pages(self, pages: dict[int, bytes]) -> None:
        """Replace memory contents with a page snapshot."""
        self._pages = {number: bytearray(page)
                       for number, page in pages.items()}
        self._rebuild_direct()

    def touched_page_count(self) -> int:
        """Number of pages that have been allocated."""
        return len(self._pages)

    def clone(self) -> "Memory":
        """Return an independent deep copy of this memory."""
        copy = Memory()
        copy._pages = {number: bytearray(page)
                       for number, page in self._pages.items()}
        copy._rebuild_direct()
        return copy

    # ------------------------------------------------------------------

    def _rebuild_direct(self) -> None:
        direct: list[bytearray | None] = [None] * _DIRECT_PAGES
        for number, page in self._pages.items():
            if 0 <= number < _DIRECT_PAGES:
                direct[number] = page
        self.direct = direct

    def _scalar_page(self, address: int) -> bytearray:
        """The page holding ``address``, allocated on first touch."""
        number = address >> PAGE_SHIFT
        if 0 <= number < _DIRECT_PAGES:
            page = self.direct[number]
        else:
            page = self._pages.get(number)
        return page if page is not None else self._page(address)

    def _page(self, address: int) -> bytearray:
        if address < 0:
            raise MemoryFault(address, "negative address")
        number = address >> PAGE_SHIFT
        page = self._pages.get(number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[number] = page
            if number < _DIRECT_PAGES:
                self.direct[number] = page
        return page
