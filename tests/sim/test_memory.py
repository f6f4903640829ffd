"""Unit and property tests for sparse paged memory."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryFault
from repro.sim.memory import Memory, PAGE_SIZE


def test_uninitialized_memory_reads_zero():
    memory = Memory()
    assert memory.load(0x1234, 8) == 0
    assert memory.read_bytes(0x999999, 16) == bytes(16)


def test_scalar_roundtrip_all_widths():
    memory = Memory()
    for width in (1, 2, 4, 8):
        value = (0x1122334455667788 >> (8 * (8 - width)))
        memory.store(0x2000, value, width)
        assert memory.load(0x2000, width) == value & ((1 << (8 * width)) - 1)


def test_little_endian_layout():
    memory = Memory()
    memory.store(0x100, 0x0A0B0C0D, 4)
    assert memory.load(0x100, 1) == 0x0D
    assert memory.load(0x103, 1) == 0x0A


def test_cross_page_access():
    memory = Memory()
    address = PAGE_SIZE - 3
    memory.store(address, 0x1122334455667788, 8)
    assert memory.load(address, 8) == 0x1122334455667788
    assert memory.load(PAGE_SIZE, 1) == 0x55


def test_bulk_write_read_across_pages():
    memory = Memory()
    data = bytes(range(256)) * 40  # > 2 pages
    memory.write_bytes(PAGE_SIZE - 100, data)
    assert memory.read_bytes(PAGE_SIZE - 100, len(data)) == data


def test_store_masks_value():
    memory = Memory()
    memory.store(0, 0x1FF, 1)
    assert memory.load(0, 1) == 0xFF


def test_negative_address_faults():
    memory = Memory()
    with pytest.raises(MemoryFault):
        memory.write_bytes(-4, b"abcd")
    with pytest.raises(MemoryFault):
        memory.read_bytes(-4, 4)


def test_snapshot_restore_roundtrip():
    memory = Memory()
    memory.store(0x5000, 0xAB, 1)
    memory.store(3 * PAGE_SIZE + 7, 0xCDEF, 2)
    snapshot = memory.snapshot_pages()
    memory.store(0x5000, 0x00, 1)
    memory.restore_pages(snapshot)
    assert memory.load(0x5000, 1) == 0xAB
    assert memory.load(3 * PAGE_SIZE + 7, 2) == 0xCDEF


def test_snapshot_is_immutable_copy():
    memory = Memory()
    memory.store(0, 1, 1)
    snapshot = memory.snapshot_pages()
    memory.store(0, 2, 1)
    restored = Memory()
    restored.restore_pages(snapshot)
    assert restored.load(0, 1) == 1


def test_touched_page_count():
    memory = Memory()
    assert memory.snapshot_pages() == {}
    memory.store(0, 1, 1)
    memory.store(PAGE_SIZE * 5, 1, 1)
    assert sorted(memory.snapshot_pages()) == [0, 5]


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 20),
                          st.integers(min_value=0, max_value=(1 << 64) - 1),
                          st.sampled_from([1, 2, 4, 8])),
                max_size=40))
def test_store_load_property(operations):
    """The last store to an address window wins; reads observe it exactly."""
    memory = Memory()
    shadow = {}
    for address, value, width in operations:
        memory.store(address, value, width)
        for offset in range(width):
            shadow[address + offset] = (value >> (8 * offset)) & 0xFF
    for address, expected in shadow.items():
        assert memory.load(address, 1) == expected


@given(st.integers(min_value=0, max_value=1 << 30),
       st.binary(min_size=0, max_size=3 * PAGE_SIZE))
def test_bulk_roundtrip_property(address, data):
    memory = Memory()
    memory.write_bytes(address, data)
    assert memory.read_bytes(address, len(data)) == data
