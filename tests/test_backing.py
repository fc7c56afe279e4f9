"""Tests for repro.memory.backing."""

import pytest

from repro.memory.backing import BackingMemory


class TestByteAccess:
    def test_default_fill(self):
        memory = BackingMemory()
        assert memory.read_byte(0x1234) == 0

    def test_custom_fill_byte(self):
        memory = BackingMemory(fill_byte=0xAB)
        assert memory.read_byte(0) == 0xAB

    def test_write_read_roundtrip(self):
        memory = BackingMemory()
        memory.write_byte(0x1000, 0x5A)
        assert memory.read_byte(0x1000) == 0x5A

    def test_write_byte_masks_value(self):
        memory = BackingMemory()
        memory.write_byte(0, 0x1FF)
        assert memory.read_byte(0) == 0xFF

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            BackingMemory(page_size=1000)

    def test_rejects_bad_fill_byte(self):
        with pytest.raises(ValueError):
            BackingMemory(fill_byte=300)


class TestWordAccess:
    def test_little_endian_words(self):
        memory = BackingMemory()
        memory.write_word(0x100, 0x0804_1234)
        assert memory.read_bytes(0x100, 4) == bytes([0x34, 0x12, 0x04, 0x08])
        assert memory.read_word(0x100) == 0x0804_1234

    def test_word_masks_to_32_bits(self):
        memory = BackingMemory()
        memory.write_word(0, 0x1_FFFF_FFFF)
        assert memory.read_word(0) == 0xFFFF_FFFF

    def test_unaligned_word(self):
        memory = BackingMemory()
        memory.write_word(0x101, 0xDEAD_BEEF)
        assert memory.read_word(0x101) == 0xDEAD_BEEF

    def test_word_across_page_boundary(self):
        memory = BackingMemory(page_size=4096)
        memory.write_word(4094, 0xCAFE_F00D)
        assert memory.read_word(4094) == 0xCAFE_F00D


class TestBulkAccess:
    def test_read_bytes_across_pages(self):
        memory = BackingMemory(page_size=4096)
        data = bytes(range(100))
        memory.write_bytes(4050, data)
        assert memory.read_bytes(4050, 100) == data

    def test_read_line(self):
        memory = BackingMemory()
        memory.write_word(0x1000, 0x11111111)
        memory.write_word(0x103C, 0x22222222)
        line = memory.read_line(0x1000, 64)
        assert len(line) == 64
        assert int.from_bytes(line[0:4], "little") == 0x11111111
        assert int.from_bytes(line[60:64], "little") == 0x22222222

    def test_read_line_is_a_copy(self):
        memory = BackingMemory()
        memory.write_word(0x0840_0000, 0xAABBCCDD)
        line = memory.read_line(0x0840_0000, 64)
        memory.write_word(0x0840_0000, 0)
        assert int.from_bytes(line[:4], "little") == 0xAABBCCDD

    def test_read_line_across_pages(self):
        memory = BackingMemory(page_size=4096)
        memory.write_bytes(4064, bytes(range(64)))
        assert memory.read_line(4064, 64) == bytes(range(64))
        assert memory.read_line(4080, 64)[:48] == bytes(range(16, 64))


class TestLaziness:
    def test_pages_materialise_on_touch(self):
        memory = BackingMemory()
        assert memory.touched_pages == 0
        memory.write_byte(0x0840_0000, 1)
        assert memory.touched_pages == 1
        assert memory.is_touched(0x0840_0000)
        assert not memory.is_touched(0x0900_0000)

    def test_touched_page_numbers_sorted(self):
        memory = BackingMemory(page_size=4096)
        memory.write_byte(3 * 4096, 1)
        memory.write_byte(1 * 4096, 1)
        assert memory.touched_page_numbers() == [1, 3]

    def test_reads_do_not_materialise(self):
        # A workload image is shared by every simulator built on it, and
        # each one maps the image's pages up front: a read that inserted
        # a page would change the frames of every later run.
        memory = BackingMemory(fill_byte=0x5A)
        memory.write_byte(0x1000, 1)
        assert memory.read_byte(0x0900_0042) == 0x5A
        assert memory.read_word(0x0900_0040) == 0x5A5A_5A5A
        assert memory.read_bytes(0x0FFE, 4) == bytes([0x5A, 0x5A, 1, 0x5A])
        assert memory.read_line(0x0A00_0000, 64) == bytes([0x5A]) * 64
        assert memory.touched_page_numbers() == [1]

    def test_read_bytes_across_an_absent_page(self):
        memory = BackingMemory(page_size=4096, fill_byte=0xEE)
        memory.write_bytes(4094, b"\x01\x02")
        assert memory.read_bytes(4094, 4) == b"\x01\x02\xee\xee"
        assert memory.touched_pages == 1
