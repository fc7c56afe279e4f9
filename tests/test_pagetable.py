"""Tests for repro.memory.pagetable."""

import pytest

from repro.memory.pagetable import PageTable, TranslationError


class TestTranslation:
    def test_first_touch_maps(self):
        table = PageTable()
        paddr = table.translate(0x0840_1234)
        assert paddr & 0xFFF == 0x234
        assert table.pages_mapped == 1

    def test_same_page_same_frame(self):
        table = PageTable()
        a = table.translate(0x0840_1000)
        b = table.translate(0x0840_1FFF)
        assert a >> 12 == b >> 12

    def test_distinct_pages_get_distinct_frames(self):
        table = PageTable()
        frames = {
            table.translate(0x0840_0000 + i * 4096) >> 12 for i in range(50)
        }
        assert len(frames) == 50

    def test_translate_existing_raises_when_unmapped(self):
        table = PageTable()
        with pytest.raises(TranslationError):
            table.translate_existing(0x0840_0000)

    def test_translate_existing_after_mapping(self):
        table = PageTable()
        mapped = table.translate(0x0840_0040)
        assert table.translate_existing(0x0840_0040) == mapped

    def test_is_mapped(self):
        table = PageTable()
        assert not table.is_mapped(0x0840_0000)
        table.translate(0x0840_0000)
        assert table.is_mapped(0x0840_0000)
        assert table.is_mapped(0x0840_0FFF)
        assert not table.is_mapped(0x0840_1000)

    def test_deterministic_frame_assignment(self):
        a = PageTable()
        b = PageTable()
        addresses = [0x0840_0000, 0x0900_0000, 0x0010_2000]
        assert [a.translate(x) for x in addresses] == [
            b.translate(x) for x in addresses
        ]


class TestWalkTraffic:
    def test_walk_returns_directory_and_table_entries(self):
        table = PageTable()
        table.translate(0x0840_0000)
        walk = table.walk_addresses(0x0840_0000)
        assert len(walk) == 2
        pde, pte = walk
        assert pde != pte

    def test_same_directory_shares_pde(self):
        table = PageTable()
        table.translate(0x0840_0000)
        table.translate(0x0840_5000)
        pde_a = table.walk_addresses(0x0840_0000)[0]
        pde_b = table.walk_addresses(0x0840_5000)[0]
        assert pde_a == pde_b

    def test_distant_regions_use_distinct_page_tables(self):
        table = PageTable()
        table.translate(0x0840_0000)
        table.translate(0xBFF0_0000)
        pte_a = table.walk_addresses(0x0840_0000)[1]
        pte_b = table.walk_addresses(0xBFF0_0000)[1]
        # Different directory entries -> different page-table pages.
        assert abs(pte_a - pte_b) >= 4096

    def test_walk_of_unmapped_directory_reads_pde_only(self):
        table = PageTable()
        assert len(table.walk_addresses(0x7000_0000)) == 1

    def test_table_area_distinct_from_frames(self):
        table = PageTable()
        paddr = table.translate(0x0840_0000)
        for walk_addr in table.walk_addresses(0x0840_0000):
            assert walk_addr < 0x0100_0000 <= paddr

    def test_walk_lines_land_in_the_table_area(self):
        # The timing simulator fills each walk read's line into the UL2:
        # those lines must lie in the table area, below every data frame.
        table = PageTable(table_base=0x1000, frame_base=0x0100_0000)
        for vaddr in (0x0840_0000, 0x0900_0000, 0xBFF0_1234):
            table.translate(vaddr)
            for walk_addr in table.walk_addresses(vaddr):
                line = walk_addr & ~63
                assert line % 64 == 0
                assert 0x1000 <= line < 0x0100_0000
