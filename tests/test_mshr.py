"""Tests for repro.cache.mshr."""

import pytest

from repro.cache.line import Requester
from repro.cache.mshr import MissStatus, MSHRFile


def make_status(line=0x1000, requester=Requester.CONTENT, depth=2):
    return MissStatus(
        line_paddr=line, line_vaddr=line, requester=requester,
        depth=depth, issue_time=0, fill_time=100,
    )


class TestMSHRFile:
    def test_allocate_and_lookup(self):
        mshr = MSHRFile()
        status = make_status()
        mshr.allocate(status)
        assert mshr.lookup(0x1000) is status
        assert 0x1000 in mshr
        assert len(mshr) == 1

    def test_duplicate_allocation_rejected(self):
        mshr = MSHRFile()
        mshr.allocate(make_status())
        with pytest.raises(ValueError, match="duplicate"):
            mshr.allocate(make_status())

    def test_duplicate_does_not_clobber_original(self):
        """Regression: a rejected duplicate must leave the in-flight
        entry (and its pending fill event) untouched."""
        mshr = MSHRFile()
        original = make_status(requester=Requester.DEMAND, depth=0)
        original.demand_waiters = 2
        mshr.allocate(original)
        with pytest.raises(ValueError):
            mshr.allocate(make_status(requester=Requester.CONTENT, depth=3))
        survivor = mshr.lookup(0x1000)
        assert survivor is original
        assert survivor.requester is Requester.DEMAND
        assert survivor.demand_waiters == 2
        assert len(mshr) == 1

    def test_capacity_bounds_prefetch_allocations(self):
        mshr = MSHRFile(capacity=2)
        assert not mshr.full
        mshr.allocate(make_status(line=0x1000))
        mshr.allocate(make_status(line=0x2000))
        assert mshr.full
        mshr.complete(0x1000)
        assert not mshr.full

    def test_unbounded_by_default(self):
        mshr = MSHRFile()
        for i in range(1000):
            mshr.allocate(make_status(line=0x1000 + i * 64))
        assert not mshr.full

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile(capacity=0)

    def test_complete_removes(self):
        mshr = MSHRFile()
        mshr.allocate(make_status())
        status = mshr.complete(0x1000)
        assert status.line_paddr == 0x1000
        assert 0x1000 not in mshr

    def test_complete_missing_raises(self):
        with pytest.raises(KeyError):
            MSHRFile().complete(0x4000)

    def test_cancel_is_idempotent(self):
        mshr = MSHRFile()
        mshr.allocate(make_status())
        assert mshr.cancel(0x1000) is not None
        assert mshr.cancel(0x1000) is None

    def test_peak_occupancy(self):
        mshr = MSHRFile()
        for i in range(5):
            mshr.allocate(make_status(line=0x1000 + i * 64))
        mshr.complete(0x1000)
        assert mshr.peak_occupancy == 5

    def test_inflight_lines(self):
        mshr = MSHRFile()
        mshr.allocate(make_status(line=0x1000))
        mshr.allocate(make_status(line=0x2000))
        assert sorted(mshr.inflight_lines()) == [0x1000, 0x2000]
