"""Sweep-cell pre-warmer: lattice prediction, budget, and accounting.

``neighbours`` is pure and is tested as such (which cells, in which
order, and what falls off the lattice).  The ``Prewarmer`` tests drive
a real thread-mode service and assert the full prefetcher ledger:
predicted / issued / useful / wasted / dropped, plus the two
never-compete rules (issue only into an empty queue, bounded inflight)
and the priority class ordering that queues speculation behind real
work.  A started pre-warm cell runs to completion like any other job.
"""

import asyncio

import pytest

from repro.params import MachineConfig
from repro.service import Priority, SimRequest, SimulationService
from repro.service.prewarm import DEFAULT_SCALES, neighbours
from repro.service.request import parse_priority, request_digest

SCALE = 0.02


def _request(seed=1, **kwargs):
    defaults = dict(
        machine=MachineConfig(), benchmark="b2c", scale=SCALE,
        seed=seed, mode="functional",
    )
    defaults.update(kwargs)
    return SimRequest(**defaults)


class TestNeighbours:
    def test_on_lattice_request_predicts_along_every_axis(self):
        cells = neighbours(_request())
        digests = {request_digest(c) for c in cells}
        assert len(digests) == len(cells)  # all distinct
        assert request_digest(_request()) not in digests
        benchmarks = {c.benchmark for c in cells}
        assert len(benchmarks) > 1  # benchmark axis moved
        scales = {c.scale for c in cells}
        assert SCALE in scales and 0.05 in scales  # next rung up
        seeds = {c.seed for c in cells}
        assert 2 in seeds  # seed line

    def test_machine_axes_come_first(self):
        cells = neighbours(_request())
        # The leading predictions differ only in machine config — the
        # cells a config sweep visits next.
        first = cells[0]
        assert first.benchmark == "b2c"
        assert first.scale == SCALE
        assert first.seed == 1

    def test_off_lattice_scale_contributes_no_scale_neighbours(self):
        cells = neighbours(_request(scale=0.033))
        assert all(c.scale == 0.033 for c in cells)

    def test_scale_ladder_ends_are_one_sided(self):
        top = neighbours(_request(scale=DEFAULT_SCALES[-1]))
        ladder = {c.scale for c in top} & set(DEFAULT_SCALES)
        assert DEFAULT_SCALES[-2] in ladder
        assert len([c for c in top
                    if c.scale != DEFAULT_SCALES[-1]]) == 1

    def test_seed_line_never_predicts_below_one(self):
        cells = neighbours(_request(seed=1))
        assert all(c.seed >= 1 for c in cells)
        assert any(c.seed == 2 for c in cells)


class TestPriorityClass:
    def test_prewarm_sorts_behind_all_real_work(self):
        assert Priority.INTERACTIVE < Priority.SWEEP < Priority.PREWARM

    def test_parse_priority_accepts_prewarm(self):
        assert parse_priority("prewarm") is Priority.PREWARM
        with pytest.raises(ValueError):
            parse_priority("background")


class TestPrewarmer:
    def test_full_ledger_and_cache_handoff(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path), max_workers=2, worker_mode="thread",
            )
            warm = service.enable_prewarm(
                max_inflight=2, max_per_request=4
            )
            seed_request = _request()
            await service.run(seed_request, Priority.SWEEP)
            # Prediction is deferred via call_soon; let the issued
            # speculations finish.
            for _ in range(400):
                await asyncio.sleep(0.01)
                if warm.issued and not warm.stats_dict()["inflight"]:
                    break
            mid = warm.stats_dict()
            # Claim one speculation with a real request: it must be a
            # cache hit, and the ledger must move wasted -> useful.
            claimed = next(
                cell for cell in neighbours(seed_request)
                if request_digest(cell) in warm._unclaimed
            )
            job = service.submit(claimed, Priority.SWEEP)
            await job.future
            source = job.source
            final = warm.stats_dict()
            status = service.status()
            await service.shutdown()
            return mid, final, source, status

        mid, final, source, status = asyncio.run(scenario())
        assert mid["predicted"] >= mid["issued"] > 0
        assert mid["dropped"] == mid["predicted"] - mid["issued"]
        assert source == "cache"
        assert final["useful"] == 1
        assert final["wasted"] == mid["wasted"] - 1
        assert status.prewarm == final

    def test_speculation_never_issues_into_a_backlog(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path), max_workers=1, worker_mode="thread",
            )
            warm = service.enable_prewarm(max_inflight=8)
            # Saturate the single worker so the queue is never empty
            # when predictions fire.
            jobs = [
                service.submit(_request(seed=seed), Priority.SWEEP)
                for seed in range(1, 6)
            ]
            await asyncio.gather(
                *(job.future for job in jobs), return_exceptions=True
            )
            stats = warm.stats_dict()
            await service.shutdown()
            return stats

        stats = asyncio.run(scenario())
        # Everything predicted while the queue was backed up must have
        # been dropped, not queued behind real work.
        assert stats["predicted"] > 0
        assert stats["issued"] == 0
        assert stats["dropped"] == stats["predicted"]

    def test_prewarm_line_renders_in_status(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path), max_workers=1)
            service.enable_prewarm()
            text = service.status().render()
            await service.shutdown()
            return text

        text = asyncio.run(scenario())
        assert "prewarm:" in text
