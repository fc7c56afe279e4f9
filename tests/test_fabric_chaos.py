"""Fabric chaos: SIGKILL mid-job, digests unchanged.

The fabric analogue of the service chaos suite: a seeded per-cell kill
storm SIGKILLs persistent workers while a batch runs through the
coordinator, and the batch must converge to results digest-identical
to a clean single-process run — respawn, retry, and recomputation never
change answers, because every result is content-addressed.

Scale with ``REPRO_CHAOS_JOBS`` (default 8; CI smoke uses 4).
"""

import asyncio
import dataclasses
import os

import pytest

from repro.faults.infra import InfraChaosConfig
from repro.params import MachineConfig
from repro.service import SimRequest
from repro.service.scheduler import SimulationService
from repro.service.store import ResultStore
from repro.snapshot.digest import state_digest

pytestmark = pytest.mark.integrity

SCALE = 0.02
JOBS = int(os.environ.get("REPRO_CHAOS_JOBS", "8"))


def _requests():
    return [
        SimRequest(
            machine=MachineConfig(), benchmark="b2b", scale=SCALE,
            seed=seed, mode="functional",
        )
        for seed in range(1, JOBS + 1)
    ]


def _result_digest(result) -> str:
    return state_digest(dataclasses.asdict(result))


class TestFabricStorm:
    def test_storm_results_digest_identical_to_clean_run(self, tmp_path):
        requests = _requests()

        async def clean():
            service = SimulationService(str(tmp_path / "clean"))
            results = await asyncio.wait_for(
                service.run_batch(requests), 540
            )
            await service.shutdown()
            return [_result_digest(r) for r in results]

        async def stormy():
            service = SimulationService(
                str(tmp_path / "storm"), max_workers=2,
                worker_mode="fabric", retries=10,
                chaos=InfraChaosConfig(seed=7, fabric_kill_rate=0.4),
                breaker_threshold=None,
            )
            results = await asyncio.wait_for(
                service.run_batch(requests), 540
            )
            status = service.status()
            await service.shutdown()
            return [_result_digest(r) for r in results], status

        clean_digests = asyncio.run(clean())
        storm_digests, status = asyncio.run(stormy())
        assert storm_digests == clean_digests
        assert status.completed == JOBS
        assert status.failed == 0
        # The storm must have actually stormed, or this proves nothing.
        assert status.worker_deaths >= 1
        # Crash-only means crash-clean: every entry the stormy run put
        # is intact, and nothing ended up quarantined.
        store = ResultStore(str(tmp_path / "storm"))
        report = store.scrub()
        assert report.clean
        assert report.ok == report.scanned >= JOBS
