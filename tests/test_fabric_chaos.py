"""Fabric chaos: SIGKILL mid-job and mid-rebalance, digests unchanged.

The fabric analogue of the service chaos suite: a seeded per-cell kill
storm SIGKILLs persistent workers while a batch runs through the
coordinator, and the batch must converge to results digest-identical
to a clean single-process run — respawn, retry, and recomputation never
change answers, because every result is content-addressed.  The second
half kills a shard rebalance mid-flight: copy-then-delete means the
interrupted move left either nothing or a complete copy at the
destination, so a rerun finishes the job with zero unreadable entries
and a clean scrub.

Scale with ``REPRO_CHAOS_JOBS`` (default 8; CI smoke uses 4).
"""

import asyncio
import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from repro.faults.infra import InfraChaosConfig
from repro.params import MachineConfig
from repro.service import ShardedResultStore, SimRequest
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


def _fill(store, count):
    digests = []
    for index in range(count):
        digest = state_digest({"rebalance-entry": index})
        store.put(
            digest,
            {"value": index, "bulk": list(range(400))},
            fingerprint={"rebalance-entry": index},
        )
        digests.append(digest)
    return digests


#: The rebalancing child pauses for its SIGKILL after this many copies.
_COPIES_BEFORE_KILL = 10


def _rebalance_child(directory, started, midway):
    """Rebalance, pausing mid-move after ``_COPIES_BEFORE_KILL`` copies.

    The pause makes the kill land mid-move on every run: with a timed
    kill, a rebalance that finished first exited cleanly instead.
    """
    store = ShardedResultStore(directory)
    put = ResultStore.put
    copies = 0

    def put_then_pause(self, *args, **kwargs):
        nonlocal copies
        put(self, *args, **kwargs)
        copies += 1
        if copies == _COPIES_BEFORE_KILL:
            midway.set()
            time.sleep(600)  # the parent SIGKILLs this process here

    ResultStore.put = put_then_pause
    started.set()
    store.rebalance()


class TestKilledRebalance:
    def test_sigkill_mid_rebalance_then_rerun_converges(self, tmp_path):
        directory = str(tmp_path)
        store = ShardedResultStore(directory, nodes=2, replication=1)
        digests = _fill(store, 200)
        store.add_node("node02")

        started = multiprocessing.Event()
        midway = multiprocessing.Event()
        child = multiprocessing.Process(
            target=_rebalance_child, args=(directory, started, midway)
        )
        child.start()
        assert started.wait(timeout=60)
        # The child has copied some keys and is paused mid-move.
        assert midway.wait(timeout=60)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL

        # The rerun picks up where the corpse left off: nothing the
        # interrupted copy touched may be unreadable or lost.
        survivor = ShardedResultStore(directory)
        report = survivor.rebalance()
        assert report.unreadable == 0
        assert report.keys == 200
        for index, digest in enumerate(digests):
            holders = [
                name for name in survivor.nodes
                if digest in survivor.node_store(name)
            ]
            assert holders == list(survivor.map.nodes_for(digest))
            assert survivor.get(digest)["value"] == index
        scrub = survivor.scrub()
        assert scrub.corrupt == 0
        assert scrub.scanned == 200
        # And the rerun after the rerun is a no-op.
        assert survivor.rebalance().moved == 0
