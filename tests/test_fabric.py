"""Fabric coordinator: pool protocol, stealing, drain, crash respawn.

The coordinator-level tests drive :class:`FabricCoordinator` directly
with raw job specs (the same dicts the scheduler builds); the
service-level test proves the whole point of the drop-in protocol —
results through the fabric are bit-identical to thread-mode results,
so the scheduler genuinely does not care which pool it drives.
"""

import asyncio
import os
import pickle
import time

import pytest

from repro.params import MachineConfig
from repro.service import SimRequest, SimulationService, request_digest
from repro.service import fabric as fabric_module
from repro.service.fabric import FabricCoordinator
from repro.service.workers import (
    JobExecutionError,
    WorkerCrashed,
    make_job_spec,
)

SCALE = 0.02


def _request(seed=1, **kwargs):
    defaults = dict(
        machine=MachineConfig(), benchmark="b2c", scale=SCALE,
        seed=seed, mode="functional",
    )
    defaults.update(kwargs)
    return SimRequest(**defaults)


def _spec(request):
    return make_job_spec(request, request_digest(request))


def _wait(future, timeout=120.0):
    return future.result(timeout=timeout)


@pytest.fixture
def held_worker(monkeypatch, tmp_path):
    """Fabric workers hold every job until ``release()`` is called.

    Workers fork from this process, so the patch must be in place
    before the coordinator starts them.  Both signals are files: a
    worker killed while it waits on a multiprocessing primitive can
    leave that primitive blocked for every later user.
    """
    entered = tmp_path / "entered"
    release = tmp_path / "release"
    execute = fabric_module.execute_job

    def held(spec):
        entered.touch()
        deadline = time.monotonic() + 60
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return execute(spec)

    def wait_entered(timeout=60.0):
        deadline = time.monotonic() + timeout
        while not entered.exists():
            assert time.monotonic() < deadline, "no worker took the job"
            time.sleep(0.01)

    monkeypatch.setattr(fabric_module, "execute_job", held)
    yield wait_entered, release.touch
    release.touch()


class TestCoordinator:
    def test_executes_jobs_and_steals_from_hot_backlogs(self):
        fabric = FabricCoordinator(max_workers=3)
        try:
            # One workload => one affinity bucket: every job routes to
            # the same cell, so the idle siblings must steal to help.
            futures = [
                fabric.submit(_spec(_request(seed=1)))
                for _ in range(9)
            ]
            results = [_wait(f) for f in futures]
            assert all(r is not None for r in results)
            done = sum(w["jobs_done"] for w in fabric.workers())
            assert done == 9
            assert fabric.steals > 0
            assert sum(
                1 for w in fabric.workers() if w["jobs_done"] > 0
            ) >= 2
        finally:
            fabric.shutdown()

    def test_clean_sim_errors_relay_as_job_execution_error(self):
        fabric = FabricCoordinator(max_workers=1)
        try:
            future = fabric.submit(
                _spec(_request(benchmark="no-such-benchmark"))
            )
            with pytest.raises(JobExecutionError):
                _wait(future)
            # The worker survives a clean error and keeps serving.
            assert _wait(fabric.submit(_spec(_request()))) is not None
            assert fabric.respawns == 0
        finally:
            fabric.shutdown()

    def test_kill_fails_inflight_with_code_and_respawns(self, held_worker):
        wait_entered, release = held_worker
        fabric = FabricCoordinator(max_workers=1)
        try:
            request = _request(mode="timing")
            future = fabric.submit(_spec(request))
            wait_entered()
            assert fabric.kill(request_digest(request), "worker_stalled")
            release()
            with pytest.raises(WorkerCrashed) as crash:
                _wait(future)
            assert crash.value.code == "worker_stalled"
            # Respawned: the fabric still has a live worker that works.
            deadline = time.monotonic() + 30
            while fabric.live_workers() < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert _wait(fabric.submit(_spec(_request()))) is not None
            assert fabric.respawns == 1
        finally:
            fabric.shutdown()

    def test_drain_worker_finishes_without_dropping_work(self):
        fabric = FabricCoordinator(max_workers=2)
        try:
            futures = [
                fabric.submit(_spec(_request(seed=seed)))
                for seed in range(1, 7)
            ]
            victim = fabric.workers()[0]["name"]
            assert fabric.drain_worker(victim)
            assert not fabric.drain_worker(victim)  # already draining
            results = [_wait(f) for f in futures]
            assert all(r is not None for r in results)
            deadline = time.monotonic() + 30
            while fabric.live_workers() > 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert fabric.drained == 1
        finally:
            fabric.shutdown()

    def test_never_drains_the_last_live_worker(self):
        fabric = FabricCoordinator(max_workers=1)
        try:
            assert not fabric.drain_worker("w0")
            assert fabric.live_workers() == 1
        finally:
            fabric.shutdown()

    def test_shutdown_fails_stranded_futures(self, held_worker):
        wait_entered, _release = held_worker
        fabric = FabricCoordinator(max_workers=1)
        stuck = fabric.submit(_spec(_request(mode="timing")))
        backlog = [
            fabric.submit(_spec(_request(seed=seed)))
            for seed in range(2, 5)
        ]
        wait_entered()
        fabric.shutdown(wait=False)
        for future in [stuck] + backlog:
            assert future.done()
            # Killed mid-job or stranded in the backlog: both resolve,
            # never dangle.
            with pytest.raises(WorkerCrashed):
                future.result(timeout=0)


_needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="needs Linux /proc")


def _voluntary_switches(thread) -> int:
    path = "/proc/self/task/%d/status" % thread.native_id
    with open(path) as handle:
        for line in handle:
            if line.startswith("voluntary_ctxt_switches:"):
                return int(line.split()[1])
    raise AssertionError("no voluntary_ctxt_switches in %s" % path)


class TestDispatcherWakeups:
    """The dispatcher sleeps until a sentinel, a pipe or its backstop."""

    @_needs_proc
    def test_idle_dispatcher_barely_wakes(self):
        fabric = FabricCoordinator(max_workers=2)
        try:
            assert _wait(fabric.submit(_spec(_request()))) is not None
            time.sleep(0.2)
            before = _voluntary_switches(fabric._dispatcher)
            started = time.monotonic()
            time.sleep(2.0)
            rate = (_voluntary_switches(fabric._dispatcher) - before) / (
                time.monotonic() - started)
            assert rate < 10, "idle dispatcher woke %.0f times/s" % rate
        finally:
            fabric.shutdown()

    def test_job_resolves_when_every_ring_is_lost(self, monkeypatch):
        # Forked workers inherit the patch: neither the done pipe nor
        # the self-pipe ever carries a byte, and the worker stays alive
        # (no sentinel), so only the backstop can find the outcome.
        monkeypatch.setattr(fabric_module, "_ring", lambda fd: None)
        fabric = FabricCoordinator(max_workers=1)
        try:
            outcome = _wait(fabric.submit(_spec(_request())), timeout=60)
            assert outcome[0] == "done"
            assert fabric.workers()[0]["jobs_done"] == 1
        finally:
            fabric.shutdown()

    @_needs_proc
    def test_dead_worker_sentinel_leaves_the_wait_set(self):
        # A drained worker's sentinel stays readable for good; polling it
        # again would spin the dispatcher.
        fabric = FabricCoordinator(max_workers=2)
        try:
            assert fabric.drain_worker("w0")
            deadline = time.monotonic() + 30
            while fabric.drained < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.2)
            before = _voluntary_switches(fabric._dispatcher)
            time.sleep(1.0)
            assert _voluntary_switches(fabric._dispatcher) - before < 10
            assert _wait(fabric.submit(_spec(_request()))) is not None
        finally:
            fabric.shutdown()


class TestFabricThroughScheduler:
    def test_results_are_identical_to_thread_mode(self, tmp_path):
        requests = [_request(seed=seed) for seed in range(1, 5)]

        async def run(worker_mode, directory):
            service = SimulationService(
                str(directory), max_workers=2, worker_mode=worker_mode,
                breaker_threshold=None,
            )
            results = await asyncio.wait_for(
                service.run_batch(requests), 300
            )
            status = service.status()
            await service.shutdown()
            return results, status

        thread_results, _ = asyncio.run(run("thread", tmp_path / "t"))
        fabric_results, status = asyncio.run(run("fabric", tmp_path / "f"))
        assert ([pickle.dumps(r) for r in fabric_results]
                == [pickle.dumps(r) for r in thread_results])
        assert status.completed == len(requests)
        assert status.worker_mode == "fabric"

    def test_restarted_fabric_service_serves_cache_hits(self, tmp_path):
        requests = [_request(seed=seed) for seed in range(1, 4)]

        async def run_twice():
            service = SimulationService(
                str(tmp_path), max_workers=2, worker_mode="fabric",
            )
            first = await asyncio.wait_for(
                service.run_batch(requests), 300)
            await service.shutdown()
            service = SimulationService(
                str(tmp_path), max_workers=2, worker_mode="fabric",
            )
            second = await asyncio.wait_for(
                service.run_batch(requests), 300)
            status = service.status()
            await service.shutdown()
            return first, second, status

        first, second, status = asyncio.run(run_twice())
        assert [pickle.dumps(r) for r in first] \
            == [pickle.dumps(r) for r in second]
        assert status.cache_hits == len(requests)
        assert status.executed == 0
