"""Supervised fabric workers: crashes, stalls, quarantine, breaker.

Every test drives *real* fabric worker processes (fork-started, tiny
functional workloads) through the scheduler with seeded chaos from
repro.faults.infra — no mocked deaths.  A SIGKILLed worker here
genuinely dies; the assertions are about what the service does next:
retry with the right taxonomy code, quarantine poison jobs, shed sweep
load behind the breaker, and keep results digest-correct throughout.
"""

import asyncio
import json
import os
import time

import pytest

from repro.faults.infra import InfraChaosConfig
from repro.params import MachineConfig
from repro.service import (
    JobFailed,
    JobQuarantined,
    Priority,
    ServiceDegraded,
    SimRequest,
    SimulationService,
)
from repro.service.scheduler import JobFailure
from repro.service.workers import (
    CODE_SIM_ERROR,
    CODE_TIMEOUT,
    CODE_WORKER_CRASHED,
    CODE_WORKER_STALLED,
    INFRASTRUCTURE_CODES,
    is_infrastructure_code,
)

SCALE = 0.02
POISON_SEED = 7  # any seed listed in kill_seeds dies on every attempt


def _request(seed=1, **kwargs):
    defaults = dict(
        machine=MachineConfig(), benchmark="b2b", scale=SCALE,
        seed=seed, mode="functional",
    )
    defaults.update(kwargs)
    return SimRequest(**defaults)


def _drive(coroutine):
    return asyncio.run(coroutine)


def _service(store_dir, **kwargs):
    defaults = dict(
        max_workers=1, worker_mode="fabric", retries=4,
        stall_timeout=2.0, breaker_threshold=None,
    )
    defaults.update(kwargs)
    return SimulationService(str(store_dir), **defaults)


class TestFailureTaxonomy:
    def test_infrastructure_codes_cover_machinery_not_jobs(self):
        assert INFRASTRUCTURE_CODES == {
            CODE_TIMEOUT, CODE_WORKER_CRASHED, CODE_WORKER_STALLED,
        }
        assert not is_infrastructure_code(CODE_SIM_ERROR)
        assert all(is_infrastructure_code(c) for c in INFRASTRUCTURE_CODES)

    def test_job_failure_defaults_to_sim_error(self):
        failure = JobFailure("b2c", "boom", 1)
        assert failure.code == "sim_error"
        assert not failure.infrastructure


class TestSupervisedPool:
    def test_clean_exception_crosses_as_job_error_not_crash(self, tmp_path):
        async def scenario():
            service = _service(tmp_path / "cache", retries=0)
            try:
                with pytest.raises(JobFailed) as excinfo:
                    await service.run(_request(benchmark="no-such-bench"))
                return excinfo.value.failure, service.status()
            finally:
                await service.shutdown()

        failure, status = _drive(scenario())
        assert failure.code == "sim_error"
        assert "unknown benchmark" in failure.error
        assert status.worker_deaths == 0  # a failing job is not a dead worker


class TestChaosKillRetry:
    def test_transient_kills_retry_to_success(self, tmp_path):
        # Seeded decisions for this request digest: attempts 1 and 2 are
        # killed, attempt 3 runs clean (verified in repro.faults.infra's
        # chaos_action — decisions are pure functions of the key).
        chaos = InfraChaosConfig(
            seed=8, worker_kill_rate=0.5, kill_delay=(0.0, 0.01)
        )

        async def scenario():
            service = _service(tmp_path / "cache", retries=6, chaos=chaos)
            result = await asyncio.wait_for(service.run(_request()), 120)
            status = service.status()
            await service.shutdown()
            return result, status

        result, status = _drive(scenario())
        assert result.uops > 0
        # The kill timer races tiny jobs, so not every attempt dies —
        # but a 100% kill *rate* must kill at least one attempt or the
        # chaos plumbing is broken.
        assert status.worker_deaths >= 1
        assert status.failure_codes.get(CODE_WORKER_CRASHED, 0) >= 1

    def test_retry_preserves_result_correctness(self, tmp_path):
        request = _request()
        chaos = InfraChaosConfig(
            seed=8, worker_kill_rate=0.5, kill_delay=(0.0, 0.02)
        )

        async def chaotic():
            service = _service(tmp_path / "stormy", retries=8, chaos=chaos)
            result = await asyncio.wait_for(service.run(request), 120)
            await service.shutdown()
            return result

        async def clean():
            service = SimulationService(str(tmp_path / "clean"))
            result = await service.run(request)
            await service.shutdown()
            return result

        assert _drive(chaotic()) == _drive(clean())


class TestPoisonQuarantine:
    def test_poison_job_is_quarantined_with_history(self, tmp_path):
        chaos = InfraChaosConfig(seed=1, kill_seeds=(POISON_SEED,))

        async def scenario():
            service = _service(tmp_path / "cache", retries=2, chaos=chaos)
            with pytest.raises(JobFailed) as excinfo:
                await asyncio.wait_for(
                    service.run(_request(seed=POISON_SEED)), 120
                )
            status = service.status()
            await service.shutdown()
            return excinfo.value.failure, status

        failure, status = _drive(scenario())
        assert failure.code == CODE_WORKER_CRASHED
        assert status.quarantined_jobs == 1
        record_dir = tmp_path / "cache" / "quarantine" / "jobs"
        records = list(record_dir.glob("*.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["final_code"] == CODE_WORKER_CRASHED
        assert record["attempts"] == 3  # initial + 2 retries
        assert len(record["failure_history"]) == 3
        assert record["fingerprint"]["seed"] == POISON_SEED

    def test_quarantined_digest_is_never_resubmitted(self, tmp_path):
        chaos = InfraChaosConfig(seed=1, kill_seeds=(POISON_SEED,))

        async def scenario():
            service = _service(tmp_path / "cache", retries=1, chaos=chaos)
            with pytest.raises(JobFailed):
                await asyncio.wait_for(
                    service.run(_request(seed=POISON_SEED)), 120
                )
            executed_after_quarantine = service.status().executed
            with pytest.raises(JobQuarantined) as excinfo:
                service.submit(_request(seed=POISON_SEED))
            status = service.status()
            await service.shutdown()
            return executed_after_quarantine, excinfo.value, status

        executed, rejection, status = _drive(scenario())
        # The rejection consumed zero execution attempts.
        assert status.executed == executed
        assert rejection.code == "quarantined"
        assert rejection.record_path and os.path.exists(rejection.record_path)
        assert status.quarantine_rejections == 1

    def test_quarantine_survives_service_restart(self, tmp_path):
        chaos = InfraChaosConfig(seed=1, kill_seeds=(POISON_SEED,))

        async def poison():
            service = _service(tmp_path / "cache", retries=1, chaos=chaos)
            with pytest.raises(JobFailed):
                await asyncio.wait_for(
                    service.run(_request(seed=POISON_SEED)), 120
                )
            await service.shutdown()

        async def restart():
            service = _service(tmp_path / "cache")  # no chaos this time
            with pytest.raises(JobQuarantined):
                service.submit(_request(seed=POISON_SEED))
            healthy = await asyncio.wait_for(service.run(_request(seed=1)), 120)
            await service.shutdown()
            return healthy

        _drive(poison())
        assert _drive(restart()).uops > 0

    def test_clean_sim_error_is_not_quarantined(self, tmp_path):
        async def scenario():
            service = _service(tmp_path / "cache", retries=1)
            with pytest.raises(JobFailed):
                await service.run(_request(benchmark="no-such-bench"))
            status = service.status()
            await service.shutdown()
            return status

        status = _drive(scenario())
        assert status.quarantined_jobs == 0
        assert not (tmp_path / "cache" / "quarantine").exists()


class TestStallReaper:
    def test_stalled_worker_is_reaped_and_coded(self, tmp_path):
        chaos = InfraChaosConfig(seed=5, heartbeat_stall_rate=1.0)

        async def scenario():
            service = _service(
                tmp_path / "cache", retries=1, stall_timeout=1.0, chaos=chaos
            )
            with pytest.raises(JobFailed) as excinfo:
                await asyncio.wait_for(service.run(_request()), 120)
            status = service.status()
            await service.shutdown()
            return excinfo.value.failure, status

        failure, status = _drive(scenario())
        assert failure.code == CODE_WORKER_STALLED
        assert status.reaped >= 1
        assert status.failure_codes.get(CODE_WORKER_STALLED, 0) >= 1
        # Repeated stalls are worker deaths -> the job is poison.
        assert status.quarantined_jobs == 1

    def test_healthy_slow_job_outlives_the_stall_window(
        self, tmp_path, monkeypatch
    ):
        # A job much longer than the stall window but heartbeating the
        # whole way must NOT be reaped: supervision is liveness, not a
        # wall-clock budget.
        from repro.workloads import suite

        stall_window = 1.0
        hold = 3 * stall_window
        build = suite.build_benchmark

        def slow_build(*args, **kwargs):
            # Runs after the beat thread started, so the held job keeps
            # heartbeating.  Fabric workers fork with this patch.
            time.sleep(hold)
            return build(*args, **kwargs)

        monkeypatch.setattr(suite, "build_benchmark", slow_build)

        async def scenario():
            service = _service(tmp_path / "cache", stall_timeout=stall_window)
            started = time.monotonic()
            result = await asyncio.wait_for(
                service.run(_request(mode="timing")), 240
            )
            elapsed = time.monotonic() - started
            status = service.status()
            await service.shutdown()
            return result, status, elapsed

        result, status, elapsed = _drive(scenario())
        assert elapsed >= hold  # the job really outlived the window
        assert result.cycles > 0
        assert status.reaped == 0
        assert status.worker_deaths == 0


class TestCircuitBreaker:
    def _poison_everything(self):
        # Every seed in kill_seeds: all jobs die on all attempts.
        return InfraChaosConfig(seed=1, kill_seeds=tuple(range(100, 120)))

    def test_breaker_opens_and_sheds_sweep_load(self, tmp_path):
        chaos = self._poison_everything()

        async def scenario():
            service = _service(
                tmp_path / "cache", retries=1, chaos=chaos,
                breaker_threshold=3, breaker_cooldown=300.0,
            )
            for seed in (100, 101):
                with pytest.raises(JobFailed):
                    await asyncio.wait_for(service.run(_request(seed=seed)), 120)
            with pytest.raises(ServiceDegraded):
                service.submit(_request(seed=110), Priority.SWEEP)
            status = service.status()
            await service.shutdown()
            return status

        status = _drive(scenario())
        assert status.breaker_state == "open"
        assert status.breaker_opened == 1
        assert status.shed == 1

    def test_interactive_passes_through_open_breaker(self, tmp_path):
        chaos = self._poison_everything()

        async def scenario():
            service = _service(
                tmp_path / "cache", retries=1, chaos=chaos,
                breaker_threshold=3, breaker_cooldown=300.0,
            )
            for seed in (100, 101):
                with pytest.raises(JobFailed):
                    await asyncio.wait_for(service.run(_request(seed=seed)), 120)
            # seed=1 is not poisoned: the interactive request computes.
            result = await asyncio.wait_for(
                service.run(_request(seed=1), Priority.INTERACTIVE), 120
            )
            status = service.status()
            await service.shutdown()
            return result, status

        result, status = _drive(scenario())
        assert result.uops > 0
        # That success closed the breaker again.
        assert status.breaker_state == "closed"

    def test_success_closes_breaker_for_sweep_load(self, tmp_path):
        chaos = self._poison_everything()

        async def scenario():
            service = _service(
                tmp_path / "cache", retries=1, chaos=chaos,
                breaker_threshold=3, breaker_cooldown=300.0,
            )
            for seed in (100, 101):
                with pytest.raises(JobFailed):
                    await asyncio.wait_for(service.run(_request(seed=seed)), 120)
            await asyncio.wait_for(
                service.run(_request(seed=1), Priority.INTERACTIVE), 120
            )
            # Breaker closed: sweep submissions flow again.
            result = await asyncio.wait_for(
                service.run(_request(seed=2), Priority.SWEEP), 120
            )
            await service.shutdown()
            return result

        assert _drive(scenario()).uops > 0


class TestStatsPersistence:
    def test_shutdown_persists_taxonomy_counters(self, tmp_path):
        chaos = InfraChaosConfig(seed=1, kill_seeds=(POISON_SEED,))

        async def scenario():
            service = _service(tmp_path / "cache", retries=1, chaos=chaos)
            with pytest.raises(JobFailed):
                await asyncio.wait_for(
                    service.run(_request(seed=POISON_SEED)), 120
                )
            await service.shutdown()

        _drive(scenario())
        stats_path = tmp_path / "cache" / "service-stats.json"
        assert stats_path.exists()
        data = json.loads(stats_path.read_text())
        assert data["failure_codes"].get(CODE_WORKER_CRASHED, 0) >= 2
        assert data["quarantined_jobs"] == 1
        assert data["worker_deaths"] >= 2


class TestMonotonicStallDetection:
    """The reaper must be immune to wall-clock steps.

    Heartbeat file mtimes are inherently wall-clock, so the scheduler
    uses them only for *change detection*; staleness itself is measured
    on the monotonic clock (``Job.attempt_started`` /
    ``Job.last_beat_mono``).  These tests drive ``_find_stalled`` with
    explicit monotonic ``now`` values and deliberately absurd mtimes.
    """

    def _fake_running_job(self, service, loop, seed=1):
        from repro.service.request import request_digest
        from repro.service.scheduler import Job

        request = _request(seed=seed)
        job = Job(
            request=request, digest=request_digest(request),
            priority=Priority.SWEEP,
            spec={"supervise": {"dir": service._hb_dir, "interval": 0.1}},
            future=loop.create_future(), submitted_at=loop.time(),
        )
        service._running.add(job)
        return job

    def test_ancient_heartbeat_mtime_is_not_a_stall(self, tmp_path):
        import time as _time

        from repro.service.workers import heartbeat_path

        async def scenario():
            service = _service(tmp_path / "cache")
            loop = asyncio.get_running_loop()
            job = self._fake_running_job(service, loop)
            now = _time.monotonic()
            job.attempt_started = now
            path = heartbeat_path(service._hb_dir, job.digest)
            with open(path, "w"):
                pass
            os.utime(path, (0, 0))  # mtime = 1970: extreme wall skew
            fresh = service._find_stalled(now=now + 0.5)
            budget_spent = service._find_stalled(
                now=now + service.stall_timeout + 1.0
            )
            service._running.discard(job)
            await service.shutdown(drain=False)
            return job, fresh, budget_spent

        job, fresh, budget_spent = _drive(scenario())
        # Under the old wall-clock math (now - mtime) this job would be
        # reaped instantly; monotonically it has a full fresh budget.
        assert fresh == []
        # With no further beats the monotonic budget does run out.
        assert budget_spent == [job]

    def test_heartbeat_change_resets_monotonic_anchor(self, tmp_path):
        from repro.service.workers import heartbeat_path

        async def scenario():
            service = _service(tmp_path / "cache")
            loop = asyncio.get_running_loop()
            job = self._fake_running_job(service, loop, seed=2)
            timeout = service.stall_timeout
            t0 = 1000.0  # arbitrary monotonic origin; only deltas matter
            job.attempt_started = t0
            path = heartbeat_path(service._hb_dir, job.digest)
            with open(path, "w"):
                pass
            os.utime(path, (100.0, 100.0))
            checks = [service._find_stalled(now=t0)]
            t1 = t0 + timeout - 0.5
            os.utime(path, (100.0, 101.0))  # the worker beat again
            checks.append(service._find_stalled(now=t1))
            # The beat bought a fresh monotonic budget anchored at t1:
            checks.append(service._find_stalled(now=t1 + timeout - 0.1))
            stalled = service._find_stalled(now=t1 + timeout + 0.1)
            service._running.discard(job)
            await service.shutdown(drain=False)
            return checks, stalled, job

        checks, stalled, job = _drive(scenario())
        assert checks == [[], [], []]
        assert stalled == [job]

    def test_unsupervised_jobs_are_never_reaped(self, tmp_path):
        async def scenario():
            service = _service(tmp_path / "cache")
            loop = asyncio.get_running_loop()
            job = self._fake_running_job(service, loop, seed=3)
            job.spec = {}  # thread-mode jobs carry no supervise block
            job.attempt_started = 0.0
            stalled = service._find_stalled(now=1e9)
            service._running.discard(job)
            await service.shutdown(drain=False)
            return stalled

        assert _drive(scenario()) == []
