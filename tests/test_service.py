"""The async simulation service (repro.service.scheduler / client).

These drive real (tiny-scale, functional-mode) simulations through the
scheduler: single-flight dedup, cache hits across restarts, bounded-queue
backpressure, priority boosts, retry-then-fail, and shutdown draining.
"""

import asyncio
import errno
import pickle
import threading
import types

import pytest

from repro.params import MachineConfig
from repro.service import (
    JobFailed,
    Priority,
    QueueFull,
    ResultStore,
    ServiceClosed,
    SimRequest,
    SimulationService,
)
from repro.service import workers
from repro.service.client import ServiceSession, sweep_speedups

SCALE = 0.02  # tiny but real workloads; each cell runs in well under a second


def _request(seed=1, **kwargs):
    defaults = dict(
        machine=MachineConfig(), benchmark="b2c", scale=SCALE,
        seed=seed, mode="functional",
    )
    defaults.update(kwargs)
    return SimRequest(**defaults)


def _drive(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def held_worker(monkeypatch):
    """Thread workers hold every job until ``release`` is set.

    ``entered`` is set once a worker has picked up a job, and ``started``
    lists job digests in the order workers picked them up.
    """
    hold = types.SimpleNamespace(
        entered=threading.Event(), release=threading.Event(), started=[],
    )
    execute = workers.execute_job

    def held(spec):
        hold.started.append(spec["digest"])
        hold.entered.set()
        hold.release.wait(60)
        return execute(spec)

    monkeypatch.setattr(workers, "execute_job", held)
    yield hold
    hold.release.set()


class TestSingleFlightDedup:
    def test_concurrent_identical_submissions_share_one_run(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            jobs = [service.submit(_request()) for _ in range(3)]
            results = await asyncio.gather(*(j.future for j in jobs))
            status = service.status()
            await service.shutdown()
            return jobs, results, status

        jobs, results, status = _drive(scenario())
        assert jobs[0] is jobs[1] is jobs[2]  # one shared Job object
        assert results[0] is results[1] is results[2]
        assert status.executed == 1
        assert status.dedup_hits == 2
        assert status.completed == 1

    def test_dedup_boosts_priority_of_queued_job(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1
            )
            service.submit(_request(seed=1))  # takes the only worker
            queued = service.submit(_request(seed=2))
            assert queued.priority is Priority.SWEEP
            again = service.submit(
                _request(seed=2), priority=Priority.INTERACTIVE
            )
            boosted = again.priority
            shared = again is queued
            await queued.future
            await service.shutdown()
            return shared, boosted, service.status()

        shared, boosted, status = _drive(scenario())
        assert shared
        assert boosted is Priority.INTERACTIVE
        assert status.dedup_hits == 1
        assert status.executed == 2  # two distinct seeds actually ran


class TestPriorityDispatch:
    def test_interactive_job_overtakes_queued_sweep_cells(
        self, tmp_path, held_worker
    ):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1
            )
            running = service.submit(_request(seed=1))
            await asyncio.to_thread(held_worker.entered.wait, 60)
            sweeps = [service.submit(_request(seed=s)) for s in (2, 3, 4)]
            interactive = service.submit(
                _request(seed=5), priority=Priority.INTERACTIVE
            )
            held_worker.release.set()
            jobs = [running, *sweeps, interactive]
            await asyncio.gather(*(job.future for job in jobs))
            await service.shutdown()
            return [job.digest for job in jobs]

        running, *sweeps, interactive = _drive(scenario())
        # The running sweep cell finishes; the interactive job is next.
        assert held_worker.started == [running, interactive, *sweeps]


class TestCaching:
    def test_resubmission_is_served_from_cache(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            first = service.submit(_request())
            result = await first.future
            second = service.submit(_request())
            cached = await second.future
            status = service.status()
            await service.shutdown()
            return first, second, result, cached, status

        first, second, result, cached, status = _drive(scenario())
        assert first.source == "computed"
        assert second.source == "cache"
        assert cached.mptu == result.mptu
        assert status.cache_hits == 1
        assert status.executed == 1

    def test_failed_store_write_still_settles_the_job(self, tmp_path):
        class FullDiskStore(ResultStore):
            def put(self, *args, **kwargs):
                raise OSError(errno.ENOSPC, "No space left on device")

        async def scenario():
            service = SimulationService(
                FullDiskStore(str(tmp_path / "cache"))
            )
            job = service.submit(_request())
            result = await asyncio.wait_for(job.future, 30)
            again = service.submit(_request())
            rerun = await asyncio.wait_for(again.future, 30)
            await asyncio.wait_for(service.shutdown(), 30)
            return job, again, result, rerun, service

        job, again, result, rerun, service = _drive(scenario())
        assert result.uops > 0
        # Nothing was cached, so the resubmit computes again instead of
        # joining the first job.
        assert again is not job
        assert again.source == "computed"
        assert pickle.dumps(rerun) == pickle.dumps(result)
        status = service.status()
        assert status.completed == 2
        assert status.executed == 2
        assert status.store["puts"] == 0
        errors = service.store.stats.errors
        assert len(errors) == 2
        assert all("write failed" in error for error in errors)

    def test_cache_survives_service_restart(self, tmp_path):
        store_dir = str(tmp_path / "cache")

        async def first_life():
            service = SimulationService(store_dir)
            result = await service.run(_request())
            await service.shutdown()
            return result

        async def second_life():
            service = SimulationService(store_dir)
            job = service.submit(_request())
            result = await job.future
            status = service.status()
            await service.shutdown()
            return job.source, result, status

        reference = _drive(first_life())
        source, result, status = _drive(second_life())
        assert source == "cache"
        assert result.mptu == reference.mptu
        assert status.executed == 0

    def test_changed_parameter_recomputes_only_changed_cell(self, tmp_path):
        # The acceptance criterion: re-running a two-point sweep after
        # changing one parameter recomputes exactly one cell.
        enhanced = MachineConfig().with_content(next_lines=2)
        tweaked = enhanced.with_content(depth_threshold=5)

        async def sweep(service, config_b):
            return await service.run_batch(
                [_request(), _request(machine=config_b)]
            )

        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            await sweep(service, enhanced)
            first = service.status()
            await sweep(service, tweaked)
            second = service.status()
            await service.shutdown()
            return first, second

        first, second = _drive(scenario())
        assert first.executed == 2
        assert second.executed - first.executed == 1  # only the changed cell
        assert second.cache_hits == 1

    def test_uncached_service_still_dedups(self, tmp_path):
        async def scenario():
            service = SimulationService(store=None)
            jobs = [service.submit(_request()) for _ in range(2)]
            await jobs[0].future
            status = service.status()
            await service.shutdown()
            return status

        status = _drive(scenario())
        assert status.executed == 1
        assert status.dedup_hits == 1
        assert status.store is None


class TestBackpressure:
    def test_queue_full_is_a_typed_rejection(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1, max_pending=1
            )
            running = service.submit(_request(seed=1))  # dispatched, not queued
            queued = service.submit(_request(seed=2))  # fills the queue
            with pytest.raises(QueueFull) as excinfo:
                service.submit(_request(seed=3))
            rejection = excinfo.value
            await asyncio.gather(running.future, queued.future)
            status = service.status()
            await service.shutdown()
            return rejection, status

        rejection, status = _drive(scenario())
        assert rejection.depth == 1
        assert rejection.limit == 1
        assert len(rejection.digest) == 32
        assert status.rejected == 1
        assert status.completed == 2  # accepted work still finished

    def test_cache_hits_bypass_backpressure(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1, max_pending=1
            )
            await service.run(_request(seed=1))  # warm the cache
            service.submit(_request(seed=2))
            service.submit(_request(seed=3))  # queue now full
            hit = service.submit(_request(seed=1))  # cached: never queued
            await service.shutdown()
            return hit.source

        assert _drive(scenario()) == "cache"


class TestFailures:
    def test_exhausted_retries_fail_with_job_record(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), retries=1, backoff=0.01
            )
            job = service.submit(_request(benchmark="no_such_benchmark"))
            with pytest.raises(JobFailed) as excinfo:
                await job.future
            status = service.status()
            await service.shutdown()
            return excinfo.value.failure, status

        failure, status = _drive(scenario())
        assert failure.benchmark == "no_such_benchmark"
        assert failure.attempts == 2  # first try + one retry
        assert status.retried == 1
        assert status.failed == 1
        assert any("no_such_benchmark" in line for line in status.failures)

    def test_failure_is_not_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))

        async def scenario():
            service = SimulationService(store, retries=0)
            with pytest.raises(JobFailed):
                await service.run(_request(benchmark="no_such_benchmark"))
            await service.shutdown()

        _drive(scenario())
        assert store.entries() == []


class TestShutdown:
    def test_graceful_shutdown_drains_the_queue(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1
            )
            jobs = [service.submit(_request(seed=s)) for s in (1, 2, 3)]
            await service.shutdown(drain=True)
            return jobs, service.status()

        jobs, status = _drive(scenario())
        assert all(job.future.done() for job in jobs)
        assert all(job.future.exception() is None for job in jobs)
        assert status.completed == 3

    def test_submit_after_shutdown_is_refused(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            await service.shutdown()
            with pytest.raises(ServiceClosed):
                service.submit(_request())
            return service.status()

        status = _drive(scenario())
        assert status.closed

    def test_fast_shutdown_fails_queued_jobs(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1
            )
            running = service.submit(_request(seed=1))
            queued = service.submit(_request(seed=2))
            await service.shutdown(drain=False)
            return running, queued

        running, queued = _drive(scenario())
        # The running job finished and kept its result; the queued one
        # failed fast with the typed shutdown error.
        assert running.future.exception() is None
        assert isinstance(queued.future.exception(), ServiceClosed)


class TestStatusReport:
    def test_render_and_as_dict_are_consistent(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            await service.run(_request())
            await service.run(_request())  # cache hit
            status = service.status()
            await service.shutdown()
            return status

        status = _drive(scenario())
        text = status.render()
        data = status.as_dict()
        assert "cache hits" in text
        assert "latency[sweep]" in text
        assert data["submitted"] == 2
        assert data["cache_hit_rate"] == 0.5
        assert data["store"]["puts"] == 1

    def test_invalid_construction_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_pending"):
            SimulationService(str(tmp_path / "c"), max_pending=0)
        with pytest.raises(ValueError, match="'thread' or 'fabric'"):
            SimulationService(str(tmp_path / "c"), worker_mode="process")


class TestClientSession:
    def test_session_runs_and_reports(self, tmp_path):
        with ServiceSession(store_dir=str(tmp_path / "cache")) as session:
            result = session.run(_request())
            again = session.run(_request())
            status = session.status()
        assert again.mptu == result.mptu
        assert status.cache_hits == 1

    def test_submit_batch_isolates_rejections(self, tmp_path):
        with ServiceSession(
            store_dir=str(tmp_path / "cache"),
            max_workers=1, max_pending=1,
        ) as session:
            records = session.submit_batch([
                (_request(seed=1), Priority.SWEEP),
                (_request(seed=2), Priority.SWEEP),
                (_request(seed=3), Priority.SWEEP),  # over the bound
            ])
        sources = [source for source, _ in records]
        assert sources[:2] == ["computed", "computed"]
        assert sources[2] == "rejected"
        assert isinstance(records[2][1], QueueFull)
        assert all(
            not isinstance(outcome, BaseException)
            for _, outcome in records[:2]
        )

    def test_sweep_speedups_shares_baselines(self, tmp_path):
        config = MachineConfig()

        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            speedups = await sweep_speedups(
                service, config, ["b2c"], SCALE,
            )
            # A second configuration reuses the cached baseline cell.
            speedups2 = await sweep_speedups(
                service, config.with_content(depth_threshold=5),
                ["b2c"], SCALE,
            )
            status = service.status()
            await service.shutdown()
            return speedups, speedups2, status

        speedups, speedups2, status = _drive(scenario())
        assert set(speedups) == {"b2c"}
        assert speedups["b2c"] > 0
        # 4 cells submitted, but only 3 distinct: baseline is shared.
        assert status.executed == 3
        assert status.cache_hits == 1

    def test_install_routes_experiment_sweeps(self, tmp_path):
        from repro.experiments import common

        with ServiceSession(store_dir=str(tmp_path / "cache")) as session:
            session.install()
            speedups = common.timing_speedups(
                MachineConfig(), ["b2c"], scale=SCALE
            )
            status = session.status()
        assert set(speedups) == {"b2c"}
        assert status.submitted == 2  # baseline + enhanced, via the service
        assert common._SPEEDUP_PROVIDER is None  # uninstalled on close


class TestRetryAfterHint:
    """QueueFull must tell the caller *when to come back*: the hint is
    derived from the recent drain rate (completions+failures over the
    last DRAIN_WINDOW seconds), bounded, and surfaced in the exception,
    the status report, and its JSON form."""

    def test_default_hint_without_drain_history(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            hint = service.retry_after_hint()
            await service.shutdown()
            return hint

        assert _drive(scenario()) == 1.0

    def test_hint_tracks_recent_drain_rate(self, tmp_path):
        import time as _time

        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            now = _time.monotonic()
            # 10 drains over the last second: ~10 jobs/sec -> ~0.1s hint.
            service._drain_marks.extend(
                now - 1.0 + 0.1 * i for i in range(11)
            )
            fast = service.retry_after_hint()
            service._drain_marks.clear()
            # Drains older than the window are ignored.
            service._drain_marks.extend([now - 300.0, now - 299.0])
            stale = service.retry_after_hint()
            await service.shutdown()
            return fast, stale

        fast, stale = _drive(scenario())
        assert 0.05 <= fast <= 0.2
        assert stale == 1.0

    def test_hint_is_bounded(self, tmp_path):
        import time as _time

        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            now = _time.monotonic()
            # Two drains a microsecond apart: a naive 1/rate would be
            # ~1e-6; the floor keeps the hint sane.
            service._drain_marks.extend([now - 1e-6, now])
            floor = service.retry_after_hint()
            service._drain_marks.clear()
            # Two drains 50s apart: 1/rate = 50s, within the cap.
            service._drain_marks.extend([now - 50.0, now])
            slow = service.retry_after_hint()
            await service.shutdown()
            return floor, slow

        floor, slow = _drive(scenario())
        lo, hi = SimulationService.RETRY_AFTER_BOUNDS
        assert floor == lo
        assert lo <= slow <= hi

    def test_queue_full_carries_the_hint(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1, max_pending=1
            )
            first = service.submit(_request(seed=1))
            second = service.submit(_request(seed=2))
            with pytest.raises(QueueFull) as excinfo:
                service.submit(_request(seed=3))
            await asyncio.gather(first.future, second.future)
            status = service.status()
            await service.shutdown()
            return excinfo.value, status

        rejection, status = _drive(scenario())
        assert rejection.retry_after > 0
        assert "retry in ~" in str(rejection)
        assert status.retry_after_hint > 0
        assert "retry_after_hint" in status.as_dict()


class TestDeadlineShedding:
    """Propagated deadline budgets: shed typed, never silently computed."""

    def test_spent_budget_is_rejected_at_submission(self, tmp_path):
        from repro.service import DeadlineExpired

        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            with pytest.raises(DeadlineExpired) as excinfo:
                service.submit(_request(), deadline=0.0)
            status = service.status()
            await service.shutdown()
            return excinfo.value, status

        error, status = _drive(scenario())
        assert error.code == "deadline_expired"
        assert error.digest
        assert status.deadline_shed == 1
        assert status.executed == 0  # nothing was computed for nobody

    def test_queued_job_is_shed_when_its_deadline_passes(
        self, tmp_path, held_worker
    ):
        from repro.service import DeadlineExpired

        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1
            )
            first = service.submit(_request(seed=1))  # holds the worker
            doomed = service.submit(_request(seed=2), deadline=0.01)
            # The doomed job's 10 ms budget runs out while it queues.
            await asyncio.sleep(0.05)
            held_worker.release.set()
            with pytest.raises(DeadlineExpired) as excinfo:
                await doomed.future
            await first.future
            status = service.status()
            await service.shutdown()
            return excinfo.value, status

        error, status = _drive(scenario())
        assert error.code == "deadline_expired"
        assert "shed" in str(error)
        assert status.deadline_shed == 1
        assert status.executed == 1  # only the undoomed job ran

    def test_generous_deadline_computes_normally(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path / "cache"))
            job = service.submit(_request(), deadline=60.0)
            result = await job.future
            status = service.status()
            await service.shutdown()
            return result, status

        result, status = _drive(scenario())
        assert result.uops > 0
        assert status.deadline_shed == 0

    def test_dedup_join_widens_the_deadline(self, tmp_path):
        async def scenario():
            service = SimulationService(
                str(tmp_path / "cache"), max_workers=1
            )
            service.submit(_request(seed=1))  # occupy the worker
            tight = service.submit(_request(seed=2), deadline=30.0)
            joined = service.submit(_request(seed=2))  # no deadline: patient
            widened = joined.deadline
            shared = joined is tight
            result = await joined.future
            await service.shutdown()
            return shared, widened, result

        shared, widened, result = _drive(scenario())
        assert shared
        assert widened is None  # the most patient caller keeps it alive
        assert result.uops > 0
