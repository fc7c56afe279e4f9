"""Fabric tier: one coordinator, N persistent pull-based worker processes.

:class:`FabricCoordinator` is the scheduler's process-worker pool (same
protocol as the thread :class:`~repro.service.workers.WorkerPool`:
``submit`` / ``kill`` / ``shutdown``).  It keeps N long-lived worker
processes and feeds each one job at a time.  A persistent worker
amortises interpreter start-up *and* keeps the in-process workload image
cache warm across jobs — on a sweep (many machine configs over one
workload) that cache is most of the per-job cost, which is where the
fabric's throughput comes from even before multi-core parallelism.

Queue discipline — one FIFO, coordinator-owned:

* Every job waiting for a worker lives in one coordinator-side deque.
  Whenever a worker is idle, the deque's head goes to it, the workers
  taken in index order; a worker's own multiprocessing queue never
  holds more than the single job it is executing.  Priority is the
  scheduler's (its heap decides what to submit, and it submits only
  while one of its worker slots is free); *which* worker runs a job is
  decided here and nowhere else.
* Workers report outcomes through per-job files written with the
  atomic-replace idiom (:func:`_supervised_entry`), never through a
  worker-written pipe: a SIGKILL mid-job can tear a pipe write and
  wedge the reader, while a missing outcome file plus a dead process is
  an unambiguous crash.
* The coordinator's dispatcher thread sleeps until something happens.
  It blocks on every live worker's sentinel (readable once the process
  dies), on a per-worker *done* pipe the worker rings with one byte
  once its outcome file is in place, and on a self-pipe that
  :meth:`~FabricCoordinator.submit`, :meth:`~FabricCoordinator.kill`
  and :meth:`~FabricCoordinator.shutdown` ring.  The pipes carry no
  data, only wake-ups; outcome files stay the only result channel, and
  every wake-up re-checks all of them.  A backstop timeout
  (:data:`_BACKSTOP`) covers a lost ring.  A dead worker's sentinel
  stays readable, so it leaves the wait set once its death is handled.

Failure semantics follow the scheduler's failure taxonomy, so its
retry/quarantine/breaker logic never cares which pool it drives:

* clean simulation errors arrive as
  :class:`~repro.service.workers.JobExecutionError` with the original
  ``TypeName: message`` text;
* a worker that dies mid-job resolves the in-flight future with
  :class:`~repro.service.workers.WorkerCrashed` (carrying the reaper's
  kill code when the death was deliberate);
* a dead worker — killed mid-job or while idle — is **respawned** by the
  hand-out when there is a job for it, so no death shrinks the fabric,
  and a worker that dies at start-up is never restarted in a loop;
* heartbeats and seeded chaos both run inside
  :func:`~repro.service.workers.execute_job`, unchanged.  The
  coordinator additionally stamps each spec's chaos profile with the
  executing worker's name and per-worker job count, giving
  :mod:`repro.faults.infra` a per-worker decision axis.

Worker names (``w0`` … ``wN``) are plain strings: nothing below the
coordinator assumes they share a host.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import pickle
import queue as queue_mod
import select
import shutil
import tempfile
import threading

from concurrent.futures import Future

from .workers import (
    CODE_WORKER_CRASHED,
    JobExecutionError,
    WorkerCrashed,
    execute_job,
)

__all__ = ["FABRIC_MODE", "FabricCoordinator"]

#: The ``worker_mode`` string that selects the fabric pool.
FABRIC_MODE = "fabric"

#: Longest the dispatcher sleeps with nothing waking it, seconds: it
#: then re-checks every outcome file and worker, in case a ring was lost.
_BACKSTOP = 1.0

#: How long a worker may take to exit at shutdown before SIGKILL.
_DRAIN_GRACE = 10.0


def _supervised_entry(spec: dict, outcome_path: str) -> None:
    """Run one job in a worker process, atomically persist the outcome.

    The outcome file only ever appears complete (same-dir temp +
    ``os.replace``), so the coordinator can treat "process exited, no
    outcome" as a crash with no torn-write ambiguity.  Clean exceptions
    are persisted as ``("error", "TypeName: message")`` rather than
    re-raised: a dying worker and a failing job must stay
    distinguishable.
    """
    try:
        outcome = execute_job(spec)
    except Exception as exc:  # noqa: BLE001 - relay any simulation error
        outcome = ("error", "%s: %s" % (type(exc).__name__, exc))
    tmp = "%s.tmp.%d" % (outcome_path, os.getpid())
    with open(tmp, "wb") as handle:
        pickle.dump(outcome, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, outcome_path)


def _fabric_worker_main(name: str, job_q, parent_pid: int, done) -> None:
    """Persistent worker loop: pull one job, run it, persist the outcome.

    The outcome write is :func:`_supervised_entry`.  Once the outcome
    file is in place the worker rings its *done* pipe.  The loop also
    watches its parent: an orphaned worker (coordinator SIGKILLed)
    exits instead of idling forever.
    """
    while True:
        try:
            message = job_q.get(timeout=1.0)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                return  # orphaned: the coordinator is gone
            continue
        if message[0] == "drain":
            return
        _, spec, outcome_path = message
        _supervised_entry(spec, outcome_path)
        _ring(done.fileno())


def _ring(fd: int) -> None:
    """Write one wake-up byte to a non-blocking pipe.

    A full pipe already holds unread wake-ups; any other failure loses
    this one, which the dispatcher's backstop covers.
    """
    try:
        os.write(fd, b"\0")
    except OSError:
        pass


def _doorbell() -> tuple:
    """``(reader, writer)`` ends of a non-blocking wake-up pipe.

    ``multiprocessing`` connections only so the writer reaches a worker
    under any start method; both ends are used as raw descriptors.
    """
    reader, writer = multiprocessing.Pipe(duplex=False)
    os.set_blocking(reader.fileno(), False)
    os.set_blocking(writer.fileno(), False)
    return reader, writer


def _clear(fd: int) -> None:
    """Read a non-blocking wake-up pipe empty."""
    try:
        while os.read(fd, 4096):
            pass
    except BlockingIOError:
        pass


class _Pending:
    """One job the coordinator has accepted but not yet resolved."""

    __slots__ = ("spec", "future", "outcome_path")

    def __init__(self, spec: dict, future, outcome_path: str):
        self.spec = spec
        self.future = future
        self.outcome_path = outcome_path

    @property
    def digest(self) -> str:
        return self.spec["digest"]


class _WorkerCell:
    """Coordinator-side state for one persistent worker process."""

    __slots__ = ("name", "process", "job_q", "done", "inflight",
                 "jobs_done", "exited", "kill_code")

    def __init__(self, name: str) -> None:
        self.name = name
        self.process = None
        self.job_q = None
        #: The *done* pipe, ``(reader, writer)``; kept across respawns.
        self.done = _doorbell()
        self.inflight: _Pending | None = None
        self.jobs_done = 0
        #: The process is dead and its death handled: its sentinel,
        #: readable from now on, is out of the dispatcher's wait set.
        self.exited = False
        self.kill_code: str | None = None


class FabricCoordinator:
    """Pool-protocol front end over N persistent worker processes."""

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = int(max_workers)
        self._scratch = tempfile.mkdtemp(prefix="repro-fabric-")
        self._lock = threading.Lock()
        self._wake = _doorbell()
        #: Shutdown has begun: hand out no more jobs, respawn no worker.
        self._stopping = False
        self._closed = False
        self._seq = 0
        #: Accepted jobs that no worker holds yet, oldest first.
        self._queue: collections.deque = collections.deque()
        self._cells: list = []
        self.respawns = 0
        for wid in range(self.max_workers):
            cell = _WorkerCell("w%d" % wid)
            self._start_process(cell)
            self._cells.append(cell)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-fabric-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- worker lifecycle -----------------------------------------------------

    def _start_process(self, cell: _WorkerCell) -> None:
        cell.job_q = multiprocessing.Queue()
        cell.kill_code = None
        cell.exited = False
        cell.process = multiprocessing.Process(
            target=_fabric_worker_main,
            args=(cell.name, cell.job_q, os.getpid(), cell.done[1]),
            name="repro-fabric-%s" % cell.name, daemon=True,
        )
        cell.process.start()

    def _wake_up(self) -> None:
        _ring(self._wake[1].fileno())

    # -- submission + dispatch ------------------------------------------------

    def submit(self, spec: dict) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            if self._closed:
                raise RuntimeError("fabric coordinator is shut down")
            self._seq += 1
            self._queue.append(_Pending(
                spec, future,
                os.path.join(self._scratch, "job-%d.out" % self._seq),
            ))
            self._hand_out_locked()
        self._wake_up()
        return future

    def _hand_out_locked(self) -> None:
        """Give the queue's head to each idle worker, in index order.

        A dead worker is restarted here, and only when there is a job
        for it: one that dies at start-up is never restarted in a loop.
        """
        if self._stopping:
            return
        for cell in self._cells:
            if not self._queue:
                return
            if cell.inflight is not None:
                continue
            if not cell.process.is_alive():
                self.respawns += 1
                self._start_process(cell)
            pending = self._queue.popleft()
            chaos = pending.spec.get("chaos")
            if chaos is not None:
                chaos = dict(chaos, worker=cell.name,
                             worker_jobs=cell.jobs_done)
            spec = dict(pending.spec, chaos=chaos)
            cell.inflight = pending
            cell.job_q.put(("job", spec, pending.outcome_path))

    # -- the dispatcher -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                self._harvest_locked()
                self._hand_out_locked()
                doorbells = [self._wake[0].fileno()] + [
                    cell.done[0].fileno() for cell in self._cells
                ]
                sentinels = [cell.process.sentinel for cell in self._cells
                             if not cell.exited]
            poller = select.poll()
            for fd in doorbells + sentinels:
                poller.register(fd, select.POLLIN)
            poller.poll(_BACKSTOP * 1000.0)
            # Empty the pipes before the next harvest looks: a ring
            # after this point wakes the next poll.
            for fd in doorbells:
                _clear(fd)

    def _harvest_locked(self) -> None:
        for cell in self._cells:
            pending = cell.inflight
            if pending is not None:
                if os.path.exists(pending.outcome_path):
                    cell.inflight = None
                    cell.jobs_done += 1
                    self._resolve(pending)
                elif not cell.process.is_alive():
                    # Died mid-job (chaos, the reaper's kill, a real
                    # crash): the scheduler sees WorkerCrashed.
                    cell.inflight = None
                    self._fail_crashed(pending, cell)
            if (cell.inflight is None and not cell.exited
                    and not cell.process.is_alive()):
                cell.exited = True

    def _resolve(self, pending: _Pending) -> None:
        try:
            with open(pending.outcome_path, "rb") as handle:
                outcome = pickle.load(handle)
            os.unlink(pending.outcome_path)
        except Exception as exc:  # noqa: BLE001 - unreadable outcome = crash
            pending.future.set_exception(WorkerCrashed(
                "fabric outcome unreadable: %s" % exc
            ))
            return
        if outcome[0] == "error":
            pending.future.set_exception(JobExecutionError(outcome[1]))
            return
        pending.future.set_result(outcome)

    def _fail_crashed(self, pending: _Pending, cell: _WorkerCell) -> None:
        code = cell.kill_code or CODE_WORKER_CRASHED
        cell.kill_code = None
        exitcode = cell.process.exitcode
        detail = ("killed by signal %d" % -exitcode
                  if exitcode is not None and exitcode < 0
                  else "exit code %s" % exitcode)
        pending.future.set_exception(WorkerCrashed(
            "fabric worker %s died without an outcome (%s)"
            % (cell.name, detail),
            code=code, exitcode=exitcode,
        ))

    # -- kills, shutdown ------------------------------------------------------

    def kill(self, digest: str, code: str) -> bool:
        """SIGKILL the worker executing *digest*, recording *code* as why."""
        with self._lock:
            for cell in self._cells:
                if (cell.inflight is not None
                        and cell.inflight.digest == digest
                        and cell.process.is_alive()):
                    cell.kill_code = code
                    cell.process.kill()
                    self._wake_up()
                    return True
        return False

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._stopping = True
            cells = list(self._cells)
            for cell in cells:
                try:
                    cell.job_q.put(("drain",))
                except (OSError, ValueError):
                    pass
        for cell in cells:
            if wait:
                cell.process.join(_DRAIN_GRACE)
            if cell.process.is_alive():
                cell.process.kill()
                cell.process.join()
        with self._lock:
            self._closed = True
            # Final harvest: a worker that finished its job during the
            # drain left an outcome file; resolve it rather than letting
            # the future dangle.
            self._harvest_locked()
            for cell in cells:
                pending, cell.inflight = cell.inflight, None
                if pending is not None and not pending.future.done():
                    self._fail_crashed(pending, cell)
                cell.job_q.close()
            while self._queue:
                self._queue.popleft().future.set_exception(WorkerCrashed(
                    "fabric shut down before the job ran"
                ))
        self._wake_up()
        self._dispatcher.join(timeout=2.0)
        if not self._dispatcher.is_alive():
            # Only now: a descriptor closed under a polling dispatcher
            # could be reused by another file before it looks again.
            for reader, writer in [self._wake] + [c.done for c in cells]:
                reader.close()
                writer.close()
        shutil.rmtree(self._scratch, ignore_errors=True)
