"""Async simulation scheduler: queueing, dedup, caching, retries.

:class:`SimulationService` turns the one-shot simulators into a
long-running serving loop.  One event loop owns all bookkeeping (no
locks); blocking simulation work happens in the worker tier
(:mod:`repro.service.workers`).  The life of a submitted request:

1. **Single-flight dedup** — if an identical request (same canonical
   digest) is already queued or running, the submission joins its job
   and shares its future; nothing is enqueued twice.
2. **Cache lookup** — a digest with a stored result resolves
   immediately from the :class:`~repro.service.store.ResultStore`.
3. **Backpressure** — beyond ``max_pending`` queued jobs, submissions
   are rejected with the typed :class:`QueueFull` (callers see queue
   depth and limit; nothing silently blocks or drops).
4. **Priority dispatch** — a binary heap ordered by
   (:class:`~repro.service.request.Priority`, arrival): interactive
   requests overtake queued sweep cells.  A running job is never
   stopped, so an interactive request waits for at most one running
   cell per worker.
5. **Retry** — worker failures and per-job timeouts are retried with
   the jittered backoff shared with
   :mod:`repro.experiments.parallel`; exhausted retries fail the job's
   future with :class:`JobFailed` carrying the
   :class:`~repro.experiments.parallel.JobFailure` record.
6. **Completion** — results are written back to the store (atomic,
   content-addressed) and every joined future resolves.  The store is
   a cache: a failed write is recorded in the store's ``stats.errors``
   and the job still resolves with its result.

``shutdown(drain=True)`` stops intake and runs the queue dry;
``drain=False`` fails queued jobs with :class:`ServiceClosed` and waits
only for running ones.

**Crash-only hardening.**  The serving tier inherits the paper's
crash-only philosophy: every result is content-addressed, so any
worker, process, or store entry may die at any moment and the system
recomputes and converges.  Three mechanisms turn that from a slogan
into behaviour:

* **Worker supervision** — under fabric workers with a
  ``stall_timeout``, every execution heartbeats into a per-digest file
  (:mod:`repro.service.workers`); a reaper task kills + requeues any
  worker whose heartbeat goes silent past the stall window.  This is a
  *liveness* check, distinct from the wall-clock ``job_timeout``: a
  wedged worker is reaped after seconds of silence even when the job
  budget is minutes.
* **Poison-job quarantine** — a job whose retries exhaust with worker
  *death* (``worker_crashed`` / ``worker_stalled`` — as opposed to a
  clean simulation error) is quarantined: its spec and failure history
  are persisted under the store's quarantine directory, the digest is
  refused on every later submission (:class:`JobQuarantined`), and the
  retry budget is never burned on it again.
* **Circuit breaker** — ``breaker_threshold`` consecutive
  infrastructure failures (taxonomy codes in
  :data:`~repro.experiments.parallel.INFRASTRUCTURE_CODES`) open the
  breaker: sweep-class submissions are shed with
  :class:`ServiceDegraded` while interactive requests keep flowing.
  After ``breaker_cooldown`` seconds a sweep submission is admitted as
  a probe; the first success closes the breaker.

Every failed execution attempt is counted by taxonomy code in
:attr:`ServiceStatus.failure_codes` — the degradation story is
observable, not inferred from log spelunking.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import heapq
import itertools
import json
import os
import shutil
import tempfile
import time as _time
from dataclasses import dataclass, field

from repro import perf
from repro.experiments.parallel import (
    CODE_SIM_ERROR,
    CODE_TIMEOUT,
    CODE_WORKER_CRASHED,
    CODE_WORKER_STALLED,
    DEFAULT_BACKOFF,
    JobFailure,
    backoff_delay,
    is_infrastructure_code,
)
from repro.service.request import (
    Priority,
    SimRequest,
    canonical_request_tree,
    request_digest,
)
from repro.service.fabric import FABRIC_MODE, FabricCoordinator
from repro.service.store import ResultStore, atomic_write_json
from repro.service.workers import (
    JobExecutionError,
    WorkerCrashed,
    WorkerPool,
    heartbeat_path,
    make_job_spec,
)

__all__ = [
    "CODE_DEADLINE",
    "DeadlineExpired",
    "Job",
    "JobFailed",
    "JobQuarantined",
    "QueueFull",
    "ServiceClosed",
    "ServiceDegraded",
    "ServiceRejected",
    "ServiceStatus",
    "SimulationService",
    "STATS_FILENAME",
    "merge_stats_trees",
]

#: Taxonomy code for work shed because its caller's deadline passed.
#: Not an infrastructure code: expired deadlines are the *caller's*
#: budget running out, so they never trip the circuit breaker.
CODE_DEADLINE = "deadline_expired"

#: Filename (under the store root) the service persists its final
#: status counters to at shutdown, for ``repro-serve status``.
STATS_FILENAME = "service-stats.json"

# -- cross-process stats aggregation ------------------------------------------
#
# Several service processes can share one store (fabric smoke runs, an
# HTTP server plus a batch, concurrent experiment sessions), and each
# flushes its counters at shutdown.  A plain overwrite makes the sidecar
# last-writer-wins — every other process's failure codes silently vanish
# — so flushes are an atomic read-merge-write serialized by an
# O_CREAT|O_EXCL lock file.  The sidecar therefore holds *lifetime*
# counters for the store (summed across flushes, ``runs`` counting
# them), with point-in-time gauges taken from the newest writer.

#: Counter fields summed across flushes.
_SUM_FIELDS = (
    "submitted", "cache_hits", "dedup_hits", "executed", "completed",
    "failed", "rejected", "retried", "worker_deaths", "reaped",
    "quarantine_rejections", "shed", "deadline_shed", "breaker_opened",
)
#: Gauge fields taken from the newest flush.
_LAST_FIELDS = (
    "queue_depth", "running", "workers", "worker_mode", "closed",
    "breaker_state", "retry_after_hint", "quarantined_jobs",
)
#: Oldest failure strings kept after a merge (forensics, not a log).
_MAX_MERGED_FAILURES = 50

#: Lock-file acquisition budget and staleness: a holder that died
#: mid-flush (crash-only, always possible) leaves its lock behind, so a
#: lock older than the stale window is broken, not waited on.
_STATS_LOCK_TIMEOUT = 5.0
_STATS_LOCK_STALE = 10.0


@contextlib.contextmanager
def _stats_lock(path: str):
    """Exclusive advisory lock for read-merge-write on *path*.

    ``O_CREAT | O_EXCL`` is the only primitive this needs — atomic on
    every filesystem the repo targets, no fcntl semantics to reason
    about across NFS/containers.  Raises ``TimeoutError`` when the lock
    stays contended past the budget (the caller treats a failed flush
    as best-effort, like every other sidecar write).
    """
    lock_path = path + ".lock"
    deadline = _time.monotonic() + _STATS_LOCK_TIMEOUT
    while True:
        try:
            fd = os.open(lock_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            try:
                age = _time.time() - os.stat(lock_path).st_mtime
                if age > _STATS_LOCK_STALE:
                    os.unlink(lock_path)  # holder died mid-flush
                    continue
            except OSError:
                continue  # lock released between stat and unlink: retry
            if _time.monotonic() >= deadline:
                raise TimeoutError(
                    "stats lock %s held past %.1fs"
                    % (lock_path, _STATS_LOCK_TIMEOUT)
                )
            _time.sleep(0.01)
    try:
        os.write(fd, b"%d\n" % os.getpid())
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except OSError:
            pass


def _merge_latency(left: dict, right: dict) -> dict:
    merged = {}
    for name in set(left) | set(right):
        a, b = left.get(name), right.get(name)
        if a is None or b is None:
            merged[name] = dict(a or b)
            continue
        count = a["count"] + b["count"]
        mean = (
            (a["count"] * a["mean_seconds"] + b["count"] * b["mean_seconds"])
            / count if count else 0.0
        )
        merged[name] = {
            "count": count,
            "mean_seconds": round(mean, 6),
            "max_seconds": max(a["max_seconds"], b["max_seconds"]),
        }
    return merged


def _sum_dicts(left: dict, right: dict) -> dict:
    return {
        key: left.get(key, 0) + right.get(key, 0)
        for key in set(left) | set(right)
    }


def merge_stats_trees(existing: dict, update: dict) -> dict:
    """Merge one status flush into the persisted sidecar tree.

    Counters sum, ``queue_high_water`` takes the max, gauges follow the
    newest writer, per-code failure counts and store counters sum
    per-key, and latency aggregates merge count-weighted.  Both inputs
    are ``ServiceStatus.as_dict()`` trees (*existing* possibly already
    merged, carrying ``runs``).
    """
    merged = dict(update)
    for field_name in _SUM_FIELDS:
        merged[field_name] = (
            existing.get(field_name, 0) + update.get(field_name, 0)
        )
    merged["queue_high_water"] = max(
        existing.get("queue_high_water", 0),
        update.get("queue_high_water", 0),
    )
    for field_name in _LAST_FIELDS:
        if field_name not in update and field_name in existing:
            merged[field_name] = existing[field_name]
    merged["failure_codes"] = _sum_dicts(
        existing.get("failure_codes") or {},
        update.get("failure_codes") or {},
    )
    merged["latency"] = _merge_latency(
        existing.get("latency") or {}, update.get("latency") or {}
    )
    old_store = existing.get("store")
    new_store = update.get("store")
    if old_store and new_store:
        store = _sum_dicts(
            {k: v for k, v in old_store.items()
             if isinstance(v, (int, float)) and k != "hit_rate"},
            {k: v for k, v in new_store.items()
             if isinstance(v, (int, float)) and k != "hit_rate"},
        )
        store["quarantined"] = _sum_dicts(
            old_store.get("quarantined") or {},
            new_store.get("quarantined") or {},
        )
        lookups = store.get("hits", 0) + store.get("misses", 0)
        store["hit_rate"] = (
            round(store.get("hits", 0) / lookups, 4) if lookups else 0.0
        )
        merged["store"] = store
    else:
        merged["store"] = new_store or old_store
    old_prewarm = existing.get("prewarm")
    new_prewarm = update.get("prewarm")
    if old_prewarm and new_prewarm:
        merged["prewarm"] = _sum_dicts(old_prewarm, new_prewarm)
        merged["prewarm"]["inflight"] = new_prewarm.get("inflight", 0)
    else:
        merged["prewarm"] = new_prewarm or old_prewarm
    failures = list(existing.get("failures") or [])
    failures.extend(update.get("failures") or [])
    merged["failures"] = failures[-_MAX_MERGED_FAILURES:]
    submitted = merged["submitted"]
    merged["cache_hit_rate"] = (
        round(merged["cache_hits"] / submitted, 4) if submitted else 0.0
    )
    merged["runs"] = existing.get("runs", 1) + 1
    return merged


class ServiceRejected(Exception):
    """Base class for typed submission rejections.

    ``code`` is the stable failure-taxonomy string for the rejection
    class — the same vocabulary :attr:`ServiceStatus.failure_codes`
    counts execution failures in.
    """

    code = "rejected"


class QueueFull(ServiceRejected):
    """The bounded job queue is at capacity; try again later.

    ``retry_after`` is the service's estimate (seconds) of when a queue
    slot will free, derived from the recent drain rate — the number the
    HTTP tier's 429 ``Retry-After`` header and a polite retrying client
    both want, instead of guessing a backoff blind.
    """

    code = "queue_full"

    def __init__(self, digest: str, depth: int, limit: int,
                 retry_after: float = 1.0) -> None:
        super().__init__(
            "job queue is full (%d pending, limit %d); request %s "
            "rejected, retry in ~%.1fs"
            % (depth, limit, digest[:12], retry_after)
        )
        self.digest = digest
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


class ServiceClosed(ServiceRejected):
    """The service is shutting down and no longer accepts work."""

    code = "service_closed"


class JobQuarantined(ServiceRejected):
    """This digest repeatedly killed its workers; it will not be rerun.

    Quarantine is permanent for the store directory: the record (spec +
    failure history) persists under ``quarantine/jobs/`` and every
    service serving that store refuses the digest until an operator
    removes the record.
    """

    code = "quarantined"

    def __init__(self, digest: str, record_path: str | None) -> None:
        super().__init__(
            "request %s is quarantined as a poison job%s"
            % (digest[:12],
               " (see %s)" % record_path if record_path else "")
        )
        self.digest = digest
        self.record_path = record_path


class DeadlineExpired(ServiceRejected):
    """This request's deadline budget is gone; the work was shed.

    Raised at submission when the propagated budget is already spent,
    and set on a job's future when its deadline passes while it is
    queued (or mid-run, via :class:`JobFailed` with the same code).
    The contract: deadline-expired work is *never* silently computed —
    the caller always sees this typed outcome.
    """

    code = CODE_DEADLINE

    def __init__(self, digest: str, where: str = "at submission") -> None:
        super().__init__(
            "deadline expired %s; request %s shed" % (where, digest[:12])
        )
        self.digest = digest
        self.where = where


class ServiceDegraded(ServiceRejected):
    """The breaker is open: sweep-class load is shed, interactive flows."""

    code = "degraded"

    def __init__(self, digest: str, consecutive: int) -> None:
        super().__init__(
            "service degraded after %d consecutive infrastructure "
            "failures; sweep request %s shed (interactive requests are "
            "still served)" % (consecutive, digest[:12])
        )
        self.digest = digest
        self.consecutive = consecutive


class JobFailed(Exception):
    """A job exhausted its retries; ``failure`` is the JobFailure record."""

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(
            "%s failed after %d attempt%s [%s]: %s"
            % (failure.benchmark, failure.attempts,
               "" if failure.attempts == 1 else "s", failure.code,
               failure.error)
        )
        self.failure = failure


@dataclass(eq=False)  # identity semantics: jobs live in sets and heaps
class Job:
    """One scheduled simulation; dedup'd submissions share this object."""

    request: SimRequest
    digest: str
    priority: Priority
    spec: dict
    future: asyncio.Future
    submitted_at: float
    #: The canonical request tree the digest hashes; the store keys its
    #: fingerprint with it (read and write).  :meth:`SimulationService.submit`
    #: passes the one it built; otherwise it is built here.
    fingerprint: dict | None = None
    state: str = "queued"  # queued | running | done | failed
    #: How this job was (or will be) satisfied: "cache", "dedup" joins
    #: report the *join* source to their submitter; a fresh job computes.
    source: str = "computed"
    #: The result is in the store (a cache hit, or a computed result
    #: whose write succeeded), so a reader can fetch it from there.
    stored: bool = False
    attempts: int = 0
    #: Worker deaths (crash/stall/timeout-kill) across this job's attempts.
    deaths: int = 0
    #: Per-attempt failure records: {"attempt", "code", "error"}.
    failure_history: list = field(default_factory=list)
    #: Monotonic instant this job's caller stops caring (``None`` = no
    #: deadline).  Dedup joins widen it; expiry sheds the job with a
    #: typed :class:`DeadlineExpired` instead of computing for nobody.
    deadline: float | None = None
    #: Monotonic start of the current attempt (heartbeat grace anchor).
    #: Durations are always monotonic arithmetic — a wall-clock step
    #: (NTP, DST, operator) must never fake or hide a stall.
    attempt_started: float = 0.0
    #: Last heartbeat-file mtime the reaper observed, and the monotonic
    #: instant it first saw that value.  The mtime itself is wall-clock
    #: (the filesystem gives us nothing else) but it is only ever used
    #: for *change detection*; staleness is measured on the monotonic
    #: clock between observations.
    last_beat_mtime: float = 0.0
    last_beat_mono: float = 0.0

    def __post_init__(self) -> None:
        if self.fingerprint is None:
            self.fingerprint = canonical_request_tree(self.request)


class _Latency:
    """Per-priority latency aggregate (seconds, submit-to-resolve)."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_seconds": round(self.mean, 6),
            "max_seconds": round(self.max, 6),
        }


@dataclass
class ServiceStatus:
    """Point-in-time service report (all counters since construction)."""

    submitted: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    executed: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    retried: int = 0
    queue_depth: int = 0
    queue_high_water: int = 0
    running: int = 0
    workers: int = 0
    worker_mode: str = ""
    closed: bool = False
    #: Failed execution attempts by taxonomy code (sim_error, timeout,
    #: worker_crashed, worker_stalled) plus shed/quarantine rejections.
    failure_codes: dict = field(default_factory=dict)
    #: Worker deaths observed (crashes + reaper kills + timeout kills).
    worker_deaths: int = 0
    #: Workers killed by the heartbeat reaper specifically.
    reaped: int = 0
    #: Digests quarantined as poison jobs (known to this service).
    quarantined_jobs: int = 0
    #: Submissions refused because their digest is quarantined.
    quarantine_rejections: int = 0
    #: Sweep submissions shed while the breaker was open.
    shed: int = 0
    #: Jobs shed (at submit, in queue, or mid-run) because their
    #: propagated deadline expired before the result could matter.
    deadline_shed: int = 0
    #: "closed" or "open" (open = degraded: sweep load is shed).
    breaker_state: str = "closed"
    #: Times the breaker has opened since construction.
    breaker_opened: int = 0
    #: Current backoff estimate (seconds) a QueueFull rejection would
    #: carry — recent drain rate applied to the queue bound.
    retry_after_hint: float = 1.0
    latency: dict = field(default_factory=dict)
    store: dict | None = None
    #: Pre-warmer counters (predicted/issued/useful/wasted/dropped)
    #: when speculation is enabled, else ``None``.
    prewarm: dict | None = None
    failures: list = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.submitted if self.submitted else 0.0

    def as_dict(self) -> dict:
        data = {
            f: getattr(self, f)
            for f in (
                "submitted", "cache_hits", "dedup_hits", "executed",
                "completed", "failed", "rejected", "retried", "queue_depth",
                "queue_high_water", "running", "workers", "worker_mode",
                "closed", "worker_deaths", "reaped", "quarantined_jobs",
                "quarantine_rejections", "shed", "deadline_shed",
                "breaker_state",
                "breaker_opened", "retry_after_hint",
            )
        }
        data["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        data["failure_codes"] = dict(self.failure_codes)
        data["latency"] = dict(self.latency)
        data["store"] = self.store
        data["prewarm"] = (
            dict(self.prewarm) if self.prewarm is not None else None
        )
        data["failures"] = list(self.failures)
        return data

    def render(self) -> str:
        lines = [
            "service status (%d worker%s, %s):"
            % (self.workers, "" if self.workers == 1 else "s",
               self.worker_mode or "?"),
            "  submitted %-6d cache hits %-6d (%.0f%%)  dedup joins %d"
            % (self.submitted, self.cache_hits,
               100.0 * self.cache_hit_rate, self.dedup_hits),
            "  executed  %-6d completed  %-6d failed %-4d rejected %d"
            % (self.executed, self.completed, self.failed, self.rejected),
            "  retried %d" % self.retried,
            "  queue depth %d (high-water %d), running %d"
            % (self.queue_depth, self.queue_high_water, self.running),
        ]
        if (self.worker_deaths or self.reaped or self.quarantined_jobs
                or self.quarantine_rejections):
            lines.append(
                "  worker deaths %d (reaped %d), quarantined jobs %d "
                "(%d rejection%s)"
                % (self.worker_deaths, self.reaped, self.quarantined_jobs,
                   self.quarantine_rejections,
                   "" if self.quarantine_rejections == 1 else "s")
            )
        if self.deadline_shed:
            lines.append(
                "  deadline-expired work shed: %d" % self.deadline_shed
            )
        if self.breaker_state != "closed" or self.breaker_opened:
            lines.append(
                "  breaker %s (opened %d time%s, %d sweep job%s shed)"
                % (self.breaker_state, self.breaker_opened,
                   "" if self.breaker_opened == 1 else "s", self.shed,
                   "" if self.shed == 1 else "s")
            )
        if self.failure_codes:
            lines.append(
                "  failures by code: "
                + ", ".join(
                    "%s=%d" % (code, self.failure_codes[code])
                    for code in sorted(self.failure_codes)
                )
            )
        for name in sorted(self.latency):
            agg = self.latency[name]
            lines.append(
                "  latency[%s]: %d served, mean %.3fs, max %.3fs"
                % (name.lower(), agg["count"], agg["mean_seconds"],
                   agg["max_seconds"])
            )
        if self.store is not None:
            lines.append(
                "  store: %(hits)d hits / %(misses)d misses "
                "(%(puts)d writes, %(invalidated)d invalidated)" % self.store
            )
        if self.prewarm is not None:
            lines.append(
                "  prewarm: %(predicted)d predicted, %(issued)d issued, "
                "%(useful)d useful, %(wasted)d wasted, %(dropped)d dropped"
                % self.prewarm
            )
        for failure in self.failures:
            lines.append("  FAILED %s" % failure)
        return "\n".join(lines)


class SimulationService:
    """The async serving loop.  See the module docstring for semantics.

    Parameters
    ----------
    store:
        A :class:`ResultStore`, a directory path, or ``None`` to serve
        without a cache (dedup and scheduling still apply).
    max_workers / worker_mode:
        Size and kind of the worker tier: ``"thread"`` (in-process
        threads) or ``"fabric"`` (N persistent pull-based worker
        processes behind a
        :class:`~repro.service.fabric.FabricCoordinator`).
    max_pending:
        Bound on *queued* (not yet running) jobs; beyond it submissions
        raise :class:`QueueFull`.
    job_timeout / retries / backoff:
        Per-execution wall-clock limit and retry policy (shared
        semantics with :func:`repro.experiments.parallel.run_sweep`).
    stall_timeout:
        Heartbeat stall window for fabric workers: a worker whose
        heartbeat goes silent this long is killed and its job retried
        (code ``worker_stalled``).  Orthogonal to ``job_timeout`` — a
        worker making progress heartbeats forever; a wedged one is
        reaped in seconds.  Ignored under thread workers (threads
        cannot be killed).
    breaker_threshold / breaker_cooldown:
        Open the circuit breaker after this many *consecutive*
        infrastructure failures (shedding sweep-class submissions);
        after the cooldown, admit one sweep probe — a success closes
        the breaker.  ``breaker_threshold=None`` disables shedding.
    chaos:
        A :class:`repro.faults.infra.InfraChaosConfig` (or its
        ``worker_spec()`` dict) injecting seeded worker faults — test
        harness plumbing, never set in production.
    """

    def __init__(
        self,
        store: ResultStore | str | None = None,
        *,
        max_workers: int = 1,
        worker_mode: str = "thread",
        max_pending: int = 64,
        job_timeout: float | None = None,
        retries: int = 1,
        backoff: float = DEFAULT_BACKOFF,
        stall_timeout: float | None = None,
        breaker_threshold: int | None = 8,
        breaker_cooldown: float = 30.0,
        chaos=None,
    ) -> None:
        if worker_mode not in ("thread", FABRIC_MODE):
            raise ValueError(
                "worker_mode must be 'thread' or 'fabric', got %r"
                % (worker_mode,)
            )
        if isinstance(store, str):
            store = ResultStore(store)
        self.store = store
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")
        if breaker_threshold is not None and breaker_threshold <= 0:
            raise ValueError("breaker_threshold must be positive")
        self.max_pending = max_pending
        self.job_timeout = job_timeout
        self.retries = retries
        self.backoff = backoff
        self.stall_timeout = stall_timeout
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        if chaos is not None and hasattr(chaos, "worker_spec"):
            chaos = chaos.worker_spec()
        self._chaos = chaos
        if worker_mode == FABRIC_MODE:
            self._pool = FabricCoordinator(max_workers=max_workers)
        else:
            self._pool = WorkerPool(max_workers=max_workers)
        self._supervised = worker_mode == FABRIC_MODE and stall_timeout
        self._hb_dir = None
        if self._supervised:
            # Heartbeats are transient runtime state, never persisted
            # with results: a private scratch dir, removed at shutdown.
            self._hb_dir = tempfile.mkdtemp(prefix="repro-heartbeats-")
        self._queue: list = []  # (priority, seq, job) heap, lazy deletion
        self._seq = itertools.count()
        self._queued = 0
        self._inflight: dict = {}  # digest -> Job (queued or running)
        self._running: set = set()
        self._free_workers = max_workers
        self._tasks: set = set()
        self._reaper: asyncio.Task | None = None
        self._closed = False
        self._stats = ServiceStatus(
            workers=max_workers, worker_mode=worker_mode
        )
        self._latency = {p.name: _Latency() for p in Priority}
        self._failures: list = []
        # Poison-job quarantine: digests refused on sight.  Persisted
        # records (if there is a store) survive restarts.
        self._poisoned: dict = {}  # digest -> record path (or None)
        self._load_quarantined_jobs()
        self._stats.quarantined_jobs = len(self._poisoned)
        # Circuit breaker state.
        self._infra_streak = 0
        self._breaker_open = False
        self._breaker_opened_at = 0.0
        # Monotonic instants of recent job settlements (done or failed),
        # for the QueueFull retry-after estimate.
        self._drain_marks: collections.deque = collections.deque(maxlen=32)
        #: Optional sweep-cell speculation (see :meth:`enable_prewarm`).
        self.prewarmer = None

    def enable_prewarm(self, **kwargs):
        """Attach a :class:`~repro.service.prewarm.Prewarmer` and return it.

        Keyword arguments go to the prewarmer constructor
        (``max_inflight``, ``max_per_request``, ``axes``, ...).  Real
        submissions then speculate their lattice neighbours into the
        cache at :data:`Priority.PREWARM`.
        """
        from repro.service.prewarm import Prewarmer

        self.prewarmer = Prewarmer(self, **kwargs)
        return self.prewarmer

    # -- poison-job quarantine ------------------------------------------------

    @property
    def _job_quarantine_dir(self) -> str | None:
        if self.store is None:
            return None
        return os.path.join(self.store.directory, "quarantine", "jobs")

    def _load_quarantined_jobs(self) -> None:
        directory = self._job_quarantine_dir
        if directory is None or not os.path.isdir(directory):
            return
        for name in os.listdir(directory):
            if name.endswith(".json"):
                digest = name[: -len(".json")]
                self._poisoned[digest] = os.path.join(directory, name)

    def _quarantine_job(self, job: Job, failure: JobFailure) -> None:
        """Persist a poison job's spec + failure history; refuse it forever."""
        record_path = None
        directory = self._job_quarantine_dir
        if directory is not None:
            record = {
                "digest": job.digest,
                "benchmark": job.request.benchmark,
                "mode": job.request.mode,
                "fingerprint": job.fingerprint,
                "attempts": job.attempts,
                "deaths": job.deaths,
                "final_code": failure.code,
                "failure_history": list(job.failure_history),
                "quarantined_at": _time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", _time.gmtime()
                ),
            }
            record_path = os.path.join(directory, job.digest + ".json")
            try:
                atomic_write_json(record_path, record)
            except OSError as exc:
                # Refused in memory all the same; only the record that
                # outlives a restart is lost.
                self._store_write_failed(job.digest, exc)
                record_path = None
        self._poisoned[job.digest] = record_path
        self._stats.quarantined_jobs = len(self._poisoned)
        perf.counter("service.job_quarantined")

    # -- circuit breaker ------------------------------------------------------

    def _record_failure_code(self, code: str) -> None:
        self._stats.failure_codes[code] = (
            self._stats.failure_codes.get(code, 0) + 1
        )
        if not is_infrastructure_code(code):
            return
        self._infra_streak += 1
        if (self.breaker_threshold is not None
                and not self._breaker_open
                and self._infra_streak >= self.breaker_threshold):
            self._breaker_open = True
            self._breaker_opened_at = _time.monotonic()
            self._stats.breaker_opened += 1
            perf.counter("service.breaker_opened")

    def _record_success(self) -> None:
        self._infra_streak = 0
        if self._breaker_open:
            self._breaker_open = False
            perf.counter("service.breaker_closed")

    def _shed_check(self, digest: str, priority: Priority) -> None:
        """Raise :class:`ServiceDegraded` for sweep load while open."""
        if not self._breaker_open or priority == Priority.INTERACTIVE:
            return
        elapsed = _time.monotonic() - self._breaker_opened_at
        if elapsed >= self.breaker_cooldown:
            # Half-open: admit this sweep submission as a probe.  The
            # breaker stays open until a success closes it, so a failed
            # probe resumes shedding without re-counting to threshold.
            self._breaker_opened_at = _time.monotonic()
            return
        self._stats.shed += 1
        self._stats.rejected += 1
        perf.counter("service.shed")
        raise ServiceDegraded(digest, self._infra_streak)

    # -- backpressure hints ---------------------------------------------------

    #: Only settlements this recent (seconds, monotonic) count toward the
    #: drain-rate estimate; older ones describe a different load regime.
    DRAIN_WINDOW = 60.0
    #: Clamp for the retry-after estimate: never tell a client to hammer
    #: (sub-100ms) or to give up for minutes on a momentary estimate.
    RETRY_AFTER_BOUNDS = (0.1, 60.0)

    def retry_after_hint(self) -> float:
        """Estimated seconds until a queue slot frees (see QueueFull).

        One queued job starts (freeing a slot) per settlement, so the
        mean gap between recent settlements is the expected wait.  With
        no drain observed yet (cold service, or everything so far was a
        cache hit) the estimate falls back to 1s — small enough that an
        early client is not parked behind a queue that is about to move.
        """
        lo, hi = self.RETRY_AFTER_BOUNDS
        now = _time.monotonic()
        marks = [m for m in self._drain_marks if now - m <= self.DRAIN_WINDOW]
        if len(marks) < 2:
            return 1.0
        rate = (len(marks) - 1) / (marks[-1] - marks[0] or 1e-9)
        return min(hi, max(lo, 1.0 / rate))

    def _mark_drained(self) -> None:
        self._drain_marks.append(_time.monotonic())

    # -- submission -----------------------------------------------------------

    def submit(
        self, request: SimRequest, priority: Priority = Priority.SWEEP,
        deadline: float | None = None,
    ) -> Job:
        """Schedule *request*; returns its (possibly shared) :class:`Job`.

        Must be called on the service's event loop.  Raises
        :class:`ServiceClosed` after shutdown began, :class:`QueueFull`
        under backpressure, :class:`JobQuarantined` for poison digests,
        :class:`DeadlineExpired` when *deadline* is already spent, and
        :class:`ServiceDegraded` for sweep requests while the breaker
        is open.  ``job.source`` tells the caller how this submission
        was satisfied: ``"cache"``, ``"dedup"``, or ``"computed"``.

        *deadline* is the caller's remaining budget in **seconds** (the
        HTTP tier feeds it from the ``X-Deadline-Ms`` header).  A job
        whose deadline passes while queued or running is shed with a
        typed error — it is never silently computed — and a running
        attempt's wall-clock timeout is capped to the remaining budget.
        """
        if self._closed:
            raise ServiceClosed("service is shut down; submission refused")
        priority = Priority(priority)
        loop = asyncio.get_running_loop()
        tree = canonical_request_tree(request)
        digest = request_digest(request, tree)
        self._stats.submitted += 1
        if deadline is not None and deadline <= 0:
            self._stats.deadline_shed += 1
            self._stats.rejected += 1
            perf.counter("service.deadline_shed")
            raise DeadlineExpired(digest)
        deadline_at = (
            _time.monotonic() + deadline if deadline is not None else None
        )

        if self.prewarmer is not None and priority != Priority.PREWARM:
            # A real request landing on a speculated digest makes that
            # speculation useful (full hit from cache, partial hit via
            # the dedup join below); and every real request is a fresh
            # lattice position to speculate from.  Prediction is
            # deferred so it can never re-enter this submit.
            self.prewarmer.note_real_request(digest)
            loop.call_soon(self.prewarmer.on_request, request, digest)

        existing = self._inflight.get(digest)
        if existing is not None:
            self._stats.dedup_hits += 1
            perf.counter("service.dedup_hit")
            # A dedup join can only *widen* the job's deadline: the most
            # patient caller keeps the work alive.
            if existing.deadline is not None:
                existing.deadline = (
                    None if deadline_at is None
                    else max(existing.deadline, deadline_at)
                )
            if existing.state == "queued" and priority < existing.priority:
                # Boost: re-push under the new class; the stale heap
                # entry is skipped at pop time.
                existing.priority = priority
                heapq.heappush(
                    self._queue, (priority, next(self._seq), existing)
                )
            return existing

        if self.store is not None:
            cached = self.store.get(digest, fingerprint=tree)
            if cached is not None:
                self._stats.cache_hits += 1
                perf.counter("service.cache_hit")
                self._latency[priority.name].record(0.0)
                future = loop.create_future()
                future.set_result(cached)
                return Job(
                    request=request, digest=digest, priority=priority,
                    spec={}, future=future, submitted_at=loop.time(),
                    fingerprint=tree, state="done", source="cache",
                    stored=True,
                )

        if digest in self._poisoned:
            self._stats.quarantine_rejections += 1
            self._stats.rejected += 1
            perf.counter("service.quarantine_rejected")
            raise JobQuarantined(digest, self._poisoned[digest])

        self._shed_check(digest, priority)

        if self._queued >= self.max_pending:
            self._stats.rejected += 1
            perf.counter("service.rejected")
            raise QueueFull(
                digest, self._queued, self.max_pending,
                retry_after=self.retry_after_hint(),
            )

        job = Job(
            request=request, digest=digest, priority=priority,
            spec=make_job_spec(request, digest),
            future=loop.create_future(), submitted_at=loop.time(),
            fingerprint=tree, deadline=deadline_at,
        )
        if self._supervised:
            job.spec["supervise"] = {
                "dir": self._hb_dir,
                "interval": max(0.05, min(0.5, self.stall_timeout / 4.0)),
            }
        if self._chaos is not None:
            job.spec["chaos"] = dict(self._chaos)
        self._inflight[digest] = job
        self._enqueue(job)
        self._ensure_reaper(loop)
        self._pump(loop)
        return job

    async def run(
        self, request: SimRequest, priority: Priority = Priority.SWEEP
    ):
        """Submit and await one request's result."""
        return await self.submit(request, priority).future

    async def run_batch(
        self, requests, priority: Priority = Priority.SWEEP
    ) -> list:
        """Submit *requests* together and await all results, in order."""
        jobs = [self.submit(request, priority) for request in requests]
        return await asyncio.gather(*(job.future for job in jobs))

    # -- scheduling internals -------------------------------------------------

    def _enqueue(self, job: Job) -> None:
        job.state = "queued"
        heapq.heappush(self._queue, (job.priority, next(self._seq), job))
        self._queued += 1
        if self._queued > self._stats.queue_high_water:
            self._stats.queue_high_water = self._queued
        perf.gauge("service.queue_depth", self._queued)

    def _pop_job(self) -> Job | None:
        while self._queue:
            priority, _, job = heapq.heappop(self._queue)
            if job.state != "queued" or priority != job.priority:
                continue  # stale entry (boosted, completed, or cancelled)
            self._queued -= 1
            return job
        return None

    def _pump(self, loop=None) -> None:
        if loop is None:
            loop = asyncio.get_running_loop()
        while self._free_workers > 0:
            job = self._pop_job()
            if job is None:
                break
            if (job.deadline is not None
                    and _time.monotonic() >= job.deadline):
                # The caller's budget ran out while this job queued:
                # shed it with a typed error instead of burning a
                # worker computing a result nobody is waiting for.
                self._shed_expired(job, where="while queued")
                continue
            self._free_workers -= 1
            job.state = "running"
            job.attempts = 0
            self._running.add(job)
            self._stats.running = len(self._running)
            perf.gauge("service.running", len(self._running))
            task = loop.create_task(self._execute(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _shed_expired(self, job: Job, where: str) -> None:
        """Fail *job* with the typed deadline error; never compute it."""
        job.state = "failed"
        self._inflight.pop(job.digest, None)
        self._stats.deadline_shed += 1
        self._mark_drained()
        perf.counter("service.deadline_shed")
        if not job.future.done():
            job.future.set_exception(DeadlineExpired(job.digest, where))

    # -- the reaper -----------------------------------------------------------

    def _ensure_reaper(self, loop) -> None:
        if not self._supervised or self._reaper is not None:
            return
        self._reaper = loop.create_task(self._reap_loop())

    async def _reap_loop(self) -> None:
        """Kill workers whose heartbeat went silent past the stall window.

        The check is mtime-based: :func:`execute_job` touches the
        per-digest heartbeat file every ``interval`` seconds.  A job
        whose file is missing (worker still importing/spawning) is
        measured from its attempt start instead — spawn time consumes
        stall budget, which is correct: a worker that cannot even write
        its first beat within the window *is* stalled.
        """
        period = max(0.05, min(self.stall_timeout / 2.0, 2.0))
        while True:
            await asyncio.sleep(period)
            for job in self._find_stalled():
                if self._pool.kill(job.digest, CODE_WORKER_STALLED):
                    self._stats.reaped += 1
                    perf.counter("service.reaped")

    def _find_stalled(self, now: float | None = None) -> list:
        """Supervised jobs whose worker is silent past the stall window.

        All staleness arithmetic is on the monotonic clock: heartbeat
        mtimes (wall-clock — the filesystem offers nothing else) are used
        only to *detect* that a new beat landed, at which point the
        monotonic observation time is recorded.  A wall-clock step
        therefore can neither reap a healthy worker (forward step making
        beats look ancient) nor keep a wedged one alive forever
        (backward step making beats look eternally fresh) — the previous
        ``time.time()`` arithmetic suffered both.
        """
        if now is None:
            now = _time.monotonic()
        stalled = []
        for job in list(self._running):
            if not job.spec.get("supervise") or job.attempt_started <= 0:
                continue
            path = heartbeat_path(self._hb_dir, job.digest)
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                mtime = None  # still spawning: attempt start anchors below
            if mtime is not None and mtime != job.last_beat_mtime:
                job.last_beat_mtime = mtime
                job.last_beat_mono = now
            # A retry may briefly see the killed attempt's stale beat
            # file (same digest): anchoring on attempt start as well
            # gives a fresh worker the full window to write its first.
            anchor = max(job.last_beat_mono, job.attempt_started)
            if now - anchor > self.stall_timeout:
                stalled.append(job)
        return stalled

    # -- execution ------------------------------------------------------------

    async def _execute(self, job: Job) -> None:
        try:
            while True:
                job.attempts += 1
                job.spec["attempt"] = job.attempts
                # Monotonic: feeds stall-window arithmetic, never display.
                job.attempt_started = _time.monotonic()
                # The attempt's wall-clock budget: the service timeout,
                # further capped by the caller's remaining deadline.
                timeout = self.job_timeout
                if job.deadline is not None:
                    remaining = job.deadline - _time.monotonic()
                    if remaining <= 0:
                        self._shed_expired(job, where="before execution")
                        return
                    timeout = (
                        remaining if timeout is None
                        else min(timeout, remaining)
                    )
                self._stats.executed += 1
                perf.counter("service.executed")
                handle = asyncio.wrap_future(self._pool.submit(job.spec))
                try:
                    if timeout is not None:
                        outcome = await asyncio.wait_for(handle, timeout)
                    else:
                        outcome = await handle
                except asyncio.TimeoutError:
                    deadline_hit = (
                        job.deadline is not None
                        and _time.monotonic() >= job.deadline
                    )
                    if deadline_hit:
                        error = "deadline budget exhausted mid-run"
                        code = CODE_DEADLINE
                    else:
                        error = "timed out after %.1fs" % timeout
                        code = CODE_TIMEOUT
                    # A timed-out fabric worker is killed, not leaked:
                    # its tardy result must never land, and its seat
                    # frees immediately.  (Thread workers cannot be
                    # killed; their results are simply discarded.)
                    if self._pool.kill(job.digest, code):
                        self._stats.worker_deaths += 1
                        job.deaths += 1
                    handle.add_done_callback(_swallow)
                except asyncio.CancelledError:
                    raise
                except WorkerCrashed as exc:
                    error = str(exc)
                    code = exc.code
                    job.deaths += 1
                    self._stats.worker_deaths += 1
                except JobExecutionError as exc:
                    # Already "TypeName: message" from the worker side.
                    error = str(exc)
                    code = CODE_SIM_ERROR
                except Exception as exc:  # noqa: BLE001 - worker may raise anything
                    error = "%s: %s" % (type(exc).__name__, exc)
                    code = CODE_SIM_ERROR
                else:
                    self._record_success()
                    self._settle(job, outcome)
                    return
                job.failure_history.append({
                    "attempt": job.attempts, "code": code, "error": error,
                })
                self._record_failure_code(code)
                perf.counter("service.attempt_failed")
                if job.attempts <= self.retries and code != CODE_DEADLINE:
                    delay = backoff_delay(self.backoff, job.attempts)
                    if (job.deadline is not None
                            and _time.monotonic() + delay >= job.deadline):
                        # No budget left for another attempt: fail now
                        # with the deadline code, not a wasted retry.
                        self._fail(job, JobFailure(
                            job.request.benchmark,
                            "deadline expired before retry %d"
                            % (job.attempts + 1),
                            job.attempts, code=CODE_DEADLINE,
                        ))
                        self._stats.deadline_shed += 1
                        return
                    self._stats.retried += 1
                    await asyncio.sleep(delay)
                    continue
                self._fail(
                    job,
                    JobFailure(
                        job.request.benchmark, error, job.attempts,
                        timed_out=(code == CODE_TIMEOUT), code=code,
                    ),
                )
                return
        finally:
            self._running.discard(job)
            self._stats.running = len(self._running)
            self._free_workers += 1
            self._pump()

    def _settle(self, job: Job, outcome) -> None:
        _, result, meta = outcome
        if self.store is not None:
            try:
                self.store.put(
                    job.digest, result, fingerprint=job.fingerprint,
                    meta=meta,
                )
            except OSError as exc:
                # The store is a cache: a failed write (a full disk)
                # costs the next request a recompute, never this job
                # its result.
                self._store_write_failed(job.digest, exc)
            else:
                job.stored = True
        job.state = "done"
        self._inflight.pop(job.digest, None)
        latency = asyncio.get_running_loop().time() - job.submitted_at
        self._latency[job.priority.name].record(latency)
        self._stats.completed += 1
        self._mark_drained()
        perf.counter("service.completed")
        if not job.future.done():
            job.future.set_result(result)

    def _store_write_failed(self, digest: str, exc: OSError) -> None:
        self.store.stats.errors.append(
            "%s: write failed: %s" % (digest, exc)
        )

    def _fail(self, job: Job, failure: JobFailure) -> None:
        job.state = "failed"
        self._inflight.pop(job.digest, None)
        self._stats.failed += 1
        self._failures.append(failure)
        self._mark_drained()
        perf.counter("service.failed")
        # Poison-job detection: the retries were exhausted by worker
        # *deaths*, not by a clean simulation error — this job takes its
        # worker down with it and must never be resubmitted.  (Timeouts
        # are excluded: a too-slow job is a budget problem, not poison.)
        if job.deaths > 0 and failure.code in (
            CODE_WORKER_CRASHED, CODE_WORKER_STALLED,
        ):
            self._quarantine_job(job, failure)
        if not job.future.done():
            job.future.set_exception(JobFailed(failure))

    # -- lifecycle ------------------------------------------------------------

    async def shutdown(self, drain: bool = True) -> None:
        """Stop intake; drain (default) or cancel the queue; stop workers.

        With ``drain=True`` every accepted job runs to completion (or
        failure) before this returns — queued work is never silently
        lost.  With ``drain=False`` queued jobs fail fast with
        :class:`ServiceClosed`; running jobs still finish and their
        results are cached.
        """
        self._closed = True
        self._stats.closed = True
        if not drain:
            while True:
                job = self._pop_job()
                if job is None:
                    break
                job.state = "failed"
                self._inflight.pop(job.digest, None)
                if not job.future.done():
                    job.future.set_exception(
                        ServiceClosed("service shut down before this job ran")
                    )
        pending = [job.future for job in list(self._inflight.values())]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        self._pool.shutdown(wait=True)
        if self._hb_dir is not None:
            shutil.rmtree(self._hb_dir, ignore_errors=True)
        self._persist_stats()

    def _persist_stats(self) -> None:
        self.flush_stats()

    def flush_stats(self) -> None:
        """Merge this service's counters into the store's stats sidecar.

        Best-effort and crash-only: the file is advisory observability,
        written atomically, and its absence (the process died before
        shutdown) is handled by every reader.  The write is a locked
        read-merge-write (:func:`merge_stats_trees`), so concurrent
        services sharing one store — fabric smoke runs, a server plus a
        batch — *accumulate* counters instead of overwriting each
        other; the sidecar reports store-lifetime totals with gauges
        from the newest flush.
        """
        if self.store is None:
            return
        path = os.path.join(self.store.directory, STATS_FILENAME)
        update = self.status().as_dict()
        try:
            with _stats_lock(path):
                existing = None
                try:
                    with open(path) as handle:
                        existing = json.load(handle)
                except (OSError, ValueError):
                    existing = None
                if isinstance(existing, dict):
                    tree = merge_stats_trees(existing, update)
                else:
                    tree = dict(update, runs=1)
                atomic_write_json(path, tree)
        except (OSError, TimeoutError):
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    # -- reporting ------------------------------------------------------------

    def status(self) -> ServiceStatus:
        """A snapshot of every counter, suitable for ``render()``."""
        import copy

        status = copy.copy(self._stats)
        status.queue_depth = self._queued
        status.running = len(self._running)
        status.breaker_state = "open" if self._breaker_open else "closed"
        status.retry_after_hint = round(self.retry_after_hint(), 3)
        status.failure_codes = dict(self._stats.failure_codes)
        status.latency = {
            name: agg.as_dict()
            for name, agg in self._latency.items()
            if agg.count
        }
        status.store = (
            self.store.stats.as_dict() if self.store is not None else None
        )
        status.prewarm = (
            self.prewarmer.stats_dict()
            if self.prewarmer is not None else None
        )
        status.failures = [
            "%s: %s (after %d attempt%s, %s)"
            % (f.benchmark, f.error, f.attempts,
               "" if f.attempts == 1 else "s", f.code)
            for f in self._failures
        ]
        return status


def _swallow(future) -> None:
    """Retrieve an abandoned future's exception so asyncio stays quiet."""
    if not future.cancelled():
        future.exception()
