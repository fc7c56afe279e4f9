"""Async simulation-serving subsystem with content-addressed caching.

Turns the one-shot simulators into a long-running concurrent service —
the substrate the ROADMAP's "heavy traffic" north star builds on:

* :mod:`repro.service.request` — :class:`SimRequest` and its canonical
  blake2b content address (:func:`request_digest`): two requests that
  mean the same simulation share one digest, however they were written.
* :mod:`repro.service.store` — :class:`ResultStore`: completed results
  cached by digest with atomic writes, integrity checksums, and
  versioned invalidation.
* :mod:`repro.service.scheduler` — :class:`SimulationService`: bounded
  priority queue, single-flight dedup, typed backpressure rejections,
  and the one place a failed job is retried (jittered backoff, per-job
  timeouts); every job runs to completion.
* :mod:`repro.service.workers` — the job spec, :func:`execute_job`, the
  in-process thread pool, and the failure-taxonomy codes.
* :mod:`repro.service.client` — async sweep batching plus the blocking
  :class:`ServiceSession` facade, which can route the experiments CLI's
  sweeps through the cache (``repro-experiments ... --service-store``),
  and the HTTP clients for the served tier: :class:`AsyncServiceClient`
  and :class:`ServiceClient`, a blocking wrapper that runs it on a
  private event loop.
* :mod:`repro.service.http` — :class:`ServiceHTTPServer`: the network
  front end (``repro-serve serve``), with bearer-token → priority-class
  auth, typed 429/503/409 backpressure responses, digest-verified
  result transport, and Prometheus ``/metrics`` + ``/health``.
* :mod:`repro.service.fabric` — :class:`FabricCoordinator`: the
  process-worker pool, persistent worker *processes* fed one job at a
  time from a single FIFO, with crash respawn (``repro-serve ...
  --fabric-workers N``).
* :mod:`repro.service.prewarm` — :class:`Prewarmer`: speculative
  pre-computation of neighbouring sweep cells at a background priority
  class, with prefetcher-style predicted/issued/useful/wasted counters.
* :mod:`repro.service.cli` — the ``repro-serve`` command.

The tier is *crash-only*: fabric workers are supervised by
heartbeat (stalled ones are reaped and their jobs retried), jobs that
repeatedly kill their workers are quarantined as poison and never
resubmitted, damaged store entries are quarantined — never deleted —
and repairable ones recomputed (:meth:`ResultStore.scrub`), and a
circuit breaker sheds sweep-class load under infrastructure failure
storms while interactive requests keep flowing.  Failures carry stable
taxonomy codes (:data:`repro.service.workers.INFRASTRUCTURE_CODES`)
surfaced by ``repro-serve status``.  :mod:`repro.faults.infra` injects
seeded chaos (worker kills, heartbeat stalls, store corruption) to
prove all of it.
"""

from repro.service.client import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceHTTPError,
    ServiceSession,
    sweep_requests,
    sweep_speedups,
)
from repro.service.fabric import FABRIC_MODE, FabricCoordinator
from repro.service.http import (
    ServiceHTTPServer,
    decode_result,
    encode_result,
)
from repro.service.prewarm import LatticeAxis, Prewarmer, neighbours
from repro.service.request import (
    RESULT_SCHEMA_VERSION,
    Priority,
    SimRequest,
    canonical_request_tree,
    request_digest,
    request_from_fingerprint,
)
from repro.service.scheduler import (
    DeadlineExpired,
    Job,
    JobFailed,
    JobQuarantined,
    QueueFull,
    ServiceClosed,
    ServiceDegraded,
    ServiceRejected,
    ServiceStatus,
    SimulationService,
    merge_stats_trees,
)
from repro.service.store import (
    RESULT_STORE_VERSION,
    ResultStore,
    ScrubReport,
    StoreStats,
)
from repro.service.workers import JobExecutionError, WorkerCrashed

__all__ = [
    "FABRIC_MODE",
    "RESULT_SCHEMA_VERSION",
    "RESULT_STORE_VERSION",
    "AsyncServiceClient",
    "DeadlineExpired",
    "FabricCoordinator",
    "Job",
    "JobExecutionError",
    "JobFailed",
    "JobQuarantined",
    "LatticeAxis",
    "Prewarmer",
    "Priority",
    "QueueFull",
    "ResultStore",
    "RetryPolicy",
    "ScrubReport",
    "ServiceClient",
    "ServiceClosed",
    "ServiceDegraded",
    "ServiceHTTPError",
    "ServiceHTTPServer",
    "ServiceRejected",
    "ServiceSession",
    "ServiceStatus",
    "SimRequest",
    "SimulationService",
    "StoreStats",
    "WorkerCrashed",
    "canonical_request_tree",
    "decode_result",
    "encode_result",
    "merge_stats_trees",
    "neighbours",
    "request_digest",
    "request_from_fingerprint",
    "sweep_requests",
    "sweep_speedups",
]
