"""Worker tier: executes one service job, in a thread or a fabric process.

The scheduler never touches a simulator directly; it serializes each
:class:`~repro.service.request.SimRequest` into a plain job *spec* dict
(picklable, so the same spec runs under a thread or a fabric worker
process) and hands it to :func:`execute_job`, which runs the job to
completion and returns ``("done", result, meta)``: the completed
:class:`~repro.core.results.TimingResult` /
:class:`~repro.core.results.FunctionalResult` plus execution metadata.

:class:`WorkerPool` runs jobs on in-process threads: the library and
test path.  Process workers are the fabric's
(:class:`~repro.service.fabric.FabricCoordinator`); both pools answer
the same protocol (``submit`` / ``kill`` / ``live_workers`` /
``shutdown``), so the scheduler never branches on which one it drives.
When the spec carries ``supervise``, :func:`execute_job` touches a
per-digest heartbeat file every ``interval`` seconds from a daemon
thread, so the scheduler's reaper can tell a fabric worker that is
*computing* from one that is *wedged* (no heartbeat within the stall
window) and kill + requeue it — a liveness check orthogonal to the
wall-clock ``job_timeout``.

A process worker that dies without an outcome resolves its future with
:class:`WorkerCrashed` carrying a failure-taxonomy code
(:data:`~repro.experiments.parallel.CODE_WORKER_CRASHED`, or the code
the reaper recorded when it did the killing).  A clean simulation
exception crosses the process boundary as :class:`JobExecutionError`
with the original ``TypeName: message`` text, so the scheduler can keep
telling "the job is wrong" apart from "the machinery died".

The retry/backoff machinery and the failure taxonomy are shared with the
crash-safe sweep runner (:mod:`repro.experiments.parallel`) — the
service is the always-on face of the same worker discipline.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading

from repro.configio import machine_config_from_dict
from repro.experiments.parallel import CODE_WORKER_CRASHED

__all__ = [
    "JobExecutionError",
    "WorkerCrashed",
    "WorkerPool",
    "execute_job",
    "heartbeat_path",
    "make_job_spec",
]


class WorkerCrashed(Exception):
    """A worker process died without reporting an outcome.

    ``code`` is the failure-taxonomy code: ``worker_crashed`` for a
    spontaneous death, ``worker_stalled`` / ``timeout`` when the
    scheduler killed it on purpose (recorded via the fabric's ``kill``).
    """

    def __init__(self, message: str, code: str = CODE_WORKER_CRASHED,
                 exitcode: int | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.exitcode = exitcode


class JobExecutionError(Exception):
    """A clean simulation exception relayed from a process worker.

    ``str(exc)`` is the original ``TypeName: message`` text — the same
    shape thread-mode failures format to — so failure records look
    identical across worker modes.
    """


def make_job_spec(request, digest: str) -> dict:
    """Plain picklable job description for :func:`execute_job`.

    The scheduler may later attach:

    * ``supervise`` — ``{"dir": path, "interval": seconds}``; the worker
      heartbeats into *dir* so the reaper can spot stalls;
    * ``chaos`` — a :mod:`repro.faults.infra` worker profile (test
      harness only: seeded self-SIGKILLs and heartbeat stalls);
    * ``attempt`` — the 1-based execution attempt, so seeded chaos
      decisions differ between retries of one digest.
    """
    from repro.configio import machine_config_to_dict

    return {
        "digest": digest,
        "machine": machine_config_to_dict(request.machine),
        "benchmark": request.benchmark,
        "scale": float(request.scale),
        "seed": int(request.seed),
        "warmup_fraction": float(request.warmup_fraction),
        "mode": request.mode,
        "supervise": None,
        "chaos": None,
        "attempt": 1,
    }


# -- heartbeats ---------------------------------------------------------------

def heartbeat_path(directory: str, digest: str) -> str:
    return os.path.join(directory, digest + ".hb")


def _write_heartbeat(spec: dict) -> str | None:
    """Write the initial beat file (with the worker pid, for forensics).

    Split from :func:`_start_beat_thread` so chaos can be armed *between*
    the first beat and the beat thread: a chaos-stalled worker then
    wedges with exactly one beat on record and true silence after — the
    fault the reaper exists to catch.  A beat thread started first would
    keep touching the file from under the wedged main thread and hide
    the stall forever.
    """
    supervise = spec.get("supervise")
    if not supervise:
        return None
    os.makedirs(supervise["dir"], exist_ok=True)
    path = heartbeat_path(supervise["dir"], spec["digest"])
    with open(path, "w") as handle:
        handle.write("%d\n" % os.getpid())
    return path


def _start_beat_thread(spec: dict, path: str | None):
    """Touch *path* every supervise interval from a daemon thread.

    The beat is an ``os.utime`` touch — the reaper only reads mtimes.
    Returns a stopper callable (a no-op when unsupervised).
    """
    if path is None:
        return lambda: None
    interval = float(spec["supervise"]["interval"])
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                os.utime(path)
            except OSError:
                return  # heartbeat dir torn down: the run is over

    thread = threading.Thread(
        target=beat, name="repro-heartbeat", daemon=True
    )
    thread.start()
    return stop.set


def execute_job(spec: dict):
    """Run one job spec to completion.  See module docs.

    Module-level and argument-picklable on purpose: process workers must
    be able to import and call it.
    """
    import time

    from repro.workloads.suite import build_benchmark

    beat_file = _write_heartbeat(spec)
    if spec.get("chaos"):
        from repro.faults.infra import arm_worker_chaos

        # Test harness only: may SIGKILL this process mid-job or wedge
        # it right here with its heartbeat silenced (never returns).
        arm_worker_chaos(spec)
    stop_heartbeat = _start_beat_thread(spec, beat_file)
    try:
        config = machine_config_from_dict(spec["machine"])
        workload = build_benchmark(
            spec["benchmark"], scale=spec["scale"], seed=spec["seed"]
        )
        warmup = int(workload.trace.uop_count * spec["warmup_fraction"])
        started = time.perf_counter()

        if spec["mode"] == "functional":
            from repro.core.functional import FunctionalSimulator

            result = FunctionalSimulator(config, workload.memory).run(
                workload.trace, warmup
            )
            return ("done", result, _meta(spec, workload, started))

        from repro.core.simulator import TimingSimulator

        result = TimingSimulator(config, workload.memory).run(
            workload.trace, warmup
        )
        return ("done", result, _meta(spec, workload, started))
    finally:
        stop_heartbeat()


def _meta(spec: dict, workload, started) -> dict:
    import time

    return {
        "benchmark": spec["benchmark"],
        "mode": spec["mode"],
        "uops": workload.trace.uop_count,
        "elapsed": time.perf_counter() - started,
    }


class WorkerPool:
    """Executes job specs on in-process threads.

    Thread workers share the in-process workload image cache (cheap,
    GIL-bound): the library and test path.  A thread cannot be killed,
    so :meth:`kill` always answers ``False`` and a timed-out job's
    result is simply discarded.
    """

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="repro-service-worker",
        )

    def submit(self, spec: dict) -> concurrent.futures.Future:
        return self._executor.submit(execute_job, spec)

    def kill(self, digest: str, code: str) -> bool:
        """Threads cannot be killed: never finds a worker to kill."""
        return False

    def live_workers(self) -> int:
        """Worker processes alive: none, the workers are threads."""
        return 0

    def shutdown(self, wait: bool = True) -> None:
        # cancel_futures guards against jobs sneaking in post-drain.
        self._executor.shutdown(wait=wait, cancel_futures=True)
