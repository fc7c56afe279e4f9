"""Crash-safe multiprocess sweep execution.

Timing simulations are single-threaded Python; sweeps over benchmarks are
embarrassingly parallel.  :func:`parallel_speedups` is a drop-in for
:func:`repro.experiments.common.timing_speedups` that farms each
benchmark's baseline+enhanced pair out to a worker process.

Workers rebuild the workload from its (name, scale, seed) key — the
builders are deterministic, and each process keeps its own image cache, so
nothing large crosses the process boundary.

Unlike a bare ``Pool.map``, jobs are dispatched individually with a
per-job timeout and bounded retry: one benchmark that crashes, hangs, or
has its worker killed does not take the sweep down.  The surviving
benchmarks' results are returned and every failure is recorded with its
error and attempt count (:class:`SweepOutcome`).
"""

from __future__ import annotations

import multiprocessing
import random as _random
import time as _time
from dataclasses import dataclass, field

from repro.params import MachineConfig

__all__ = [
    "CODE_SIM_ERROR",
    "CODE_TIMEOUT",
    "CODE_WORKER_CRASHED",
    "CODE_WORKER_STALLED",
    "INFRASTRUCTURE_CODES",
    "JobFailure",
    "SweepOutcome",
    "backoff_delay",
    "drain_sweep_failures",
    "is_infrastructure_code",
    "run_sweep",
    "parallel_speedups",
]

# -- failure taxonomy ---------------------------------------------------------
#
# Every failed execution attempt carries one of these stable code strings,
# shared between the sweep runner and the serving tier (repro.service).
# The split that matters operationally is *simulation* failures (the job
# itself is wrong — retrying cannot help beyond transient flakiness) vs
# *infrastructure* failures (the machinery running the job died — the job
# may be fine, or it may be poison that kills every worker it touches).

#: The job raised a clean Python exception (bad benchmark name, a bug in
#: the simulator, an assertion): the worker survived to report it.
CODE_SIM_ERROR = "sim_error"
#: The job exceeded its wall-clock budget and was abandoned (and, under
#: process workers, killed).
CODE_TIMEOUT = "timeout"
#: The worker process died without reporting a result (signal, OOM kill,
#: interpreter abort).
CODE_WORKER_CRASHED = "worker_crashed"
#: The worker's heartbeat went silent past the stall window and the
#: scheduler's reaper killed it.
CODE_WORKER_STALLED = "worker_stalled"

#: Codes that indicate the *infrastructure* failed, not the simulation.
#: These feed the service's circuit breaker and poison-job quarantine.
INFRASTRUCTURE_CODES = frozenset(
    {CODE_TIMEOUT, CODE_WORKER_CRASHED, CODE_WORKER_STALLED}
)


def is_infrastructure_code(code: str) -> bool:
    """Whether *code* names an infrastructure (not simulation) failure."""
    return code in INFRASTRUCTURE_CODES

#: Per-attempt backoff base (seconds); attempt *n* waits ``backoff * n``
#: on average, jittered ±50% (see :func:`_backoff_delay`).
DEFAULT_BACKOFF = 0.25

_JITTER = _random.Random()


def _backoff_delay(backoff: float, attempt: int) -> float:
    """Jittered linear backoff for retry attempt *attempt*.

    Uniform over ``[0.5, 1.5] * backoff * attempt``: when several jobs
    fail together (a machine-wide stall, an OOM killer pass), unjittered
    retries re-land simultaneously and recreate the contention that
    killed them; the spread decorrelates them.
    """
    if backoff <= 0:
        return 0.0
    return backoff * attempt * (0.5 + _JITTER.random())


#: Public name for the retry machinery shared with :mod:`repro.service`.
backoff_delay = _backoff_delay


#: JobFailures recorded by every sweep since the last drain.  The
#: experiments CLI drains this after a run to surface per-job failure
#: summaries and convert survivor continuation into exit code 3.
_SWEEP_FAILURES: list = []


def drain_sweep_failures() -> list:
    """Return (and clear) the failures recorded by sweeps so far."""
    failures = list(_SWEEP_FAILURES)
    del _SWEEP_FAILURES[:]
    return failures


@dataclass
class JobFailure:
    """One benchmark the sweep could not complete."""

    benchmark: str
    error: str
    attempts: int
    timed_out: bool = False
    #: Failure-taxonomy code of the *final* attempt (see module constants).
    code: str = CODE_SIM_ERROR

    @property
    def infrastructure(self) -> bool:
        """Whether the infrastructure, not the simulation, failed."""
        return is_infrastructure_code(self.code)


@dataclass
class SweepOutcome:
    """Results of a crash-safe sweep: survivors plus recorded failures."""

    speedups: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failures

    def describe_failures(self) -> str:
        return "; ".join(
            "%s: %s (after %d attempt%s)"
            % (f.benchmark, f.error, f.attempts,
               "" if f.attempts == 1 else "s")
            for f in self.failures.values()
        )


def _run_benchmark_pair(args) -> tuple:
    """Worker: one benchmark's baseline and enhanced runs."""
    (name, scale, seed, config, baseline_config, warmup_fraction) = args
    from repro.core.simulator import TimingSimulator
    from repro.workloads.suite import build_benchmark

    workload = build_benchmark(name, scale=scale, seed=seed)
    warmup = int(workload.trace.uop_count * warmup_fraction)
    baseline = TimingSimulator(baseline_config, workload.memory).run(
        workload.trace, warmup
    )
    enhanced = TimingSimulator(config, workload.memory).run(
        workload.trace, warmup
    )
    return name, enhanced.speedup_over(baseline)


def _run_serial(jobs, job_runner, retries, backoff) -> SweepOutcome:
    """In-process execution (``processes=1``) with the same retry rules."""
    outcome = SweepOutcome()
    for job in jobs:
        name = job[0]
        last_error = None
        for attempt in range(1, retries + 2):
            try:
                result_name, value = job_runner(job)
            except Exception as exc:  # noqa: BLE001 - worker may raise anything
                last_error = "%s: %s" % (type(exc).__name__, exc)
                if attempt <= retries:
                    _time.sleep(_backoff_delay(backoff, attempt))
                continue
            outcome.speedups[result_name] = value
            last_error = None
            break
        if last_error is not None:
            outcome.failures[name] = JobFailure(
                name, last_error, attempts=retries + 1
            )
    return outcome


def run_sweep(
    config: MachineConfig,
    benchmarks,
    scale: float,
    seed: int = 1,
    baseline_config: MachineConfig | None = None,
    processes: int | None = None,
    warmup_fraction: float = 0.25,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = DEFAULT_BACKOFF,
    job_runner=_run_benchmark_pair,
) -> SweepOutcome:
    """Per-benchmark speedups with per-job timeout, retry, and survival.

    Each benchmark is dispatched as its own job.  A job that raises or
    exceeds *timeout* seconds is retried up to *retries* more times with
    linear backoff; if it still fails it is recorded in
    :attr:`SweepOutcome.failures` and the sweep continues with the
    remaining benchmarks.  A worker process that dies (or hangs) only
    loses its own job: stragglers are killed when the pool is torn down.

    *job_runner* exists for testing — it must be a picklable module-level
    callable taking the job tuple and returning ``(name, speedup)``.
    """
    if baseline_config is None:
        baseline_config = config.with_content(enabled=False).with_markov(
            enabled=False
        )
    jobs = [
        (name, scale, seed, config, baseline_config, warmup_fraction)
        for name in benchmarks
    ]
    if processes == 1 or len(jobs) <= 1:
        outcome = _run_serial(jobs, job_runner, retries, backoff)
        _SWEEP_FAILURES.extend(outcome.failures.values())
        return outcome

    outcome = SweepOutcome()
    job_by_name = {job[0]: job for job in jobs}
    attempts = {job[0]: 0 for job in jobs}
    with multiprocessing.Pool(processes=processes) as pool:
        pending = {}
        for job in jobs:
            attempts[job[0]] += 1
            pending[job[0]] = pool.apply_async(job_runner, (job,))
        while pending:
            retry_names = []
            for name, handle in pending.items():
                timed_out = False
                try:
                    result_name, value = handle.get(timeout)
                except multiprocessing.TimeoutError:
                    timed_out = True
                    error = (
                        "timed out after %.1fs" % timeout
                        if timeout is not None else "timed out"
                    )
                except Exception as exc:  # noqa: BLE001
                    error = "%s: %s" % (type(exc).__name__, exc)
                else:
                    outcome.speedups[result_name] = value
                    continue
                if attempts[name] <= retries:
                    retry_names.append(name)
                else:
                    outcome.failures[name] = JobFailure(
                        name, error, attempts[name], timed_out=timed_out,
                        code=CODE_TIMEOUT if timed_out else CODE_SIM_ERROR,
                    )
            pending = {}
            for name in retry_names:
                _time.sleep(_backoff_delay(backoff, attempts[name]))
                attempts[name] += 1
                pending[name] = pool.apply_async(
                    job_runner, (job_by_name[name],)
                )
        # Pool.__exit__ terminates the pool, killing any worker still
        # stuck on a timed-out job.
    _SWEEP_FAILURES.extend(outcome.failures.values())
    return outcome


def parallel_speedups(
    config: MachineConfig,
    benchmarks,
    scale: float,
    seed: int = 1,
    baseline_config: MachineConfig | None = None,
    processes: int | None = None,
    warmup_fraction: float = 0.25,
    timeout: float | None = None,
    retries: int = 1,
) -> dict:
    """Per-benchmark speedups, computed across worker processes.

    Returns the same ``{benchmark: speedup}`` mapping as
    :func:`timing_speedups`, containing the benchmarks that completed.
    Use :func:`run_sweep` directly to also inspect recorded failures.
    With ``processes=1`` (or a single benchmark) everything runs
    in-process — useful for debugging.
    """
    return run_sweep(
        config, benchmarks, scale, seed=seed,
        baseline_config=baseline_config, processes=processes,
        warmup_fraction=warmup_fraction, timeout=timeout, retries=retries,
    ).speedups
