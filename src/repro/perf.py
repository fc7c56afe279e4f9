"""Stage timers and counters for the simulation hot path.

The ROADMAP's north star is a simulator that runs "as fast as the hardware
allows"; this module is the observability side of that goal.  It provides a
process-wide :class:`PerfRecorder` that experiments and the workload
builders report into:

* **stages** — named wall-clock sections (``workload-build``,
  ``timing-sim`` ...), accumulated across calls;
* **counters** — named event counts (cache hits in the workload image
  cache, simulated µops ...);
* **throughputs** — µops-per-second samples per simulator kind, the
  number ``scripts/bench_perf.py`` records into ``BENCH_perf.json``.

Recording is off by default and costs one attribute check per call site
when disabled, so the instrumentation can live permanently on the hot
paths.  ``repro-experiments --profile`` switches it on and prints the
report after each experiment.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "PerfRecorder",
    "RECORDER",
    "counter",
    "enabled",
    "gauge",
    "record_throughput",
    "report",
    "set_enabled",
    "stage",
]


class PerfRecorder:
    """Accumulates stage timings, counters, and throughput samples."""

    def __init__(self) -> None:
        self.enabled = False
        self.stage_seconds: dict = {}
        self.stage_calls: dict = {}
        self.counters: dict = {}
        # name -> high-water mark (service queue depth, in-flight jobs...).
        self.gauges: dict = {}
        # kind -> list of (uops, seconds) samples.
        self.throughput_samples: dict = {}

    # -- recording -----------------------------------------------------------

    @contextmanager
    def stage(self, name: str):
        """Time one section; accumulates under *name* when enabled."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + elapsed
            )
            self.stage_calls[name] = self.stage_calls.get(name, 0) + 1

    def counter(self, name: str, amount: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous level; the report keeps the high-water."""
        if not self.enabled:
            return
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def record_throughput(self, kind: str, uops: int, seconds: float) -> None:
        """Record one simulator run: *uops* simulated in *seconds*."""
        if not self.enabled:
            return
        self.throughput_samples.setdefault(kind, []).append((uops, seconds))

    # -- reading -------------------------------------------------------------

    def uops_per_second(self, kind: str) -> float:
        """Aggregate µops/sec across all samples of *kind* (0.0 if none)."""
        samples = self.throughput_samples.get(kind, ())
        total_uops = sum(uops for uops, _ in samples)
        total_seconds = sum(seconds for _, seconds in samples)
        if total_seconds <= 0:
            return 0.0
        return total_uops / total_seconds

    def uops_per_second_best(self, kind: str) -> float:
        """Fastest single sample of *kind* (0.0 if none).

        The best-of rate is what benchmark records should report: the
        aggregate rate folds in time the OS scheduler gave to other
        processes and cold-cache warm-up, which are properties of the
        run environment, not the code under test.
        """
        best = 0.0
        for uops, seconds in self.throughput_samples.get(kind, ()):
            if seconds > 0:
                rate = uops / seconds
                if rate > best:
                    best = rate
        return best

    #: The canonical pipeline phases (label -> contributing stage names).
    #: ``timing-sim`` wall-clock *includes* the event drain interleaved
    #: with execution; ``timing-drain`` separately times the tail drain
    #: that runs after the last µop issues.
    PHASES = (
        ("trace build", ("workload-build", "workload-load")),
        ("functional sim", ("functional-sim",)),
        ("timing sim", ("timing-sim",)),
        ("drain (tail)", ("timing-drain",)),
    )

    def phase_breakdown(self) -> list:
        """Per-phase (label, seconds, calls) over the canonical phases.

        Phases with no recorded stage are omitted; the result is the
        machine-readable form of the ``phases:`` report section, so
        hot-path hunts can start from ``repro-experiments --profile``
        output instead of an ad-hoc cProfile run.
        """
        out = []
        for label, stages in self.PHASES:
            seconds = sum(self.stage_seconds.get(name, 0.0)
                          for name in stages)
            calls = sum(self.stage_calls.get(name, 0) for name in stages)
            if calls:
                out.append((label, seconds, calls))
        return out

    def report(self) -> str:
        """Human-readable profile: phases, stages, throughputs, counters."""
        lines = ["perf profile:"]
        phases = self.phase_breakdown()
        if phases:
            total = sum(seconds for _, seconds, _ in phases)
            for label, seconds, calls in phases:
                share = 100.0 * seconds / total if total > 0 else 0.0
                lines.append(
                    "  phase %-24s %8.3fs (%5.1f%%) over %d call%s"
                    % (label, seconds, share, calls,
                       "" if calls == 1 else "s")
                )
        for name in sorted(self.stage_seconds):
            lines.append(
                "  stage %-24s %8.3fs over %d call%s"
                % (name, self.stage_seconds[name], self.stage_calls[name],
                   "" if self.stage_calls[name] == 1 else "s")
            )
        for kind in sorted(self.throughput_samples):
            samples = self.throughput_samples[kind]
            lines.append(
                "  %-30s %10.0f uops/s over %d run%s"
                % (kind, self.uops_per_second(kind), len(samples),
                   "" if len(samples) == 1 else "s")
            )
        for name in sorted(self.counters):
            lines.append("  counter %-22s %d" % (name, self.counters[name]))
        for name in sorted(self.gauges):
            lines.append(
                "  gauge   %-22s %g (high-water)" % (name, self.gauges[name])
            )
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)

    def reset(self) -> None:
        self.stage_seconds.clear()
        self.stage_calls.clear()
        self.counters.clear()
        self.gauges.clear()
        self.throughput_samples.clear()


#: The process-wide recorder the instrumented call sites report into.
RECORDER = PerfRecorder()


def set_enabled(on: bool) -> bool:
    """Switch recording; returns the previous state."""
    previous = RECORDER.enabled
    RECORDER.enabled = on
    return previous


def enabled() -> bool:
    return RECORDER.enabled


def stage(name: str):
    return RECORDER.stage(name)


def counter(name: str, amount: int = 1) -> None:
    RECORDER.counter(name, amount)


def gauge(name: str, value: float) -> None:
    RECORDER.gauge(name, value)


def record_throughput(kind: str, uops: int, seconds: float) -> None:
    RECORDER.record_throughput(kind, uops, seconds)


def report() -> str:
    return RECORDER.report()
