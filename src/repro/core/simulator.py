"""Top-level timing simulator: wires a machine together and runs a trace."""

from __future__ import annotations

import os

from repro.cache.hierarchy import CacheHierarchy
from repro.configio import machine_config_to_dict
from repro.core import invariants
from repro.core.cpu import OutOfOrderCore, snapshot_boundaries
from repro.core.memsys import TimingMemorySystem
from repro.core.results import TimingResult
from repro.faults import FaultInjector
from repro.memory.backing import BackingMemory
from repro.memory.pagetable import PageTable
from repro.params import MachineConfig
from repro.prefetch.adaptive import AdaptiveController
from repro.prefetch.content import ContentPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.snapshot.digest import state_digest
from repro.snapshot.policy import WatchdogExpired, active_policy
from repro.snapshot.store import load_snapshot, save_snapshot
from repro.trace.ops import Trace

__all__ = ["TimingSimulator"]


class TimingSimulator:
    """One simulated machine (config + memory image) ready to run a trace.

    Parameters
    ----------
    config:
        The machine description.  ``config.content.enabled`` switches the
        content prefetcher, ``config.markov.enabled`` the Markov
        prefetcher; the stride prefetcher is part of every baseline.
    memory:
        The backing memory image the workload was built into.  The
        simulator never mutates it (stores are timing-only), so one image
        can be shared across the many configurations of a sweep.
    adaptive:
        If ``True``, attach the runtime heuristic-tuning controller
        (the paper's future-work extension).
    check_invariants:
        If ``True``, enable live event-monotonicity checks and run the
        full :mod:`repro.core.invariants` validation after :meth:`run`,
        raising :class:`~repro.core.invariants.SimulationIntegrityError`
        on any violation.  Also switched on process-wide by
        :func:`repro.core.invariants.set_global_checks` (the CLI's
        ``--check-invariants``).

    A fault injector (:mod:`repro.faults`) is attached automatically when
    ``config.faults.enabled`` is true.

    When a :class:`~repro.snapshot.SnapshotPolicy` is installed
    (:func:`repro.snapshot.set_policy`), :meth:`run` records a state
    digest at every policy interval into ``result.state_digests``,
    persists full snapshots when the policy names a directory, resumes
    from an existing snapshot when asked to, and honours the wall-clock
    watchdog.  With no policy installed the cost is a single ``None``
    check per run.
    """

    def __init__(
        self,
        config: MachineConfig,
        memory: BackingMemory,
        page_table: PageTable | None = None,
        adaptive: bool = False,
        check_invariants: bool = False,
    ) -> None:
        self.config = config
        self.hierarchy = CacheHierarchy(config, memory, page_table)
        self.stride = StridePrefetcher(
            config.stride, config.line_size,
            address_bits=config.content.address_bits,
        )
        self.content = ContentPrefetcher(config.content, config.line_size)
        self.markov = (
            MarkovPrefetcher(
                config.markov, config.line_size,
                address_bits=config.content.address_bits,
            )
            if config.markov.enabled else None
        )
        self.result = TimingResult("run")
        controller = None
        if adaptive:
            controller = AdaptiveController(self.content)
        self.adaptive = controller
        self.faults = (
            FaultInjector(config.faults) if config.faults.enabled else None
        )
        self.memsys = TimingMemorySystem(
            config,
            self.hierarchy,
            self.stride,
            self.content,
            markov=self.markov,
            result=self.result,
            adaptive=controller,
            faults=self.faults,
        )
        self.check_invariants = check_invariants
        if check_invariants or invariants.checks_enabled():
            self.memsys.integrity_checks = True
        self.core = OutOfOrderCore(config.core, self.memsys)

    def run(
        self, trace: Trace, warmup_uops: int = 0, policy=None
    ) -> TimingResult:
        """Simulate *trace* and return the populated :class:`TimingResult`.

        With invariant checking enabled (per-instance or globally), the
        run is validated end to end and raises
        :class:`~repro.core.invariants.SimulationIntegrityError` rather
        than returning inconsistent numbers.

        *policy* overrides the process-wide snapshot policy for this run
        only, so one run can record its own digest stream without
        installing a policy every other run in the process would see.
        """
        if policy is None:
            policy = active_policy()
        if policy is not None:
            return self._run_with_snapshots(trace, warmup_uops, policy)
        self.result.name = trace.name
        cycles = self.core.run(trace, warmup_uops=warmup_uops)
        return self._finalize(trace, warmup_uops, cycles)

    def _finalize(
        self, trace: Trace, warmup_uops: int, cycles: float
    ) -> TimingResult:
        self.memsys.finalize()
        self.result.cycles = cycles
        self.result.uops = trace.uop_count - warmup_uops
        self.result.instructions = trace.instruction_count
        self.result.loads = self.core.loads_executed
        if self.check_invariants or invariants.checks_enabled():
            invariants.assert_integrity(self)
        return self.result

    # -- snapshot / resume ----------------------------------------------------

    def _run_with_snapshots(
        self, trace: Trace, warmup_uops: int, policy
    ) -> TimingResult:
        self.result.name = trace.name
        fingerprint = self.run_fingerprint(trace, warmup_uops)
        path = None
        if policy.directory is not None:
            path = self.snapshot_path(policy.directory, trace, warmup_uops)
            if policy.resume and os.path.exists(path):
                payload = load_snapshot(path, expected_fingerprint=fingerprint)
                self.load_state_dict(payload["state"])
                self.result.state_digests = [
                    list(entry)
                    for entry in payload["meta"].get("digests", [])
                ]
        boundaries = snapshot_boundaries(trace.ops, policy.every)

        def on_boundary(uop_pos: int) -> bool:
            state = self.state_dict()
            if path is not None:
                digest = state_digest(state)
                self.result.state_digests.append([uop_pos, digest])
                save_snapshot(
                    path, state, fingerprint,
                    meta={
                        "uop": uop_pos,
                        "trace": trace.name,
                        "warmup_uops": warmup_uops,
                        "digests": [
                            list(entry)
                            for entry in self.result.state_digests
                        ],
                    },
                )
                if policy.expired():
                    raise WatchdogExpired(path, uop_pos)
            else:
                self.result.state_digests.append(
                    [uop_pos, state_digest(state)]
                )
            return True

        cycles = self.core.run(
            trace, warmup_uops=warmup_uops,
            boundaries=boundaries, on_boundary=on_boundary,
        )
        return self._finalize(trace, warmup_uops, cycles)

    def run_fingerprint(self, trace: Trace, warmup_uops: int) -> dict:
        """Identity of one (machine, trace, warm-up) run.

        Resume refuses a snapshot whose fingerprint differs: continuing a
        run under a different config or trace would produce numbers that
        belong to neither.
        """
        ops = trace.ops
        step = max(1, len(ops) // 256)
        sample = [list(op) for op in ops[::step]]
        return {
            "config": state_digest(machine_config_to_dict(self.config)),
            "trace": {
                "name": trace.name,
                "uop_count": trace.uop_count,
                "op_count": len(ops),
                "ops_digest": state_digest(sample),
            },
            "warmup_uops": warmup_uops,
            "adaptive": self.adaptive is not None,
        }

    def snapshot_path(
        self, directory: str, trace: Trace, warmup_uops: int
    ) -> str:
        """The rolling snapshot file for this run, keyed by fingerprint."""
        key = state_digest(self.run_fingerprint(trace, warmup_uops))[:16]
        return os.path.join(directory, "%s-%s.snap" % (trace.name, key))

    # -- snapshot hooks -------------------------------------------------------

    def state_dict(self) -> dict:
        """The full architectural state of the machine, as a plain tree.

        Composes every component's hook; restoring this tree into a
        freshly-constructed simulator of the same config reproduces the
        remainder of the run bit-identically (the backing memory is
        rebuilt from the workload, not serialized — see
        :meth:`CacheHierarchy.state_dict`).
        """
        return {
            "hierarchy": self.hierarchy.state_dict(),
            "memsys": self.memsys.state_dict(),
            "core": self.core.state_dict(),
            "stride": self.stride.state_dict(),
            "content": self.content.state_dict(),
            "markov": (
                self.markov.state_dict() if self.markov is not None else None
            ),
            "adaptive": (
                self.adaptive.state_dict()
                if self.adaptive is not None else None
            ),
            "faults": (
                self.faults.state_dict() if self.faults is not None else None
            ),
            "result": self.result.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        for name, component in (
            ("markov", self.markov),
            ("adaptive", self.adaptive),
            ("faults", self.faults),
        ):
            if (state[name] is None) != (component is None):
                raise ValueError(
                    "snapshot %s presence does not match this machine's "
                    "configuration" % name
                )
        self.hierarchy.load_state_dict(state["hierarchy"])
        self.memsys.load_state_dict(state["memsys"])
        self.core.load_state_dict(state["core"])
        self.stride.load_state_dict(state["stride"])
        self.content.load_state_dict(state["content"])
        if self.markov is not None:
            self.markov.load_state_dict(state["markov"])
        if self.adaptive is not None:
            self.adaptive.load_state_dict(state["adaptive"])
        if self.faults is not None:
            self.faults.load_state_dict(state["faults"])
        self.result.load_state_dict(state["result"])

    def state_digest(self) -> str:
        """Order-stable digest of :meth:`state_dict`."""
        return state_digest(self.state_dict())


def run_pair(
    config: MachineConfig,
    memory: BackingMemory,
    trace: Trace,
    warmup_uops: int = 0,
) -> tuple[TimingResult, TimingResult]:
    """Run *trace* with and without the content prefetcher.

    Returns ``(baseline_result, content_result)`` where the baseline is the
    stride-prefetcher-only machine the paper measures all speedups against.
    Each run gets a fresh page table (cold caches/TLB) over the shared,
    read-only memory image.
    """
    base_config = config.with_content(enabled=False)
    baseline = TimingSimulator(base_config, memory).run(trace, warmup_uops)
    enhanced = TimingSimulator(config, memory).run(trace, warmup_uops)
    return baseline, enhanced
