"""Process-wide snapshot policy and the wall-clock watchdog.

Mirrors the switch pattern of :func:`repro.core.invariants.set_global_checks`
and :func:`repro.perf.set_enabled`: a module-level policy object that
:meth:`repro.core.simulator.TimingSimulator.run` consults with a single
``None`` check, so snapshotting costs nothing when off.

The watchdog turns a wall-clock budget (a batch scheduler's time limit,
a CI timeout) into preserved work: when the deadline passes, the *next*
snapshot boundary saves state as usual and then raises
:class:`WatchdogExpired`, which the experiments CLI converts into exit
code 4 — "state saved, resume me" — instead of a SIGKILL that loses every
simulated cycle since the run began.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "SnapshotPolicy",
    "WatchdogExpired",
    "active_policy",
    "set_policy",
]


class WatchdogExpired(Exception):
    """The wall-clock deadline passed; state was snapshotted first.

    ``path`` is the snapshot file the run saved before raising, ``uop``
    the µop position it covers.
    """

    def __init__(self, path: str, uop: int) -> None:
        super().__init__(
            "wall-clock deadline expired; state snapshotted to %s "
            "at uop %d (resume with --resume-from)" % (path, uop)
        )
        self.path = path
        self.uop = uop


@dataclass
class SnapshotPolicy:
    """Periodic-snapshot configuration for timing runs.

    Parameters
    ----------
    every:
        µops between snapshot boundaries (must be positive).  At each
        boundary the run records a state digest into its result and, if
        *directory* is set, saves a full snapshot file.
    directory:
        Where snapshot files live, one per run key (trace + config
        fingerprint).  ``None`` records digests only — useful for
        divergence hunting without disk traffic.
    resume:
        Look for an existing snapshot of each run in *directory* and
        resume from it instead of starting cold.
    deadline:
        Wall-clock budget in seconds, measured from policy creation.
        Once exceeded, the next snapshot boundary saves and raises
        :class:`WatchdogExpired`.
    """

    every: int
    directory: str | None = None
    resume: bool = False
    deadline: float | None = None
    _started: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.every <= 0:
            raise ValueError("snapshot interval must be positive")
        if self.resume and self.directory is None:
            raise ValueError("resume requires a snapshot directory")
        if self.deadline is not None and self.directory is None:
            raise ValueError(
                "a watchdog deadline requires a snapshot directory "
                "(expiry saves state before exiting)"
            )
        self._started = time.monotonic()

    def expired(self) -> bool:
        """Should the next boundary save state and stop this run?"""
        if self.deadline is None:
            return False
        return (time.monotonic() - self._started) >= self.deadline


_ACTIVE: SnapshotPolicy | None = None


def set_policy(policy: SnapshotPolicy | None) -> SnapshotPolicy | None:
    """Install the process-wide policy; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = policy
    return previous


def active_policy() -> SnapshotPolicy | None:
    return _ACTIVE
