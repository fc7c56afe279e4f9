"""Service requests and their canonical content addresses.

A :class:`SimRequest` names one complete simulation — machine
configuration, benchmark, scale, seed, warm-up discipline, and simulator
kind — and nothing else.  Because the workload builders are deterministic
functions of ``(benchmark, scale, seed)`` and the simulators are
deterministic functions of the workload and the machine, the request *is*
the result: two requests with equal canonical forms produce bit-identical
results, so the service may serve either one's cached result for the
other.

:func:`request_digest` maps a request to that content address — blake2b
(via :func:`repro.snapshot.digest.state_digest`) over a normalized tree:

* the machine goes through :func:`repro.configio.canonical_machine_dict`,
  which fills defaults and pins numeric types, so a config loaded from a
  partial JSON file digests identically to the equivalent one built in
  Python (``digest(load(dump(c))) == digest(c)``);
* dict ordering never matters (``state_digest`` hashes sorted keys);
* the tree embeds :data:`RESULT_SCHEMA_VERSION`.  Bump it whenever a
  simulator change alters what any request would compute — every old
  cache entry then misses instead of serving stale numbers (the
  invalidation rule documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.configio import canonical_machine_dict, machine_config_from_dict
from repro.params import MachineConfig
from repro.snapshot.digest import state_digest

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "Priority",
    "SimRequest",
    "canonical_request_tree",
    "request_digest",
    "request_from_fingerprint",
]

#: Version of "what a request means".  Bump on any simulator-visible
#: behaviour change (new counter semantics, different event ordering,
#: workload builder tweaks): cached results from older versions must not
#: be served as current ones.
RESULT_SCHEMA_VERSION = 1

_MODES = ("timing", "functional")


class Priority(enum.IntEnum):
    """Scheduling class; lower values are served first.

    ``PREWARM`` is the background class the sweep-cell pre-warmer
    (:mod:`repro.service.prewarm`) submits at: it sorts behind every
    interactive and explicit-sweep job in the queue and is always
    preemptible, so speculation can never delay real work.
    """

    INTERACTIVE = 0
    SWEEP = 1
    PREWARM = 2


@dataclass(frozen=True)
class SimRequest:
    """One content-addressable simulation.

    ``mode`` selects the simulator: ``"timing"`` runs the cycle-accurate
    :class:`~repro.core.simulator.TimingSimulator` (preemptible at
    snapshot boundaries), ``"functional"`` the untimed
    :class:`~repro.core.functional.FunctionalSimulator`.
    """

    machine: MachineConfig
    benchmark: str
    scale: float
    seed: int = 1
    warmup_fraction: float = 0.25
    mode: str = "timing"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                "mode must be one of %s, got %r" % (", ".join(_MODES), self.mode)
            )
        if not isinstance(self.benchmark, str) or not self.benchmark:
            raise ValueError("benchmark must be a non-empty string")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")

    def with_machine(self, machine: MachineConfig) -> "SimRequest":
        return replace(self, machine=machine)

    @classmethod
    def from_dict(cls, data: dict) -> "SimRequest":
        """Build a request from a plain dict (the batch-file format).

        ``machine`` is an optional partial machine-config dict (missing
        components take Table 1 defaults); all other keys mirror the
        dataclass fields.  Unknown keys raise ``ValueError`` — a typoed
        field silently keying a different content address is exactly the
        bug this subsystem exists to prevent.
        """
        if not isinstance(data, dict):
            raise ValueError(
                "request must be an object, got %s" % type(data).__name__
            )
        known = {"machine", "benchmark", "scale", "seed",
                 "warmup_fraction", "mode", "priority"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                "unknown request fields: %s" % ", ".join(sorted(unknown))
            )
        if "benchmark" not in data or "scale" not in data:
            raise ValueError("a request needs at least benchmark and scale")
        machine = machine_config_from_dict(data.get("machine") or {})
        kwargs = {
            key: data[key]
            for key in ("seed", "warmup_fraction", "mode")
            if key in data
        }
        return cls(
            machine=machine,
            benchmark=data["benchmark"],
            scale=float(data["scale"]),
            **kwargs,
        )


def canonical_request_tree(request: SimRequest) -> dict:
    """The normalized tree :func:`request_digest` hashes (see module docs)."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "machine": canonical_machine_dict(request.machine),
        "benchmark": request.benchmark,
        "scale": float(request.scale),
        "seed": int(request.seed),
        "warmup_fraction": float(request.warmup_fraction),
        "mode": request.mode,
    }


def request_digest(request: SimRequest, tree: dict | None = None) -> str:
    """Hex content address of *request* (32 hex chars, blake2b-128).

    *tree*, when given, must be ``canonical_request_tree(request)``: a
    caller that also needs the tree (the scheduler keys the store's
    fingerprint with it) builds it once and hashes that.
    """
    if tree is None:
        tree = canonical_request_tree(request)
    return state_digest(tree)


def request_from_fingerprint(fingerprint: dict) -> SimRequest:
    """Rebuild the :class:`SimRequest` a stored fingerprint names.

    The fingerprint *is* the canonical request tree, so a store entry
    whose envelope survived corruption carries everything needed to
    recompute it — this is what makes scrub-with-repair possible.
    Raises ``ValueError`` for trees from another schema version (their
    digests could never match a current request, so recomputing them
    would fill a slot nothing will ever read).
    """
    if not isinstance(fingerprint, dict):
        raise ValueError("fingerprint must be a dict")
    schema = fingerprint.get("schema")
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(
            "fingerprint schema %r is not current (%d); the entry is "
            "orphaned, not repairable" % (schema, RESULT_SCHEMA_VERSION)
        )
    try:
        return SimRequest(
            machine=machine_config_from_dict(fingerprint["machine"]),
            benchmark=fingerprint["benchmark"],
            scale=float(fingerprint["scale"]),
            seed=int(fingerprint["seed"]),
            warmup_fraction=float(fingerprint["warmup_fraction"]),
            mode=fingerprint["mode"],
        )
    except KeyError as exc:
        raise ValueError("fingerprint is missing field %s" % exc) from None


def parse_priority(value) -> Priority:
    """Priority from a batch-file value (name, int, or Priority)."""
    if isinstance(value, Priority):
        return value
    if isinstance(value, str):
        try:
            return Priority[value.upper()]
        except KeyError:
            raise ValueError(
                "unknown priority %r (use 'interactive', 'sweep', or "
                "'prewarm')" % value
            ) from None
    if isinstance(value, int) and not isinstance(value, bool):
        return Priority(value)
    raise ValueError("unknown priority %r" % (value,))
