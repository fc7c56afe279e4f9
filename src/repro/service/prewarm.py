"""Sweep-cell pre-warmer: speculative neighbour prefetch, one layer up.

The paper's prefetcher predicts *addresses* from content; the serving
tier can predict *requests* from structure.  Sweep traffic walks a
regular parameter lattice — the canonical experiment grids (figure 7's
``(compare_bits, filter_bits)`` sweep, figure 9's width/depth grid),
the Table 2 benchmark order, the scale ladder, and the seed line — so
each served cell names its likely successors: the neighbouring cells
along every lattice axis the request sits on.

:class:`Prewarmer` watches real submissions (the scheduler calls
:meth:`on_request` after each interactive or sweep submit), predicts
the neighbours, and enqueues the ones not already cached or in flight
at :data:`~repro.service.request.Priority.PREWARM` — a class that sorts
behind all real work.  A started cell runs to completion like any other
job, so two further rules keep speculation out of real work's way:

* a prewarm job is only issued while the real queue is **empty** (a
  backlogged service has better uses for every worker), and
* at most ``max_inflight`` speculative jobs exist at once; excess
  predictions are silently dropped, never queued — and the drop is
  counted, not hidden.

Accounting follows the prefetcher it imitates (predicted / issued /
useful / wasted):

* ``predicted`` — neighbour cells the lattice suggested;
* ``issued``    — predictions actually submitted (not cached, not in
  flight, within budget);
* ``useful``    — issued cells later named by a *real* request: the
  speculation turned a cold compute into a cache hit (or a join onto
  an already-running job — a partial hit, counted the same way);
* ``wasted``    — issued cells that finished computing and have not
  been claimed by any real request (a live gauge, not a final verdict:
  a later sweep can still claim them — cached results stay useful).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import partial

from .request import Priority, SimRequest, request_digest

__all__ = [
    "DEFAULT_SCALES",
    "LatticeAxis",
    "Prewarmer",
    "default_axes",
    "neighbours",
]

#: The scale ladder experiments actually use (EXPERIMENTS.md): a
#: request whose scale sits on this ladder predicts the rungs beside it.
DEFAULT_SCALES = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class LatticeAxis:
    """One machine-config axis of the canonical sweep lattice.

    *paths* are dotted paths into the canonical machine dict (e.g.
    ``("content.prev_lines", "content.next_lines")`` — a joint axis
    moves its paths together, exactly like the experiment grids that
    sweep them as pairs).  *values* is the ordered tuple of lattice
    points, each a tuple matching *paths*.  A request whose current
    point is not on the lattice contributes no neighbours along that
    axis: the pre-warmer only speculates where the grid is known.
    """

    name: str
    paths: tuple
    values: tuple


def default_axes() -> tuple:
    """The machine-knob axes of the paper's own sweep grids."""
    from repro.experiments.fig7 import PAPER_SWEEP
    from repro.experiments.fig9 import DEPTHS, WIDTHS

    return (
        LatticeAxis(
            "window",
            ("content.prev_lines", "content.next_lines"),
            tuple(WIDTHS),
        ),
        LatticeAxis(
            "match",
            ("content.compare_bits", "content.filter_bits"),
            tuple(PAPER_SWEEP),
        ),
        LatticeAxis(
            "depth",
            ("content.depth_threshold",),
            tuple((depth,) for depth in DEPTHS),
        ),
    )


def _get_path(tree: dict, path: str):
    node = tree
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _set_path(tree: dict, path: str, value) -> None:
    keys = path.split(".")
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _scale_index(scale: float, ladder) -> int | None:
    for index, rung in enumerate(ladder):
        if abs(scale - rung) < 1e-12:
            return index
    return None


def neighbours(
    request: SimRequest,
    axes: tuple | None = None,
    benchmarks: tuple | None = None,
    scales: tuple = DEFAULT_SCALES,
    seed_radius: int = 1,
) -> list:
    """The requests one lattice step from *request*, nearest axes first.

    Order is deliberate: machine-knob neighbours (the cells a config
    sweep visits next) come before benchmark, scale, and seed
    neighbours, so a tight issue budget spends itself on the most
    likely successors.
    """
    from repro.configio import machine_config_from_dict, machine_config_to_dict

    if axes is None:
        axes = default_axes()
    if benchmarks is None:
        from repro.workloads.suite import benchmark_names

        benchmarks = tuple(benchmark_names())

    out: list = []
    tree = machine_config_to_dict(request.machine)
    for axis in axes:
        current = tuple(_get_path(tree, path) for path in axis.paths)
        if current not in axis.values:
            continue
        index = axis.values.index(current)
        for step in (index - 1, index + 1):
            if not 0 <= step < len(axis.values):
                continue
            moved = copy.deepcopy(tree)
            for path, value in zip(axis.paths, axis.values[step]):
                _set_path(moved, path, value)
            out.append(
                request.with_machine(machine_config_from_dict(moved))
            )
    if request.benchmark in benchmarks:
        index = benchmarks.index(request.benchmark)
        for step in (index - 1, index + 1):
            if 0 <= step < len(benchmarks):
                out.append(replace(request, benchmark=benchmarks[step]))
    rung = _scale_index(request.scale, scales)
    if rung is not None:
        for step in (rung - 1, rung + 1):
            if 0 <= step < len(scales):
                out.append(replace(request, scale=scales[step]))
    for delta in range(-seed_radius, seed_radius + 1):
        seed = request.seed + delta
        if delta != 0 and seed >= 1:
            out.append(replace(request, seed=seed))
    return out


class Prewarmer:
    """Speculates neighbouring sweep cells into the service's cache."""

    def __init__(
        self,
        service,
        axes: tuple | None = None,
        max_inflight: int = 2,
        max_per_request: int = 8,
        scales: tuple = DEFAULT_SCALES,
        seed_radius: int = 1,
    ) -> None:
        self.service = service
        self.axes = axes
        self.max_inflight = int(max_inflight)
        self.max_per_request = int(max_per_request)
        self.scales = scales
        self.seed_radius = int(seed_radius)
        self.predicted = 0
        self.issued = 0
        self.useful = 0
        self.dropped = 0
        self._issued: set = set()     # issued, not yet claimed by real work
        self._unclaimed: set = set()  # issued AND finished, never claimed
        self._inflight: set = set()

    # -- hooks the scheduler calls --------------------------------------------

    def note_real_request(self, digest: str) -> None:
        """A real (non-prewarm) submission named *digest*: claim it.

        Called for every real submit before it is served, so a cache
        hit, a dedup join onto the running speculation, and even a join
        onto a still-queued one all count as the speculation being
        useful — the standard prefetch-accounting treatment of full
        and partial hits.
        """
        if digest in self._issued:
            self._issued.discard(digest)
            self._unclaimed.discard(digest)
            self.useful += 1

    def on_request(self, request: SimRequest, digest: str) -> None:
        """Predict and (budget allowing) issue *request*'s neighbours.

        Deferred by the scheduler (``loop.call_soon``) so speculation
        never re-enters ``submit``.  Every failure mode inside is a
        silent drop: the pre-warmer must not be able to fail a real
        request's turn.
        """
        if self.service.closed:
            return
        try:
            cells = neighbours(
                request, axes=self.axes, scales=self.scales,
                seed_radius=self.seed_radius,
            )[: self.max_per_request]
        except Exception:  # noqa: BLE001 - speculation is best-effort
            return
        for cell in cells:
            self.predicted += 1
            try:
                cell_digest = request_digest(cell)
            except Exception:  # noqa: BLE001
                continue
            if cell_digest == digest or cell_digest in self._issued:
                continue
            if (cell_digest in self.service._inflight
                    or cell_digest in self.service.store):
                continue
            if (len(self._inflight) >= self.max_inflight
                    or self.service._queued > 0):
                self.dropped += 1
                continue
            try:
                job = self.service.submit(cell, Priority.PREWARM)
            except Exception:  # noqa: BLE001 - full/quarantined/closed
                self.dropped += 1
                continue
            self.issued += 1
            self._issued.add(cell_digest)
            self._inflight.add(cell_digest)
            job.future.add_done_callback(
                partial(self._finished, cell_digest)
            )

    def _finished(self, digest: str, future) -> None:
        self._inflight.discard(digest)
        try:
            failed = future.exception() is not None
        except Exception:  # noqa: BLE001 - cancelled
            failed = True
        if not failed and digest in self._issued:
            self._unclaimed.add(digest)

    # -- reporting ------------------------------------------------------------

    @property
    def wasted(self) -> int:
        return len(self._unclaimed)

    def stats_dict(self) -> dict:
        return {
            "predicted": self.predicted,
            "issued": self.issued,
            "useful": self.useful,
            "wasted": self.wasted,
            "dropped": self.dropped,
            "inflight": len(self._inflight),
        }
