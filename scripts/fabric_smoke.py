#!/usr/bin/env python3
"""CI smoke test for the distributed sweep fabric, end to end.

Drives the real ``repro-serve`` CLI the way an operator would:

1. a **cold batch** through ``--fabric-workers`` against a fresh store
   (every request computed by the persistent-worker fabric);
2. the **same batch again**, in a second and then a third process —
   every request must now be served from the cache;
3. a digest comparison of every stored result against a clean
   single-process in-process run — the fabric must never change an
   answer;
4. an in-process sweep along the figure 9 window axis with the
   pre-warmer enabled — speculation must turn at least one real
   request into a hit (nonzero ``useful``).

It also asserts the stats sidecar accumulated across the batch runs
(``runs`` >= 3) instead of being overwritten — the cross-process merge.

Everything runs under a hard wall-clock watchdog: a hung fabric fails
loudly instead of burning the CI job's global timeout.

Usage::

    PYTHONPATH=src python scripts/fabric_smoke.py [--timeout SECONDS]

Exit code 0 on success; nonzero with a diagnostic on any failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.snapshot.digest import state_digest  # noqa: E402

BATCH_FILE = os.path.join(REPO_ROOT, "examples", "service_batch.json")


class SmokeFailure(Exception):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


class Watchdog:
    def __init__(self, budget: float) -> None:
        self.deadline = time.monotonic() + budget

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise SmokeFailure("wall-clock budget exhausted")
        return left


def _serve_cli(watchdog: Watchdog, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service.cli", *argv],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        timeout=watchdog.remaining(),
    )
    if proc.returncode != 0:
        raise SmokeFailure(
            "repro-serve %s exited %d:\n%s\n%s"
            % (" ".join(argv[:1]), proc.returncode, proc.stdout[-2000:],
               proc.stderr[-2000:])
        )
    return proc


def _batch(watchdog: Watchdog, store: str, report: str) -> dict:
    _serve_cli(
        watchdog, "batch", BATCH_FILE, "--store", store,
        "--fabric-workers", "2", "--report-json", report,
    )
    with open(report) as handle:
        return json.load(handle)


def _sources(report: dict) -> list:
    return [row["source"] for row in report["requests"]]


def _stored_digests(store_dir: str) -> dict:
    from repro.service import ResultStore

    store = ResultStore(store_dir)
    out = {}
    for digest in store.entries():
        result = store.get(digest)
        out[digest] = state_digest(dataclasses.asdict(result))
    return out


def run_smoke(budget: float) -> None:
    watchdog = Watchdog(budget)
    scratch = tempfile.mkdtemp(prefix="fabric-smoke-")
    fabric_store = os.path.join(scratch, "fabric")
    clean_store = os.path.join(scratch, "clean")
    try:
        # 1: cold fabric batch — everything computed by the fabric.
        cold = _batch(watchdog, fabric_store,
                      os.path.join(scratch, "cold.json"))
        _check(all(s == "computed" for s in _sources(cold)),
               "cold batch not fully computed: %s" % _sources(cold))
        _check(cold["stats"]["worker_mode"] == "fabric",
               "cold batch did not run through the fabric pool")
        print("cold fabric batch: %d computed" % len(_sources(cold)))

        # 2: two warm batches, each its own process — all from cache.
        for name in ("warm", "rewarm"):
            warm = _batch(watchdog, fabric_store,
                          os.path.join(scratch, name + ".json"))
            _check(all(s == "cache" for s in _sources(warm)),
                   "%s batch missed cache: %s" % (name, _sources(warm)))
            print("%s fabric batch: %d cache hits"
                  % (name, len(_sources(warm))))

        # The sidecar accumulated across all three batch processes.
        with open(os.path.join(fabric_store, "service-stats.json")) as handle:
            sidecar = json.load(handle)
        _check(sidecar["runs"] >= 3,
               "stats sidecar recorded %d runs, expected >= 3"
               % sidecar["runs"])
        _check(sidecar["submitted"] >= 3 * len(_sources(cold)),
               "stats sidecar lost submissions: %d" % sidecar["submitted"])
        _check(sidecar["cache_hits"] >= 2 * len(_sources(cold)),
               "stats sidecar lost cache hits: %d" % sidecar["cache_hits"])

        # 3: digest identity against a clean single-process run.
        _serve_cli(
            watchdog, "batch", BATCH_FILE, "--store", clean_store,
            "--workers", "1",
            "--report-json", os.path.join(scratch, "ref.json"),
        )
        fabric_digests = _stored_digests(fabric_store)
        clean_digests = _stored_digests(clean_store)
        _check(set(fabric_digests) == set(clean_digests),
               "fabric and clean stores hold different request digests")
        for digest, value in clean_digests.items():
            _check(fabric_digests[digest] == value,
                   "result %s differs between fabric and clean runs" % digest)
        print("digest identity: %d results bit-identical to clean run"
              % len(clean_digests))

        # 4: the pre-warmer turns sweep neighbours into hits.
        stats = _prewarm_sweep(os.path.join(scratch, "prewarm"))
        _check(stats["issued"] >= 1, "pre-warmer issued nothing")
        _check(stats["useful"] >= 1,
               "pre-warm speculation never produced a hit: %s" % stats)
        print("pre-warm sweep: %(issued)d issued, %(useful)d useful, "
              "%(wasted)d wasted" % stats)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _prewarm_sweep(store_dir: str) -> dict:
    import asyncio

    from repro.experiments.fig9 import WIDTHS
    from repro.params import MachineConfig
    from repro.service import SimRequest, SimulationService

    base = MachineConfig()
    cells = [
        SimRequest(
            machine=dataclasses.replace(
                base,
                content=dataclasses.replace(
                    base.content, prev_lines=prev, next_lines=nxt
                ),
            ),
            benchmark="b2c", scale=0.02, seed=1, mode="functional",
        )
        for prev, nxt in WIDTHS
    ]

    async def sweep() -> dict:
        service = SimulationService(
            store_dir, max_workers=2, worker_mode="fabric",
        )
        warm = service.enable_prewarm(max_inflight=4)
        for cell in cells:
            await service.run(cell)
        stats = warm.stats_dict()
        await service.shutdown()
        return stats

    return asyncio.run(sweep())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--timeout", type=float, default=420.0,
        help="hard wall-clock budget in seconds (default 420)",
    )
    args = parser.parse_args(argv)
    try:
        run_smoke(args.timeout)
    except (SmokeFailure, subprocess.TimeoutExpired) as exc:
        print("FABRIC SMOKE FAILED: %s" % exc, file=sys.stderr)
        return 1
    print("fabric smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
