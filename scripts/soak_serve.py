#!/usr/bin/env python
"""Network-chaos soak for the HTTP serving tier.

The proof harness for the serving tier's network resilience: a real
``ServiceHTTPServer`` on a loopback port, a seeded
:class:`repro.faults.net.ChaosTCPProxy` in front of it, and
:func:`repro.faults.net.storm_traffic` driving retrying reads *through
the proxy* for minutes.
Three invariants are asserted, and the run fails loudly if any breaks:

1. **Digest identity** — every result delivered through the storm is
   digest-verified by the client (``decode_result`` raises otherwise),
   and after the storm every pool digest is re-fetched over a clean
   connection and compared against the pre-storm clean run.  A chaos
   proxy that can make the service return a *wrong* answer — not a
   refused one — is a correctness bug, full stop.
2. **No quarantine pollution** — network faults must never be
   misclassified as poison jobs.  The quarantine must be exactly as
   empty after the storm as before it.
3. **Bounded fd / RSS growth** — torn connections must not leak file
   descriptors or memory.  fd count is read from ``/proc/self/fd``
   before and after; RSS from ``/proc/self/status``.

Usage (also the CI ``soak-smoke`` job, with ``--duration 60``)::

    python scripts/soak_serve.py --duration 120 --concurrency 8 --json

Exit codes: 0 = all invariants held, 1 = an invariant broke,
2 = the harness itself failed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.faults.net import (  # noqa: E402
    ChaosTCPProxy,
    net_storm,
    storm_traffic,
)
from repro.params import MachineConfig  # noqa: E402
from repro.service import (  # noqa: E402
    AsyncServiceClient,
    RetryPolicy,
    ServiceHTTPServer,
    SimRequest,
    SimulationService,
    encode_result,
    request_digest,
)

#: Slack on the fd-stability check: the event loop may briefly hold a
#: few sockets in TIME_WAIT teardown when the snapshot is taken.
FD_SLACK = 8

#: RSS growth bound (KiB) across the storm — generous; a connection
#: leak at storm rates would blow through this in seconds.
RSS_SLACK_KIB = 262144  # 256 MiB


def fd_count() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return -1  # not procfs (macOS dev box): check is skipped


def rss_kib() -> int:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return -1


async def soak(args) -> dict:
    service = SimulationService(
        args.store, max_workers=args.workers, worker_mode="thread",
    )
    server = ServiceHTTPServer(
        service, port=0,
        header_timeout=args.read_timeout, body_timeout=args.read_timeout,
    )
    await server.start()
    chaos = net_storm(seed=args.seed, stall_seconds=args.stall_seconds)
    proxy = ChaosTCPProxy("127.0.0.1", server.port, chaos)
    await proxy.start()

    report = {"seed": args.seed, "duration": args.duration,
              "concurrency": args.concurrency, "violations": []}
    try:
        # -- clean baseline: run the pool in-process, record digests ----
        pool = [
            SimRequest(machine=MachineConfig(), benchmark="b2c", scale=0.02,
                       seed=seed, mode="functional")
            for seed in range(1, args.pool_size + 1)
        ]
        results = await service.run_batch(pool)
        clean = {
            request_digest(request): encode_result(result)["digest"]
            for request, result in zip(pool, results)
        }
        report["pool"] = len(pool)

        quarantine_before = service.status().quarantined_jobs
        fd_before = fd_count()
        rss_before = rss_kib()

        # -- the storm: retrying reads through the proxy ---------------
        retry = RetryPolicy(
            attempts=6, backoff=0.05, max_backoff=1.0,
            request_timeout=max(2.0, args.stall_seconds + 1.0),
            seed=args.seed,
        )
        storm = await storm_traffic(
            "127.0.0.1", proxy.port, pool,
            concurrency=args.concurrency, duration=args.duration,
            retry=retry, churn=args.churn, seed=args.seed,
        )
        report["storm"] = storm
        report["proxy"] = {
            "connections": proxy.connections,
            "injected": dict(proxy.injected),
        }

        # -- invariant 1: digest identity over a clean connection ------
        client = AsyncServiceClient(port=server.port)
        mismatched = []
        try:
            for request in pool:
                digest = request_digest(request)
                result = await client.result(digest)
                if result is None:
                    mismatched.append((digest, "missing"))
                    continue
                after = encode_result(result)["digest"]
                if after != clean[digest]:
                    mismatched.append((digest, after))
        finally:
            await client.close()
        report["verified"] = len(pool) - len(mismatched)
        if mismatched:
            report["violations"].append(
                "digest identity broke for %d/%d pool entries: %s"
                % (len(mismatched), len(pool), mismatched[:3])
            )
        if storm["served"] == 0:
            report["violations"].append(
                "storm served zero requests — the soak proved nothing"
            )

        # -- invariant 2: no quarantine pollution ----------------------
        quarantine_after = service.status().quarantined_jobs
        report["quarantined"] = quarantine_after
        if quarantine_after != quarantine_before:
            report["violations"].append(
                "quarantine grew %d -> %d during a network-only storm"
                % (quarantine_before, quarantine_after)
            )
    finally:
        await proxy.close()
        await server.close()
        await service.shutdown(drain=False)

    # -- invariant 3: bounded fd / RSS growth (after full teardown) ----
    await asyncio.sleep(0.2)  # let closed transports finish dying
    fd_after = fd_count()
    rss_after = rss_kib()
    report["fd"] = {"before": fd_before, "after": fd_after}
    report["rss_kib"] = {"before": rss_before, "after": rss_after}
    if fd_before >= 0 and fd_after > fd_before + FD_SLACK:
        report["violations"].append(
            "fd count grew %d -> %d (slack %d): leaked sockets"
            % (fd_before, fd_after, FD_SLACK)
        )
    if rss_before >= 0 and rss_after > rss_before + RSS_SLACK_KIB:
        report["violations"].append(
            "RSS grew %d KiB -> %d KiB: storm leaked memory"
            % (rss_before, rss_after)
        )
    report["ok"] = not report["violations"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=120.0,
                        help="storm length in seconds (default 120)")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pool-size", type=int, default=24)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--stall-seconds", type=float, default=1.0)
    parser.add_argument("--churn", type=int, default=5,
                        help="drop each worker's connection every N "
                             "requests so the proxy rolls more faults")
    parser.add_argument("--read-timeout", type=float, default=0.5,
                        help="server header/body timeout (slowloris bound)")
    parser.add_argument("--store", default=None,
                        help="result-store dir (default: in-memory none)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON on stdout")
    args = parser.parse_args(argv)

    report = asyncio.run(soak(args))

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        storm = report["storm"]
        print("soak: %ds x c%d through seeded storm (seed %d)"
              % (args.duration, args.concurrency, report["seed"]))
        print("  served %d (%.1f/s), rejections %s, conn errors %d"
              % (storm["served"], storm["served_per_second"],
                 storm["rejections"], storm["errors"]))
        print("  proxy: %d connections, injected %s"
              % (report["proxy"]["connections"], report["proxy"]["injected"]))
        print("  digest identity: %d/%d verified"
              % (report["verified"], report["pool"]))
        print("  quarantine: %d, fd %s, rss %s KiB"
              % (report["quarantined"], report["fd"], report["rss_kib"]))
        for violation in report["violations"]:
            print("  VIOLATION: %s" % violation)
        print("  RESULT: %s" % ("ok" if report["ok"] else "FAILED"))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
