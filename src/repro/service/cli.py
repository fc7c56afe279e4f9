"""Command-line entry point: ``repro-serve`` (``python -m repro.service.cli``).

Subcommands::

    repro-serve batch FILE [--store DIR] [--workers N] [...]
    repro-serve serve [--port P] [--store DIR] [--token TOKEN=PRIORITY] [...]
    repro-serve jobs [--port P] [--state S] [--code C] [--limit N] [--json]
    repro-serve status [--store DIR] [--json]
    repro-serve scrub [--store DIR] [--repair] [--workers N] [--json]

``batch`` runs a JSON request file through a :class:`SimulationService`
and prints one line per request plus the service status report.  A batch
file looks like::

    {
      "requests": [
        {"benchmark": "b2c", "scale": 0.05, "mode": "functional"},
        {"benchmark": "b2c", "scale": 0.05, "mode": "functional",
         "machine": {"content": {"enabled": false}},
         "priority": "interactive"}
      ]
    }

``machine`` is a partial machine-config dict (JSON layout of
:mod:`repro.configio`; omitted fields take Table 1 defaults) and
``priority`` is ``"interactive"`` or ``"sweep"`` (the default).  Because
results are content-addressed in ``--store``, re-running the same batch
is served from cache: that round trip is the CI smoke test.

``--report-json`` writes a machine-readable summary (per-request source
and latency plus the full status counters).

``status`` reports the store's cached entries, the quarantine (damaged
entries moved aside by validation/scrub, and poison jobs refused by the
scheduler), and — when the last service run persisted its counters —
the failure taxonomy of that run.  ``--json`` emits the same facts with
a stable schema: ``{"store": ..., "quarantine": {"entries", "jobs"},
"last_run": ...|null}``.

``serve`` runs the HTTP front end (:mod:`repro.service.http`) over a
local :class:`SimulationService` until SIGINT/SIGTERM: submit / status /
result endpoints plus ``/health`` and Prometheus ``/metrics``.
``--token TOKEN=PRIORITY`` (repeatable) enables bearer-token auth and
maps each token to its priority ceiling; with no tokens, auth is off and
the request body's ``priority`` field is honoured.  The bound address is
printed on startup (``--port 0`` picks a free port — handy under CI).
Network hardening knobs: ``--max-connections``, ``--header-timeout`` /
``--body-timeout`` (slowloris → 408), ``--rate-limit`` (per-token 429 +
``Retry-After``).  SIGTERM *drains*: in-flight requests finish inside
``--drain-grace`` seconds before teardown; SIGINT stops immediately.

``jobs`` asks a *running* server for its operator job listing
(``GET /v1/jobs``), filtered by ``--state`` / ``--code``, newest first.

``scrub`` sweeps every entry through full checksum validation, moving
damaged ones to the quarantine directory (never deleting — forensics
first).  With ``--repair``, entries whose fingerprint survived are
recomputed through a local service and verified back into the store.

Worker tier: ``batch`` and ``serve`` run jobs on ``--workers N``
in-process threads, or with ``--fabric-workers N`` through the
multi-process fabric coordinator (:mod:`repro.service.fabric`), the
only process-worker path; ``scrub --repair`` recomputes on threads.
Every job runs to completion.  ``serve --prewarm`` turns on the
sweep-cell pre-warmer.

Exit codes: 0 — all requests served (``batch``) / store clean or fully
repaired (``scrub``); 2 — bad invocation or malformed batch file; 3 —
some requests failed or were rejected, or unrepaired corruption remains
(the survivors' results are valid and cached).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.request import Priority, SimRequest, parse_priority

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_ERROR = 2
EXIT_PARTIAL = 3

DEFAULT_STORE = "results/service-cache"


def _load_batch(path: str) -> list:
    """``[(SimRequest, Priority), ...]`` from a batch file.

    Malformed files raise ``ValueError`` naming the offending request —
    mirroring :func:`repro.configio.load_machine_config`'s contract.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError("cannot read batch file %r: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("batch file %r is not valid JSON: %s" % (path, exc))
    if isinstance(data, dict):
        entries = data.get("requests")
    else:
        entries = data
    if not isinstance(entries, list) or not entries:
        raise ValueError(
            "batch file %r must contain a non-empty 'requests' list" % path
        )
    batch = []
    for index, entry in enumerate(entries):
        try:
            request = SimRequest.from_dict(entry)
            priority = parse_priority(entry.get("priority", "sweep")) \
                if isinstance(entry, dict) else Priority.SWEEP
        except ValueError as exc:
            raise ValueError("request #%d in %r: %s" % (index, path, exc))
        batch.append((request, priority))
    return batch


def _result_line(result) -> str:
    """One human line summarizing a completed result."""
    if hasattr(result, "cycles") and getattr(result, "cycles", 0):
        return "cycles %.0f, ipc %.3f" % (result.cycles, result.ipc)
    if hasattr(result, "mptu"):
        return "uops %d, mptu %.2f" % (result.uops, result.mptu)
    return type(result).__name__


def _resolve_pool(args):
    """``(workers, worker_mode)``: ``--fabric-workers N``, else threads."""
    if args.fabric_workers:
        return args.fabric_workers, "fabric"
    return args.workers, "thread"


def _cmd_batch(args) -> int:
    from repro.service.client import ServiceSession
    from repro.service.request import request_digest

    try:
        batch = _load_batch(args.file)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR

    workers, worker_mode = _resolve_pool(args)
    session = ServiceSession(
        store_dir=args.store,
        max_workers=workers,
        worker_mode=worker_mode,
        max_pending=args.max_pending,
        job_timeout=args.timeout,
        retries=args.retries,
        stall_timeout=args.stall_timeout,
    )
    with session:
        records = session.submit_batch(batch)
        status = session.status()

    failures = 0
    report_rows = []
    for (request, priority), (source, outcome) in zip(batch, records):
        digest = request_digest(request)
        if isinstance(outcome, BaseException):
            failures += 1
            detail = "%s: %s" % (type(outcome).__name__, outcome)
            state = "failed" if source != "rejected" else "rejected"
        else:
            detail = _result_line(outcome)
            state = source  # cache | dedup | computed
        print(
            "%-12s %-10s %-12s %-11s %s"
            % (digest[:12], request.benchmark, request.mode, state, detail)
        )
        report_rows.append({
            "digest": digest,
            "benchmark": request.benchmark,
            "mode": request.mode,
            "priority": priority.name.lower(),
            "source": state,
            "detail": detail,
        })
    print()
    print(status.render())

    if args.report_json:
        with open(args.report_json, "w") as handle:
            json.dump(
                {"requests": report_rows, "stats": status.as_dict()},
                handle, indent=2,
            )
            handle.write("\n")
    return EXIT_PARTIAL if failures else EXIT_CLEAN


def _parse_tokens(specs) -> dict:
    """``{token: Priority}`` from repeated ``TOKEN=PRIORITY`` options."""
    tokens = {}
    for spec in specs or []:
        token, sep, priority = spec.partition("=")
        if not token or not sep:
            raise ValueError(
                "--token wants TOKEN=PRIORITY, got %r" % spec
            )
        tokens[token] = parse_priority(priority)
    return tokens


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service.http import ServiceHTTPServer
    from repro.service.scheduler import SimulationService

    try:
        tokens = _parse_tokens(args.token)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR

    workers, worker_mode = _resolve_pool(args)

    async def serve() -> int:
        service = SimulationService(
            store=args.store,
            max_workers=workers,
            worker_mode=worker_mode,
            max_pending=args.max_pending,
            job_timeout=args.timeout,
            retries=args.retries,
            stall_timeout=args.stall_timeout,
        )
        if args.prewarm:
            service.enable_prewarm()
        server = ServiceHTTPServer(
            service, host=args.host, port=args.port, tokens=tokens,
            max_connections=args.max_connections,
            header_timeout=args.header_timeout,
            body_timeout=args.body_timeout,
            rate_limit=args.rate_limit,
        )
        await server.start()
        print(
            "repro-serve: http://%s:%d (store %s, %d %s worker%s, auth %s)"
            % (server.host, server.port, args.store, workers,
               worker_mode, "" if workers == 1 else "s",
               "on" if tokens else "off"),
            flush=True,
        )
        stop = asyncio.Event()
        draining = []  # SIGTERM drains; SIGINT still stops hard
        loop = asyncio.get_running_loop()

        def request_stop(drain: bool) -> None:
            if drain:
                draining.append(True)
            stop.set()

        for signum, drain in ((signal.SIGINT, False), (signal.SIGTERM, True)):
            try:
                loop.add_signal_handler(
                    signum, request_stop, drain
                )
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal handlers
        await stop.wait()
        if draining:
            print("repro-serve: draining connections (%.0fs grace)"
                  % args.drain_grace, flush=True)
            await server.drain(grace=args.drain_grace)
        print("repro-serve: shutting down", flush=True)
        await server.close()
        await service.shutdown(drain=True)
        return EXIT_CLEAN

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        return EXIT_CLEAN


def _cmd_jobs(args) -> int:
    """Query a running server's ``GET /v1/jobs`` operator listing."""
    from repro.service.client import ServiceClient, ServiceHTTPError

    client = ServiceClient(
        host=args.host, port=args.port, token=args.token
    )
    try:
        listing = client.list_jobs(
            state=args.state, code=args.code, limit=args.limit
        )
    except ServiceHTTPError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except (ConnectionError, OSError) as exc:
        print("error: cannot reach %s:%d: %s"
              % (args.host, args.port, exc), file=sys.stderr)
        return EXIT_ERROR
    finally:
        client.close()

    if args.json:
        json.dump(listing, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_CLEAN

    jobs = listing.get("jobs", [])
    print("%d job%s (of %d records%s)"
          % (len(jobs), "" if len(jobs) == 1 else "s",
             listing.get("total_records", 0),
             ", truncated" if listing.get("truncated") else ""))
    for job in jobs:
        failure = job.get("failure") or {}
        detail = failure.get("code", "")
        print("  %-16s %-8s %-11s %s"
              % (job.get("digest", "")[:16], job.get("state", "?"),
                 job.get("priority", "?"), detail))
    return EXIT_CLEAN


def _job_quarantine_records(store) -> list:
    """Poison-job record paths under ``<store>/quarantine/jobs/``."""
    import os

    directory = os.path.join(store.directory, "quarantine", "jobs")
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


def _last_run_stats(store) -> dict | None:
    """The counters the last service shutdown persisted, if any."""
    import os

    from repro.service.scheduler import STATS_FILENAME

    path = os.path.join(store.directory, STATS_FILENAME)
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def _cmd_status(args) -> int:
    from repro.service.store import ResultStore

    store = ResultStore(args.store)
    entries = store.entries()
    quarantine = store.quarantine_summary()
    jobs = _job_quarantine_records(store)
    last_run = _last_run_stats(store)

    if args.json:
        json.dump(
            {
                "store": {
                    "directory": store.directory,
                    "entries": len(entries),
                },
                "quarantine": {
                    "entries": quarantine,
                    "jobs": len(jobs),
                },
                "last_run": last_run,
            },
            sys.stdout, indent=2,
        )
        sys.stdout.write("\n")
        return EXIT_CLEAN

    print("result store %s: %d cached result%s"
          % (store.directory, len(entries), "" if len(entries) == 1 else "s"))
    for digest in entries[: args.limit]:
        print("  %s" % digest)
    if len(entries) > args.limit:
        print("  ... %d more" % (len(entries) - args.limit))
    if quarantine["total"]:
        print("quarantined entries: %d" % quarantine["total"])
        for code in sorted(quarantine["by_code"]):
            print("  %-20s %d" % (code, quarantine["by_code"][code]))
    if jobs:
        print("quarantined poison jobs: %d" % len(jobs))
        for path in jobs[: args.limit]:
            print("  %s" % path)
    if last_run is not None:
        codes = last_run.get("failure_codes") or {}
        print("last service run: %d completed, %d failed, breaker %s"
              % (last_run.get("completed", 0), last_run.get("failed", 0),
                 last_run.get("breaker_state", "?")))
        if codes:
            print("  failures by code: "
                  + ", ".join("%s=%d" % (code, codes[code])
                              for code in sorted(codes)))
    return EXIT_CLEAN


def _cmd_scrub(args) -> int:
    if not args.repair:
        from repro.service.store import ResultStore

        report = ResultStore(args.store).scrub()
    else:
        from repro.service.client import ServiceSession

        session = ServiceSession(
            store_dir=args.store, max_workers=args.workers
        )
        with session:
            report = session.scrub(repair=True)

    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(report.render())
    return EXIT_PARTIAL if report.unrepaired else EXIT_CLEAN


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve simulations with content-addressed result "
                    "caching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    batch = sub.add_parser(
        "batch", help="run a JSON batch of requests through the service"
    )
    batch.add_argument("file", help="batch request file (see module docs)")
    batch.add_argument(
        "--store", default=DEFAULT_STORE,
        help="result-store directory (default: %(default)s)",
    )
    batch.add_argument(
        "--workers", type=int, default=1,
        help="worker count (default: 1)",
    )
    batch.add_argument(
        "--fabric-workers", type=int, default=None, metavar="N",
        help="run jobs through a pool of N persistent worker processes "
             "instead of --workers threads",
    )
    batch.add_argument(
        "--max-pending", type=int, default=256,
        help="queued-job bound before typed rejection (default: 256)",
    )
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock timeout in seconds",
    )
    batch.add_argument(
        "--retries", type=int, default=1,
        help="retry budget per job (default: 1)",
    )
    batch.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry a fabric worker whose heartbeat goes "
             "silent this long",
    )
    batch.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="also write a machine-readable report to PATH",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="serve the simulation service over HTTP"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: %(default)s)",
    )
    serve.add_argument(
        "--port", type=int, default=8140,
        help="bind port; 0 picks a free one (default: %(default)s)",
    )
    serve.add_argument(
        "--store", default=DEFAULT_STORE,
        help="result-store directory (default: %(default)s)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker count (default: 2)",
    )
    serve.add_argument(
        "--fabric-workers", type=int, default=None, metavar="N",
        help="run jobs through a pool of N persistent worker processes "
             "instead of --workers threads",
    )
    serve.add_argument(
        "--prewarm", action="store_true",
        help="speculatively pre-compute neighbouring sweep cells at "
             "background priority",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="queued-job bound before a 429 (default: 256)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock timeout in seconds",
    )
    serve.add_argument(
        "--retries", type=int, default=1,
        help="retry budget per job (default: 1)",
    )
    serve.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="heartbeat reaper threshold (fabric workers)",
    )
    serve.add_argument(
        "--token", action="append", metavar="TOKEN=PRIORITY",
        help="enable bearer auth; maps TOKEN to its priority ceiling "
             "(interactive or sweep); repeatable",
    )
    serve.add_argument(
        "--max-connections", type=int, default=256,
        help="open-connection cap; beyond it new connections get an "
             "immediate 503 + Retry-After (default: %(default)s)",
    )
    serve.add_argument(
        "--header-timeout", type=float, default=10.0, metavar="SECONDS",
        help="stalled header read -> 408 and drop (slowloris bound; "
             "default: %(default)s)",
    )
    serve.add_argument(
        "--body-timeout", type=float, default=10.0, metavar="SECONDS",
        help="stalled body read -> 408 and drop (default: %(default)s)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="REQ_PER_SEC",
        help="per-token (or per-anonymous-peer) request rate before a "
             "429 + Retry-After; default: unlimited",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="SIGTERM drain window: finish in-flight requests, then "
             "close (default: %(default)s)",
    )
    serve.set_defaults(func=_cmd_serve)

    jobs = sub.add_parser(
        "jobs", help="list a running server's jobs (GET /v1/jobs)"
    )
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument(
        "--port", type=int, default=8140,
        help="server port (default: %(default)s)",
    )
    jobs.add_argument(
        "--token", default=None,
        help="bearer token, when the server has auth enabled",
    )
    jobs.add_argument(
        "--state", choices=("queued", "running", "done", "failed"),
        default=None, help="only jobs in this state",
    )
    jobs.add_argument(
        "--code", default=None, metavar="TAXONOMY_CODE",
        help="only failed jobs with this failure-taxonomy code",
    )
    jobs.add_argument(
        "--limit", type=int, default=None,
        help="page size (server default 100, cap 1000)",
    )
    jobs.add_argument(
        "--json", action="store_true",
        help="emit the raw listing JSON",
    )
    jobs.set_defaults(func=_cmd_jobs)

    status = sub.add_parser(
        "status", help="inspect a result store and its quarantine"
    )
    status.add_argument(
        "--store", default=DEFAULT_STORE,
        help="result-store directory (default: %(default)s)",
    )
    status.add_argument(
        "--limit", type=int, default=20,
        help="max digests to list (default: 20)",
    )
    status.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable report instead of the listing",
    )
    status.set_defaults(func=_cmd_status)

    scrub = sub.add_parser(
        "scrub",
        help="checksum-verify every stored entry; quarantine damage",
    )
    scrub.add_argument(
        "--store", default=DEFAULT_STORE,
        help="result-store directory (default: %(default)s)",
    )
    scrub.add_argument(
        "--repair", action="store_true",
        help="recompute quarantined-but-fingerprinted entries through a "
             "local service and verify them back into the store",
    )
    scrub.add_argument(
        "--workers", type=int, default=1,
        help="thread count for --repair recomputation (default: 1)",
    )
    scrub.add_argument(
        "--json", action="store_true",
        help="emit the scrub report as JSON",
    )
    scrub.set_defaults(func=_cmd_scrub)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
