"""Seeded fault injection for the *network* between client and server.

:mod:`repro.faults.injector` perturbs the simulated hardware,
:mod:`repro.faults.infra` perturbs the processes and disks around it —
this module perturbs the wire.  The HTTP front end
(:mod:`repro.service.http`) claims to serve heavy traffic; that claim is
only real if dropped connections, stalled reads, truncated responses,
and flipped bytes are survivable, because on a large fleet they are not
rare events, they are the steady state.

:class:`ChaosTCPProxy` is a transparent TCP proxy (stdlib asyncio, no
protocol knowledge) that sits between the clients and a
``ServiceHTTPServer`` and injects one fault per accepted connection,
decided by a PRNG keyed on ``(chaos seed, connection index)`` — the same
string-seeded scheme as :func:`repro.faults.infra._rng`, so a storm is
fully replayable from its seed alone.  Fault families:

``reset_pre``
    The connection is aborted the moment it is accepted, before a byte
    flows — the classic mid-deploy connection refusal.
``reset_mid_request``
    Half of the client's first write is forwarded upstream, then both
    sides are aborted: the server sees a torn request, the client a
    reset while sending.
``reset_mid_response``
    Half of the server's first write is forwarded downstream, then both
    sides are aborted: the client sees a headers-or-body cut mid-read.
``truncate``
    The first response chunk is cut short and the connection is closed
    *cleanly* (FIN, not RST): a short body against ``Content-Length`` —
    the failure mode checksumming transports exist for.
``corrupt``
    One byte of the first response chunk is inverted and the stream
    otherwise flows normally: the response parses (or doesn't), but the
    payload is wrong — only the client's digest verification catches it.
``stall``
    Slowloris in both directions: the client's request bytes are held
    for ``stall_seconds`` before being forwarded.  The server's
    header-read timeout or the client's per-attempt timeout — whichever
    exists — is what ends it.
``latency``
    A seeded delay is inserted before the response flows — not a
    failure, but a tail-latency spike: the answer is late, not wrong.

Why this is safe to retry against: every service result is
content-addressed by its request digest and digest-verified end to end,
so a retried request can only ever produce a byte-identical
result.  The proxy never changes *what* is computed — only whether a
given attempt's bytes arrive intact — which is exactly the paper's
stateless-prefetch argument transplanted to the transport.

:func:`storm_traffic` drives retrying reads through the proxy.  Used by
``tests/test_faults_net.py`` and ``scripts/soak_serve.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from dataclasses import dataclass

from repro.faults.infra import _rng

__all__ = [
    "ChaosTCPProxy",
    "FAULT_FAMILIES",
    "NetChaosConfig",
    "net_storm",
    "storm_traffic",
]

#: Decision order of the fault families.  Fixed and part of the replay
#: contract: the cumulative-rate roll walks this tuple, so reordering it
#: would change every seeded decision.
FAULT_FAMILIES = (
    "reset_pre",
    "reset_mid_request",
    "reset_mid_response",
    "truncate",
    "corrupt",
    "stall",
    "latency",
)


@dataclass(frozen=True)
class NetChaosConfig:
    """One seeded network-fault profile; rates are per *connection*.

    A connection suffers at most one fault (a single roll against the
    cumulative rates, in :data:`FAULT_FAMILIES` order); the remaining
    probability mass is a clean pass-through.  Keep the sum of rates
    at or below 1.0.
    """

    seed: int = 0
    reset_pre_rate: float = 0.0
    reset_mid_request_rate: float = 0.0
    reset_mid_response_rate: float = 0.0
    truncate_rate: float = 0.0
    corrupt_rate: float = 0.0
    stall_rate: float = 0.0
    #: How long a stalled connection holds its bytes.  Sized to beat the
    #: server's header timeout or the client's attempt timeout — whichever
    #: the scenario wants to exercise.
    stall_seconds: float = 2.0
    latency_rate: float = 0.0
    #: Injected latency window (uniform seconds) for ``latency`` faults.
    latency: tuple = (0.05, 0.25)

    def rates(self) -> dict:
        """``{family: rate}`` in decision order."""
        return {
            "reset_pre": self.reset_pre_rate,
            "reset_mid_request": self.reset_mid_request_rate,
            "reset_mid_response": self.reset_mid_response_rate,
            "truncate": self.truncate_rate,
            "corrupt": self.corrupt_rate,
            "stall": self.stall_rate,
            "latency": self.latency_rate,
        }

    def decide(self, rng) -> str | None:
        """This connection's fault (or ``None``) from one PRNG roll."""
        roll = rng.random()
        acc = 0.0
        for family in FAULT_FAMILIES:
            acc += self.rates()[family]
            if roll < acc:
                return family
        return None


def net_storm(seed: int = 0, stall_seconds: float = 1.0) -> NetChaosConfig:
    """A moderate every-family storm (~45% of connections faulted).

    ``stall_seconds`` defaults short so storm suites keep moving — a
    stalled connection costs one client attempt, not a parked worker.
    """
    return NetChaosConfig(
        seed=seed,
        reset_pre_rate=0.05,
        reset_mid_request_rate=0.05,
        reset_mid_response_rate=0.08,
        truncate_rate=0.07,
        corrupt_rate=0.07,
        stall_rate=0.05,
        stall_seconds=stall_seconds,
        latency_rate=0.08,
    )


async def storm_traffic(host: str, port: int, pool: list, *,
                        concurrency: int, duration: float, retry,
                        churn: int, seed: int) -> dict:
    """Closed-loop reads of *pool* through a storm; returns the tallies.

    *pool* is a list of ``SimRequest`` objects whose results are already
    stored.  Each of *concurrency* callers owns one
    :class:`~repro.service.client.AsyncServiceClient` (with *retry*),
    walks the pool round robin from its own starting offset, and sends
    half its requests, by a seeded coin, at interactive priority and half
    as sweep.  429, 503 and 409 answers are counted and their
    ``Retry-After`` honoured; a connection failure is counted and the
    caller reconnects, never stopping before *duration* is up.  Every
    *churn* requests served (never, if 0), the caller that served the
    last one drops its connection: the proxy decides one fault per
    connection, so churn turns a long run into many independent rolls.
    """
    from repro.service.client import AsyncServiceClient, ServiceHTTPError

    loop = asyncio.get_running_loop()
    served = 0
    rejections = {"429": 0, "503": 0, "409": 0}
    errors = []
    started = loop.time()
    stop_at = started + duration

    async def caller(index: int) -> None:
        nonlocal served
        rng = random.Random(seed * 1000 + index)
        client = AsyncServiceClient(host=host, port=port, retry=retry)
        position = index
        try:
            while loop.time() < stop_at:
                request = pool[position % len(pool)]
                position += concurrency
                priority = "interactive" if rng.random() < 0.5 else "sweep"
                try:
                    await client.run(request, priority=priority,
                                     timeout=max(30.0, duration * 10))
                except ServiceHTTPError as exc:
                    key = str(exc.status)
                    if key not in rejections:
                        errors.append("%s: %s" % (exc.code, exc))
                        continue
                    rejections[key] += 1
                    await asyncio.sleep(min(exc.retry_after or 0.1, 1.0))
                except (ConnectionError, OSError, TimeoutError,
                        ValueError, asyncio.IncompleteReadError) as exc:
                    errors.append("%s: %s" % (type(exc).__name__, exc))
                    client._drop_connection()
                    await asyncio.sleep(min(0.05 + rng.random() * 0.1, 0.2))
                else:
                    served += 1
                    if churn and served % churn == 0:
                        client._drop_connection()
        finally:
            await client.close()

    await asyncio.gather(*(caller(index) for index in range(concurrency)))
    elapsed = loop.time() - started
    return {
        "served": served,
        "elapsed_seconds": round(elapsed, 3),
        "served_per_second": round(served / elapsed, 3),
        "rejections": rejections,
        "errors": len(errors),
        "error_samples": errors[:5],
    }


def _abort(writer) -> None:
    """Hard-close one side (RST where the transport supports it)."""
    if writer is None:
        return
    transport = getattr(writer, "transport", None)
    try:
        if transport is not None:
            transport.abort()
        else:
            writer.close()
    except (ConnectionError, OSError, RuntimeError):
        pass


class ChaosTCPProxy:
    """A seeded byte-mangling TCP proxy in front of one upstream port.

    Construction is cheap; :meth:`start` binds (``port=0`` picks a free
    port, ``self.port`` reports it).  Observability for tests and the
    soak harness: :attr:`connections` counts accepted connections,
    :attr:`injected` counts injected faults by family, and
    :attr:`decisions` logs ``(connection_index, fault_or_None)`` in
    acceptance order — two proxies with the same config produce the
    same decision log, which is what *seeded* chaos means.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        chaos: NetChaosConfig,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.chaos = chaos
        self.host = host
        self.port = port
        self.connections = 0
        self.injected: dict = {}
        self.decisions: list = []
        self._count = itertools.count()
        self._server: asyncio.AbstractServer | None = None
        self._writers: set = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ChaosTCPProxy":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            _abort(writer)
        self._writers.clear()

    async def __aenter__(self) -> "ChaosTCPProxy":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- the per-connection plan -------------------------------------------

    def _record(self, fault: str) -> None:
        self.injected[fault] = self.injected.get(fault, 0) + 1

    async def _handle(self, client_reader, client_writer) -> None:
        index = next(self._count)
        self.connections += 1
        rng = _rng(self.chaos.seed, "conn", index)
        fault = self.chaos.decide(rng)
        self.decisions.append((index, fault))
        if fault is not None:
            self._record(fault)
        self._writers.add(client_writer)
        server_writer = None
        try:
            if fault == "reset_pre":
                _abort(client_writer)
                return
            try:
                server_reader, server_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port
                )
            except OSError:
                _abort(client_writer)
                return
            self._writers.add(server_writer)
            # Per-direction one-shot mutators; decisions that need more
            # randomness (delay lengths, cut points) draw from the same
            # connection-keyed PRNG so the whole plan replays.
            latency_delay = (
                rng.uniform(*self.chaos.latency)
                if fault == "latency" else 0.0
            )
            up = asyncio.ensure_future(self._pump(
                client_reader, server_writer, fault,
                direction="up",
            ))
            down = asyncio.ensure_future(self._pump(
                server_reader, client_writer, fault,
                direction="down", delay=latency_delay,
            ))
            try:
                done, pending = await asyncio.wait(
                    {up, down}, return_when=asyncio.FIRST_COMPLETED
                )
            except asyncio.CancelledError:
                # Event-loop teardown cancelled this handler mid-pump.
                # Absorb it: a cancelled-but-pending handler task makes
                # the stdlib streams connection_made callback log a
                # spurious CancelledError after the loop closes.
                pending = {up, down}
            # One side finished (EOF or abort): tear the other down too —
            # a proxy must not hold half-open connections forever.
            for task in pending:
                task.cancel()
            try:
                await asyncio.gather(up, down, return_exceptions=True)
            except asyncio.CancelledError:
                pass
        finally:
            for writer in (client_writer, server_writer):
                if writer is None:
                    continue
                self._writers.discard(writer)
                try:
                    writer.close()
                except (ConnectionError, OSError, RuntimeError):
                    pass

    async def _pump(self, reader, writer, fault, direction, delay=0.0):
        """Forward bytes one way, applying this direction's fault once.

        ``up`` is client→server (request bytes), ``down`` is
        server→client (response bytes).
        """
        armed = True
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                if armed:
                    armed = False
                    if direction == "up":
                        if fault == "reset_mid_request":
                            writer.write(chunk[: max(1, len(chunk) // 2)])
                            await writer.drain()
                            _abort(writer)
                            return
                        if fault == "stall":
                            # Slowloris: hold the request bytes; whoever
                            # has the tighter timeout wins.
                            await asyncio.sleep(self.chaos.stall_seconds)
                    elif direction == "down":
                        if fault == "reset_mid_response":
                            writer.write(chunk[: max(1, len(chunk) // 2)])
                            await writer.drain()
                            _abort(writer)
                            return
                        if fault == "truncate":
                            # Clean FIN after a short body: the client's
                            # Content-Length read comes up short.
                            writer.write(chunk[: max(1, len(chunk) // 2)])
                            await writer.drain()
                            writer.close()
                            return
                        if fault == "corrupt":
                            # Flip one byte in the back half — usually
                            # the body; a header hit just breaks parsing,
                            # which is equally survivable.
                            mutated = bytearray(chunk)
                            mutated[(len(mutated) * 3) // 4] ^= 0xFF
                            chunk = bytes(mutated)
                        if delay:
                            await asyncio.sleep(delay)
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            return
        finally:
            try:
                if writer.transport is not None \
                        and not writer.transport.is_closing():
                    writer.write_eof()
            except (ConnectionError, OSError, RuntimeError, ValueError):
                pass
