"""Server-side hardening of the HTTP front end.

Connection caps, slowloris timeouts, per-token rate limiting, graceful
drain, server-side deadline shedding, and the full ``_authenticate``
edge-case matrix — everything a hostile or merely unlucky network can
throw at a listener.  Raw-socket helpers are used where the real
clients are too well-behaved to produce the malformed input.
"""

import asyncio
import json

import pytest

from repro.params import MachineConfig
from repro.service import (
    AsyncServiceClient,
    Priority,
    ServiceHTTPError,
    ServiceHTTPServer,
    SimRequest,
    SimulationService,
)

SCALE = 0.02

TOKENS = {"tok-inter": Priority.INTERACTIVE, "tok-sweep": Priority.SWEEP}


def _request(seed=1, **kwargs):
    defaults = dict(
        machine=MachineConfig(), benchmark="b2c", scale=SCALE,
        seed=seed, mode="functional",
    )
    defaults.update(kwargs)
    return SimRequest(**defaults)


def _drive(coroutine):
    return asyncio.run(coroutine)


async def _serving(tmp_path, tokens=None, **server_kwargs):
    service = SimulationService(str(tmp_path / "cache"))
    server = ServiceHTTPServer(service, port=0, tokens=tokens,
                               **server_kwargs)
    await server.start()
    return service, server


async def _teardown(service, server, client=None):
    if client is not None:
        await client.close()
    await server.close()
    await service.shutdown(drain=False)


async def _raw(port, payload: bytes, timeout: float = 5.0):
    """Write raw bytes, read the full raw response (or b'' on close)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if payload:
            writer.write(payload)
            await writer.drain()
        return await asyncio.wait_for(reader.read(65536), timeout)
    finally:
        writer.close()


def _get(path: str, *headers: str) -> bytes:
    lines = ["GET %s HTTP/1.1" % path, "Host: t", "Content-Length: 0",
             *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _status_of(raw: bytes) -> int:
    return int(raw.split(None, 2)[1])


def _body_of(raw: bytes) -> dict:
    return json.loads(raw.split(b"\r\n\r\n", 1)[1].decode())


class TestAuthenticateEdgeCases:
    """Satellite 3: the full malformed-Authorization matrix."""

    CASES = [
        (),                                        # no header at all
        ("Authorization: Token tok-inter",),       # wrong scheme
        ("Authorization: Bearer",),                # scheme, no value
        ("Authorization: Bearer ",),               # empty bearer value
        ("Authorization: Bearer nope",),           # unknown token
        ("Authorization: tok-inter",),             # bare token, no scheme
    ]

    def test_malformed_and_unknown_credentials_are_401(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, tokens=TOKENS)
            responses = []
            for case in self.CASES:
                responses.append(
                    await _raw(server.port, _get("/v1/jobs", *case))
                )
            await _teardown(service, server)
            return responses

        for raw in _drive(scenario()):
            assert _status_of(raw) == 401
            assert b"WWW-Authenticate: Bearer" in raw
            assert _body_of(raw)["code"] == "unauthorized"

    def test_bearer_scheme_is_case_insensitive(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, tokens=TOKENS)
            raw = await _raw(
                server.port,
                _get("/v1/jobs", "Authorization: BEARER tok-sweep"),
            )
            await _teardown(service, server)
            return raw

        raw = _drive(scenario())
        assert _status_of(raw) == 200

    def test_listing_requires_auth_but_probes_do_not(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, tokens=TOKENS)
            anonymous = AsyncServiceClient(port=server.port)
            with pytest.raises(ServiceHTTPError) as listing:
                await anonymous.list_jobs()
            health = await anonymous.health()
            await anonymous.close()
            sweeper = AsyncServiceClient(port=server.port, token="tok-sweep")
            listed = await sweeper.list_jobs()
            await _teardown(service, server, sweeper)
            return listing.value, health, listed

        listing, health, listed = _drive(scenario())
        assert listing.status == 401
        assert health["status"] == "ok"
        assert listed["count"] == 0

    def test_sweep_token_is_deescalated_on_submit(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, tokens=TOKENS)
            sweeper = AsyncServiceClient(port=server.port, token="tok-sweep")
            capped = await sweeper.submit(_request(), priority="interactive")
            await sweeper.close()
            interactive = AsyncServiceClient(port=server.port,
                                             token="tok-inter")
            granted = await interactive.submit(
                _request(seed=2), priority="interactive"
            )
            await interactive.run(_request(seed=1))
            await interactive.run(_request(seed=2))
            await _teardown(service, server, interactive)
            return capped, granted

        capped, granted = _drive(scenario())
        assert capped["priority"] == "sweep"
        assert granted["priority"] == "interactive"


class TestConnectionCap:
    def test_over_cap_connections_get_typed_503(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, max_connections=1)
            # Occupy the only slot with an idle keep-alive connection.
            holder_r, holder_w = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await asyncio.sleep(0.05)  # let the server count it
            raw = await _raw(server.port, _get("/health"))
            holder_w.close()
            await asyncio.sleep(0.05)  # slot released
            ok = await _raw(server.port, _get("/health"))
            await asyncio.sleep(0.05)  # that probe's slot released too
            metrics = (await _raw(server.port, _get("/metrics"))).decode()
            await _teardown(service, server)
            return raw, ok, metrics

        raw, ok, metrics = _drive(scenario())
        assert _status_of(raw) == 503
        body = _body_of(raw)
        assert body["code"] == "server_busy"
        assert b"Retry-After: 1" in raw
        assert _status_of(ok) == 200  # cap is a gate, not a death spiral
        assert "repro_service_http_connections_refused_total 1" in metrics


class TestSlowlorisTimeouts:
    def test_stalled_headers_get_408(self, tmp_path):
        async def scenario():
            service, server = await _serving(
                tmp_path, header_timeout=0.2, body_timeout=0.2
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Send the request line, then stall mid-headers.
            writer.write(b"GET /health HTTP/1.1\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(65536), 5.0)
            writer.close()
            metrics_raw = await _raw(server.port, _get("/metrics"))
            await _teardown(service, server)
            return raw, metrics_raw.decode()

        raw, metrics = _drive(scenario())
        assert _status_of(raw) == 408
        assert _body_of(raw)["code"] == "request_timeout"
        assert "repro_service_http_request_timeouts_total 1" in metrics

    def test_trickled_headers_get_408_within_the_head_timeout(self, tmp_path):
        # One header line every 0.6 x header_timeout: no single line's
        # read ever stalls that long, but the head as a whole must not
        # take longer than header_timeout either.
        header_timeout = 0.25

        async def scenario():
            service, server = await _serving(
                tmp_path, header_timeout=header_timeout,
                body_timeout=header_timeout,
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            loop = asyncio.get_running_loop()
            started = loop.time()
            writer.write(b"GET /health HTTP/1.1\r\n")
            await writer.drain()
            answer = asyncio.ensure_future(reader.read(65536))
            for index in range(40):
                done, _ = await asyncio.wait(
                    {answer}, timeout=0.6 * header_timeout
                )
                if done:
                    break
                writer.write(b"X-Trickle-%d: 1\r\n" % index)
                await writer.drain()
            raw = await asyncio.wait_for(answer, 5.0)
            elapsed = loop.time() - started
            writer.close()
            metrics_raw = await _raw(server.port, _get("/metrics"))
            await _teardown(service, server)
            return raw, elapsed, metrics_raw.decode()

        raw, elapsed, metrics = _drive(scenario())
        assert _status_of(raw) == 408
        assert _body_of(raw)["code"] == "request_timeout"
        assert elapsed < 3 * header_timeout
        assert "repro_service_http_request_timeouts_total 1" in metrics

    def test_idle_connection_is_closed_quietly(self, tmp_path):
        async def scenario():
            service, server = await _serving(
                tmp_path, header_timeout=0.2, body_timeout=0.2
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # No bytes at all: an idle keep-alive slot, not an attack —
            # the server reclaims it without wasting a 408 on nobody.
            raw = await asyncio.wait_for(reader.read(65536), 5.0)
            writer.close()
            await _teardown(service, server)
            return raw

        assert _drive(scenario()) == b""


class TestRateLimiting:
    def test_burst_exhaustion_is_429_with_retry_after(self, tmp_path):
        async def scenario():
            service, server = await _serving(
                tmp_path, rate_limit=2.0, rate_burst=3.0
            )
            client = AsyncServiceClient(port=server.port)
            outcomes = []
            for _ in range(5):
                try:
                    await client.job_status("f" * 32)
                    outcomes.append(200)
                except ServiceHTTPError as exc:
                    outcomes.append(exc.status)
                    if exc.status == 429:
                        limited = exc
                        break
            metrics = await client.metrics()
            await _teardown(service, server, client)
            return outcomes, limited, metrics

        outcomes, limited, metrics = _drive(scenario())
        # Three burst tokens spent on 404s, then the bucket is empty.
        assert outcomes == [404, 404, 404, 429]
        assert limited.code == "rate_limited"
        assert "(2 req/s)" in str(limited)
        assert limited.retry_after is not None and limited.retry_after > 0
        assert "repro_service_http_rate_limited_total 1" in metrics
        assert "repro_service_rate_limit_effective 2\n" in metrics

    def test_probes_are_never_rate_limited(self, tmp_path):
        async def scenario():
            service, server = await _serving(
                tmp_path, rate_limit=1.0, rate_burst=1.0
            )
            client = AsyncServiceClient(port=server.port)
            healths = [await client.health() for _ in range(10)]
            await _teardown(service, server, client)
            return healths

        assert all(h["status"] == "ok" for h in _drive(scenario()))


class TestServerSideDeadlines:
    def test_expired_deadline_header_is_shed_with_504(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            expired = await _raw(
                server.port, _get("/v1/jobs", "X-Deadline-Ms: 0")
            )
            malformed = await _raw(
                server.port, _get("/v1/jobs", "X-Deadline-Ms: soon")
            )
            metrics = (await _raw(server.port, _get("/metrics"))).decode()
            await _teardown(service, server)
            return expired, malformed, metrics

        expired, malformed, metrics = _drive(scenario())
        assert _status_of(expired) == 504
        assert _body_of(expired)["code"] == "deadline_expired"
        assert _status_of(malformed) == 400
        assert "repro_service_http_deadline_rejected_total 1" in metrics

    def test_generous_deadline_is_accepted_and_computes(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port, deadline=60.0)
            served = await client.run(_request())
            await _teardown(service, server, client)
            return served

        assert _drive(scenario()).uops > 0


class TestDrain:
    def test_drain_finishes_in_flight_and_refuses_new(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            await client.health()  # establish the keep-alive connection
            drain_task = asyncio.ensure_future(server.drain(grace=5.0))
            await asyncio.sleep(0.05)  # listener now closed
            # The open connection still gets served — with close.
            status, headers, body = await client.request("GET", "/health")
            with pytest.raises((ConnectionError, OSError)):
                fresh = AsyncServiceClient(port=server.port)
                try:
                    await fresh.health()
                finally:
                    await fresh.close()
            await drain_task
            await client.close()
            await service.shutdown(drain=False)
            return status, headers, body

        status, headers, body = _drive(scenario())
        assert status == 200
        assert body["status"] == "draining"
        assert headers.get("connection") == "close"
