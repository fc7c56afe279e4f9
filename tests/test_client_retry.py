"""Retry, deadline, and per-attempt timeout behavior of the HTTP clients.

The status-code, timeout and deadline paths run against a canned stub
server (exact control over response sequences, pacing and received
headers); the job-listing test runs against the real
``ServiceHTTPServer`` with real simulations behind it.
"""

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro.params import MachineConfig
from repro.service import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceHTTPError,
    ServiceHTTPServer,
    SimRequest,
    SimulationService,
)

SCALE = 0.02


def _request(seed=1, **kwargs):
    defaults = dict(
        machine=MachineConfig(), benchmark="b2c", scale=SCALE,
        seed=seed, mode="functional",
    )
    defaults.update(kwargs)
    return SimRequest(**defaults)


def _drive(coroutine):
    return asyncio.run(coroutine)


class StubServer:
    """One canned JSON response per request, scripted by hit index.

    ``script(hit)`` returns ``(status, body_dict, extra_header_lines)``.
    Every response carries ``Connection: close`` so each client attempt
    is a fresh connection (and a fresh ``hits`` increment).  Received
    request headers are recorded per hit for propagation assertions.
    With ``trickle`` (seconds), the head goes out at once and the body
    one byte per ``trickle``: every read is quick, the response slow.
    """

    def __init__(self, script, trickle=None):
        self.script = script
        self.trickle = trickle
        self.handlers = set()
        self.hits = 0
        self.seen_headers = []
        self.port = None
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()
        # A trickling response can outlive the client that gave up on it.
        for task in self.handlers:
            task.cancel()
        await asyncio.gather(*self.handlers, return_exceptions=True)

    async def _handle(self, reader, writer):
        self.handlers.add(asyncio.current_task())
        try:
            headers = {}
            await reader.readline()  # request line
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            if length:
                await reader.readexactly(length)
            hit = self.hits
            self.hits += 1
            self.seen_headers.append(headers)
            status, body, extra = self.script(hit)
            payload = json.dumps(body).encode()
            head = [
                "HTTP/1.1 %d Stub" % status,
                "Content-Type: application/json",
                "Content-Length: %d" % len(payload),
                "Connection: close",
            ] + list(extra)
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
            if self.trickle is None:
                writer.write(payload)
            else:
                for index in range(len(payload)):
                    await writer.drain()
                    await asyncio.sleep(self.trickle)
                    writer.write(payload[index:index + 1])
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self.handlers.discard(asyncio.current_task())
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass


#: Fast deterministic policy for stub scenarios.
FAST = RetryPolicy(attempts=4, backoff=0.01, max_backoff=0.05,
                   jitter=0.0, seed=1)


def _ok(hit):
    return 200, {"status": "ok"}, []


@contextlib.contextmanager
def _stub_in_background(script, trickle=None):
    """A :class:`StubServer` on an event loop of its own thread.

    A blocking client waits in the calling thread, so the server it
    talks to must run somewhere else.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(30)

    stub = StubServer(script, trickle=trickle)
    call(stub.__aenter__())
    try:
        yield stub
    finally:
        call(stub.__aexit__())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff=0.1, max_backoff=0.5, jitter=0.0)
        rng = policy.rng()
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_retry_after_is_honoured_verbatim_but_capped(self):
        policy = RetryPolicy(backoff=0.1, max_backoff=2.0, jitter=0.0)
        rng = policy.rng()
        assert policy.delay(1, rng, retry_after=0.7) == 0.7
        assert policy.delay(1, rng, retry_after=60.0) == 2.0

    def test_seeded_jitter_is_reproducible(self):
        first = RetryPolicy(jitter=0.5, seed=9)
        second = RetryPolicy(jitter=0.5, seed=9)
        rng_a, rng_b = first.rng(), second.rng()
        assert [first.delay(i, rng_a) for i in range(1, 6)] \
            == [second.delay(i, rng_b) for i in range(1, 6)]


class TestStatusRetries:
    def test_503_is_retried_until_success(self):
        def script(hit):
            if hit < 2:
                return 503, {"error": "warming up", "code": "service_closed"}, \
                    ["Retry-After: 0"]
            return 200, {"status": "ok"}, []

        async def scenario():
            async with StubServer(script) as stub:
                client = AsyncServiceClient(port=stub.port, retry=FAST)
                status, _headers, body = await client.request("GET", "/health")
                await client.close()
                return status, body, stub.hits

        status, body, hits = _drive(scenario())
        assert status == 200
        assert body == {"status": "ok"}
        assert hits == 3

    def test_exhausted_budget_reports_attempts(self):
        def script(hit):
            return 503, {"error": "still down", "code": "service_closed"}, \
                ["Retry-After: 0"]

        async def scenario():
            async with StubServer(script) as stub:
                client = AsyncServiceClient(port=stub.port, retry=FAST)
                with pytest.raises(ServiceHTTPError) as excinfo:
                    await client.request("GET", "/health")
                await client.close()
                return excinfo.value, stub.hits

        error, hits = _drive(scenario())
        assert error.status == 503
        assert error.attempts == FAST.attempts
        assert hits == FAST.attempts

    def test_hard_statuses_are_not_retried(self):
        def script(hit):
            return 404, {"error": "no such job", "code": "not_found"}, []

        async def scenario():
            async with StubServer(script) as stub:
                client = AsyncServiceClient(port=stub.port, retry=FAST)
                with pytest.raises(ServiceHTTPError) as excinfo:
                    await client.request("GET", "/v1/jobs/abc")
                await client.close()
                return excinfo.value, stub.hits

        error, hits = _drive(scenario())
        assert error.status == 404
        assert error.attempts == 1
        assert hits == 1

    def test_retry_after_overrides_a_slow_backoff(self):
        # backoff says 5s; the server's Retry-After: 0 must win, so the
        # whole three-attempt exchange finishes in well under a second.
        slow = RetryPolicy(attempts=4, backoff=5.0, max_backoff=5.0,
                           jitter=0.0, seed=1)

        def script(hit):
            if hit < 2:
                return 429, {"error": "busy", "code": "rate_limited"}, \
                    ["Retry-After: 0"]
            return 200, {"status": "ok"}, []

        async def scenario():
            async with StubServer(script) as stub:
                client = AsyncServiceClient(port=stub.port, retry=slow)
                loop = asyncio.get_running_loop()
                started = loop.time()
                status, _headers, _body = await client.request(
                    "GET", "/health"
                )
                elapsed = loop.time() - started
                await client.close()
                return status, elapsed

        status, elapsed = _drive(scenario())
        assert status == 200
        assert elapsed < 1.0


class TestDeadlines:
    def test_blown_budget_fails_before_the_wire(self):
        def script(hit):  # pragma: no cover - must never be reached
            return 200, {"status": "ok"}, []

        async def scenario():
            async with StubServer(script) as stub:
                client = AsyncServiceClient(port=stub.port, retry=FAST)
                with pytest.raises(ServiceHTTPError) as excinfo:
                    await client.request("GET", "/health", deadline=-0.01)
                await client.close()
                return excinfo.value, stub.hits

        error, hits = _drive(scenario())
        assert error.status == 504
        assert error.code == "deadline_expired"
        assert error.attempts == 0
        assert hits == 0  # shed client-side: the server never saw it

    def test_deadline_is_propagated_as_header(self):
        def script(hit):
            return 200, {"status": "ok"}, []

        async def scenario():
            async with StubServer(script) as stub:
                client = AsyncServiceClient(port=stub.port, retry=FAST)
                await client.request("GET", "/health", deadline=2.0)
                await client.close()
                return stub.seen_headers[0]

        headers = _drive(scenario())
        millis = int(headers["x-deadline-ms"])
        assert 1 <= millis <= 2000

    def test_backoff_that_would_blow_the_deadline_raises_now(self):
        # The server asks for a 5s pause; the remaining budget is ~0.5s.
        # The client must surface the 503 immediately instead of
        # sleeping past its own deadline.
        def script(hit):
            return 503, {"error": "down", "code": "service_closed"}, \
                ["Retry-After: 5"]

        async def scenario():
            async with StubServer(script) as stub:
                client = AsyncServiceClient(
                    port=stub.port,
                    retry=RetryPolicy(attempts=5, backoff=0.01,
                                      max_backoff=10.0, jitter=0.0, seed=1),
                )
                loop = asyncio.get_running_loop()
                started = loop.time()
                with pytest.raises(ServiceHTTPError) as excinfo:
                    await client.request("GET", "/health", deadline=0.5)
                elapsed = loop.time() - started
                await client.close()
                return excinfo.value, elapsed, stub.hits

        error, elapsed, hits = _drive(scenario())
        assert error.status == 503
        assert hits == 1  # no second attempt: the pause was unaffordable
        assert elapsed < 1.0


class TestBlockingClientRetry:
    def test_blocking_client_retries_and_reports_attempts(self):
        def flaky(hit):
            if hit < 1:
                return 503, {"error": "warming", "code": "service_closed"}, \
                    ["Retry-After: 0"]
            return 200, {"status": "ok"}, []

        def dead(hit):
            return 503, {"error": "down", "code": "service_closed"}, \
                ["Retry-After: 0"]

        with _stub_in_background(flaky) as stub:
            with ServiceClient(port=stub.port, retry=FAST) as client:
                status, _headers, body = client.request("GET", "/health")
            assert status == 200 and body == {"status": "ok"}
            assert stub.hits == 2

        with _stub_in_background(dead) as stub:
            with ServiceClient(port=stub.port, retry=FAST) as client:
                with pytest.raises(ServiceHTTPError) as excinfo:
                    client.request("GET", "/health")
            assert excinfo.value.attempts == FAST.attempts


#: One attempt, capped at a second.
CAPPED = RetryPolicy(attempts=1, request_timeout=1.0)


class TestPerAttemptCap:
    """The cap bounds a whole attempt, not each read: a response whose
    bytes each arrive quickly but whose body takes ~4s is cut at ~1s."""

    def test_async_client_caps_the_attempt(self):
        async def scenario():
            async with StubServer(_ok, trickle=0.25) as stub:
                client = AsyncServiceClient(port=stub.port, retry=CAPPED)
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    await client.request("GET", "/health")
                elapsed = time.monotonic() - started
                await client.close()
                return elapsed

        assert _drive(scenario()) < 2.5

    @pytest.mark.parametrize("retry, timeout", [
        (CAPPED, 60.0),                     # the policy's cap
        (RetryPolicy(attempts=1), 1.0),     # the client's own timeout
    ])
    def test_blocking_client_caps_the_attempt(self, retry, timeout):
        with _stub_in_background(_ok, trickle=0.25) as stub:
            with ServiceClient(port=stub.port, timeout=timeout,
                               retry=retry) as client:
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.request("GET", "/health")
                elapsed = time.monotonic() - started
        assert elapsed < 2.5


def _wrong_digest(hit):
    # Parses as a functional result; its state digest does not match.
    return 200, {"kind": "functional", "state": {"name": "x"},
                 "digest": "0" * 32}, []


#: Backoffs of 2s, 4s, 5s: each far beyond the deadline below.
SLOW = RetryPolicy(attempts=4, backoff=2.0, max_backoff=5.0, jitter=0.0)


class TestResultDeadline:
    """One deadline covers result()'s digest retries and their backoffs."""

    def test_async_result_stops_when_the_backoff_would_overrun(self):
        async def scenario():
            async with StubServer(_wrong_digest) as stub:
                client = AsyncServiceClient(port=stub.port, retry=SLOW,
                                            deadline=0.3)
                started = time.monotonic()
                with pytest.raises(ValueError, match="digest mismatch"):
                    await client.result("ab" * 16)
                elapsed = time.monotonic() - started
                await client.close()
                return elapsed, stub.hits

        elapsed, hits = _drive(scenario())
        assert elapsed < 1.0
        assert hits == 1

    def test_blocking_result_stops_when_the_backoff_would_overrun(self):
        with _stub_in_background(_wrong_digest) as stub:
            with ServiceClient(port=stub.port, retry=SLOW,
                               deadline=0.3) as client:
                started = time.monotonic()
                with pytest.raises(ValueError, match="digest mismatch"):
                    client.result("ab" * 16)
                elapsed = time.monotonic() - started
            assert stub.hits == 1
        assert elapsed < 1.0


class TestListJobs:
    def test_listing_filters_by_state_and_code(self, tmp_path):
        async def scenario():
            service = SimulationService(str(tmp_path / "cache"), retries=0)
            server = ServiceHTTPServer(service, port=0)
            await server.start()
            client = AsyncServiceClient(port=server.port)
            await client.run(_request(seed=1))
            await client.run(_request(seed=2))
            bad = await client.submit(_request(benchmark="no-such-benchmark"))
            for _ in range(200):
                status = await client.job_status(bad["digest"])
                if status["state"] == "failed":
                    break
                await asyncio.sleep(0.05)
            everything = await client.list_jobs()
            done = await client.list_jobs(state="done")
            failed = await client.list_jobs(state="failed")
            by_code = await client.list_jobs(code="sim_error")
            page = await client.list_jobs(limit=1)
            with pytest.raises(ServiceHTTPError) as bad_state:
                await client.list_jobs(state="bogus")
            await client.close()
            await server.close()
            await service.shutdown(drain=False)
            return everything, done, failed, by_code, page, bad_state.value

        everything, done, failed, by_code, page, bad_state = \
            _drive(scenario())
        assert everything["count"] == 3
        assert {job["state"] for job in done["jobs"]} == {"done"}
        assert done["count"] == 2
        assert failed["count"] == 1
        assert failed["jobs"][0]["failure"]["code"] == "sim_error"
        assert by_code["count"] == 1
        assert page["count"] == 1 and page["truncated"]
        # Newest first: the failed submit is the most recent record.
        assert everything["jobs"][0]["state"] == "failed"
        assert bad_state.status == 400
