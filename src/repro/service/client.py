"""In-process client API: batches, sweeps, and a sync session facade.

Two layers:

* **async helpers** against a running :class:`SimulationService` —
  :func:`sweep_speedups` re-expresses the classic
  :func:`repro.experiments.common.timing_speedups` sweep as a batch of
  content-addressed requests (one baseline + one enhanced cell per
  benchmark).  Because cells are cached by digest, re-running a sweep
  after changing one parameter recomputes only the changed cells.

* :class:`ServiceSession` — a synchronous facade that owns a private
  event loop on a background thread, so plain blocking code (the
  experiments CLI, scripts, tests) can use the service without being
  rewritten as coroutines.  ``session.install()`` plugs the session into
  :func:`repro.experiments.common.set_speedup_provider`, at which point
  every existing experiment sweep transparently runs through the
  service's cache.

* **HTTP clients** against a ``repro-serve serve`` front end
  (:mod:`repro.service.http`) — :class:`AsyncServiceClient` (asyncio,
  persistent keep-alive connection, what
  :func:`repro.faults.net.storm_traffic` and the benchmark drive)
  holds the one implementation of the protocol; :class:`ServiceClient`
  (blocking, for scripts and notebooks) runs it on a private event
  loop.  Results decode through
  :func:`repro.service.http.decode_result` (digest-verified), and
  non-2xx responses raise :class:`ServiceHTTPError` carrying the
  failure-taxonomy code, any ``Retry-After`` hint, and the attempt
  count.

Network resilience (opt-in via :class:`RetryPolicy`):

* **capped jittered-backoff retries** across connection failures,
  response corruption (any parse/digest failure), per-attempt timeouts,
  and retryable statuses (429/503 by default) — honouring the server's
  ``Retry-After`` hint when one is sent;
* **deadline budgets** — a per-request wall-clock budget, propagated to
  the server as ``X-Deadline-Ms`` (remaining milliseconds, recomputed
  per attempt) so the server can shed work whose caller has already
  given up.  The client raises a typed ``deadline_expired`` error once
  the budget is gone, and the last error at once when a backoff would
  outlast the budget; one budget covers a call's every attempt.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import threading

from repro.experiments import common as _common
from repro.params import MachineConfig
from repro.service.request import Priority, SimRequest
from repro.service.scheduler import SimulationService

__all__ = [
    "AsyncServiceClient",
    "RetryPolicy",
    "ServiceClient",
    "ServiceHTTPError",
    "ServiceSession",
    "sweep_requests",
    "sweep_speedups",
]


def baseline_machine(config: MachineConfig) -> MachineConfig:
    """The stride-only baseline every speedup is measured against."""
    return config.with_content(enabled=False).with_markov(enabled=False)


def sweep_requests(
    config: MachineConfig,
    benchmarks,
    scale: float,
    seed: int = 1,
    baseline_config: MachineConfig | None = None,
    warmup_fraction: float = 0.25,
) -> list:
    """The (baseline, enhanced) request pairs of one sweep.

    Returns ``[(benchmark, baseline_request, enhanced_request), ...]``.
    Baseline requests are identical across the configurations of a sweep,
    so the service's dedup/cache collapses them to one run each.
    """
    if baseline_config is None:
        baseline_config = baseline_machine(config)
    pairs = []
    for name in benchmarks:
        common = {
            "benchmark": name, "scale": scale, "seed": seed,
            "warmup_fraction": warmup_fraction, "mode": "timing",
        }
        pairs.append((
            name,
            SimRequest(machine=baseline_config, **common),
            SimRequest(machine=config, **common),
        ))
    return pairs


async def sweep_speedups(
    service: SimulationService,
    config: MachineConfig,
    benchmarks,
    scale: float,
    seed: int = 1,
    baseline_config: MachineConfig | None = None,
    warmup_fraction: float = 0.25,
    priority: Priority = Priority.SWEEP,
) -> dict:
    """``{benchmark: speedup}`` for one sweep configuration, via *service*."""
    pairs = sweep_requests(
        config, benchmarks, scale, seed=seed,
        baseline_config=baseline_config, warmup_fraction=warmup_fraction,
    )
    jobs = []
    for name, baseline_req, enhanced_req in pairs:
        jobs.append((
            name,
            service.submit(baseline_req, priority),
            service.submit(enhanced_req, priority),
        ))
    speedups = {}
    for name, baseline_job, enhanced_job in jobs:
        baseline = await baseline_job.future
        enhanced = await enhanced_job.future
        speedups[name] = enhanced.speedup_over(baseline)
    return speedups


class _LoopThread:
    """A private event loop running on a daemon thread.

    The blocking facades hand it coroutines with
    ``asyncio.run_coroutine_threadsafe(coroutine, runner.loop)`` and
    block on the result; everything the coroutines touch stays on the
    loop's thread.  The calling thread may run an event loop of its own
    (a notebook's main thread does): the private loop never runs there.
    """

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self.loop)
            ready.set()
            self.loop.run_forever()

        self._thread = threading.Thread(
            target=runner, name=name, daemon=True
        )
        self._thread.start()
        ready.wait()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()


class ServiceSession:
    """Blocking facade over a :class:`SimulationService` on its own loop.

    Usable as a context manager::

        with ServiceSession(store_dir="results/service-cache") as session:
            result = session.run(request)
            sweep = session.speedups(config, ["b2c"], scale=0.05)
            print(session.status().render())

    All service bookkeeping stays on the background loop thread; the
    calling thread only ever blocks on completed futures.
    """

    def __init__(
        self,
        store_dir: str | None = None,
        service: SimulationService | None = None,
        **service_kwargs,
    ) -> None:
        if service is not None and (store_dir is not None or service_kwargs):
            raise ValueError(
                "pass either a prebuilt service or construction kwargs"
            )
        self._prebuilt = service
        self._store_dir = store_dir
        self._service_kwargs = service_kwargs
        self._runner: _LoopThread | None = None
        self.service: SimulationService | None = None
        self._installed_previous = None
        self._installed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ServiceSession":
        if self._runner is not None:
            raise RuntimeError("session already started")
        self._runner = _LoopThread("repro-service-session")
        if self._prebuilt is not None:
            self.service = self._prebuilt
        else:
            self.service = SimulationService(
                store=self._store_dir, **self._service_kwargs
            )
        return self

    def close(self, drain: bool = True) -> None:
        if self._runner is None:
            return
        if self._installed:
            self.uninstall()
        if self.service is not None:
            self._call(self.service.shutdown(drain=drain))
        self._runner.close()
        self._runner = None

    def __enter__(self) -> "ServiceSession":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, coroutine):
        if self._runner is None:
            raise RuntimeError("session is not started")
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._runner.loop
        ).result()

    # -- blocking request API -------------------------------------------------

    def run(self, request: SimRequest, priority: Priority = Priority.SWEEP):
        """Submit one request and block for its result."""
        return self._call(self.service.run(request, priority))

    def run_batch(self, requests, priority: Priority = Priority.SWEEP) -> list:
        return self._call(self.service.run_batch(requests, priority))

    def submit_batch(self, submissions) -> list:
        """Submit ``(request, priority)`` pairs; returns per-request
        ``(source, result_or_exception)`` records without failing the
        whole batch on one bad request."""

        async def drive() -> list:
            records = []
            jobs = []
            for request, priority in submissions:
                try:
                    job = self.service.submit(request, priority)
                except Exception as exc:  # noqa: BLE001 - typed rejections
                    records.append(("rejected", exc))
                    jobs.append(None)
                    continue
                records.append((job.source, None))
                jobs.append(job)
            results = await asyncio.gather(
                *(job.future for job in jobs if job is not None),
                return_exceptions=True,
            )
            it = iter(results)
            return [
                record if job is None else (record[0], next(it))
                for record, job in zip(records, jobs)
            ]

        return self._call(drive())

    def speedups(
        self,
        config: MachineConfig,
        benchmarks,
        scale: float,
        seed: int = 1,
        baseline_config: MachineConfig | None = None,
    ) -> dict:
        """Blocking :func:`sweep_speedups` — the speedup-provider shape."""
        return self._call(
            sweep_speedups(
                self.service, config, benchmarks, scale,
                seed=seed, baseline_config=baseline_config,
            )
        )

    def status(self):
        async def snap():
            return self.service.status()

        return self._call(snap())

    def scrub(self, repair: bool = False):
        """Run a store scrub through this session's service.

        With ``repair=True``, every quarantined-but-fingerprinted entry
        is recomputed through the service (cache misses by construction
        — the damaged entry was just moved aside — so the worker tier
        does real work) and verified back into the store.  Returns the
        :class:`~repro.service.store.ScrubReport`.
        """
        store = self.service.store
        if store is None:
            raise RuntimeError("this session's service has no store")
        repair_cb = None
        if repair:
            from repro.service.request import (
                request_digest,
                request_from_fingerprint,
            )

            def repair_cb(digest: str, fingerprint: dict) -> bool:
                request = request_from_fingerprint(fingerprint)
                if request_digest(request) != digest:
                    return False  # fingerprint itself is damaged
                self.run(request)
                return True

        return store.scrub(repair=repair_cb)

    # -- experiments integration ----------------------------------------------

    def install(self) -> "ServiceSession":
        """Route :func:`repro.experiments.common.timing_speedups` through
        this session until :meth:`uninstall` (or :meth:`close`)."""
        self._installed_previous = _common.set_speedup_provider(
            self.speedups
        )
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            _common.set_speedup_provider(self._installed_previous)
            self._installed = False
            self._installed_previous = None


# ---------------------------------------------------------------------------
# HTTP clients (server side: repro.service.http)
# ---------------------------------------------------------------------------

class ServiceHTTPError(Exception):
    """A non-2xx response from the serving front end.

    ``code`` is the failure-taxonomy / rejection code from the response
    body (``queue_full``, ``quarantined``, ``unauthorized``, ...);
    ``retry_after`` is the server's backoff hint in seconds when one was
    sent (429/503), else ``None``; ``attempts`` is how many attempts the
    raising client spent before giving up, so callers can tell a hard
    failure from an exhausted retry budget.
    """

    def __init__(self, status: int, body: dict,
                 retry_after: float | None = None,
                 attempts: int = 1) -> None:
        self.status = status
        self.body = body if isinstance(body, dict) else {"error": str(body)}
        self.code = self.body.get("code", "error")
        if retry_after is None:
            retry_after = self.body.get("retry_after")
        self.retry_after = retry_after
        self.attempts = attempts
        super().__init__(
            "HTTP %d [%s]: %s"
            % (status, self.code, self.body.get("error", "request failed"))
        )


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How an HTTP client survives a hostile network.

    ``attempts`` caps total tries per logical request.  Between tries the
    client sleeps a jittered exponential backoff —
    ``backoff * 2^(attempt-1)``, capped at ``max_backoff``, stretched by
    up to ``jitter`` — except when the server sent ``Retry-After``,
    which is honoured verbatim (capped at ``max_backoff``).  Statuses in
    ``statuses`` are retried; every transport failure (reset, truncation,
    corruption caught by parse or digest verification, a stalled attempt
    past ``request_timeout``) is always retried.  ``seed`` makes the
    jitter deterministic for replayable tests.

    Retrying a *submit* is idempotent by construction: requests are
    content-addressed, so a duplicate submit joins the in-flight job or
    hits the cache — it can never run the same work twice concurrently
    or return a different answer.
    """

    attempts: int = 4
    backoff: float = 0.1
    max_backoff: float = 5.0
    jitter: float = 0.5
    statuses: tuple = (429, 503)
    #: Per-attempt wall-clock cap (seconds) on connect, send, response
    #: head and body together; ``None``: no cap.
    request_timeout: float | None = None
    seed: int | None = None

    def rng(self) -> random.Random:
        return random.Random(
            "retry|%s" % self.seed if self.seed is not None else None
        )

    def delay(self, attempt: int, rng, retry_after=None) -> float:
        """Sleep before attempt ``attempt + 1`` (1-based attempts)."""
        if retry_after is not None:
            return min(float(retry_after), self.max_backoff)
        base = min(self.backoff * (2 ** (attempt - 1)), self.max_backoff)
        return base * (1.0 + self.jitter * rng.random())


#: The policy of a client built without one: one reconnect when a
#: keep-alive connection turns out dead, no status retries, no backoff.
_RECONNECT_ONCE = RetryPolicy(attempts=2, backoff=0.0, jitter=0.0,
                              statuses=())

#: What a retrying client treats as "the attempt died in transit":
#: resets, short reads, OS errors (a timed-out attempt's TimeoutError
#: among them), and any parse-level ValueError — a corrupted status
#: line, header, JSON body or result digest all land here.
_TRANSPORT_ERRORS = (
    ConnectionError, asyncio.IncompleteReadError, OSError,
    ValueError, IndexError,
)


def _expired(attempts: int) -> ServiceHTTPError:
    return ServiceHTTPError(
        504,
        {"error": "deadline budget exhausted client-side",
         "code": "deadline_expired"},
        attempts=attempts,
    )


def _decode_payload(payload: dict):
    from repro.service.http import decode_result

    return decode_result(payload)


def _jobs_query(state, code, limit) -> str:
    from urllib.parse import urlencode

    params = [
        (name, value)
        for name, value in (("state", state), ("code", code), ("limit", limit))
        if value is not None
    ]
    return "/v1/jobs" + ("?" + urlencode(params) if params else "")


class AsyncServiceClient:
    """Asyncio client for the HTTP front end, one keep-alive connection.

    Not task-safe by design: one client == one connection == one
    outstanding request (HTTP/1.1 without pipelining).  Concurrency is
    expressed as N clients, one per simultaneous caller.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8140,
                 token: str | None = None,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None) -> None:
        self.host = host
        self.port = port
        self.token = token
        #: ``None``: reconnect once on a dead keep-alive connection, no
        #: status retries, no backoff.
        self.retry = retry
        #: Default per-request wall-clock budget in seconds (propagated
        #: as ``X-Deadline-Ms``); ``None`` means no deadline.
        self.deadline = deadline
        self._rng = retry.rng() if retry is not None else random.Random()
        self._reader = None
        self._writer = None

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _roundtrip(self, method: str, path: str, body: bytes,
                         extra_headers: dict | None):
        """One attempt: connect if needed, send, read head and body."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        headers = [
            "%s %s HTTP/1.1" % (method, path),
            "Host: %s:%d" % (self.host, self.port),
            "Content-Length: %d" % len(body),
        ]
        if self.token:
            headers.append("Authorization: Bearer %s" % self.token)
        if body:
            headers.append("Content-Type: application/json")
        for name, value in (extra_headers or {}).items():
            headers.append("%s: %s" % (name, value))
        raw = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
        self._writer.write(raw)
        await self._writer.drain()

        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        response_headers = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        return status, response_headers, payload

    async def request(self, method: str, path: str, tree=None,
                      deadline: float | None = None):
        """One JSON round trip; returns ``(status, headers, parsed_body)``.

        Survives resets, corruption, stalls and retryable statuses per
        the client's :class:`RetryPolicy` (without one: one reconnect on
        a dead keep-alive connection).  Raises :class:`ServiceHTTPError`
        for status >= 400.
        """
        body = json.dumps(tree).encode() if tree is not None else b""
        return await self._exchange(method, path, body, deadline)

    async def _exchange(self, method: str, path: str, body: bytes,
                        deadline: float | None, decode=None):
        """The request loop every call goes through.

        Each attempt — connect, send, head and body — is capped by the
        policy's ``request_timeout``.  ``decode`` rebuilds a 200 body; a
        ``ValueError`` from it (a payload corrupted in flight that still
        parsed) fails the attempt like a torn read.  One deadline budget
        covers every attempt and every backoff.
        """
        policy = self.retry or _RECONNECT_ONCE
        loop = asyncio.get_running_loop()
        budget = deadline if deadline is not None else self.deadline
        deadline_at = None if budget is None else loop.time() + budget
        headers = None
        attempt = 0
        while True:
            attempt += 1
            if deadline_at is not None:
                remaining = deadline_at - loop.time()
                if remaining <= 0:
                    raise _expired(attempts=attempt - 1)
                headers = {
                    "X-Deadline-Ms": "%d" % max(1, int(remaining * 1000))
                }
            try:
                if policy.request_timeout is None:
                    response = await self._roundtrip(
                        method, path, body, headers
                    )
                else:
                    async with asyncio.timeout(policy.request_timeout):
                        response = await self._roundtrip(
                            method, path, body, headers
                        )
                return self._finish(*response, attempts=attempt,
                                    decode=decode)
            except ServiceHTTPError as exc:
                if exc.status not in policy.statuses \
                        or attempt >= policy.attempts:
                    raise
                pause = self._pause(policy, attempt, exc.retry_after,
                                    deadline_at)
                if pause is None:
                    raise  # the backoff itself would blow the deadline
            except _TRANSPORT_ERRORS:
                self._drop_connection()
                if attempt >= policy.attempts:
                    raise
                pause = self._pause(policy, attempt, None, deadline_at)
                if pause is None:
                    raise  # the backoff itself would blow the deadline
            except asyncio.CancelledError:
                # Abandoned mid-attempt: the stream may hold part of this
                # response, which must never be read as the next one's.
                self._drop_connection()
                raise
            await asyncio.sleep(pause)

    def _drop_connection(self) -> None:
        """Synchronously abandon the connection (transport closes async)."""
        if self._writer is not None:
            try:
                self._writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
            self._reader = self._writer = None

    def _pause(self, policy, attempt, retry_after, deadline_at):
        """Backoff before the next attempt; ``None`` = budget exhausted."""
        pause = policy.delay(attempt, self._rng, retry_after=retry_after)
        if deadline_at is not None and \
                asyncio.get_running_loop().time() + pause >= deadline_at:
            return None
        return pause

    def _finish(self, status, headers, payload, attempts, decode=None):
        """Parse one response; raise typed errors, honour close headers."""
        if headers.get("connection", "").lower() == "close":
            self._drop_connection()
        content_type = headers.get("content-type", "")
        if content_type.startswith("application/json"):
            parsed = json.loads(payload.decode() or "null")
        else:
            parsed = payload.decode()
        if status >= 400:
            retry_after = headers.get("retry-after")
            raise ServiceHTTPError(
                status, parsed,
                retry_after=float(retry_after) if retry_after else None,
                attempts=attempts,
            )
        if decode is not None and status == 200:
            parsed = decode(parsed)
        return status, headers, parsed

    # -- endpoint wrappers --------------------------------------------------

    async def submit(self, request: SimRequest, priority=None) -> dict:
        """``POST /v1/jobs``; returns the acceptance body (with digest)."""
        from repro.service.http import request_to_wire

        _status, _headers, body = await self.request(
            "POST", "/v1/jobs", request_to_wire(request, priority)
        )
        return body

    async def job_status(self, digest: str) -> dict:
        _status, _headers, body = await self.request(
            "GET", "/v1/jobs/%s" % digest
        )
        return body

    async def result(self, digest: str):
        """The decoded (digest-verified) result; ``None`` while pending.

        A payload that fails digest verification (in-flight corruption
        the transport didn't catch) fails its attempt like any other
        transport failure: the request loop drops the connection, backs
        off within the deadline budget, and fetches again.
        """
        status, _headers, result = await self._exchange(
            "GET", "/v1/jobs/%s/result" % digest, b"", None,
            decode=_decode_payload,
        )
        return None if status == 202 else result

    async def list_jobs(self, state: str | None = None,
                        code: str | None = None,
                        limit: int | None = None) -> dict:
        """``GET /v1/jobs`` operator listing (filtered, newest first)."""
        _status, _headers, body = await self.request(
            "GET", _jobs_query(state, code, limit)
        )
        return body

    async def run(self, request: SimRequest, priority=None,
                  poll_interval: float = 0.05, timeout: float = 300.0):
        """Submit and block (polling) until the result is available."""
        accepted = await self.submit(request, priority)
        digest = accepted["digest"]
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            result = await self.result(digest)
            if result is not None:
                return result
            if asyncio.get_running_loop().time() >= deadline:
                raise TimeoutError(
                    "job %s not done within %.1fs" % (digest[:12], timeout)
                )
            await asyncio.sleep(poll_interval)

    async def health(self) -> dict:
        _status, _headers, body = await self.request("GET", "/health")
        return body

    async def metrics(self) -> str:
        _status, _headers, body = await self.request("GET", "/metrics")
        return body


class ServiceClient:
    """Blocking HTTP client: an :class:`AsyncServiceClient` on a private loop.

    For scripts, tests, and notebooks that are not async — the CI smoke
    job drives the server through this class.  Each method runs the
    :class:`AsyncServiceClient` method of the same name on an event loop
    this client owns on a daemon thread, so the keep-alive connection
    survives across calls and the client works from a thread that
    already runs a loop (Jupyter's main thread does).  ``timeout`` caps
    each attempt — connect, send, response head and body — like
    :attr:`RetryPolicy.request_timeout`; when both are set, the smaller
    wins.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8140,
                 token: str | None = None, timeout: float = 60.0,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None) -> None:
        policy = retry or _RECONNECT_ONCE
        if timeout is not None and (policy.request_timeout is None
                                    or timeout < policy.request_timeout):
            policy = dataclasses.replace(policy, request_timeout=timeout)
        self._client = AsyncServiceClient(
            host, port, token=token, retry=policy, deadline=deadline
        )
        self._runner: _LoopThread | None = None

    def _call(self, coroutine):
        if self._runner is None:
            self._runner = _LoopThread("repro-service-client")
        future = asyncio.run_coroutine_threadsafe(
            coroutine, self._runner.loop
        )
        try:
            return future.result()
        except BaseException:
            # Interrupted (Ctrl-C): abandon the call, so that no later
            # call shares the connection with it.
            future.cancel()
            raise

    def close(self) -> None:
        if self._runner is not None:
            self._call(self._client.close())
            self._runner.close()
            self._runner = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str, tree=None,
                deadline: float | None = None):
        return self._call(self._client.request(method, path, tree, deadline))

    def submit(self, request: SimRequest, priority=None) -> dict:
        return self._call(self._client.submit(request, priority))

    def job_status(self, digest: str) -> dict:
        return self._call(self._client.job_status(digest))

    def result(self, digest: str):
        return self._call(self._client.result(digest))

    def list_jobs(self, state: str | None = None, code: str | None = None,
                  limit: int | None = None) -> dict:
        """``GET /v1/jobs`` operator listing (filtered, newest first)."""
        return self._call(self._client.list_jobs(state, code, limit))

    def run(self, request: SimRequest, priority=None,
            poll_interval: float = 0.05, timeout: float = 300.0):
        return self._call(self._client.run(
            request, priority, poll_interval, timeout
        ))

    def health(self) -> dict:
        return self._call(self._client.health())

    def metrics(self) -> str:
        return self._call(self._client.metrics())
