"""HTTP serving front end over :class:`~repro.service.scheduler.SimulationService`.

The network face of the serving tier: a small, dependency-free HTTP/1.1
server on ``asyncio.start_server`` (the repo bakes in no web framework,
and needs none — the protocol surface is five endpoints of JSON), run by
``repro-serve serve``.

Endpoints
---------

===========================  ====================================================
``POST /v1/jobs``            Submit a request (the batch-file JSON shape);
                             returns its content digest.  ``200`` when served
                             from cache, ``202`` when accepted for computation.
``GET /v1/jobs``             Operator listing of the jobs this server has
                             seen: ``?state=`` (queued/running/done/failed),
                             ``?code=`` (failure-taxonomy code), ``?limit=``
                             (bounded page size), most recent first.
``GET /v1/jobs/{digest}``    Job status, including the failure-taxonomy code
                             when it failed.
``GET /v1/jobs/{d}/result``  The completed result as a JSON state tree plus its
                             state digest (see :func:`encode_result`).
``GET /health``              Liveness + the load-bearing gauges, always cheap.
``GET /metrics``             Prometheus text exposition of every service
                             counter: per-priority latency aggregates, failure
                             codes, queue depth, breaker state, store and
                             quarantine counts.
===========================  ====================================================

Backpressure is *typed end to end*: the scheduler's rejection exceptions
map onto status codes instead of dissolving into generic 500s —

* :class:`~repro.service.scheduler.QueueFull` → **429** with a
  ``Retry-After`` header carrying the scheduler's drain-rate estimate;
* :class:`~repro.service.scheduler.ServiceDegraded` (breaker open) and
  :class:`~repro.service.scheduler.ServiceClosed` → **503**;
* :class:`~repro.service.scheduler.JobQuarantined` → **409** with the
  poison-job record attached.

Authentication maps bearer tokens to priority classes: the server is
constructed with ``tokens={"<token>": Priority...}``; a request's
effective class is the *weaker* of its token's class and the class it
asked for, so an interactive token may submit sweep cells but a sweep
token can never jump the interactive queue.  With no tokens configured,
auth is disabled (embedded/test mode) and the request body's
``priority`` field is honoured as in batch files.  ``/health`` and
``/metrics`` are never authenticated — probes and scrapers go first.

**Network hardening** (the `repro.faults.net` chaos proxy is the proof
harness for all of it):

* a **connection cap** (``max_connections``) — connections beyond it get
  an immediate 503 + ``Retry-After`` and are closed, so a connection
  flood degrades into polite backpressure instead of fd exhaustion;
* **header/body read timeouts** — a peer that opens a connection and
  trickles bytes (slowloris) is answered 408 and dropped; a fully idle
  keep-alive connection is reclaimed quietly after the same window;
* **per-token rate limiting** (``rate_limit`` requests/sec, token
  bucket with a burst allowance) wired into the existing typed-429 +
  ``Retry-After`` path — keyed by bearer token, or by peer address when
  auth is off;
* **deadline propagation** — clients send ``X-Deadline-Ms`` (remaining
  budget); an already-expired deadline is shed with a typed 504 before
  any work happens, and the scheduler caps the job's wall-clock timeout
  to the remaining budget (:class:`DeadlineExpired` end to end — expired
  work is never silently computed);
* **connection draining** — :meth:`ServiceHTTPServer.drain` (wired to
  SIGTERM in ``repro-serve serve``) stops accepting, finishes in-flight
  requests with ``Connection: close``, and only then tears down.

Results cross the wire as JSON state trees with a blake2b state digest
(:func:`encode_result` / :func:`decode_result`): the client rebuilds the
result object and verifies the digest, so an HTTP round trip is
bit-auditable against an in-process run — the same equivalence
discipline the snapshot and chaos machinery already enforce.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields

from repro.core.results import FunctionalResult, TimingResult
from repro.service.request import (
    Priority,
    SimRequest,
    parse_priority,
)
from repro.service.scheduler import (
    DeadlineExpired,
    JobFailed,
    JobQuarantined,
    QueueFull,
    ServiceClosed,
    ServiceDegraded,
    ServiceRejected,
    SimulationService,
)
from repro.snapshot.digest import state_digest
from repro.snapshot.hooks import dataclass_state, load_dataclass_state

__all__ = [
    "HttpError",
    "ServiceHTTPServer",
    "decode_result",
    "encode_result",
]

#: Largest request body the server will read (a request JSON is a few
#: hundred bytes; anything near this size is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20

_SERVER_NAME = "repro-serve"
_ACCT_FIELDS = ("stride", "content", "markov")


# ---------------------------------------------------------------------------
# result wire format
# ---------------------------------------------------------------------------

def _jsonify(value):
    """JSON-safe copy of a state value (tuples become lists).

    Digest-neutral: :func:`state_digest` encodes tuples and lists
    identically, so the digest of a tree is unchanged by the trip
    through JSON.
    """
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def encode_result(result) -> dict:
    """``{"kind", "state", "digest"}`` wire form of a simulation result.

    ``state`` is the full field tree (every counter, including the
    per-prefetcher accounting); ``digest`` is its blake2b state digest.
    Two results are architecturally identical iff their digests match —
    the HTTP transport inherits the repo's digest-equivalence contract.
    """
    if isinstance(result, TimingResult):
        kind = "timing"
    elif isinstance(result, FunctionalResult):
        kind = "functional"
    else:
        raise TypeError(
            "not a simulation result: %s" % type(result).__name__
        )
    state = {}
    for f in fields(result):
        value = getattr(result, f.name)
        if f.name in _ACCT_FIELDS:
            value = dataclass_state(value)
        state[f.name] = _jsonify(value)
    return {"kind": kind, "state": state, "digest": state_digest(state)}


def decode_result(payload: dict, verify: bool = True):
    """Rebuild the result object an :func:`encode_result` tree names.

    With ``verify`` (the default), the rebuilt object is re-encoded and
    its state digest compared against the payload's — a transport- or
    decode-level corruption raises ``ValueError`` instead of silently
    yielding wrong numbers.
    """
    kinds = {"timing": TimingResult, "functional": FunctionalResult}
    try:
        cls = kinds[payload["kind"]]
        state = payload["state"]
    except (KeyError, TypeError):
        raise ValueError("not an encoded result payload") from None
    result = cls(name=state.get("name", ""))
    for f in fields(result):
        if f.name not in state:
            continue  # field added after this payload was written
        if f.name in _ACCT_FIELDS:
            load_dataclass_state(getattr(result, f.name), state[f.name])
        else:
            setattr(result, f.name, state[f.name])
    if verify:
        digest = encode_result(result)["digest"]
        if digest != payload.get("digest"):
            raise ValueError(
                "result state digest mismatch after decode: %s != %s"
                % (digest, payload.get("digest"))
            )
    return result


# ---------------------------------------------------------------------------
# protocol plumbing
# ---------------------------------------------------------------------------

class HttpError(Exception):
    """A typed HTTP failure response; handlers raise, the loop renders."""

    def __init__(self, status: int, message: str, code: str = "error",
                 headers: dict | None = None, extra: dict | None = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.headers = dict(headers or {})
        self.body = {"error": message, "code": code}
        if extra:
            self.body.update(extra)


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 401: "Unauthorized",
    404: "Not Found", 405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


#: Cap on header lines per request — far beyond any legitimate client,
#: small enough that a header-spamming peer cannot balloon memory.
MAX_HEADER_LINES = 100


async def _read_request(reader, max_body: int,
                        header_timeout: float | None = None,
                        body_timeout: float | None = None):
    """One parsed request: ``(method, target, headers, body)`` or ``None``.

    ``None`` means the peer closed the connection between requests (or
    went silent before sending a request line) — the normal end of a
    keep-alive session, not an error.  Once a request line has arrived,
    the rest of the head must arrive within *header_timeout* and the
    body within *body_timeout* of the head's end; a peer that misses
    either gets a typed 408 — the slowloris answer, however slowly it
    trickles.  One timer serves the whole request, moved forward at
    each stage.  ``target`` keeps its query string; the dispatcher
    splits it.
    """
    loop = asyncio.get_running_loop()

    def deadline(timeout):
        return None if timeout is None else loop.time() + timeout

    # What a timeout interrupts.  None while waiting for a request line:
    # a silent peer there is idle, not stalled, and its connection is
    # reclaimed quietly instead of answering 408 to nobody.
    stage = None
    try:
        async with asyncio.timeout(header_timeout) as timer:
            line = await reader.readline()
            if not line:
                return None
            stage, timeout = "header read", header_timeout
            timer.reschedule(deadline(header_timeout))
            try:
                method, target, _version = line.decode("latin-1").split()
            except ValueError:
                raise HttpError(400, "malformed request line", "bad_request")
            headers = {}
            for _ in range(MAX_HEADER_LINES):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                raise HttpError(400, "too many header lines", "bad_request")
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                raise HttpError(400, "bad Content-Length", "bad_request")
            if length > max_body:
                raise HttpError(413, "request body too large", "too_large")
            body = b""
            if length:
                stage, timeout = "body read", body_timeout
                timer.reschedule(deadline(body_timeout))
                body = await reader.readexactly(length)
    except TimeoutError:
        if stage is None:
            return None
        raise HttpError(
            408, "%s stalled past %.1fs" % (stage, timeout),
            "request_timeout",
        ) from None
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    return method.upper(), target, headers, body


class _JSONBytes(bytes):
    """A response body already rendered as JSON (a kept result body)."""


def _render_response(status: int, body, headers: dict | None = None,
                     keep_alive: bool = True) -> bytes:
    if isinstance(body, _JSONBytes):
        payload = body
        content_type = "application/json"
    elif isinstance(body, bytes):
        payload = body
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        payload = (json.dumps(body, indent=None, sort_keys=True) + "\n").encode()
        content_type = "application/json"
    lines = [
        "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "Unknown")),
        "Server: %s" % _SERVER_NAME,
        "Content-Type: %s" % content_type,
        "Content-Length: %d" % len(payload),
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    for name, value in (headers or {}).items():
        lines.append("%s: %s" % (name, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

def _render_result(encoded: dict) -> tuple:
    """The ``/result`` body of *encoded* as the bytes around its source.

    The body is *encoded* (:func:`encode_result`) plus the record's
    ``source``, rendered as :func:`_render_response` renders any body:
    sorted keys, so ``digest``, ``kind``, ``source``, ``state``.  Only
    ``source`` can change between two reads of one digest (a later
    submission may be a cache hit), so the JSON before and after its
    value is rendered once and a read splices the source in.
    """
    head = '{"digest": %s, "kind": %s, "source": ' % (
        json.dumps(encoded["digest"]), json.dumps(encoded["kind"]),
    )
    tail = ', "state": %s}\n' % json.dumps(encoded["state"], sort_keys=True)
    return head.encode(), tail.encode()


class _JobRecord:
    """What the server remembers about a digest it accepted over HTTP."""

    __slots__ = ("digest", "priority", "source", "state", "result", "body",
                 "failure")

    def __init__(self, digest: str, priority: Priority, source: str,
                 state: str) -> None:
        self.digest = digest
        self.priority = priority
        self.source = source
        self.state = state  # queued | running | done | failed
        self.result = None
        #: The rendered result (:func:`_render_result`), kept from the
        #: first read of a done job: a content-addressed result never
        #: changes, so repeat reads skip the store and the encoding.
        self.body = None
        self.failure = None  # {"code", "error", "attempts"} when failed

    def status_body(self) -> dict:
        body = {
            "digest": self.digest,
            "state": self.state,
            "source": self.source,
            "priority": self.priority.name.lower(),
        }
        if self.failure is not None:
            body["failure"] = dict(self.failure)
        return body


class ServiceHTTPServer:
    """Serve one :class:`SimulationService` over HTTP (module docs above).

    The server and the service must share one event loop: handlers call
    ``service.submit`` directly (the scheduler is lock-free by loop
    affinity).  Construction is cheap; :meth:`start` binds the socket
    (``port=0`` picks a free port, ``self.port`` reports it).
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        tokens: dict | None = None,
        max_records: int = 4096,
        max_connections: int = 256,
        header_timeout: float | None = 10.0,
        body_timeout: float | None = 10.0,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: token -> Priority; empty/None disables authentication.
        self.tokens = {
            token: Priority(priority)
            for token, priority in (tokens or {}).items()
        }
        self.max_records = max_records
        self.max_connections = max_connections
        self.header_timeout = header_timeout
        self.body_timeout = body_timeout
        #: Sustained requests/sec per token (or peer when auth is off);
        #: ``None`` disables rate limiting.
        self.rate_limit = rate_limit
        self.rate_burst = rate_burst if rate_burst is not None else (
            max(1.0, 2.0 * rate_limit) if rate_limit else 1.0
        )
        self._jobs: dict = {}  # digest -> _JobRecord, insertion-ordered
        self._server: asyncio.AbstractServer | None = None
        self._connections: set = set()
        self._started = 0.0
        self._draining = False
        self._buckets: dict = {}  # rate-limit key -> (tokens, stamp)
        self._http_counts: dict = {}  # (method, status) -> count
        #: Hardening event counters, exported by :meth:`render_metrics`.
        self._hardening = {
            "connections_refused": 0,  # over the connection cap
            "request_timeouts": 0,     # 408s (slowloris defense)
            "rate_limited": 0,         # 429s from the token bucket
            "deadline_rejected": 0,    # 504s (expired before any work)
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ServiceHTTPServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = asyncio.get_running_loop().time()
        return self

    async def close(self) -> None:
        """Stop listening and drop open connections (service untouched)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight requests.

        The SIGTERM path in ``repro-serve serve``.  New connections stop
        being accepted immediately; requests already being served get
        answered with ``Connection: close``; connections still open
        after *grace* seconds are dropped.  The underlying service is
        untouched — its own shutdown handles the job queue.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        give_up = loop.time() + grace
        while self._connections and loop.time() < give_up:
            await asyncio.sleep(0.05)
        for writer in list(self._connections):
            writer.close()

    # -- connection loop ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        if len(self._connections) >= self.max_connections:
            # Over the cap: the flood answer is typed backpressure on a
            # fresh socket, not a worker fd held hostage.
            self._hardening["connections_refused"] += 1
            try:
                writer.write(_render_response(
                    503,
                    {"error": "connection limit reached", "code": "server_busy"},
                    {"Retry-After": "1"}, keep_alive=False,
                ))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
            return
        self._connections.add(writer)
        try:
            while True:
                try:
                    parsed = await _read_request(
                        reader, MAX_BODY_BYTES,
                        header_timeout=self.header_timeout,
                        body_timeout=self.body_timeout,
                    )
                except HttpError as exc:
                    if exc.status == 408:
                        self._hardening["request_timeouts"] += 1
                    writer.write(_render_response(
                        exc.status, exc.body, exc.headers, keep_alive=False
                    ))
                    await writer.drain()
                    return
                if parsed is None:
                    return
                method, target, headers, body = parsed
                keep = headers.get("connection", "").lower() != "close"
                keep = keep and not self._draining
                status, payload, extra_headers = await self._dispatch(
                    method, target, headers, body
                )
                key = (method, status)
                self._http_counts[key] = self._http_counts.get(key, 0) + 1
                writer.write(_render_response(
                    status, payload, extra_headers, keep_alive=keep
                ))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method, target, headers, body):
        """Route one request; returns ``(status, body, headers)``."""
        path, _, query = target.partition("?")
        try:
            if path == "/health":
                self._require(method, "GET")
                return 200, self._health_body(), {}
            if path == "/metrics":
                self._require(method, "GET")
                return 200, self.render_metrics().encode(), {}
            deadline = self._parse_deadline(headers)
            if path == "/v1/jobs":
                if method == "GET":
                    self._authenticate(headers)
                    self._rate_check(headers)
                    return self._list_jobs(query)
                self._require(method, "POST")
                token_priority = self._authenticate(headers)
                self._rate_check(headers)
                return self._submit(body, token_priority, deadline)
            if path.startswith("/v1/jobs/"):
                self._require(method, "GET")
                self._authenticate(headers)
                self._rate_check(headers)
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/result"):
                    return self._result(rest[: -len("/result")].rstrip("/"))
                return self._status(rest)
            raise HttpError(404, "no such endpoint: %s" % path, "not_found")
        except HttpError as exc:
            return exc.status, exc.body, exc.headers
        except Exception as exc:  # noqa: BLE001 - render, never hang the peer
            return 500, {
                "error": "%s: %s" % (type(exc).__name__, exc),
                "code": "internal",
            }, {}

    def _parse_deadline(self, headers) -> float | None:
        """Remaining budget in *seconds* from ``X-Deadline-Ms``.

        An already-expired budget is the one network-hardening case that
        must never reach the scheduler: answering 504 here is cheaper
        than computing a result nobody is waiting for.
        """
        raw = headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            millis = float(raw)
        except ValueError:
            raise HttpError(
                400, "X-Deadline-Ms is not a number: %r" % raw, "bad_request"
            ) from None
        if millis <= 0:
            self._hardening["deadline_rejected"] += 1
            raise HttpError(
                504, "deadline budget already expired (%gms)" % millis,
                "deadline_expired",
            )
        return millis / 1000.0

    def _rate_check(self, headers) -> None:
        """Token-bucket rate limiting per bearer token (429 + Retry-After)."""
        rate = self.rate_limit
        if not rate:
            return
        burst = self.rate_burst
        value = headers.get("authorization", "")
        _, _, token = value.partition(" ")
        key = token.strip() or "anonymous"
        now = asyncio.get_running_loop().time()
        tokens, stamp = self._buckets.get(key, (burst, now))
        tokens = min(burst, tokens + (now - stamp) * rate)
        if tokens < 1.0:
            self._buckets[key] = (tokens, now)
            self._hardening["rate_limited"] += 1
            wait = (1.0 - tokens) / rate
            raise HttpError(
                429, "rate limit exceeded (%g req/s)" % rate,
                "rate_limited",
                headers={"Retry-After": "%d" % max(1, round(wait))},
                extra={"retry_after": wait},
            )
        self._buckets[key] = (tokens - 1.0, now)
        if len(self._buckets) > 4096:  # forgotten tokens must not accrete
            self._buckets = dict(
                sorted(self._buckets.items(), key=lambda kv: kv[1][1])[-2048:]
            )

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(
                405, "method %s not allowed here" % method,
                "method_not_allowed", headers={"Allow": expected},
            )

    def _authenticate(self, headers) -> Priority | None:
        """The token's priority class, or ``None`` when auth is disabled."""
        if not self.tokens:
            return None
        value = headers.get("authorization", "")
        scheme, _, token = value.partition(" ")
        if scheme.lower() == "bearer" and token.strip() in self.tokens:
            return self.tokens[token.strip()]
        raise HttpError(
            401, "missing or unknown bearer token", "unauthorized",
            headers={"WWW-Authenticate": "Bearer"},
        )

    # -- endpoint handlers ---------------------------------------------------

    def _submit(self, body: bytes, token_priority: Priority | None,
                deadline: float | None = None):
        try:
            data = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(
                400, "request body is not valid JSON: %s" % exc, "bad_request"
            )
        if not isinstance(data, dict):
            raise HttpError(400, "request body must be an object", "bad_request")
        try:
            request = SimRequest.from_dict(data)
            asked = parse_priority(data.get("priority", "sweep"))
        except ValueError as exc:
            raise HttpError(400, str(exc), "bad_request")
        # The effective class is the weaker of (token class, asked class):
        # tokens grant a ceiling, never an escalation.
        priority = asked if token_priority is None else \
            Priority(max(int(token_priority), int(asked)))
        try:
            job = self.service.submit(request, priority, deadline=deadline)
        except DeadlineExpired as exc:
            self._hardening["deadline_rejected"] += 1
            raise HttpError(
                504, str(exc), exc.code, extra={"digest": exc.digest},
            )
        except QueueFull as exc:
            raise HttpError(
                429, str(exc), exc.code,
                headers={"Retry-After": "%d" % max(1, round(exc.retry_after))},
                extra={"digest": exc.digest, "depth": exc.depth,
                       "limit": exc.limit, "retry_after": exc.retry_after},
            )
        except JobQuarantined as exc:
            raise HttpError(
                409, str(exc), exc.code,
                extra={"digest": exc.digest,
                       "record": self._quarantine_record(exc)},
            )
        except ServiceDegraded as exc:
            raise HttpError(
                503, str(exc), exc.code,
                headers={"Retry-After": "%d" % max(
                    1, round(self.service.breaker_cooldown))},
                extra={"digest": exc.digest},
            )
        except ServiceClosed as exc:
            raise HttpError(503, str(exc), exc.code)
        except ServiceRejected as exc:  # future rejection kinds
            raise HttpError(503, str(exc), exc.code)

        record = self._remember(job)
        status = 200 if record.state == "done" else 202
        return status, record.status_body(), {}

    def _status(self, digest: str):
        record = self._lookup(digest)
        return 200, record.status_body(), {}

    def _list_jobs(self, query: str):
        """Operator listing: ``?state=&code=&limit=``, most recent first."""
        from urllib.parse import parse_qs

        params = parse_qs(query, keep_blank_values=True)

        def single(name):
            values = params.get(name)
            if not values:
                return None
            return values[-1]

        state = single("state")
        if state is not None and state not in (
            "queued", "running", "done", "failed"
        ):
            raise HttpError(
                400, "unknown state filter: %r "
                "(queued|running|done|failed)" % state, "bad_request",
            )
        code = single("code")
        raw_limit = single("limit")
        limit = 100
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                raise HttpError(
                    400, "limit is not an integer: %r" % raw_limit,
                    "bad_request",
                ) from None
            if limit < 1:
                raise HttpError(400, "limit must be >= 1", "bad_request")
        limit = min(limit, 1000)  # page-size bound, not a preference

        jobs = []
        truncated = False
        # The registry dict is insertion-ordered with completed jobs
        # re-inserted on touch, so reverse iteration is most-recent-first.
        for digest in reversed(list(self._jobs)):
            record = self._jobs[digest]
            if state is not None and record.state != state:
                continue
            if code is not None:
                failure = record.failure or {}
                if failure.get("code") != code:
                    continue
            if len(jobs) >= limit:
                truncated = True
                break
            jobs.append(record.status_body())
        return 200, {
            "jobs": jobs,
            "count": len(jobs),
            "total_records": len(self._jobs),
            "truncated": truncated,
        }, {}

    def _result(self, digest: str):
        record = self._lookup(digest)
        if record.state == "failed":
            failure = record.failure or {}
            raise HttpError(
                500, failure.get("error", "job failed"),
                failure.get("code", "failed"),
                extra={"digest": digest, "failure": dict(failure)},
            )
        if record.state != "done":
            return 202, record.status_body(), {}
        if record.body is None:
            result = record.result
            if result is None and self.service.store is not None:
                result = self.service.store.get(digest)
            if result is None:
                raise HttpError(
                    404, "result for %s is gone (store pruned?)" % digest[:12],
                    "not_found",
                )
            record.body = _render_result(encode_result(result))
            record.result = None  # the body is all a later read needs
        head, tail = record.body
        return 200, _JSONBytes(head + json.dumps(record.source).encode()
                               + tail), {}

    def _health_body(self) -> dict:
        service = self.service
        status = service.status()
        loop_now = asyncio.get_running_loop().time()
        return {
            "status": "draining" if self._draining
            else ("closed" if service.closed else "ok"),
            "uptime_seconds": round(max(0.0, loop_now - self._started), 3),
            "connections": len(self._connections),
            "max_connections": self.max_connections,
            "workers": status.workers,
            "worker_mode": status.worker_mode,
            "queue_depth": status.queue_depth,
            "queue_limit": service.max_pending,
            "running": status.running,
            "breaker": status.breaker_state,
            "retry_after_hint": status.retry_after_hint,
            "store": service.store is not None,
        }

    # -- registry ------------------------------------------------------------

    def _remember(self, job) -> _JobRecord:
        digest = job.digest
        record = self._jobs.pop(digest, None)
        if record is None:
            record = _JobRecord(digest, job.priority, job.source, job.state)
        else:
            record.state = job.state
            record.source = job.source
            record.priority = job.priority
        self._jobs[digest] = record  # re-insert: LRU order
        if job.state == "done" and job.future.done():
            # Keep the object only when the store does not hold it for
            # the first /result read to render it from.
            record.result = None if job.stored else job.future.result()
        elif not job.future.done():
            job.future.add_done_callback(
                lambda future: self._record_outcome(record, job, future)
            )
        self._evict()
        return record

    def _record_outcome(self, record: _JobRecord, job, future) -> None:
        if future.cancelled():
            record.state = "failed"
            record.failure = {"code": "cancelled", "error": "cancelled"}
            return
        exc = future.exception()
        if exc is None:
            record.state = "done"
            record.source = job.source
            # As in _remember: the object only when the store lacks it.
            record.result = None if job.stored else future.result()
            return
        record.state = "failed"
        if isinstance(exc, JobFailed):
            record.failure = {
                "code": exc.failure.code,
                "error": exc.failure.error,
                "attempts": exc.failure.attempts,
            }
        else:
            record.failure = {
                "code": getattr(exc, "code", "error"),
                "error": "%s: %s" % (type(exc).__name__, exc),
            }

    def _lookup(self, digest: str) -> _JobRecord:
        if not digest:
            raise HttpError(404, "empty digest", "not_found")
        record = self._jobs.get(digest)
        if record is not None:
            return record
        # Not submitted over this server: the store may still know it
        # (another client, a previous run) — report it as done-from-cache.
        store = self.service.store
        if store is not None:
            try:
                known = digest in store
            except ValueError:
                raise HttpError(404, "not a digest: %r" % digest, "not_found")
            if known:
                record = _JobRecord(digest, Priority.SWEEP, "cache", "done")
                return record
        raise HttpError(
            404, "unknown digest %s" % digest[:32], "not_found"
        )

    def _evict(self) -> None:
        if len(self._jobs) <= self.max_records:
            return
        for digest in list(self._jobs):
            record = self._jobs[digest]
            if record.state in ("done", "failed"):
                del self._jobs[digest]
                if len(self._jobs) <= self.max_records:
                    return

    def _quarantine_record(self, exc: JobQuarantined):
        if not exc.record_path:
            return None
        try:
            with open(exc.record_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- metrics -------------------------------------------------------------

    def render_metrics(self) -> str:
        """Prometheus text exposition of the full service status."""
        status = self.service.status()
        lines = []

        def metric(name, value, help_text=None, kind="gauge", labels=None):
            if help_text is not None:
                lines.append("# HELP repro_service_%s %s" % (name, help_text))
                lines.append("# TYPE repro_service_%s %s" % (name, kind))
            label = ""
            if labels:
                label = "{%s}" % ",".join(
                    '%s="%s"' % (k, v) for k, v in labels.items()
                )
            if isinstance(value, float):
                value = "%.6g" % value
            lines.append("repro_service_%s%s %s" % (name, label, value))

        for name, help_text in (
            ("submitted", "requests accepted by submit()"),
            ("cache_hits", "submissions served from the result store"),
            ("dedup_hits", "submissions joined to an in-flight job"),
            ("executed", "execution attempts started"),
            ("completed", "jobs completed"),
            ("failed", "jobs failed after retries"),
            ("rejected", "typed submission rejections"),
            ("retried", "execution retries"),
            ("worker_deaths", "worker processes that died"),
            ("reaped", "workers killed by the heartbeat reaper"),
            ("shed", "sweep submissions shed while the breaker was open"),
            ("deadline_shed", "deadline-expired work shed before completion"),
            ("quarantine_rejections", "submissions refused as poison"),
            ("breaker_opened", "times the circuit breaker opened"),
        ):
            metric(name + "_total", getattr(status, name), help_text,
                   kind="counter")

        metric("queue_depth", status.queue_depth,
               "jobs queued (not yet running)")
        metric("queue_limit", self.service.max_pending,
               "queued-job bound before QueueFull")
        metric("queue_high_water", status.queue_high_water,
               "max queue depth observed")
        metric("running", status.running, "jobs executing right now")
        metric("workers", status.workers, "worker tier size")
        metric("breaker_open", 1 if status.breaker_state == "open" else 0,
               "1 while sweep load is being shed")
        metric("retry_after_seconds", float(status.retry_after_hint),
               "drain-rate estimate a QueueFull rejection would carry")
        metric("quarantined_jobs", status.quarantined_jobs,
               "digests quarantined as poison jobs")

        first = True
        for code in sorted(status.failure_codes):
            metric(
                "failures_total", status.failure_codes[code],
                "failed execution attempts by taxonomy code" if first
                else None,
                kind="counter", labels={"code": code},
            )
            first = False

        first = True
        for priority in sorted(status.latency):
            agg = status.latency[priority]
            labels = {"priority": priority.lower()}
            help_text = ("submit-to-resolve latency by priority class"
                         if first else None)
            metric("latency_seconds_count", agg["count"], help_text,
                   labels=labels)
            metric("latency_seconds_sum",
                   agg["count"] * agg["mean_seconds"], labels=labels)
            metric("latency_seconds_max", agg["max_seconds"], labels=labels)
            first = False

        store = self.service.store
        if store is not None:
            stats = store.stats
            metric("store_hits_total", stats.hits,
                   "result-store lookups served", kind="counter")
            metric("store_misses_total", stats.misses,
                   "result-store lookup misses", kind="counter")
            metric("store_puts_total", stats.puts,
                   "results written to the store", kind="counter")
            metric("store_write_errors_total", stats.write_errors,
                   "store writes that failed (the job still resolved)",
                   kind="counter")
            metric("store_invalidated_total", stats.invalidated,
                   "entries quarantined on read/scrub", kind="counter")
            metric("store_entries", len(store.entries()),
                   "cached results on disk")
            quarantine = store.quarantine_summary()
            metric("store_quarantined_entries", quarantine["total"],
                   "damaged entries moved to quarantine")

        if status.prewarm is not None:
            prewarm = status.prewarm
            for name, help_text in (
                ("predicted", "neighbour cells the lattice suggested"),
                ("issued", "speculative jobs actually submitted"),
                ("useful", "speculations later claimed by real requests"),
                ("dropped", "predictions dropped over budget or backlog"),
            ):
                metric("prewarm_%s_total" % name, prewarm[name], help_text,
                       kind="counter")
            metric("prewarm_wasted", prewarm["wasted"],
                   "finished speculations no real request has claimed")
            metric("prewarm_inflight", prewarm["inflight"],
                   "speculative jobs currently in flight")

        metric("connections", len(self._connections),
               "HTTP connections currently open")
        metric("connections_limit", self.max_connections,
               "connection cap before refusal")
        if self.rate_limit:
            metric("rate_limit_effective", float(self.rate_limit),
                   "bucket refill rate in force (0 = unlimited)")
        metric("draining", 1 if self._draining else 0,
               "1 while the server is draining connections")
        for name, help_text in (
            ("connections_refused", "connections refused over the cap"),
            ("request_timeouts", "requests answered 408 for stalled reads"),
            ("rate_limited", "requests answered 429 by the rate limiter"),
            ("deadline_rejected", "requests shed with an expired deadline"),
        ):
            metric("http_%s_total" % name, self._hardening[name], help_text,
                   kind="counter")

        first = True
        for (method, code), count in sorted(self._http_counts.items()):
            metric(
                "http_requests_total", count,
                "HTTP requests served by method and status" if first
                else None,
                kind="counter",
                labels={"method": method, "status": str(code)},
            )
            first = False
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# request wire format (shared with the clients in repro.service.client)
# ---------------------------------------------------------------------------

def request_to_wire(request: SimRequest, priority=None) -> dict:
    """The JSON body ``POST /v1/jobs`` expects for *request*."""
    from repro.configio import machine_config_to_dict

    body = {
        "benchmark": request.benchmark,
        "scale": float(request.scale),
        "seed": int(request.seed),
        "warmup_fraction": float(request.warmup_fraction),
        "mode": request.mode,
        "machine": machine_config_to_dict(request.machine),
    }
    if priority is not None:
        body["priority"] = parse_priority(priority).name.lower()
    return body
