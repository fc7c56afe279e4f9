"""The HTTP serving front end (repro.service.http + the HTTP clients).

Everything runs against a real server on a loopback port with real
(tiny functional) simulations behind it: round trips, digest identity
with in-process results, typed backpressure status codes (429/503/409),
bearer-token auth and its priority ceiling, and the Prometheus
``/metrics`` and ``/health`` schemas.
"""

import asyncio
import errno
import json
import threading

import pytest

from repro.params import MachineConfig
from repro.service import (
    AsyncServiceClient,
    Priority,
    ServiceClient,
    ServiceHTTPError,
    ResultStore,
    ServiceHTTPServer,
    SimRequest,
    SimulationService,
    decode_result,
    encode_result,
    request_digest,
)
from repro.service.http import request_to_wire

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


async def _serving(tmp_path, tokens=None, **service_kwargs):
    service = SimulationService(str(tmp_path / "cache"), **service_kwargs)
    server = ServiceHTTPServer(service, port=0, tokens=tokens)
    await server.start()
    return service, server


async def _teardown(service, server, client=None):
    if client is not None:
        await client.close()
    await server.close()
    await service.shutdown(drain=False)


class TestResultCodec:
    def test_round_trip_is_digest_identical(self):
        from repro.experiments.common import run_functional

        from repro.workloads.suite import build_benchmark

        workload = build_benchmark("b2c", scale=SCALE, seed=1)
        result = run_functional(MachineConfig(), workload)
        encoded = encode_result(result)
        decoded = decode_result(json.loads(json.dumps(encoded)))
        assert encode_result(decoded)["digest"] == encoded["digest"]
        assert decoded.uops == result.uops
        assert decoded.content.useful == result.content.useful

    def test_tampered_payload_is_rejected(self):
        from repro.core.results import FunctionalResult

        encoded = encode_result(FunctionalResult(name="x"))
        encoded["state"]["uops"] = 12345  # bit flip in transit
        with pytest.raises(ValueError, match="digest mismatch"):
            decode_result(encoded)

    def test_kept_result_body_renders_like_any_json_body(self):
        from repro.core.results import FunctionalResult
        from repro.service.http import _render_result

        encoded = encode_result(FunctionalResult(name="x"))
        head, tail = _render_result(encoded)
        for source in ("computed", "cache", "dedup"):
            body = dict(encoded, source=source)
            assert head + json.dumps(source).encode() + tail == (
                json.dumps(body, indent=None, sort_keys=True) + "\n"
            ).encode()

    def test_non_result_payloads_are_rejected(self):
        with pytest.raises(TypeError):
            encode_result({"not": "a result"})
        with pytest.raises(ValueError):
            decode_result({"kind": "nonsense", "state": {}})


class TestHTTPRoundTrip:
    def test_submit_status_result_digest_identical_to_in_process(
        self, tmp_path
    ):
        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            accepted = await client.submit(_request(), priority="interactive")
            served = await client.run(_request())
            status = await client.job_status(accepted["digest"])
            in_process = await service.run(_request())
            await _teardown(service, server, client)
            return accepted, served, status, in_process

        accepted, served, status, in_process = _drive(scenario())
        assert accepted["digest"] == request_digest(_request())
        assert status["state"] == "done"
        # The acceptance criterion: an HTTP round trip is architecturally
        # identical to calling the service in-process.
        assert (encode_result(served)["digest"]
                == encode_result(in_process)["digest"])

    def test_cached_submit_answers_200_from_cache(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            await client.run(_request())
            status, _headers, body = await client.request(
                "POST", "/v1/jobs", request_to_wire(_request())
            )
            await _teardown(service, server, client)
            return status, body

        status, body = _drive(scenario())
        assert status == 200
        assert body["state"] == "done"
        assert body["source"] == "cache"

    def test_repeat_result_reads_skip_the_store_and_the_encoding(
        self, tmp_path, monkeypatch
    ):
        from repro.service import http as http_module

        calls = {"get": 0, "encode": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            await client.run(_request())  # computed, then read once
            digest = request_digest(_request())
            monkeypatch.setattr(service.store, "get",
                                counting("get", service.store.get))
            monkeypatch.setattr(http_module, "encode_result",
                                counting("encode", encode_result))
            path = "/v1/jobs/%s/result" % digest
            reads = [(await client.request("GET", path))[2]]
            # A cache-hit POST reads the store and changes the source the
            # next read reports; the kept body follows it.
            await client.request("POST", "/v1/jobs",
                                 request_to_wire(_request()))
            reads.append((await client.request("GET", path))[2])
            await _teardown(service, server, client)
            return reads

        computed, cached = _drive(scenario())
        assert calls == {"get": 1, "encode": 0}
        assert computed["source"] == "computed"
        assert cached["source"] == "cache"
        assert dict(computed, source="cache") == cached
        assert decode_result(cached).uops > 0  # digest-verified

    def test_result_is_served_when_the_store_write_failed(self, tmp_path):
        class FullDiskStore(ResultStore):
            def put(self, *args, **kwargs):
                raise OSError(errno.ENOSPC, "No space left on device")

        async def scenario():
            service = SimulationService(
                FullDiskStore(str(tmp_path / "cache"))
            )
            server = ServiceHTTPServer(service, port=0)
            await server.start()
            client = AsyncServiceClient(port=server.port)
            # The store never holds the result: the server must keep it.
            served = await client.run(_request(), timeout=30)
            in_process = await service.run(_request())
            await _teardown(service, server, client)
            return served, in_process

        served, in_process = _drive(scenario())
        assert (encode_result(served)["digest"]
                == encode_result(in_process)["digest"])

    def test_result_while_pending_is_202(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, max_workers=1)
            client = AsyncServiceClient(port=server.port)
            # Occupy the only worker, then ask for the queued job's result.
            first = await client.submit(_request(seed=1))
            second = await client.submit(_request(seed=2))
            status, _headers, body = await client.request(
                "GET", "/v1/jobs/%s/result" % second["digest"]
            )
            # Drain before teardown so shutdown is clean.
            await client.run(_request(seed=1))
            await client.run(_request(seed=2))
            await _teardown(service, server, client)
            return first, status, body

        _first, status, body = _drive(scenario())
        assert status == 202
        assert body["state"] in ("queued", "running")

    def test_unknown_digest_is_404_and_bad_body_is_400(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            with pytest.raises(ServiceHTTPError) as missing:
                await client.job_status("f" * 32)
            with pytest.raises(ServiceHTTPError) as malformed:
                await client.request(
                    "POST", "/v1/jobs", {"benchmark": "b2c", "bogus": 1}
                )
            with pytest.raises(ServiceHTTPError) as wrong_method:
                await client.request("PUT", "/v1/jobs")
            await _teardown(service, server, client)
            return missing.value, malformed.value, wrong_method.value

        missing, malformed, wrong_method = _drive(scenario())
        assert missing.status == 404 and missing.code == "not_found"
        assert malformed.status == 400 and malformed.code == "bad_request"
        assert wrong_method.status == 405

    def test_store_known_digest_is_served_without_prior_submit(
        self, tmp_path
    ):
        async def scenario():
            # Warm the store through one server...
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            await client.run(_request())
            await _teardown(service, server, client)
            # ...then ask a brand-new server about the digest.
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            digest = request_digest(_request())
            status = await client.job_status(digest)
            result = await client.result(digest)
            await _teardown(service, server, client)
            return status, result

        status, result = _drive(scenario())
        assert status == {
            "digest": request_digest(_request()), "state": "done",
            "source": "cache", "priority": "sweep",
        }
        assert result.uops > 0


class TestFailureTaxonomyOverHTTP:
    def test_failed_job_surfaces_taxonomy_code(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, retries=0)
            client = AsyncServiceClient(port=server.port)
            accepted = await client.submit(
                _request(benchmark="no-such-benchmark")
            )
            digest = accepted["digest"]
            for _ in range(200):
                status = await client.job_status(digest)
                if status["state"] == "failed":
                    break
                await asyncio.sleep(0.05)
            with pytest.raises(ServiceHTTPError) as result_error:
                await client.result(digest)
            await _teardown(service, server, client)
            return status, result_error.value

        status, result_error = _drive(scenario())
        assert status["state"] == "failed"
        assert status["failure"]["code"] == "sim_error"
        assert result_error.status == 500
        assert result_error.code == "sim_error"
        assert result_error.body["failure"]["attempts"] == 1


class TestTypedBackpressure:
    def test_queue_full_is_429_with_retry_after(self, tmp_path, monkeypatch):
        from repro.service import workers

        # The one worker holds its job until the third submit is
        # answered; a job that finished first would free the queue.
        release = threading.Event()
        execute = workers.execute_job

        def held(spec):
            release.wait(60)
            return execute(spec)

        monkeypatch.setattr(workers, "execute_job", held)

        async def scenario():
            service, server = await _serving(
                tmp_path, max_workers=1, max_pending=1
            )
            client = AsyncServiceClient(port=server.port)
            await client.submit(_request(seed=1))  # running
            await client.submit(_request(seed=2))  # queued (fills the queue)
            try:
                with pytest.raises(ServiceHTTPError) as excinfo:
                    await client.submit(_request(seed=3))
            finally:
                release.set()
            # Drain so shutdown doesn't cancel running work.
            await client.run(_request(seed=1))
            await client.run(_request(seed=2))
            await _teardown(service, server, client)
            return excinfo.value

        rejection = _drive(scenario())
        assert rejection.status == 429
        assert rejection.code == "queue_full"
        assert rejection.retry_after is not None
        assert rejection.retry_after >= 1.0  # Retry-After header, seconds
        assert rejection.body["retry_after"] > 0

    def test_closed_service_is_503(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            await service.shutdown()
            with pytest.raises(ServiceHTTPError) as excinfo:
                await client.submit(_request())
            health = await client.health()
            await _teardown(service, server, client)
            return excinfo.value, health

        rejection, health = _drive(scenario())
        assert rejection.status == 503
        assert rejection.code == "service_closed"
        assert health["status"] == "closed"

    def test_quarantined_digest_is_409_with_record(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            digest = request_digest(_request())
            record_path = str(tmp_path / "poison.json")
            with open(record_path, "w") as handle:
                json.dump({"final_code": "worker_crashed", "digest": digest},
                          handle)
            service._poisoned[digest] = record_path
            client = AsyncServiceClient(port=server.port)
            with pytest.raises(ServiceHTTPError) as excinfo:
                await client.submit(_request())
            await _teardown(service, server, client)
            return excinfo.value

        rejection = _drive(scenario())
        assert rejection.status == 409
        assert rejection.code == "quarantined"
        assert rejection.body["record"]["final_code"] == "worker_crashed"


class TestAuth:
    TOKENS = {"tok-inter": Priority.INTERACTIVE, "tok-sweep": Priority.SWEEP}

    def test_missing_or_unknown_token_is_401(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, tokens=self.TOKENS)
            anonymous = AsyncServiceClient(port=server.port)
            with pytest.raises(ServiceHTTPError) as missing:
                await anonymous.submit(_request())
            await anonymous.close()
            wrong = AsyncServiceClient(port=server.port, token="nope")
            with pytest.raises(ServiceHTTPError) as unknown:
                await wrong.job_status("f" * 32)
            await wrong.close()
            # Probes stay open: no token needed for health/metrics.
            probe = AsyncServiceClient(port=server.port)
            health = await probe.health()
            metrics = await probe.metrics()
            await _teardown(service, server, probe)
            return missing.value, unknown.value, health, metrics

        missing, unknown, health, metrics = _drive(scenario())
        assert missing.status == 401 and missing.code == "unauthorized"
        assert unknown.status == 401
        assert health["status"] == "ok"
        assert "repro_service_queue_depth" in metrics

    def test_token_priority_is_a_ceiling_not_an_escalation(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path, tokens=self.TOKENS)
            sweeper = AsyncServiceClient(port=server.port, token="tok-sweep")
            capped = await sweeper.submit(
                _request(seed=1), priority="interactive"
            )
            await sweeper.close()
            interactive = AsyncServiceClient(
                port=server.port, token="tok-inter"
            )
            granted = await interactive.submit(
                _request(seed=2), priority="interactive"
            )
            lowered = await interactive.submit(
                _request(seed=3), priority="sweep"
            )
            await _teardown(service, server, interactive)
            return capped, granted, lowered

        capped, granted, lowered = _drive(scenario())
        assert capped["priority"] == "sweep"  # sweep token cannot jump queue
        assert granted["priority"] == "interactive"
        assert lowered["priority"] == "sweep"  # asking lower is honoured


class TestObservability:
    def test_metrics_and_health_schemas(self, tmp_path):
        async def scenario():
            service, server = await _serving(tmp_path)
            client = AsyncServiceClient(port=server.port)
            await client.run(_request(), priority="interactive")
            await client.run(_request())  # cache hit
            health = await client.health()
            metrics = await client.metrics()
            await _teardown(service, server, client)
            return health, metrics

        health, metrics = _drive(scenario())
        for key in ("status", "uptime_seconds", "workers", "queue_depth",
                    "queue_limit", "running", "breaker",
                    "retry_after_hint", "store"):
            assert key in health
        assert health["status"] == "ok"

        lines = metrics.splitlines()
        samples = {}
        for line in lines:
            if line.startswith("#") or not line.strip():
                continue
            name, value = line.rsplit(None, 1)
            samples[name] = float(value)
        # Counters this scenario provably moved:
        assert samples["repro_service_submitted_total"] >= 2
        assert samples["repro_service_cache_hits_total"] >= 1
        assert samples["repro_service_completed_total"] >= 1
        assert samples["repro_service_breaker_open"] == 0
        assert samples["repro_service_store_puts_total"] >= 1
        assert samples["repro_service_store_quarantined_entries"] == 0
        assert samples[
            'repro_service_latency_seconds_count{priority="interactive"}'
        ] >= 1
        assert samples[
            'repro_service_http_requests_total{method="POST",status="200"}'
        ] >= 1
        # Prometheus text format: HELP/TYPE comments precede families.
        assert "# TYPE repro_service_submitted_total counter" in metrics
        assert "# TYPE repro_service_queue_depth gauge" in metrics


@pytest.fixture
def background_server(tmp_path):
    """A real server on an event loop of its own thread.

    A blocking client call waits in the calling thread, so the server it
    talks to must run somewhere else.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(60)

    service, server = call(_serving(tmp_path))
    try:
        yield server
    finally:
        call(_teardown(service, server))
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


class TestBlockingClient:
    def test_blocking_client_round_trip_on_background_loop(
        self, background_server
    ):
        with ServiceClient(port=background_server.port) as client:
            cold = client.run(_request(), priority="interactive")
            cached = client.run(_request())
            health = client.health()
            assert "repro_service_submitted_total" in client.metrics()
        assert (encode_result(cold)["digest"]
                == encode_result(cached)["digest"])
        assert health["status"] == "ok"

    def test_blocking_client_inside_a_running_event_loop(
        self, background_server
    ):
        # Jupyter runs an event loop in the main thread: the blocking
        # client must work there without running a loop of its own on it.
        async def inside():
            with ServiceClient(port=background_server.port) as client:
                return client.run(_request()), client.health()

        result, health = asyncio.run(inside())
        assert result.uops > 0
        assert health["status"] == "ok"
