"""The seeded TCP chaos proxy (repro.faults.net) and what survives it.

Every scenario runs a real ``ServiceHTTPServer`` behind a real
:class:`ChaosTCPProxy` on loopback ports.  The single-fault classes pin
down what each family does to an unprotected client; the storm test
(integrity-marked, like the worker-kill chaos suite) proves the
retrying client serves digest-identical results *through* the storm
without polluting the quarantine.
"""

import asyncio

import pytest

from repro.faults.infra import _rng
from repro.faults.net import (
    FAULT_FAMILIES,
    ChaosTCPProxy,
    NetChaosConfig,
    net_storm,
    storm_traffic,
)
from repro.params import MachineConfig
from repro.service import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceHTTPServer,
    SimRequest,
    SimulationService,
    encode_result,
    request_digest,
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


async def _proxied(tmp_path, chaos, **server_kwargs):
    service = SimulationService(str(tmp_path / "cache"))
    server = ServiceHTTPServer(service, port=0, **server_kwargs)
    await server.start()
    proxy = ChaosTCPProxy("127.0.0.1", server.port, chaos)
    await proxy.start()
    return service, server, proxy


async def _teardown(service, server, proxy, client=None):
    if client is not None:
        await client.close()
    await proxy.close()
    await server.close()
    await service.shutdown(drain=False)


def _only(family, seed=0, rate=1.0, **extra):
    """A config that faults *every* connection with one family."""
    return NetChaosConfig(seed=seed, **{family + "_rate": rate}, **extra)


class TestSeededDecisions:
    def test_decide_walks_families_in_fixed_order(self):
        chaos = NetChaosConfig(
            seed=0, **{family + "_rate": 1.0 / len(FAULT_FAMILIES)
                       for family in FAULT_FAMILIES},
        )
        seen = {chaos.decide(_rng(0, "conn", i)) for i in range(300)}
        # Every family is reachable under a uniform split, and the roll
        # never invents a name outside the fixed tuple.
        assert seen <= set(FAULT_FAMILIES)
        assert len(seen) >= 5

    def test_same_seed_same_decision_log(self, tmp_path):
        async def scenario():
            chaos = net_storm(seed=7)
            logs = []
            for _ in range(2):
                service, server, proxy = await _proxied(tmp_path, chaos)
                client = AsyncServiceClient(port=proxy.port)
                for _ in range(6):
                    try:
                        await client.health()
                    except Exception:
                        pass
                    client._drop_connection()  # force a fresh fault roll
                logs.append(list(proxy.decisions))
                await _teardown(service, server, proxy, client)
            return logs

        first, second = _drive(scenario())
        assert first == second
        assert len(first) >= 6

    def test_clean_config_injects_nothing(self, tmp_path):
        async def scenario():
            service, server, proxy = await _proxied(
                tmp_path, NetChaosConfig(seed=1)
            )
            client = AsyncServiceClient(port=proxy.port)
            health = await client.health()
            served = await client.run(_request())
            await _teardown(service, server, proxy, client)
            return health, served, dict(proxy.injected)

        health, served, injected = _drive(scenario())
        assert health["status"] == "ok"
        assert served.uops > 0
        assert injected == {}


class TestSingleFaultFamilies:
    """What each family does to a client with no retry policy."""

    def test_reset_pre_is_a_connection_error(self, tmp_path):
        async def scenario():
            service, server, proxy = await _proxied(
                tmp_path, _only("reset_pre")
            )
            client = AsyncServiceClient(port=proxy.port)
            with pytest.raises((ConnectionError, OSError,
                                asyncio.IncompleteReadError)):
                await client.health()
            await _teardown(service, server, proxy, client)
            return proxy.injected

        injected = _drive(scenario())
        assert injected.get("reset_pre", 0) >= 1

    def test_reset_mid_response_tears_the_read(self, tmp_path):
        async def scenario():
            service, server, proxy = await _proxied(
                tmp_path, _only("reset_mid_response")
            )
            client = AsyncServiceClient(port=proxy.port)
            with pytest.raises((ConnectionError, OSError,
                                asyncio.IncompleteReadError)):
                await client.health()
            await _teardown(service, server, proxy, client)
            return proxy.injected

        injected = _drive(scenario())
        assert injected.get("reset_mid_response", 0) >= 1

    def test_truncate_is_a_short_clean_body(self, tmp_path):
        async def scenario():
            service, server, proxy = await _proxied(
                tmp_path, _only("truncate")
            )
            client = AsyncServiceClient(port=proxy.port)
            with pytest.raises((asyncio.IncompleteReadError,
                                ConnectionError, ValueError)):
                await client.health()
            await _teardown(service, server, proxy, client)
            return proxy.injected

        injected = _drive(scenario())
        assert injected.get("truncate", 0) >= 1

    def test_corrupt_never_yields_a_wrong_result(self, tmp_path):
        """The load-bearing one: a flipped byte must surface as an
        error (parse failure or digest mismatch), never as a plausible
        but wrong result object."""
        async def scenario():
            service, server, proxy = await _proxied(
                tmp_path, _only("corrupt")
            )
            # Warm the cache through the *clean* port first.
            warm = AsyncServiceClient(port=server.port)
            clean = await warm.run(_request())
            await warm.close()
            client = AsyncServiceClient(port=proxy.port)
            with pytest.raises((ValueError, ConnectionError,
                                asyncio.IncompleteReadError)):
                await client.result(request_digest(_request()))
            await _teardown(service, server, proxy, client)
            return clean, proxy.injected

        clean, injected = _drive(scenario())
        assert encode_result(clean)["digest"]
        assert injected.get("corrupt", 0) >= 1

    def test_retry_policy_rides_out_partial_fault_rates(self, tmp_path):
        """At 50% reset_pre, a 6-attempt retrying client still lands
        every request — and the result is digest-identical to the
        clean-port answer."""
        async def scenario():
            service, server, proxy = await _proxied(
                tmp_path, _only("reset_pre", seed=3, rate=0.5)
            )
            client = AsyncServiceClient(
                port=proxy.port,
                retry=RetryPolicy(attempts=6, backoff=0.01,
                                  max_backoff=0.05, seed=3),
            )
            served = await client.run(_request())
            clean = await service.run(_request())
            await _teardown(service, server, proxy, client)
            return served, clean, proxy.injected

        served, clean, injected = _drive(scenario())
        assert (encode_result(served)["digest"]
                == encode_result(clean)["digest"])
        assert injected.get("reset_pre", 0) >= 1


@pytest.mark.integrity
class TestNetStorm:
    """The short in-suite cut of scripts/soak_serve.py."""

    def test_storm_serves_digest_identical_results(self, tmp_path):
        async def scenario():
            service, server, proxy = await _proxied(
                tmp_path,
                net_storm(seed=1, stall_seconds=0.3),
                header_timeout=0.5, body_timeout=0.5,
            )
            pool = [_request(seed) for seed in range(1, 7)]
            results = await service.run_batch(pool)
            clean = {
                request_digest(request): encode_result(result)["digest"]
                for request, result in zip(pool, results)
            }
            quarantined_before = service.status().quarantined_jobs

            report = await storm_traffic(
                "127.0.0.1", proxy.port, pool,
                concurrency=4, duration=1.5, churn=3, seed=1,
                retry=RetryPolicy(attempts=6, backoff=0.02,
                                  max_backoff=0.2, request_timeout=2.0,
                                  seed=1),
            )

            # Every pool digest re-fetched over a clean connection must
            # match its pre-storm digest.
            verify = AsyncServiceClient(port=server.port)
            after = {}
            for request in pool:
                digest = request_digest(request)
                result = await verify.result(digest)
                after[digest] = encode_result(result)["digest"]
            await verify.close()
            quarantined_after = service.status().quarantined_jobs
            await _teardown(service, server, proxy)
            return (report, clean, after, quarantined_before,
                    quarantined_after, proxy.connections, proxy.injected)

        (report, clean, after, q_before, q_after, connections, injected) = \
            _drive(scenario())
        assert report["served"] > 0, "storm served nothing: proved nothing"
        assert after == clean
        # Network faults must never read as poison jobs.
        assert q_after == q_before
        assert connections > 0
        assert sum(injected.values()) > 0, "the storm injected no fault"
