"""Admission control: the per-token bucket refills at the configured rate.

The bucket is driven directly through ``_rate_check`` under a paced
request stream against a stub service, so no socket is needed.  The
static ``--rate-limit`` is the only refill rate: it is what the bucket
enforces, what the 429 message names, and what the counter records.
"""

import asyncio

from repro.service.http import HttpError, ServiceHTTPServer


class _StubService:
    """The HTTP server only stores the service for the rate-check path."""


def _server(**kwargs):
    return ServiceHTTPServer(_StubService(), **kwargs)


def _drive_429s(server, calls=20, gap=0.02):
    """Paced calls through the bucket; returns the 429 errors raised."""
    async def drive():
        errors = []
        headers = {"authorization": "Bearer sweeper"}
        for _ in range(calls):
            try:
                server._rate_check(headers)
            except HttpError as error:
                assert error.status == 429
                assert int(error.headers["Retry-After"]) >= 1
                errors.append(error)
            await asyncio.sleep(gap)
        return errors

    return asyncio.run(drive())


class TestEffectiveRate:
    def test_static_mode_passes_the_configured_limit_through(self):
        limited = _server(rate_limit=50.0, rate_burst=1.0)
        assert limited.rate_limit == 50.0
        # Back-to-back calls: the burst token is spent, the next bounces
        # and the rejection names the configured rate.
        errors = _drive_429s(limited, calls=2, gap=0.0)
        assert len(errors) == 1
        assert "(50 req/s)" in str(errors[0])
        # No limit configured: the check is off and nothing is rejected.
        unlimited = _server()
        assert unlimited.rate_limit is None
        assert _drive_429s(unlimited, calls=10, gap=0.0) == []


class TestBucketUnderDrainPressure:
    def test_429_counter_and_message_carry_the_effective_rate(self):
        server = _server(rate_limit=2.0, rate_burst=1.0)
        # 2 req/s refills 0.04 tokens per 20 ms gap: after the single
        # burst token nearly every call bounces.
        errors = _drive_429s(server, calls=5)
        assert len(errors) >= 3
        assert server._hardening["rate_limited"] == len(errors)
        assert all("(2 req/s)" in str(error) for error in errors)
        assert all(error.code == "rate_limited" for error in errors)

    def test_static_only_bucket_still_enforces(self):
        server = _server(rate_limit=2.0, rate_burst=1.0)
        assert len(_drive_429s(server, calls=5)) >= 3
