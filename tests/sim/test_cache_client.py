"""Tests for the simulated caching-service client."""

import pytest

from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage import KB, MB, random_content


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def account(env):
    return SimStorageAccount(env, seed=21)


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


class TestSimCacheClient:
    def test_roundtrip(self, env, account):
        cache = account.cache_client()

        def body():
            yield from cache.create_cache("hot")
            yield from cache.put("hot", "k", b"value")
            v = yield from cache.get("hot", "k")
            return v.to_bytes()

        assert run(env, body()) == b"value"

    def test_miss_returns_none(self, env, account):
        cache = account.cache_client()

        def body():
            yield from cache.create_cache("hot")
            v = yield from cache.get("hot", "ghost")
            return v

        assert run(env, body()) is None

    def test_remove(self, env, account):
        cache = account.cache_client()

        def body():
            yield from cache.create_cache("hot")
            yield from cache.put("hot", "k", b"v")
            removed = yield from cache.remove("hot", "k")
            again = yield from cache.remove("hot", "k")
            return removed, again

        assert run(env, body()) == (True, False)

    def test_cache_much_faster_than_blob(self, env, account):
        """The point of the service: in-memory reads beat Blob storage."""
        cache = account.cache_client()
        blob = account.blob_client()
        payload = random_content(1 * MB, seed=1)

        def body():
            yield from blob.create_container("cont")
            yield from blob.upload_blob("cont", "obj", payload)
            yield from cache.create_cache("hot", capacity_bytes=4 * MB)
            yield from cache.put("hot", "obj", payload)

            t0 = env.now
            yield from blob.download_block_blob("cont", "obj")
            blob_time = env.now - t0

            t0 = env.now
            yield from cache.get("hot", "obj")
            cache_time = env.now - t0
            return blob_time, cache_time

        blob_time, cache_time = run(env, body())
        assert cache_time < blob_time / 5

    def test_cache_ops_not_throttled_by_account(self, env):
        """Cache traffic must not consume storage-account transactions."""
        from repro.storage import LIMITS_2012
        from repro.storage.analytics import attach_analytics
        account = SimStorageAccount(
            env, limits=LIMITS_2012.with_overrides(
                account_transactions_per_second=2),
            seed=1)
        _, metrics = attach_analytics(account.cluster)
        cache = account.cache_client()

        def body():
            yield from cache.create_cache("hot")
            for i in range(50):  # far beyond 2 tx/s
                yield from cache.put("hot", f"k{i}", b"v")

        run(env, body())
        totals = metrics.service_totals("cache")
        assert totals.total_requests == 51
        assert totals.total_throttles == 0

    def test_custom_capacity_and_ttl(self, env, account):
        cache = account.cache_client()

        def body():
            c = yield from cache.create_cache(
                "tiny", capacity_bytes=8 * KB, default_ttl=42.0)
            return c.capacity_bytes, c.default_ttl

        assert run(env, body()) == (8 * KB, 42.0)
