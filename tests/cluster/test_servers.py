"""Tests for partition servers and server pools (stats and placement)."""

import pytest

from repro.cluster import PartitionServer, ServerPool
from repro.simkit import Environment, Interrupt

from tests.cluster.bookings import idle, round_trip


@pytest.fixture
def env():
    return Environment()


class TestPartitionServer:
    def test_serve_records_stats(self, env):
        server = PartitionServer(env, "s1", slots=1)

        done = []

        def client(env, occupancy, nbytes):
            yield from round_trip(server, occupancy, nbytes=nbytes)
            done.append(env.now)

        env.process(client(env, 2.0, 100))
        env.process(client(env, 3.0, 200))
        env.run()
        assert server.ops_served == 2
        assert server.bytes_served == 300
        # Second client waited for the first.
        assert done == [pytest.approx(2.0), pytest.approx(5.0)]

    def test_queue_length_under_load(self, env):
        server = PartitionServer(env, "s1", slots=1)
        lengths = []

        def client(env):
            yield from round_trip(server, 5.0)

        def observer(env):
            yield env.timeout(1.0)
            lengths.append(server.queue_length)

        for _ in range(4):
            env.process(client(env))
        env.process(observer(env))
        env.run()
        assert lengths == [3]

    def test_parallel_slots(self, env):
        server = PartitionServer(env, "s2", slots=4)
        done = []

        def client(env, i):
            yield from round_trip(server, 1.0)
            done.append((i, env.now))

        for i in range(4):
            env.process(client(env, i))
        env.run()
        assert all(t == 1.0 for _, t in done)

    def test_interrupted_requests_are_not_counted_as_served(self, env):
        """A recycled role's request never completed: no op, no bytes, no
        full occupancy on the books, and its slot (or its place in the
        queue) goes to the next booking at that very instant."""
        server = PartitionServer(env, "s1", slots=1)
        log = []
        bookings = {}

        def client(name, occupancy, nbytes):
            try:
                yield from round_trip(
                    server, occupancy, nbytes=nbytes,
                    booked=lambda booking: bookings.setdefault(name, booking))
                log.append((name, "served", env.now))
            except Interrupt:
                log.append((name, "interrupted", env.now))

        holder = env.process(client("holder", 10.0, 100))
        waiter = env.process(client("waiter", 10.0, 200))
        env.process(client("next", 2.0, 300))

        def recycler(env):
            yield env.timeout(1.0)
            assert bookings["next"].start == 20.0
            waiter.interrupt("recycled")      # mid-queue
            assert server.queue_length == 2   # delivered after this event
            yield env.timeout(2.0)
            assert server.queue_length == 1
            assert bookings["next"].start == 10.0
            holder.interrupt("recycled")      # mid-occupancy, at t=3
            yield env.timeout(0.0)
            # The holder's slot went to the next booking at t=3.
            assert (bookings["holder"].end, bookings["next"].start) == (3.0, 3.0)
            assert server.queue_length == 0

        env.process(recycler(env))
        env.run()
        assert log == [("waiter", "interrupted", 1.0),
                       ("holder", "interrupted", 3.0),
                       ("next", "served", 5.0)]
        assert server.ops_served == 1
        assert server.bytes_served == 300
        assert idle(server)

    def test_a_cut_leaves_no_event_behind(self, env):
        """Two kernel events per round trip: the request leg's and the
        booking's; an interrupted booking's is taken off the queue."""
        server = PartitionServer(env, "s1", slots=1)

        def client():
            try:
                yield from round_trip(server, 10.0)
            except Interrupt:
                pass

        holder = env.process(client())
        env.process(client())

        def recycler():
            yield env.timeout(1.0)
            holder.interrupt()

        env.process(recycler())
        env.run()
        assert env.now == 11.0   # not 10.0's cut hold, nor 20.0's old end
        # Three processes (start + end each), the recycler's timeout and
        # interrupt, and the served booking's event: the cut one never fires.
        assert env.events_processed == 3 * 2 + 2 + 1


class TestServerPool:
    def test_unsharded_pool_is_per_partition(self, env):
        pool = ServerPool(env, "p", 4)
        servers = {id(pool.server_for(f"part-{i}")) for i in range(20)}
        assert len(servers) == 20
        assert len(pool) == 20

    def test_sharded_pool_caps_server_count(self, env):
        pool = ServerPool(env, "p", 4, shards=3)
        for i in range(50):
            pool.server_for(f"part-{i}")
        assert len(pool) <= 3

    def test_hash_is_deterministic_across_pools(self, env):
        a = ServerPool(env, "a", 4, shards=7)
        b = ServerPool(Environment(), "b", 4, shards=7)
        for key in ("alpha", "beta", "gamma"):
            assert a._server_key(key) == b._server_key(key)

    def test_servers_snapshot(self, env):
        pool = ServerPool(env, "p", 2)
        pool.server_for("x")
        snapshot = pool.servers
        assert list(snapshot) == ["x"]
        snapshot["y"] = None  # mutating the copy must not affect the pool
        assert len(pool) == 1

    def test_placement_memo_is_dropped_on_evict(self, env):
        pool = ServerPool(env, "p", 4, shards=3)
        before = {f"part-{i}": pool.server_for(f"part-{i}") for i in range(12)}
        evicted = pool.evict("part-0")
        assert evicted is before["part-0"]
        for partition, server in before.items():
            again = pool.server_for(partition)
            assert again is pool.server_for(partition)
            assert (again is server) == (server is not evicted)
