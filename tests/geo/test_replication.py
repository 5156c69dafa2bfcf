"""Unit tests for geo-replication: log shipping, RA-GRS routing, failover."""

import pytest

from repro.faults.spec import FaultKind, FaultSpec
from repro.geo import GeoAccount
from repro.simkit import Environment
from repro.storage.errors import (
    RegionDownError,
    SecondaryReadOnlyError,
)


@pytest.fixture
def env():
    return Environment()


def run(env, gen):
    # The replicator polls forever, so run *until the body finishes*
    # (a bare env.run() would never return on a geo account).
    p = env.process(gen)
    env.run(until=p)
    return p.value


def seed_queue(env, geo, n=3, queue="geoq"):
    qc = geo.queue_client()

    def body():
        yield from qc.create_queue(queue)
        for i in range(n):
            yield from qc.put_message(queue, f"payload-{i}".encode())

    return run(env, body())


class TestLogShipping:
    def test_mutations_land_on_the_log_in_ack_order(self, env):
        geo = GeoAccount(env, lag_s=2.0)
        seed_queue(env, geo)
        assert [r.seq for r in geo.log] == list(range(len(geo.log)))
        assert [r.method for r in geo.log] == [
            "create_queue"] + ["put_message"] * 3
        times = [r.time for r in geo.log]
        assert times == sorted(times)

    def test_replay_is_bit_exact(self, env):
        """Shipped messages carry the *same* ids, payloads, and insertion
        times as the primary's — counter-based ids plus the pinned
        replay clock make the secondary byte-identical at the LST."""
        geo = GeoAccount(env, lag_s=1.0)
        seed_queue(env, geo)
        env.run(until=env.now + 10.0)

        def snapshot(account):
            messages = account.state.queues.queues["geoq"]._messages
            return [(m.message_id, m.content.to_bytes(), m.insertion_time)
                    for m in messages]

        primary = snapshot(geo.primary)
        assert len(primary) == 3
        assert snapshot(geo.secondary) == primary

    def test_last_sync_time_advances_past_drained_backlog(self, env):
        geo = GeoAccount(env, lag_s=1.0)
        seed_queue(env, geo)
        ack_times = [r.time for r in geo.log]
        env.run(until=env.now + 10.0)
        assert geo.replicator.backlog == 0
        assert geo.last_sync_time > max(ack_times)
        assert len(geo.replicator.ship_events) == len(geo.log)
        assert geo.replicator.apply_errors == []

    def test_stall_freezes_last_sync_time_and_defers_ships(self, env):
        geo = GeoAccount(env, lag_s=0.5)
        stall = FaultSpec(FaultKind.REPLICATION_STALL, start=0.0,
                          duration=20.0)
        geo.replicator.set_stalls([stall])
        seed_queue(env, geo)
        env.run(until=10.0)
        # Mid-stall: nothing shipped, the watermark is frozen while the
        # primary keeps acknowledging — the growing loss bound.
        assert geo.replicator.ship_events == []
        assert geo.last_sync_time < min(r.time for r in geo.log)
        env.run(until=30.0)
        # Past the stall the backlog drains; applies land after the
        # window, not inside it.
        assert len(geo.replicator.ship_events) == len(geo.log)
        assert all(apply_t >= 20.0
                   for (_, _, apply_t) in geo.replicator.ship_events)


class TestRaGrsRouting:
    def test_secondary_endpoint_rejects_writes_until_promoted(self, env):
        geo = GeoAccount(env, lag_s=1.0)
        seed_queue(env, geo)
        sqc = geo.secondary_queue_client()

        def body():
            yield from sqc.put_message("geoq", b"direct")

        with pytest.raises(SecondaryReadOnlyError):
            run(env, body())
        assert geo.controller.stats["secondary_write_rejections"] == 1

    def test_reads_fall_back_to_secondary_during_outage(self, env):
        geo = GeoAccount(env, lag_s=1.0)
        seed_queue(env, geo)
        env.run(until=env.now + 10.0)  # let the backlog ship
        geo.controller.install_outages([FaultSpec(
            FaultKind.REGION_OUTAGE, region="primary",
            start=env.now, duration=100.0)])
        qc = geo.queue_client()

        def body():
            count = yield from qc.get_message_count("geoq")
            head = yield from qc.peek_message("geoq")
            return count, head

        count, head = run(env, body())
        assert count == 3
        assert head is not None
        assert geo.controller.stats["secondary_reads"] == 2

    def test_get_message_never_falls_back(self, env):
        """Get consumes visibility: the real secondary endpoint only
        allowed Peek, so an outage surfaces to the retry loop."""
        geo = GeoAccount(env, lag_s=1.0)
        seed_queue(env, geo)
        env.run(until=env.now + 10.0)
        geo.controller.install_outages([FaultSpec(
            FaultKind.REGION_OUTAGE, region="primary",
            start=env.now, duration=100.0)])
        qc = geo.queue_client()

        def body():
            yield from qc.get_message("geoq")

        with pytest.raises(RegionDownError):
            run(env, body())

    def test_region_down_error_is_retryable(self):
        from repro.storage.errors import ServerBusyError
        assert issubclass(RegionDownError, ServerBusyError)


class TestDropInClient:
    def test_plain_attributes_answer_as_the_active_stamp(self, env):
        """Bodies written for a single-region client read ``env``,
        ``state`` and ``account`` off it, and anything else that is not a
        method comes from the stamp serving the endpoint."""
        from repro.framework import QueueBarrier

        geo = GeoAccount(env, lag_s=1.0)
        qc = geo.queue_client()
        assert qc.env is env and qc.account is geo
        assert qc.state is geo.primary.state
        assert qc.cluster is geo.primary.cluster
        assert QueueBarrier(qc, "geo-sync", 2).workers == 2  # clock from qc.env

        seed_queue(env, geo)
        env.run(until=env.now + 10.0)
        env.process(geo.failover_process("forced", delay_s=0.5))
        env.run(until=env.now + 5.0)
        assert geo.controller.promoted
        assert qc.state is geo.secondary.state
        assert qc.cluster is geo.secondary.cluster


class TestFailover:
    def test_planned_failover_drains_then_promotes_with_zero_loss(self, env):
        geo = GeoAccount(env, lag_s=2.0)
        seed_queue(env, geo, n=5)
        env.process(geo.failover_process("planned", delay_s=1.0))
        env.run(until=60.0)
        assert geo.controller.promoted
        assert geo.controller.lost_records == ()
        assert len(geo.replicator.ship_events) == len(geo.log)

    def test_forced_failover_loses_exactly_the_unshipped_suffix(self, env):
        geo = GeoAccount(env, lag_s=30.0)  # nothing ships before the cut
        seed_queue(env, geo, n=4)
        env.process(geo.failover_process("forced", delay_s=0.5))
        env.run(until=20.0)
        assert geo.controller.promoted
        lost = geo.controller.lost_records
        assert len(lost) == len(geo.log)  # whole log stranded
        lst = geo.controller.final_last_sync_time
        # The durability contract: nothing acked strictly before the
        # final Last Sync Time may be lost.
        assert all(r.time >= lst for r in lost)

    def test_promoted_secondary_accepts_writes(self, env):
        geo = GeoAccount(env, lag_s=1.0)
        seed_queue(env, geo)
        env.run(until=env.now + 10.0)
        env.process(geo.failover_process("forced", delay_s=0.5))
        env.run(until=env.now + 5.0)
        assert geo.controller.promoted
        qc = geo.queue_client()

        def body():
            msg = yield from qc.put_message("geoq", b"after")
            got = yield from qc.get_message("geoq")
            return msg, got

        msg, got = run(env, body())
        assert msg is not None and got is not None
        # The promoted stamp is the account endpoint now.
        assert geo.state is geo.secondary.state

    def test_primary_rejected_after_promotion(self, env):
        geo = GeoAccount(env, lag_s=1.0)
        seed_queue(env, geo)
        env.run(until=env.now + 10.0)
        env.process(geo.failover_process("forced", delay_s=0.5))
        env.run(until=env.now + 5.0)
        pqc = geo.primary.queue_client()

        def body():
            yield from pqc.put_message("geoq", b"stale-endpoint")

        with pytest.raises(RegionDownError, match="decommissioned"):
            run(env, body())

    def test_failover_rejects_unknown_mode(self, env):
        geo = GeoAccount(env, lag_s=1.0)
        with pytest.raises(ValueError, match="unknown failover mode"):
            run(env, geo.failover_process("sideways"))


class TestDeterminism:
    def test_same_seed_same_log_and_ships(self):
        def one_run():
            env = Environment()
            geo = GeoAccount(env, seed=13, lag_s=1.0)
            seed_queue(env, geo)
            env.run(until=30.0)
            return ([(r.seq, r.time, r.method) for r in geo.log],
                    geo.replicator.ship_events, geo.last_sync_time)

        assert one_run() == one_run()

    def test_geo_account_draws_no_extra_randomness(self):
        """A geo run's primary acks exactly match a single-region run:
        the replicator and the secondary draw no RNG of their own."""
        from repro.sim import SimStorageAccount

        def ack_times(make_account):
            env = Environment()
            account = make_account(env)
            qc = account.queue_client()
            times = []

            def body():
                yield from qc.create_queue("geoq")
                for i in range(4):
                    yield from qc.put_message("geoq", b"x")
                    times.append(env.now)

            p = env.process(body())
            env.run(until=p)
            return times

        single = ack_times(lambda env: SimStorageAccount(env, seed=5))
        geo = ack_times(lambda env: GeoAccount(env, seed=5, lag_s=1.0))
        assert single == geo
