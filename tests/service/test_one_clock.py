"""The live tier reads one clock: the ``time()`` of the cluster's loop.

Every service node, every data-node shard and the membership hold the
cluster's one clock, so a loop whose ``time()`` is far from
``time.monotonic()`` carries all of them with it: the crash stamp, the
death and the heal are instants on the same time base as the loop's
timers.
"""

import asyncio

from repro.service import ServiceCluster
from repro.service.membership import FailureDomainConfig

#: How far the test loop's clock runs ahead of ``time.monotonic()``.
AHEAD = 1e6


class AheadLoop(asyncio.SelectorEventLoop):
    """An event loop whose ``time()`` is ``AHEAD`` seconds in the future."""

    def time(self) -> float:
        return super().time() + AHEAD


def test_every_node_and_the_membership_follow_the_cluster_loop():
    async def main():
        loop = asyncio.get_running_loop()
        cluster = ServiceCluster(nodes=2, dn=3, failure_domain=(
            FailureDomainConfig(
                replicas=2, health_checks=True, heartbeat_interval=0.05,
                dead_after=3, heartbeat_timeout=0.3, seed=3)))
        await cluster.start()
        try:
            clock = cluster.service_nodes[0].clock
            shards = [shard for dn in cluster.data_nodes
                      for shard in dn._shards.values()]
            holders = ([sn.clock for sn in cluster.service_nodes]
                       + [shard.state.clock for shard in shards])
            assert all(held is clock for held in holders)

            before = loop.time()
            cluster.crash_data_node(1)
            recovery = await cluster.recovery(1, timeout=10.0)
            shard_now = shards[0].state.clock.now()
            op_now = shards[0].op_call.now
            after = loop.time()
            membership = cluster.membership
            return (recovery, before, cluster.data_nodes[1].crashed_at,
                    membership.last_death_at, membership.last_heal_at,
                    shard_now, op_now, after)
        finally:
            await cluster.stop()

    loop = AheadLoop()
    try:
        (recovery, before, crashed, died, healed, shard_now, op_now,
         after) = loop.run_until_complete(main())
    finally:
        loop.close()
    assert recovery["detected"] and recovery["settled"]
    assert before >= AHEAD
    assert before <= crashed <= died <= healed <= after
    assert before <= shard_now <= op_now <= after
    assert recovery["unavailable_s"] == healed - crashed
    assert recovery["recovery_s"] == healed - died
