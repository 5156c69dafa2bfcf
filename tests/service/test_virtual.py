"""The virtual-time loop, and ``repro sndn``'s driver on the real cluster.

The loop must keep asyncio's contract with a clock that jumps: timers
fire in deadline order, an hour's sleep costs no wall time, and a loop
with nothing left to wait for fails instead of hanging.  The driver
backs the ``repro sndn`` scaling figure, so the tests pin what the
figure depends on: bit-identical reruns for one seed, more data nodes
-> more throughput while the DN tier is the bottleneck, a coherent
result, the grid, and replication absorbing a DN crash.
"""

import asyncio
import gc
import logging
import time

import pytest

from repro.service.virtual import VirtualLoop, measure, run_virtual, sweep


class TestVirtualLoop:
    def test_an_hour_of_sleep_costs_no_wall_time(self):
        async def main():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.sleep(3600)
            return loop.time() - start

        wall = time.perf_counter()
        assert run_virtual(main()) == pytest.approx(3600)
        assert time.perf_counter() - wall < 0.5

    def test_an_idle_loop_with_no_timer_raises(self):
        loop = VirtualLoop()
        never = loop.create_future()
        try:
            with pytest.raises(RuntimeError, match="wait forever"):
                loop.run_until_complete(never)
        finally:
            never.cancel()
            loop.close()

    def test_call_later_fires_in_deadline_order(self):
        async def main():
            loop = asyncio.get_running_loop()
            fired, done = [], loop.create_future()
            for name, delay in (("c", 3.0), ("a", 1.0), ("d", 4.0),
                                ("b", 2.0)):
                loop.call_later(delay, lambda n=name: fired.append(
                    (n, loop.time())))
            loop.call_later(5.0, done.set_result, None)
            await done
            return fired

        assert run_virtual(main()) == [("a", 1.0), ("b", 2.0), ("c", 3.0),
                                       ("d", 4.0)]


def _measure(**overrides):
    base = dict(service_nodes=1, data_nodes=2, clients=8, duration_s=1.0,
                seed=42)
    base.update(overrides)
    return measure(**base)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"service_nodes": 0},
        {"data_nodes": 0},
        {"clients": 0},
        {"fanout": 1.5},
        {"fanout": -0.1},
    ])
    def test_rejects_bad_params(self, bad):
        with pytest.raises(ValueError):
            _measure(**bad)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = _measure(crash_at=0.5, replication=2)
        b = _measure(crash_at=0.5, replication=2)
        assert (a.completed, a.failed) == (b.completed, b.failed)
        assert a.latencies == b.latencies

    def test_different_seed_different_interleaving(self):
        a = _measure(seed=1)
        b = _measure(seed=2)
        assert a.latencies != b.latencies


class TestScaling:
    def test_more_data_nodes_more_throughput(self):
        """A DN charges 5x an SN's CPU, so the DN tier bottlenecks:
        going from one data node to four must raise throughput."""
        one = _measure(data_nodes=1, duration_s=2.0)
        four = _measure(data_nodes=4, duration_s=2.0)
        assert four.throughput_rps > one.throughput_rps * 1.5

    def test_result_is_coherent(self):
        r = _measure()
        assert r.completed == len(r.latencies)
        assert r.completed > 0 and r.failed == 0
        assert 0 < r.mean_latency_s <= r.p95_latency_s
        assert r.throughput_rps == pytest.approx(r.completed / r.duration_s)


class TestSweep:
    def test_grid_shape_and_keys(self):
        results = sweep((1, 2), (1, 2), clients=8, duration_s=0.5, seed=7)
        assert set(results) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        for (sn, dn), r in results.items():
            assert (r.service_nodes, r.data_nodes) == (sn, dn)


class TestCrash:
    def test_replication_absorbs_a_crash(self):
        """DN 0 dies mid-window: with R=1 its shards' requests fail, with
        R=2 the surviving replica answers most of them."""
        crash = dict(duration_s=3.0, crash_at=1.0, detect=0.5)
        alone = _measure(replication=1, **crash)
        paired = _measure(replication=2, **crash)
        assert alone.availability < 1.0
        assert paired.availability >= alone.availability

    def test_teardown_leaves_no_pending_task(self, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            _measure(replication=2, crash_at=0.5, detect=0.3)
            gc.collect()
        assert not [rec for rec in caplog.records
                    if "destroyed but it is pending" in rec.getMessage()]
