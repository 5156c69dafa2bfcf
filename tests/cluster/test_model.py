"""Unit tests for the storage cluster model: placement, costs, throttles."""

import pytest

from repro.cluster import (
    DEFAULT_CALIBRATION,
    FabricCalibration,
    OpDescriptor,
    OpKind,
    Service,
    ServerPool,
    StorageCluster,
)
from repro.simkit import Environment
from repro.storage import KB, LIMITS_2012, MB, ServerBusyError
from repro.storage.analytics import attach_analytics


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    # Disable jitter so occupancy assertions are exact.
    cal = FabricCalibration(jitter_sigma=0.0)
    return StorageCluster(env, calibration=cal, seed=1)


def run_op(env, cluster, op):
    p = env.process(cluster.execute(op))
    env.run()
    return env.now


class TestPlacement:
    def test_blob_partition_per_blob(self, cluster):
        s1 = cluster.server_for(OpDescriptor(Service.BLOB, OpKind.PUT_PAGE, "c/b1"))
        s2 = cluster.server_for(OpDescriptor(Service.BLOB, OpKind.PUT_PAGE, "c/b2"))
        s1b = cluster.server_for(OpDescriptor(Service.BLOB, OpKind.GET_PAGE, "c/b1"))
        assert s1 is not s2
        assert s1 is s1b

    def test_queue_partition_per_queue(self, cluster):
        servers = {cluster.server_for(
            OpDescriptor(Service.QUEUE, OpKind.PUT_MESSAGE, f"q-{i}"))
            for i in range(10)}
        assert len(servers) == 10

    def test_table_partitions_share_range_servers(self, cluster):
        servers = {id(cluster.server_for(
            OpDescriptor(Service.TABLE, OpKind.INSERT_ENTITY, f"worker-{i}")))
            for i in range(100)}
        assert len(servers) == DEFAULT_CALIBRATION.table_range_servers

    def test_server_pool_stable_assignment(self, env):
        pool = ServerPool(env, "x", 4, shards=4)
        a = pool.server_for("partition-a")
        assert pool.server_for("partition-a") is a

    def test_server_pool_validation(self, env):
        with pytest.raises(ValueError):
            ServerPool(env, "x", 4, shards=0)


class TestCostModel:
    def test_read_cost_ordering(self, cluster):
        """stream < sequential block < random page, per the calibration."""
        n = 1 * MB
        stream = cluster.server_occupancy(
            OpDescriptor(Service.BLOB, OpKind.DOWNLOAD_BLOB, "c/b", nbytes=n))
        seq = cluster.server_occupancy(
            OpDescriptor(Service.BLOB, OpKind.GET_BLOCK, "c/b", nbytes=n))
        rand = cluster.server_occupancy(
            OpDescriptor(Service.BLOB, OpKind.GET_PAGE, "c/b", nbytes=n))
        assert stream < seq < rand

    def test_write_cost_ordering(self, cluster):
        """page write < block write (staging overhead)."""
        n = 1 * MB
        page = cluster.server_occupancy(
            OpDescriptor(Service.BLOB, OpKind.PUT_PAGE, "c/b", nbytes=n))
        block = cluster.server_occupancy(
            OpDescriptor(Service.BLOB, OpKind.PUT_BLOCK, "c/b", nbytes=n))
        assert page < block
        # the paper's ~3x gap
        assert 2.0 < block / page < 4.0

    def test_saturation_throughputs_match_paper(self, cluster):
        """slots/occupancy at 1 MB chunks reproduces the paper's MB/s."""
        cal = cluster.cal
        slots = cal.blob_server_slots

        def agg(kind):
            occ = cluster.server_occupancy(
                OpDescriptor(Service.BLOB, kind, "c/b", nbytes=1 * MB))
            return slots * 1.0 / occ  # MB/s

        assert agg(OpKind.DOWNLOAD_BLOB) == pytest.approx(165, rel=0.03)
        assert agg(OpKind.GET_BLOCK) == pytest.approx(104, rel=0.03)
        assert agg(OpKind.GET_PAGE) == pytest.approx(71, rel=0.03)
        assert agg(OpKind.PUT_PAGE) == pytest.approx(60, rel=0.03)
        assert agg(OpKind.PUT_BLOCK) == pytest.approx(21, rel=0.03)

    def test_queue_op_ordering(self, cluster):
        n = 4 * KB
        put = cluster.server_occupancy(
            OpDescriptor(Service.QUEUE, OpKind.PUT_MESSAGE, "q", nbytes=n))
        peek = cluster.server_occupancy(
            OpDescriptor(Service.QUEUE, OpKind.PEEK_MESSAGE, "q", nbytes=n))
        get = cluster.server_occupancy(
            OpDescriptor(Service.QUEUE, OpKind.GET_MESSAGE, "q", nbytes=n))
        assert peek < put < get

    def test_queue_16k_anomaly(self, cluster):
        def get_cost(n):
            return cluster.server_occupancy(
                OpDescriptor(Service.QUEUE, OpKind.GET_MESSAGE, "q", nbytes=n))

        assert get_cost(16 * KB) > 1.5 * get_cost(8 * KB)
        assert get_cost(16 * KB) > 1.2 * get_cost(32 * KB)

    def test_anomaly_can_be_disabled(self, env):
        cal = FabricCalibration(jitter_sigma=0.0, queue_get_16k_anomaly_factor=1.0)
        c = StorageCluster(env, calibration=cal)

        def get_cost(n):
            return c.server_occupancy(
                OpDescriptor(Service.QUEUE, OpKind.GET_MESSAGE, "q", nbytes=n))

        assert get_cost(16 * KB) < get_cost(32 * KB)

    def test_table_op_ordering(self, cluster):
        n = 4 * KB
        costs = {
            kind: cluster.server_occupancy(
                OpDescriptor(Service.TABLE, kind, "p", nbytes=n))
            for kind in (OpKind.QUERY_ENTITY, OpKind.INSERT_ENTITY,
                         OpKind.UPDATE_ENTITY, OpKind.DELETE_ENTITY)
        }
        assert costs[OpKind.QUERY_ENTITY] == min(costs.values())
        assert costs[OpKind.UPDATE_ENTITY] == max(costs.values())

    def test_commit_cost_scales_with_blocks(self, cluster):
        small = cluster.server_occupancy(OpDescriptor(
            Service.BLOB, OpKind.PUT_BLOCK_LIST, "c/b", block_count=1))
        big = cluster.server_occupancy(OpDescriptor(
            Service.BLOB, OpKind.PUT_BLOCK_LIST, "c/b", block_count=100))
        assert big > small

    def test_is_write_classification(self):
        assert OpDescriptor(Service.QUEUE, OpKind.PUT_MESSAGE, "q").is_write
        assert not OpDescriptor(Service.QUEUE, OpKind.PEEK_MESSAGE, "q").is_write
        assert OpDescriptor(Service.TABLE, OpKind.DELETE_ENTITY, "p").is_write
        assert not OpDescriptor(Service.BLOB, OpKind.DOWNLOAD_BLOB, "c/b").is_write


def _written_out(cal, kind, n):
    """The occupancy of a linear-cost kind as the cost model spelled it
    out per kind before the ``(base, per_byte)`` table."""
    return {
        OpKind.DOWNLOAD_BLOB: lambda: n * cal.blob_stream_read_s_per_byte,
        OpKind.GET_BLOCK: lambda: (cal.blob_block_lookup_s
                                   + n * cal.blob_stream_read_s_per_byte),
        OpKind.GET_PAGE: lambda: (cal.blob_page_seek_s
                                  + n * cal.blob_stream_read_s_per_byte),
        OpKind.PUT_PAGE: lambda: n * cal.blob_write_s_per_byte,
        OpKind.UPLOAD_BLOB: lambda: n * cal.blob_write_s_per_byte,
        OpKind.PUT_MESSAGE: lambda: (cal.queue_put_sync_s
                                     + n * cal.queue_write_s_per_byte),
        OpKind.PEEK_MESSAGE: lambda: n * cal.queue_read_s_per_byte,
        OpKind.DELETE_MESSAGE: lambda: cal.queue_delete_sync_s,
        OpKind.UPDATE_MESSAGE: lambda: (cal.queue_put_sync_s
                                        + n * cal.queue_write_s_per_byte),
        OpKind.GET_MESSAGE_COUNT: lambda: cal.queue_msg_count_s,
        OpKind.CACHE_GET: lambda: (cal.cache_get_base_s
                                   + n * cal.cache_s_per_byte),
        OpKind.CACHE_PUT: lambda: (cal.cache_put_base_s
                                   + n * cal.cache_s_per_byte),
        OpKind.CACHE_REMOVE: lambda: (cal.cache_put_base_s
                                      + n * cal.cache_s_per_byte),
        OpKind.QUERY_ENTITY: lambda: (cal.table_query_base_s
                                      + n * cal.table_read_s_per_byte),
        OpKind.INSERT_ENTITY: lambda: (cal.table_insert_base_s
                                       + n * cal.table_insert_s_per_byte),
        OpKind.UPDATE_ENTITY: lambda: (cal.table_update_base_s
                                       + n * cal.table_update_s_per_byte),
        OpKind.MERGE_ENTITY: lambda: (cal.table_update_base_s
                                      + n * cal.table_update_s_per_byte),
        OpKind.DELETE_ENTITY: lambda: (cal.table_delete_base_s
                                       + n * cal.table_delete_s_per_byte),
    }[kind]()


@pytest.mark.parametrize("n", (0, 1, 511, 4 * KB, 16 * KB + 1, 3 * MB + 7))
def test_linear_cost_table_is_bit_identical_to_the_written_out_costs(
        cluster, n):
    for kind in cluster._linear_cost:
        op = OpDescriptor(Service.QUEUE, kind, "p", nbytes=n)
        assert cluster.server_occupancy(op).hex() == _written_out(
            cluster.cal, kind, n).hex(), kind


def _service_of(kind):
    name = kind.name
    if kind in (OpKind.GET_PAGE, OpKind.GET_BLOCK, OpKind.PUT_PAGE,
                OpKind.PUT_BLOCK, OpKind.PUT_BLOCK_LIST) or "BLOB" in name \
            or "CONTAINER" in name:
        return Service.BLOB
    if "MESSAGE" in name or "QUEUE" in name:
        return Service.QUEUE
    if "CACHE" in name:
        return Service.CACHE
    return Service.TABLE


@pytest.mark.parametrize("kind", list(OpKind))
def test_the_round_trip_charges_server_occupancy(env, cluster, kind):
    """The round trip's inline table read and its call for the other
    kinds charge what ``server_occupancy`` says, 16 KB anomaly, batch
    units and block counts included."""
    service = _service_of(kind)
    op = OpDescriptor(service, kind, "p", nbytes=16 * KB + 1, units=3,
                      block_count=5)
    rtt = cluster._base_rtt[service]
    assert run_op(env, cluster, op) == rtt / 2 + cluster.server_occupancy(
        op) + rtt / 2


class TestExecution:
    def test_execute_takes_time(self, env, cluster):
        op = OpDescriptor(Service.QUEUE, OpKind.PUT_MESSAGE, "q", nbytes=1024)
        t = run_op(env, cluster, op)
        assert t > 0

    def test_contention_serializes(self, env, cluster):
        """More concurrent ops on one partition than slots -> queueing."""
        slots = cluster.cal.queue_server_slots
        n_ops = slots * 4
        times = []

        def client(env):
            start = env.now
            yield from cluster.execute(OpDescriptor(
                Service.QUEUE, OpKind.PUT_MESSAGE, "shared", nbytes=32 * KB))
            times.append(env.now - start)

        for _ in range(n_ops):
            env.process(client(env))
        env.run()
        solo = min(times)
        assert max(times) > 2 * solo  # the queued ones waited

    def test_separate_partitions_do_not_contend(self, env, cluster):
        times = []

        def client(env, i):
            start = env.now
            yield from cluster.execute(OpDescriptor(
                Service.QUEUE, OpKind.PUT_MESSAGE, f"own-{i}", nbytes=32 * KB))
            times.append(env.now - start)

        for i in range(32):
            env.process(client(env, i))
        env.run()
        assert max(times) < 1.2 * min(times)

    def test_account_tx_throttle(self, env):
        limits = LIMITS_2012.with_overrides(account_transactions_per_second=10)
        cal = FabricCalibration(jitter_sigma=0.0)
        cluster = StorageCluster(env, limits=limits, calibration=cal)
        _, metrics = attach_analytics(cluster)
        errors = []

        def client(env, i):
            try:
                yield from cluster.execute(OpDescriptor(
                    Service.QUEUE, OpKind.PUT_MESSAGE, f"q-{i}", nbytes=10))
            except ServerBusyError as exc:
                errors.append(exc)

        for i in range(20):
            env.process(client(env, i))
        env.run()
        assert len(errors) == 10
        assert metrics.service_totals("queue").total_throttles == 10

    def test_per_queue_throttle(self, env):
        limits = LIMITS_2012.with_overrides(queue_messages_per_second=5)
        cal = FabricCalibration(jitter_sigma=0.0)
        cluster = StorageCluster(env, limits=limits, calibration=cal)
        errors = []

        def client(env):
            try:
                yield from cluster.execute(OpDescriptor(
                    Service.QUEUE, OpKind.PUT_MESSAGE, "hot", nbytes=10))
            except ServerBusyError:
                errors.append(1)

        for _ in range(8):
            env.process(client(env))
        env.run()
        assert len(errors) == 3

    def test_partition_throttle_only_hits_that_partition(self, env):
        limits = LIMITS_2012.with_overrides(partition_entities_per_second=3)
        cal = FabricCalibration(jitter_sigma=0.0)
        cluster = StorageCluster(env, limits=limits, calibration=cal)
        outcomes = {"hot": 0, "cold": 0}

        def client(env, part):
            try:
                yield from cluster.execute(OpDescriptor(
                    Service.TABLE, OpKind.INSERT_ENTITY, part, nbytes=10))
            except ServerBusyError:
                outcomes[part] += 1

        for _ in range(5):
            env.process(client(env, "hot"))
        for _ in range(2):
            env.process(client(env, "cold"))
        env.run()
        assert outcomes == {"hot": 2, "cold": 0}

    def test_jitter_deterministic_per_seed(self):
        def run_once(seed):
            env = Environment()
            cluster = StorageCluster(env, seed=seed)
            p = env.process(cluster.execute(OpDescriptor(
                Service.BLOB, OpKind.PUT_PAGE, "c/b", nbytes=1 * MB)))
            env.run()
            return env.now

        assert run_once(5) == run_once(5)
        assert run_once(5) != run_once(6)

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            FabricCalibration(blob_server_slots=0).validate()
        with pytest.raises(ValueError):
            FabricCalibration(jitter_sigma=-1).validate()
        with pytest.raises(ValueError):
            FabricCalibration(blob_base_rtt=-0.1).validate()
        DEFAULT_CALIBRATION.validate()  # the shipped one is valid
