"""DN failure domain on a live cluster: kills, drains, hedges, 503s.

Every test here stands up its own small replicated cluster with fast
heartbeat timers (a killed data node would poison the shared module
fixture), drives it through the public wire clients, and checks the
failure-domain contract: committed writes survive a crash, membership
detects deaths and rebalances, reads hedge around slow primaries, and
an ownerless shard surfaces 503 + Retry-After that the client honors.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import FaultKind, FaultSpec
from repro.service import DEV_KEY, TenantConfig, TenantDirectory
from repro.service.client import (ServiceConnection, WireBlobClient,
                                  WireQueueClient, WireTableClient)
from repro.service.cluster import ClusterRunner, ServiceCluster
from repro.service.membership import FailureDomainConfig, NodeState
from repro.storage.errors import StorageError
from repro.traffic import ArrivalSpec
from repro.traffic.engine import LoadConfig, run_load
from repro.wallclock import exhaust as drive

CONTAINER, QUEUE, TABLE, PARTITION = "cont", "failq", "failt", "fd"


def fast_config(replicas=2, seed=11, **overrides):
    """Failure domain with sub-second detection, for test-speed kills."""
    settings = dict(
        replicas=replicas, health_checks=True, heartbeat_interval=0.05,
        suspect_after=1, dead_after=3, heartbeat_timeout=0.3,
        hedge_delay=0.02, retry_after=0.25, seed=seed)
    settings.update(overrides)
    return FailureDomainConfig(**settings)


@contextlib.contextmanager
def replicated_cluster(dn=3, replicas=2, **overrides):
    tenants = TenantDirectory(
        [TenantConfig.development(enforce_targets=False)])
    cluster = ServiceCluster(
        nodes=1, dn=dn, tenants=tenants,
        failure_domain=fast_config(replicas=replicas, **overrides))
    with ClusterRunner(cluster) as runner:
        yield cluster, runner


def kill(runner, node):
    """Crash-stop data node ``node`` now, on the cluster loop."""
    runner.schedule_faults([FaultSpec(kind=FaultKind.DN_CRASH, node=node)])


def recovered(runner, deaths):
    """The heartbeats declared ``deaths`` DNs dead and the heal settled."""
    recovery = runner.wait_recovery(deaths, timeout=10.0)
    return recovery["detected"] and recovery["settled"]


def make_clients(cluster, *, busy_retries=4):
    conn = ServiceConnection(cluster.endpoints(0), "devstoreaccount1",
                             DEV_KEY, busy_retries=busy_retries)
    return (WireBlobClient(conn), WireQueueClient(conn),
            WireTableClient(conn))


def seed_data(cluster, *, blobs=8, rows=8, messages=5):
    """Create the namespaces and commit a known data set; return it."""
    bc, qc, tc = make_clients(cluster)
    drive(bc.create_container(CONTAINER))
    drive(qc.create_queue(QUEUE))
    drive(tc.create_table(TABLE))
    data = {}
    for i in range(blobs):
        body = f"payload-{i}".encode() * 40
        drive(bc.upload_blob(CONTAINER, f"b-{i}", body))
        data[f"b-{i}"] = body
    for i in range(rows):
        drive(tc.insert(TABLE, PARTITION, f"r-{i}", {"v": f"val-{i}"}))
    for i in range(messages):
        drive(qc.put_message(QUEUE, f"msg-{i}".encode()))
    return data


def to_bytes(content):
    if isinstance(content, (bytes, bytearray, memoryview)):
        return bytes(content)
    return content.to_bytes()


def assert_data_intact(cluster, data, *, rows=8, messages=5):
    bc, qc, tc = make_clients(cluster)
    for name, body in data.items():
        assert to_bytes(drive(bc.download_block_blob(
            CONTAINER, name))) == body, f"blob {name} lost or corrupted"
    for i in range(rows):
        entity = drive(tc.get(TABLE, PARTITION, f"r-{i}"))
        assert entity.get("v") == f"val-{i}"
    drained = set()
    while True:
        msg = drive(qc.get_message(QUEUE, visibility_timeout=3600.0))
        if msg is None:
            break
        drained.add(to_bytes(msg.content))
    # At-least-once: every committed message drains (extras tolerated).
    assert {f"msg-{i}".encode() for i in range(messages)} <= drained


class TestCrashFailover:
    def test_kill_one_dn_keeps_committed_writes_readable(self):
        with replicated_cluster(dn=3, replicas=2) as (cluster, runner):
            data = seed_data(cluster)
            kill(runner, 1)
            assert recovered(runner, 1)
            membership = cluster.membership
            assert membership.state(1) is NodeState.DEAD
            assert 1 not in membership.ring.nodes
            assert membership.counters["deaths"] == 1
            assert membership.counters["rebalances"] >= 1
            assert_data_intact(cluster, data)

    def test_rebalance_restores_replication_under_double_fault(self):
        """After the first heal re-replicates, a second kill is survivable:
        every shard must be readable from the lone remaining node."""
        with replicated_cluster(dn=3, replicas=2) as (cluster, runner):
            data = seed_data(cluster, messages=0)
            kill(runner, 0)
            assert recovered(runner, 1)
            assert cluster.membership.counters["shards_migrated"] > 0
            kill(runner, 1)
            assert recovered(runner, 2)
            assert cluster.membership.ring.nodes == (2,)
            assert_data_intact(cluster, data, messages=0)

    def test_suspect_precedes_death(self):
        with replicated_cluster(dn=2, replicas=2) as (cluster, runner):
            seed_data(cluster, blobs=1, rows=0, messages=0)
            kill(runner, 0)
            assert recovered(runner, 1)
            counters = cluster.membership.counters
            assert counters["suspects"] >= 1
            assert counters["heartbeats"] >= 1
            assert cluster.membership.live_indices() == [1]

    def test_drain_retires_node_without_a_death(self):
        with replicated_cluster(dn=3, replicas=2) as (cluster, runner):
            data = seed_data(cluster, messages=0)
            runner.drain_data_node(0, timeout=30.0)
            membership = cluster.membership
            assert membership.state(0) is NodeState.DEAD
            assert 0 not in membership.ring.nodes
            # A planned drain is not a crash: no death was ever declared.
            assert membership.counters["deaths"] == 0
            assert_data_intact(cluster, data, messages=0)


class TestNoOwner503:
    def test_ownerless_shard_503_and_client_honors_retry_after(self):
        with replicated_cluster(dn=1, replicas=1) as (cluster, runner):
            bc, _, _ = make_clients(cluster, busy_retries=0)
            drive(bc.create_container(CONTAINER))
            kill(runner, 0)
            assert recovered(runner, 1)

            with pytest.raises(StorageError) as info:
                drive(bc.upload_blob(CONTAINER, "orphan", b"x"))
            assert info.value.status_code == 503
            assert getattr(info.value, "retry_after", None) == 0.25
            assert cluster.membership.counters["no_owner_503s"] >= 1

            # With a retry budget the client sleeps out each advertised
            # Retry-After before giving up: two retries >= 2 * 0.25 s.
            bc2, _, _ = make_clients(cluster, busy_retries=2)
            started = time.monotonic()
            with pytest.raises(StorageError) as info:
                drive(bc2.download_block_blob(CONTAINER, "orphan"))
            assert info.value.status_code == 503
            assert time.monotonic() - started >= 0.45


class TestHedgedReads:
    def test_hedged_read_beats_a_slow_primary(self):
        # Lazy heartbeats: the stalled node must stay in the ring long
        # enough for the read path (not death detection) to route around
        # it, which is exactly what the hedge is for.
        with replicated_cluster(
                dn=2, replicas=2, heartbeat_interval=0.25,
                heartbeat_timeout=2.0, dead_after=8) as (cluster, runner):
            bc, _, _ = make_clients(cluster)
            drive(bc.create_container(CONTAINER))
            body = b"hot-object" * 64
            drive(bc.upload_blob(CONTAINER, "hot", body))

            membership = cluster.membership
            label = f"devstoreaccount1/blob/{CONTAINER}/hot"
            primary = membership.ring.owners(label)[0]
            runner.schedule_faults([FaultSpec(
                kind=FaultKind.DN_SLOW, node=primary, latency_factor=0.8)])
            started = time.monotonic()
            got = to_bytes(drive(bc.download_block_blob(CONTAINER, "hot")))
            elapsed = time.monotonic() - started

            assert got == body
            assert elapsed < 0.6, "read waited out the slow primary"
            assert membership.counters["hedges"] >= 1


class TestWireFidelity:
    """Even rejects decode like the 2012 wire: XML body + error header."""

    def test_unsupported_version_rejected_with_xml_error(self, raw):
        status, headers, body = raw.request(
            "blob", "GET", f"/{CONTAINER}/x",
            headers={"x-ms-version": "2009-09-19"})
        assert status == 400
        assert headers["x-ms-error-code"] == "InvalidHeaderValue"
        assert headers["content-type"] == "application/xml"
        assert b"<Error><Code>InvalidHeaderValue</Code>" in body
        assert b"2012-02-12" in body

    def test_unknown_uri_shape_rejected_with_invalid_uri(self, raw):
        status, headers, body = raw.request(
            "queue", "GET", "/someq/messages",
            query={"numofmessages": "abc"})
        assert status == 400
        assert headers["x-ms-error-code"] == "InvalidUri"
        assert b"<Error><Code>InvalidUri</Code>" in body
        # The table flavor answers the same failure in OData JSON.
        status, headers, body = raw.request(
            "table", "POST", "/Tbl", body=b"not json",
            headers={"Content-Type": "application/json"})
        assert status == 400
        assert headers["x-ms-error-code"] == "InvalidUri"
        assert b'"code": "InvalidUri"' in body


class TestGracefulShutdown:
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_serve_exits_zero_on_signal(self, sig):
        repo = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--duration", "60"],
            cwd=repo, env=env, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line or "serving" in line:
                    break
            assert proc.poll() is None, "serve died before the signal"
            proc.send_signal(sig)
            _, stderr = proc.communicate(timeout=15.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "shutting down" in stderr


class TestLoadKillValidation:
    def test_kill_flags_must_pair(self):
        with pytest.raises(ValueError):
            LoadConfig(backend="service", kill_dn=0)
        with pytest.raises(ValueError):
            LoadConfig(backend="service", kill_at=5.0)

    def test_kill_must_target_an_existing_dn_inside_the_run(self):
        with pytest.raises(ValueError):
            LoadConfig(backend="service", dn=2, kill_dn=2, kill_at=5.0)
        with pytest.raises(ValueError):
            LoadConfig(backend="service", dn=2, kill_dn=0, kill_at=99.0)

    def test_failure_domain_is_service_backend_only(self):
        with pytest.raises(ValueError):
            LoadConfig(backend="sim", replicas=2)
        with pytest.raises(ValueError):
            LoadConfig(backend="sim", kill_dn=0, kill_at=5.0)

    def test_replicas_bounded_by_dn(self):
        with pytest.raises(ValueError):
            LoadConfig(backend="service", dn=2, replicas=3)
        config = LoadConfig(backend="service", dn=3, replicas=2,
                            kill_dn=1, kill_at=5.0)
        described = config.describe()
        assert described["dn"] == 3 and described["replicas"] == 2
        assert described["kill_dn"] == 1 and described["kill_at_s"] == 5.0

    def test_default_describe_omits_failure_domain_keys(self):
        described = LoadConfig(backend="service").describe()
        for key in ("dn", "replicas", "kill_dn", "kill_at_s"):
            assert key not in described


class TestLoadKill:
    def test_a_mid_run_kill_is_detected_healed_and_bounded(self):
        """``repro load --kill-dn``: the disruption block reads one
        clock, so the heal follows the death and the kill-to-heal
        window stays inside dn-failover's unavailability bound."""
        config = LoadConfig(
            arrivals=ArrivalSpec(rate=25.0, seed=5), backend="service",
            mix="mixed", duration=20.0, window_s=5.0, dn=3, replicas=2,
            kill_dn=1, kill_at=8.0, seed=5)
        disruption = run_load(config).disruption
        assert disruption["detected"] and disruption["settled"]
        assert disruption["deaths"] == 1
        assert 0.0 <= disruption["recovery_s"] <= disruption["unavailable_s"]
        domain = FailureDomainConfig.kill_test(config.replicas, config.seed)
        detect = (domain.dead_after * domain.heartbeat_interval
                  + domain.heartbeat_timeout)
        assert disruption["unavailable_s"] <= detect * 3.0 + 5.0
