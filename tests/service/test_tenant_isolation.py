"""Per-tenant throttles and analytics: one account cannot tax another.

Two accounts share a service node; each has its own interceptor
pipeline, so throttle windows and Storage Analytics are charged per
tenant.  The assertions read the tenants' ``MetricsAggregator`` rollups
(HourlyMetrics ingress/egress/throttles) — the same data the paper's
Storage Analytics figures come from.
"""

import pytest

from tests.service.conftest import (
    RawClient,
    TENANT_B,
    TENANT_B_KEY,
    THROTTLED,
    THROTTLED_KEY,
)
from repro.service.sharedkey import DEV_ACCOUNT


def throttles(tenant) -> int:
    """The 503s the tenant's Storage Analytics counted, over every service."""
    metrics = tenant.metrics
    return sum(metrics.service_totals(service).total_throttles
               for service in metrics.services())


def _blob_totals(cluster, account):
    return cluster.tenants.get(account).metrics.service_totals("blob")


@pytest.fixture(scope="module")
def raw_b(cluster):
    return RawClient(cluster.endpoints(0), account=TENANT_B,
                     key=TENANT_B_KEY)


class TestAnalyticsIsolation:
    def test_ingress_charged_to_the_writing_tenant_only(
            self, cluster, raw, raw_b):
        before_dev = _blob_totals(cluster, DEV_ACCOUNT).total_ingress
        before_b = _blob_totals(cluster, TENANT_B).total_ingress

        raw.request("blob", "PUT", "/isoing", query={"restype": "container"})
        raw.request("blob", "PUT", "/isoing/x", body=b"d" * 1000,
                    headers={"x-ms-blob-type": "BlockBlob"})
        raw_b.request("blob", "PUT", "/isoing", query={"restype": "container"})
        raw_b.request("blob", "PUT", "/isoing/x", body=b"c" * 300,
                      headers={"x-ms-blob-type": "BlockBlob"})

        assert (_blob_totals(cluster, DEV_ACCOUNT).total_ingress
                - before_dev) == 1000
        assert (_blob_totals(cluster, TENANT_B).total_ingress
                - before_b) == 300

    def test_egress_charged_to_the_reading_tenant_only(
            self, cluster, raw, raw_b):
        raw.request("blob", "PUT", "/isoeg", query={"restype": "container"})
        raw.request("blob", "PUT", "/isoeg/x", body=b"e" * 2048,
                    headers={"x-ms-blob-type": "BlockBlob"})
        before_dev = _blob_totals(cluster, DEV_ACCOUNT).total_egress
        before_b = _blob_totals(cluster, TENANT_B).total_egress

        status, _, body = raw.request("blob", "GET", "/isoeg/x")
        assert (status, len(body)) == (200, 2048)

        assert (_blob_totals(cluster, DEV_ACCOUNT).total_egress
                - before_dev) == 2048
        assert _blob_totals(cluster, TENANT_B).total_egress == before_b

    def test_request_logs_are_per_tenant(self, cluster, raw, raw_b):
        dev_len = len(cluster.tenants.get(DEV_ACCOUNT).log.records())
        b_len = len(cluster.tenants.get(TENANT_B).log.records())
        raw.request("queue", "PUT", "/isolog")
        assert len(cluster.tenants.get(DEV_ACCOUNT).log.records()) \
            == dev_len + 1
        assert len(cluster.tenants.get(TENANT_B).log.records()) == b_len


class TestThrottleIsolation:
    def test_storm_throttles_only_the_noisy_tenant(
            self, cluster, raw_b):
        """A 503 storm on one account leaves its neighbour untouched."""
        noisy = RawClient(cluster.endpoints(0), account=THROTTLED,
                          key=THROTTLED_KEY)
        status, _, _ = noisy.request("queue", "PUT", "/stormiso")
        assert status == 201
        raw_b.request("queue", "PUT", "/quietq")

        noisy_tenant = cluster.tenants.get(THROTTLED)
        busy_before = throttles(noisy_tenant)

        statuses = []
        for i in range(15):
            # Interleave: every noisy burst is followed by a quiet-tenant
            # request that must keep succeeding mid-storm.
            s, _, _ = noisy.request(
                "queue", "POST", "/stormiso/messages",
                body=(b"<QueueMessage><MessageText>bTE=</MessageText>"
                      b"</QueueMessage>"))
            statuses.append(s)
            qs, _, _ = raw_b.request(
                "queue", "POST", "/quietq/messages",
                body=(b"<QueueMessage><MessageText>bTE=</MessageText>"
                      b"</QueueMessage>"))
            assert qs == 201

        assert 503 in statuses, "tiny budget never tripped"
        assert throttles(noisy_tenant) - busy_before == statuses.count(503)
        # The neighbours' pipelines saw no throttle at all.
        for other in (DEV_ACCOUNT, TENANT_B):
            assert throttles(cluster.tenants.get(other)) == 0

    def test_throttles_land_in_the_noisy_tenants_analytics(self, cluster):
        noisy = cluster.tenants.get(THROTTLED)
        totals = noisy.metrics.service_totals("queue")
        assert totals.total_throttles > 0
        quiet = cluster.tenants.get(TENANT_B).metrics.service_totals("queue")
        assert quiet.total_throttles == 0

    def test_both_service_nodes_charge_one_window(self, cluster):
        """SN0 and SN1 share the tenant's sliding window: a storm split
        across both nodes still trips the per-account budget."""
        sn0 = RawClient(cluster.endpoints(0), account=THROTTLED,
                        key=THROTTLED_KEY)
        sn1 = RawClient(cluster.endpoints(1), account=THROTTLED,
                        key=THROTTLED_KEY)
        sn0.request("queue", "PUT", "/splitq")
        statuses = []
        for i in range(10):
            client = sn0 if i % 2 == 0 else sn1
            s, _, _ = client.request(
                "queue", "POST", "/splitq/messages",
                body=(b"<QueueMessage><MessageText>bTE=</MessageText>"
                      b"</QueueMessage>"))
            statuses.append(s)
        assert 503 in statuses
