"""The networked SN/DN service tier with an Azurite-compatible wire.

This package promotes the in-process emulator into a small distributed
system shaped like the real storage service (and like HSDS's
service-node / data-node split):

* **Service nodes** (:mod:`~repro.service.servicenode`) — stateless HTTP
  front-ends: SharedKey auth, per-tenant ``auth -> analytics ->
  throttles`` pipelines, partition routing, fan-out merges.
* **Data nodes** (:mod:`~repro.service.datanode`) — the shards owning
  partition sets, executing ops through the same registry pipeline the
  emulator and the DES drive.
* **Wire** (:mod:`~repro.service.wire`) — the 2012-02-12 Azurite subset:
  enough Blob/Queue/Table REST that period SDKs (or raw HTTP) work.

``repro serve`` boots a cluster from the CLI; ``--backend service`` runs
any figure workload against one in-process.
"""

# ``wire`` first: without a bytecode cache, compiling it (the largest
# module a server loads) is a serving process's largest transient, about
# 4 MB, and the modules compiled after it reuse that memory instead of
# stacking on it.
from . import wire
from .cluster import ClusterRunner, ServiceCluster
from .datanode import DataNode, DataNodeClient
from .membership import FailureDomainConfig, Membership, NodeState
from .ring import DEFAULT_VNODES, HashRing
from .servicenode import SERVICES, ServiceNode
from .sharedkey import DEV_ACCOUNT, DEV_KEY, SignatureError
from .tenants import Tenant, TenantConfig, TenantDirectory


def __getattr__(name: str):
    # The client loads when first asked for: a server never uses it.
    if name in ("ServiceConnection", "WireBlobClient", "WireQueueClient",
                "WireTableClient"):
        from . import client
        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ServiceCluster",
    "ClusterRunner",
    "HashRing",
    "DEFAULT_VNODES",
    "Membership",
    "FailureDomainConfig",
    "NodeState",
    "ServiceConnection",
    "WireBlobClient",
    "WireQueueClient",
    "WireTableClient",
    "DataNode",
    "DataNodeClient",
    "ServiceNode",
    "SERVICES",
    "Tenant",
    "TenantConfig",
    "TenantDirectory",
    "DEV_ACCOUNT",
    "DEV_KEY",
    "SignatureError",
]
