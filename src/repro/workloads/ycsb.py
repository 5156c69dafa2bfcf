"""YCSB-style workloads for the Table service.

YCSB (Cooper et al., SoCC'10) is the contemporaneous cloud-storage
benchmark the AzureBench paper complements: where AzureBench sweeps
uniform per-worker workloads across services, YCSB mixes operation types
with skewed key popularity.  This module brings the YCSB core workloads to
the simulated Table service, so the reproduction connects to the standard
benchmark family.

* :class:`YCSBWorkload` — operation mix + key distribution; presets A–F
  (F's read-modify-write is modeled as read+update in one task).
* :class:`ZipfianGenerator` — the standard YCSB skewed key chooser
  (Gray et al. constant-time zipfian).
* :func:`ycsb_worker_body` — a role body running a workload against the
  Table service and recording per-op phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..storage import KB
from ..storage.content import SyntheticContent

__all__ = [
    "YCSBWorkload",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WORKLOAD_E",
    "WORKLOAD_F",
    "ZipfianGenerator",
    "ycsb_worker_body",
]


class ZipfianGenerator:
    """Constant-time zipfian integer generator over ``[0, n)``.

    The YCSB/Gray formulation: ``P(k) ∝ 1 / (k+1)^theta`` with the standard
    rejection-free inverse-CDF approximation.
    """

    def __init__(self, n: int, theta: float = 0.99, *, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1 - (2.0 / n) ** (1 - theta))
                     / (1 - self._zeta2 / self._zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        ks = np.arange(1, n + 1, dtype=float)
        return float(np.sum(1.0 / ks ** theta))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)

    def sample(self, count: int) -> np.ndarray:
        return np.array([self.next() for _ in range(count)])


@dataclass(frozen=True)
class YCSBWorkload:
    """One YCSB core workload: operation proportions + key distribution."""

    name: str
    read: float
    update: float
    insert: float
    scan: float
    #: "zipfian", "uniform" or "latest".
    distribution: str = "zipfian"
    record_count: int = 1000
    field_bytes: int = 1 * KB
    max_scan_length: int = 20

    def __post_init__(self):
        total = self.read + self.update + self.insert + self.scan
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"proportions of {self.name} sum to {total}")
        if self.distribution not in ("zipfian", "uniform", "latest"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def operations(self, count: int, *, seed: int = 0):
        """Yield ``(op, key)`` pairs for ``count`` operations."""
        rng = np.random.default_rng(seed)
        zipf = ZipfianGenerator(self.record_count, seed=seed + 1)
        inserted = self.record_count
        thresholds = np.cumsum([self.read, self.update, self.insert,
                                self.scan])
        for _ in range(count):
            r = rng.random()
            if self.distribution == "uniform":
                key = int(rng.integers(0, inserted))
            elif self.distribution == "latest":
                key = max(0, inserted - 1 - zipf.next())
            else:
                key = zipf.next() % inserted
            if r < thresholds[0]:
                yield ("read", key)
            elif r < thresholds[1]:
                yield ("update", key)
            elif r < thresholds[2]:
                yield ("insert", inserted)
                inserted += 1
            else:
                yield ("scan", key)


#: YCSB core workloads (SoCC'10 Table 1), at a 1 KB record size.
WORKLOAD_A = YCSBWorkload("A (update heavy)", read=0.5, update=0.5,
                          insert=0.0, scan=0.0)
WORKLOAD_B = YCSBWorkload("B (read mostly)", read=0.95, update=0.05,
                          insert=0.0, scan=0.0)
WORKLOAD_C = YCSBWorkload("C (read only)", read=1.0, update=0.0,
                          insert=0.0, scan=0.0)
WORKLOAD_D = YCSBWorkload("D (read latest)", read=0.95, update=0.0,
                          insert=0.05, scan=0.0, distribution="latest")
WORKLOAD_E = YCSBWorkload("E (short ranges)", read=0.0, update=0.0,
                          insert=0.05, scan=0.95)
WORKLOAD_F = YCSBWorkload("F (read-modify-write)", read=0.5, update=0.5,
                          insert=0.0, scan=0.0)


def _row_key(key: int) -> str:
    return f"user{key:012d}"


def ycsb_worker_body(workload: YCSBWorkload, *, table_name: str = "Usertable",
                     ops_per_worker: int = 200, seed: int = 0):
    """Build a role body running ``workload`` against the Table service.

    Records one phase per operation type (``ycsb_read`` etc.) in a
    :class:`~repro.core.metrics.PhaseRecorder`.  The table is pre-loaded by
    worker 0; each worker owns one partition (YCSB's hash-partitioned
    keyspace maps naturally onto PartitionKey).
    """
    from ..core.metrics import PhaseRecorder
    from ..framework import QueueBarrier
    from ..sim import retrying

    def body(ctx):
        env = ctx.env
        table = ctx.account.table_client()
        qc = ctx.account.queue_client()
        rec = PhaseRecorder(env, ctx.role_id)
        barrier = QueueBarrier(qc, "ycsb-sync", ctx.instance_count,
                               poll_interval=0.5, env=env)
        yield from barrier.ensure_queue()
        yield from table.create_table(table_name)

        partition = f"shard-{ctx.role_id}"
        payload = SyntheticContent(workload.field_bytes, seed=seed)

        # Load phase (untimed): each worker loads its own shard.
        for key in range(workload.record_count):
            yield from retrying(env, lambda k=key: table.insert(
                table_name, partition, _row_key(k), {"field0": payload}))
        yield from barrier.wait()

        # Run phase: one recorder span per op kind, accumulated.
        times: Dict[str, float] = {"read": 0.0, "update": 0.0,
                                   "insert": 0.0, "scan": 0.0}
        counts: Dict[str, int] = dict.fromkeys(times, 0)
        inserted = workload.record_count
        for op, key in workload.operations(ops_per_worker,
                                           seed=seed + ctx.role_id):
            t0 = env.now
            if op == "read":
                yield from retrying(env, lambda k=key: table.get(
                    table_name, partition, _row_key(k)))
            elif op == "update":
                yield from retrying(env, lambda k=key: table.update(
                    table_name, partition, _row_key(k),
                    {"field0": payload}, etag="*"))
            elif op == "insert":
                yield from retrying(env, lambda k=key: table.insert(
                    table_name, partition, _row_key(k), {"field0": payload}))
                inserted += 1
            else:  # scan: a short partition range read
                yield from retrying(env, lambda k=key: table.query_partition(
                    table_name, partition,
                    f"RowKey ge '{_row_key(k)}'", select=["field0"]))
            times[op] += env.now - t0
            counts[op] += 1

        for op in times:
            if counts[op]:
                rec.record_span(f"ycsb_{op}", times[op], ops=counts[op],
                                nbytes=counts[op] * workload.field_bytes)
        return rec

    return body
