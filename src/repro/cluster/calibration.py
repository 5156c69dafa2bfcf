"""Calibration constants of the storage-fabric performance model.

Every constant is tied either to a *published scalability target* quoted by
the paper (those live in :mod:`repro.storage.limits`) or to a *calibrated
service time* chosen so the simulated fabric reproduces the paper's measured
saturation throughputs.  The derivations below work per partition server
with ``BLOB_SERVER_SLOTS`` concurrent request slots:

    aggregate_max = slots * chunk_size / occupancy_per_chunk

Paper-measured anchors (Section IV.A, 96 workers, 1 MB chunks):

=====================================  ===========  =========================
observation                            paper value  model mechanism
=====================================  ===========  =========================
whole-blob download (DownloadText /    165 MB/s     8 slots x 1 MB / 48.5 ms
page openRead)
sequential block-wise download         104 MB/s     + 28.5 ms block lookup
random page-wise download               71 MB/s     + 64.2 ms page seek
page blob upload (PutPage)              60 MB/s     8 slots x 1 MB / 133 ms
                                                    (3-replica sync write)
block blob upload (PutBlock+commit)     21 MB/s     + 248 ms/MB staging
=====================================  ===========  =========================

Queue/Table service times are anchored to the orderings the paper reports
(Peek < Put < Get; Query < Insert < Delete < Update) and to the knees of
Figures 6-9.  All times are in seconds; all rates in bytes/second.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.limits import KB, MB

__all__ = ["FabricCalibration", "DEFAULT_CALIBRATION"]


@dataclass(frozen=True)
class FabricCalibration:
    """Tunable performance constants of the simulated storage fabric."""

    # ------------------------------------------------------------------ blob
    #: Concurrent request slots of one blob partition server.
    blob_server_slots: int = 8
    #: Client <-> front-end round trip per blob operation (not server time).
    blob_base_rtt: float = 0.030
    #: Server occupancy per byte of a streaming read (whole-blob download).
    #: 48.5 ms/MB -> 8 slots saturate at 165 MB/s (paper's max download).
    blob_stream_read_s_per_byte: float = 0.0485 / MB
    #: Extra occupancy per sequential GetBlock chunk (committed-block lookup).
    #: 1 MB chunks -> 77 ms/chunk -> 104 MB/s (paper Fig 5, block-wise).
    blob_block_lookup_s: float = 0.0285
    #: Extra occupancy per random GetPage chunk ("adds the overhead of
    #: locating the page in a Page blob", paper IV.A).
    #: 1 MB chunks -> 112.7 ms/chunk -> 71 MB/s (paper Fig 5, page-wise).
    blob_page_seek_s: float = 0.0642
    #: Server occupancy per byte written, including the synchronous 3-replica
    #: commit (Calder et al., cited by the paper).  133 ms/MB -> 60 MB/s,
    #: the per-blob throughput target the PutPage path saturates.
    blob_write_s_per_byte: float = 0.133 / MB
    #: Extra occupancy per byte staged through the uncommitted-block journal
    #: of PutBlock.  Calibrated so block upload saturates at 21 MB/s
    #: (paper: "a little over 21 MB/s using 96 workers").
    blob_block_stage_s_per_byte: float = 0.248 / MB
    #: PutBlockList commit: fixed + per-committed-block bookkeeping.
    blob_commit_base_s: float = 0.020
    blob_commit_per_block_s: float = 0.002

    # ----------------------------------------------------------------- queue
    #: Concurrent request slots of one queue partition server (a queue and
    #: all its messages live on a single server, paper IV.B).
    queue_server_slots: int = 4
    #: Client <-> front-end round trip per queue operation.
    queue_base_rtt: float = 0.012
    #: PutMessage synchronous replication ("the queue needs to be
    #: synchronized among replicated copies across different servers").
    queue_put_sync_s: float = 0.018
    #: GetMessage extra state: invisibility must propagate to all replicas
    #: ("extra state needs to be maintained across all copies").
    queue_get_invisibility_s: float = 0.025
    #: DeleteMessage replica sync (Algorithm 3/4 time Get+Delete together).
    queue_delete_sync_s: float = 0.015
    #: Peek has "no synchronization needed on the server end" -> only the
    #: read path below.
    #: Per-byte transfer for reads (peek/get) and writes (put).
    queue_read_s_per_byte: float = 1.0 / (20 * MB)
    queue_write_s_per_byte: float = 1.0 / (10 * MB)
    #: GetMsgCount service time.  The approximate count is a cached
    #: per-queue counter on the partition server (no message payload is
    #: touched), so it is cheaper than any replicated queue op; 2 ms keeps
    #: Algorithm 2's barrier polling visible but negligible next to the
    #: 18/25 ms put/get sync costs above.
    queue_msg_count_s: float = 0.002
    #: The paper's unexplained 16 KB anomaly: "the Get operation for this
    #: sized messages took significantly more time than other message sizes
    #: (both smaller and larger ones) ... consistently seen in all repeated
    #: experiments."  Applied to Get service time when the payload falls in
    #: (12 KB, 24 KB]; set to 1.0 to disable.
    queue_get_16k_anomaly_factor: float = 1.9
    queue_get_16k_anomaly_lo: int = 12 * KB
    queue_get_16k_anomaly_hi: int = 24 * KB

    # ----------------------------------------------------------------- table
    #: Range servers serving one table's partitions.  A single table's
    #: partitions colocate on a small server set in the 2012 service, which
    #: is why Fig 8 stays flat only "till 4 concurrent clients".
    table_range_servers: int = 4
    #: Concurrent request slots per table range server.
    table_server_slots: int = 4
    #: Client <-> front-end round trip per table operation.
    table_base_rtt: float = 0.015
    #: Fixed server occupancy per operation kind.  Orderings match Fig 9:
    #: query < insert < delete < update ("updating a table is the most time
    #: consuming process", "least expensive process is querying").  Kept
    #: small relative to the per-byte terms so that range-server saturation
    #: under many workers is entity-size-dependent: 4/8 KB entities stay
    #: near-flat while 32/64 KB "increase drastically" (paper IV.C).
    table_query_base_s: float = 0.003
    table_insert_base_s: float = 0.006
    table_update_base_s: float = 0.010
    table_delete_base_s: float = 0.008
    #: Per-byte occupancy: reads stream from one replica; inserts write three
    #: replicas + index; updates are read-modify-write over three replicas.
    table_read_s_per_byte: float = 1.0 / (25 * MB)
    table_insert_s_per_byte: float = 1.0 / (4 * MB)
    table_update_s_per_byte: float = 1.0 / (2.5 * MB)
    table_delete_s_per_byte: float = 1.0 / (20 * MB)

    # ----------------------------------------------------------- cache
    #: Concurrent request slots of one cache server.  The cache is an
    #: in-memory service, so it is far less contended than disk-backed
    #: storage.
    cache_server_slots: int = 16
    #: Client <-> cache round trip ("temporarily hold data in memory across
    #: different servers", paper II.B) — roughly an intra-DC RPC.
    cache_base_rtt: float = 0.0015
    #: Fixed server occupancy of a cache get/put (hash lookup, no disk).
    cache_get_base_s: float = 0.0002
    cache_put_base_s: float = 0.0004
    #: Per-byte transfer cost in and out of cache memory.
    cache_s_per_byte: float = 1.0 / (250 * MB)

    # ----------------------------------------------------------- throttling
    #: Sliding-window length used by the rate throttles.
    throttle_window_s: float = 1.0
    #: Retry-after hint carried by ServerBusyError (the paper's benchmarks
    #: sleep one second before retrying).
    throttle_retry_after_s: float = 1.0

    # --------------------------------------------------------------- jitter
    #: Multiplicative lognormal jitter on every service time (sigma of the
    #: underlying normal).  0 disables jitter entirely.
    jitter_sigma: float = 0.06

    def validate(self) -> None:
        """Sanity-check internal consistency of the calibration."""
        if self.blob_server_slots < 1 or self.queue_server_slots < 1:
            raise ValueError("server slots must be >= 1")
        if self.table_range_servers < 1 or self.table_server_slots < 1:
            raise ValueError("table servers/slots must be >= 1")
        for name in (
            "blob_base_rtt", "blob_stream_read_s_per_byte",
            "blob_write_s_per_byte", "queue_base_rtt", "table_base_rtt",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if not self.queue_get_16k_anomaly_lo < self.queue_get_16k_anomaly_hi:
            raise ValueError("16k anomaly window is empty")


#: The calibration used by the benchmark harness.
DEFAULT_CALIBRATION = FabricCalibration()
