"""AzureBench Blob storage benchmark (paper Algorithm 1, Figures 4 & 5).

Per repeat, the worker fleet together uploads one shared Page blob and one
shared Block blob (``total_chunks`` chunks of ``chunk_bytes`` each, split
evenly across workers), synchronizes via the queue barrier, and then every
worker downloads the blobs three ways:

* **random page reads** — ``GetPage`` at random offsets (Fig 5 "Page"),
* **sequential block reads** — ``GetBlock`` in order (Fig 5 "Block"),
* **whole-blob streaming** — ``openRead()`` / ``DownloadText()`` (Fig 4).

Timings exclude synchronization, exactly as the paper states.  Phase names
(constants below) are what the reporting layer keys on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compute.roles import RoleContext
from ..framework import QueueBarrier
from ..sim import retrying
from ..storage import MB
from ..storage.content import SyntheticContent
from .metrics import PhaseRecorder

__all__ = [
    "BlobBenchConfig",
    "blob_bench_body",
    "PHASE_PAGE_UPLOAD",
    "PHASE_BLOCK_UPLOAD",
    "PHASE_PAGE_RANDOM_DOWNLOAD",
    "PHASE_BLOCK_SEQ_DOWNLOAD",
    "PHASE_PAGE_FULL_DOWNLOAD",
    "PHASE_BLOCK_FULL_DOWNLOAD",
]

PHASE_PAGE_UPLOAD = "page_upload"
PHASE_BLOCK_UPLOAD = "block_upload"
PHASE_PAGE_RANDOM_DOWNLOAD = "page_random_download"
PHASE_BLOCK_SEQ_DOWNLOAD = "block_seq_download"
PHASE_PAGE_FULL_DOWNLOAD = "page_full_download"
PHASE_BLOCK_FULL_DOWNLOAD = "block_full_download"


@dataclass(frozen=True)
class BlobBenchConfig:
    """Parameters of Algorithm 1.

    Paper values: ``chunk_bytes=1 MB``, ``total_chunks=100`` (a 100 MB blob
    per repeat), ``repeats=10`` (1 GB uploaded per blob kind).  Defaults are
    scaled down so the full worker sweep stays fast; the figure harness
    passes the paper's values when ``AZUREBENCH_FULL=1``.
    """

    container: str = "azurebench"
    page_blob: str = "azurebenchpageblob"
    block_blob: str = "azurebenchblockblob"
    chunk_bytes: int = 1 * MB
    total_chunks: int = 100
    repeats: int = 1
    #: Random chunk downloads per worker per repeat (paper: ``count``).
    downloads_per_worker: int = -1  # -1 -> total_chunks
    barrier_queue: str = "azurebench-sync"
    barrier_poll: float = 1.0
    seed: int = 12345

    @property
    def blob_bytes(self) -> int:
        return self.chunk_bytes * self.total_chunks

    @property
    def effective_downloads(self) -> int:
        return (self.total_chunks if self.downloads_per_worker < 0
                else self.downloads_per_worker)


def _chunks_for_worker(total: int, workers: int, worker_id: int) -> range:
    """Contiguous chunk indices owned by one worker (even split)."""
    base, extra = divmod(total, workers)
    start = worker_id * base + min(worker_id, extra)
    size = base + (1 if worker_id < extra else 0)
    return range(start, start + size)


def blob_bench_body(config: BlobBenchConfig):
    """Build the worker role body implementing Algorithm 1."""

    def body(ctx: RoleContext):
        env = ctx.env
        blob = ctx.account.blob_client()
        queue = ctx.account.queue_client()
        rec = PhaseRecorder(env, ctx.role_id)
        barrier = QueueBarrier(queue, config.barrier_queue,
                               ctx.instance_count,
                               poll_interval=config.barrier_poll, env=env)
        rng = np.random.default_rng(config.seed + ctx.role_id)

        # Setup (untimed): container, page blob, barrier queue.
        yield from barrier.ensure_queue()
        yield from retrying(env, lambda: blob.create_container(
            config.container))
        if ctx.role_id == 0:
            yield from retrying(env, lambda: blob.create_page_blob(
                config.container, config.page_blob, config.blob_bytes))
        yield from barrier.wait()

        mine = _chunks_for_worker(config.total_chunks, ctx.instance_count,
                                  ctx.role_id)

        for repeat in range(config.repeats):
            content_seed = config.seed * 1000 + repeat

            # -- Page blob upload (PutPage at this worker's offsets) --------
            rec.start(PHASE_PAGE_UPLOAD)
            for chunk in mine:
                payload = SyntheticContent(config.chunk_bytes,
                                           seed=content_seed, origin=0)
                yield from retrying(env, lambda p=payload, c=chunk: blob.put_page(
                    config.container, config.page_blob,
                    c * config.chunk_bytes, p),
                    on_retry=lambda *_: rec.add_retry())
                rec.add_op(config.chunk_bytes)
            rec.stop()

            # -- Block blob upload (PutBlock ... PutBlockList) -------------
            rec.start(PHASE_BLOCK_UPLOAD)
            block_ids = []
            for chunk in mine:
                bid = f"b{chunk:08d}"
                payload = SyntheticContent(config.chunk_bytes,
                                           seed=content_seed, origin=0)
                yield from retrying(env, lambda p=payload, b=bid: blob.put_block(
                    config.container, config.block_blob, b, p),
                    on_retry=lambda *_: rec.add_retry())
                rec.add_op(config.chunk_bytes)
                block_ids.append(bid)
            # Commit own blocks on top of whatever is already committed
            # (merge commit: see SimBlobClient.put_block_list).  With
            # more workers than chunks a share is empty: nothing to
            # commit, and the blob may not exist yet.
            if block_ids:
                yield from retrying(env, lambda: blob.put_block_list(
                    config.container, config.block_blob, block_ids,
                    merge=True),
                    on_retry=lambda *_: rec.add_retry())
                rec.add_op(0)
            rec.stop()

            yield from barrier.wait()  # Synchronize(++syncCount)

            # -- Random page downloads (GetPage at random offsets) -----------
            rec.start(PHASE_PAGE_RANDOM_DOWNLOAD)
            for _ in range(config.effective_downloads):
                offset = int(rng.integers(0, config.total_chunks)) \
                    * config.chunk_bytes
                yield from retrying(env, lambda o=offset: blob.get_page(
                    config.container, config.page_blob, o, config.chunk_bytes),
                    on_retry=lambda *_: rec.add_retry())
                rec.add_op(config.chunk_bytes)
            rec.stop()

            # -- Sequential block downloads (GetBlock in order) -------------
            rec.start(PHASE_BLOCK_SEQ_DOWNLOAD)
            n_blocks = blob.block_count(config.container, config.block_blob)
            for i in range(min(config.effective_downloads, n_blocks)):
                yield from retrying(env, lambda j=i: blob.get_block(
                    config.container, config.block_blob, j),
                    on_retry=lambda *_: rec.add_retry())
                rec.add_op(config.chunk_bytes)
            rec.stop()

            yield from barrier.wait()

            # -- Whole-blob downloads ----------------------------------------
            rec.start(PHASE_PAGE_FULL_DOWNLOAD)
            yield from retrying(env, lambda: blob.download_page_blob(
                config.container, config.page_blob),
                on_retry=lambda *_: rec.add_retry())
            rec.add_op(config.blob_bytes)
            rec.stop()

            rec.start(PHASE_BLOCK_FULL_DOWNLOAD)
            yield from retrying(env, lambda: blob.download_block_blob(
                config.container, config.block_blob),
                on_retry=lambda *_: rec.add_retry())
            rec.add_op(config.blob_bytes)
            rec.stop()

            yield from barrier.wait()

            # Cleanup between repeats (worker 0, untimed): delete and
            # recreate the blobs, as Algorithm 1's trailing Delete calls do.
            if ctx.role_id == 0 and repeat + 1 < config.repeats:
                yield from retrying(env, lambda: blob.delete_blob(
                    config.container, config.block_blob))
                yield from retrying(env, lambda: blob.delete_blob(
                    config.container, config.page_blob))
                yield from retrying(env, lambda: blob.create_page_blob(
                    config.container, config.page_blob, config.blob_bytes))
            yield from barrier.wait()

        return rec

    return body
