"""Integration tests for the AzureBench algorithm implementations.

Small-scale runs of Algorithms 1, 3, 4 and 5 checking data-plane effects
and the presence/consistency of every recorded phase.
"""

import pytest

from repro.core import (
    OP_DELETE,
    OP_GET,
    OP_INSERT,
    OP_PEEK,
    OP_PUT,
    OP_QUERY,
    OP_UPDATE,
    PHASE_BLOCK_FULL_DOWNLOAD,
    PHASE_BLOCK_SEQ_DOWNLOAD,
    PHASE_BLOCK_UPLOAD,
    PHASE_PAGE_FULL_DOWNLOAD,
    PHASE_PAGE_RANDOM_DOWNLOAD,
    PHASE_PAGE_UPLOAD,
    BlobBenchConfig,
    RunConfig,
    SeparateQueueBenchConfig,
    SharedQueueBenchConfig,
    TableBenchConfig,
    blob_bench_body,
    phase_name,
    run_bench,
    separate_queue_bench_body,
    shared_phase_name,
    shared_queue_bench_body,
    sweep_workers,
    table_bench_body,
    table_phase_name,
)
from repro.storage import KB, MB


class TestBlobBench:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = BlobBenchConfig(total_chunks=16, repeats=2)
        return run_bench(lambda: blob_bench_body(cfg),
                         RunConfig(workers=4, seed=1))

    def test_all_phases_recorded(self, result):
        for phase in (PHASE_PAGE_UPLOAD, PHASE_BLOCK_UPLOAD,
                      PHASE_PAGE_RANDOM_DOWNLOAD, PHASE_BLOCK_SEQ_DOWNLOAD,
                      PHASE_PAGE_FULL_DOWNLOAD, PHASE_BLOCK_FULL_DOWNLOAD):
            stats = result.phase(phase)
            assert stats.total_ops > 0
            assert stats.wall_time > 0

    def test_upload_volume(self, result):
        # 16 chunks x 1 MB x 2 repeats per blob kind, split across workers.
        up = result.phase(PHASE_PAGE_UPLOAD)
        assert up.total_bytes == 16 * MB * 2

    def test_download_volume_per_worker(self, result):
        # Every worker downloads all chunks per repeat.
        down = result.phase(PHASE_PAGE_RANDOM_DOWNLOAD)
        assert down.total_bytes == 16 * MB * 2 * 4

    def test_repeat_isolation(self):
        """Each repeat rebuilds the blobs; two repeats must not double the
        committed block count."""
        cfg = BlobBenchConfig(total_chunks=8, repeats=2)
        result = run_bench(lambda: blob_bench_body(cfg),
                           RunConfig(workers=2, seed=2))
        seq = result.phase(PHASE_BLOCK_SEQ_DOWNLOAD)
        # 8 sequential reads per worker per repeat.
        assert seq.total_ops == 8 * 2 * 2

    def test_deterministic(self):
        cfg = BlobBenchConfig(total_chunks=8, repeats=1)

        def once():
            r = run_bench(lambda: blob_bench_body(cfg),
                          RunConfig(workers=3, seed=7))
            return [(p.name, p.worker_id, p.start, p.end)
                    for p in sorted(r.records,
                                    key=lambda x: (x.name, x.worker_id))]

        assert once() == once()

    def test_more_workers_than_chunks(self):
        """The worker with an empty share leaves the barrier (a short
        poll) before any block is staged: it has nothing to commit, and
        no blob to commit it to."""
        cfg = BlobBenchConfig(total_chunks=2, repeats=1, barrier_poll=0.1)
        result = run_bench(lambda: blob_bench_body(cfg),
                           RunConfig(workers=3, seed=1, backend="sim"))
        uploads = {r.worker_id: (r.ops, r.nbytes) for r in result.records
                   if r.name == PHASE_BLOCK_UPLOAD}
        # A block and the commit each; the idle worker did neither.
        assert uploads == {0: (2, 1 * MB), 1: (2, 1 * MB), 2: (0, 0)}
        seq = result.phase(PHASE_BLOCK_SEQ_DOWNLOAD)
        assert seq.total_ops == 2 * 3


class TestSeparateQueueBench:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = SeparateQueueBenchConfig(
            total_messages=80, message_sizes=(4 * KB, 16 * KB))
        return run_bench(lambda: separate_queue_bench_body(cfg),
                         RunConfig(workers=4, seed=1))

    def test_phases_per_size(self, result):
        for size in (4 * KB, 16 * KB):
            for op in (OP_PUT, OP_PEEK, OP_GET):
                stats = result.phase(phase_name(op, size))
                assert stats.total_ops == 80

    def test_queues_cleaned_up(self):
        cfg = SeparateQueueBenchConfig(total_messages=20,
                                       message_sizes=(4 * KB,))
        config = RunConfig(workers=2, seed=1)
        from repro.compute import Deployment
        from repro.sim import SimStorageAccount
        from repro.simkit import Environment
        env = Environment()
        account = SimStorageAccount(env, seed=1)
        d = Deployment(env, account, separate_queue_bench_body(cfg),
                       instances=2, name="w")
        d.run()
        # Per-worker queues deleted; only the barrier queue remains.
        assert account.state.queues.list_queues() == ["azurebench-qsync"]

    def test_64k_rung_uses_48k_payload(self):
        cfg = SeparateQueueBenchConfig(total_messages=8,
                                       message_sizes=(64 * KB,))
        result = run_bench(lambda: separate_queue_bench_body(cfg),
                           RunConfig(workers=2, seed=1))
        put = result.phase(phase_name(OP_PUT, 64 * KB))
        assert put.total_bytes == 8 * 48 * KB  # clamped usable payload


class TestSharedQueueBench:
    def test_phases_per_think_time(self):
        cfg = SharedQueueBenchConfig(
            total_transactions=100, round_messages=50,
            think_times=(0.5, 1.0))
        result = run_bench(lambda: shared_queue_bench_body(cfg),
                           RunConfig(workers=2, seed=1))
        for think in (0.5, 1.0):
            for op in (OP_PUT, OP_PEEK, OP_GET):
                stats = result.phase(shared_phase_name(op, think))
                assert stats.total_ops == 100

    def test_think_time_excluded_from_reported_time(self):
        """Reported communication time must be far below wall time."""
        cfg = SharedQueueBenchConfig(
            total_transactions=40, round_messages=20, think_times=(2.0,))
        result = run_bench(lambda: shared_queue_bench_body(cfg),
                           RunConfig(workers=2, seed=1))
        put = result.phase(shared_phase_name(OP_PUT, 2.0))
        # 2 rounds x 3 thinks x 2 s = 12 s of pure thinking per worker.
        assert put.mean_worker_time < 6.0

    def test_shared_queue_removed_after_run(self):
        from repro.compute import Deployment
        from repro.sim import SimStorageAccount
        from repro.simkit import Environment
        cfg = SharedQueueBenchConfig(
            total_transactions=20, round_messages=20, think_times=(0.5,))
        env = Environment()
        account = SimStorageAccount(env, seed=1)
        Deployment(env, account, shared_queue_bench_body(cfg),
                   instances=2, name="w").run()
        assert "azurebenchqueue" not in account.state.queues.list_queues()


class TestTableBench:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = TableBenchConfig(entity_count=20, entity_sizes=(4 * KB,))
        return run_bench(lambda: table_bench_body(cfg),
                         RunConfig(workers=3, seed=1))

    def test_all_ops_recorded(self, result):
        for op in (OP_INSERT, OP_QUERY, OP_UPDATE, OP_DELETE):
            stats = result.phase(table_phase_name(op, 4 * KB))
            assert stats.total_ops == 60  # 20 x 3 workers

    def test_table_empty_after_run(self):
        from repro.compute import Deployment
        from repro.sim import SimStorageAccount
        from repro.simkit import Environment
        cfg = TableBenchConfig(entity_count=10, entity_sizes=(4 * KB,))
        env = Environment()
        account = SimStorageAccount(env, seed=1)
        Deployment(env, account, table_bench_body(cfg),
                   instances=2, name="w").run()
        assert account.state.tables.get_table("AzureBenchTable").entity_count() == 0

    def test_shared_partition_strategy(self):
        cfg = TableBenchConfig(entity_count=10, entity_sizes=(4 * KB,),
                               partition_strategy="shared")
        result = run_bench(lambda: table_bench_body(cfg),
                           RunConfig(workers=2, seed=1))
        assert result.phase(table_phase_name(OP_INSERT, 4 * KB)).total_ops == 20

    def test_unknown_strategy_rejected(self):
        cfg = TableBenchConfig(entity_count=2, entity_sizes=(4 * KB,),
                               partition_strategy="bogus")
        with pytest.raises(Exception):
            run_bench(lambda: table_bench_body(cfg), RunConfig(workers=1))


class TestRunner:
    def test_sweep_returns_each_scale(self):
        cfg = TableBenchConfig(entity_count=5, entity_sizes=(4 * KB,))
        sweep = sweep_workers(lambda: table_bench_body(cfg), [1, 2, 4],
                              RunConfig(seed=1))
        assert list(sweep) == [1, 2, 4]
        for workers, result in sweep.items():
            assert result.workers == workers
            assert result.phase(table_phase_name(OP_INSERT, 4 * KB)).total_ops \
                == 5 * workers

    def test_runner_rejects_non_recorder_bodies(self):
        def bad_body(ctx):
            yield ctx.sleep(1)
            return "not a recorder"

        with pytest.raises(RuntimeError, match="PhaseRecorder"):
            run_bench(lambda: bad_body, RunConfig(workers=1))
