"""Serial vs parallel sweep equivalence: ``--jobs`` must not move a number.

The whole parallelisation contract is byte-identity: every sweep cell
re-seeds its own fresh environment from the scale's seed, so fanning
cells over a process pool may only change wall-clock, never results.
These tests pin that contract at every layer — raw sweep records, the
rendered CSV bytes, the checkpoint file on disk, chaos verdicts, and the
golden trace digest.
"""

import json

import pytest

from repro.bench import FigureRunner, SweepExecutor, default_jobs
from repro.bench.executor import run_chaos_matrix
from repro.bench.figures import MINI_SCALE, SWEEP_BUILDERS
from repro.chaos import run_chaos
from repro.chaos.checkpoint import RunCheckpoint

SCALE = MINI_SCALE


def figures_csv(runner):
    """All figures of a runner rendered to one CSV byte-string."""
    return "\n".join(fig.to_csv() for fig in runner.all_figures())


def assert_sweeps_equal(serial, parallel):
    assert list(serial) == list(parallel)
    for workers in serial:
        a, b = serial[workers], parallel[workers]
        assert a.label == b.label
        assert a.phase_names() == b.phase_names()
        for name in a.phase_names():
            assert a.phase(name) == b.phase(name), (workers, name)


class TestSweepEquivalence:
    def test_every_sweep_bit_identical_under_jobs(self):
        serial = FigureRunner(SCALE)
        parallel = FigureRunner(SCALE, jobs=2)
        parallel.prefetch()
        assert list(parallel._sweeps) == list(SWEEP_BUILDERS)
        for label, sweep in (("fig4/5", serial.blob_sweep),
                             ("fig6", serial.queue_separate_sweep),
                             ("fig7", serial.queue_shared_sweep),
                             ("fig8", serial.table_sweep)):
            assert_sweeps_equal(sweep(), parallel._sweeps[label])

    def test_all_figures_csv_byte_identical(self):
        serial_csv = figures_csv(FigureRunner(SCALE))
        parallel_csv = figures_csv(FigureRunner(SCALE, jobs=4))
        assert serial_csv == parallel_csv

    def test_campaign_key_ignores_jobs(self):
        keys = {FigureRunner(SCALE, jobs=jobs).campaign_key()
                for jobs in (None, 1, 2, 8)}
        assert len(keys) == 1

    def test_executor_matches_serial_runner_per_label(self):
        sweeps = SweepExecutor(2).run_sweeps(SCALE, list(SWEEP_BUILDERS))
        runner = FigureRunner(SCALE)
        assert_sweeps_equal(runner.queue_separate_sweep(), sweeps["fig6"])
        assert_sweeps_equal(runner.table_sweep(), sweeps["fig8"])


class TestCheckpointIntegration:
    def test_checkpoint_hit_never_reenters_run_bench(self, tmp_path,
                                                     monkeypatch):
        """A warm checkpoint must satisfy the sweep without simulating."""
        path = str(tmp_path / "ckpt.json")
        warm = FigureRunner(SCALE,
                            checkpoint=RunCheckpoint(path, "k"))
        warm.queue_separate_sweep()

        import repro.bench.executor as executor

        def boom(*args, **kwargs):
            raise AssertionError("checkpoint hit re-entered run_bench")

        monkeypatch.setattr(executor, "run_bench", boom)
        resumed = FigureRunner(SCALE,
                               checkpoint=RunCheckpoint(path, "k"))
        assert_sweeps_equal(warm.queue_separate_sweep(),
                            resumed.queue_separate_sweep())

    def test_parallel_checkpoint_file_byte_identical(self, tmp_path):
        """Completion-order puts still flush to the same bytes on disk."""
        serial_path = str(tmp_path / "serial.json")
        parallel_path = str(tmp_path / "parallel.json")
        FigureRunner(SCALE, checkpoint=RunCheckpoint(serial_path, "k")
                     ).queue_separate_sweep()
        FigureRunner(SCALE, jobs=2,
                     checkpoint=RunCheckpoint(parallel_path, "k")
                     ).queue_separate_sweep()
        with open(serial_path, encoding="utf-8") as fh:
            serial = fh.read()
        with open(parallel_path, encoding="utf-8") as fh:
            parallel = fh.read()
        assert serial == parallel
        assert json.loads(serial)["campaign_key"] == "k"

    def test_parallel_pre_pass_resolves_hits_in_parent(self, tmp_path,
                                                       monkeypatch):
        """With every cell checkpointed, jobs>1 must not spawn a pool."""
        path = str(tmp_path / "ckpt.json")
        FigureRunner(SCALE, checkpoint=RunCheckpoint(path, "k")
                     ).queue_separate_sweep()

        import repro.bench.executor as executor

        def no_pool(*args, **kwargs):
            raise AssertionError("fully-checkpointed sweep opened a pool")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
        runner = FigureRunner(SCALE, jobs=4,
                              checkpoint=RunCheckpoint(path, "k"))
        assert list(runner.queue_separate_sweep()) == list(SCALE.worker_counts)


@pytest.fixture
def no_pool(monkeypatch):
    """Fails the test the moment a sweep opens a process pool."""
    import repro.bench.executor as executor

    def opened(*args, **kwargs):
        raise AssertionError("sweep opened a pool")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", opened)


class TestParallelEligibility:
    """Which runners fan out, told by behaviour: what comes back, and
    whether a pool was opened to get it."""

    def test_traced_runner_stays_serial(self, no_pool):
        runner = FigureRunner(SCALE, trace=True, jobs=4)
        runner.table_sweep()
        assert len(runner.traces()) == len(SCALE.worker_counts)

    def test_instrumented_runner_stays_serial(self, no_pool):
        """The hook is handed live accounts of this process, one a cell."""
        accounts = []
        runner = FigureRunner(SCALE, instrument=accounts.append, jobs=4)
        assert_sweeps_equal(FigureRunner(SCALE).table_sweep(),
                            runner.table_sweep())
        assert len(accounts) == len(SCALE.worker_counts)
        assert all(hasattr(a, "pipeline") for a in accounts)

    def test_backend_instance_stays_serial(self, no_pool):
        from repro.backend import SimBackend
        runner = FigureRunner(SCALE, backend=SimBackend(), jobs=4)
        assert_sweeps_equal(FigureRunner(SCALE).table_sweep(),
                            runner.table_sweep())

    def test_jobs_one_or_none_stays_serial(self, no_pool):
        for jobs in (None, 1):
            assert list(FigureRunner(SCALE, jobs=jobs).table_sweep()) == \
                list(SCALE.worker_counts)

    def test_plain_parallel_runner_is_eligible(self, no_pool):
        with pytest.raises(AssertionError, match="opened a pool"):
            FigureRunner(SCALE, jobs=2).table_sweep()

    def test_traced_digest_unchanged_by_jobs(self):
        """--jobs on a traced run stays in-process: same span stream."""
        serial = FigureRunner(SCALE, trace=True)
        jobbed = FigureRunner(SCALE, trace=True, jobs=4)
        serial.queue_separate_sweep()
        jobbed.queue_separate_sweep()
        serial_digests = [t.digest() for _, _, t in serial.traces()]
        jobbed_digests = [t.digest() for _, _, t in jobbed.traces()]
        assert serial_digests and serial_digests == jobbed_digests

    def test_arrivals_fan_out_and_match_serial(self, monkeypatch):
        """An arrival spec is plain data: it travels with its cell, and
        the staggered figures come back byte-identical."""
        from repro.traffic import parse_arrival_spec
        spec = parse_arrival_spec("poisson:25", seed=SCALE.seed)
        serial_csv = figures_csv(FigureRunner(SCALE, arrivals=spec))
        assert serial_csv == figures_csv(
            FigureRunner(SCALE, arrivals=spec, jobs=2))
        assert serial_csv != figures_csv(FigureRunner(SCALE))

        import repro.bench.executor as executor
        pools = []
        real = executor.ProcessPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", counting)
        FigureRunner(SCALE, arrivals=spec, jobs=2).table_sweep()
        assert pools == [{"max_workers": 2}]


class TestChaosMatrix:
    def test_matrix_verdicts_equal_single_runs(self):
        matrix = run_chaos_matrix("fig6", "queue-storm", [7, 8], jobs=2)
        assert list(matrix) == [7, 8]
        for seed, verdict in matrix.items():
            solo = run_chaos("fig6", "queue-storm", seed)
            assert verdict.to_json() == solo.to_json()

    def test_matrix_serial_path_matches_parallel(self):
        serial = run_chaos_matrix("fig6", "queue-storm", [7, 8], jobs=1)
        parallel = run_chaos_matrix("fig6", "queue-storm", [7, 8], jobs=2)
        assert [v.to_json() for v in serial.values()] == \
               [v.to_json() for v in parallel.values()]

    def test_matrix_preserves_seed_order(self):
        matrix = run_chaos_matrix("fig6", "queue-storm", [9, 7, 8], jobs=3)
        assert list(matrix) == [9, 7, 8]


class TestExecutor:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(0)

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            SweepExecutor(1).run_sweeps(SCALE, ["fig99"])
