"""What one DES storage round trip costs, pinned by numbers that repeat.

Kernel event counts, jitter values and op digests are pure functions of
the seed, so they can gate without a quiet host: a round trip that finds a
free partition-server slot is three kernel events (request leg, occupancy,
response leg), one that has to queue is four (plus its grant); the
block-drawn jitter stream equals the scalar one value for value; and no
per-op body under ``repro.pipeline`` / ``repro.cluster`` executes an
``import`` statement.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster import (
    FabricCalibration,
    OpDescriptor,
    OpKind,
    Service,
    StorageCluster,
)
from repro.cluster.model import JITTER_BLOCK
from repro.simkit import Environment
from repro.storage import KB
from repro.traffic import ArrivalSpec, LoadConfig, run_load

# A process costs the kernel two events of its own: its start and its end.
PROCESS_EVENTS = 2

PUT = OpDescriptor(Service.QUEUE, OpKind.PUT_MESSAGE, "q", nbytes=4 * KB)


class TestKernelEventsPerRoundTrip:
    def test_uncontended_round_trip_is_three_events(self):
        env = Environment()
        cluster = StorageCluster(env, seed=1)
        env.process(cluster.execute(PUT))
        env.run()
        assert env.events_processed == PROCESS_EVENTS + 3

    def test_queued_round_trip_is_four_events(self):
        env = Environment()
        cal = FabricCalibration(jitter_sigma=0.0, queue_server_slots=1)
        cluster = StorageCluster(env, calibration=cal, seed=1)
        ends = []

        def put():
            yield from cluster.execute(PUT)
            ends.append(env.now)

        env.process(put())
        env.process(put())  # same queue, same instants
        env.run()
        assert ends[1] > ends[0]                    # the second one queued
        assert env.events_processed == 2 * PROCESS_EVENTS + 3 + 4

    def test_mixed_load_event_budget_and_digest(self):
        """``des-mixed-flat`` of the frozen suite at its pinned seed."""
        result = run_load(LoadConfig(
            arrivals=ArrivalSpec(process="poisson", rate=500.0, seed=2012,
                                 params=(), trace=()),
            duration=20.0, window_s=5.0, mix="mixed", payload_bytes=4096,
            seed=2012, backend="sim", slo=None, preload=16, servers=1,
            clients=1, flock_size=8192))
        assert result.digest == ("8a54c7fa4e516ced6072e0e5a73361681b3cbd05"
                                 "7c89d33cb846e48e09ba4e0f")
        # 86,950 with a grant and a release event on every round trip.
        assert result.resources["kernel_events"] <= 69_613


class TestJitterStream:
    @pytest.mark.parametrize("seed", (0, 2012))
    @pytest.mark.parametrize("sigma", (0.06, 0.3))
    def test_block_draws_equal_scalar_draws(self, sigma, seed):
        n = 100_000
        assert n > 2 * JITTER_BLOCK  # crosses refill boundaries
        cluster = StorageCluster(
            Environment(), seed=seed,
            calibration=FabricCalibration(jitter_sigma=sigma))
        rng = np.random.default_rng(seed)
        mu = -0.5 * sigma * sigma
        for i in range(n):
            scalar = float(np.exp(rng.normal(mu, sigma)))
            assert cluster._jitter() == scalar, i

    @pytest.mark.parametrize("seed", (0, 2012))
    def test_zero_sigma_draws_nothing(self, seed):
        cluster = StorageCluster(
            Environment(), seed=seed,
            calibration=FabricCalibration(jitter_sigma=0.0))
        assert [cluster._jitter() for _ in range(100_000)] == [1.0] * 100_000
        untouched = np.random.default_rng(seed)
        assert cluster._rng.random() == untouched.random()


PER_OP_BODIES = {"before", "after", "failed", "charge", "execute", "serve"}


def test_no_import_statement_on_a_per_op_path():
    src = Path(repro.__file__).parent
    offenders = []
    for package in ("pipeline", "cluster"):
        for path in sorted((src / package).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name in PER_OP_BODIES):
                    offenders += [
                        f"{path.name}:{inner.lineno} in {node.name}()"
                        for inner in ast.walk(node)
                        if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert offenders == []
