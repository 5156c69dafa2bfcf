"""Ablation: cost of the queue-based barrier (Algorithm 2).

The paper excludes synchronization time from every reported number ("The
time reported in the experiments does not include the time spent in
synchronization").  This bench measures what was excluded: the per-crossing
cost of the queue barrier as the fleet grows, which is dominated by the
1-second count-polling back-off.
"""

from __future__ import annotations

import os

from conftest import emit

from repro.bench import FigureData
from repro.framework import QueueBarrier
from repro.sim import SimStorageAccount
from repro.simkit import Environment

CROSSINGS = 5


def _barrier_worker(env, account, wid, workers, out):
    qc = account.queue_client()
    barrier = QueueBarrier(qc, "barrier", workers, env=env)
    yield from barrier.ensure_queue()
    # Stagger arrivals a little, like real phase finishes.
    yield env.timeout(0.01 * wid)
    for _ in range(CROSSINGS):
        yield from barrier.wait()
    out.append(barrier.time_in_barrier / CROSSINGS)


def run_barrier_ablation():
    full = os.environ.get("AZUREBENCH_FULL") == "1"
    worker_counts = [1, 2, 4, 8, 16, 32, 64, 96] if full else [1, 2, 4, 8, 16]
    fig = FigureData(
        "Ablation B1", f"Queue-barrier cost (mean of {CROSSINGS} crossings)",
        "workers", worker_counts)
    means, maxes = [], []
    for workers in worker_counts:
        env = Environment()
        account = SimStorageAccount(env, seed=7)
        out = []
        for w in range(workers):
            env.process(_barrier_worker(env, account, w, workers, out))
        env.run()
        means.append(sum(out) / len(out))
        maxes.append(max(out))
    fig.add("mean crossing", means, unit="s")
    fig.add("max crossing", maxes, unit="s")
    return fig


def test_ablation_barrier_cost(benchmark):
    fig = benchmark.pedantic(run_barrier_ablation, rounds=1, iterations=1)
    emit(fig)

    means = fig.get("mean crossing").values
    # Barrier cost grows with the fleet (more stragglers, more polling)...
    assert means[-1] > means[0], means
    # ...reaching at least one poll interval once arrivals spread out...
    assert means[-1] >= 0.5, means
    # ...but stays mild — nowhere near linear in the worker count, because
    # the 1 s polling back-off, not queue contention, dominates.
    assert means[-1] < 0.5 * fig.x_values[-1], means
