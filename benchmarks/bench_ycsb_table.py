"""Benchmark: YCSB core workloads on the simulated Table service.

Connects the reproduction to the benchmark family the paper's related work
cites (YCSB, Cooper et al. SoCC'10): the same Table service that produces
Figure 8 under AzureBench's uniform workloads is driven by YCSB's skewed
mixes.  Expected shapes: read-only C is the cheapest per op; update-heavy
A the dearest; zipfian skew concentrates load on each shard's hot rows but
per-worker partitions keep the 500 ent/s target out of reach.
"""

from __future__ import annotations

import dataclasses
import os

from conftest import emit

from repro.bench import FigureData
from repro.core import RunConfig, run_bench
from repro.workloads import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    ycsb_worker_body,
)


def run_ycsb_bench():
    full = os.environ.get("AZUREBENCH_FULL") == "1"
    workers = 16 if full else 8
    record_count = 200 if full else 60
    ops = 150 if full else 60

    workloads = [dataclasses.replace(w, record_count=record_count)
                 for w in (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C)]
    fig = FigureData(
        "YCSB Y1",
        f"YCSB core workloads on Table storage ({workers} workers, "
        f"{ops} ops/worker)", "workload", [w.name for w in workloads])

    read_ms, update_ms, overall_ms = [], [], []
    for wl in workloads:
        result = run_bench(
            lambda w=wl: ycsb_worker_body(w, ops_per_worker=ops),
            RunConfig(workers=workers, seed=55))
        phases = {n: result.phase(n) for n in result.phase_names()}
        total_time = sum(p.mean_worker_time for p in phases.values())
        total_ops = sum(p.total_ops for p in phases.values())
        overall_ms.append(1000 * total_time * workers / total_ops)
        read = phases.get("ycsb_read")
        update = phases.get("ycsb_update")
        read_ms.append(1000 * read.mean_op_time if read else 0.0)
        update_ms.append(1000 * update.mean_op_time if update else 0.0)

    fig.add("overall", overall_ms, unit="ms/op")
    fig.add("read", read_ms, unit="ms/op")
    fig.add("update", update_ms, unit="ms/op")
    return fig


def test_ycsb_workloads(benchmark):
    fig = benchmark.pedantic(run_ycsb_bench, rounds=1, iterations=1)
    emit(fig)

    overall = fig.get("overall").values
    a_ms, b_ms, c_ms = overall

    # Update-heavy A is the most expensive mix, read-only C the cheapest.
    assert a_ms > b_ms > c_ms, overall

    # Reads cost about the same regardless of the mix around them.
    reads = fig.get("read").values
    assert max(reads) < 1.5 * min(r for r in reads if r > 0)

    # Updates dominate A's cost (the YCSB face of claim
    # fig8_query_cheapest_update_dearest: update is the dearest table op).
    updates = fig.get("update").values
    assert updates[0] > reads[0]
