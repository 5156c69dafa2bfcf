"""The traced run of the DES workloads and of ``paper-figs``.

Three passes, all seeded alike:

1. the workload exactly as the timed run executes it (untraced wall,
   kernel events, refusals, digest);
2. the same workload with the suite's observer at the front of the
   account pipeline, capturing every storage round trip; its digest must
   equal pass 1's, and its extra wall time is the tracing overhead;
3. the layer replays of :mod:`replay`, each driving one layer's public
   API with the captured log, every call in a span.

Layer self times are then set against pass 1's wall: what they cover is
``trace.explained_share``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import des
import paper
import replay
from measure import Outcome, Spans, load_contract

def zeros() -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` at 0: what a workload
    reports for a layer that is not on its path."""
    return {m["name"]: 0.0 for m in load_contract()["per_layer"]}


def mean_us(total_s: float, count: int) -> float:
    return total_s / count * 1e6 if count else 0.0


def capture_des(name: str, seed: int, spans: Spans):
    """Pass 2 for a DES workload: ``run_flock_des`` on a backend whose
    accounts carry the recorder, with a tap on the stats flushes."""
    from repro.backend import SimBackend
    from repro.traffic import (StatsAggregator, build_flock_schedule,
                               schedule_digest)
    from repro.traffic.flock import run_flock_des

    log: List[replay.Entry] = []
    chunks: List[tuple] = []

    class RecordingBackend(SimBackend):
        def _make_account(self, env, config):
            account = super()._make_account(env, config)
            account.pipeline.add_first(replay.make_recorder(log))
            return account

    class TappedAggregator(StatsAggregator):
        def record_chunk(self, starts, ends, *, oks=None, nbytes=None,
                         operations=None) -> None:
            chunks.append((list(starts), list(ends), list(oks),
                           list(nbytes), list(operations)))
            super().record_chunk(starts, ends, oks=oks, nbytes=nbytes,
                                 operations=operations)

    config = des.load_config(name, seed)
    t0 = time.perf_counter()
    flock = build_flock_schedule(config)
    t1 = time.perf_counter()
    spans.add("traffic.schedule", t0, t1)
    outcomes, _elapsed, _events = run_flock_des(
        RecordingBackend(), config, flock,
        TappedAggregator(config.window_s))
    digest = schedule_digest(flock.iter_ops(), outcomes)
    wall = time.perf_counter() - t0

    agg = StatsAggregator(config.window_s)
    for starts, ends, oks, nbytes, operations in chunks:
        t0 = time.perf_counter()
        agg.record_chunk(starts, ends, oks=oks, nbytes=nbytes,
                         operations=operations)
        spans.add("traffic.stats", t0, time.perf_counter())
    return log, wall, digest, len(flock)


def run_des(name: str, seed: int, pins) -> Outcome:
    spans = Spans()
    untraced = des.run_once(name, seed)
    problems = des.check_batch(name, seed, [untraced], pins)
    log, traced_wall, digest, ops = capture_des(name, seed, spans)
    if digest != untraced["digest"]:
        problems.append(f"{name}: traced digest differs from untraced")
    metrics = zeros()
    layer_s = replay_layers([log], spans, seed, "calendar",
                            untraced["kernel_events"], ops, metrics)
    own = spans.self_times()
    layer_s += own["traffic.schedule"] + own.get("traffic.stats", 0.0)
    metrics.update({
        "failed_op_share": untraced["refused"] / untraced["attempted"],
        "traffic.schedule_us_per_op": mean_us(own["traffic.schedule"], ops),
        "traffic.stats_us_per_op": mean_us(own.get("traffic.stats", 0.0),
                                           ops),
        "simkit.events_per_op": untraced["kernel_events"] / ops,
        "cluster.tx_per_op": len(log) / ops,
    })
    detail = account(metrics, spans, untraced["wall_s"], traced_wall,
                     layer_s, len(log))
    return Outcome(metrics, attempted=untraced["attempted"],
                   problems=problems, detail=detail, spans=spans)


def rounded(own: Dict[str, float]) -> Dict[str, float]:
    return {k: round(v, 4) for k, v in sorted(
        own.items(), key=lambda kv: -kv[1])}


def account(metrics: Dict[str, float], spans: Spans, untraced_wall: float,
            traced_wall: float, layer_s: float,
            round_trips: int) -> Dict[str, object]:
    """Set the layers against the untraced wall; return the detail."""
    metrics["trace.explained_share"] = layer_s / untraced_wall
    metrics["trace.overhead_share"] = max(
        0.0, traced_wall / untraced_wall - 1.0)
    return {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "round_trips": round_trips, "spans": len(spans),
            "self_s": rounded(spans.self_times())}


def replay_layers(logs, spans: Spans, seed: int, scheduler: str,
                  kernel_events: int, spawned: int,
                  metrics: Dict[str, float]) -> float:
    """Pass 3.  ``logs`` holds one captured log per simulated account
    (one for a DES run, one per sweep cell for ``paper-figs``); each is
    replayed against fresh layer instances.  Fills the layer metrics and
    returns the seconds of the untraced wall the layers account for."""
    replay_events = 0
    verdicts = {"admitted": 0, "rejected": 0}
    depths: List[int] = []
    query_units: List[int] = []
    for log in logs:
        execute_span, events = replay.replay_execute(
            log, spans, seed, scheduler)
        replay_events += events
        for key, n in replay.replay_pipeline(
                log, spans, execute_span, seed).items():
            verdicts[key] += n
        state = replay.replay_state(log, spans, -1)
        depths.extend(state.depths)
        query_units.extend(state.query_units)
    round_trips = sum(len(log) for log in logs)
    event_us = replay.kernel_us_per_event(spans, scheduler, kernel_events)
    spawn_us = replay.process_spawn_us(spans, scheduler, round_trips)
    # A one-yield process is three kernel events; the rest of its cost
    # is creating the generator and the Process object.
    spawn_extra_us = max(0.0, spawn_us - 3 * event_us)
    own = spans.self_times()
    counts = spans.counts()
    # The ``cluster.execute`` pass ran the pipeline (subtracted already,
    # as child spans) and the kernel under it, one process per round
    # trip; take the kernel's events and process creations out.
    execute_s = max(0.0, own["cluster.execute"]
                    - (replay_events * event_us
                       + round_trips * spawn_extra_us) / 1e6)
    # The workload itself spawns one process per scheduled op.
    simkit_s = (kernel_events * event_us + spawned * spawn_extra_us) / 1e6
    metrics["simkit.process_spawn_us"] = spawn_us
    pipeline_s = (own.get("pipeline.admit", 0.0)
                  + own.get("pipeline.reject", 0.0))
    storage_s = 0.0
    for service in ("queue", "table", "blob"):
        name = f"storage.{service}"
        storage_s += own.get(name, 0.0)
        metrics[f"{name}.us_per_op"] = mean_us(own.get(name, 0.0),
                                               counts.get(name, 0))
    attempts = verdicts["admitted"] + verdicts["rejected"]
    metrics.update({
        f"simkit.{scheduler}_us_per_event": event_us,
        "pipeline.admit_us_per_op": mean_us(
            own.get("pipeline.admit", 0.0), verdicts["admitted"]),
        "pipeline.reject_us_per_op": mean_us(
            own.get("pipeline.reject", 0.0), verdicts["rejected"]),
        "pipeline.busy_share": (verdicts["rejected"] / attempts
                                if attempts else 0.0),
        "cluster.execute_us_per_op": mean_us(execute_s, attempts),
    })
    if depths:
        metrics["storage.queue.depth_mean"] = sum(depths) / len(depths)
        metrics["storage.queue.depth_max"] = float(max(depths))
    if query_units:
        metrics["storage.table.entities_per_query"] = (
            sum(query_units) / len(query_units))
    return execute_s + simkit_s + pipeline_s + storage_s


def run_paper(seed: int, pins) -> Outcome:
    """``paper-figs``: the campaign untraced, then every cell again
    through ``run_bench`` with the recorder installed by the sanctioned
    ``RunConfig.instrument`` hook."""
    from repro.bench.figures import build_body_factory
    from repro.core.runner import RunConfig, run_bench

    spans = Spans()
    scale = paper.bench_scale(seed)
    t0 = time.perf_counter()
    untraced = paper.run_once(seed)
    problems = des.check_batch("paper-figs", seed, [untraced], pins)
    # Cells run label by label, worker count by worker count.
    per_label = len(scale.worker_counts)
    label_s: Dict[str, float] = {}
    for k, label in enumerate(paper.LABELS):
        label_s[label] = sum(
            untraced["parts"][k * per_label:(k + 1) * per_label])
        spans.add(f"bench.{label}", t0, t0 + label_s[label])
        t0 += label_s[label]

    logs: List[List[replay.Entry]] = []
    envs = []

    def instrument(account) -> None:
        logs.append([])
        account.pipeline.add_first(replay.make_recorder(logs[-1]))
        envs.append(account.env)

    traced = {}
    t0 = time.perf_counter()
    for label in paper.LABELS:
        traced[label] = {
            workers: run_bench(
                build_body_factory(scale, label),
                RunConfig(seed=scale.seed, workers=workers,
                          label=f"{label}@{workers}", backend="sim",
                          instrument=instrument))
            for workers in scale.worker_counts}
    traced_wall = time.perf_counter() - t0
    if paper.records_digest(traced) != untraced["digest"]:
        problems.append("paper-figs: traced digest differs from untraced")
    kernel_events = sum(env.events_processed for env in envs)

    metrics = zeros()
    layer_s = replay_layers(logs, spans, seed, "heap", kernel_events, 0,
                            metrics)
    round_trips = sum(len(log) for log in logs)
    ops = untraced["attempted"]
    metrics.update({
        "failed_op_share": untraced["refused"] / ops,
        "core.retries_per_op": untraced["refused"] / ops,
        "bench.fig45_s": label_s["fig4/5"],
        "bench.fig6_s": label_s["fig6"],
        "bench.fig7_s": label_s["fig7"],
        "bench.fig8_s": label_s["fig8"],
        "simkit.events_per_op": kernel_events / ops,
        "cluster.tx_per_op": round_trips / ops,
    })
    detail = account(metrics, spans, untraced["wall_s"], traced_wall,
                     layer_s, round_trips)
    return Outcome(metrics, attempted=ops, problems=problems,
                   detail=detail, spans=spans)


def run(name: str, seed: int, seconds: float, pins) -> Outcome:
    """The traced run has a fixed amount of work; ``seconds`` is unused."""
    if name in des.SPECS:
        return run_des(name, seed, pins)
    return run_paper(seed, pins)
