"""Run figure workloads and the bag-of-tasks app under chaos schedules.

:func:`run_chaos` drives one figure's workload(s) across the chaos
scale's worker counts with a seeded fault schedule installed, the
client-level audit recording history, the Tracer recording spans, and
Storage Analytics metering — then checks every conformance invariant
and folds the evidence into a :class:`~.verdict.ChaosVerdict`.

:func:`run_chaos_taskpool` does the same for the paper's bag-of-tasks
application, adding worker-role crash/restart chaos driven through
:class:`~repro.compute.supervisor.Supervisor`: crashed workers leave
their in-flight task invisible, the visibility timeout re-delivers it,
and the ledger must still balance — the paper's "in-built fault
tolerance" claim, checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..storage import KB
from .history import History, audit_account
from .invariants import Violation, check_history
from .schedule import ChaosSchedule, build_schedule
from .verdict import ChaosRunError, ChaosVerdict

__all__ = [
    "CHAOS_SCALE",
    "ChaosRun",
    "chaos_workloads",
    "run_chaos",
    "run_chaos_taskpool",
]


def _crash_verdict(verdict: ChaosVerdict, label: str,
                   exc: BaseException) -> ChaosRunError:
    """Fold a harness crash into the partial verdict (never swallow it).

    A crashed run must still surface its evidence: the violation is
    appended, and the returned :class:`ChaosRunError` carries the partial
    verdict so the CLI writes the JSON artifact before exiting nonzero.
    """
    verdict.violations.append(Violation(
        "harness",
        f"{label}: run crashed before checks completed: "
        f"{type(exc).__name__}: {exc}"))
    return ChaosRunError(f"chaos run {label} crashed: {exc}", verdict)


def _start_crash_driver(env, pool, schedule: ChaosSchedule,
                        history: History) -> None:
    """Kill each worker instance ``schedule.crashes`` names at its time,
    if it is running then, and log the kill in ``history``."""
    from ..compute.roles import RoleStatus

    def crash_driver():
        now = 0.0
        for event in schedule.crashes:
            if event.time > now:
                yield env.timeout(event.time - now)
                now = event.time
            if event.role_id >= len(pool.instances):
                continue
            instance = pool.instances[event.role_id]
            if instance.status is RoleStatus.RUNNING:
                pool.fail_instance(event.role_id, cause="chaos kill")
                history.crash_events.append(
                    (env.now, "crash", event.role_id))

    if schedule.crashes:
        env.process(crash_driver(), name="chaos-crash-driver")


def _log_restarts(history: History, supervisor) -> None:
    """Add the supervisor's restarts to the crash log, in time order."""
    for record in supervisor.restarts:
        history.crash_events.append(
            (record.restarted_at, "restart", record.role_id))
    history.crash_events.sort()


def _exactly_once(checker: str, history: History, results,
                  payloads: List[bytes]) -> List[Violation]:
    """Every task's result exactly once, in a completed bag-of-tasks run.

    An injected duplicate delivery legitimately runs a task twice
    (at-least-once), so its duplicate result may displace another from
    the bounded drain.  Still required then: no phantom results, and
    nothing undelivered went missing (conservation already accounts
    each message individually).
    """
    got = sorted(r.payload for r in results)
    want = sorted(payloads)
    dup_injected = any(e[1] == "duplicate_delivery"
                       for e in history.fault_events)
    if got != want and not dup_injected:
        return [Violation(
            checker,
            f"collected results do not cover every task exactly once: "
            f"{len(got)} results for {len(want)} tasks")]
    phantoms = set(got) - set(want)
    if dup_injected and phantoms:
        return [Violation(
            checker, f"{len(phantoms)} result(s) match no submitted task")]
    return []


#: Default per-op retry budget for the termination invariant.
RETRY_BUDGET = 64

#: Small scale: a chaos run answers "still correct?", not "how fast?",
#: so a few dozen operations per phase exercise every code path while a
#: full profile-matrix sweep stays in CI-smoke territory.
CHAOS_SCALE = None  # set below (needs BenchScale from repro.bench)


def _chaos_scale():
    from ..bench.figures import BenchScale
    return BenchScale(
        name="chaos",
        worker_counts=(2, 4),
        blob_total_chunks=8,
        blob_repeats=1,
        queue_total_messages=64,
        queue_message_sizes=(4 * KB, 16 * KB),
        shared_total_transactions=60,
        shared_think_times=(1.0,),
        table_entity_count=24,
        table_entity_sizes=(4 * KB, 16 * KB),
        seed=2012,
    )


#: Workload kinds behind each figure (same mapping as FigureRunner).
_FIGURE_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "fig4": ("blob",),
    "fig5": ("blob",),
    "fig6": ("queue_sep",),
    "fig7": ("queue_shared",),
    "fig8": ("table",),
    "fig9": ("queue_sep", "table"),
}


def chaos_workloads() -> Dict[str, Tuple[str, ...]]:
    """Figure name -> workload kinds it runs under chaos."""
    return dict(_FIGURE_WORKLOADS)


def _body_factories(scale) -> Dict[str, Callable]:
    """Workload kind -> zero-arg factory of a fresh role body."""
    from ..core import (
        BlobBenchConfig,
        SeparateQueueBenchConfig,
        SharedQueueBenchConfig,
        TableBenchConfig,
        blob_bench_body,
        separate_queue_bench_body,
        shared_queue_bench_body,
        table_bench_body,
    )
    blob_cfg = BlobBenchConfig(
        chunk_bytes=64 * KB,  # small chunks: history tracks full payloads
        total_chunks=scale.blob_total_chunks,
        repeats=scale.blob_repeats,
        seed=scale.seed,
    )
    queue_cfg = SeparateQueueBenchConfig(
        total_messages=scale.queue_total_messages,
        message_sizes=scale.queue_message_sizes,
        seed=scale.seed,
    )
    shared_cfg = SharedQueueBenchConfig(
        total_transactions=scale.shared_total_transactions,
        think_times=scale.shared_think_times,
        seed=scale.seed,
    )
    table_cfg = TableBenchConfig(
        entity_count=scale.table_entity_count,
        entity_sizes=scale.table_entity_sizes,
        seed=scale.seed,
    )
    return {
        "blob": lambda: blob_bench_body(blob_cfg),
        "queue_sep": lambda: separate_queue_bench_body(queue_cfg),
        "queue_shared": lambda: shared_queue_bench_body(shared_cfg),
        "table": lambda: table_bench_body(table_cfg),
    }


@dataclass
class ChaosRun:
    """Evidence gathered from one chaos-instrumented benchmark run."""

    label: str
    workers: int
    history: History
    result: object  # BenchResult (with .trace)
    metrics: object  # MetricsAggregator
    violations: List[Violation] = field(default_factory=list)


def _plan_owner(account):
    """Where the fault plan and pipeline live, on any account flavour."""
    owner = getattr(account, "cluster", None)
    if owner is not None:
        return owner
    return getattr(account, "emulator", None) or account


def _run_one(label: str, body_factory: Callable, workers: int, *,
             scale, schedule: ChaosSchedule, retry_budget: int,
             backend: object = "sim") -> ChaosRun:
    """One benchmark run under one chaos schedule, fully checked."""
    from ..core.runner import RunConfig, run_bench
    from ..storage.analytics import attach_analytics

    history = History()
    captured: Dict[str, object] = {}

    def instrument(account):
        owner = _plan_owner(account)
        plan = schedule.plan()
        plan.subscribe(history.on_fault)
        owner.set_fault_plan(plan)
        _, metrics = attach_analytics(owner)
        audit_account(account, history)
        captured["account"] = account
        captured["metrics"] = metrics

    config = RunConfig(workers=workers, seed=scale.seed, label=label,
                       backend=backend, trace=True, instrument=instrument)
    result = run_bench(body_factory, config)
    history.snapshot_final_state(captured["account"].state)
    violations = check_history(
        history, spans=result.trace.spans, metrics=captured["metrics"],
        retry_budget=retry_budget, completed=True)
    return ChaosRun(label=label, workers=workers, history=history,
                    result=result, metrics=captured["metrics"],
                    violations=violations)


def run_chaos(figure: str, profile: str = "none", seed: int = 0, *,
              scale=None, retry_budget: int = RETRY_BUDGET,
              backend: object = "sim", splice: bool = False) -> ChaosVerdict:
    """Run one figure's workload(s) under a seeded chaos schedule.

    ``splice`` is the harness's self-test: after the real runs check
    clean, one successful put in the first queue-bearing history is
    rewritten as a silent drop — the conservation checker *must* flag
    it, proving a real message-loss bug could not slip through.
    """
    try:
        kinds = _FIGURE_WORKLOADS[figure]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure!r}; choose from "
            f"{', '.join(sorted(_FIGURE_WORKLOADS))}") from None
    if scale is None:
        scale = _chaos_scale()
    factories = _body_factories(scale)
    schedule = build_schedule(profile, seed=seed)
    verdict = ChaosVerdict(workload=figure, profile=profile, seed=seed,
                           schedules=[schedule.describe()])
    runs: List[ChaosRun] = []
    for kind in kinds:
        for workers in scale.worker_counts:
            label = f"{figure}:{kind}@{workers}"
            try:
                run = _run_one(label, factories[kind], workers, scale=scale,
                               schedule=schedule, retry_budget=retry_budget,
                               backend=backend)
            except Exception as exc:
                verdict.counts = {
                    "runs": len(runs),
                    "audited_ops": sum(len(r.history.records) for r in runs),
                }
                raise _crash_verdict(verdict, label, exc) from exc
            runs.append(run)
            verdict.runs.append(label)
            verdict.violations.extend(
                Violation(v.checker, f"{label}: {v.message}")
                for v in run.violations)
    verdict.counts = {
        "runs": len(runs),
        "audited_ops": sum(len(r.history.records) for r in runs),
        "spans": sum(len(r.result.trace.spans) for r in runs),
        "faults_injected": sum(len(r.history.fault_events) for r in runs),
    }
    if splice:
        verdict.counts["spliced"] = 0
        for run in runs:
            try:
                msg_id = run.history.splice_drop()
            except ValueError:
                continue
            verdict.counts["spliced"] = 1
            spliced = check_history(run.history)
            verdict.violations.extend(
                Violation(v.checker,
                          f"{run.label} [spliced {msg_id}]: {v.message}")
                for v in spliced)
            break
    return verdict


def run_chaos_taskpool(profile: str = "none", seed: int = 0, *,
                       crashes: int = 2, tasks: int = 16, workers: int = 4,
                       work_s: float = 1.0, visibility_timeout: float = 60.0,
                       recycle_delay: float = 3.0, horizon: float = 900.0,
                       retry_budget: int = RETRY_BUDGET) -> ChaosVerdict:
    """The bag-of-tasks app under faults *and* worker-role crashes.

    Crash events from the schedule kill running worker instances through
    the deployment's fault-injection hook; a
    :class:`~repro.compute.supervisor.Supervisor` recycles them after
    ``recycle_delay`` seconds.  A crashed worker's in-flight task stays
    invisible until ``visibility_timeout`` expires, is re-delivered, and
    must complete — the ledger explains the repeat delivery as a genuine
    timeout expiry and every task must appear in the results exactly
    once.
    """
    from ..compute import Fabric, Supervisor
    from ..faults.profiles import APP_NAME
    from ..framework import TaskPoolApp, TaskPoolConfig
    from ..observability import Tracer, sim_worker_resolver
    from ..sim import SimStorageAccount
    from ..simkit import AnyOf, Environment
    from ..storage.analytics import attach_analytics

    # Crashes must land while workers are busy: the bag drains in roughly
    # tasks/workers rounds of work_s each, so aim inside the first 80% of
    # that busy phase (a crash after completion tests nothing).
    busy = work_s * tasks / max(1, workers)
    schedule = build_schedule(profile, seed=seed, crashes=crashes,
                              workers=workers,
                              crash_window=(2.0, max(3.0, 2.0 + 0.8 * busy)))
    verdict = ChaosVerdict(workload="taskpool", profile=profile, seed=seed,
                           runs=[f"taskpool@{workers}"],
                           schedules=[schedule.describe()])
    history = History()
    try:
        env = Environment()
        account = SimStorageAccount(env, seed=seed)
        plan = schedule.plan()
        plan.subscribe(history.on_fault)
        account.cluster.set_fault_plan(plan)
        _, metrics = attach_analytics(account.cluster)
        tracer = Tracer(
            trace_id=f"chaos-taskpool-{profile}-{seed}",
            worker_resolver=sim_worker_resolver(env)).install(account)
        audit_account(account, history)

        def handler(ctx, payload):
            yield ctx.sleep(work_s)
            return payload

        config = TaskPoolConfig(name=APP_NAME,
                                visibility_timeout=visibility_timeout,
                                idle_poll_interval=0.5)
        app = TaskPoolApp(config, handler)
        payloads = [f"task-{i}".encode() for i in range(tasks)]

        fabric = Fabric(env, account)
        web = fabric.deploy(app.web_role_body(payloads, poll_interval=0.5),
                            instances=1, name="web")
        pool = fabric.deploy(app.worker_role_body(), instances=workers,
                             name="workers", contain_crashes=True)
        supervisor = Supervisor(pool, recycle_delay=recycle_delay).start()

        _start_crash_driver(env, pool, schedule, history)
        fabric.start_all()
        web_done = web.all_done_event()
        env.run(until=AnyOf(env, [web_done, env.timeout(horizon)]))
        completed = web_done.callbacks is None  # processed => web finished
        supervisor.stop()
        # Let surviving workers observe the stop signal and exit cleanly.
        env.run(until=env.timeout(config.idle_poll_interval * 4 + 2.0))
        _log_restarts(history, supervisor)
        history.snapshot_final_state(account.state)
    except Exception as exc:
        verdict.counts = {"audited_ops": len(history.records)}
        raise _crash_verdict(verdict, f"taskpool@{workers}", exc) from exc
    verdict.violations.extend(check_history(
        history, spans=tracer.spans, metrics=metrics,
        retry_budget=retry_budget, completed=completed))
    if completed:
        verdict.violations.extend(
            _exactly_once("taskpool", history, app.results, payloads))
    redeliveries = sum(
        1 for event in history.queue_events()
        if event[0] == "deliver" and event[3] > 1)
    verdict.counts = {
        "tasks": tasks,
        "results_collected": len(app.results),
        "worker_crashes": sum(1 for e in history.crash_events
                              if e[1] == "crash"),
        "worker_restarts": supervisor.restart_count,
        "redeliveries": redeliveries,
        "audited_ops": len(history.records),
        "spans": len(tracer.spans),
        "faults_injected": len(history.fault_events),
        "completion_time": round(env.now, 3),
    }
    return verdict
