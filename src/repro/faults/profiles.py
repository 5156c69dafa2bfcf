"""Named fault profiles and a bag-of-tasks chaos harness.

A :class:`FaultProfile` is a reusable, named fault scenario — the chaos
equivalent of the benchmark suite's figure definitions.  The profiles
here are the scenarios the robustness benchmarks and the ``repro faults``
CLI subcommand run; :func:`run_faulted_taskpool` executes the paper's
bag-of-tasks application under one of them with a chosen retry policy and
reports completion time, retry accounting, and observed availability.

This module imports the framework/sim layers, so it is *not* re-exported
from :mod:`repro.faults` (the cluster imports the engine half of the
package; see the package docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .plan import FaultPlan
from .spec import FaultKind, FaultSpec

__all__ = [
    "FaultProfile",
    "PROFILES",
    "POLICIES",
    "get_profile",
    "build_plan",
    "make_policy",
    "run_faulted_taskpool",
]

#: Name of the harness app; fault specs that target a single partition
#: reference its first task queue.
APP_NAME = "chaos"
TASK_QUEUE_0 = f"{APP_NAME}-tasks-0"


@dataclass(frozen=True)
class FaultProfile:
    """One named, ready-made fault scenario."""

    name: str
    description: str
    specs: Tuple[FaultSpec, ...]
    #: Worker-role kill events the chaos scheduler should draw by default
    #: (spot evictions); only meaningful for crash-tolerant workloads
    #: (the bag-of-tasks app, elasticity campaigns).
    crashes: int = 0

    def plan(self, *, seed: int = 0) -> FaultPlan:
        """Build a fresh (stateful) plan from this (stateless) profile."""
        return FaultPlan(self.specs, seed=seed)


PROFILES: Dict[str, FaultProfile] = {p.name: p for p in (
    FaultProfile(
        "none",
        "healthy fabric (control run)",
        (),
    ),
    FaultProfile(
        "throttle-storm",
        "queue service rejects 50% of ops with 503 ServerBusy for 20 s "
        "(clustered scalability-target rejections, paper IV.C)",
        (FaultSpec(kind=FaultKind.THROTTLE, service="queue",
                   start=2.0, duration=20.0, probability=0.5,
                   retry_after=1.0),),
    ),
    FaultProfile(
        "failover",
        "the partition server holding the first task queue crashes at "
        "t=4 s; its range is reassigned after 15 s (Calder SOSP'11)",
        (FaultSpec(kind=FaultKind.PARTITION_CRASH, service="queue",
                   partition=TASK_QUEUE_0, start=4.0, failover_delay=15.0,
                   retry_after=1.0),),
    ),
    FaultProfile(
        "flaky-500s",
        "every service returns 500 InternalError on 5% of requests for "
        "the whole run (flaky front-ends)",
        (FaultSpec(kind=FaultKind.TRANSIENT_ERROR, probability=0.05,
                   retry_after=1.0),),
    ),
    FaultProfile(
        "slow-network",
        "all round trips and server occupancy stretched 8x between "
        "t=2 s and t=32 s (degraded, not down)",
        (FaultSpec(kind=FaultKind.LATENCY, start=2.0, duration=30.0,
                   latency_factor=8.0),),
    ),
    FaultProfile(
        "timeouts",
        "10% of queue requests burn a 5 s timeout and fail for 30 s",
        (FaultSpec(kind=FaultKind.TIMEOUT, service="queue", start=2.0,
                   duration=30.0, probability=0.1, timeout_after=5.0,
                   retry_after=1.0),),
    ),
    FaultProfile(
        "queue-storm",
        "queue-heavy chaos for the Fig 6 workload: a 503 throttle window, "
        "background 500s, plus message loss and duplicate delivery on the "
        "per-worker benchmark queues (the barrier queue is exempt so the "
        "synchronization protocol cannot deadlock)",
        (FaultSpec(kind=FaultKind.THROTTLE, service="queue",
                   start=1.0, duration=15.0, probability=0.3,
                   retry_after=1.0),
         FaultSpec(kind=FaultKind.TRANSIENT_ERROR, service="queue",
                   probability=0.05, retry_after=1.0))
        # Data-plane anomalies scoped to the benchmark queues
        # ("azurebenchqueue" + role id, first 8 workers) — never the
        # barrier queue: a lost barrier message would hang the run by
        # protocol design, not by a platform bug.
        + tuple(
            FaultSpec(kind=kind, service="queue",
                      partition=f"azurebenchqueue{i}", probability=0.08)
            for kind in (FaultKind.MESSAGE_LOSS,
                         FaultKind.DUPLICATE_DELIVERY)
            for i in range(8)
        ),
    ),
    FaultProfile(
        "table-storm",
        "table-heavy chaos for the Fig 8 workload: a 503 throttle window, "
        "background 500s, and a burst of 2 s timeouts on the table service",
        (FaultSpec(kind=FaultKind.THROTTLE, service="table",
                   start=1.0, duration=15.0, probability=0.3,
                   retry_after=1.0),
         FaultSpec(kind=FaultKind.TRANSIENT_ERROR, service="table",
                   probability=0.05, retry_after=1.0),
         FaultSpec(kind=FaultKind.TIMEOUT, service="table", start=2.0,
                   duration=10.0, probability=0.05, timeout_after=2.0,
                   retry_after=1.0)),
    ),
    FaultProfile(
        "region-outage",
        "the primary region goes hard-down between t=4 s and t=24 s: every "
        "primary op fails with 503 RegionUnavailable; a geo account serves "
        "reads from the RA-GRS secondary and writes back off until the "
        "region returns (single-region accounts just see a total outage)",
        (FaultSpec(kind=FaultKind.REGION_OUTAGE, region="primary",
                   start=4.0, duration=20.0, retry_after=1.0),),
    ),
    FaultProfile(
        "geo-failover",
        "geo shipping stalls at t=2 s, then the primary region dies at "
        "t=6 s and never comes back; the campaign drives a forced "
        "failover promoting the secondary, losing exactly the writes "
        "acknowledged after the (stalled) Last Sync Time — the bounded "
        "loss the 2012 contract allows",
        (FaultSpec(kind=FaultKind.REPLICATION_STALL,
                   start=2.0, duration=40.0),
         FaultSpec(kind=FaultKind.REGION_OUTAGE, region="primary",
                   start=6.0, duration=float("inf"), retry_after=1.0)),
    ),
    FaultProfile(
        "replication-stall",
        "geo-replication shipping stalls between t=3 s and t=18 s: the "
        "primary keeps acknowledging writes while Last Sync Time freezes "
        "(secondary staleness grows to the stall width plus the lag)",
        (FaultSpec(kind=FaultKind.REPLICATION_STALL,
                   start=3.0, duration=15.0),),
    ),
    FaultProfile(
        "spot-eviction",
        "three worker VMs are evicted mid-run (spot/low-priority reclaim) "
        "while the queue service throttles 20% of ops for 10 s; the "
        "supervisor recycles evicted roles and autoscaling replaces lost "
        "capacity",
        (FaultSpec(kind=FaultKind.THROTTLE, service="queue",
                   start=2.0, duration=10.0, probability=0.2,
                   retry_after=1.0),),
        crashes=3,
    ),
    FaultProfile(
        "dn-failover",
        "data node 2 of the service tier crash-stops at t=15 s under "
        "open-loop load; the failure domain must detect the death via "
        "heartbeats, heal the ring, and re-replicate with zero committed-"
        "write loss and bounded unavailability (service backend only)",
        # At 3 DNs, R=2, DN 2 holds the load table partition, queue and blobs.
        (FaultSpec(kind=FaultKind.DN_CRASH, node=2, start=15.0),),
    ),
    FaultProfile(
        "lossy-queue",
        "task-queue puts lose their payload 10% of the time and gotten "
        "messages are duplicated 10% of the time for 30 s",
        (FaultSpec(kind=FaultKind.MESSAGE_LOSS, service="queue",
                   partition=TASK_QUEUE_0, start=0.0, duration=30.0,
                   probability=0.1),
         FaultSpec(kind=FaultKind.DUPLICATE_DELIVERY, service="queue",
                   partition=TASK_QUEUE_0, start=0.0, duration=30.0,
                   probability=0.1)),
    ),
)}


def get_profile(name: str) -> FaultProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; "
            f"available: {', '.join(sorted(PROFILES))}") from None


def build_plan(name: str, *, seed: int = 0) -> FaultPlan:
    """A fresh plan for the named profile."""
    return get_profile(name).plan(seed=seed)


#: Retry-policy factories the harness (and CLI) can name.  Factories,
#: not instances: policies are stateful (stats, RNGs, token buckets).
POLICIES: Dict[str, Callable[[], "object"]] = {}


def _register_policies() -> None:
    from ..resilience import (ExponentialJitterBackoff, FixedBackoff,
                              RetryBudget)
    POLICIES.update({
        "fixed": lambda: FixedBackoff(),
        "expo-jitter": lambda: ExponentialJitterBackoff(seed=7),
        "retry-budget": lambda: RetryBudget(capacity=20, refill_rate=0.5),
    })


_register_policies()


def make_policy(name: str):
    try:
        factory = POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown retry policy {name!r}; "
            f"available: {', '.join(sorted(POLICIES))}") from None
    return factory()


def run_faulted_taskpool(profile: str, policy: str = "fixed", *,
                         tasks: int = 24, workers: int = 4,
                         work_s: float = 0.5, seed: int = 31,
                         horizon: float = 600.0) -> Dict[str, object]:
    """Run the paper's bag-of-tasks app under a fault profile.

    Returns a plain dict (CLI- and test-friendly) with completion
    accounting, the resilience summary, and the reproducible fault
    trace.  ``horizon`` bounds the run: data-loss profiles can make the
    bag of tasks unable to terminate, which is itself a result.
    """
    # Imported here: this module is reachable from the CLI before the
    # heavier layers are needed, and the engine half of repro.faults must
    # stay importable from repro.cluster without cycles.
    from ..compute import Fabric, Supervisor
    from ..framework import TaskPoolApp, TaskPoolConfig
    from ..sim import SimStorageAccount
    from ..simkit import AnyOf, Environment
    from ..storage.analytics import attach_analytics, resilience_summary

    plan = build_plan(profile, seed=seed)
    retry_policy = make_policy(policy)

    env = Environment()
    account = SimStorageAccount(env, seed=seed)
    account.cluster.set_fault_plan(plan)
    log, metrics = attach_analytics(account.cluster)

    def handler(ctx, payload):
        yield ctx.sleep(work_s)
        return payload

    # The policy under test applies to the *workers* (the paper's hot
    # path); the web role keeps the paper's patient fixed retry so a
    # giving-up policy can't kill the experiment's bookkeeping.  Both
    # apps share the config name and therefore the queues.
    worker_app = TaskPoolApp(
        TaskPoolConfig(name=APP_NAME, visibility_timeout=60.0,
                       idle_poll_interval=0.5, retry_policy=retry_policy),
        handler)
    app = TaskPoolApp(
        TaskPoolConfig(name=APP_NAME, visibility_timeout=60.0,
                       idle_poll_interval=0.5),
        handler)
    payloads = [f"t{i}".encode() for i in range(tasks)]

    fabric = Fabric(env, account)
    fabric.deploy(app.web_role_body(payloads, poll_interval=0.5),
                  instances=1, name="web")
    # Workers run crash-contained under a supervisor: a policy that gives
    # up (retry budget, deadline) surfaces the error, the fabric recycles
    # the role, and queue redelivery completes the task — the paper's full
    # fault-tolerance story.
    worker_pool = fabric.deploy(worker_app.worker_role_body(),
                                instances=workers, name="workers",
                                contain_crashes=True)
    supervisor = Supervisor(worker_pool, recycle_delay=5.0).start()
    fabric.start_all()
    all_done = env.all_of([d.all_done_event()
                           for d in fabric.deployments.values()])
    env.run(until=AnyOf(env, [all_done, env.timeout(horizon)]))
    completed = all_done.callbacks is None  # processed => everything done

    summary = resilience_summary(metrics, policy=retry_policy, plan=plan)
    return {
        "profile": profile,
        "policy": policy,
        "completed": completed,
        "completion_time": env.now,
        "tasks": tasks,
        "results_collected": len(app.results),
        "attempts": summary.attempts,
        "retries": summary.retries,
        "giveups": summary.giveups,
        "total_backoff": summary.total_backoff,
        "retry_amplification": summary.retry_amplification,
        "availability": summary.availability,
        "faults_injected": summary.faults_injected,
        "worker_restarts": supervisor.restart_count,
        "trace": plan.trace(),
        "requests_logged": len(log),
    }
