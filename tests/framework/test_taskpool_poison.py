"""Regression tests: poison-message handling under worker restarts.

A payload whose *handler crashes the worker* is the pathological case of
queue-based fault tolerance: redelivery brings it right back, so without a
dequeue-count cutoff the fleet crash-loops forever.  With
``max_dequeue_count`` set, the framework parks such tasks on the
dead-letter queue; with a :class:`~repro.compute.Supervisor` recycling
crashed workers, the run still terminates and completes every healthy
task.
"""

import pytest

from repro.compute import Fabric, RoleStatus, Supervisor
from repro.framework import TaskPoolApp, TaskPoolConfig
from repro.resilience import FixedBackoff
from repro.sim import SimStorageAccount
from repro.simkit import Environment

POISON = (b"BAD-3", b"BAD-7")
GOOD = [f"ok-{i}".encode() for i in range(8)]


def crashing_handler(ctx, payload):
    if payload.startswith(b"BAD"):
        raise RuntimeError(f"poison payload {payload!r}")
    yield ctx.sleep(0.2)
    return payload.upper()


def run_poisoned(tasks, *, max_dequeue_count=2, workers=2):
    env = Environment()
    account = SimStorageAccount(env, seed=17)
    config = TaskPoolConfig(name="pz", visibility_timeout=2.0,
                            idle_poll_interval=0.2,
                            max_dequeue_count=max_dequeue_count)
    app = TaskPoolApp(config, crashing_handler)
    fabric = Fabric(env, account)
    fabric.deploy(app.web_role_body(tasks, poll_interval=0.2),
                  instances=1, name="web")
    worker_pool = fabric.deploy(app.worker_role_body(), instances=workers,
                                name="workers", contain_crashes=True)
    supervisor = Supervisor(worker_pool, recycle_delay=1.0).start()
    fabric.start_all()
    env.run()
    return env, account, app, config, worker_pool, supervisor


class TestPoisonUnderRestarts:
    def test_run_terminates_and_dead_letters_exactly_the_poison(self):
        tasks = GOOD[:4] + [POISON[0]] + GOOD[4:] + [POISON[1]]
        env, account, app, config, workers, supervisor = run_poisoned(tasks)

        # The run terminated (env.run drained) with every healthy task
        # completed exactly once, despite the crash-looping payloads.
        assert sorted(r.payload for r in app.results) == \
            sorted(p.upper() for p in GOOD)

        # The dead-letter queue holds exactly the poisoned payloads.
        poison_queue = account.state.queues.get_queue(
            config.poison_queue_name)
        parked = sorted(m.content.to_bytes()
                        for m in poison_queue.peek_messages(10))
        assert parked == sorted(POISON)

        # Each poison payload crashed a worker on every delivery below the
        # cutoff; the supervisor recycled them all.
        assert supervisor.restart_count >= len(POISON)
        assert all(s is RoleStatus.COMPLETED for s in workers.statuses())

        # Nothing is left on the task queues.
        task_queue = account.state.queues.get_queue(
            config.task_queue_name(0))
        assert task_queue.approximate_message_count() == 0

    def test_dequeue_cutoff_bounds_the_crash_count(self):
        tasks = [POISON[0]] + GOOD[:3]
        env, account, app, config, workers, supervisor = run_poisoned(
            tasks, max_dequeue_count=3)
        # Cutoff 3: the payload is delivered (and crashes a worker) 3
        # times, then delivery 4 is parked without processing.
        crash_restarts = supervisor.restart_count
        assert crash_restarts >= 3
        poison_queue = account.state.queues.get_queue(
            config.poison_queue_name)
        assert poison_queue.approximate_message_count() == 1

    def test_healthy_run_parks_nothing(self):
        env, account, app, config, workers, supervisor = run_poisoned(
            list(GOOD))
        assert sorted(r.payload for r in app.results) == \
            sorted(p.upper() for p in GOOD)
        poison_queue = account.state.queues.get_queue(
            config.poison_queue_name)
        assert poison_queue.approximate_message_count() == 0
        assert supervisor.restart_count == 0

    def test_poisoned_tasks_count_toward_termination(self):
        # The web role's progress reaches len(tasks) only because parked
        # tasks report "poisoned" on the termination queue.
        tasks = [POISON[0], POISON[1]] + GOOD[:2]
        env, account, app, config, workers, supervisor = run_poisoned(tasks)
        assert app.progress[-1][1] >= len(tasks)


#: A slow delivery outlives its visibility timeout, so the task is
#: redelivered while still being handled: delivery 1 and 2 each finish
#: ("done", stale delete), delivery 3 exceeds the cutoff and is parked.
SLOW = b"SLOW"
VISIBILITY, SLOW_SECONDS = 0.3, 0.75


def test_a_slow_task_is_redelivered_then_parked():
    config = TaskPoolConfig(
        name="slow", task_queues=2, visibility_timeout=VISIBILITY,
        idle_poll_interval=0.01, max_dequeue_count=2, collect_results=True,
        retry_policy=FixedBackoff())

    def handler(ctx, payload):
        if payload == SLOW:
            yield ctx.sleep(SLOW_SECONDS)
            return None
        return payload.upper()

    good = GOOD[:5]
    env = Environment()
    account = SimStorageAccount(env, seed=5)
    app = TaskPoolApp(config, handler)
    fabric = Fabric(env, account)
    fabric.deploy(app.web_role_body([SLOW] + good, poll_interval=0.01),
                  instances=1, name="web")
    fabric.deploy(app.worker_role_body(), instances=2, name="workers")
    fabric.run_all()
    state = account.state

    assert sorted(r.payload for r in app.results) == \
        sorted(p.upper() for p in good)
    parked = state.queues.get_queue(config.poison_queue_name)
    assert [m.content.to_bytes() for m in parked.peek_messages(10)] == [SLOW]
    # One message per good task, "done" twice and "poisoned" once for SLOW.
    termination = state.queues.get_queue(config.termination_queue_name)
    assert termination.approximate_message_count() == len(good) + 3
    for i in range(config.task_queues):
        left = state.queues.get_queue(config.task_queue_name(i))
        assert left.approximate_message_count() == 0
    assert config.retry_policy.stats.logical_ops > 0
    assert config.retry_policy.stats.giveups == 0
