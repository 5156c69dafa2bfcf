"""``ThreadedTaskPool`` is ``TaskPoolApp`` on threads, not a second copy.

The hand-written threaded protocol this adapter replaced had drifted from
the simulated one (``retry_deadline`` never read, ``RetryStats`` never
counted, set-up not retried) and hung its worker threads when the web
loop failed; the first half pins those on the adapter.  The second half
checks the twin that remains *as* a twin: one config, one bag with a
poison task, through the DES and through threads, equal outcomes.
"""

import threading
import time

import pytest

from repro.compute import Fabric
from repro.emulator import EmulatorAccount
from repro.faults.plan import FaultPlan
from repro.faults.spec import FaultKind, FaultSpec
from repro.framework import TaskPoolApp, TaskPoolConfig, ThreadedTaskPool
from repro.resilience import FixedBackoff
from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage.errors import ServerBusyError


def live_workers():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("taskpool-worker")]


def run_bounded(pool, tasks, seconds, **kwargs):
    """``pool.run`` on a side thread: (outcome, wall seconds, finished)."""
    box = {}

    def go():
        try:
            box["outcome"] = pool.run(tasks, **kwargs)
        except BaseException as exc:
            box["outcome"] = exc

    runner = threading.Thread(target=go, daemon=True)
    start = time.monotonic()
    runner.start()
    runner.join(seconds)
    return box.get("outcome"), time.monotonic() - start, not runner.is_alive()


class TestOneProtocolOnThreads:
    def test_retry_policy_counts_every_op(self):
        policy = FixedBackoff()
        pool = ThreadedTaskPool(
            EmulatorAccount(),
            TaskPoolConfig(name="cnt", idle_poll_interval=0.01,
                           retry_policy=policy),
            handler=lambda payload: payload)
        pool.run([b"a", b"b", b"c"], workers=2, poll_interval=0.01)
        # 3 submits + 3 result puts + 3 termination puts at the least.
        assert policy.stats.logical_ops >= 9
        assert policy.stats.successes == policy.stats.logical_ops

    def test_queue_outage_past_the_retry_deadline_fails_the_run(self):
        """A permanent queue outage opening mid-run: every role gives up
        once ``retry_deadline`` cannot cover the next back-off, ``run``
        hands the web role's ``ServerBusyError`` to its caller within a
        second, and no worker thread is left behind polling."""
        account = EmulatorAccount()
        account.set_fault_plan(FaultPlan(
            [FaultSpec(FaultKind.OUTAGE, service="queue", start=0.2)],
            seed=1))

        def handler(payload):
            time.sleep(0.01)
            return payload

        pool = ThreadedTaskPool(
            account, TaskPoolConfig(name="out", idle_poll_interval=0.01,
                                    retry_deadline=0.3),
            handler=handler)
        tasks = [b"t%d" % i for i in range(200)]
        try:
            outcome, wall, finished = run_bounded(
                pool, tasks, 3.0, workers=2, poll_interval=0.01)
            assert finished, "still retrying 3 s into a permanent outage"
            assert isinstance(outcome, ServerBusyError)
            assert wall < 0.2 + 1.0
            assert live_workers() == []
        finally:
            account.set_fault_plan(None)  # lets a hung pool drain and exit

    def test_failed_handler_fails_the_run(self):
        """A handler exception is the caller's, not a dead thread's: the
        web role stops at its next poll and the other workers retire."""
        def handler(payload):
            if payload == b"boom":
                raise RuntimeError("handler bug")
            return payload

        pool = ThreadedTaskPool(
            EmulatorAccount(),
            TaskPoolConfig(name="bug", idle_poll_interval=0.01),
            handler=handler)
        outcome, _, finished = run_bounded(
            pool, [b"ok", b"boom", b"ok2"], 3.0, workers=2,
            poll_interval=0.01)
        assert finished
        assert isinstance(outcome, RuntimeError)
        assert live_workers() == []


# -- the twin, checked as a twin ---------------------------------------------

BAD = b"BAD"
GOOD = [f"ok-{i}".encode() for i in range(5)]
#: A BAD delivery outlives its visibility timeout, so the task is
#: redelivered while still being handled: delivery 1 and 2 each finish
#: ("done", stale delete), delivery 3 exceeds the cutoff and is parked.
VISIBILITY, BAD_SECONDS = 0.3, 0.75


def twin_config():
    return TaskPoolConfig(
        name="twin", task_queues=2, visibility_timeout=VISIBILITY,
        idle_poll_interval=0.01, max_dequeue_count=2, collect_results=True,
        retry_policy=FixedBackoff())


def run_on_des(config, tasks):
    def handler(ctx, payload):
        if payload == BAD:
            yield ctx.sleep(BAD_SECONDS)
            return None
        return payload.upper()

    env = Environment()
    account = SimStorageAccount(env, seed=5)
    app = TaskPoolApp(config, handler)
    fabric = Fabric(env, account)
    fabric.deploy(app.web_role_body(tasks, poll_interval=0.01),
                  instances=1, name="web")
    fabric.deploy(app.worker_role_body(), instances=2, name="workers")
    fabric.run_all()
    return app.results, account.state


def run_on_threads(config, tasks):
    def handler(payload):
        if payload == BAD:
            time.sleep(BAD_SECONDS)
            return None
        return payload.upper()

    account = EmulatorAccount()
    pool = ThreadedTaskPool(account, config, handler)
    return pool.run(tasks, workers=2, poll_interval=0.01), account.state


@pytest.mark.parametrize("run", [run_on_des, run_on_threads])
def test_des_and_threads_run_one_protocol(run):
    config = twin_config()
    tasks = [BAD] + GOOD
    results, state = run(config, tasks)

    assert sorted(r.payload for r in results) == \
        sorted(p.upper() for p in GOOD)
    parked = state.queues.get_queue(config.poison_queue_name)
    assert [m.content.to_bytes() for m in parked.peek_messages(10)] == [BAD]
    # One message per good task, "done" twice and "poisoned" once for BAD.
    termination = state.queues.get_queue(config.termination_queue_name)
    assert termination.approximate_message_count() == len(GOOD) + 3
    for i in range(config.task_queues):
        left = state.queues.get_queue(config.task_queue_name(i))
        assert left.approximate_message_count() == 0
    assert config.retry_policy.stats.logical_ops > 0
    assert config.retry_policy.stats.giveups == 0
