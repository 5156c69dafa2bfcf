"""The generic bag-of-tasks application framework (paper Section III, Fig 3).

Workflow mirrored from the paper:

1. a **web role** receives input arguments and puts one message per task on
   a *task assignment queue* (multiple queues are supported for distinct
   parameter sets — and recommended, since separate queues scale better);
2. **worker roles** poll the task queues, process messages, and report each
   completion on a *termination indicator queue*;
3. the web role polls the termination indicator queue's message count to
   update the user interface and detect completion;
4. a dedicated **stop queue** signals shutdown — the paper explains a
   poison message on the task queue itself is unsafe because FIFO is not
   guaranteed ("the worker roles might read this message before the actual
   messages for tasks and hence quit processing while there is work in the
   task pool").

Fault tolerance comes from queue semantics: a worker that crashes after
``GetMessage`` never deletes its message, so it reappears after the
visibility timeout and another worker completes it ("queues can easily
facilitate the behavior of a shared task pool with in-built fault tolerance
mechanisms").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence

from ..compute.roles import RoleContext
from ..resilience import RetryPolicy
from ..sim.retry import retrying
from ..storage.errors import MessageNotFoundError

__all__ = ["TaskPoolConfig", "TaskPoolApp", "TaskResult"]

#: A task handler: generator taking (context, payload bytes) and returning
#: an optional result payload.
TaskHandler = Callable[[RoleContext, bytes], Generator]


@dataclass(frozen=True)
class TaskPoolConfig:
    """Queue names and tunables of one task-pool application."""

    name: str = "app"
    #: Number of task assignment queues ("If there are distinct input
    #: parameter sets, there could be multiple task assignment queues").
    task_queues: int = 1
    #: Seconds a gotten task stays invisible; must exceed the longest task.
    visibility_timeout: float = 120.0
    #: Worker poll back-off when the task pool is momentarily empty.
    idle_poll_interval: float = 1.0
    #: Store results on a results queue (set False for side-effect tasks).
    collect_results: bool = True
    #: Poison-message cutoff: a task delivered more than this many times is
    #: moved to the dead-letter queue instead of re-processed (None
    #: disables).  Queue redelivery is at-least-once; a task whose payload
    #: *crashes the handler* would otherwise loop forever.
    max_dequeue_count: Optional[int] = None
    #: Retry policy for every storage op (None: the paper's fixed
    #: 1-second sleep).  Pass an :mod:`repro.resilience` policy to change
    #: the back-off schedule; its stats accumulate across the whole run.
    retry_policy: Optional[RetryPolicy] = None
    #: Per-op retry deadline in simulated seconds (None: retry forever,
    #: the paper's behaviour).  When the budget runs out the error
    #: surfaces to the role body — pair with a Supervisor to recycle.
    retry_deadline: Optional[float] = None

    def task_queue_name(self, index: int) -> str:
        return f"{self.name}-tasks-{index}"

    @property
    def poison_queue_name(self) -> str:
        return f"{self.name}-poison"

    @property
    def termination_queue_name(self) -> str:
        return f"{self.name}-termination"

    @property
    def results_queue_name(self) -> str:
        return f"{self.name}-results"

    @property
    def stop_queue_name(self) -> str:
        return f"{self.name}-stop"


@dataclass
class TaskResult:
    """One collected result message."""

    payload: bytes
    worker_hint: Optional[str] = None


class TaskPoolApp:
    """Builds web-role and worker-role bodies for a bag-of-tasks app.

    Usage::

        app = TaskPoolApp(TaskPoolConfig(name="pi"), handler)
        fabric.deploy(app.web_role_body(tasks), instances=1, name="web")
        fabric.deploy(app.worker_role_body(), instances=8, name="workers")
        fabric.run_all()
        results = app.results
    """

    def __init__(self, config: TaskPoolConfig, handler: TaskHandler) -> None:
        self.config = config
        self.handler = handler
        #: Results gathered by the web role (payload order is completion
        #: order — queues are not FIFO).
        self.results: List[TaskResult] = []
        #: Progress snapshots (time, completed count) from the web role.
        self.progress: List[tuple] = []
        self.tasks_submitted = 0

    # -- queue plumbing ------------------------------------------------------
    def _queue_client(self, ctx: RoleContext):
        return ctx.account.queue_client()

    def _retry(self, ctx: RoleContext, op_factory):
        """Run a queue op under the configured resilience policy (default:
        the paper's sleep-and-retry discipline), so throttling and outages
        delay the app instead of crashing it."""
        result = yield from retrying(
            ctx.env, op_factory,
            policy=self.config.retry_policy,
            deadline=self.config.retry_deadline)
        return result

    def setup(self, ctx: RoleContext):
        """Create all queues (called by the web role before submitting)."""
        qc = self._queue_client(ctx)
        for i in range(self.config.task_queues):
            yield from self._retry(ctx, lambda i=i: qc.create_queue(
                self.config.task_queue_name(i)))
        yield from self._retry(ctx, lambda: qc.create_queue(
            self.config.termination_queue_name))
        yield from self._retry(ctx, lambda: qc.create_queue(
            self.config.stop_queue_name))
        if self.config.collect_results:
            yield from self._retry(ctx, lambda: qc.create_queue(
                self.config.results_queue_name))
        if self.config.max_dequeue_count is not None:
            yield from self._retry(ctx, lambda: qc.create_queue(
                self.config.poison_queue_name))

    # -- web role ---------------------------------------------------------
    def web_role_body(self, tasks: Sequence[bytes], *,
                      poll_interval: float = 1.0,
                      submit_times: Optional[Sequence[float]] = None):
        """Body for the web role: submit tasks, track progress, signal stop.

        ``submit_times`` turns the bag into an open-loop stream: task ``i``
        is submitted at ``submit_times[i]`` seconds after setup finishes
        (instants from an :class:`repro.traffic.ArrivalSpec`), instead of
        the whole bag landing at once.  Must be non-decreasing and cover
        every task.
        """
        tasks = [bytes(t) for t in tasks]
        if submit_times is not None:
            submit_times = [float(t) for t in submit_times]
            if len(submit_times) < len(tasks):
                raise ValueError(
                    f"submit_times covers {len(submit_times)} of "
                    f"{len(tasks)} tasks")
            if any(b < a for a, b in zip(submit_times, submit_times[1:])):
                raise ValueError("submit_times must be non-decreasing")

        def body(ctx: RoleContext):
            qc = self._queue_client(ctx)
            yield from self.setup(ctx)
            # Task assignment: spread across the task queues round-robin,
            # pacing on the arrival schedule when one was given.
            origin = ctx.now
            for i, payload in enumerate(tasks):
                if submit_times is not None:
                    due = origin + submit_times[i]
                    if due > ctx.now:
                        yield ctx.sleep(due - ctx.now)
                queue = self.config.task_queue_name(i % self.config.task_queues)
                yield from self._retry(ctx, lambda q=queue, p=payload:
                                       qc.put_message(q, p))
            self.tasks_submitted = len(tasks)
            # Poll the termination indicator to "update the user interface".
            while True:
                done = yield from self._retry(ctx, lambda: qc.get_message_count(
                    self.config.termination_queue_name))
                self.progress.append((ctx.now, done))
                if done >= len(tasks):
                    break
                yield ctx.sleep(poll_interval)
            # Drain results.
            if self.config.collect_results:
                for _ in range(len(tasks)):
                    msg = yield from self._retry(ctx, lambda: qc.get_message(
                        self.config.results_queue_name,
                        visibility_timeout=self.config.visibility_timeout))
                    if msg is None:
                        break
                    self.results.append(TaskResult(msg.content.to_bytes()))
                    yield from self._retry(
                        ctx, lambda m=msg: qc.delete_message(
                            self.config.results_queue_name,
                            m.message_id, m.pop_receipt))
            # Tell the workers to exit (dedicated stop queue, not a poison
            # task message — FIFO is not guaranteed).
            yield from self._retry(ctx, lambda: qc.put_message(
                self.config.stop_queue_name, b"stop"))
            return len(self.results)

        return body

    # -- worker role ---------------------------------------------------------
    def worker_role_body(self):
        """Body for worker roles: poll task queues, process, report."""

        def body(ctx: RoleContext):
            qc = self._queue_client(ctx)
            # Role startup: create-if-not-exists, like real role OnStart code
            # (safe because queue creation is idempotent; avoids racing the
            # web role's setup).
            yield from self.setup(ctx)
            processed = 0
            # Start polling at a queue derived from the role id so workers
            # don't stampede a single queue.
            queue_index = ctx.role_id % self.config.task_queues
            while True:
                if getattr(ctx, "retire_requested", False):
                    # Cooperative scale-in: the autoscaler asked us to
                    # drain.  Between tasks is the safe exit point — the
                    # in-flight task (if any) was finished and deleted.
                    return processed
                got_task = False
                for attempt in range(self.config.task_queues):
                    queue = self.config.task_queue_name(
                        (queue_index + attempt) % self.config.task_queues)
                    msg = yield from self._retry(
                        ctx, lambda q=queue: qc.get_message(
                            q, visibility_timeout=self.config.visibility_timeout))
                    if msg is None:
                        continue
                    got_task = True
                    cutoff = self.config.max_dequeue_count
                    if cutoff is not None and msg.dequeue_count > cutoff:
                        # Poison message: park it on the dead-letter queue
                        # and count it toward termination so the run ends.
                        yield from self._retry(
                            ctx, lambda m=msg: qc.put_message(
                                self.config.poison_queue_name, m.content))
                        yield from self._retry(ctx, lambda: qc.put_message(
                            self.config.termination_queue_name, b"poisoned"))
                        yield from self._retry(
                            ctx, lambda q=queue, m=msg: qc.delete_message(
                                q, m.message_id, m.pop_receipt))
                        continue
                    result = yield from self.handler(
                        ctx, msg.content.to_bytes())
                    # Completion protocol: report, then delete the task.
                    if self.config.collect_results and result is not None:
                        yield from self._retry(ctx, lambda r=result: qc.put_message(
                            self.config.results_queue_name, r))
                    yield from self._retry(ctx, lambda: qc.put_message(
                        self.config.termination_queue_name, b"done"))
                    try:
                        yield from self._retry(
                            ctx, lambda q=queue, m=msg: qc.delete_message(
                                q, m.message_id, m.pop_receipt))
                    except MessageNotFoundError:
                        # Our processing outlived the visibility timeout and
                        # the task was re-delivered to (and possibly deleted
                        # by) another worker.  At-least-once semantics: our
                        # result stands, the stale receipt is harmless.
                        pass
                    processed += 1
                    break
                if not got_task:
                    # Idle: exit if the stop signal is up, else back off.
                    stop = yield from self._retry(ctx, lambda: qc.peek_message(
                        self.config.stop_queue_name))
                    if stop is not None:
                        return processed
                    yield ctx.sleep(self.config.idle_poll_interval)

        return body
