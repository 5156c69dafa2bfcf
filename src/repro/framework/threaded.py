"""The Section III task-pool protocol on real threads (emulator backend).

An adapter, not a second implementation: the protocol — task-assignment
queues, termination-indicator queue, stop queue, visibility timeouts,
poison cutoff, retry policy and deadline — is written once, as
:class:`~repro.framework.taskpool.TaskPoolApp`'s role bodies.  Here those
bodies run over :class:`~repro.wallclock.ShimAccount` clients, the web
role on the calling thread and each worker role on a thread of its own,
every one exhausted by :func:`repro.wallclock.exhaust`, so applications
can be developed and debugged locally exactly as they would run
simulated.  Every interval in the config is a wall-clock second here.

Handlers here are plain callables (no generators): ``handler(payload) ->
bytes | None``.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

from ..compute import SMALL
from ..compute.roles import RoleContext
from ..emulator import EmulatorAccount
from ..wallclock import ShimAccount, ThreadedEnv, exhaust
from .taskpool import TaskPoolApp, TaskPoolConfig, TaskResult

__all__ = ["ThreadedTaskPool"]


class ThreadedTaskPool:
    """Run a bag of tasks on worker threads over an emulator account. ::

        pool = ThreadedTaskPool(account, TaskPoolConfig(name="app"),
                                handler=lambda payload: payload.upper())
        results = pool.run([b"a", b"b", b"c"], workers=4)
    """

    def __init__(self, account: EmulatorAccount, config: TaskPoolConfig,
                 handler: Callable[[bytes], Optional[bytes]]) -> None:
        self.account = account
        self.config = config
        self.handler = handler

        def handle(ctx, payload):
            return handler(payload)
            yield  # pragma: no cover -- marks this as a generator function

        self._app = TaskPoolApp(config, handle)
        self.results: List[TaskResult] = self._app.results
        self.processed_per_worker: List[int] = []

    def run(self, tasks: Sequence[bytes], *, workers: int = 4,
            poll_interval: float = 0.05) -> List[TaskResult]:
        """Submit tasks, run worker threads to completion, collect results.

        The first exception out of any role is re-raised here, once every
        worker thread has stopped.  A failed worker fails the web role at
        its next sleep, and a failed web role retires the workers (they
        leave between tasks), so no thread is left polling a stop queue
        nobody will write.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        env = ThreadedEnv(self.account.state.clock.now, 1.0)
        account = ShimAccount(self.account, env)

        def context(role_name: str, role_id: int) -> RoleContext:
            return RoleContext(env, role_id, workers, account, SMALL,
                               role_name)

        contexts = [context("workers", w) for w in range(workers)]
        worker_body = self._app.worker_role_body()
        failures: List[BaseException] = []

        def work(ctx: RoleContext) -> None:
            try:
                self.processed_per_worker.append(exhaust(worker_body(ctx)))
            except BaseException as exc:  # re-raised by run() after join
                failures.append(exc)

        def until_failure(body):
            for sleep in body:
                if failures:
                    raise failures[0]
                yield sleep

        threads = [threading.Thread(target=work, args=(ctx,),
                                    name=f"taskpool-worker-{ctx.role_id}")
                   for ctx in contexts]
        for t in threads:
            t.start()
        try:
            exhaust(until_failure(self._app.web_role_body(
                tasks, poll_interval=poll_interval)(context("web", 0))))
        except BaseException:
            for ctx in contexts:
                ctx.retire_requested = True
            raise
        finally:
            for t in threads:
                t.join()
        if failures:
            raise failures[0]
        return list(self.results)
