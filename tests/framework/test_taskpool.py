"""Tests for the generic bag-of-tasks framework (paper Section III)."""

import pytest

from repro.compute import Fabric, RoleStatus
from repro.framework import TaskPoolApp, TaskPoolConfig
from repro.sim import SimStorageAccount
from repro.simkit import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def account(env):
    return SimStorageAccount(env, seed=9)


def square_handler(ctx, payload):
    n = int(payload.decode())
    yield ctx.sleep(0.01)
    return str(n * n).encode()


class TestTaskPool:
    def test_all_tasks_processed(self, env, account):
        fabric = Fabric(env, account)
        app = TaskPoolApp(TaskPoolConfig(name="sq"), square_handler)
        tasks = [str(i).encode() for i in range(12)]
        fabric.deploy(app.web_role_body(tasks), instances=1, name="web")
        fabric.deploy(app.worker_role_body(), instances=3, name="workers")
        results = fabric.run_all()
        assert sorted(int(r.payload) for r in app.results) == \
            sorted(i * i for i in range(12))
        assert sum(results["workers"]) == 12
        assert app.tasks_submitted == 12

    def test_progress_reported(self, env, account):
        fabric = Fabric(env, account)
        app = TaskPoolApp(TaskPoolConfig(name="sq"), square_handler)
        fabric.deploy(app.web_role_body([b"1", b"2"]), instances=1, name="web")
        fabric.deploy(app.worker_role_body(), instances=1, name="workers")
        fabric.run_all()
        counts = [c for _, c in app.progress]
        assert counts[-1] >= 2
        assert counts == sorted(counts)  # progress is monotone

    def test_multiple_task_queues(self, env, account):
        fabric = Fabric(env, account)
        app = TaskPoolApp(TaskPoolConfig(name="sq", task_queues=3),
                          square_handler)
        tasks = [str(i).encode() for i in range(9)]
        fabric.deploy(app.web_role_body(tasks), instances=1, name="web")
        fabric.deploy(app.worker_role_body(), instances=3, name="workers")
        fabric.run_all()
        assert len(app.results) == 9

    def test_workers_exit_on_stop_signal(self, env, account):
        fabric = Fabric(env, account)
        app = TaskPoolApp(TaskPoolConfig(name="sq"), square_handler)
        fabric.deploy(app.web_role_body([b"1"]), instances=1, name="web")
        workers = fabric.deploy(app.worker_role_body(), instances=4,
                                name="workers")
        fabric.run_all()
        assert all(s is RoleStatus.COMPLETED for s in workers.statuses())

    def test_no_result_collection(self, env, account):
        side_effects = []

        def handler(ctx, payload):
            side_effects.append(payload)
            yield ctx.sleep(0)
            return None

        fabric = Fabric(env, account)
        app = TaskPoolApp(TaskPoolConfig(name="fx", collect_results=False),
                          handler)
        fabric.deploy(app.web_role_body([b"a", b"b"]), instances=1, name="web")
        fabric.deploy(app.worker_role_body(), instances=2, name="workers")
        fabric.run_all()
        assert sorted(side_effects) == [b"a", b"b"]
        assert app.results == []

    def test_fault_tolerance_crashed_worker(self, env, account):
        """A worker that crashes mid-task never deletes its message; the
        message reappears after the visibility timeout and another worker
        finishes the job (the paper's "in-built fault tolerance")."""
        fabric = Fabric(env, account)
        config = TaskPoolConfig(name="ft", visibility_timeout=20.0,
                                idle_poll_interval=0.5)

        def slow_handler(ctx, payload):
            yield ctx.sleep(5.0)
            return payload.upper()

        app = TaskPoolApp(config, slow_handler)
        tasks = [b"a", b"b", b"c", b"d"]
        fabric.deploy(app.web_role_body(tasks, poll_interval=0.5),
                      instances=1, name="web")
        workers = fabric.deploy(app.worker_role_body(), instances=2,
                                name="workers")
        fabric.start_all()

        def chaos(env):
            # Let worker 0 grab a task, then kill it mid-processing.
            yield env.timeout(2.0)
            workers.fail_instance(0, cause="vm recycled")

        env.process(chaos(env))
        env.run()
        # Every task completed despite the crash (the victim's task was
        # re-delivered); results may contain a duplicate only if the victim
        # had already reported, which it had not.
        payloads = sorted(r.payload for r in app.results)
        assert payloads == [b"A", b"B", b"C", b"D"]
        assert workers.instances[0].status is RoleStatus.FAILED

    def test_task_order_not_guaranteed_with_jitter(self, env):
        """With the non-FIFO queue model, completion order can differ from
        submission order — the hazard the paper's framework designs around."""
        account = SimStorageAccount(env, seed=1, fifo_jitter_seed=3)
        fabric = Fabric(env, account)

        def echo(ctx, payload):
            yield ctx.sleep(0.001)
            return payload

        app = TaskPoolApp(TaskPoolConfig(name="ord"), echo)
        tasks = [str(i).encode() for i in range(10)]
        fabric.deploy(app.web_role_body(tasks), instances=1, name="web")
        fabric.deploy(app.worker_role_body(), instances=1, name="workers")
        fabric.run_all()
        assert sorted(r.payload for r in app.results) == sorted(tasks)


class TestTaskPoolConfig:
    def test_queue_names(self):
        c = TaskPoolConfig(name="myapp", task_queues=2)
        assert c.task_queue_name(0) == "myapp-tasks-0"
        assert c.task_queue_name(1) == "myapp-tasks-1"
        assert c.termination_queue_name == "myapp-termination"
        assert c.results_queue_name == "myapp-results"
        assert c.stop_queue_name == "myapp-stop"
