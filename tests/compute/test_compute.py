"""Unit tests for the compute substrate: VM sizes, roles, deployments."""

import pytest

from repro.compute import (
    Deployment,
    EXTRA_LARGE,
    EXTRA_SMALL,
    Fabric,
    LARGE,
    MEDIUM,
    RoleStatus,
    SMALL,
    TABLE_I,
)
from repro.sim import SimStorageAccount
from repro.simkit import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def account(env):
    return SimStorageAccount(env, seed=1)


class TestVMSizes:
    def test_table_i_rows(self):
        assert [v.name for v in TABLE_I] == [
            "Extra Small", "Small", "Medium", "Large", "Extra Large"]

    def test_paper_values(self):
        assert EXTRA_SMALL.cores_display == "Shared"
        assert EXTRA_SMALL.memory_display == "768MB"
        assert SMALL.cpu_cores == 1 and SMALL.storage_gb == 225
        assert MEDIUM.memory_display == "3.5 GB"
        assert LARGE.cpu_cores == 4 and LARGE.memory_display == "7 GB"
        assert EXTRA_LARGE.memory_display == "14 GB"
        assert EXTRA_LARGE.storage_gb == 2040

    def test_nic_bandwidth(self):
        assert SMALL.nic_bytes_per_second == 100 * 1_000_000 / 8


class TestDeployment:
    def test_runs_all_instances(self, env, account):
        def body(ctx):
            yield ctx.sleep(ctx.role_id + 1)
            return ctx.role_id * 10

        d = Deployment(env, account, body, instances=4, name="w")
        results = d.run()
        assert results == [0, 10, 20, 30]
        assert d.completed
        assert env.now == 4

    def test_role_context_fields(self, env, account):
        seen = []

        def body(ctx):
            seen.append((ctx.role_id, ctx.instance_count, ctx.role_name,
                         ctx.vm_size.name))
            yield ctx.sleep(0)

        Deployment(env, account, body, instances=3, name="myrole").run()
        assert seen == [(0, 3, "myrole", "Small"),
                        (1, 3, "myrole", "Small"),
                        (2, 3, "myrole", "Small")]

    def test_instances_validation(self, env, account):
        with pytest.raises(ValueError):
            Deployment(env, account, lambda ctx: iter(()), instances=0)

    def test_start_idempotent(self, env, account):
        def body(ctx):
            yield ctx.sleep(1)

        d = Deployment(env, account, body, instances=2)
        d.start()
        d.start()  # no double launch
        env.run()
        assert d.completed

    def test_fail_instance(self, env, account):
        def body(ctx):
            yield ctx.sleep(100)
            return "finished"

        d = Deployment(env, account, body, instances=2)
        d.start()

        def killer(env):
            yield env.timeout(5)
            d.fail_instance(0, cause="chaos")

        env.process(killer(env))
        env.run()
        assert d.instances[0].status is RoleStatus.FAILED
        assert d.instances[1].status is RoleStatus.COMPLETED
        assert d.failed_instances == [d.instances[0]]

    def test_restart_after_failure(self, env, account):
        attempts = []

        def body(ctx):
            attempts.append(ctx.now)
            yield ctx.sleep(10)
            return "done"

        d = Deployment(env, account, body, instances=1)
        d.start()

        def chaos(env):
            yield env.timeout(2)
            d.fail_instance(0)
            yield env.timeout(1)
            d.restart_instance(0)

        env.process(chaos(env))
        env.run()
        inst = d.instances[0]
        assert inst.status is RoleStatus.COMPLETED
        assert inst.restarts == 1
        assert len(attempts) == 2

    def test_failing_body_exception_propagates(self, env, account):
        def body(ctx):
            yield ctx.sleep(1)
            raise ValueError("app bug")

        d = Deployment(env, account, body, instances=1)
        d.start()
        with pytest.raises(ValueError, match="app bug"):
            env.run()
        assert d.instances[0].status is RoleStatus.FAILED


class TestFabric:
    def test_multiple_deployments(self, env, account):
        fabric = Fabric(env, account)

        def web(ctx):
            yield ctx.sleep(1)
            return "web done"

        def worker(ctx):
            yield ctx.sleep(2)
            return f"worker {ctx.role_id}"

        fabric.deploy(web, instances=1, name="web")
        fabric.deploy(worker, instances=2, name="workers")
        results = fabric.run_all()
        assert results["web"] == ["web done"]
        assert results["workers"] == ["worker 0", "worker 1"]

    def test_duplicate_name_rejected(self, env, account):
        fabric = Fabric(env, account)
        fabric.deploy(lambda ctx: iter(()), instances=1, name="x")
        with pytest.raises(ValueError):
            fabric.deploy(lambda ctx: iter(()), instances=1, name="x")
