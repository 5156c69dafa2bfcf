"""Emulator parity: faults, throttles, and analytics through the pipeline.

The refactor's payoff — the emulator gains every cross-cutting concern the
simulator had, with no sim-only code paths.  Fault windows fire on the
account's (wall or manual) clock; throttling is opt-in; Storage Analytics
and the resilience summary aggregate identically on both backends.
"""

import pytest

from repro.emulator import EmulatorAccount
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage import ManualClock
from repro.storage.analytics import attach_analytics, resilience_summary
from repro.storage.errors import (
    OperationTimedOutError,
    ServerBusyError,
    TransientServerError,
)


def throttles(metrics) -> int:
    """The 503s Storage Analytics counted, over every service."""
    return sum(metrics.service_totals(service).total_throttles
               for service in metrics.services())


class TestEmulatorFaultPlan:
    def test_outage_window_fires_on_manual_clock(self):
        clock = ManualClock()
        account = EmulatorAccount(clock=clock)
        _, metrics = attach_analytics(account)
        account.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.OUTAGE, service="queue",
                      start=10.0, duration=5.0),
        ]))
        queue = account.queue_client()
        queue.create_queue("que")  # t=0: before the window, succeeds
        clock.set(12.0)  # inside the window
        with pytest.raises(ServerBusyError):
            queue.put_message("que", b"x")
        assert throttles(metrics) == 1
        clock.set(20.0)  # window closed: service recovered
        queue.put_message("que", b"x")
        assert len(account.fault_plan.events) == 1

    def test_a_transient_500_is_not_a_throttle(self):
        clock = ManualClock()
        account = EmulatorAccount(clock=clock)
        _, metrics = attach_analytics(account)
        account.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.TRANSIENT_ERROR, service="table"),
        ]))
        table = account.table_client()
        with pytest.raises(TransientServerError):
            table.create_table("Tab")
        totals = metrics.service_totals("table")
        assert totals.total_errors == 1
        assert totals.total_throttles == 0

    def test_timeout_burns_budget_on_the_account_clock(self):
        clock = ManualClock()
        account = EmulatorAccount(clock=clock)
        account.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.TIMEOUT, service="blob", timeout_after=30.0),
        ]))
        blob = account.blob_client()
        with pytest.raises(OperationTimedOutError):
            blob.create_container("cont")
        # ManualClock.advance consumed the 30 s budget without sleeping
        assert clock.now() == pytest.approx(30.0)
        assert account.fault_plan.counts[FaultKind.TIMEOUT] == 1
        # the doomed request never applied its data-plane change
        assert account.state.blobs.list_containers() == []

    def test_partition_crash_hits_named_partition_only(self):
        clock = ManualClock()
        account = EmulatorAccount(clock=clock)
        account.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.PARTITION_CRASH, service="queue",
                      partition="hot", start=0.0, failover_delay=5.0),
        ]))
        queue = account.queue_client()
        queue.create_queue("cold")  # different partition: unaffected
        with pytest.raises(ServerBusyError):
            queue.create_queue("hot")
        clock.set(6.0)  # failover window over: the range recovered
        queue.create_queue("hot")

    def test_message_loss_fires_on_emulator(self):
        clock = ManualClock()
        account = EmulatorAccount(clock=clock)
        account.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.MESSAGE_LOSS, service="queue",
                      partition="que", probability=1.0),
        ]))
        queue = account.queue_client()
        queue.create_queue("que")
        queue.put_message("que", b"doomed")  # acked, silently dropped
        assert queue.get_message_count("que") == 0
        assert account.fault_plan.counts[FaultKind.MESSAGE_LOSS] == 1


class TestEmulatorThrottling:
    def test_targets_not_enforced_by_default(self):
        account = EmulatorAccount(clock=ManualClock())
        _, metrics = attach_analytics(account)
        queue = account.queue_client()
        queue.create_queue("que")
        for i in range(600):  # > 500 msg/s, all at t=0
            queue.put_message("que", b"x")
        assert throttles(metrics) == 0

    def test_per_queue_target_enforced_when_opted_in(self):
        account = EmulatorAccount(clock=ManualClock(), enforce_targets=True)
        _, metrics = attach_analytics(account)
        queue = account.queue_client()
        queue.create_queue("que")
        rejected = 0
        for i in range(510):
            try:
                queue.put_message("que", b"x")
            except ServerBusyError:
                rejected += 1
        assert rejected > 0
        assert throttles(metrics) == rejected

    def test_account_transaction_target_enforced(self):
        from repro.storage.limits import LIMITS_2012
        import dataclasses
        tiny = dataclasses.replace(LIMITS_2012,
                                   account_transactions_per_second=10)
        account = EmulatorAccount(clock=ManualClock(), limits=tiny,
                                  enforce_targets=True)
        blob = account.blob_client()
        blob.create_container("cont")
        with pytest.raises(ServerBusyError):
            for i in range(20):
                blob.upload_blob("cont", f"bb{i}", b"x")


class TestAnalyticsParity:
    def _drive_emulator(self):
        account = EmulatorAccount(clock=ManualClock())
        log, metrics = attach_analytics(account)
        account.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.OUTAGE, service="queue", partition="bad"),
        ]))
        queue = account.queue_client()
        queue.create_queue("que")
        queue.put_message("que", b"payload")
        with pytest.raises(ServerBusyError):
            queue.put_message("bad", b"x")
        return account, log, metrics

    def test_emulator_requests_logged_with_status_codes(self):
        account, log, metrics = self._drive_emulator()
        assert [r.status_code for r in log] == [201, 201, 503]
        failure = list(log)[-1]
        assert failure.error_code == "ServerBusy"
        assert failure.server_latency == 0.0

    def test_resilience_summary_aggregates_both_backends(self):
        # emulator side
        account, _, emu_metrics = self._drive_emulator()
        emu = resilience_summary(emu_metrics, plan=account.fault_plan)
        assert emu.faults_injected == {"outage": 1}
        assert 0.0 < emu.availability["queue"] < 1.0

        # sim side: same workload shape through the DES pipeline
        env = Environment()
        sim_account = SimStorageAccount(env)
        _, sim_metrics = attach_analytics(sim_account.cluster)
        sim_account.cluster.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.OUTAGE, service="queue", partition="bad"),
        ]))

        def driver():
            queue = sim_account.queue_client()
            yield from queue.create_queue("que")
            yield from queue.put_message("que", b"payload")
            try:
                yield from queue.put_message("bad", b"x")
            except ServerBusyError:
                pass

        env.process(driver())
        env.run()
        sim = resilience_summary(sim_metrics,
                                 plan=sim_account.cluster.fault_plan)
        assert sim.faults_injected == emu.faults_injected
        assert sim.availability == emu.availability

    def test_attach_analytics_accepts_sim_account_directly(self):
        env = Environment()
        account = SimStorageAccount(env)
        log, _ = attach_analytics(account)  # via the .pipeline property

        def driver():
            yield from account.blob_client().create_container("cont")

        env.process(driver())
        env.run()
        assert [r.operation for r in log] == ["create_container"]
        record = next(iter(log))
        assert record.server_latency > 0.0
        assert record.end_to_end_latency > record.server_latency
