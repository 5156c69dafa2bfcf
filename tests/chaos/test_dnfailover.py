"""The dn-failover chaos campaign: workload builder + end-to-end smoke.

The end-to-end run is deliberately small (a couple of wall seconds) but
real: a 3-DN R=2 cluster, open-loop load, a scheduled mid-run kill, the
ledger verification, and the determinism contract — two runs with the
same seed must emit byte-identical verdict JSON.
"""

import json
import time

import pytest

from repro.chaos import build_dn_workload, run_dn_failover
from repro.chaos.dnfailover import workload_digest
from repro.faults import FaultKind
from repro.faults.profiles import get_profile


class TestWorkloadBuilder:
    def test_same_seed_same_schedule(self):
        first = build_dn_workload(7, rate=6.0, duration=20.0)
        again = build_dn_workload(7, rate=6.0, duration=20.0)
        assert first == again
        assert workload_digest(first) == workload_digest(again)

    def test_different_seeds_diverge(self):
        assert (workload_digest(build_dn_workload(1))
                != workload_digest(build_dn_workload(2)))

    def test_schedule_shape(self):
        ops = build_dn_workload(3, rate=10.0, duration=15.0)
        assert ops, "builder produced an empty schedule"
        times = [op.at for op in ops]
        assert times == sorted(times)
        assert all(0.0 <= at < 15.0 for at in times)
        kinds = {op.kind for op in ops}
        assert kinds <= {"blob.upload", "blob.download", "queue.put",
                         "table.insert", "table.get"}
        assert "blob.upload" in kinds and "queue.put" in kinds

    def test_profile_schedules_the_kill(self):
        profile = get_profile("dn-failover")
        kinds = [spec.kind for spec in profile.specs]
        assert FaultKind.DN_CRASH in kinds
        crash = profile.specs[kinds.index(FaultKind.DN_CRASH)]
        assert crash.node is not None and crash.node >= 0


class TestCampaign:
    def test_profile_node_must_fit_the_cluster(self):
        # dn-failover kills node 1; a 1-DN cluster cannot host it.
        with pytest.raises(ValueError):
            run_dn_failover("dn-failover", 0, dn=1, replicas=1)

    def test_an_op_fault_profile_is_refused_before_a_cluster_boots(
            self, monkeypatch, capsys):
        """The campaign fails whole data nodes: a profile of op-level
        faults has no node event to fail over from, so it is bad usage
        (exit 2), named on stderr, and no cluster starts."""
        from repro.cli import main
        from repro.service.cluster import ClusterRunner

        def boot(self, *args, **kwargs):
            raise AssertionError("a cluster booted")

        monkeypatch.setattr(ClusterRunner, "start", boot)
        started = time.monotonic()
        assert main(["chaos", "dnfailover", "--profile", "queue-storm",
                     "--seed", "7"]) == 2
        assert time.monotonic() - started < 5.0
        err = capsys.readouterr().err
        for kind in ("duplicate_delivery", "message_loss", "throttle",
                     "transient_error"):
            assert kind in err

    def test_zero_loss_and_deterministic_verdict(self, tmp_path):
        kwargs = dict(dn=3, replicas=2, rate=5.0, duration=20.0,
                      time_scale=0.12, window_s=2.0)
        csv_path = tmp_path / "windows.csv"
        first = run_dn_failover("dn-failover", 3,
                                windows_csv=str(csv_path), **kwargs)
        assert first.passed, [v.to_dict() for v in first.violations]
        assert first.counts["dn_crashes"] == 1
        assert first.counts["data_nodes"] == 3
        assert first.counts["replicas"] == 2
        assert first.counts["scheduled_ops"] > 0

        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("window_start_s,")
        assert len(lines) > 1

        again = run_dn_failover("dn-failover", 3, **kwargs)
        assert first.to_json() == again.to_json()
        doc = json.loads(first.to_json())
        assert doc["passed"] is True
        assert doc["schedules"][1]["op_digest"] == workload_digest(
            build_dn_workload(3, rate=5.0, duration=20.0))

    def test_a_client_bug_inside_an_op_fails_the_campaign(self, monkeypatch):
        """Not a StorageError, not the transport: an exception raised
        inside one dispatched op is a harness error carrying the partial
        verdict — not an op that was quietly "not attempted" under a
        clean zero-loss verdict."""
        from repro.chaos.verdict import ChaosRunError
        from repro.service.client import WireTableClient

        real_insert = WireTableClient.insert
        raised = []

        def insert(self, table, partition, row, props):
            # Set-up inserts warm-* rows; only a scheduled op writes row-*.
            if row.startswith("row-") and not raised:
                raised.append(row)
                raise TypeError("client bug")
            return real_insert(self, table, partition, row, props)

        monkeypatch.setattr(WireTableClient, "insert", insert)
        with pytest.raises(ChaosRunError) as crashed:
            run_dn_failover("none", 3, dn=2, replicas=1, rate=20.0,
                            duration=2.0, time_scale=0.05)
        assert len(raised) == 1
        assert isinstance(crashed.value.__cause__, TypeError)
        verdict = crashed.value.verdict
        assert not verdict.passed
        assert [v.checker for v in verdict.violations] == ["harness"]
        assert "TypeError: client bug" in verdict.violations[0].message
