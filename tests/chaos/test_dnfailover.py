"""The dn-failover chaos campaign: the loss check + end-to-end smoke.

The end-to-end run is deliberately small (a couple of wall seconds) but
real: a 3-DN R=2 cluster, open-loop load, a scheduled mid-run kill, the
schedule-derived loss check, and the determinism contract — two runs
with the same seed must emit byte-identical verdict JSON.  The check
itself is held to detecting planted losses over emulator clients.
"""

import json
import time

import pytest

from repro.chaos import run_dn_failover
from repro.faults import FaultKind
from repro.faults.profiles import get_profile
from repro.traffic import WINDOW_CSV_HEADER


class TestWorkloadBuilder:
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

        # The kill must cost every service under load a replica: the
        # crashed node holds the table partition, the queue and blobs.
        # Placement hashes f"{account}/{service}/{route key}" only, on the
        # ring the cluster's Membership builds.
        from repro.service import DEV_ACCOUNT
        from repro.service.membership import FailureDomainConfig
        from repro.service.ring import HashRing
        from repro.traffic.engine import (LOAD_CONTAINER, LOAD_PARTITION,
                                          LOAD_QUEUE)

        crash = next(spec for spec in get_profile("dn-failover").specs
                     if spec.kind is FaultKind.DN_CRASH)
        ring = HashRing(range(3), replicas=2,
                        vnodes=FailureDomainConfig.kill_test(2, 3).vnodes)
        held = {label for label in (
            f"table/{LOAD_PARTITION}", f"queue/{LOAD_QUEUE}",
            *(f"blob/{LOAD_CONTAINER}/new-{i}"
              for i in range(first.counts["scheduled_ops"])))
            if crash.node in ring.owners(f"{DEV_ACCOUNT}/{label}")}
        assert f"table/{LOAD_PARTITION}" in held
        assert f"queue/{LOAD_QUEUE}" in held
        assert any(label.startswith("blob/") for label in held)

        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == WINDOW_CSV_HEADER
        assert len(lines) > 1

        again = run_dn_failover("dn-failover", 3, **kwargs)
        assert first.to_json() == again.to_json()
        doc = json.loads(first.to_json())
        assert doc["passed"] is True
        workload = doc["schedules"][1]["workload"]
        assert workload["mix"] == "failover"
        assert workload["arrivals"] == {"process": "poisson", "rate": 5.0,
                                        "seed": 3}

    def test_a_client_bug_inside_an_op_fails_the_campaign(self, monkeypatch):
        """Not a StorageError, not the transport: an exception raised
        inside one dispatched op is a harness error carrying the partial
        verdict — not an op that was quietly "not attempted" under a
        clean zero-loss verdict — and it ends the run at once, not after
        the rest of the schedule has been released."""
        from repro.chaos.verdict import ChaosRunError
        from repro.service.client import WireTableClient

        real_insert = WireTableClient.insert
        raised = []

        def insert(self, table, partition, row, props):
            # Set-up inserts obj-* rows; only a scheduled op writes new-*.
            if row.startswith("new-") and not raised:
                raised.append(row)
                raise TypeError("client bug")
            return real_insert(self, table, partition, row, props)

        monkeypatch.setattr(WireTableClient, "insert", insert)
        started = time.monotonic()
        with pytest.raises(ChaosRunError) as crashed:
            # 20 virtual seconds at time_scale 0.25: 5 s of wall clock.
            run_dn_failover("none", 3, dn=2, replicas=1, rate=20.0,
                            duration=20.0, time_scale=0.25)
        assert time.monotonic() - started < 1.5
        assert len(raised) == 1
        assert isinstance(crashed.value.__cause__, TypeError)
        verdict = crashed.value.verdict
        assert not verdict.passed
        assert [v.checker for v in verdict.violations] == ["harness"]
        assert "TypeError: client bug" in verdict.violations[0].message


class TestLossCheck:
    """The schedule-derived check over emulator clients, no sockets."""

    def _run(self):
        from repro.traffic import LoadConfig, StatsAggregator
        from repro.traffic.arrivals import ArrivalSpec
        from repro.traffic.engine import (_emulator_client_factory,
                                          _run_wallclock)
        from repro.traffic.flock import build_flock_schedule

        config = LoadConfig(
            arrivals=ArrivalSpec(rate=40.0, seed=5), duration=2.0,
            mix="failover", payload_bytes=512, preload=8,
            backend="emulator", time_scale=0.01, max_clients=4)
        schedule = build_flock_schedule(config)
        make = _emulator_client_factory()
        outcomes, _ = _run_wallclock(
            config, schedule, StatsAggregator(config.window_s), make)
        assert outcomes and all(outcomes)
        return schedule, outcomes, make()

    def _first(self, schedule, service, op):
        return next(s for s in schedule.iter_ops()
                    if (s.service, s.op) == (service, op))

    def test_an_unplanted_run_reports_no_loss(self):
        from repro.chaos.dnfailover import _check_acked_writes

        schedule, outcomes, clients = self._run()
        assert _check_acked_writes(clients, schedule, outcomes) == []

    def test_a_row_read_back_under_another_key_is_reported(self):
        """Every row is written with the same property bag, so only its
        row key tells one acked row from another."""
        from repro.chaos.dnfailover import _check_acked_writes

        schedule, outcomes, clients = self._run()
        rows = [op.key for op in schedule.iter_ops()
                if (op.service, op.op) == ("table", "insert")]
        assert len(rows) > 1
        tc = clients["table"]
        real_get = tc.get
        # Every read is answered with the first acked row.
        tc.get = lambda table, partition, row: real_get(
            table, partition, rows[0])
        violations = _check_acked_writes(clients, schedule, outcomes)
        assert [v.checker for v in violations] == (
            ["dn-table-integrity"] * (len(rows) - 1))

    def test_planted_losses_are_each_reported(self):
        from repro.chaos.dnfailover import _check_acked_writes, _md5
        from repro.storage.content import SyntheticContent
        from repro.traffic.engine import (LOAD_CONTAINER, LOAD_PARTITION,
                                          LOAD_QUEUE, LOAD_TABLE)
        from repro.wallclock import exhaust

        schedule, outcomes, clients = self._run()
        blob = self._first(schedule, "blob", "upload")
        exhaust(clients["blob"].delete_blob(LOAD_CONTAINER, blob.key))
        row = self._first(schedule, "table", "insert")
        exhaust(clients["table"].delete(LOAD_TABLE, LOAD_PARTITION, row.key))
        # Consume messages up to the first acked put's (the set-up ones
        # ahead of it are not acked puts, so taking them loses nothing).
        put = self._first(schedule, "queue", "put")
        acked = _md5(SyntheticContent(put.nbytes, seed=put.index))
        qc = clients["queue"]
        while True:
            msg = exhaust(qc.get_message(LOAD_QUEUE))
            exhaust(qc.delete_message(LOAD_QUEUE, msg.message_id,
                                      msg.pop_receipt))
            if _md5(msg.content) == acked:
                break

        violations = _check_acked_writes(clients, schedule, outcomes)
        assert sorted(v.checker for v in violations) == [
            "dn-blob-loss", "dn-queue-loss", "dn-table-loss"]
        by_checker = {v.checker: v.message for v in violations}
        assert repr(blob.key) in by_checker["dn-blob-loss"]
        assert repr(row.key) in by_checker["dn-table-loss"]
        assert by_checker["dn-queue-loss"].startswith("1 committed")
