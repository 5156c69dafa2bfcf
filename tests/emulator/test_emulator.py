"""Tests for the thread-safe local emulator."""

import threading
import time

import pytest

from repro.emulator import EmulatorAccount
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.storage import MB, ManualClock
from repro.storage.errors import OperationTimedOutError
from repro.storage.table import BatchOperation


@pytest.fixture
def account():
    # A manual clock makes visibility-timeout tests deterministic.
    return EmulatorAccount(clock=ManualClock())


class TestEmulatorBlob:
    def test_block_blob_roundtrip(self, account):
        blob = account.blob_client()
        blob.create_container("cont")
        blob.put_block("cont", "bb", "b1", b"hello ")
        blob.put_block("cont", "bb", "b2", b"world")
        blob.put_block_list("cont", "bb", ["b1", "b2"])
        assert blob.download_block_blob("cont", "bb").to_bytes() == b"hello world"
        assert blob.block_count("cont", "bb") == 2
        assert blob.get_block("cont", "bb", 1).to_bytes() == b"world"

    def test_page_blob_roundtrip(self, account):
        blob = account.blob_client()
        blob.create_container("cont")
        blob.create_page_blob("cont", "pb", 1 * MB)
        blob.put_page("cont", "pb", 0, b"z" * 512)
        assert blob.get_page("cont", "pb", 0, 512).to_bytes() == b"z" * 512
        assert blob.download_page_blob("cont", "pb").size == 1 * MB

    def test_list_and_delete(self, account):
        blob = account.blob_client()
        blob.create_container("cont")
        blob.upload_blob("cont", "a", b"1")
        blob.upload_blob("cont", "b", b"2")
        assert blob.list_blobs("cont") == ["a", "b"]
        blob.delete_blob("cont", "a")
        assert blob.list_blobs("cont") == ["b"]
        blob.delete_container("cont")


class TestEmulatorQueue:
    def test_message_lifecycle(self, account):
        q = account.queue_client()
        q.create_queue("tasks")
        q.put_message("tasks", b"m")
        assert q.peek_message("tasks").content.to_bytes() == b"m"
        m = q.get_message("tasks", visibility_timeout=60)
        q.delete_message("tasks", m.message_id, m.pop_receipt)
        assert q.get_message_count("tasks") == 0
        q.delete_queue("tasks")
        assert q.list_queues() == []

    def test_visibility_with_manual_clock(self, account):
        q = account.queue_client()
        q.create_queue("tasks")
        q.put_message("tasks", b"m")
        q.get_message("tasks", visibility_timeout=30)
        assert q.get_message("tasks") is None
        account.state.clock.advance(30)
        assert q.get_message("tasks") is not None

    def test_update_message(self, account):
        q = account.queue_client()
        q.create_queue("tasks")
        q.put_message("tasks", b"old")
        m = q.get_message("tasks", visibility_timeout=60)
        q.update_message("tasks", m.message_id, m.pop_receipt, b"new",
                         visibility_timeout=0)
        assert q.peek_message("tasks").content.to_bytes() == b"new"


class TestEmulatorTable:
    def test_crud(self, account):
        t = account.table_client()
        t.create_table("Tab")
        t.insert("Tab", "p", "r", {"V": 1})
        assert t.get("Tab", "p", "r")["V"] == 1
        t.update("Tab", "p", "r", {"V": 2})
        t.merge("Tab", "p", "r", {"W": 3})
        assert t.get("Tab", "p", "r").properties() == {"V": 2, "W": 3}
        t.delete("Tab", "p", "r")
        t.delete_table("Tab")

    def test_query_interfaces(self, account):
        t = account.table_client()
        t.create_table("Tab")
        for i in range(6):
            t.insert("Tab", f"p{i % 2}", f"r{i}", {"V": i})
        res = t.query("Tab", "V ge 3")
        assert sorted(e["V"] for e in res) == [3, 4, 5]
        part = t.query_partition("Tab", "p0")
        assert [e["V"] for e in part] == [0, 2, 4]
        page = t.query("Tab", top=2)
        assert len(page) == 2 and page.continuation is not None

    def test_batch(self, account):
        t = account.table_client()
        t.create_table("Tab")
        t.execute_batch("Tab", [
            BatchOperation("insert", "p", "r1", {"V": 1}),
            BatchOperation("insert", "p", "r2", {"V": 2}),
        ])
        assert t.get("Tab", "p", "r2")["V"] == 2


class TestThreadSafety:
    def test_concurrent_queue_consumers_no_duplicates(self):
        account = EmulatorAccount()
        q = account.queue_client()
        q.create_queue("tasks")
        n = 200
        for i in range(n):
            q.put_message("tasks", f"m{i}".encode())

        got = []
        lock = threading.Lock()

        def consume():
            client = account.queue_client()
            while True:
                m = client.get_message("tasks", visibility_timeout=300)
                if m is None:
                    return
                with lock:
                    got.append(m.content.to_bytes())
                client.delete_message("tasks", m.message_id, m.pop_receipt)

        threads = [threading.Thread(target=consume) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(got) == sorted(f"m{i}".encode() for i in range(n))
        assert q.get_message_count("tasks") == 0

    def test_concurrent_table_inserts_distinct_rows(self):
        account = EmulatorAccount()
        t = account.table_client()
        t.create_table("Tab")

        def insert_rows(wid):
            client = account.table_client()
            for i in range(50):
                client.insert("Tab", f"w{wid}", f"r{i}", {"V": i})

        threads = [threading.Thread(target=insert_rows, args=(w,))
                   for w in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert account.state.tables.get_table("Tab").entity_count() == 300
        assert account.state.recompute_usage() == account.state.bytes_used

    def test_concurrent_blob_block_staging(self):
        account = EmulatorAccount()
        blob = account.blob_client()
        blob.create_container("cont")

        def stage(wid):
            client = account.blob_client()
            for i in range(20):
                client.put_block("cont", "shared", f"w{wid}-b{i:02d}",
                                 bytes([wid]) * 64)
            client.put_block_list(
                "cont", "shared", [f"w{wid}-b{i:02d}" for i in range(20)],
                merge=True)

        threads = [threading.Thread(target=stage, args=(w,)) for w in range(5)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert blob.block_count("cont", "shared") == 100
        assert blob.download_block_blob("cont", "shared").size == 100 * 64


class TestWallClockTimeout:
    def test_timeout_sleeps_its_budget_and_applies_nothing(self):
        account = EmulatorAccount()  # the default wall clock
        account.set_fault_plan(FaultPlan([
            FaultSpec(FaultKind.TIMEOUT, service="blob", timeout_after=0.05),
        ]))
        blob = account.blob_client()
        started = time.monotonic()
        with pytest.raises(OperationTimedOutError):
            blob.create_container("cont")
        assert time.monotonic() - started >= 0.05
        assert account.fault_plan.counts[FaultKind.TIMEOUT] == 1
        assert account.state.blobs.list_containers() == []


class TestEmulatorCache:
    def test_roundtrip(self, account):
        c = account.cache_client()
        c.create_cache("hot")
        c.put("hot", "k", b"value")
        assert c.get("hot", "k").to_bytes() == b"value"
        assert c.get("hot", "ghost") is None
        assert c.remove("hot", "k") is True

    def test_ttl_with_manual_clock(self, account):
        c = account.cache_client()
        c.create_cache("hot", default_ttl=50)
        c.put("hot", "k", b"v")
        account.state.clock.advance(50)
        assert c.get("hot", "k") is None

    def test_threaded_cache_access(self):
        account = EmulatorAccount()
        c = account.cache_client()
        c.create_cache("hot")

        def hammer(wid):
            client = account.cache_client()
            for i in range(100):
                client.put("hot", f"k{wid}-{i % 10}", bytes([wid]) * 32)
                client.get("hot", f"k{wid}-{i % 10}")

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = account.cache_state.get_cache("hot").stats
        assert stats.requests == 600
        assert stats.hits == 600  # every get follows its own put


class TestEmulatorTableParity:
    def test_upserts(self, account):
        t = account.table_client()
        t.create_table("Ups")
        t.insert_or_replace("Ups", "p", "r", {"A": 1})
        t.insert_or_replace("Ups", "p", "r", {"B": 2})
        assert t.get("Ups", "p", "r").properties() == {"B": 2}
        t.insert_or_merge("Ups", "p", "r", {"C": 3})
        assert t.get("Ups", "p", "r").properties() == {"B": 2, "C": 3}

    def test_select_projection(self, account):
        t = account.table_client()
        t.create_table("Sel")
        t.insert("Sel", "p", "r", {"A": 1, "B": 2})
        res = t.query("Sel", select=["A"])
        assert res.entities[0].properties() == {"A": 1}
        part = t.query_partition("Sel", "p", select=["B"])
        assert part[0].properties() == {"B": 2}
