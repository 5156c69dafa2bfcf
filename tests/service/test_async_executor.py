"""AsyncExecutor drives the same state machines as the emulator path.

``drive_operation`` is shared byte-for-byte between BlockingExecutor
(emulator threads) and AsyncExecutor (data-node event loops); these
tests run the async side against a bare shard — no sockets — including
the injected-TIMEOUT burn path, which must suspend on the event loop
(or advance a ManualClock) *after* the failure verdict is decided.
"""

import asyncio

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.pipeline import OPERATIONS, AsyncExecutor, FaultInterceptor, OpCall, Pipeline
from repro.service.datanode import _Shard
from repro.storage.clock import ManualClock
from repro.storage.content import BytesContent
from repro.storage.errors import OperationTimedOutError, QueueNotFoundError


def _run(shard, client, op, *args, **kwargs):
    spec = OPERATIONS[client][op]
    return asyncio.run(
        shard.executor.run(spec, shard.op_call, args, kwargs, worker="t"))


@pytest.fixture
def shard():
    return _Shard("testacct", clock=ManualClock())


class TestHappyPath:
    def test_queue_round_trip(self, shard):
        _run(shard, "queue", "create_queue", "jobs")
        _run(shard, "queue", "put_message", "jobs", BytesContent(b"work"))
        msg = _run(shard, "queue", "get_message", "jobs",
                   visibility_timeout=30.0)
        assert msg.content.to_bytes() == b"work"

    def test_storage_errors_propagate(self, shard):
        with pytest.raises(QueueNotFoundError):
            _run(shard, "queue", "put_message", "ghostq",
                 BytesContent(b"x"))

    def test_event_loop_serializes_mutations(self, shard):
        """Many concurrent inserts all land: ops run to completion
        between awaits, so no two mutations interleave."""
        _run(shard, "table", "create_table", "conc")
        spec = OPERATIONS["table"]["insert"]

        async def storm():
            await asyncio.gather(*[
                shard.executor.run(
                    spec, shard.op_call,
                    ("conc", "p", f"r{i}", {"i": i}), {})
                for i in range(25)
            ])

        asyncio.run(storm())
        rows = _run(shard, "table", "query_partition", "conc", "p", None)
        assert len(rows) == 25


class TestInjectedTimeouts:
    """The TIMEOUT burn, on an executor whose pipeline injects faults."""

    @pytest.fixture
    def plan(self):
        return FaultPlan([
            FaultSpec(kind=FaultKind.TIMEOUT, service="queue",
                      start=0.0, duration=1e9, probability=1.0,
                      timeout_after=7.5),
        ], seed=1)

    @staticmethod
    def _faulty(shard, plan, client, op, *args):
        executor = AsyncExecutor(shard.state, Pipeline([
            FaultInterceptor(lambda: plan, cluster=None)]))
        call = OpCall(shard.state, shard.cache_state,
                      now_fn=shard.state.clock.now, plan_fn=lambda: plan)
        return asyncio.run(executor.run(
            OPERATIONS[client][op], call, args, {}, worker="t"))

    def test_timeout_burns_budget_on_manual_clock(self, shard, plan):
        _run(shard, "queue", "create_queue", "doomed")
        before = shard.state.clock.now()
        with pytest.raises(OperationTimedOutError):
            self._faulty(shard, plan, "queue", "put_message", "doomed",
                         BytesContent(b"x"))
        # The doomed request consumed exactly its patience budget.
        assert shard.state.clock.now() - before == pytest.approx(7.5)
        assert plan.counts[FaultKind.TIMEOUT] == 1

    def test_timeout_does_not_apply_the_mutation(self, shard, plan):
        _run(shard, "queue", "create_queue", "doomed")
        with pytest.raises(OperationTimedOutError):
            self._faulty(shard, plan, "queue", "put_message", "doomed",
                         BytesContent(b"x"))
        count = _run(shard, "queue", "get_message_count", "doomed")
        assert count == 0

    def test_other_services_unaffected(self, shard, plan):
        self._faulty(shard, plan, "table", "create_table", "fine")
        self._faulty(shard, plan, "table", "insert", "fine", "p", "r",
                     {"v": 1})
        entity = self._faulty(shard, plan, "table", "get", "fine", "p", "r")
        assert entity["v"] == 1
