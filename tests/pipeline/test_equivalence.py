"""Randomized cross-backend equivalence on every host of the registry.

One seeded operation sequence — including operations engineered to fail —
is pushed through the DES (sim clients inside a simkit process), the
emulator (blocking clients) and a data node (``DataNodeClient.call``).
Because all three run every op through the same registry body, the final
data-plane state AND the per-operation error classes must match exactly.
"""

import asyncio

import numpy as np
import pytest

from repro.emulator import EmulatorAccount
from repro.service import DataNode, DataNodeClient
from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage import KB, ManualClock

VIS = 3600  # visibility long enough that sim-time never re-reveals messages


def random_op_sequence(seed, n_ops=150):
    """(method, args, kwargs) tuples over all four services, ~1/3 failing."""
    rng = np.random.default_rng(seed)
    ops = [
        ("blob", "create_container", ("cont",), {}),
        ("blob", "create_page_blob", ("cont", "pb", 64 * KB), {}),
        ("queue", "create_queue", ("que",), {}),
        ("table", "create_table", ("Tab",), {}),
        ("cache", "create_cache", ("hot",), {}),
    ]
    for i in range(n_ops):
        size = int(rng.integers(1, 8)) * 64
        payload = bytes([i % 256]) * size
        kind = int(rng.integers(0, 16))
        if kind == 0:
            ops.append(("blob", "put_block", ("cont", "bb", f"b{i:04d}",
                                              payload), {}))
            ops.append(("blob", "put_block_list",
                        ("cont", "bb", [f"b{i:04d}"]), {"merge": True}))
        elif kind == 1:  # commit a block that was never staged -> error
            ops.append(("blob", "put_block_list",
                        ("cont", "bb", [f"missing{i}"]), {"merge": True}))
        elif kind == 2:
            offset = (i * 512) % (64 * KB - 512)
            ops.append(("blob", "put_page",
                        ("cont", "pb", offset - offset % 512,
                         payload[:512].ljust(512, b"\0")), {}))
        elif kind == 3:  # unaligned page write -> error
            ops.append(("blob", "put_page", ("cont", "pb", 7, payload), {}))
        elif kind == 4:  # download a blob that may not exist yet
            ops.append(("blob", "download_block_blob", ("cont", "bb"), {}))
        elif kind == 5:  # container that was never created -> error
            ops.append(("blob", "upload_blob", ("nope", "bb", payload), {}))
        elif kind == 6:
            ops.append(("queue", "put_message", ("que", payload), {}))
        elif kind == 7:
            ops.append(("queue", "get_message", ("que",),
                        {"visibility_timeout": VIS}))
        elif kind == 8:  # queue that was never created -> error
            ops.append(("queue", "put_message", ("ghost", payload), {}))
        elif kind == 9:  # bogus receipt -> error
            ops.append(("queue", "delete_message",
                        ("que", f"id{i}", "bad-receipt"), {}))
        elif kind == 10:
            ops.append(("table", "insert",
                        ("Tab", "p", f"r{i % 20:04d}", {"Data": payload}),
                        {}))  # duplicates of r#### -> error
        elif kind == 11:
            ops.append(("table", "update",
                        ("Tab", "p", f"r{i % 20:04d}", {"Data": payload}),
                        {}))  # missing rows -> error
        elif kind == 12:
            ops.append(("table", "get", ("Tab", "p", f"r{i % 20:04d}"), {}))
        elif kind == 13:
            ops.append(("table", "query_partition", ("Tab", "p"), {}))
        elif kind == 14:
            ops.append(("cache", "put", ("hot", f"k{i % 10}", payload), {}))
        else:
            ops.append(("cache", "get", ("hot", f"k{i % 10}"), {}))
    return ops


def run_on_sim(ops, instrument=None):
    env = Environment()
    account = SimStorageAccount(env, seed=0)
    if instrument is not None:
        instrument(account)
    outcomes = []

    def driver():
        clients = {kind: getattr(account, f"{kind}_client")()
                   for kind in ("blob", "queue", "table", "cache")}
        for kind, method, args, kwargs in ops:
            try:
                yield from getattr(clients[kind], method)(*args, **kwargs)
            except Exception as exc:
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append(None)

    env.process(driver())
    env.run()
    return account.state, account.cache_state, outcomes


def run_on_emulator(ops, instrument=None):
    account = EmulatorAccount(clock=ManualClock())
    if instrument is not None:
        instrument(account)
    outcomes = []
    clients = {kind: getattr(account, f"{kind}_client")()
               for kind in ("blob", "queue", "table", "cache")}
    for kind, method, args, kwargs in ops:
        try:
            getattr(clients[kind], method)(*args, **kwargs)
        except Exception as exc:
            outcomes.append(type(exc).__name__)
        else:
            outcomes.append(None)
    return account.state, account.cache_state, outcomes


def run_on_data_node(ops):
    """The same ops through ``DataNodeClient.call`` on one data node."""
    async def main():
        node = DataNode(0, ["acct"])
        client = DataNodeClient(*await node.start())
        outcomes = []
        for kind, method, args, kwargs in ops:
            try:
                await client.call("acct", kind, method, args, kwargs)
            except Exception as exc:
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append(None)
        await node.stop()
        return node._shards["acct"], outcomes

    shard, outcomes = asyncio.run(main())
    return shard.state, shard.cache_state, outcomes


def fingerprint(state, cache_state):
    cont = state.blobs.get_container("cont")
    blobs = {}
    for name in cont.list_blobs():
        b = cont.get_blob(name)
        data = b.download() if hasattr(b, "download") else b.read_all()
        blobs[name] = data.to_bytes()
    queue = state.queues.get_queue("que")
    messages = sorted(m.content.to_bytes() for m in queue._messages)
    table = state.tables.get_table("Tab")
    entities = {
        (e.partition_key, e.row_key): e.properties()["Data"]
        for pk in table.partitions()
        for e in table.query_partition(pk)
    }
    cache = cache_state.get_cache("hot")
    cached = {key: cache._items[key].value.to_bytes()
              for key in sorted(cache._items)}
    return blobs, messages, entities, cached


@pytest.mark.parametrize("seed", [11, 29, 47, 83])
def test_same_state_and_same_errors_on_both_executors(seed):
    ops = random_op_sequence(seed)
    sim_state, sim_cache, sim_outcomes = run_on_sim(ops)
    emu_state, emu_cache, emu_outcomes = run_on_emulator(ops)
    # some ops must actually have failed for this test to mean anything
    assert any(o is not None for o in sim_outcomes)
    assert sim_outcomes == emu_outcomes
    assert fingerprint(sim_state, sim_cache) == fingerprint(emu_state,
                                                            emu_cache)
    dn_state, dn_cache, dn_outcomes = run_on_data_node(ops)
    assert dn_outcomes == sim_outcomes
    assert fingerprint(dn_state, dn_cache) == fingerprint(sim_state,
                                                          sim_cache)


@pytest.mark.parametrize("seed", [11, 47])
def test_same_span_stream_on_both_executors(seed):
    """Tracing sees the same logical round trips through both executors.

    Timing differs by construction (DES cost model vs manual clock), so
    the comparison covers everything a span records *except* the clock
    fields: operation identity, target, payload size, and verdict.
    """
    from repro.observability import Tracer

    ops = random_op_sequence(seed)
    tracers = {}

    def instrument_as(key):
        def instrument(account):
            tracers[key] = Tracer(trace_id=key).install(account)
        return instrument

    _, _, sim_outcomes = run_on_sim(ops, instrument_as("sim"))
    _, _, emu_outcomes = run_on_emulator(ops, instrument_as("emulator"))
    assert sim_outcomes == emu_outcomes

    def signature(tracer):
        return [(s.service, s.operation, s.partition, s.nbytes,
                 s.status, s.error) for s in tracer.spans]

    sim_sig = signature(tracers["sim"])
    emu_sig = signature(tracers["emulator"])
    assert len(sim_sig) > 0
    assert sim_sig == emu_sig
    # Validation failures (missing container, bad receipt, ...) are raised
    # by prepare/apply and never cross the pipeline — symmetrically on both
    # backends, so the traced stream is all-ok even though outcomes aren't.
    assert {s.status for s in tracers["sim"].spans} == {"ok"}


@pytest.mark.parametrize("seed", [29])
def test_same_error_spans_under_injected_faults(seed):
    """Pipeline-level failures produce identical error spans on both backends."""
    from repro.faults import FaultKind, FaultPlan, FaultSpec
    from repro.observability import Tracer

    ops = random_op_sequence(seed)
    tracers = {}

    def instrument_as(key):
        def instrument(account):
            plan = FaultPlan([FaultSpec(kind=FaultKind.TRANSIENT_ERROR,
                                        service="table", probability=1.0)],
                             seed=3)
            target = account.cluster if hasattr(account, "cluster") else account
            target.set_fault_plan(plan)
            tracers[key] = Tracer(trace_id=key).install(account)
        return instrument

    _, _, sim_outcomes = run_on_sim(ops, instrument_as("sim"))
    _, _, emu_outcomes = run_on_emulator(ops, instrument_as("emulator"))
    assert sim_outcomes == emu_outcomes

    def signature(tracer):
        return [(s.service, s.operation, s.partition, s.nbytes,
                 s.status, s.error, s.error_code) for s in tracer.spans]

    assert signature(tracers["sim"]) == signature(tracers["emulator"])
    statuses = {s.status for s in tracers["sim"].spans}
    assert statuses == {"ok", "error"}
    # Injected transient faults carry their verdict on the error span.
    for tracer in tracers.values():
        error_spans = [s for s in tracer.spans if not s.ok]
        assert error_spans
        assert all(s.fault == "transient_error" for s in error_spans)
        assert all(s.fault == "" for s in tracer.spans if s.ok)


@pytest.mark.parametrize("seed", [11])
def test_data_plane_fault_attribution_in_spans(seed):
    """Injected message loss / duplicate delivery is attributed in Span
    metadata (the fault verdict field), identically on both backends, so
    a history checker can tell injected anomalies from genuine bugs."""
    from repro.faults import FaultKind, FaultPlan, FaultSpec
    from repro.observability import Tracer

    ops = random_op_sequence(seed)
    tracers = {}

    def instrument_as(key):
        def instrument(account):
            # Loss at p=0.5 so some puts still land and the gets have
            # messages to duplicate; the plan's RNG draw sequence is
            # identical on both backends (same op order, same seed).
            plan = FaultPlan([
                FaultSpec(kind=FaultKind.MESSAGE_LOSS, service="queue",
                          partition="que", probability=0.5),
                FaultSpec(kind=FaultKind.DUPLICATE_DELIVERY, service="queue",
                          partition="que", probability=1.0),
            ], seed=5)
            target = account.cluster if hasattr(account, "cluster") else account
            target.set_fault_plan(plan)
            tracers[key] = Tracer(trace_id=key).install(account)
        return instrument

    _, _, sim_outcomes = run_on_sim(ops, instrument_as("sim"))
    _, _, emu_outcomes = run_on_emulator(ops, instrument_as("emulator"))
    assert sim_outcomes == emu_outcomes

    for tracer in tracers.values():
        verdicts = {(s.operation, s.fault) for s in tracer.spans if s.fault}
        # Some acked puts against "que" lost their payload; every get that
        # returned a message left it visible for another consumer.
        assert ("put_message", "message_loss") in verdicts
        assert ("get_message", "duplicate_delivery") in verdicts
        # The verdict never leaks onto unrelated operations.
        for span in tracer.spans:
            if span.fault:
                assert span.service == "queue" and span.partition == "que"
                assert span.status == "ok"
    sim_faults = [(s.operation, s.fault)
                  for s in tracers["sim"].spans if s.fault]
    emu_faults = [(s.operation, s.fault)
                  for s in tracers["emulator"].spans if s.fault]
    assert sim_faults == emu_faults
