"""Property-based tests (hypothesis) on core storage invariants."""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.storage import (
    BytesContent,
    ManualClock,
    StorageAccountState,
)

# ---------------------------------------------------------------------------
# Page blob: arbitrary aligned writes/clears vs. a reference bytearray.
# ---------------------------------------------------------------------------

PAGE = 512
N_PAGES = 16


@st.composite
def aligned_range(draw):
    start = draw(st.integers(0, N_PAGES - 1))
    length = draw(st.integers(1, N_PAGES - start))
    return start * PAGE, length * PAGE


@given(ops=st.lists(
    st.tuples(st.sampled_from(["write", "clear"]), aligned_range(),
              st.integers(0, 255)),
    max_size=25))
@settings(max_examples=80, deadline=None)
def test_page_blob_matches_reference_bytearray(ops):
    account = StorageAccountState("propacc", ManualClock())
    container = account.blobs.create_container("props")
    blob = container.create_page_blob("pb", N_PAGES * PAGE)
    reference = bytearray(N_PAGES * PAGE)

    for kind, (offset, length), fill in ops:
        if kind == "write":
            data = bytes([fill]) * length
            blob.put_pages(offset, BytesContent(data))
            reference[offset:offset + length] = data
        else:
            blob.clear_pages(offset, length)
            reference[offset:offset + length] = bytes(length)

    assert blob.read_all().to_bytes() == bytes(reference)
    # Written-bytes accounting equals the interval cover it claims.
    assert blob.written_bytes == sum(e - s for s, e in blob.get_page_ranges())
    # Intervals are sorted and non-overlapping.
    ranges = blob.get_page_ranges()
    assert all(a_end <= b_start for (_, a_end), (b_start, _)
               in zip(ranges, ranges[1:]))
    # Account usage stays consistent with a full recount.
    assert account.bytes_used == account.recompute_usage()


# ---------------------------------------------------------------------------
# Block blob: commits vs. a reference model of (id -> bytes) plus order.
# ---------------------------------------------------------------------------

@given(
    stages=st.lists(
        st.tuples(st.integers(0, 7), st.binary(min_size=1, max_size=16)),
        min_size=1, max_size=20),
    commit_ids=st.lists(st.integers(0, 7), min_size=1, max_size=8,
                        unique=True),
)
@settings(max_examples=80, deadline=None)
def test_block_blob_commit_reflects_latest_stage(stages, commit_ids):
    account = StorageAccountState("propacc", ManualClock())
    container = account.blobs.create_container("props")
    blob = container.create_block_blob("bb")
    latest = {}
    for bid, data in stages:
        blob.put_block(f"b{bid}", data)
        latest[bid] = data

    commit_ids = [c for c in commit_ids if c in latest]
    if not commit_ids:
        return
    blob.put_block_list([f"b{c}" for c in commit_ids])
    expected = b"".join(latest[c] for c in commit_ids)
    assert blob.download().to_bytes() == expected
    assert blob.size == len(expected)
    assert account.bytes_used == account.recompute_usage()


# ---------------------------------------------------------------------------
# Queue: conservation — every put is eventually gotten exactly once when
# consumers delete within the visibility timeout; nothing is lost, nothing
# is duplicated.
# ---------------------------------------------------------------------------

@given(payloads=st.lists(st.binary(min_size=1, max_size=32),
                         min_size=1, max_size=40),
       jitter_seed=st.one_of(st.none(), st.integers(0, 2**16)))
@settings(max_examples=60, deadline=None)
def test_queue_conservation_with_prompt_delete(payloads, jitter_seed):
    clock = ManualClock()
    account = StorageAccountState("propacc", clock,
                                  fifo_jitter_seed=jitter_seed)
    q = account.queues.create_queue("props")
    for p in payloads:
        q.put_message(p)
    got = []
    while True:
        m = q.get_message(visibility_timeout=1000)
        if m is None:
            break
        got.append(m.content.to_bytes())
        q.delete_message(m.message_id, m.pop_receipt)
    assert sorted(got) == sorted(payloads)
    assert q.approximate_message_count() == 0
    assert account.bytes_used == account.recompute_usage() == 0


@given(payloads=st.lists(st.binary(min_size=1, max_size=16),
                         min_size=1, max_size=20),
       crash_after=st.integers(0, 19))
@settings(max_examples=40, deadline=None)
def test_queue_at_least_once_after_consumer_crash(payloads, crash_after):
    """A consumer that gets-but-never-deletes loses nothing: all messages
    are still consumable after the visibility timeout."""
    clock = ManualClock()
    account = StorageAccountState("propacc", clock)
    q = account.queues.create_queue("props")
    for p in payloads:
        q.put_message(p)

    # Crashing consumer: gets some messages, deletes none.
    for _ in range(min(crash_after, len(payloads))):
        q.get_message(visibility_timeout=60)

    clock.advance(60)  # all invisibility lapses

    survivors = []
    while True:
        m = q.get_message(visibility_timeout=1000)
        if m is None:
            break
        survivors.append(m.content.to_bytes())
        q.delete_message(m.message_id, m.pop_receipt)
    assert sorted(survivors) == sorted(payloads)


# ---------------------------------------------------------------------------
# Table: upsert algebra — insert_or_replace/insert_or_merge vs a dict model.
# ---------------------------------------------------------------------------

_prop_names = st.sampled_from(["A", "B", "C", "D"])
_prop_values = st.one_of(st.integers(-100, 100), st.text(max_size=5),
                         st.booleans())
_prop_bags = st.dictionaries(_prop_names, _prop_values, max_size=4)


@given(ops=st.lists(
    st.tuples(st.sampled_from(["replace", "merge", "delete"]),
              st.sampled_from(["r1", "r2"]), _prop_bags),
    max_size=30))
@settings(max_examples=80, deadline=None)
def test_table_upsert_algebra_matches_dict_model(ops):
    account = StorageAccountState("propacc", ManualClock())
    table = account.tables.create_table("Props")
    model = {}

    for kind, rk, bag in ops:
        if kind == "replace":
            table.insert_or_replace("p", rk, bag)
            model[rk] = dict(bag)
        elif kind == "merge":
            table.insert_or_merge("p", rk, bag)
            model.setdefault(rk, {}).update(bag)
        else:
            if rk in model:
                table.delete("p", rk)
                del model[rk]

    assert table.entity_count() == len(model)
    for rk, bag in model.items():
        assert table.get("p", rk).properties() == bag
    assert account.bytes_used == account.recompute_usage()


# ---------------------------------------------------------------------------
# Stateful test: account usage accounting never drifts across mixed ops.
# ---------------------------------------------------------------------------

class AccountUsageMachine(RuleBasedStateMachine):
    """Random interleavings of ops across all three services must keep the
    incremental usage counter equal to a full recount."""

    def __init__(self):
        super().__init__()
        self.clock = ManualClock()
        self.account = StorageAccountState("statemach", self.clock)
        self.container = self.account.blobs.create_container("cont")
        self.queue = self.account.queues.create_queue("que")
        self.table = self.account.tables.create_table("Tab")
        self.blob_counter = 0
        self.row_counter = 0
        self.receipts: List = []

    @rule(data=st.binary(min_size=1, max_size=64))
    def upload_blob(self, data):
        name = f"b{self.blob_counter}"
        self.blob_counter += 1
        blob = self.container.create_block_blob(name)
        blob.upload(BytesContent(data))

    @rule()
    def delete_some_blob(self):
        blobs = self.container.list_blobs()
        if blobs:
            self.container.delete_blob(blobs[0])

    @rule(data=st.binary(min_size=1, max_size=64))
    def put_msg(self, data):
        self.queue.put_message(data, ttl=1000)

    @rule()
    def get_and_delete_msg(self):
        m = self.queue.get_message(visibility_timeout=10)
        if m is not None:
            self.queue.delete_message(m.message_id, m.pop_receipt)

    @rule(dt=st.floats(0.1, 2000))
    def advance_clock(self, dt):
        self.clock.advance(dt)
        self.queue.approximate_message_count()  # force a purge pass

    @rule(data=st.binary(min_size=1, max_size=64))
    def upsert_row(self, data):
        rk = f"r{self.row_counter % 5}"
        self.row_counter += 1
        self.table.insert_or_replace("p", rk, {"Data": data})

    @rule()
    def delete_some_row(self):
        parts = self.table.partitions()
        if parts:
            rows = self.table.query_partition(parts[0])
            if rows:
                self.table.delete(parts[0], rows[0].row_key)

    @invariant()
    def usage_matches_recount(self):
        assert self.account.bytes_used == self.account.recompute_usage()


TestAccountUsageMachine = AccountUsageMachine.TestCase
TestAccountUsageMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None)
