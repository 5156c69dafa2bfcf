"""A sim client method returns the cluster's round trip, ready to start.

The generator a method returns does nothing until it is first resumed:
the op body prepares there, so a data-plane error fails the process at
its start event, before any time or pipeline charge, and not at the call.
"""

import pytest

from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage.errors import QueueNotFoundError


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def account(env):
    return SimStorageAccount(env, seed=3)


def test_a_prepare_error_fails_the_process_at_its_start(env, account):
    trip = account.queue_client().get_message("missing")  # raises nothing
    process = env.process(trip)
    assert env.events_processed == 0
    with pytest.raises(QueueNotFoundError):
        env.run()
    assert process.ok is False
    assert isinstance(process.value, QueueNotFoundError)
    assert env.now == 0
    # The op never reached the pipeline or a partition server.
    assert len(account.cluster.queue_servers) == 0


def test_a_started_round_trip_returns_the_body_result(env, account):
    qc = account.queue_client()
    account.state.queues.create_queue("jobs")
    put = env.process(qc.put_message("jobs", b"hello"))
    env.run()
    assert put.ok is True
    assert put.value.message_id
    assert env.now > 0
    got = env.process(qc.get_message("jobs"))
    env.run()
    assert got.value.content.to_bytes() == b"hello"
    server = account.cluster.queue_servers.server_for("jobs")
    assert server.ops_served == 2


def test_an_unstarted_round_trip_changes_nothing(env, account):
    account.state.queues.create_queue("jobs")
    account.queue_client().put_message("jobs", b"never sent")
    env.run()
    assert account.state.queues.get_queue("jobs").approximate_message_count() == 0
    assert len(account.cluster.queue_servers) == 0
