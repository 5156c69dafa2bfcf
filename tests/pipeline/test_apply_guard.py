"""One apply guard on every host: a body yields its descriptor once.

:meth:`~repro.pipeline.registry.OpSpec.apply` resumes a prepared body
into its apply step.  A body that yields again is a registry bug; a sim
client, an emulator client and a data node each report it as a
``RuntimeError`` naming the op, and nothing past the second yield runs.
"""

import asyncio

import pytest

from repro.cluster.ops import OpDescriptor, OpKind, Service
from repro.emulator import EmulatorAccount
from repro.emulator.clients import _EmulatorClientBase
from repro.pipeline import (
    OPERATIONS,
    OpSpec,
    blocking_method,
    derive_client_class,
    sim_method,
)
from repro.service import DataNode, DataNodeClient
from repro.service.sharedkey import DEV_ACCOUNT
from repro.sim import SimStorageAccount
from repro.sim.clients import _SimClientBase
from repro.simkit import Environment
from repro.storage import ManualClock

MESSAGE = "operation body 'create_twice' yielded more than once"


def create_twice(call, name):
    desc = OpDescriptor(Service.QUEUE, OpKind.CREATE_QUEUE, partition=name)
    yield desc
    yield desc
    call.state.queues.create_queue(name)  # pragma: no cover - never runs


@pytest.fixture(autouse=True)
def registered(monkeypatch):
    monkeypatch.setitem(OPERATIONS["queue"], "create_twice",
                        OpSpec("queue", "create_twice", create_twice))


def test_a_sim_client_refuses_a_second_yield():
    client_class = derive_client_class(
        "TwiceSimClient", "queue", _SimClientBase, method_factory=sim_method)
    env = Environment()
    account = SimStorageAccount(env)
    client = client_class(account)
    caught = []

    def driver():
        try:
            yield from client.create_twice("twiceq")
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(driver())
    env.run()
    assert caught == [MESSAGE]
    assert "twiceq" not in account.state.queues.queues


def test_an_emulator_client_refuses_a_second_yield():
    client_class = derive_client_class(
        "TwiceEmulatorClient", "queue", _EmulatorClientBase,
        method_factory=blocking_method)
    account = EmulatorAccount(clock=ManualClock())
    with pytest.raises(RuntimeError, match=MESSAGE):
        client_class(account).create_twice("twiceq")
    assert "twiceq" not in account.state.queues.queues


def test_a_data_node_refuses_a_second_yield():
    async def main():
        node = DataNode(0, [DEV_ACCOUNT])
        client = DataNodeClient(*await node.start())
        with pytest.raises(RuntimeError, match=MESSAGE):
            await client.call(DEV_ACCOUNT, "queue", "create_twice",
                              ("twiceq",), {})
        return node._shards[DEV_ACCOUNT].state

    state = asyncio.run(main())
    assert "twiceq" not in state.queues.queues
