"""How a role instance ends: its body is its process.

A recycled role (an :class:`Interrupt`) ends FAILED while its process
succeeds with ``None``, whichever leg of a storage round trip it was
waiting for, and the slot it held or queued for goes to the next
booking; a crash is contained or propagated as the instance says; a
body that raises :class:`StopProcess` ends FAILED as well; a body
that fails at its call fails ``start`` itself.
"""

import pytest

from repro.cluster import (
    FabricCalibration,
    OpDescriptor,
    OpKind,
    Service,
    StorageCluster,
)
from repro.compute import Deployment, RoleInstance, RoleStatus
from repro.compute.roles import RoleContext
from repro.compute.vmsizes import SMALL
from repro.sim import SimStorageAccount
from repro.simkit import Environment, Interrupt, StopProcess
from repro.storage import KB

PAYLOAD = b"x" * (4 * KB)
CAL = FabricCalibration(jitter_sigma=0.0, queue_server_slots=1)
RTT = CAL.queue_base_rtt
OCCUPANCY = StorageCluster(Environment(), calibration=CAL).server_occupancy(
    OpDescriptor(Service.QUEUE, OpKind.PUT_MESSAGE, "jobs", nbytes=len(PAYLOAD)))


def _put_pair(interrupt_at):
    """Two roles put to one single-slot queue server at t=0, role 0
    first; role 0 is recycled at ``interrupt_at``.  Returns the
    deployment and the instants the puts returned, by role id."""
    env = Environment()
    account = SimStorageAccount(env, calibration=CAL, seed=1)
    account.state.queues.create_queue("jobs")
    ends = {}

    def body(ctx):
        yield from ctx.account.queue_client().put_message("jobs", PAYLOAD)
        ends[ctx.role_id] = ctx.env.now
        return "put"

    d = Deployment(env, account, body, instances=2)
    d.start()

    def recycler():
        yield env.timeout(interrupt_at)
        d.fail_instance(0, cause="recycled")

    env.process(recycler())
    env.run()
    return d, ends


def _assert_recycled(d, ends):
    instance = d.instances[0]
    assert instance.status is RoleStatus.FAILED
    assert isinstance(instance.failure, Interrupt)
    assert instance.failure.cause == "recycled"
    assert instance.process.ok is True
    assert instance.process.value is None
    assert instance.result is None
    assert 0 not in ends
    assert d.instances[1].status is RoleStatus.COMPLETED
    assert d.instances[1].process.value == "put"
    server = d.account.cluster.queue_servers.server_for("jobs")
    assert server.ops_served == 1
    assert server.queue_length == 0
    assert d.account.state.queues.get_queue("jobs").approximate_message_count() == 1


class TestRecycledDuringARoundTrip:
    def test_during_the_request_leg(self):
        d, ends = _put_pair(interrupt_at=RTT / 4)
        _assert_recycled(d, ends)
        # Role 0 never booked: role 1 holds the slot from its arrival.
        assert ends[1] == RTT / 2 + OCCUPANCY + RTT / 2

    def test_during_the_booking(self):
        cut = RTT / 2 + OCCUPANCY / 2  # role 0's hold is half done
        d, ends = _put_pair(interrupt_at=cut)
        _assert_recycled(d, ends)
        # The cut hold hands the slot over at once: role 1's hold starts
        # at the cut, not where role 0's would have ended.
        assert ends[1] == cut + OCCUPANCY + RTT / 2
        assert ends[1] < RTT / 2 + 2 * OCCUPANCY + RTT / 2


def _instance(env, body, contain_crashes):
    context = RoleContext(env, 0, 1, None, SMALL, "worker")
    return RoleInstance(env, body, context, contain_crashes=contain_crashes)


class TestABodyThatRaises:
    @staticmethod
    def body(ctx):
        yield ctx.sleep(1)
        raise ValueError("app bug")

    def test_contained(self):
        env = Environment()
        instance = _instance(env, self.body, contain_crashes=True)
        process = instance.start()
        env.run()
        assert instance.status is RoleStatus.FAILED
        assert isinstance(instance.failure, ValueError)
        assert process.ok is True and process.value is None
        assert env.now == 1

    def test_propagated(self):
        env = Environment()
        instance = _instance(env, self.body, contain_crashes=False)
        process = instance.start()
        with pytest.raises(ValueError, match="app bug"):
            env.run()
        assert instance.status is RoleStatus.FAILED
        assert isinstance(instance.failure, ValueError)
        assert process.ok is False and process.value is instance.failure


class TestABodyFactoryThatFails:
    """The body is called by ``start``: what it raises, or a body that
    returns no generator, raises out of ``start`` under either crash
    setting and leaves the instance startable."""

    @staticmethod
    def raising(ctx):
        raise ValueError("bad config")

    @staticmethod
    def not_a_generator(ctx):
        return "not a generator"

    @pytest.mark.parametrize("contain_crashes", (True, False))
    @pytest.mark.parametrize("body", ("raising", "not_a_generator"))
    def test_start_raises_and_the_instance_stays_created(
            self, body, contain_crashes):
        env = Environment()
        instance = _instance(env, getattr(self, body), contain_crashes)
        with pytest.raises(ValueError):
            instance.start()
        assert instance.status is RoleStatus.CREATED
        assert instance.process is None
        instance.body = TestABodyThatRaises.body
        process = instance.start()
        assert instance.status is RoleStatus.RUNNING
        assert instance.process is process


class TestABodyThatRaisesStopProcess:
    @staticmethod
    def body(ctx):
        yield ctx.sleep(1)
        raise StopProcess("early")

    @pytest.mark.parametrize("contain_crashes, value",
                             ((True, None), (False, "early")))
    def test_the_instance_fails_and_the_process_succeeds(
            self, contain_crashes, value):
        env = Environment()
        instance = _instance(env, self.body, contain_crashes=contain_crashes)
        process = instance.start()
        env.run()
        assert instance.status is RoleStatus.FAILED
        assert isinstance(instance.failure, StopProcess)
        assert instance.result is None
        assert process.ok is True and process.value == value


def test_a_completed_body_returns_through_its_process():
    env = Environment()

    def body(ctx):
        yield ctx.sleep(2)
        return "done"

    instance = _instance(env, body, contain_crashes=False)
    process = instance.start()
    env.run()
    assert instance.status is RoleStatus.COMPLETED
    assert instance.result == "done" and process.value == "done"
    assert instance.failure is None
