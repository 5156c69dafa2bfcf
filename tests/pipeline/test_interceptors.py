"""Unit tests for the interceptor stack itself (repro.pipeline)."""

import pytest

from repro.cluster.ops import OpDescriptor, OpKind, Service
from repro.emulator import EmulatorAccount
from repro.pipeline import (
    AuthInterceptor,
    Interceptor,
    OpContext,
    Pipeline,
    OPERATIONS,
)
from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage import ManualClock
from repro.storage.errors import AuthenticationFailedError


def _ctx():
    return OpContext(op=OpDescriptor(Service.BLOB, OpKind.CREATE_CONTAINER,
                                     partition="c"))


class Recorder(Interceptor):
    def __init__(self, name, trace):
        self.name = name
        self.trace = trace

    def before(self, ctx):
        self.trace.append(("before", self.name))

    def after(self, ctx):
        self.trace.append(("after", self.name))

    def failed(self, ctx, exc):
        self.trace.append(("failed", self.name, type(exc).__name__))


class TestOpContext:
    def test_keyword_constructor_and_defaults(self):
        op = _ctx().op
        ctx = OpContext(op=op, backend="emulator", started_at=2.5, worker="w")
        assert (ctx.op, ctx.backend, ctx.started_at, ctx.worker) == (
            op, "emulator", 2.5, "w")
        assert (ctx.finished_at, ctx.server_latency, ctx.latency_factor) == (
            0.0, 0.0, 1.0)
        assert ctx.timeout_spec is ctx.fault_plan is ctx.error is None
        ctx.finished_at = 4.0
        assert ctx.elapsed == 1.5

    def test_extras_is_one_dict_per_context(self):
        a, b = _ctx(), _ctx()
        a.extras["k"] = 1
        assert a.extras == {"k": 1} and b.extras == {}


class TestPipeline:
    def test_before_in_order_after_reversed(self):
        trace = []
        pipe = Pipeline([Recorder("a", trace), Recorder("b", trace)])
        ctx = _ctx()
        pipe.run_before(ctx)
        pipe.run_after(ctx)
        assert trace == [("before", "a"), ("before", "b"),
                         ("after", "b"), ("after", "a")]

    def test_failed_reversed_and_sets_error(self):
        trace = []
        pipe = Pipeline([Recorder("a", trace), Recorder("b", trace)])
        ctx = _ctx()
        exc = ValueError("boom")
        pipe.run_failed(ctx, exc)
        assert ctx.error is exc
        assert trace == [("failed", "b", "ValueError"),
                         ("failed", "a", "ValueError")]

    def test_add_before_named_stage(self):
        trace = []
        a, b, c = Recorder("a", trace), Recorder("b", trace), Recorder("c", trace)
        pipe = Pipeline([a, c])
        pipe.add(b, before="c")
        assert pipe.stages() == ["a", "b", "c"]

    def test_add_before_missing_name_appends(self):
        trace = []
        pipe = Pipeline([Recorder("a", trace)])
        pipe.add(Recorder("z", trace), before="nope")
        assert pipe.stages() == ["a", "z"]

    def test_remove(self):
        trace = []
        a, b = Recorder("a", trace), Recorder("b", trace)
        pipe = Pipeline([a, b])
        pipe.remove(a)
        assert pipe.stages() == ["b"] and len(pipe) == 1


class TestCanonicalStacks:
    def test_sim_stack_order(self):
        account = SimStorageAccount(Environment())
        assert account.pipeline.stages() == ["faults", "throttles"]

    def test_emulator_stack_order(self):
        account = EmulatorAccount(clock=ManualClock())
        assert account.pipeline.stages() == ["faults"]
        throttled = EmulatorAccount(clock=ManualClock(), enforce_targets=True)
        assert throttled.pipeline.stages() == ["faults", "throttles"]

    def test_analytics_inserts_before_faults(self):
        from repro.storage.analytics import attach_analytics
        account = EmulatorAccount(clock=ManualClock(), enforce_targets=True)
        attach_analytics(account)
        assert account.pipeline.stages() == ["analytics", "faults",
                                             "throttles"]

    def test_attach_analytics_rejects_pipelineless_targets(self):
        from repro.storage.analytics import attach_analytics
        with pytest.raises(TypeError):
            attach_analytics(object())


class TestCustomInterceptor:
    """The docs' how-to: one custom observer sees both backends' traffic."""

    def test_custom_interceptor_on_both_backends(self):
        class CountBytes(Interceptor):
            name = "count-bytes"

            def __init__(self):
                self.nbytes = 0

            def after(self, ctx):
                self.nbytes += ctx.op.nbytes

        payload = b"x" * 1000

        env = Environment()
        sim_account = SimStorageAccount(env)
        sim_counter = CountBytes()
        sim_account.pipeline.add(sim_counter, before="faults")

        def driver():
            blob = sim_account.blob_client()
            yield from blob.create_container("cont")
            yield from blob.upload_blob("cont", "bb", payload)

        env.process(driver())
        env.run()

        emu_account = EmulatorAccount(clock=ManualClock())
        emu_counter = CountBytes()
        emu_account.pipeline.add(emu_counter, before="faults")
        emu_blob = emu_account.blob_client()
        emu_blob.create_container("cont")
        emu_blob.upload_blob("cont", "bb", payload)

        assert sim_counter.nbytes == emu_counter.nbytes == len(payload)


class TestAuthInterceptor:
    def test_auth_rejects_on_both_backends(self):
        def deny(ctx):
            raise AuthenticationFailedError("bad key")

        env = Environment()
        sim_account = SimStorageAccount(env)
        sim_account.pipeline.add(AuthInterceptor(deny), before="faults")
        failures = []

        def driver():
            blob = sim_account.blob_client()
            try:
                yield from blob.create_container("cont")
            except AuthenticationFailedError:
                failures.append("sim")

        env.process(driver())
        env.run()

        emu_account = EmulatorAccount(clock=ManualClock())
        emu_account.pipeline.add(AuthInterceptor(deny), before="faults")
        with pytest.raises(AuthenticationFailedError):
            emu_account.blob_client().create_container("cont")

        assert failures == ["sim"]
        # auth fired before the data plane: nothing was created anywhere
        assert sim_account.state.blobs.list_containers() == []
        assert emu_account.state.blobs.list_containers() == []


class TestRegistryDerivation:
    """The tentpole's acceptance check: clients are registry-derived."""

    def test_sim_and_emulator_expose_identical_surfaces(self):
        from repro.emulator.clients import (
            EmulatorBlobClient, EmulatorCacheClient,
            EmulatorQueueClient, EmulatorTableClient,
        )
        from repro.sim.clients import (
            SimBlobClient, SimCacheClient, SimQueueClient, SimTableClient,
        )
        pairs = {
            "blob": (SimBlobClient, EmulatorBlobClient),
            "queue": (SimQueueClient, EmulatorQueueClient),
            "table": (SimTableClient, EmulatorTableClient),
            "cache": (SimCacheClient, EmulatorCacheClient),
        }
        for kind, (sim_cls, emu_cls) in pairs.items():
            registered = set(OPERATIONS[kind])
            assert registered, kind
            for cls in (sim_cls, emu_cls):
                own = {n for n, v in cls.__dict__.items()
                       if callable(v) and not n.startswith("__")}
                assert own == registered, (kind, cls.__name__)

    def test_registry_bodies_carry_docstrings(self):
        from repro.sim.clients import SimQueueClient
        assert "GetMsgCount" in SimQueueClient.get_message_count.__doc__


class BeforeOnly(Interceptor):
    """Overrides only ``before`` — after/failed stay the base no-ops."""

    def __init__(self, trace):
        self.trace = trace

    def before(self, ctx):
        self.trace.append("before-only")


class TestPreboundHooks:
    """Hook stacks are pre-bound at mutation time and skip base no-ops."""

    def test_base_noop_hooks_are_skipped(self):
        trace = []
        pipe = Pipeline([BeforeOnly(trace)])
        assert len(pipe._before_hooks) == 1
        assert pipe._after_hooks == []
        assert pipe._failed_hooks == []

    def test_add_rebinds(self):
        trace = []
        pipe = Pipeline([])
        pipe.run_before(_ctx())
        assert trace == []
        pipe.add(Recorder("late", trace))
        pipe.run_before(_ctx())
        assert trace == [("before", "late")]

    def test_remove_rebinds(self):
        trace = []
        a, b = Recorder("a", trace), Recorder("b", trace)
        pipe = Pipeline([a, b])
        pipe.remove(a)
        pipe.run_after(_ctx())
        assert trace == [("after", "b")]

    def test_add_first_rebinds_in_order(self):
        trace = []
        pipe = Pipeline([Recorder("tail", trace)])
        pipe.add_first(Recorder("head", trace))
        pipe.run_before(_ctx())
        assert trace == [("before", "head"), ("before", "tail")]

    def test_failed_still_sets_error_with_empty_stack(self):
        pipe = Pipeline([BeforeOnly([])])
        ctx = _ctx()
        exc = ValueError("boom")
        pipe.run_failed(ctx, exc)
        assert ctx.error is exc
