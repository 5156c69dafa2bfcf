"""Reconcile the span stream against the benchmark's own bookkeeping.

The queue benchmark counts logical operations, payload bytes, and retry
back-offs through :class:`PhaseRecorder`; the tracer counts the same run
from the other side of the pipeline.  Aggregating spans per phase must
reproduce the recorder totals *exactly* — any drift means one of the two
instrumentation layers is lying.

The Get phase times Get+Delete as one logical op (the paper: "the Get
Message operation also includes deletion"), so ``delete_message`` spans
are excluded from the op/byte rollup.
"""

import pytest

from repro.compute import Deployment
from repro.core.metrics import PhaseRecorder, set_phase_hook
from repro.core.queue_bench import (
    SeparateQueueBenchConfig,
    separate_queue_bench_body,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.observability import Tracer, sim_worker_resolver
from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage import KB

#: Get+Delete is one timed logical op; delete spans are not extra ops.
GET_EXCLUDES = frozenset({"delete_message"})


def run_traced_queue_bench(*, workers=2, plan=None,
                           total_messages=8,
                           message_sizes=(4 * KB, 16 * KB)):
    env = Environment()
    account = SimStorageAccount(env, seed=2012)
    if plan is not None:
        account.cluster.set_fault_plan(plan)
    tracer = Tracer(worker_resolver=sim_worker_resolver(env))
    tracer.install(account)
    set_phase_hook(tracer.on_phase)
    try:
        cfg = SeparateQueueBenchConfig(total_messages=total_messages,
                                       message_sizes=message_sizes)
        deployment = Deployment(env, account,
                                separate_queue_bench_body(cfg),
                                instances=workers, name="azurebench")
        recorders = deployment.run()
    finally:
        set_phase_hook(None)
    return tracer, recorders


def phase_totals(spans, *, ops_exclude=frozenset()):
    """Per-phase ``(ops, nbytes, retries)`` from the span stream:
    successful spans not in ``ops_exclude`` count ops and bytes, failed
    spans count one back-off each; spans outside a phase are skipped."""
    totals = {}
    for span in spans:
        if span.phase is None:
            continue
        ops, nbytes, retries = totals.get(span.phase, (0, 0, 0))
        if span.ok:
            if span.operation not in ops_exclude:
                ops += 1
                nbytes += span.nbytes
        else:
            retries += 1
        totals[span.phase] = (ops, nbytes, retries)
    return totals


def recorder_totals(recorders):
    totals = {}
    for rec in recorders:
        for r in rec.records:
            ops, nbytes, retries = totals.get(r.name, (0, 0, 0))
            totals[r.name] = (ops + r.ops, nbytes + r.nbytes,
                              retries + r.retries)
    return totals


def test_spans_reproduce_phase_recorder_totals():
    tracer, recorders = run_traced_queue_bench()
    assert phase_totals(tracer.spans, ops_exclude=GET_EXCLUDES) == \
        recorder_totals(recorders)


def test_retries_reconcile_under_throttle_faults():
    """Failed spans per phase == the back-offs the recorder counted.

    A full-probability throttle window on worker 0's queue (the barrier
    queue is untouched, so synchronization survives) forces ServerBusy
    rejections; each one is a failed span on the tracer side and one
    ``add_retry`` on the recorder side.
    """
    plan = FaultPlan([FaultSpec(kind=FaultKind.THROTTLE, service="queue",
                                partition="azurebenchqueue0",
                                start=0.2, duration=0.15)])
    tracer, recorders = run_traced_queue_bench(plan=plan)
    expected = recorder_totals(recorders)
    assert sum(r for _, _, r in expected.values()) > 0, \
        "throttle window missed every phase; retest with a wider window"
    assert phase_totals(tracer.spans, ops_exclude=GET_EXCLUDES) == expected
    # failed spans carry the throttle verdict
    failed = [s for s in tracer.spans if not s.ok]
    assert failed
    assert {s.error for s in failed} == {"ServerBusyError"}
    # and the success span following a failure reports the retry count
    assert any(s.ok and s.retries > 0 for s in tracer.spans)


def test_spans_outside_phases_are_skipped():
    tracer, _ = run_traced_queue_bench()
    unattributed = [s for s in tracer.spans if s.phase is None]
    # barrier/setup traffic exists but never lands in a phase rollup
    assert unattributed
    totals = phase_totals(tracer.spans, ops_exclude=GET_EXCLUDES)
    assert None not in totals


# -- PhaseRecorder.record_span edge cases -------------------------------------

def test_record_span_zero_duration():
    env = Environment()
    rec = PhaseRecorder(env, 0)
    record = rec.record_span("comm", 0.0, ops=3, nbytes=12)
    assert record.start == record.end == env.now
    assert record.duration == 0.0
    assert (record.ops, record.nbytes) == (3, 12)


def test_record_span_longer_than_elapsed_time():
    # A duration longer than env.now backdates the start below zero but
    # keeps the duration exact — aggregation only ever reads durations.
    env = Environment()
    rec = PhaseRecorder(env, 0)
    record = rec.record_span("comm", 5.0)
    assert record.end == env.now == 0.0
    assert record.start == -5.0
    assert record.duration == 5.0


def test_record_span_negative_duration_raises():
    rec = PhaseRecorder(Environment(), 0)
    with pytest.raises(ValueError):
        rec.record_span("comm", -1.0)
