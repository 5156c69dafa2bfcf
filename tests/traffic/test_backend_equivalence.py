"""Backend equivalence for the open-loop engine (ISSUE 8 satellite 3).

The engine precomputes its whole operation schedule from the arrival
seed, so the *issued operation sequence* (instants, services, ops, keys,
outcomes) must be byte-identical across backends at a fixed seed — the
schedule digest pins it on ``sim`` vs ``emulator`` (and against the
golden run digests of ``golden_load.json``), plus one ``service`` wire
smoke.  The second half pins the *off* path: with the traffic
engine disabled (``arrivals=None``), the seeded sim figures and the
golden trace digest are bit-identical to the pre-engine codebase, and
the knee search is deterministic (same seed ⇒ same knee).
"""

import dataclasses

import pytest

from repro.traffic import (
    ArrivalSpec,
    LoadConfig,
    SLOSpec,
    build_flock_schedule,
    find_knee,
    run_load,
    schedule_digest,
)
from tests.traffic.test_flock import GOLDEN, golden_cases

SPEC = ArrivalSpec(process="poisson", rate=15.0, seed=7)


def config(**overrides) -> LoadConfig:
    base = dict(arrivals=SPEC, duration=8.0, window_s=2.0, mix="mixed",
                payload_bytes=1024, seed=2012, preload=4)
    base.update(overrides)
    return LoadConfig(**base)


# -- schedule determinism ----------------------------------------------------

def test_schedule_is_pure_function_of_the_spec():
    cfg = config()
    a, b = build_flock_schedule(cfg), build_flock_schedule(cfg)
    assert list(a.iter_ops()) == list(b.iter_ops())
    assert schedule_digest(a.iter_ops()) == schedule_digest(b.iter_ops())


def test_schedule_changes_with_seed_and_mix():
    def digest(cfg):
        return schedule_digest(build_flock_schedule(cfg).iter_ops())

    base = digest(config())
    other_seed = config(
        arrivals=dataclasses.replace(SPEC, seed=8))
    assert digest(other_seed) != base
    assert digest(config(mix="queue")) != base


# -- sim vs emulator ---------------------------------------------------------

def test_sim_and_emulator_issue_identical_sequences():
    """Same seed ⇒ same ops in the same order with the same outcomes,
    on the DES and on the threaded wall-clock emulator."""
    sim = run_load(config(backend="sim"))
    emu = run_load(config(backend="emulator"))
    assert sim.digest == emu.digest
    assert (sim.aggregator.total_completions
            == emu.aggregator.total_completions
            == len(build_flock_schedule(config())))
    assert sim.aggregator.total_errors == emu.aggregator.total_errors == 0

    case_id = "mixed-poisson-2012"
    golden_emu = run_load(dataclasses.replace(
        dict(golden_cases())[case_id], backend="emulator"))
    assert golden_emu.digest == GOLDEN[case_id]["run_digest"]


def test_sim_rerun_is_bit_identical():
    a = run_load(config())
    b = run_load(config())
    assert a.digest == b.digest
    assert a.aggregator == b.aggregator
    assert [r.to_dict() for r in a.rows] == [r.to_dict() for r in b.rows]


def _run_wallclock_with_one_bad_peek(exc):
    """Drive the wall-clock loop with emulator clients whose first
    ``peek_message`` (an op set-up never issues) raises."""
    import threading

    from repro.traffic import StatsAggregator
    from repro.traffic.engine import (_emulator_client_factory,
                                      _run_wallclock)

    cfg = config(backend="emulator", mix="queue", duration=4.0)
    make = _emulator_client_factory()
    first = threading.Lock()

    class FlakyQueue:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def peek_message(self, *args, **kwargs):
            if first.acquire(blocking=False):
                raise exc
            return self._inner.peek_message(*args, **kwargs)

    def make_flaky():
        clients = make()
        clients["queue"] = FlakyQueue(clients["queue"])
        return clients

    schedule = build_flock_schedule(cfg)
    agg = StatsAggregator(cfg.window_s)
    outcomes, _ = _run_wallclock(cfg, schedule, agg, make_flaky)
    return schedule, agg, outcomes


def test_transport_error_is_a_failed_op_not_a_lost_one():
    schedule, agg, outcomes = _run_wallclock_with_one_bad_peek(
        TimeoutError("timed out"))
    assert agg.total_completions == len(schedule) > 0
    assert agg.total_errors == 1
    assert outcomes.count(False) == 1 and None not in outcomes


def test_unexpected_op_exception_fails_the_wallclock_run():
    with pytest.raises(ZeroDivisionError):
        _run_wallclock_with_one_bad_peek(ZeroDivisionError("bug"))


@pytest.mark.slow
def test_service_wire_smoke_matches_sim_sequence():
    """The HTTP SN/DN cluster issues the same seeded op sequence."""
    cfg = config(duration=3.0, mix="queue", max_clients=4)
    svc = run_load(dataclasses.replace(cfg, backend="service"))
    sim = run_load(cfg)
    assert svc.digest == sim.digest
    assert svc.aggregator.total_completions > 0


# -- the engine-off path stays bit-identical ---------------------------------

def test_figures_unchanged_with_engine_off():
    """arrivals=None reproduces the pre-engine seeded figures exactly."""
    from repro.core import (RunConfig, SeparateQueueBenchConfig,
                            run_bench, separate_queue_bench_body)
    from repro.storage import KB

    mini = SeparateQueueBenchConfig(total_messages=8,
                                    message_sizes=(4 * KB,))

    def run(**overrides):
        rc = RunConfig(workers=2, seed=2012, label="golden", **overrides)
        return run_bench(lambda: separate_queue_bench_body(mini), rc)

    plain = run()
    explicit_off = run(arrivals=None)
    assert plain.phase_names() == explicit_off.phase_names()
    for name in plain.phase_names():
        assert plain.phase(name) == explicit_off.phase(name)


def test_golden_trace_digest_unchanged_with_engine_off():
    """The observability golden digest is the cross-PR bit-stability
    anchor; the traffic engine lands without moving it."""
    from tests.observability.test_golden_trace import (
        GOLDEN_DIGEST, run_mini)

    assert run_mini(trace=True).trace.digest() == GOLDEN_DIGEST


def test_arrivals_change_figures_but_stay_deterministic():
    """arrivals staggers starts (different numbers) deterministically
    (same spec twice ⇒ identical numbers)."""
    from repro.core import (RunConfig, SeparateQueueBenchConfig,
                            run_bench, separate_queue_bench_body)
    from repro.storage import KB

    mini = SeparateQueueBenchConfig(total_messages=8,
                                    message_sizes=(4 * KB,))
    spec = ArrivalSpec(process="poisson", rate=0.5, seed=3)

    def run(arrivals):
        rc = RunConfig(workers=2, seed=2012, label="open",
                       arrivals=arrivals)
        return run_bench(lambda: separate_queue_bench_body(mini), rc)

    a, b, off = run(spec), run(spec), run(None)
    assert a.phase_names() == b.phase_names()
    for name in a.phase_names():
        assert a.phase(name) == b.phase(name)
    staggered = {name: a.phase(name).wall_time for name in a.phase_names()}
    plain = {name: off.phase(name).wall_time for name in off.phase_names()}
    assert staggered != plain


# -- knee determinism --------------------------------------------------------

def test_find_knee_is_deterministic():
    cfg = config(duration=6.0, mix="queue",
                 slo=SLOSpec.parse("p95=120ms"))
    a = find_knee(cfg, low=20.0, high=400.0, rel_tol=0.25, max_probes=8)
    b = find_knee(cfg, low=20.0, high=400.0, rel_tol=0.25, max_probes=8)
    assert a.knee_rate is not None
    assert a.converged
    assert a.knee_rate == b.knee_rate
    assert [p.to_dict() for p in a.probes] == [p.to_dict() for p in b.probes]


def test_find_knee_reports_violations_in_verdict():
    cfg = config(duration=6.0, mix="queue",
                 slo=SLOSpec.parse("p95=120ms"))
    result = find_knee(cfg, low=20.0, high=400.0, rel_tol=0.25,
                       max_probes=8)
    verdict = result.verdict()
    assert verdict["kind"] == "saturation-search"
    # The bracket top probed unclean, so some probe carries violations.
    assert any(not p["clean"] and p["violation_windows"] > 0
               for p in verdict["probes"])


def test_find_knee_degenerate_brackets():
    tight = config(duration=6.0, mix="queue",
                   slo=SLOSpec.parse("p95=0.001ms"))
    res = find_knee(tight, low=1.0, high=10.0, max_probes=4)
    assert res.knee_rate is None and res.converged
    loose = config(duration=6.0, mix="queue",
                   slo=SLOSpec.parse("p95=60s"))
    res = find_knee(loose, low=1.0, high=10.0, max_probes=4)
    assert res.knee_rate == 10.0


def test_find_knee_requires_slo():
    with pytest.raises(ValueError):
        find_knee(config())


# -- SLO verdict surface -----------------------------------------------------

def test_slo_violation_windows_in_json_verdict(tmp_path):
    result = run_load(config(
        duration=6.0, slo=SLOSpec.parse("p95=0.001ms",
                                        warmup_windows=0,
                                        cooldown_windows=0)))
    assert not result.passed
    verdict = result.verdict()
    violations = verdict["slo_report"]["violations"]
    assert violations and all(v["metric"] == "p95_ms" for v in violations)
    paths = result.write_artifacts(str(tmp_path))
    assert sorted(p.rsplit("/", 1)[-1] for p in paths) == [
        "verdict.json", "windows.csv"]
    csv_text = (tmp_path / "windows.csv").read_text()
    header, *rows = csv_text.strip().splitlines()
    assert header.startswith("window,start,end,arrivals")
    assert len(rows) == len(result.rows)
