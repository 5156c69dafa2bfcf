"""The one load path against the classic path's goldens, and the 100k smoke.

``golden_load.json`` holds what the per-op-object schedule and DES loop
produced the commit before they were deleted: for every case of
:func:`golden_cases`, the digest of the schedule alone and, on ``sim``,
the run digest, ``aggregator.totals()`` and the window rows.  The
columnar schedule and the chunked loop must reproduce every value, at
any chunk size and on either kernel scheduler.  The subprocess smoke
pins the point of the columnar representation: a 100k-client open-loop
load fits in a small, bounded RSS.
"""

import dataclasses
import json
import os
import subprocess
import sys
from random import Random

import pytest

from repro.traffic import (
    MIXES,
    ArrivalSpec,
    LoadConfig,
    build_flock_schedule,
    run_load,
    schedule_digest,
)

SPEC = ArrivalSpec(process="poisson", rate=25.0, seed=11)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_load.json")) as _f:
    GOLDEN = json.load(_f)

#: process -> keyword parameters of the golden arrival specs.
GOLDEN_PROCESSES = {
    "poisson": {},
    "mmpp": {"mean_on": 1.0, "mean_off": 2.0},
    "diurnal": {"amp": 0.6, "period": 4.0},
    "ramp": {"start": 5.0, "ramp": 4.0},
    "trace": {},
}
GOLDEN_SEEDS = (11, 2012)


def config(**overrides) -> LoadConfig:
    base = dict(arrivals=SPEC, duration=6.0, window_s=2.0, mix="mixed",
                payload_bytes=512, seed=31, preload=4)
    base.update(overrides)
    return LoadConfig(**base)


def golden_cases():
    """``(case id, LoadConfig)`` for every mix x arrival process x seed,
    plus one queue run far above the throttle knee (refusals recorded)."""
    for mix in MIXES:
        for process, params in GOLDEN_PROCESSES.items():
            for seed in GOLDEN_SEEDS:
                trace = ()
                if process == "trace":
                    rng = Random(f"golden-trace:{seed}")
                    trace = tuple(sorted(round(rng.uniform(0.0, 6.5), 6)
                                         for _ in range(150)))
                spec = ArrivalSpec(process=process, rate=25.0, seed=seed,
                                   params=tuple(sorted(params.items())),
                                   trace=trace)
                yield (f"{mix}-{process}-{seed}",
                       config(arrivals=spec, mix=mix, seed=seed))
    for seed in GOLDEN_SEEDS:
        spec = ArrivalSpec(process="poisson", rate=1500.0, seed=seed)
        yield (f"queue-overload-{seed}",
               config(arrivals=spec, mix="queue", seed=seed, duration=2.0,
                      window_s=1.0))


def schedule_mismatches(cases):
    """Case ids whose columnar schedule misses its golden digest."""
    bad = []
    for case_id, cfg in cases:
        schedule = build_flock_schedule(cfg)
        gold = GOLDEN[case_id]
        if (len(schedule), schedule_digest(schedule.iter_ops())) != (
                gold["ops"], gold["schedule_digest"]):
            bad.append(case_id)
    return bad


def assert_run_matches_golden(case_id, result):
    gold = GOLDEN[case_id]
    assert result.digest == gold["run_digest"], case_id
    assert result.aggregator.totals() == gold["totals"], case_id
    assert [r.to_dict() for r in result.rows] == gold["windows"], case_id


# -- columnar schedule against the classic goldens ---------------------------

class TestScheduleParity:
    def test_flock_schedule_matches_classic_element_for_element(self):
        """The digest covers every field of every op, so one match pins
        the schedule element for element."""
        cases = dict(golden_cases())
        assert set(cases) == set(GOLDEN)
        assert schedule_mismatches(
            (cid, cfg) for cid, cfg in cases.items()
            if cfg.mix == "mixed") == []

    def test_parity_holds_for_every_mix(self):
        assert schedule_mismatches(golden_cases()) == []

    def test_clients_multiply_the_offered_rate(self):
        doubled = config(clients=2)
        pre_scaled = config(
            arrivals=dataclasses.replace(SPEC, rate=SPEC.rate * 2))
        assert (list(build_flock_schedule(doubled).iter_ops())
                == list(build_flock_schedule(pre_scaled).iter_ops()))


# -- run equivalence ---------------------------------------------------------

class TestRunEquivalence:
    def test_flock_run_matches_classic_run(self):
        """Every golden case: digest, totals and window rows of the
        classic DES loop, reproduced at the default chunk size."""
        for case_id, cfg in golden_cases():
            result = run_load(cfg)
            assert_run_matches_golden(case_id, result)
            if case_id.startswith("queue-overload"):
                assert result.aggregator.total_errors > 1000

    def test_calendar_flock_matches_heap_flock(self):
        heap = run_load(config(flock_size=64))
        calendar = run_load(config(flock_size=64, scheduler="calendar"))
        assert calendar.digest == heap.digest
        assert calendar.aggregator == heap.aggregator

    def test_tiny_flock_size_still_matches(self):
        """Chunk boundaries are invisible: chunk=1 flushes per op."""
        cases = dict(golden_cases())
        for case_id in ("mixed-poisson-11", "queue-overload-2012"):
            runs = [run_load(dataclasses.replace(cases[case_id],
                                                 flock_size=size))
                    for size in (1, 64, 8192)]
            for result in runs:
                assert_run_matches_golden(case_id, result)
                assert result.aggregator == runs[0].aggregator

    def test_verdict_carries_resources_block(self):
        verdict = run_load(config(flock_size=64)).verdict()
        resources = verdict["resources"]
        assert resources["wall_clock_s"] > 0
        assert resources["kernel_events"] > 0
        assert resources["kernel_events_per_sec"] > 0
        assert verdict["config"]["flock_size"] == 64


# -- config validation -------------------------------------------------------

class TestConfigValidation:
    def test_clients_must_be_positive(self):
        with pytest.raises(ValueError, match="clients"):
            config(clients=0)

    def test_clients_reject_trace_replay(self):
        trace_spec = ArrivalSpec(process="trace",
                                 trace=(0.5, 1.0, 1.5), seed=1)
        with pytest.raises(ValueError, match="trace"):
            config(arrivals=trace_spec, clients=2)

    def test_flock_size_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="flock_size"):
                config(flock_size=bad)
        # A chunk size, not a mode: unused (not refused) off the DES.
        assert config(backend="emulator", flock_size=64).flock_size == 64

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            config(scheduler="wheel")

    def test_describe_emits_scale_knobs_only_when_engaged(self):
        plain = config().describe()
        assert "clients" not in plain
        assert "flock_size" not in plain
        assert "scheduler" not in plain
        tuned = config(clients=3, flock_size=64,
                       scheduler="calendar").describe()
        assert tuned["clients"] == 3
        assert tuned["flock_size"] == 64
        assert tuned["scheduler"] == "calendar"


# -- the scale smoke ---------------------------------------------------------

_SMOKE = """
import json
import resource
import sys

from repro.traffic import ArrivalSpec, LoadConfig, run_load

config = LoadConfig(
    arrivals=ArrivalSpec(process="poisson", rate=0.001, seed=5),
    duration=5.0, mix="queue", clients=100_000, flock_size=2048,
    scheduler="calendar")
result = run_load(config)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak_kb /= 1024
json.dump({"ops": result.aggregator.total_completions,
           "clients": config.clients,
           "peak_rss_mb": peak_kb / 1024,
           "resources": result.resources}, sys.stdout)
"""


@pytest.mark.slow
def test_100k_client_flock_load_fits_in_bounded_rss():
    """100k clients in a fresh interpreter stay under a 1 GB ceiling.

    A subprocess keeps the child's ``ru_maxrss`` high-water mark clean
    of whatever the pytest session has already allocated.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SMOKE],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.dirname(os.path.abspath(__file__)))),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["clients"] == 100_000
    assert out["ops"] > 0
    assert out["peak_rss_mb"] < 1024, (
        f"100k-client flock run peaked at {out['peak_rss_mb']:.0f} MB")
    assert out["resources"]["kernel_events"] > 0
