"""The one load path against the classic path's goldens, and the 100k smoke.

``golden_load.json`` holds what the per-op-object schedule and DES loop
produced the commit before they were deleted: for every case of
:func:`golden_cases`, the digest of the schedule alone and, on ``sim``,
the run digest, ``aggregator.totals()`` and the window rows.  The
columnar schedule and the chunked loop must reproduce every value, at
any chunk size.  The subprocess smoke pins the point of the columnar
representation: a 100k-client open-loop load fits in a small, bounded
RSS.
"""

import dataclasses
import json
import os
import subprocess
import sys
from random import Random
from types import SimpleNamespace

import pytest

from repro.pipeline import Interceptor
from repro.storage.errors import ServerBusyError
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
#: The mixes ``golden_load.json`` pins (``failover`` has no golden run).
GOLDEN_MIXES = ("queue", "blob", "table", "mixed")


def config(**overrides) -> LoadConfig:
    base = dict(arrivals=SPEC, duration=6.0, window_s=2.0, mix="mixed",
                payload_bytes=512, seed=31, preload=4)
    base.update(overrides)
    return LoadConfig(**base)


def golden_cases():
    """``(case id, LoadConfig)`` for every golden mix x arrival process x seed,
    plus one queue run far above the throttle knee (refusals recorded)."""
    for mix in GOLDEN_MIXES:
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


#: mix -> (seed, trace instants that land exactly on a completion).
#: Found on the parent of the process-free loop by replaying the trace
#: below with a pipeline recorder and solving the injector's arithmetic
#: (``now + (origin + t - now)``) for a recorded ``finished_at``; the
#: first of each pair falls a few ms after the previous arrival, the
#: second tens of ms after it, and the queue mix's second one is the
#: completion of a ``get`` whose ``delete`` starts at that same instant.
EDGE_TIES = {
    "mixed": (11, (1.42801983986385, 2.716756879915859)),
    "queue": (2012, (1.2012096681520223, 2.7011779459678187)),
}
EDGE_FLOCK_SIZES = (1, 7, 8192)


def edge_cases():
    """``(case id, LoadConfig)`` the 42 classic goldens do not reach: a
    trace with two arrivals at 0.0, three at one later instant and two
    landing on completion instants, on ``sim`` and on ``geo``."""
    for mix, (seed, ties) in EDGE_TIES.items():
        rng = Random(f"edge-trace:{seed}")
        trace = tuple(sorted(
            [0.0, 0.0, 5.5, 5.5, 5.5, *ties]
            + [round(rng.uniform(0.2, 6.2), 6) for _ in range(110)]))
        spec = ArrivalSpec(process="trace", rate=25.0, seed=seed, trace=trace)
        cfg = config(arrivals=spec, mix=mix, seed=seed)
        yield f"edge-{mix}-trace-ties", cfg
        if mix == "mixed":
            yield (f"edge-{mix}-trace-ties-geo",
                   dataclasses.replace(cfg, backend="geo"))


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
        assert set(cases) | set(dict(edge_cases())) == set(GOLDEN)
        assert schedule_mismatches(
            (cid, cfg) for cid, cfg in cases.items()
            if cfg.mix == "mixed") == []

    def test_parity_holds_for_every_mix(self):
        assert schedule_mismatches(golden_cases()) == []
        assert schedule_mismatches(edge_cases()) == []

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

    def test_calendar_flock_matches_heap_flock(self, capsys):
        """Both old names are accepted and select nothing, on every
        signature ``benchmarks/suite`` and old scripts still pass one to."""
        from repro.cli import main
        from repro.simkit import Environment

        default = run_load(config(flock_size=64))
        for name in ("heap", "calendar"):
            Environment(scheduler=name)
            named = run_load(config(flock_size=64, scheduler=name))
            assert named.digest == default.digest
            assert named.aggregator == default.aggregator
            assert named.config.describe() == default.config.describe()
        with pytest.raises(ValueError, match="scheduler"):
            Environment(scheduler="wheel")

        argv = ["load", "--rate", "20", "--duration", "4"]
        verdicts = []
        for extra in ([], ["--scheduler", "calendar"]):
            assert main(argv + extra) == 0
            verdicts.append(json.loads(capsys.readouterr().out))
            del verdicts[-1]["resources"]      # wall clock and RSS
        assert verdicts[0] == verdicts[1]
        with pytest.raises(SystemExit) as usage:
            main(argv + ["--scheduler", "wheel"])
        assert usage.value.code == 2

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


# -- the edge goldens --------------------------------------------------------

def observed(monkeypatch, interceptor):
    """Put ``interceptor`` at the front of every sim account's pipeline."""
    from repro.backend import SimBackend

    make = SimBackend._make_account

    def make_observed(self, env, run_config):
        account = make(self, env, run_config)
        account.pipeline.add_first(interceptor)
        return account

    monkeypatch.setattr(SimBackend, "_make_account", make_observed)


class TestEdgeGoldens:
    """Recorded from the per-op-process loop before it was replaced, at
    every chunk size (which agreed there, as they must here)."""

    @pytest.mark.parametrize("flock_size", EDGE_FLOCK_SIZES)
    def test_edge_runs_match_the_parent(self, flock_size):
        for case_id, cfg in edge_cases():
            assert_run_matches_golden(case_id, run_load(dataclasses.replace(
                cfg, flock_size=flock_size)))

    @pytest.mark.parametrize("mix", sorted(EDGE_TIES))
    def test_edge_traces_tie_where_they_claim_to(self, mix, monkeypatch):
        """Two arrivals at 0.0 start at the origin, three share a later
        instant, and each tie instant starts an op exactly when another
        op's round trip completes."""
        trips = []

        class Recorder(Interceptor):
            name = "recorder"

            def after(self, ctx):
                trips.append((ctx.worker, ctx.started_at, ctx.finished_at,
                              ctx.op.kind.value))

        observed(monkeypatch, Recorder())
        result = run_load(dict(edge_cases())[f"edge-{mix}-trace-ties"])
        assert result.aggregator.total_errors == 0
        origin = max(end for worker, _start, end, _kind in trips
                     if worker == "load-setup")
        # A delete is the second step of a get, not an arrival.
        starts = [start for worker, start, _end, kind in trips
                  if worker is None and kind != "delete_message"]
        assert starts.count(origin) == 2
        assert max(starts.count(t) for t in set(starts) - {origin}) == 3
        ends = {end for worker, _start, end, _kind in trips if worker is None}
        assert len(ends.intersection(starts)) == len(EDGE_TIES[mix][1])


# -- one definition of what an op does ---------------------------------------

class _Calls:
    """A stand-in client recording its calls.  Sim-style: the call is
    made when its generator is resumed, as on the DES; shim-style: it is
    made under the first ``next``, then the generator never yields, as
    on the wall-clock backends.  A sim-style call yields once, so a body
    that forgot a ``yield from`` would record nothing."""

    def __init__(self, log, shim):
        self._log = log
        self._shim = shim

    def __getattr__(self, name):
        def method(*args, **kwargs):
            if not self._shim:
                yield "round trip"
            self._log.append((name, args, kwargs))
            if name == "get_message" and args[0] == "full":
                return SimpleNamespace(message_id="m1", pop_receipt="r1")
            return None
            yield

        return method


@pytest.mark.parametrize("key", ["full", "empty"])
def test_starters_make_the_calls_of_the_op_script(key):
    """The one op body (``_op_starters``) issues the same client calls
    however it is driven — resumed event by event over sim-style clients
    (the DES) or exhausted by ``exhaust`` over never-yielding shims (the
    wall-clock backends) — for every kind of every mix, including
    get-then-delete with and without a message."""
    from repro.traffic.engine import _op_starters
    from repro.wallclock import exhaust

    def shape(log):
        return [(name, [(a.size, a.seed) if hasattr(a, "seed") else a
                        for a in args], kwargs)
                for name, args, kwargs in log]

    kinds = sorted({(service, op) for mix in MIXES.values()
                    for _, service, op in mix})
    assert len(kinds) == 9
    calls = 10 if key == "full" else 9
    for nbytes in (0, 512):
        simmed, shimmed = [], []
        clients = {s: _Calls(simmed, shim=False)
                   for s in ("queue", "blob", "table")}
        round_trips = 0
        for start in _op_starters(clients, kinds, [nbytes] * len(kinds)):
            round_trips += len(list(start(7, key)))
        assert round_trips == calls
        clients = {s: _Calls(shimmed, shim=True)
                   for s in ("queue", "blob", "table")}
        for start in _op_starters(clients, kinds, [nbytes] * len(kinds)):
            assert exhaust(start(7, key)) is None
        assert shape(simmed) == shape(shimmed)
        assert len(simmed) == calls
        names = [name for name, _, _ in simmed]
        assert names.count("delete_message") == (key == "full")


# -- failures ----------------------------------------------------------------

class TestFailurePath:
    def test_a_bug_inside_an_op_aborts_the_run(self, monkeypatch):
        """Not a StorageError: it leaves ``run_load`` as itself — no
        hang on the completion event, no op counted as failed."""
        seen = []

        class Bug(Interceptor):
            name = "bug"

            def after(self, ctx):
                seen.append(ctx.worker)
                if seen.count(None) == 40:
                    raise RuntimeError("observer bug")

        observed(monkeypatch, Bug())
        with pytest.raises(RuntimeError, match="observer bug"):
            run_load(config())
        assert seen.count(None) == 40

    def test_a_run_refused_at_every_admission_completes(self, monkeypatch):
        """Every open-loop op (``worker`` None; set-up runs as the
        ``load-setup`` process) is refused before it yields once: each
        completes inside its arrival's callback and the run still ends."""
        class Refuse(Interceptor):
            name = "refuse"

            def before(self, ctx):
                if ctx.worker is None:
                    raise ServerBusyError("refused")
                assert ctx.worker == "load-setup"

        observed(monkeypatch, Refuse())
        result = run_load(config(mix="queue"))
        totals = result.aggregator.totals()
        assert totals["arrivals"] == totals["completions"] > 100
        assert totals["errors"] == totals["completions"]
        assert result.digest == schedule_digest(
            build_flock_schedule(config(mix="queue")).iter_ops(),
            [False] * totals["arrivals"])
        # One kernel event per arrival and the completion event, no more.
        idle = run_load(config(mix="queue",
                               arrivals=ArrivalSpec(process="trace")))
        assert (result.resources["kernel_events"]
                == idle.resources["kernel_events"] + totals["arrivals"] + 1)


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
        tuned = config(clients=3, flock_size=64).describe()
        assert tuned["clients"] == 3
        assert tuned["flock_size"] == 64


# -- the scale smoke ---------------------------------------------------------

_SMOKE = """
import json
import resource
import sys

from repro.traffic import ArrivalSpec, LoadConfig, run_load

config = LoadConfig(
    arrivals=ArrivalSpec(process="poisson", rate=0.001, seed=5),
    duration=5.0, mix="queue", clients=100_000, flock_size=2048)
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
