"""The Backend protocol: one benchmark body, two execution substrates."""

import pytest

from repro.backend import (
    BACKENDS,
    EmulatorBackend,
    GeoBackend,
    SimBackend,
    get_backend,
)
from repro.core import (
    RunConfig,
    TableBenchConfig,
    run_bench,
    sweep_workers,
    table_bench_body,
)
from repro.storage import KB


class TestGetBackend:
    def test_names(self):
        assert set(BACKENDS) == {"sim", "emulator", "geo", "service"}
        assert isinstance(get_backend("sim"), SimBackend)
        assert isinstance(get_backend("emulator"), EmulatorBackend)
        assert isinstance(get_backend("geo"), GeoBackend)
        from repro.backend import ServiceBackend
        assert isinstance(get_backend("service"), ServiceBackend)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("cloud")
        # The message enumerates every registered backend, so typos are
        # self-diagnosing and new registrations show up automatically.
        for name in BACKENDS:
            assert name in str(excinfo.value)

    def test_instance_passthrough(self):
        backend = EmulatorBackend(time_scale=0.5)
        assert get_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cloud")

    def test_bad_time_scale(self):
        with pytest.raises(ValueError):
            EmulatorBackend(time_scale=0)


class TestEmulatorBackendRuns:
    CFG = TableBenchConfig(entity_count=4, entity_sizes=(4 * KB,), seed=3)

    def test_bench_runs_threaded(self):
        result = run_bench(
            lambda: table_bench_body(self.CFG),
            RunConfig(workers=3,
                      backend=EmulatorBackend(time_scale=0.002)),
        )
        assert result.workers == 3
        phases = {r.name for r in result.records}
        assert any(p.startswith("insert_") for p in phases)
        assert any(p.startswith("query_") for p in phases)
        # all three workers reported every phase
        for phase in phases:
            assert len([r for r in result.records if r.name == phase]) == 3

    def test_sweep_passes_backend_through(self):
        results = sweep_workers(
            lambda: table_bench_body(self.CFG), (1, 2),
            RunConfig(backend=EmulatorBackend(time_scale=0.002),
                      label="emu"),
        )
        assert sorted(results) == [1, 2]
        assert results[2].workers == 2

    def test_sim_is_the_default_backend(self):
        assert RunConfig().backend == "sim"


class TestGeoBackendRuns:
    CFG = TableBenchConfig(entity_count=4, entity_sizes=(4 * KB,), seed=3)

    def test_geo_timing_matches_sim(self):
        """With no faults the geo backend's figures are bit-identical to
        the sim backend's: bodies hit the same primary, and the
        replicator costs nothing on the primary's clock."""
        sim = run_bench(lambda: table_bench_body(self.CFG),
                        RunConfig(workers=2, backend="sim"))
        geo = run_bench(lambda: table_bench_body(self.CFG),
                        RunConfig(workers=2, backend="geo"))
        assert ([(r.name, r.start, r.end) for r in sim.records]
                == [(r.name, r.start, r.end) for r in geo.records])


class TestCliBackendFlag:
    def test_fig_backend_choices(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["fig", "9", "--backend",
                                          "emulator"])
        assert args.backend == "emulator"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "9", "--backend", "cloud"])

    def test_fig_on_emulator_backend_smoke(self, capsys, monkeypatch):
        from repro.bench import BenchScale
        import repro.backend as backend_mod
        import repro.bench as bench
        tiny = BenchScale(
            name="tiny", worker_counts=(1, 2), blob_total_chunks=4,
            blob_repeats=1, queue_total_messages=8,
            queue_message_sizes=(4 * KB,),
            shared_total_transactions=8, shared_think_times=(0.5,),
            table_entity_count=3, table_entity_sizes=(4 * KB,),
        )
        monkeypatch.setattr(bench, "QUICK_SCALE", tiny)
        # compress the emulator's virtual time hard so barrier polls and
        # think times cost microseconds of wall clock in CI
        monkeypatch.setattr(
            backend_mod.EmulatorBackend, "__init__",
            lambda self, time_scale=0.0005: setattr(
                self, "time_scale", time_scale),
        )
        from repro.cli import main
        assert main(["fig", "8", "--backend", "emulator"]) == 0
        out = capsys.readouterr().out
        assert "Fig 8" in out
