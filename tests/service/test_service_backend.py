"""ServiceBackend: the figure workloads run end-to-end over HTTP.

These tests boot a real SN/DN cluster per run, so the configs are tiny
and the emulated clock is compressed hard; the point is that a bench
body written for the sim/emulator backends produces a valid
``BenchResult`` when every storage call crosses a socket.
"""

import pytest

from repro.backend import ServiceBackend, get_backend
from repro.core import (
    RunConfig,
    SeparateQueueBenchConfig,
    TableBenchConfig,
    run_bench,
    separate_queue_bench_body,
    table_bench_body,
)
from repro.storage import KB


TINY_TABLE = TableBenchConfig(entity_count=4, entity_sizes=(4 * KB,), seed=3)


class TestConstruction:
    def test_registered_by_name(self):
        backend = get_backend("service")
        assert isinstance(backend, ServiceBackend)
        assert backend.name == "service"

    def test_bad_time_scale(self):
        with pytest.raises(ValueError):
            ServiceBackend(time_scale=0)

    def test_trace_rejected_with_pointer_to_alternatives(self):
        backend = ServiceBackend()
        with pytest.raises(NotImplementedError, match="sim or emulator"):
            backend.run(lambda: (lambda ctx: None),
                        RunConfig(trace=True))


class TestBenchBodiesOverHttp:
    def test_table_bench(self):
        result = run_bench(
            lambda: table_bench_body(TINY_TABLE),
            RunConfig(workers=2,
                      backend=ServiceBackend(time_scale=0.002)),
        )
        assert result.workers == 2
        phases = {r.name for r in result.records}
        assert any(p.startswith("insert_") for p in phases)
        assert any(p.startswith("query_") for p in phases)
        for phase in phases:
            assert len([r for r in result.records if r.name == phase]) == 2

    def test_queue_bench(self):
        cfg = SeparateQueueBenchConfig(
            total_messages=6, message_sizes=(4 * KB,), barrier_poll=0.1,
            seed=5)
        result = run_bench(
            lambda: separate_queue_bench_body(cfg),
            RunConfig(workers=2,
                      backend=ServiceBackend(time_scale=0.002)),
        )
        assert result.workers == 2
        assert result.records

    def test_multi_node_cluster(self):
        """Workers round-robin across two SNs against one namespace."""
        result = run_bench(
            lambda: table_bench_body(TINY_TABLE),
            RunConfig(workers=2,
                      backend=ServiceBackend(time_scale=0.002,
                                             nodes=2, dn=2)),
        )
        assert result.workers == 2
        assert result.records


class TestCliIntegration:
    def test_serve_parser_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--nodes", "2", "--dn", "4", "--duration", "1"])
        assert (args.nodes, args.dn) == (2, 4)

    def test_fig_accepts_service_backend(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["fig", "6", "--backend", "service"])
        assert args.backend == "service"

    def test_sndn_parser_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["sndn", "--sn", "1,2", "--dn", "2,4", "--duration", "5"])
        assert args.sn == "1,2"
        assert args.dn == "2,4"


class TestLoadOnService:
    def test_compressed_time_trips_no_throttle(self):
        """``repro load --backend service --mix queue --rate 100
        --duration 4`` offers 100 ops/s of virtual time; at the default
        ``time_scale`` the wall clock sees 100x that, so a tenant that
        enforced its targets would refuse ops the schedule never
        overdrew.  ``service_run`` boots the tenant as ``ServiceBackend``
        does, and not one op fails."""
        from repro.traffic import ArrivalSpec, LoadConfig, run_load

        result = run_load(LoadConfig(
            arrivals=ArrivalSpec(rate=100.0, seed=2012), duration=4.0,
            mix="queue", seed=2012, backend="service"))
        assert result.aggregator.total_completions > 400
        assert result.aggregator.total_errors == 0
