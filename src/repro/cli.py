"""Command-line interface: regenerate the paper's tables and figures.

Usage (also available as ``python -m repro``)::

    python -m repro list                 # what can be regenerated
    python -m repro table1               # paper Table I
    python -m repro fig 4                # Figure 4 (a+b)
    python -m repro fig 6 --full         # Figure 6 at paper scale
    python -m repro all --csv out/       # everything, also CSV files
    python -m repro all --jobs $(nproc)  # same figures, all cores
    python -m repro trace fig6           # Figure 6 + trace artifacts
    python -m repro claims               # the qualitative claims checked
    python -m repro chaos fig6 --profile queue-storm --seed 7
    python -m repro chaos fig6 --profile queue-storm --seeds 7,8,9 --jobs 3
    python -m repro chaos taskpool --profile lossy-queue --crashes 2
    python -m repro chaos --profile region-outage --seeds 7,11
    python -m repro geo --profile geo-failover --failover forced
    python -m repro load --process poisson --rate 25 --slo "p95=250ms"
    python -m repro load --find-knee --slo "p95=150ms" --out load/

Exit codes are documented in ``docs/cli.md``: 0 success, 1 a run
completed but failed its checks (audit mismatch, chaos violation,
incomplete fault run, dropped spans), 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

#: ``sorted(repro.backend.BACKENDS)`` as plain data.  The parser imports no
#: machinery (``repro.backend`` and ``repro.bench`` load numpy and the DES):
#: each command imports its own in the branch that runs it, so ``repro
#: serve`` loads serve code only (tests/service/test_cold_start.py).
_BACKENDS = ("emulator", "geo", "service", "sim")

_FIGS = {
    "table1": "Table I: VM configurations",
    "4": "Fig 4: Blob storage throughput & time",
    "5": "Fig 5: Blob download one page/block at a time",
    "6": "Fig 6: Queue benchmarks, separate queue per worker",
    "7": "Fig 7: Queue benchmarks, single shared queue",
    "8": "Fig 8: Table storage Insert/Query/Update/Delete",
    "9": "Fig 9: Per-operation time, Queue vs Table",
}


def _jobs(text: str) -> int:
    """``--jobs N`` counts worker processes: N >= 1, or it is bad usage."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    from .mixes import MIXES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="AzureBench reproduction: regenerate the paper's "
                    "tables and figures on the simulated fabric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list regenerable tables/figures")
    sub.add_parser("claims", help="print the paper's qualitative claims")
    sub.add_parser("table1", help="print paper Table I")

    fig = sub.add_parser("fig", help="regenerate one figure")
    fig.add_argument("number", choices=["4", "5", "6", "7", "8", "9"])
    fig.add_argument("--full", action="store_true",
                     help="paper scale (default: quick scale)")
    fig.add_argument("--csv", metavar="DIR",
                     help="also write <DIR>/<figure>.csv files")
    fig.add_argument("--backend", choices=_BACKENDS, default="sim",
                     help="run the sweeps on the seeded DES fabric (sim, "
                          "default) or on the threaded emulator")
    fig.add_argument("--checkpoint", metavar="FILE",
                     help="persist each completed sweep cell to FILE and "
                          "resume from it (kill-safe figure campaigns)")
    fig.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                     help="fan independent sweep cells out over N worker "
                          "processes (default 1: serial; results are "
                          "bit-identical either way)")
    fig.add_argument("--arrivals", metavar="SPEC",
                     help="stagger worker starts on an open-loop arrival "
                          "process, e.g. 'poisson:25' or "
                          "'mmpp:40:on=2,off=6' (docs/traffic.md)")

    all_cmd = sub.add_parser("all", help="regenerate every table and figure")
    all_cmd.add_argument("--full", action="store_true")
    all_cmd.add_argument("--csv", metavar="DIR")
    all_cmd.add_argument("--backend", choices=_BACKENDS,
                         default="sim")
    all_cmd.add_argument("--checkpoint", metavar="FILE",
                         help="persist each completed sweep cell to FILE "
                              "and resume from it")
    all_cmd.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                         help="fan the whole figure x worker-count cell "
                              "matrix out over N worker processes "
                              "(default 1: serial; bit-identical results)")
    all_cmd.add_argument("--arrivals", metavar="SPEC",
                         help="stagger worker starts on an open-loop "
                              "arrival process (see 'repro fig')")

    trace = sub.add_parser(
        "trace", help="regenerate one figure with tracing enabled and "
                      "write trace.json / histograms.json / manifest.json")
    trace.add_argument("figure", metavar="FIGURE",
                       help='figure to trace: 4-9, "fig6" also accepted')
    trace.add_argument("--full", action="store_true",
                       help="paper scale (default: quick scale)")
    trace.add_argument("--out", metavar="DIR",
                       help="artifact directory (default: traces/fig<N>)")
    trace.add_argument("--backend", choices=_BACKENDS, default="sim")

    report = sub.add_parser(
        "report", help="full reproduction report (figures + audit + analysis)")
    report.add_argument("--full", action="store_true")
    report.add_argument("--out", metavar="FILE",
                        help="also write the report to FILE")

    audit = sub.add_parser(
        "audit", help="run only the paper-vs-measured audit table")
    audit.add_argument("--full", action="store_true")

    faults = sub.add_parser(
        "faults", help="fault-injection profiles (chaos runs)")
    fsub = faults.add_subparsers(dest="faults_command", required=True)
    fsub.add_parser("list", help="list the named fault profiles")
    frun = fsub.add_parser(
        "run", help="run the bag-of-tasks app under a fault profile")
    frun.add_argument("profile", help="profile name (see 'faults list')")
    frun.add_argument("--policy", default="fixed",
                      help="retry policy (default: the paper's fixed 1 s)")
    frun.add_argument("--tasks", type=int, default=24)
    frun.add_argument("--workers", type=int, default=4)
    frun.add_argument("--seed", type=int, default=31)
    frun.add_argument("--trace", action="store_true",
                      help="also print the injected-fault event trace")

    chaos = sub.add_parser(
        "chaos", help="chaos conformance harness: run a figure workload "
                      "(or the bag-of-tasks app) under a seeded fault "
                      "schedule and check the conservation, integrity, "
                      "and termination invariants")
    chaos.add_argument("figure", metavar="WORKLOAD", nargs="?",
                       help='figure to stress: 4-9 ("fig6" also accepted), '
                            '"taskpool" for the bag-of-tasks app with '
                            'worker-role crash/restart chaos, "geo" for '
                            'the geo-replicated account campaign, '
                            '"elasticity" for autoscaling under region '
                            'faults, or "dnfailover" for the live SN/DN '
                            'data-node failure domain; may be omitted '
                            'when --profile implies a workload (geo '
                            'profiles, dn-failover)')
    chaos.add_argument("--profile", default="none",
                       help="fault profile (see 'faults list'; "
                            "default: none)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="schedule seed (jitter, crash times, fault "
                            "draws)")
    chaos.add_argument("--seeds", metavar="S1,S2,...",
                       help="run a whole seed matrix instead of one "
                            "--seed; one verdict per seed, exit 1 if any "
                            "fails (figure workloads only)")
    chaos.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                       help="run the --seeds matrix over N worker "
                            "processes (each seed is independent, so "
                            "verdicts are identical to serial runs)")
    chaos.add_argument("--out", metavar="FILE",
                       help="also write the verdict JSON to FILE")
    chaos.add_argument("--retry-budget", type=int, default=64,
                       help="max per-op retries the termination checker "
                            "tolerates (default 64)")
    chaos.add_argument("--self-test-splice", action="store_true",
                       help="after a clean run, splice a synthetic silent "
                            "message drop into the history; the checker "
                            "must flag it (verifies the harness can "
                            "actually detect loss)")
    chaos.add_argument("--crashes", type=int, default=2,
                       help="worker-role crash events (taskpool only)")
    chaos.add_argument("--tasks", type=int, default=16,
                       help="bag-of-tasks size (taskpool/elasticity)")
    chaos.add_argument("--workers", type=int, default=4,
                       help="worker role instances (taskpool/elasticity; "
                            "geo uses its own writer count)")
    chaos.add_argument("--failover", choices=["planned", "forced"],
                       help="geo workload: trigger an account failover "
                            "mid-run (default: the profile's own choice)")
    chaos.add_argument("--lag", type=float, default=2.0, metavar="SECONDS",
                       help="geo workload: asynchronous replication lag "
                            "(default 2.0)")
    chaos.add_argument("--dn", type=int, default=3,
                       help="dnfailover workload: data nodes (default 3)")
    chaos.add_argument("--replicas", type=int, default=2,
                       help="dnfailover workload: shard replication "
                            "factor (default 2)")
    chaos.add_argument("--windows-csv", metavar="FILE",
                       help="dnfailover workload: write the load "
                            "engine's per-window stats (the columns of "
                            "repro load's windows.csv; the SLO-dip "
                            "artifact) to FILE")

    geo = sub.add_parser(
        "geo", help="geo-replicated account campaign: RA-GRS reads, "
                    "region-outage chaos, replication-lag laws, planned "
                    "or forced failover with bounded loss")
    geo.add_argument("--profile", default="region-outage",
                     help="geo fault profile (default: region-outage)")
    geo.add_argument("--failover", choices=["planned", "forced"],
                     help="trigger an account failover mid-run "
                          "(default: the profile's own choice)")
    geo.add_argument("--lag", type=float, default=2.0, metavar="SECONDS",
                     help="asynchronous replication lag (default 2.0)")
    geo.add_argument("--seed", type=int, default=0)
    geo.add_argument("--workers", type=int, default=3,
                     help="writer processes (default 3)")
    geo.add_argument("--elasticity", action="store_true",
                     help="run the autoscaling bag-of-tasks campaign "
                          "instead of the storage conformance campaign")
    geo.add_argument("--tasks", type=int, default=24,
                     help="bag-of-tasks size (--elasticity only)")
    geo.add_argument("--arrival", metavar="SPEC",
                     help="submit elasticity tasks on an open-loop "
                          "arrival process instead of all at once, e.g. "
                          "'poisson:2' (--elasticity only; "
                          "docs/traffic.md)")
    geo.add_argument("--out", metavar="FILE",
                     help="also write the verdict JSON to FILE")
    geo.add_argument("--retry-budget", type=int, default=64)
    geo.add_argument("--self-test-splice", action="store_true",
                     help="splice a replication-log ship event out of a "
                          "clean run; the GeoLedger must flag it")

    serve = sub.add_parser(
        "serve", help="boot an SN/DN service cluster speaking the "
                      "Azurite-compatible wire subset")
    serve.add_argument("--nodes", type=int, default=1, metavar="N",
                       help="service nodes (HTTP front-ends, default 1)")
    serve.add_argument("--dn", type=int, default=2, metavar="M",
                       help="data nodes (partition shards, default 2)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--blob-port", type=int, default=0,
                       help="blob listener port for sn0 (default ephemeral)")
    serve.add_argument("--queue-port", type=int, default=0,
                       help="queue listener port for sn0 (default ephemeral)")
    serve.add_argument("--table-port", type=int, default=0,
                       help="table listener port for sn0 (default ephemeral)")
    serve.add_argument("--account", help="extra tenant account name "
                                         "(with --key; may repeat)",
                       action="append", default=[])
    serve.add_argument("--key", help="base64 key for each --account",
                       action="append", default=[])
    serve.add_argument("--no-throttles", action="store_true",
                       help="disable per-tenant scalability-target "
                            "enforcement")
    serve.add_argument("--access-log", metavar="FILE",
                       help="append per-request access log lines to FILE "
                            "on shutdown")
    serve.add_argument("--duration", type=float, metavar="SECONDS",
                       help="exit after SECONDS (default: run until "
                            "interrupted)")

    sndn = sub.add_parser(
        "sndn", help="scaling figure: sweep service- and data-node "
                     "counts of the real SN/DN cluster on a virtual-time "
                     "event loop")
    sndn.add_argument("--sn", default="1,2,4",
                      help="service-node counts, comma-separated "
                           "(default 1,2,4)")
    sndn.add_argument("--dn",
                      help="data-node counts, comma-separated (default: "
                           "those of 1,2,4,8 that are >= --replication)")
    sndn.add_argument("--clients", type=int, default=32)
    sndn.add_argument("--duration", type=float, default=30.0,
                      help="virtual seconds per point (default 30)")
    sndn.add_argument("--fanout", type=float, default=0.05,
                      help="fraction of requests touching every shard "
                           "(default 0.05)")
    sndn.add_argument("--seed", type=int, default=0)
    sndn.add_argument("--replication", type=int, default=1, metavar="R",
                      help="shard replication factor (default 1); with "
                           "R > 1 a surviving replica absorbs requests "
                           "to a crashed, undetected node")
    sndn.add_argument("--crash-at", type=float, metavar="SECONDS",
                      help="crash data node 0 at SECONDS (adds an "
                           "availability column)")
    sndn.add_argument("--detect", type=float, default=1.0,
                      metavar="SECONDS",
                      help="about when a dead node is declared dead: "
                           "heartbeats every SECONDS / 3 (default 1.0)")
    sndn.add_argument("--csv", metavar="DIR",
                      help="also write the sweep as CSV into DIR")

    load = sub.add_parser(
        "load", help="open-loop load campaign: seeded arrival process, "
                     "per-window p50/p95/p99 + throughput + utilization, "
                     "SLO verdict, and --find-knee saturation search "
                     "(docs/traffic.md)")
    load.add_argument("--process", default=None,
                      help="arrival process: poisson, mmpp, diurnal, "
                           "ramp, or trace (default poisson; "
                           "--trace-file implies trace)")
    load.add_argument("--rate", type=float, default=25.0,
                      help="mean arrival rate in ops/s (default 25)")
    load.add_argument("--param", action="append", default=[],
                      metavar="K=V",
                      help="process parameter, may repeat (mmpp: on/off/"
                           "rate_off; diurnal: amp/period; ramp: "
                           "start/ramp)")
    load.add_argument("--trace-file", metavar="FILE",
                      help="arrival instants, one float per line "
                           "(--process trace)")
    load.add_argument("--duration", type=float, default=60.0,
                      help="seconds of arrivals (default 60)")
    load.add_argument("--window", type=float, default=5.0,
                      help="stats window width in seconds (default 5)")
    load.add_argument("--mix", default="queue",
                      help=f"operation mix: {', '.join(MIXES)} "
                           "(default queue)")
    load.add_argument("--payload", type=int, default=4096,
                      help="payload bytes for writes (default 4096)")
    load.add_argument("--seed", type=int, default=2012,
                      help="arrival + fabric seed (default 2012)")
    load.add_argument("--backend", choices=_BACKENDS, default="sim")
    load.add_argument("--servers", type=int, default=1,
                      help="server count for the utilization column "
                           "(default 1)")
    load.add_argument("--dn", type=int, default=2,
                      help="service backend: data nodes (default 2)")
    load.add_argument("--replicas", type=int, default=1,
                      help="service backend: shard replication factor "
                           "(default 1)")
    load.add_argument("--kill-dn", type=int, metavar="N",
                      help="service backend: crash data node N mid-run "
                           "(needs --kill-at)")
    load.add_argument("--kill-at", type=float, metavar="SECONDS",
                      help="virtual seconds into the run at which "
                           "--kill-dn crash-stops")
    load.add_argument("--slo", metavar="SPEC",
                      help="per-window objectives, e.g. "
                           "'p95=250ms, p99=1s, err=1%%, tput=100'")
    load.add_argument("--warmup", type=int, default=1, metavar="W",
                      help="SLO warmup windows to skip (default 1)")
    load.add_argument("--cooldown", type=int, default=1, metavar="W",
                      help="SLO cooldown windows to skip (default 1)")
    load.add_argument("--out", metavar="DIR",
                      help="write windows.csv + verdict.json into DIR")
    load.add_argument("--find-knee", action="store_true",
                      help="bisect for the highest SLO-clean arrival "
                           "rate instead of one fixed-rate run "
                           "(requires --slo)")
    load.add_argument("--low", type=float, default=1.0,
                      help="knee-search bracket floor in ops/s "
                           "(default 1)")
    load.add_argument("--high", type=float, default=200.0,
                      help="knee-search bracket ceiling in ops/s "
                           "(default 200)")
    load.add_argument("--rel-tol", type=float, default=0.1,
                      help="knee bracket convergence tolerance "
                           "(default 0.1)")
    load.add_argument("--max-probes", type=int, default=12,
                      help="knee-search probe budget (default 12)")
    load.add_argument("--clients", type=int, default=1, metavar="N",
                      help="simulated clients: multiplies the per-client "
                           "arrival rate (default 1)")
    load.add_argument("--flock-size", type=int, default=8192, metavar="N",
                      help="completions folded into the stats, and on "
                           "sim/geo arrivals injected, per chunk (>= 1; "
                           "changes no result; default 8192)")

    return parser


def _emit(fig, csv_dir: Optional[str]) -> None:
    print(fig.to_text())
    print()
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        name = fig.figure_id.lower().replace(" ", "_")
        path = os.path.join(csv_dir, f"{name}.csv")
        with open(path, "w") as f:
            f.write(fig.to_csv())


def _write_manifest(path: str, scale, backend, figure: str, *,
                    trace: bool = False) -> None:
    """Record run provenance next to CSV/trace artifacts."""
    from .core.runner import RunConfig
    from .observability import RunManifest

    config = RunConfig(seed=scale.seed, label=figure, backend=backend,
                       trace=trace)
    RunManifest.from_config(
        config, figure=figure, scale=scale.name,
        workers=scale.worker_counts,
    ).write(path)


def _run_trace(args) -> int:
    from . import bench
    from .observability import HistogramSet, chrome_trace

    number = args.figure.lower()
    if number.startswith("fig"):
        number = number[3:]
    if number not in ("4", "5", "6", "7", "8", "9"):
        print(f"unknown figure {args.figure!r}; choose 4-9 (or fig4..fig9)",
              file=sys.stderr)
        return 2

    scale = bench.PAPER_SCALE if args.full else bench.QUICK_SCALE
    runner = bench.FigureRunner(scale, backend=args.backend, trace=True)
    for fig in runner.panels(number):
        print(fig.to_text())
        print()

    out_dir = args.out or os.path.join("traces", f"fig{number}")
    os.makedirs(out_dir, exist_ok=True)
    traces = runner.traces()

    # One Chrome trace-event file for the whole sweep: one process per
    # traced run ("fig6@4", ...), one track per worker role inside it.
    with open(os.path.join(out_dir, "trace.json"), "w") as f:
        json.dump(chrome_trace([(label, tracer.buffer)
                                for label, _, tracer in traces]),
                  f, sort_keys=True)

    merged = HistogramSet()
    per_run = {}
    for label, _, tracer in traces:
        merged = merged.merge(tracer.histograms)
        per_run[label] = tracer.histograms.to_dict()
    with open(os.path.join(out_dir, "histograms.json"), "w") as f:
        json.dump({"merged": merged.to_dict(), "runs": per_run},
                  f, indent=2, sort_keys=True)

    _write_manifest(os.path.join(out_dir, "manifest.json"),
                    scale, args.backend, f"fig{number}", trace=True)

    spans = sum(len(tracer.buffer) for _, _, tracer in traces)
    dropped = sum(tracer.buffer.dropped for _, _, tracer in traces)
    note = f" ({dropped} dropped)" if dropped else ""
    print(f"traced {len(traces)} runs, {spans} spans{note}")
    for name in ("trace.json", "histograms.json", "manifest.json"):
        print(f"  wrote {os.path.join(out_dir, name)}")
    if dropped:
        print(f"error: {dropped} spans dropped (buffer capacity); the "
              f"trace artifacts are incomplete", file=sys.stderr)
        return 1
    return 0


def _run_faults(args) -> int:
    from .faults.profiles import (
        POLICIES, PROFILES, get_profile, run_faulted_taskpool)

    if args.faults_command == "list":
        print("Fault profiles (repro faults run <profile>):")
        for name in sorted(PROFILES):
            print(f"  {name:16s} {PROFILES[name].description}")
        print(f"\nRetry policies (--policy): {', '.join(sorted(POLICIES))}")
        return 0

    # run
    try:
        get_profile(args.profile)
        result = run_faulted_taskpool(
            args.profile, args.policy, tasks=args.tasks,
            workers=args.workers, seed=args.seed)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(f"profile           {result['profile']}")
    print(f"retry policy      {result['policy']}")
    print(f"completed         {result['completed']} "
          f"({result['results_collected']}/{result['tasks']} results)")
    print(f"completion time   {result['completion_time']:.3f} s")
    print(f"op attempts       {result['attempts']} "
          f"(retries {result['retries']}, giveups {result['giveups']})")
    print(f"retry amplification {result['retry_amplification']:.3f}")
    print(f"backoff slept     {result['total_backoff']:.1f} s")
    print(f"worker restarts   {result['worker_restarts']}")
    for service, value in sorted(result["availability"].items()):
        print(f"availability      {service}: {value:.4f}")
    faults = result["faults_injected"]
    print(f"faults injected   "
          f"{', '.join(f'{k}={v}' for k, v in faults.items()) or 'none'}")
    if args.trace:
        print("fault trace (time, kind, service, partition):")
        for event in result["trace"]:
            print(f"  t={event[0]:<10.3f} {event[1]:<18s} "
                  f"{event[2]:<6s} {event[3]}")
    if not result["completed"]:
        print("error: the bag of tasks did not run to completion "
              "within the horizon", file=sys.stderr)
        return 1
    return 0


def _emit_verdict(verdict, out: Optional[str]) -> None:
    text = verdict.to_json()
    print(text)
    if out:
        directory = os.path.dirname(out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out, "w") as f:
            f.write(text + "\n")
    print(verdict.summary(), file=sys.stderr)


#: Profiles that imply a geo workload when `repro chaos` is invoked
#: without a WORKLOAD positional.
_GEO_WORKLOADS = {
    "region-outage": "geo",
    "geo-failover": "geo",
    "replication-stall": "geo",
    "spot-eviction": "elasticity",
    "dn-failover": "dnfailover",
}


def _parse_seeds(text: str) -> List[int]:
    """Parse a ``--seeds`` matrix, surfacing malformed lists here.

    Whitespace around entries is fine (``"7, 11"``); empty lists, empty
    entries, non-integers, and duplicate seeds raise :class:`ValueError`
    with a message naming the offending part, so the CLI can reject the
    matrix before any runner starts.
    """
    tokens = [token.strip() for token in text.split(",")]
    if tokens == [""]:
        raise ValueError("--seeds is empty; give at least one seed")
    seeds: List[int] = []
    for token in tokens:
        if not token:
            raise ValueError(f"--seeds has an empty entry in {text!r}; "
                             f"use a comma-separated list like '7,11'")
        try:
            seeds.append(int(token))
        except ValueError:
            raise ValueError(f"--seeds entry {token!r} is not an "
                             f"integer (in {text!r})") from None
    duplicates = sorted({s for s in seeds if seeds.count(s) > 1})
    if duplicates:
        raise ValueError(
            f"--seeds lists seed{'s' if len(duplicates) > 1 else ''} "
            f"{', '.join(map(str, duplicates))} more than once; every "
            f"seed runs exactly one verdict")
    return seeds


def _run_geo_workload(args, name: str) -> int:
    """Run the geo (or elasticity) campaign, one verdict per seed."""
    from .geo import run_elasticity, run_geo_chaos

    seeds = [args.seed]
    if getattr(args, "seeds", None) is not None:
        try:
            seeds = _parse_seeds(args.seeds)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    matrix = len(seeds) > 1 or getattr(args, "seeds", None) is not None
    arrival_text = getattr(args, "arrival", None)
    arrival_spec = None
    if arrival_text:
        if name != "elasticity":
            print("--arrival applies to the elasticity campaign "
                  "(repro geo --elasticity)", file=sys.stderr)
            return 2
        from .traffic import parse_arrival_spec
        try:
            arrival_spec = parse_arrival_spec(arrival_text)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    failed = 0
    for seed in seeds:
        if name == "elasticity":
            from dataclasses import replace as _replace
            arrival = (_replace(arrival_spec, seed=seed)
                       if arrival_spec is not None else None)
            verdict = run_elasticity(
                args.profile, seed, tasks=args.tasks,
                workers=args.workers, lag_s=args.lag,
                retry_budget=args.retry_budget, arrival=arrival)
        else:
            verdict = run_geo_chaos(
                args.profile, seed, lag_s=args.lag,
                failover=args.failover,
                retry_budget=args.retry_budget,
                splice=args.self_test_splice)
        out = args.out
        if out and matrix:
            out = f"{out}.seed{seed}"
        _emit_verdict(verdict, out)
        failed += 0 if verdict.passed else 1
    if matrix:
        print(f"seed matrix: {len(seeds) - failed}/{len(seeds)} passed",
              file=sys.stderr)
    return 0 if failed == 0 else 1


def _run_chaos(args) -> int:
    from .bench.executor import run_chaos_matrix
    from .chaos import ChaosRunError, run_chaos, run_chaos_taskpool

    name = (args.figure or "").lower()
    if not name:
        name = _GEO_WORKLOADS.get(args.profile, "")
        if not name:
            print("a WORKLOAD is required unless --profile implies one "
                  "(region-outage, geo-failover, replication-stall, "
                  "spot-eviction, dn-failover)", file=sys.stderr)
            return 2
    if args.seeds is not None and name in ("taskpool", "dnfailover"):
        print(f"--seeds matrices apply to figure workloads, not {name}",
              file=sys.stderr)
        return 2
    try:
        if name in ("geo", "elasticity"):
            return _run_geo_workload(args, name)
        if name == "dnfailover":
            from .chaos import run_dn_failover
            verdict = run_dn_failover(
                args.profile if args.profile != "none" else "dn-failover",
                args.seed, dn=args.dn, replicas=args.replicas,
                windows_csv=args.windows_csv)
        elif name == "taskpool":
            verdict = run_chaos_taskpool(
                args.profile, args.seed, crashes=args.crashes,
                tasks=args.tasks, workers=args.workers,
                retry_budget=args.retry_budget)
        elif args.seeds is not None:
            if not name.startswith("fig"):
                name = f"fig{name}"
            try:
                seeds = _parse_seeds(args.seeds)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            verdicts = run_chaos_matrix(
                name, args.profile, seeds, jobs=args.jobs,
                retry_budget=args.retry_budget,
                splice=args.self_test_splice)
            failed = 0
            for seed, verdict in verdicts.items():
                _emit_verdict(
                    verdict,
                    f"{args.out}.seed{seed}" if args.out else None)
                failed += 0 if verdict.passed else 1
            print(f"seed matrix: {len(verdicts) - failed}/{len(verdicts)} "
                  f"passed", file=sys.stderr)
            return 0 if failed == 0 else 1
        else:
            if not name.startswith("fig"):
                name = f"fig{name}"
            verdict = run_chaos(
                name, args.profile, args.seed,
                retry_budget=args.retry_budget,
                splice=args.self_test_splice)
    except ChaosRunError as exc:
        # The run crashed before the checks finished: still publish the
        # partial verdict (schedule, counts, the harness violation) so a
        # CI failure leaves evidence behind, then exit nonzero.
        _emit_verdict(exc.verdict, args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    _emit_verdict(verdict, args.out)
    return 0 if verdict.passed else 1


def _run_geo(args) -> int:
    from .chaos import ChaosRunError
    from .faults.profiles import PROFILES

    if args.profile not in PROFILES:
        print(f"unknown fault profile {args.profile!r}; see "
              f"'repro faults list'", file=sys.stderr)
        return 2
    args.seeds = None
    try:
        return _run_geo_workload(
            args, "elasticity" if args.elasticity else "geo")
    except ChaosRunError as exc:
        _emit_verdict(exc.verdict, args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_serve(args) -> int:
    import signal
    import threading

    from .service import TenantConfig, TenantDirectory
    from .service.cluster import ClusterRunner, ServiceCluster

    if len(args.account) != len(args.key):
        print("every --account needs a matching --key", file=sys.stderr)
        return 2
    enforce = not args.no_throttles
    configs = [TenantConfig.development(enforce_targets=enforce)]
    configs.extend(
        TenantConfig(account, key, enforce_targets=enforce)
        for account, key in zip(args.account, args.key))
    ports = {}
    for service, port in (("blob", args.blob_port),
                          ("queue", args.queue_port),
                          ("table", args.table_port)):
        if port:
            ports[service] = port
    cluster = ServiceCluster(
        nodes=args.nodes, dn=args.dn, tenants=TenantDirectory(configs),
        host=args.host, ports=ports, access_log_path=args.access_log)
    runner = ClusterRunner(cluster)

    # Graceful shutdown: SIGINT/SIGTERM (and --duration expiry) wake the
    # main thread, which tears the cluster down in order — stop accepting,
    # drain in-flight requests, take the DNs down — and exits 0.  Handlers
    # go in *before* "serving" is announced, so a supervisor that signals
    # the moment the banner appears never hits the default-action window.
    stop = threading.Event()
    previous = {}

    def _request_stop(signum, frame) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    runner.start()
    print(cluster.describe())
    print("serving; interrupt to stop"
          if args.duration is None else
          f"serving for {args.duration:g} s")
    sys.stdout.flush()
    try:
        stop.wait(args.duration)
    except KeyboardInterrupt:  # pragma: no cover - handler already set
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("shutting down", file=sys.stderr)
        runner.stop()
    return 0


def _run_load(args) -> int:
    from .traffic import (ArrivalSpec, LoadConfig, SLOSpec, find_knee,
                          run_load)
    from .traffic.arrivals import PROCESSES

    try:
        if args.process is None:
            # --trace-file alone selects trace replay; silently running
            # the default poisson instead would ignore the user's trace.
            process = "trace" if args.trace_file else "poisson"
        else:
            process = args.process.strip().lower()
            if args.trace_file and process != "trace":
                print(f"--trace-file conflicts with --process {process}",
                      file=sys.stderr)
                return 2
        if process == "trace":
            if not args.trace_file:
                print("--process trace needs --trace-file",
                      file=sys.stderr)
                return 2
            with open(args.trace_file) as f:
                instants = tuple(float(line) for line in f
                                 if line.strip())
            spec = ArrivalSpec(process="trace", seed=args.seed,
                               trace=instants)
        else:
            params = {}
            alias = {"on": "mean_on", "off": "mean_off"}
            for term in args.param:
                if "=" not in term:
                    raise ValueError(f"--param needs K=V, got {term!r}")
                key, value = term.split("=", 1)
                params[alias.get(key.strip(), key.strip())] = float(value)
            if process not in PROCESSES:
                raise ValueError(
                    f"unknown arrival process {process!r}; choose from "
                    f"{', '.join(sorted(PROCESSES))}, trace")
            spec = ArrivalSpec(process=process, rate=args.rate,
                               seed=args.seed,
                               params=tuple(sorted(params.items())))
        spec.build()  # validate parameters before any run starts
        slo = None
        if args.slo:
            slo = SLOSpec.parse(args.slo, warmup_windows=args.warmup,
                                cooldown_windows=args.cooldown)
        if args.find_knee and slo is None:
            print("--find-knee needs an --slo to bisect against",
                  file=sys.stderr)
            return 2
        config = LoadConfig(
            arrivals=spec, duration=args.duration, window_s=args.window,
            mix=args.mix, payload_bytes=args.payload, seed=args.seed,
            backend=args.backend, slo=slo, servers=args.servers,
            dn=args.dn, replicas=args.replicas, kill_dn=args.kill_dn,
            kill_at=args.kill_at, clients=args.clients,
            flock_size=args.flock_size)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.find_knee:
        result = find_knee(config, low=args.low, high=args.high,
                           rel_tol=args.rel_tol,
                           max_probes=args.max_probes)
        print(result.to_json())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "knee.json")
            with open(path, "w") as f:
                f.write(result.to_json() + "\n")
            print(f"wrote {path}", file=sys.stderr)
        if result.knee_rate is None:
            print("error: no SLO-clean rate in the bracket; lower --low "
                  "or relax the SLO", file=sys.stderr)
            return 1
        print(f"knee: {result.knee_rate:g} ops/s "
              f"({'converged' if result.converged else 'bracket top'}, "
              f"{len(result.probes)} probes)", file=sys.stderr)
        return 0

    result = run_load(config)
    print(result.to_json())
    if args.out:
        for path in result.write_artifacts(args.out):
            print(f"wrote {path}", file=sys.stderr)
    totals = result.aggregator
    if result.slo_report is None:
        failed = totals.total_errors / max(1, totals.total_completions)
        verdict = f"{failed:.1%} failed, no SLO given"
    else:
        verdict = "clean" if result.passed else "SLO violations"
    print(f"{totals.total_completions} ops "
          f"({totals.total_errors} errors) over "
          f"{len(result.rows)} windows: {verdict}", file=sys.stderr)
    if result.disruption:
        d = result.disruption
        print(f"dn kill: node {d['kill_dn']} at t={d['kill_at_s']:g}s, "
              f"detected={d['detected']}, {d['errors']} op error(s), "
              f"{d['shards_migrated']} shard(s) migrated, "
              f"recovery {d['recovery_s']}s "
              f"(unavailable {d['unavailable_s']}s)", file=sys.stderr)
    return 0 if result.passed else 1


def _run_sndn(args) -> int:
    from .service.virtual import sweep

    try:
        sn_counts = [int(v) for v in args.sn.split(",") if v]
        if args.dn is None:
            dn_counts = [dn for dn in (1, 2, 4, 8) if dn >= args.replication]
        else:
            dn_counts = [int(v) for v in args.dn.split(",") if v]
    except ValueError:
        print("--sn/--dn take comma-separated integers", file=sys.stderr)
        return 2
    if args.dn is None and not dn_counts:
        print(f"--replication {args.replication} leaves no count of the "
              f"default --dn 1,2,4,8; pass --dn", file=sys.stderr)
        return 2
    if any(dn < args.replication for dn in dn_counts):
        print(f"--dn {args.dn} has a data-node count below --replication "
              f"{args.replication}", file=sys.stderr)
        return 2
    crashing = args.crash_at is not None
    try:
        results = sweep(
            sn_counts, dn_counts, clients=args.clients,
            duration_s=args.duration, fanout=args.fanout, seed=args.seed,
            replication=args.replication, crash_at=args.crash_at,
            detect=args.detect)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    header = (f"SN/DN topology scaling — {args.clients} closed-loop "
              f"clients, {args.duration:g} s horizon, "
              f"{args.fanout:.0%} fan-out")
    if crashing:
        header += (f"; dn0 crashes at t={args.crash_at:g} s "
                   f"(R={args.replication}, detect {args.detect:g} s)")
    print(header)
    avail_col = f" {'avail %':>8}" if crashing else ""
    print(f"  {'SNs':>4} {'DNs':>4} {'req/s':>10} "
          f"{'mean ms':>9} {'p95 ms':>9}{avail_col}")
    rows = []
    for (sn, dn), r in sorted(results.items()):
        avail = f" {r.availability * 100:8.3f}" if crashing else ""
        print(f"  {sn:4d} {dn:4d} {r.throughput_rps:10.0f} "
              f"{r.mean_latency_s * 1e3:9.2f} "
              f"{r.p95_latency_s * 1e3:9.2f}{avail}")
        rows.append((sn, dn, r))
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        path = os.path.join(args.csv, "sndn_topology.csv")
        with open(path, "w") as f:
            f.write("service_nodes,data_nodes,throughput_rps,"
                    "mean_latency_s,p95_latency_s,completed,failed,"
                    "availability\n")
            for sn, dn, r in rows:
                f.write(f"{sn},{dn},{r.throughput_rps:.3f},"
                        f"{r.mean_latency_s:.6f},{r.p95_latency_s:.6f},"
                        f"{r.completed},{r.failed},"
                        f"{r.availability:.6f}\n")
        print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for key, desc in _FIGS.items():
            print(f"  {key:8s} {desc}")
        return 0

    if args.command == "claims":
        from .bench import CLAIMS
        for claim in CLAIMS:
            print(f"  {claim.id}  ({claim.where}):")
            print(f"      {claim.text}")
        return 0

    if args.command == "table1":
        from .bench import figure_table1
        print(figure_table1().to_text())
        return 0

    if args.command == "chaos":
        return _run_chaos(args)

    if args.command == "geo":
        return _run_geo(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "sndn":
        return _run_sndn(args)

    if args.command == "load":
        return _run_load(args)

    if args.command == "faults":
        return _run_faults(args)

    from . import bench
    scale = (bench.PAPER_SCALE if getattr(args, "full", False)
             else bench.QUICK_SCALE)
    arrivals = None
    if getattr(args, "arrivals", None):
        from .traffic import parse_arrival_spec
        try:
            arrivals = parse_arrival_spec(args.arrivals, seed=scale.seed)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    runner = bench.FigureRunner(
        scale, backend=getattr(args, "backend", "sim"),
        jobs=getattr(args, "jobs", 1), arrivals=arrivals)
    if getattr(args, "checkpoint", None):
        from .chaos import RunCheckpoint
        runner.checkpoint = RunCheckpoint(args.checkpoint,
                                          runner.campaign_key())
    csv_dir = getattr(args, "csv", None)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "fig":
        for fig in runner.panels(args.number):
            _emit(fig, csv_dir)
        if csv_dir:
            _write_manifest(os.path.join(csv_dir, "manifest.json"),
                            scale, args.backend, f"fig{args.number}")
        return 0

    if args.command == "all":
        for fig in runner.all_figures():
            _emit(fig, csv_dir)
        if csv_dir:
            _write_manifest(os.path.join(csv_dir, "manifest.json"),
                            scale, args.backend, "all")
        return 0

    if args.command == "report":
        from .bench.reportgen import generate_report
        text = generate_report(runner)
        print(text)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        return 0

    if args.command == "audit":
        from .bench.compare import compare_to_paper, comparison_table
        rows = compare_to_paper(runner)
        print(comparison_table(rows))
        return 0 if all(row.holds for row in rows) else 1

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
