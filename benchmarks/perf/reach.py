"""Which functions and classes under ``src/`` no entry point reaches.

Every entry point a user has -- each ``repro`` command form of
docs/cli.md, every ``run:`` step of the CI workflow, the seven suite
workloads, ``examples/*.py``, ``pytest benchmarks/``, and outside wire
clients (``tests/service/test_wire_routes.py`` and
``test_wire_conformance.py``: ``repro serve`` answers any ``wire.ROUTES``
row an SDK sends) -- runs under a ``sys.setprofile`` collector, loaded
through a ``sitecustomize.py`` on ``PYTHONPATH`` so that the ``repro
serve`` child and the sweep workers are profiled too.  Whatever no entry
point executed is listed in ``REACH.json`` with the tier-1 tests that
reach it and, for what stays, the reason it stays.  Stdlib only. ::

    python3 benchmarks/perf/reach.py collect   DIR  # every entry point (~20 min on 2 CPUs)
    python3 benchmarks/perf/reach.py attribute DIR  # one tier-1 run, per-test attribution
    python3 benchmarks/perf/reach.py report    DIR  # write REACH.json from DIR's dumps
    python3 benchmarks/perf/reach.py check     DIR  # exit 1 if an unreached entry has no keep reason

An entry is a module-level function, a class, or a method of a reached
class (an unreached class is listed once, its methods with it).  A
function is reached when its code object ran: ``co_firstlineno`` is
matched against the ``def`` line and the first decorator line.  A class
is reached when one of its own methods ran, a dataclass ``__init__`` made
an instance of it, or reached code loads its name.  What ran is not all
that is called: an unreached entry whose name ``src/`` loads elsewhere
stays until its callers go, and a deleted name ``src/`` still loads needs
a ``SHARED_NAMES`` line saying which surviving definition it reaches.
"""

from __future__ import annotations

import ast
import dis
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")
LIST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "REACH.json")

# -- the entry-point catalogue --------------------------------------------
# ``{repro}`` is ``python -m repro``, ``{py}`` the interpreter, ``{repo}``
# the checkout.  Each command runs in a scratch working directory; its
# exit status is recorded, not judged (some forms exist to exit 1 or 2).

_SERVE_CLIENT = """
{repro} serve --nodes 2 --dn 2 --blob-port 0 --queue-port 0 --table-port 0 \\
    --access-log access.log --duration 25 > serve.out &
SERVE_PID=$!
for i in $(seq 1 100); do grep -q queue serve.out 2>/dev/null && break; sleep 0.2; done
sleep 1
SERVE_PID=$SERVE_PID {py} - <<'EOF'
import re
from tests.service.conftest import RawClient
from repro.service.client import ServiceConnection, wire_clients
from repro.wallclock import exhaust
out = open("serve.out").read()
ports = {s: int(p) for s, p in re.findall(r"(blob|queue|table)\\S*\\s+http://[^:]+:(\\d+)/", out)}
raw = RawClient({s: ("127.0.0.1", p) for s, p in ports.items()})
assert raw.request("blob", "PUT", "/cismoke", query={"restype": "container"})[0] == 201
raw.request("blob", "PUT", "/cismoke/hello", body=b"from ci",
            headers={"x-ms-blob-type": "BlockBlob"})
clients = wire_clients(ServiceConnection(raw.endpoints))
blob, queue, table = (clients[s] for s in ("blob", "queue", "table"))
assert exhaust(blob.download_block_blob("cismoke", "hello")).to_bytes() == b"from ci"
exhaust(queue.create_queue("cismokeq"))
exhaust(queue.put_message("cismokeq", b"hi", ttl=123.456789))
exhaust(queue.get_message("cismokeq"))
exhaust(table.create_table("cismoket"))
for row in ("r0", "r1", "a?b c%"):
    exhaust(table.insert("cismoket", "p", row, {"row": row}))
exhaust(table.query("cismoket", "PartitionKey eq 'p'", top=2))
exhaust(table.get("cismoket", "p", "a?b c%"))
clients["blob"].connection.close()
EOF
kill -INT $SERVE_PID; wait $SERVE_PID
"""

ENTRY_POINTS = [
    # docs/cli.md, one line per command form and per flag value
    ("list", "{repro} list"),
    ("claims", "{repro} claims"),
    ("table1", "{repro} table1"),
    *[(f"fig{n}", f"{{repro}} fig {n} --csv csv{n}") for n in range(4, 10)],
    ("fig4-emulator", "{repro} fig 4 --backend emulator"),
    ("fig9-geo", "{repro} fig 9 --backend geo"),
    *[(f"fig{n}-service", f"{{repro}} fig {n} --backend service") for n in (4, 6, 8)],
    ("fig6-checkpoint", "{repro} fig 6 --checkpoint ck.json --csv run1 && "
                        "{repro} fig 6 --checkpoint ck.json --csv run2"),
    ("fig6-jobs", "{repro} fig 6 --jobs 2"),
    ("fig6-arrivals-jobs", "{repro} fig 6 --arrivals poisson:25 --jobs 2 --csv a"),
    ("fig6-jobs0", "{repro} fig 6 --jobs 0"),
    ("all-arrivals", "{repro} all --arrivals poisson:25 --csv serial"),
    ("all-arrivals-jobs", "{repro} all --arrivals poisson:25 --jobs 2 --csv parallel"),
    ("report", "{repro} report --out report.txt"),
    ("audit", "{repro} audit"),
    ("trace-fig6", "{repro} trace fig6 --out t6"),
    ("trace-fig4-emulator", "{repro} trace fig4 --backend emulator --out t4"),
    ("trace-unknown", "{repro} trace fig99"),
    ("faults-list", "{repro} faults list"),
    *[(f"faults-throttle-{p}", f"{{repro}} faults run throttle-storm --policy {p}")
      for p in ("fixed", "expo-jitter", "retry-budget")],
    ("faults-failover-trace", "{repro} faults run failover --trace"),
    ("faults-unknown", "{repro} faults run no-such-profile"),
    ("chaos-fig6", "{repro} chaos fig6 --profile queue-storm --seed 7"),
    ("chaos-fig6-splice", "{repro} chaos fig6 --profile queue-storm --seed 7 --self-test-splice"),
    ("chaos-fig8", "{repro} chaos fig8 --profile table-storm --seed 11"),
    ("chaos-taskpool", "{repro} chaos taskpool --crashes 2 --seed 21"),
    ("chaos-seeds-jobs", "{repro} chaos fig6 --profile queue-storm --seeds 7,11 --jobs 2 --out m.json"),
    ("chaos-region", "{repro} chaos --profile region-outage --seeds 7,11 --out geo.json"),
    ("chaos-dn-failover", "{repro} chaos --profile dn-failover --seed 7 --dn 3 --replicas 2 "
                          "--out dn.json --windows-csv dn.csv"),
    # op-level faults on dnfailover (the failover mix under a DN kill):
    # refused, exit 2, before a cluster boots
    ("chaos-dnfailover-ops", "{repro} chaos dnfailover --profile queue-storm --seed 7 "
                             "--out dnq.json"),
    ("geo", "{repro} geo"),
    ("geo-forced", "{repro} geo --profile geo-failover --failover forced --out g.json"),
    ("geo-planned", "{repro} geo --profile geo-failover --failover planned --lag 1"),
    ("geo-splice", "{repro} geo --profile region-outage --self-test-splice"),
    ("geo-elasticity", "{repro} geo --elasticity --profile spot-eviction --out e.json"),
    ("geo-elasticity-arrival", "{repro} geo --elasticity --arrival poisson:2"),
    ("sndn", "{repro} sndn --sn 1,2 --dn 1,2 --duration 3 --csv sndn"),
    ("sndn-crash", "{repro} sndn --sn 1,2 --duration 3 --replication 2 --crash-at 1"),
    ("serve-wire-client", _SERVE_CLIENT),
    *[(f"load-{p}", f"{{repro}} load --process {p} --rate 25 --duration 10 --window 5")
      for p in ("poisson", "mmpp", "diurnal", "ramp")],
    ("load-trace-file", "printf '0.1\\n0.2\\n0.5\\n1.5\\n' > t.txt && "
                        "{repro} load --trace-file t.txt --duration 3"),
    ("load-clients", "{repro} load --clients 1000 --rate 0.5 --duration 4 --flock-size 64"),
    ("load-slo-out", "{repro} load --process poisson --rate 25 --duration 30 --window 5 "
                     "--slo 'p95=2s, err=5%' --out la"),
    ("load-mmpp-slo", "{repro} load --process mmpp --rate 20 --param on=1 --param off=3 "
                      "--duration 30 --window 5 --slo 'p95=5s' --out lm"),
    ("load-knee", "{repro} load --find-knee --mix queue --duration 6 --window 2 "
                  "--slo 'p95=120ms' --low 20 --high 400 --rel-tol 0.25 --max-probes 8 --out k"),
    *[(f"load-{b}", f"{{repro}} load --backend {b} --mix mixed --rate 20 --duration 4")
      for b in ("emulator", "geo", "service")],
    ("load-mix", "for m in queue blob table failover; do "
                 "{repro} load --mix $m --rate 2000 --duration 4; done"),
    ("load-kill-dn", "{repro} load --backend service --mix mixed --rate 25 --duration 20 "
                     "--window 5 --dn 3 --replicas 2 --kill-dn 1 --kill-at 8 --seed 5 "
                     "--slo 'err=20%' --out dk"),
    ("cli-no-scipy", "{py} -c \"import sys, repro.cli; assert 'scipy' not in sys.modules\""),
    # the frozen suite, every workload, 3 s each
    *[(f"suite-{w}", f"{{py}} {{repo}}/benchmarks/suite/run.py --workload {w} --seconds 3 "
                     f"--trace 1 > {w}.log && {{py}} {{repo}}/benchmarks/perf/check_counts.py "
                     f"{w}={w}.log")
      for w in ("des-queue-deep", "des-mixed-flat", "des-queue-overload", "paper-figs",
                "live-small-closed", "live-small-open", "live-blob-closed")],
    # examples/*.py
    *[(f"example-{name[:-3]}", f"{{py}} {{repo}}/examples/{name}")
      for name in sorted(os.listdir(os.path.join(REPO, "examples"))) if name.endswith(".py")],
    # the benchmark pytest suite, as CI runs it
    # (each pytest run gets its own --basetemp: two sessions sharing
    # /tmp/pytest-of-<user> delete each other's directories)
    ("pytest-benchmarks", "{py} -m pytest {repo}/benchmarks -x -q --jobs 2 -p no:cacheprovider "
                          "--basetemp=pytest-tmp"),
    # outside SDKs: any ROUTES row a client may send
    ("wire-clients", "{py} -m pytest {repo}/tests/service/test_wire_routes.py "
                     "{repo}/tests/service/test_wire_conformance.py -q -p no:cacheprovider "
                     "--basetemp=pytest-tmp"),
]

# -- keep reasons ----------------------------------------------------------
# An unreached entry that stays says why: an error or fault path, an op
# an outside client may send, an abstract method, a documented name or a
# test oracle.  A key is an entry id (``module:Qual.name``),
# ``module:Class.*`` for a class's methods, or ``module:`` for a whole
# module.  Names docs/api-guide.md imports, and their methods, are added
# by ``keep_reasons``.

_ERROR = "error or fault path: runs when a request, a node or a run fails"
_ROUTE = ("registry op (or the state op behind one): every client -- sim, emulator, "
          "and the wire for a ROUTES row -- derives it; ROADMAP's parked "
          "'Full SDK interop' (leases, snapshots, batches) builds on it")
_ABSTRACT = "abstract: the interface its subclasses implement"
_SIMKIT = ("simkit's SimPy-model API: docs/api-guide.md's Environment, Resource "
           "and Store hand these out")
_ORACLE = "test oracle: tier-1 tests read the state through it"
_DOCS = "documented API: docs/observability.md shows it"

KEEP = {
    # error and fault paths
    "repro.backend:_ServiceShimAccount.cache_client": _ERROR,
    "repro.chaos.runner:_crash_verdict": _ERROR,
    "repro.chaos.verdict:ChaosRunError.__init__": _ERROR,
    "repro.chaos.invariants:_PageBlobReplay.__init__": _ERROR,
    "repro.cluster.servers:PartitionServer.cancel": _ERROR + " (a recycled role's booking)",
    "repro.emulator.clients:EmulatorAccount.set_fault_plan": _ERROR,
    "repro.framework.taskpool:TaskPoolConfig.poison_queue_name": _ERROR,
    "repro.resilience.deadline:Deadline.*": _ERROR,
    "repro.service.client:ServiceConnection._drop": _ERROR,
    "repro.service.cluster:ServiceCluster.drain_data_node": _ERROR,
    "repro.service.cluster:ClusterRunner.drain_data_node": _ERROR,
    "repro.service.datanode:_resume": _ERROR + " (the DN stall trampoline)",
    "repro.service.datanode:_finish": _ERROR + " (the DN stall trampoline)",
    "repro.service.datanode:_deliver": _ERROR + " (the DN stall trampoline)",
    "repro.service.datanode:DataNode._park": _ERROR + " (the DN stall trampoline)",
    "repro.service.datanode:_fabric_export_queue": _ERROR + " (shard migration)",
    "repro.service.datanode:_fabric_import_queue": _ERROR + " (shard migration)",
    "repro.service.membership:Membership.allow_hedge": _ERROR,
    "repro.service.membership:Membership.drain": _ERROR,
    "repro.service.servicenode:ServiceNode._framing_error": _ERROR,
    "repro.service.servicenode:ServiceNode._no_owner": _ERROR,
    "repro.simkit.environment:Environment._reraise": _ERROR,
    "repro.simkit.environment:Environment.cancel": _ERROR + " (a recycled role's booking)",
    "repro.simkit.environment:Environment.reschedule": _ERROR + " (a recycled role's booking)",
    "repro.simkit.exceptions:": _ERROR,
    "repro.storage.errors:": _ERROR,
    # what an outside client may send
    "repro.pipeline.registry:": _ROUTE,
    "repro.storage.table.filters:_or_pred": _ROUTE,
    "repro.storage.table.filters:_and_pred": _ROUTE,
    "repro.storage.table.filters:_not_pred": _ROUTE,
    "repro.storage.content:ZeroContent.slice": _ROUTE + " (a ranged read slices content)",
    "repro.storage.content:CompositeContent.slice": _ROUTE + " (a ranged read slices content)",
    "repro.storage.blob.state:BlobProperties": _ROUTE,
    "repro.storage.blob.state:BlobSnapshot": _ROUTE,
    "repro.storage.blob.state:_BlobBase.release_lease": _ROUTE,
    "repro.storage.blob.state:_BlobBase.break_lease": _ROUTE,
    "repro.storage.blob.state:_BlobBase.lease_state": _ROUTE,
    "repro.storage.blob.state:_BlobBase.set_metadata": _ROUTE,
    "repro.storage.blob.state:_BlobBase.snapshot": _ROUTE,
    "repro.storage.blob.state:_BlobBase.get_snapshot": _ROUTE,
    "repro.storage.blob.state:_BlobBase.delete_snapshot": _ROUTE,
    "repro.storage.blob.state:_BlobBase.list_snapshots": _ROUTE,
    "repro.storage.blob.state:_BlobBase.properties": _ROUTE,
    "repro.storage.blob.state:BlockBlobState.block_ids": _ROUTE,
    "repro.storage.blob.state:BlockBlobState.get_block_by_id": _ROUTE,
    "repro.storage.blob.state:BlockBlobState.read_range": _ROUTE,
    "repro.storage.blob.state:PageBlobState.clear_pages": _ROUTE,
    "repro.storage.blob.state:PageBlobState.get_page_ranges": _ROUTE,
    "repro.storage.blob.state:BlobServiceState.delete_container": _ROUTE,
    "repro.storage.blob.state:BlobServiceState.list_containers": _ROUTE,
    "repro.storage.cache.state:": _ROUTE,
    "repro.storage.queue.state:QueueState.update_message": _ROUTE,
    "repro.storage.queue.state:QueueServiceState.list_queues": _ROUTE,
    "repro.storage.table.state:TableState.insert_or_merge": _ROUTE,
    "repro.storage.table.state:TableState.execute_batch": _ROUTE,
    "repro.storage.table.state:TableState._apply_batch_op": _ROUTE,
    "repro.storage.table.state:TableServiceState.delete_table": _ROUTE,
    # interfaces
    "repro.backend:Backend.run": _ABSTRACT,
    "repro.pipeline.interceptors:Interceptor.*": _ABSTRACT,
    "repro.resilience.policy:RetryPolicy.backoff": _ABSTRACT,
    "repro.storage.clock:Clock": _ABSTRACT,
    "repro.storage.content:Content.*": _ABSTRACT,
    "repro.storage.blob.state:_BlobBase._content_view": _ABSTRACT,
    "repro.storage.blob.state:_BlobBase.size": _ABSTRACT,
    "repro.traffic.arrivals:": _ABSTRACT + " (rate_at, expected_count)",
    # docs/api-guide.md and docs/observability.md
    "repro.simkit.events:": _SIMKIT,
    "repro.simkit.process:": _SIMKIT,
    "repro.simkit.resources:": _SIMKIT,
    "repro.analysis.scaling:USLFit.predict": "docs/api-guide.md's fit_usl returns it",
    "repro.observability.buffer:TraceBuffer.to_jsonl": _DOCS,
    "repro.observability.buffer:TraceBuffer.write_jsonl": _DOCS,
    "repro.observability.buffer:TraceBuffer.to_chrome": _DOCS,
    "repro.observability.buffer:TraceBuffer.write_chrome": _DOCS,
    "repro.observability.span:Span.to_dict": _DOCS + " (write_jsonl's rows)",
    # test oracles
    "repro.bench.paper:qualitative_claims": _ORACLE,
    "repro.chaos.checkpoint:RunCheckpoint.labels": _ORACLE,
    "repro.chaos.checkpoint:RunCheckpoint.__contains__": _ORACLE,
    "repro.chaos.ledger:QueueLedger.queues": _ORACLE,
    "repro.chaos.ledger:QueueLedger.acked_puts": _ORACLE,
    "repro.chaos.runner:chaos_workloads": _ORACLE,
    "repro.cluster.servers:PartitionServer.queue_length": _ORACLE,
    "repro.cluster.servers:ServerPool.servers": _ORACLE,
    "repro.cluster.servers:ServerPool.__len__": _ORACLE,
    "repro.compute.deployment:Deployment.statuses": _ORACLE,
    "repro.compute.deployment:Deployment.completed": _ORACLE,
    "repro.compute.deployment:Deployment.failed_instances": _ORACLE,
    "repro.compute.deployment:Deployment.restart_instance": _ORACLE,
    "repro.compute.endpoints:": _ORACLE,
    "repro.compute.supervisor:Supervisor.restarts_for": _ORACLE,
    "repro.compute.vmsizes:VMSize.*": _ORACLE + " (Table I as the paper prints it)",
    "repro.core.metrics:PhaseStats.ops_per_s": _ORACLE,
    "repro.core.metrics:BenchResult.has_phase": _ORACLE,
    "repro.core.metrics:BenchResult.all_stats": _ORACLE,
    "repro.faults.plan:FaultPlan.__len__": _ORACLE,
    "repro.geo.account:GeoAccount.last_sync_time": _ORACLE,
    "repro.geo.account:GeoAccount.secondary_queue_client": _ORACLE,
    "repro.geo.replication:ReplicationLog.__iter__": _ORACLE,
    "repro.observability.buffer:TraceBuffer.digest": _ORACLE,
    "repro.observability.histogram:Histogram.__eq__": _ORACLE,
    "repro.observability.histogram:HistogramSet.get": _ORACLE,
    "repro.observability.span:Span.ok": _ORACLE,
    "repro.observability.span:Span.to_tuple": _ORACLE,
    "repro.observability.tracer:Tracer.digest": _ORACLE,
    "repro.pipeline.interceptors:Pipeline.remove": _ORACLE,
    "repro.pipeline.interceptors:Pipeline.stages": _ORACLE,
    "repro.pipeline.interceptors:Pipeline.__len__": _ORACLE,
    "repro.service.membership:Membership.state": _ORACLE,
    "repro.service.ring:HashRing.nodes": _ORACLE,
    "repro.storage.analytics:": _ORACLE,
    "repro.storage.content:BytesContent.__repr__": _ORACLE,
    "repro.storage.content:SyntheticContent.seed": _ORACLE,
    "repro.storage.content:CompositeContent.parts": _ORACLE,
    "repro.storage.blob.state:_BlobBase.partition_key": _ORACLE,
    "repro.storage.blob.state:BlockBlobState._content_view": _ORACLE,
    "repro.storage.blob.state:PageBlobState.size": _ORACLE,
    "repro.storage.blob.state:PageBlobState._content_view": _ORACLE,
    "repro.storage.blob.state:ContainerState.__len__": _ORACLE,
    "repro.storage.blob.state:BlobServiceState.iter_blobs": _ORACLE,
    "repro.storage.blob.state:BlobServiceState.total_bytes": _ORACLE,
    "repro.storage.queue.state:QueueState.visible_message_count": _ORACLE,
    "repro.storage.queue.state:QueueState.partition_key": _ORACLE,
    "repro.storage.queue.state:QueueState.__len__": _ORACLE,
    "repro.storage.queue.state:QueueServiceState.total_bytes": _ORACLE,
    "repro.storage.table.entity:Entity.*": _ORACLE,
    "repro.storage.table.state:QueryResult.__iter__": _ORACLE,
    "repro.storage.table.state:TableState.total_bytes": _ORACLE,
    "repro.storage.table.state:TableState.__len__": _ORACLE,
    "repro.storage.table.state:TableServiceState.total_bytes": _ORACLE,
    "repro.traffic.slo:WindowViolation.to_dict": _ORACLE,
    "repro.traffic.stats:_Window.eq_exact": _ORACLE + " (the one-at-a-time oracle == record_chunk)",
    "repro.traffic.stats:StatsAggregator.__eq__": _ORACLE + " (the one-at-a-time oracle == record_chunk)",
    "repro.workloads.ycsb:ZipfianGenerator.sample": _ORACLE,
}

# Unreached code that left src/ for tests/, where it is a test rig.
MOVED = {
    "repro.observability.tracer:phase_totals":
        "tests/observability/test_reconciliation.py: the span-side rollup it checks",
    "repro.traffic.stats:StatsAggregator.record":
        "tests/traffic/stats_oracle.py: the one-at-a-time fold record_chunk is held to",
}


# -- the probe (runs inside every profiled process) -------------------------

def install() -> None:
    """Start collecting; ``sitecustomize`` calls this in every process."""
    out, root = os.environ.get("REACH_OUT"), os.environ.get("REACH_SRC")
    if not out or not root:
        return
    import atexit
    import threading

    cut = len(root) + 1
    hits = {}
    box = [None, None]

    def switch(test):
        box[0], box[1] = {}, hits.setdefault(test, set())

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        seen = box[0]
        if id(code) in seen:
            return
        seen[id(code)] = code
        name = code.co_filename
        if name.startswith(root):
            box[1].add((name[cut:], code.co_firstlineno, code.co_name))
        elif name == "<string>" and code.co_name == "__init__":
            kind = type(frame.f_locals.get("self"))
            if kind.__module__.startswith("repro."):
                box[1].add((kind.__module__, 0, kind.__qualname__))

    def dump():
        path = os.path.join(out, f"{os.getpid()}-{time.time_ns()}.json")
        with open(path, "w") as f:
            json.dump({"argv": sys.argv,
                       "hits": {t: sorted(h) for t, h in hits.items() if h}}, f)

    real_exit = os._exit

    def exit_after_dump(code):
        dump()
        real_exit(code)

    switch(os.environ.get("REACH_TEST", ""))
    os._exit = exit_after_dump
    atexit.register(dump)
    # pytest-benchmark switches a profiler off around ``pedantic`` when
    # ``getprofile`` names one; report none so the collector stays on.
    sys.getprofile = _no_profiler
    sys.setprofile(profile)
    threading.setprofile(profile)
    _PROBE["switch"] = switch


_PROBE = {}


def _no_profiler():
    return None


def pytest_runtest_logstart(nodeid, location):
    """Per-test attribution: a test's hits go to its node id (its
    subprocesses inherit the id through ``REACH_TEST``)."""
    if "switch" in _PROBE:
        os.environ["REACH_TEST"] = nodeid
        _PROBE["switch"](nodeid)


# -- running the catalogue --------------------------------------------------

def _site(out: str) -> str:
    site = os.path.join(out, "site")
    os.makedirs(site, exist_ok=True)
    with open(os.path.join(site, "sitecustomize.py"), "w") as f:
        f.write("import importlib.util, sys\n"
                f"spec = importlib.util.spec_from_file_location('reach', {os.path.abspath(__file__)!r})\n"
                "reach = importlib.util.module_from_spec(spec)\n"
                "sys.modules['reach'] = reach\n"
                "spec.loader.exec_module(reach)\n"
                "reach.install()\n")
    return site


def _env(out: str, dumps: str) -> dict:
    env = dict(os.environ)
    env.update(REACH_OUT=dumps, REACH_SRC=os.path.join(SRC, "repro"),
               PYTHONPATH=os.pathsep.join([_site(out), SRC, REPO]))
    env.pop("REACH_TEST", None)
    return env


def _snapshot(out: str) -> None:
    """Keep the profiled tree: the dumps name its lines."""
    target = os.path.join(out, "src", "repro")
    if not os.path.isdir(target):
        shutil.copytree(os.path.join(SRC, "repro"), target,
                        ignore=shutil.ignore_patterns("__pycache__"))


def collect(out: str, jobs: int = 2) -> None:
    dumps = os.path.join(out, "entry")
    os.makedirs(dumps, exist_ok=True)
    _snapshot(out)
    env = _env(out, dumps)
    fill = {"repro": f"{sys.executable} -m repro", "py": sys.executable, "repo": REPO}

    def run(entry):
        name, command = entry
        work = tempfile.mkdtemp(prefix=f"{name}-", dir=out)
        start = time.monotonic()
        for key, value in fill.items():
            command = command.replace(f"{{{key}}}", value)
        proc = subprocess.run(["bash", "-c", command], cwd=work, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        seconds = round(time.monotonic() - start, 1)
        print(f"{name:28s} exit {proc.returncode}  {seconds:7.1f} s", flush=True)
        record = {"name": name, "command": entry[1], "exit": proc.returncode,
                  "seconds": seconds}
        if proc.returncode:
            record["tail"] = proc.stdout[-600:]
        return record

    # longest first, so two workers finish together
    order = sorted(ENTRY_POINTS, key=lambda e: ("service" not in e[0] and "pytest" not in e[0]
                                                and "all-" not in e[0]))
    with ThreadPoolExecutor(jobs) as pool:
        runs = list(pool.map(run, order))
    with open(os.path.join(out, "entry_points.json"), "w") as f:
        json.dump(runs, f, indent=1)


def attribute(out: str) -> None:
    dumps = os.path.join(out, "tests")
    os.makedirs(dumps, exist_ok=True)
    _snapshot(out)
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "reach",
                    "-p", "no:cacheprovider"], cwd=REPO, env=_env(out, dumps), check=False)


def _read(path: str):
    with open(path) as f:
        return json.load(f)


def _load(dumps: str) -> dict:
    """test id (or "") -> set of hit keys, over every dump in DIR."""
    merged = {}
    for name in sorted(os.listdir(dumps)):
        if name.endswith(".json"):
            for test, hits in _read(os.path.join(dumps, name))["hits"].items():
                merged.setdefault(test, set()).update(map(tuple, hits))
    return merged


# -- the src/ inventory -----------------------------------------------------

class Entry:
    def __init__(self, path, qualname, node, parent=None):
        self.path, self.qualname, self.node, self.parent = path, qualname, node, parent
        self.is_class = isinstance(node, ast.ClassDef)
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = node.end_lineno - first + 1
        self.starts = {node.lineno, first}
        self.methods = []

    @property
    def module(self) -> str:
        return "repro." + self.path[:-3].replace("/", ".").replace(".__init__", "")

    @property
    def id(self) -> str:
        return f"{self.module}:{self.qualname}"


def inventory(src: str = SRC) -> list:
    entries = []
    root = os.path.join(src, "repro")
    for folder, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.relpath(os.path.join(folder, name), root)
            with open(os.path.join(root, path)) as f:
                tree = ast.parse(f.read())

            def visit(body, prefix, parent):
                for node in body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        entry = Entry(path, prefix + node.name, node, parent)
                        entries.append(entry)
                        if parent is not None and not entry.is_class:
                            parent.methods.append(entry)
                        if entry.is_class:
                            visit(node.body, entry.qualname + ".", entry)
            visit(tree.body, "", None)
    return entries


def _loaded_names(reached: set, src: str) -> set:
    """Names that reached ``src/`` code loads (a class used by name)."""
    loads = {"LOAD_GLOBAL", "LOAD_NAME", "LOAD_ATTR", "LOAD_METHOD", "LOAD_DEREF"}
    names = set()
    root = os.path.join(src, "repro")
    for path in {key[0] for key in reached if key[1]}:
        with open(os.path.join(root, path)) as f:
            stack = [compile(f.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if (path, code.co_firstlineno, code.co_name) in reached:
                names.update(i.argval for i in dis.get_instructions(code) if i.opname in loads)
    return names


def unreached(entries: list, reached: set, src: str = SRC) -> list:
    """Entries no key in REACHED covers: functions by code, classes by use."""
    made = {f"{key[0]}:{key[2]}" for key in reached if key[1] == 0}
    names = _loaded_names(reached, src)

    def hit(entry):
        if entry.is_class:
            return (any(hit(m) for m in entry.methods) or entry.id in made
                    or entry.node.name in names)
        return any((entry.path, line, entry.node.name) in reached for line in entry.starts)

    out = []
    for entry in entries:
        parent = entry.parent
        if parent is not None and not hit(parent):
            continue  # listed with its class
        if not hit(entry):
            out.append(entry)
    return out


# -- names src/ still loads ------------------------------------------------
# The profile says what ran, not what is called: a branch no entry point
# took can still call an unreached method.  So an unreached entry whose
# name src/ loads elsewhere stays (``_NAMED``) until its callers go, and a
# deleted one whose name src/ still loads needs a SHARED_NAMES line saying
# which surviving definition those loads reach.

_NAMED = ("named in src/: code no entry point ran calls it (or a namesake); "
          "its callers go first")

_HISTOGRAM = "the .{} loads in src/ are Histogram's and HistogramSet's"
_DESCRIBE = "the .describe() loads in src/ are the clusters', schedules' and campaigns'"
_FAULT_PLAN = ("the .set_fault_plan loads in src/ are the sim cluster's, the emulator's "
               "and GeoAccount's")
SHARED_NAMES = {
    "repro.chaos.ledger:QueueLedger.merge": _HISTOGRAM.format("merge"),
    "repro.chaos.ledger:QueueLedger.observe": _HISTOGRAM.format("observe"),
    "repro.geo.ledger:GeoLedger.merge": _HISTOGRAM.format("merge"),
    "repro.geo.ledger:GeoLedger.observe": _HISTOGRAM.format("observe"),
    "repro.traffic.stats:StatsAggregator.merge": _HISTOGRAM.format("merge"),
    "repro.traffic.stats:_Window.merge": _HISTOGRAM.format("merge"),
    "repro.service.membership:Membership.describe": _DESCRIBE,
    "repro.service.ring:HashRing.describe": _DESCRIBE,
    "repro.traffic.slo:WindowViolation.describe": _DESCRIBE,
    "repro.service.ring:HashRing.primary": "the .primary loads in src/ are GeoAccount.primary",
    "repro.geo.account:GeoAccount.lost_records":
        "the .lost_records loads in src/ are GeoController.lost_records",
    "repro.storage.analytics:ResilienceSummary.to_text":
        "the .to_text() loads in src/ are FigureData's",
    "repro.chaos.ledger:QueueLedger.empty": "the .empty loads in src/ are numpy's and inspect's",
    "repro.geo.ledger:GeoLedger.empty": "the .empty loads in src/ are numpy's and inspect's",
    "repro.observability.span:Span.faults":
        "the .faults loads in src/ are chaos.history.OpRecord's field",
    "repro.service.cluster:ServiceCluster.set_fault_plan": _FAULT_PLAN,
    "repro.service.datanode:DataNode.set_fault_plan": _FAULT_PLAN,
    "repro.service.cluster:ClusterRunner.wait_settled":
        "the .wait_settled loads in src/ are Membership.wait_settled",
    "repro.pipeline.executors:_settle": "the ._settle loads in src/ are ServiceNode._settle",
    "repro.traffic.engine:LoadResult.windows_csv":
        "the .windows_csv loads in src/ are repro chaos's --windows-csv option",
    "repro.traffic.stats:StatsAggregator.record":
        "the .record loads in src/ are chaos.history.History.record",
}


def named_sites(src: str = SRC) -> tuple:
    """Where ``src/`` loads each name: ``(attributes, globals)``, each
    ``name -> ["path:line", ...]``.  An attribute is ``x.name`` or the
    string given to ``getattr``/``hasattr``; a global is a bare name, an
    imported name, or an ``__all__`` string."""
    attrs, names = {}, {}
    root = os.path.join(src, "repro")
    for folder, _, files in sorted(os.walk(root)):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.relpath(os.path.join(folder, file), root)
            with open(os.path.join(root, path)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                found, where = [], attrs
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    found = [node.attr]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    found = [node.args[1].value]
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found, where = [node.id], names
                elif isinstance(node, ast.ImportFrom):
                    found, where = [a.name for a in node.names], names
                elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                      and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                    found, where = [e.value for e in node.value.elts
                                    if isinstance(e, ast.Constant)], names
                for word in found:
                    where.setdefault(word, []).append(f"{path}:{node.lineno}")
    return attrs, names


def named_at(entry_path: str, qualname: str, sites: tuple, span=None) -> list:
    """The sites loading the entry's name: attribute loads for a method,
    any load for a module-level name; none for dunders, which the
    interpreter calls.  ``span`` (first, last line) skips its own body."""
    name = qualname.rsplit(".", 1)[-1]
    if name.startswith("__") and name.endswith("__"):
        return []
    attrs, names = sites
    found = attrs.get(name, []) + ([] if "." in qualname else names.get(name, []))
    if span is not None:
        first, last = span
        found = [s for s in found if not (s.rsplit(":", 1)[0] == entry_path
                                          and first <= int(s.rsplit(":", 1)[1]) <= last)]
    return sorted(set(found))


def keep_reasons() -> dict:
    keep = dict(KEEP)
    with open(os.path.join(REPO, "docs", "api-guide.md")) as f:
        text = f.read()
    for stmt in ast.walk(ast.parse("\n".join(_import_lines(text)))):
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                keep.setdefault(f"{stmt.module}:{alias.name}",
                                "docs/api-guide.md imports it")
    return keep


def _import_lines(text: str) -> list:
    """The ``from repro... import ...`` statements of a markdown file,
    parenthesised continuations included."""
    lines, out, open_ = text.splitlines(), [], None
    for line in lines:
        if open_ is not None:
            open_.append(line)
            if ")" in line:
                out.append(" ".join(open_))
                open_ = None
        elif line.startswith("from repro") and " import " in line:
            if "(" in line and ")" not in line:
                open_ = [line]
            else:
                out.append(line)
    return out


def _resolve(keep: dict, entries: list) -> dict:
    """Map a re-exported name (``repro.simkit:Environment``) onto the
    entry that defines it."""
    by_name = {}
    for entry in entries:
        by_name.setdefault(entry.qualname, []).append(entry)
    resolved = {}
    for key, reason in keep.items():
        module, name = key.split(":")
        matches = [e for e in by_name.get(name, []) if e.module.startswith(module)]
        for entry in matches:
            resolved.setdefault(entry.id, reason)
        if not matches:
            resolved.setdefault(key, reason)
    return resolved


def _reason(entry, keep: dict, sites: tuple):
    """The keep reason for ENTRY: its own, its class's (``Class.*``), its
    module's (``module:``), or that src/ still names it."""
    parent = entry.parent
    for key in (entry.id, parent and f"{parent.id}.*", f"{entry.module}:"):
        if key and key in keep:
            return keep[key]
    if parent is not None and parent.id in keep and "api-guide" in keep[parent.id]:
        return f"a method of {parent.qualname}, which docs/api-guide.md imports"
    first = min([entry.node.lineno] + [d.lineno for d in entry.node.decorator_list])
    if named_at(entry.path, entry.qualname, sites, (first, entry.node.end_lineno)):
        return _NAMED
    return None


def unchecked_deletions(deleted: list, src: str = SRC) -> dict:
    """Deleted ids whose name ``src/`` still loads with no SHARED_NAMES
    line: ``id -> sites``.  Each is a caller left behind, or a namesake
    to record."""
    sites = named_sites(src)
    out = {}
    for entry_id in deleted:
        found = named_at("", entry_id.split(":")[1], sites)
        if found and entry_id not in SHARED_NAMES:
            out[entry_id] = found
    return out


def report(out: str, write: bool = True) -> list:
    """Match the dumps against the tree that was profiled (``DIR/src``,
    snapshot by ``collect``); what is gone from ``src/`` since is listed
    as deleted, what is still there with its keep reason."""
    profiled = os.path.join(out, "src")
    if not os.path.isdir(profiled):
        profiled = SRC
    entries = inventory(profiled)
    current = {e.id for e in inventory(SRC)}
    reached = set().union(*_load(os.path.join(out, "entry")).values())
    missing = unreached(entries, reached, profiled)
    tests = _load(os.path.join(out, "tests")) if os.path.isdir(os.path.join(out, "tests")) else {}
    keep = _resolve(keep_reasons(), entries)
    sites = named_sites(SRC)
    functions = [e for e in entries if not e.is_class]

    def row_of(entry) -> dict:
        if entry.is_class:  # not its body: that runs on import
            keys = {(m.path, line, m.node.name) for m in entry.methods for line in m.starts}
            keys.add((entry.module, 0, entry.qualname))
        else:
            keys = {(entry.path, line, entry.node.name) for line in entry.starts}
        return {"id": entry.id, "kind": "class" if entry.is_class else "function",
                "lines": entry.lines,
                "tests": sorted(t for t, hits in tests.items() if t and keys & hits)}

    rows, deleted = [], []
    for entry in missing:
        row = row_of(entry)
        if entry.id not in current:
            deleted.append(row)
            continue
        reason = _reason(entry, keep, sites)
        if reason:
            row["keep"] = reason
        rows.append(row)
    summary = {
        "entries": len(entries),
        "functions": len(functions),
        "function_lines": sum(e.lines for e in functions),
        "unreached": len(rows) + len(deleted),
        "unreached_lines": sum(r["lines"] for r in rows + deleted),
        "deleted": len(deleted),
        "deleted_lines": sum(r["lines"] for r in deleted),
        "kept": sum("keep" in r for r in rows),
        "kept_lines": sum(r["lines"] for r in rows if "keep" in r),
    }
    # Gone although an entry point ran it: the change took its callers.
    listed = {r["id"] for r in deleted}
    deleted += [dict(row_of(e), reached=True) for e in entries
                if e.id not in current and e.id not in listed
                and (e.parent is None or e.parent.id in current)]
    if os.path.exists(LIST):
        # What an earlier report recorded as deleted stays recorded: the
        # profiled tree no longer holds it.
        profiled_ids = {e.id for e in entries}
        deleted = [r for r in _read(LIST)["deleted"]
                   if r["id"] not in profiled_ids] + deleted
    for row in deleted:
        if row["id"] in MOVED:
            row["moved"] = MOVED[row["id"]]
        if row["id"] in SHARED_NAMES:
            row["namesake"] = SHARED_NAMES[row["id"]]
    for entry_id, found in unchecked_deletions([r["id"] for r in deleted]).items():
        print(f"deleted, yet src/ still names it: {entry_id} at {', '.join(found[:5])}")
    runs_path = os.path.join(out, "entry_points.json")
    if write:
        document = {
            "about": "src/ functions and classes that no entry point executes "
                     "(benchmarks/perf/reach.py): 'unreached' is what stays, each with "
                     "the reason it stays; 'deleted' is what went, this report's and "
                     "every earlier one's, with the tier-1 tests that reached it "
                     "('reached' if an entry point ran it and the change took its "
                     "callers, 'moved' if it went to tests/, 'namesake' if src/ still "
                     "loads its name and what those loads reach); 'summary' counts "
                     "this report's unreached entries only",
            "host": {"python": sys.version.split()[0], "cpus": os.cpu_count()},
            "summary": summary,
            "entry_points": _read(runs_path) if os.path.exists(runs_path) else [],
            "unreached": rows,
            "deleted": deleted,
        }
        with open(LIST, "w") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
    print(json.dumps(summary))
    return rows


def check(out: str) -> int:
    collect(out)
    rows = report(out, write=False)
    loose = [r["id"] for r in rows if "keep" not in r]
    for name in loose:
        print(f"unreached, no keep reason: {name}")
    return 1 if loose else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in ("collect", "attribute", "report", "check"):
        print(__doc__)
        return 2
    command, out = argv
    os.makedirs(out, exist_ok=True)
    out = os.path.abspath(out)
    if command == "collect":
        collect(out)
    elif command == "attribute":
        attribute(out)
    elif command == "report":
        report(out)
    else:
        return check(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
