"""The three live workloads: real sockets against a ``repro serve`` child.

The system under test is a separate ``python -m repro serve --nodes 1
--dn 2`` process (throttles on); the load generator is this process with
two keep-alive :class:`~repro.service.client.ServiceConnection` threads.
One *segment* boots a fresh server, creates and preloads its resources,
warms up, measures, and stops the server; a run is three segments, so
set-up time is a median over three servers.  A closed loop is measured
in windows of half a second, with the run's reference slices taken
between them while the server idles.

Server hygiene: ports are ephemeral and parsed from the banner,
``--duration`` is a watchdog that ends an orphan by itself, every server
is terminated and waited for in ``finally`` (and again from ``atexit``),
and each request has a socket timeout so a hung server fails the
workload instead of hanging the benchmark.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_mod
import re
import select
import string
import subprocess
import sys
import threading
import time
import zlib
from random import Random
from typing import Callable, Dict, List, Optional, Set, Tuple

from measure import SRC, proc_cpu_seconds, proc_peak_rss_mb

#: Closed loops and the open-loop worker pool both use this many
#: connections: the host's core count, one of which the server needs.
CONNECTIONS = 2
#: Poisson arrival rate of ``live-small-open``: about 40% of what the
#: closed loop sustains on the reference host.
OPEN_RATE = 400.0
#: ``live-small-open`` latency limit on p95, from each op's due instant.
OPEN_LIMIT_MS = 20.0
REQUEST_TIMEOUT_S = 5.0
BOOT_TIMEOUT_S = 30.0
WARMUP_S = 0.7
SEGMENTS = 3
#: A closed loop is measured this many seconds at a time.
WINDOW_S = 0.5
#: Measured stream positions start here (a multiple of the eight-step
#: cycle), past anything the warm-up used, and each window starts this
#: far past the one before it (more than it can send), so message ids
#: stay unique.
MEASURED_BASE = 10 ** 6
WINDOW_STRIDE = 8000

QUEUES = 8
PARTITIONS = 16
SMALL_PAYLOAD = 4096
BLOBS = 8
BLOB_BYTES = 1 << 20

_BANNER = re.compile(r"(blob|queue|table) http://([\d.]+):(\d+)/")
_LIVE_SERVERS: Set[Server] = set()


def _stop_leftovers() -> None:
    for server in list(_LIVE_SERVERS):
        server.stop()


atexit.register(_stop_leftovers)


class Server:
    """One ``repro serve`` child process with parsed endpoints."""

    def __init__(self, watchdog_s: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--nodes", "1",
             "--dn", "2", "--host", "127.0.0.1",
             "--duration", f"{watchdog_s:g}"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        _LIVE_SERVERS.add(self)
        self.endpoints: Dict[str, Tuple[str, int]] = {}
        try:
            self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> None:
        """Read stdout until the "serving" line, with a deadline."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        seen = b""
        while b"serving" not in seen:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError("repro serve did not announce in time")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"repro serve exited during boot "
                    f"(code {self.proc.wait(timeout=5)})")
            seen += chunk
        for service, host, port in _BANNER.findall(seen.decode("utf-8")):
            self.endpoints[service] = (host, int(port))
        if set(self.endpoints) != {"blob", "queue", "table"}:
            raise RuntimeError(f"could not parse endpoints from {seen!r}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Terminate and reap; idempotent."""
        proc = self.proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
        _LIVE_SERVERS.discard(self)


def _drive(gen):
    """Exhaust a never-yielding wire-client shim to its return value."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


#: One request of an op script: (client kind, method, args, kwargs).
Call = Tuple[str, str, tuple, dict]


def perform(script, call: Callable[..., object]) -> int:
    """Drive one op script: ``call`` performs each request it yields and
    its result is sent back in; returns the bytes the script verified."""
    try:
        step = next(script)
        while True:
            step = script.send(call(*step))
    except StopIteration as stop:
        return stop.value


class Clients:
    """One connection's three registry clients."""

    def __init__(self, endpoints) -> None:
        from repro.service import (DEV_ACCOUNT, DEV_KEY, ServiceConnection,
                                   WireBlobClient, WireQueueClient,
                                   WireTableClient)
        self.conn = ServiceConnection(endpoints, DEV_ACCOUNT, DEV_KEY,
                                      timeout=REQUEST_TIMEOUT_S)
        self.by_kind = {"queue": WireQueueClient(self.conn),
                        "table": WireTableClient(self.conn),
                        "blob": WireBlobClient(self.conn)}

    def call(self, kind: str, op: str, args: tuple, kwargs: dict):
        return _drive(getattr(self.by_kind[kind], op)(*args, **kwargs))

    def close(self) -> None:
        self.conn.close()


class SmallOps:
    """4 KiB queue and table operations, interleaved one for one.

    Stream position ``j`` on lane ``lane`` selects one step of an
    eight-step cycle: queue put, table upsert, queue put, table get,
    queue peek, table upsert, queue get+delete, table get.  Queues and
    partitions rotate every cycle and the second lane starts half-way
    round, so no queue sees more than a few dozen ops per second and
    no per-queue or per-partition target is reached.

    Every response is checked: a got or peeked message carries an id
    that was put, a read entity carries a value that was written.
    """

    def __init__(self, seed: int) -> None:
        rng = Random(f"{seed}:small")
        self.text = "".join(rng.choice(string.ascii_letters)
                            for _ in range(SMALL_PAYLOAD - 13))
        self.filler = self.text.encode("ascii")
        #: Ids are added before the request is sent, so a concurrent
        #: reader on the other connection can never see an unknown one.
        self.put_ids: Set[int] = set()
        self.written: Set[int] = set()

    def prepare(self) -> List[Call]:
        calls: List[Call] = [("queue", "create_queue", (f"suiteq{q}",), {})
                             for q in range(QUEUES)]
        calls.append(("table", "create_table", ("suitet",), {}))
        for p in range(PARTITIONS):
            self.written.add(-1 - p)
            calls.append(("table", "insert_or_replace",
                          ("suitet", f"part{p}", "row",
                           {"v": self._value(-1 - p)}), {}))
        return calls

    def _value(self, ident: int) -> str:
        return f"{ident:012d}|{self.text}"

    def _check_message(self, msg) -> int:
        if msg is None:
            return 0
        body = msg.content.to_bytes()
        if (len(body) != SMALL_PAYLOAD
                or int(body[:12]) not in self.put_ids):
            raise AssertionError(f"message {msg.message_id} was never put")
        return SMALL_PAYLOAD

    def script(self, lane: int, j: int):
        """Step ``j``: yield its requests, return the bytes verified."""
        cycle, step = divmod(j, 8)
        ident = lane * 10 ** 9 + j
        if step in (0, 2, 4, 6):
            name = f"suiteq{(cycle + lane * (QUEUES // 2)) % QUEUES}"
            if step in (0, 2):
                self.put_ids.add(ident)
                body = f"{ident:012d}|".encode("ascii") + self.filler
                yield ("queue", "put_message", (name, body), {})
                return SMALL_PAYLOAD
            if step == 4:
                msg = yield ("queue", "peek_message", (name,), {})
                return self._check_message(msg)
            msg = yield ("queue", "get_message", (name,),
                         {"visibility_timeout": 3600.0})
            nbytes = self._check_message(msg)
            if msg is not None:
                yield ("queue", "delete_message",
                       (name, msg.message_id, msg.pop_receipt), {})
            return nbytes
        half = 0 if step in (1, 3) else 1
        part = (cycle * 2 + half + lane * (PARTITIONS // 2)) % PARTITIONS
        if step in (1, 5):
            self.written.add(ident)
            yield ("table", "insert_or_replace",
                   ("suitet", f"part{part}", "row",
                    {"v": self._value(ident)}), {})
            return SMALL_PAYLOAD
        entity = yield ("table", "get", ("suitet", f"part{part}", "row"), {})
        value = entity["v"]
        if (len(value) != SMALL_PAYLOAD
                or int(value[:12]) not in self.written):
            raise AssertionError(
                f"entity part{part}/row holds an unwritten value")
        return SMALL_PAYLOAD


class BlobOps:
    """1 MiB ``upload_blob`` : ``download_block_blob`` = 1 : 2.

    Each of the eight blobs always holds the same seeded bytes, so every
    download is checked for length and CRC whichever upload it follows.
    """

    def __init__(self, seed: int) -> None:
        self.contents = [Random(f"{seed}:blob:{b}").randbytes(BLOB_BYTES)
                         for b in range(BLOBS)]
        self.crcs = [zlib.crc32(c) for c in self.contents]

    def prepare(self) -> List[Call]:
        calls: List[Call] = [("blob", "create_container", ("suitec",), {})]
        calls.extend(("blob", "upload_blob", ("suitec", f"blob{b}", content),
                      {}) for b, content in enumerate(self.contents))
        return calls

    def script(self, lane: int, j: int):
        b = (j + lane * (BLOBS // 2)) % BLOBS
        if j % 3 == 0:
            yield ("blob", "upload_blob",
                   ("suitec", f"blob{b}", self.contents[b]), {})
            return BLOB_BYTES
        content = yield ("blob", "download_block_blob",
                         ("suitec", f"blob{b}"), {})
        data = content.to_bytes()
        if len(data) != BLOB_BYTES or zlib.crc32(data) != self.crcs[b]:
            raise AssertionError(f"blob{b} came back corrupted")
        return BLOB_BYTES


class Tally:
    """What one worker thread saw; merged after the threads join."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failed = 0
        self.nbytes = 0
        self.cpu_s = 0.0
        self.errors: List[str] = []

    def record(self, run: Callable[[], int], t_from: float) -> None:
        """Run one op; its latency counts from ``t_from``."""
        try:
            self.nbytes += run()
        except Exception as exc:  # a failed or unverifiable op, counted
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            self.latencies.append(time.perf_counter() - t_from)


def closed_loop(ops, endpoints, seconds: float,
                base: int = 0) -> Tuple[List[Tally], float]:
    """``CONNECTIONS`` threads, each sending its next op on completion.

    Lane ``w`` runs stream positions ``base``, ``base + 1``, ...
    """
    tallies = [Tally() for _ in range(CONNECTIONS)]
    begin = threading.Barrier(CONNECTIONS + 1)
    deadline = [0.0]

    def worker(lane: int) -> None:
        clients = Clients(endpoints)
        tally = tallies[lane]
        try:
            begin.wait()
            cpu0 = time.thread_time()
            j = base
            while time.perf_counter() < deadline[0]:
                start = time.perf_counter()
                tally.record(
                    lambda: perform(ops.script(lane, j), clients.call), start)
                j += 1
            tally.cpu_s = time.thread_time() - cpu0
        finally:
            clients.close()

    threads = [threading.Thread(target=worker, args=(lane,))
               for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline[0] = start + seconds
    begin.wait()
    for thread in threads:
        thread.join()
    return tallies, time.perf_counter() - start


def poisson_dues(seed: int, rate: float, seconds: float) -> List[float]:
    rng = Random(f"{seed}:arrivals")
    dues: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        dues.append(t)
        t += rng.expovariate(rate)
    return dues


def open_loop(run_op: Callable[[object, int], int],
              make_clients: Callable[[], object], dues: List[float],
              workers: int = CONNECTIONS):
    """One dispatcher releases op ``i`` at ``dues[i]`` whatever the
    workers are doing; latency runs from the due instant, so a stall
    is charged to every op that had to wait behind it.

    Returns ``(tallies, wall_s, lateness, backlog_max)``: how late the
    dispatcher itself released each op, and the most ops ever queued
    and not yet picked up.
    """
    tallies = [Tally() for _ in range(workers)]
    pending: queue_mod.Queue[Optional[Tuple[int, float]]] = queue_mod.Queue()
    begin = threading.Barrier(workers + 1)

    def worker(slot: int) -> None:
        clients = make_clients()
        tally = tallies[slot]
        try:
            begin.wait()
            cpu0 = time.thread_time()
            while True:
                item = pending.get()
                if item is None:
                    break
                i, due_at = item
                tally.record(lambda: run_op(clients, i), due_at)
            tally.cpu_s = time.thread_time() - cpu0
        finally:
            close = getattr(clients, "close", None)
            if close is not None:
                close()

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(workers)]
    for thread in threads:
        thread.start()
    begin.wait()
    lateness: List[float] = []
    backlog_max = 0
    origin = time.perf_counter()
    for i, due in enumerate(dues):
        wait = origin + due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        lateness.append(max(0.0, time.perf_counter() - (origin + due)))
        pending.put((i, origin + due))
        backlog_max = max(backlog_max, pending.qsize())
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join()
    return tallies, time.perf_counter() - origin, lateness, backlog_max


def window(tallies: List[Tally], wall: float) -> Dict[str, float]:
    """Goodput and latency percentiles of one measured interval."""
    from measure import percentile

    latencies = [lat for t in tallies for lat in t.latencies]
    return {"ok": len(latencies), "wall_s": wall,
            "goodput_ops_s": len(latencies) / wall,
            "lat_p50_ms": percentile(latencies, 50) * 1e3,
            "lat_p95_ms": percentile(latencies, 95) * 1e3}


def make_ops(name: str, seed: int):
    return BlobOps(seed) if name == "live-blob-closed" else SmallOps(seed)


def run_segment(name: str, seed: int, seconds: float,
                worked: Callable[[float], None] = lambda seconds: None
                ) -> Dict[str, object]:
    """Boot, prepare, warm up, measure ``seconds``, stop: one repeat.

    ``worked`` is told the duration of each measured window (the timed
    run's :class:`reference.Pace`).  The open loop runs at real time and
    cannot pause, so its whole interval is one window.
    """
    t_begin = time.perf_counter()
    # The watchdog outlives any honest segment but ends an orphan.
    server = Server(watchdog_s=seconds * 2 + 60.0)
    try:
        ops = make_ops(name, seed)
        admin = Clients(server.endpoints)
        try:
            for call in ops.prepare():
                admin.call(*call)
        finally:
            admin.close()
        warm, _ = closed_loop(ops, server.endpoints, WARMUP_S)
        cpu0 = proc_cpu_seconds(server.pid)
        setup_s = time.perf_counter() - t_begin
        worked(setup_s)
        tallies: List[Tally] = []
        seen: List[Dict[str, float]] = []
        lateness: List[float] = []
        backlog_max = 0
        if name == "live-small-open":
            # One lane: either connection may take any op.
            tallies, wall, lateness, backlog_max = open_loop(
                lambda clients, i: perform(
                    ops.script(0, MEASURED_BASE + i), clients.call),
                lambda: Clients(server.endpoints),
                poisson_dues(seed, OPEN_RATE, seconds))
            worked(wall)
            if any(t.latencies for t in tallies):
                seen.append(window(tallies, wall))
        else:
            t_end = time.perf_counter() + seconds
            while time.perf_counter() < t_end:
                part, wall = closed_loop(
                    ops, server.endpoints, WINDOW_S,
                    base=MEASURED_BASE + len(seen) * WINDOW_STRIDE)
                worked(wall)
                tallies.extend(part)
                if any(t.latencies for t in part):
                    seen.append(window(part, wall))
        server_cpu = proc_cpu_seconds(server.pid) - cpu0
        server_rss = proc_peak_rss_mb(server.pid)
    finally:
        server.stop()
    latencies = [lat for t in tallies for lat in t.latencies]
    failed = sum(t.failed for t in tallies) + sum(t.failed for t in warm)
    return {
        "windows": seen,
        "setup_s": setup_s,
        "wall_s": sum(w["wall_s"] for w in seen),
        "ok": len(latencies),
        "failed": failed,
        "errors": [e for t in tallies + warm for e in t.errors],
        "latencies": latencies,
        "nbytes": sum(t.nbytes for t in tallies),
        "server_rss_mb": server_rss,
        "server_cpu_s": server_cpu,
        "client_cpu_s": sum(t.cpu_s for t in tallies),
        "lateness": lateness,
        "backlog_max": backlog_max,
    }
