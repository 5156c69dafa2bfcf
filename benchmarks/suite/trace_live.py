"""The traced run of the live workloads.

Two passes:

1. one untraced segment exactly as the timed run executes it, for what
   only the real two-process set-up can say: CPU time of the server and
   of the generator per op, dispatcher lateness, backlog and tail;
2. the layer replay, in this process: the workload's own op scripts
   produce each request, and the request is carried through every layer
   by hand, each call in a span: client encode, SharedKey sign, HTTP
   read, ``ServiceNode.handle`` on an in-process cluster, HTTP write.
   The layers ``handle`` runs inside are then driven once more with the
   same request (verify, decode, tenant pipeline, ring lookup, the
   SN->DN call against a bare data node, the state machine, render);
   they are recorded as children of the ``handle`` span, so its self
   time is what the front-end itself adds.

Times are per *request* (a get+delete op is two requests).
"""

from __future__ import annotations

import asyncio
import email.utils
import itertools
import pickle
import time
from typing import Dict
from urllib.parse import quote

import live
import replay
from measure import Outcome, Spans, percentile
from trace_batch import mean_us, rounded, zeros

#: Ops replayed in process: whole eight-step cycles of the small mix,
#: whole upload/download/download triples of the blob mix.
REPLAY_OPS = {"small": 1600, "blob": 240}
REPLAY_PEER = "suite-replay"


class _Sink:
    """Where ``write_response`` writes when nobody is listening."""

    def __init__(self) -> None:
        self.nbytes = 0

    def write(self, data: bytes) -> None:
        self.nbytes += len(data)

    async def drain(self) -> None:
        return None


def _raw_request(method: str, target: str, headers: Dict[str, str],
                 body: bytes) -> bytes:
    """The bytes ``http.client`` puts on the socket for this request."""
    lines = [f"{method} {target} HTTP/1.1", "Host: 127.0.0.1",
             "Accept-Encoding: identity"]
    if body or method in ("PUT", "POST"):
        lines.append(f"Content-Length: {len(body)}")
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class LayerReplay:
    """Carries requests through the live tier's layers, span by span."""

    def __init__(self, spans: Spans) -> None:
        from repro.service import (DEV_ACCOUNT, DEV_KEY, DataNode,
                                   ServiceCluster, TenantConfig,
                                   TenantDirectory)
        self.spans = spans
        self.account = DEV_ACCOUNT
        self.key = DEV_KEY
        self.cluster = ServiceCluster(
            nodes=1, dn=2,
            tenants=TenantDirectory([TenantConfig.development()]))
        # Layers replayed outside ``handle`` get instances of their own,
        # so the in-process cluster's throttle windows and state are
        # charged exactly once per request.
        self.tenant = TenantDirectory(
            [TenantConfig.development()]).get(DEV_ACCOUNT)
        self.bare_dn = DataNode(0, [DEV_ACCOUNT])
        self.bare_dn_client = None
        self.state = replay.StateReplay(spans)
        self.sink = _Sink()
        self.request_ids = itertools.count()
        self.frame_bytes = 0

    def record_into(self, spans: Spans) -> None:
        """Start the measured part: a fresh span log and fresh counts."""
        self.spans = self.state.spans = spans
        self.request_ids = itertools.count()
        self.frame_bytes = 0

    async def start(self) -> None:
        from repro.service import DataNodeClient
        await self.cluster.start()
        host, port = await self.bare_dn.start()
        self.bare_dn_client = DataNodeClient(host, port)

    async def stop(self) -> None:
        if self.bare_dn_client is not None:
            await self.bare_dn_client.close()
        await self.bare_dn.stop()
        await self.cluster.stop()

    async def perform(self, script) -> int:
        try:
            step = next(script)
            while True:
                step = script.send(await self.call(*step))
        except StopIteration as stop:
            return stop.value

    async def call(self, kind: str, op: str, args: tuple, kwargs: dict):
        """One request, client side to client side, every layer timed."""
        from repro.service import sharedkey
        from repro.service.httpd import read_request, write_response
        from repro.service.wire import (ENCODERS, WIRE_VERSION,
                                        response_to_error)

        spans, clock = self.spans, time.perf_counter
        rid = next(self.request_ids)

        t0 = clock()
        wire = ENCODERS[(kind, op)](*args, **kwargs)
        spans.add("service.client.encode", t0, clock(), -1, rid)

        table = wire.service == "table"
        path = f"/{self.account}{wire.path}"
        query = {k: str(v) for k, v in wire.query.items()}
        headers = dict(wire.headers)
        headers["x-ms-date"] = email.utils.formatdate(time.time(),
                                                      usegmt=True)
        headers["x-ms-version"] = WIRE_VERSION
        signable = dict(headers)
        signable["Content-Length"] = str(len(wire.body))
        t0 = clock()
        headers["Authorization"] = sharedkey.sign_request(
            self.account, self.key, wire.method, path, query, signable,
            table_flavor=table)
        spans.add("service.sharedkey.sign", t0, clock(), -1, rid)

        target = path
        if query:
            target += "?" + "&".join(
                f"{quote(k, safe='')}={quote(v, safe='')}"
                for k, v in query.items())
        reader = asyncio.StreamReader(limit=64 * 1024)
        reader.feed_data(_raw_request(wire.method, target, headers,
                                      wire.body))
        reader.feed_eof()
        t0 = clock()
        request = await read_request(reader, REPLAY_PEER)
        spans.add("service.httpd.read", t0, clock(), -1, rid)

        node = self.cluster.service_nodes[0]
        t0 = clock()
        response = await node.handle(wire.service, request)
        handled = spans.add("service.servicenode.handle", t0, clock(),
                            -1, rid)
        await self._inside_handle(wire.service, request, handled, rid)

        t0 = clock()
        await write_response(self.sink, response)
        spans.add("service.httpd.write", t0, clock(), -1, rid)

        lower = {k.lower(): v for k, v in response.headers}
        if response.status >= 400:
            raise response_to_error(response.status, lower, response.body,
                                    table=table)
        return wire.parse(response.status, lower, response.body)

    async def _inside_handle(self, service: str, request, handled: int,
                             rid: int) -> None:
        """Drive each layer ``handle`` used, alone, as its child span."""
        from repro.pipeline import OpContext
        from repro.service import sharedkey
        from repro.service.wire import decode_request
        from repro.storage.errors import StorageError

        spans, clock = self.spans, time.perf_counter
        node = self.cluster.service_nodes[0]
        t0 = clock()
        decoded = decode_request(service, self.account, request)
        spans.add("service.wire.decode", t0, clock(), handled, rid)
        desc = decoded.descriptor

        if desc is not None:
            tenant = self.tenant
            ctx = OpContext(op=desc, backend="service", worker="suite",
                            started_at=node.clock.now())
            ctx.extras["wire"] = (service, request)
            t0 = clock()
            tenant.pipeline.run_before(ctx)
            ctx.finished_at = ctx.started_at
            tenant.pipeline.run_after(ctx)
            admitted = spans.add("service.tenants.pipeline", t0, clock(),
                                 handled, rid)
            t0 = clock()
            sharedkey.verify_request(
                self.key, request.method, request.path, request.query,
                request.headers, request.header("authorization"),
                table_flavor=(service == "table"))
            spans.add("service.sharedkey.verify", t0, clock(), admitted,
                      rid)

        if decoded.route == "one":
            label = node.route_label(self.account, decoded.client,
                                     decoded.route_key)
            t0 = clock()
            self.cluster.membership.owners(label)
            spans.add("service.ring.lookup", t0, clock(), handled, rid)

        frame = (self.account, decoded.client, decoded.op, decoded.args,
                 decoded.kwargs)
        t0 = clock()
        try:
            result = await self.bare_dn_client.call(*frame)
        except StorageError:
            result = None
        hop = spans.add("service.datanode.call", t0, clock(), handled, rid)
        self.frame_bytes += (len(pickle.dumps(frame))
                             + len(pickle.dumps(("ok", result))))

        if desc is not None:
            payload = (decoded.args[-1]
                       if desc.is_write and len(decoded.args) > 1 else None)
            self.state.apply(desc, 0.0, hop, rid, payload=payload)

        t0 = clock()
        decoded.encode(result)
        spans.add("service.wire.render", t0, clock(), handled, rid)


async def _replay(name: str, seed: int, spans: Spans) -> Dict[str, object]:
    ops = live.make_ops(name, seed)
    count = REPLAY_OPS["blob" if name == "live-blob-closed" else "small"]
    # Set-up requests are not part of the workload: they go through the
    # same layers, into a span log that is thrown away.
    layers = LayerReplay(Spans())
    await layers.start()
    try:
        for call in ops.prepare():
            await layers.call(*call)
        layers.record_into(spans)
        t0 = time.perf_counter()
        for j in range(count):
            await layers.perform(ops.script(0, live.MEASURED_BASE + j))
        wall = time.perf_counter() - t0
    finally:
        await layers.stop()
    return {"ops": count, "requests": next(layers.request_ids),
            "wall_s": wall, "frame_bytes": layers.frame_bytes,
            "depths": layers.state.depths}


def span_cost_s(count: int) -> float:
    """What recording ``count`` spans costs, measured on a scratch log."""
    scratch = Spans()
    clock = time.perf_counter
    t_begin = clock()
    for i in range(count):
        t0 = clock()
        scratch.add("calibration", t0, clock(), -1, i)
    return clock() - t_begin


def run(name: str, seed: int, seconds: float, pins) -> Outcome:
    segment = live.run_segment(name, seed, seconds / live.SEGMENTS)
    problems = []
    if segment["failed"]:
        problems.append(f"{name}: {segment['failed']} ops failed or came "
                        f"back wrong: {'; '.join(segment['errors'])}")
    spans = Spans()
    replayed = asyncio.run(_replay(name, seed, spans))

    own = spans.self_times()
    counts = spans.counts()
    requests = replayed["requests"]
    metrics = zeros()
    for layer in ("client.encode", "sharedkey.sign", "httpd.read",
                  "httpd.write", "sharedkey.verify", "wire.decode",
                  "wire.render", "tenants.pipeline", "ring.lookup",
                  "datanode.call"):
        span = f"service.{layer}"
        metrics[f"{span}_us"] = mean_us(own.get(span, 0.0),
                                        counts.get(span, 0))
    for service in ("queue", "table", "blob"):
        span = f"storage.{service}"
        metrics[f"{span}.us_per_op"] = mean_us(own.get(span, 0.0),
                                               counts.get(span, 0))
    depths = replayed["depths"]
    if depths:
        metrics["storage.queue.depth_mean"] = sum(depths) / len(depths)
        metrics["storage.queue.depth_max"] = float(max(depths))
    handle_total = sum(e - s for n, s, e, _p, _o in spans.rows
                       if n == "service.servicenode.handle")
    ok = segment["ok"]
    latencies = segment["latencies"]
    cpu_ms_per_op = (segment["server_cpu_s"] + segment["client_cpu_s"]) \
        / ok * 1e3
    layer_ms_per_op = sum(own.values()) / replayed["ops"] * 1e3
    metrics.update({
        "failed_op_share": segment["failed"] / (ok + segment["failed"]),
        "service.datanode.frame_bytes_per_op":
            replayed["frame_bytes"] / requests,
        "service.servicenode.handle_us": mean_us(handle_total, requests),
        "service.servicenode.self_us": mean_us(
            own.get("service.servicenode.handle", 0.0), requests),
        "service.server_cpu_ms_per_op": segment["server_cpu_s"] / ok * 1e3,
        "loadgen.client_cpu_ms_per_op": segment["client_cpu_s"] / ok * 1e3,
        "loadgen.lat_p95_ms": percentile(latencies, 95) * 1e3,
        "loadgen.lat_p99_ms": percentile(latencies, 99) * 1e3,
        "loadgen.slo_miss_share": (
            sum(1 for lat in latencies if lat * 1e3 > live.OPEN_LIMIT_MS)
            + segment["failed"]) / (ok + segment["failed"]),
        "loadgen.goodput_mb_s": segment["nbytes"] / 1e6 / segment["wall_s"],
        # Client and server are two processes, so the base is the CPU
        # time both spent per op, not the wall time between completions.
        "trace.explained_share": layer_ms_per_op / cpu_ms_per_op,
        "trace.overhead_share": span_cost_s(len(spans)) / replayed["wall_s"],
    })
    if segment["lateness"]:
        metrics["loadgen.late_p95_ms"] = percentile(
            segment["lateness"], 95) * 1e3
        metrics["loadgen.backlog_max"] = float(segment["backlog_max"])
    detail = {"untraced_ops": ok, "untraced_wall_s": segment["wall_s"],
              "replayed_ops": replayed["ops"],
              "replayed_requests": requests,
              "replay_wall_s": replayed["wall_s"], "spans": len(spans),
              "self_s": rounded(own)}
    return Outcome(metrics, attempted=ok + segment["failed"],
                   failed=segment["failed"], problems=problems,
                   detail=detail, spans=spans)
