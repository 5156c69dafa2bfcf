"""Service nodes: the authenticated HTTP front-ends of the cluster.

Each service node exposes the three Azurite-style listeners (blob,
queue, table) and, per request:

1. resolves the tenant from the ``/{account}/...`` path prefix,
2. decodes the wire request into a registry operation + route,
3. runs the tenant's ``auth -> analytics -> throttles`` pipeline hooks
   around it (one pipeline per tenant, shared by all SNs), and
4. forwards it to the owning data node(s), merging fan-out results.

The SN holds **no storage state** — partition ownership is the shared
consistent-hash ring of the cluster's
:class:`~repro.service.membership.Membership` (virtual nodes, R-way
replica sets), so any SN can serve any request (that is the scale-out
argument the SN/DN topology figure makes).  Per routed request the SN
also carries the failure-domain duty cycle:

* **writes** fan to every routable owner of the partition label; the
  primary's answer is definitive, but if the primary dies mid-request
  any acknowledged backup carries the write (at-least-once);
* **reads** go to the primary under a per-DN timeout, hedge a second
  replica after ``hedge_delay`` (budget-gated), and fail over through
  the replica set on transport errors;
* per-DN **circuit breakers** stop hammering a sick node, and a shard
  with no live owner surfaces ``503 + Retry-After`` instead of hanging.

With ``replicas=1`` and health checks off this all reduces to the old
static single-owner routing (pinned by ``tests/service/test_ring.py``).
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import time
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..cluster.ops import OpDescriptor
from ..pipeline import OpContext
from ..resilience import CircuitOpenError
from ..storage.clock import WallClock
from ..storage.errors import (
    ResourceNotFoundError,
    ServerBusyError,
    StorageError,
)
from . import httpd
from .datanode import DataNodeClient
from .httpd import HttpError, HttpRequest, HttpResponse
from .membership import (
    TRANSPORT_ERRORS,
    FailureDomainConfig,
    Membership,
)
from .tenants import TenantDirectory
from .wire import (
    WIRE_VERSION,
    DecodedOp,
    UnknownResourceError,
    UnsupportedVersionError,
    _http_date,
    decode_request,
    error_to_response,
)

__all__ = ["ServiceNode", "AccessLogEntry"]

#: Queue consume/visibility ops mutate per-replica bookkeeping (receipts,
#: visibility clocks) that is never reconciled across replicas, so they
#: run against the primary only — and are never hedged (a hedged
#: ``get_message`` would check out the message twice).
PRIMARY_ONLY_OPS = frozenset({"get_message", "get_messages",
                              "update_message", "peek_message"})

#: A replica call that died of one of these told us nothing about the
#: data — unlike a StorageError, which is a definitive storage answer.
_REPLICA_FAILURES = TRANSPORT_ERRORS + (RuntimeError, CircuitOpenError)

SERVICES = ("blob", "queue", "table")
_VERSION_HEADER = ("x-ms-version", WIRE_VERSION)

#: The newest requests kept in memory, and how many of them wait before
#: they are appended to ``access_log_path`` in one write.
ACCESS_LOG_TAIL = 1024
ACCESS_LOG_BATCH = 256


class AccessLogEntry(NamedTuple):
    """One served request, for the access-log artifact."""

    time: float
    account: str
    service: str
    method: str
    target: str
    status: int
    nbytes: int

    def format(self) -> str:
        return (f"{self.time:.6f} {self.account} {self.service} "
                f"{self.method} {self.target} {self.status} {self.nbytes}")


async def _within(timeout: float, call):
    """``await call`` in the current task, ``TimeoutError`` after ``timeout``.

    What ``asyncio.wait_for`` does without the task it wraps the call
    in: a timer cancels *this* task, and that one cancellation is
    translated.  A cancellation from outside (client gone, loop
    teardown) stays a ``CancelledError``.  Written by hand because
    ``asyncio.timeout`` is 3.11+.
    """
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    timer = asyncio.get_running_loop().call_later(timeout, expire)
    try:
        return await call
    except asyncio.CancelledError:
        if not expired:
            raise
        # 3.11+ counts cancel requests: take ours back, and if another
        # is still pending it came from outside and wins.
        if hasattr(task, "uncancel") and task.uncancel() > 0:
            raise
        raise asyncio.TimeoutError() from None
    finally:
        timer.cancel()


class ServiceNode:
    """One front-end: three HTTP listeners over a shared DN client set."""

    def __init__(self, index: int, tenants: TenantDirectory,
                 data_nodes: Sequence[DataNodeClient], *,
                 membership: Optional[Membership] = None,
                 clock: Optional[WallClock] = None,
                 access_log_path: Optional[str] = None) -> None:
        if not data_nodes:
            raise ValueError("a service node needs at least one data node")
        self.index = index
        self.tenants = tenants
        self.data_nodes = list(data_nodes)
        # The cluster shares one Membership across its SNs; a standalone
        # SN gets the null failure domain (R=1, no health checks), which
        # is the old static routing.
        self.membership = membership if membership is not None else (
            Membership(FailureDomainConfig(), self.data_nodes, []))
        self.clock = clock if clock is not None else WallClock()
        #: The last ``ACCESS_LOG_TAIL`` requests; with a path, older
        #: ones are already in the file.
        self.access_log: Deque[AccessLogEntry] = collections.deque(
            maxlen=ACCESS_LOG_TAIL)
        self.access_log_path = access_log_path
        self._unwritten = 0  # newest entries not yet in the file
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        self.endpoints: Dict[str, Tuple[str, int]] = {}
        self._request_ids = itertools.count(1)
        self.inflight = 0

    # -- lifecycle ----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    ports: Optional[Dict[str, int]] = None) -> None:
        """Bind the three listeners (``ports[service]`` or ephemeral)."""
        ports = ports or {}
        for service in SERVICES:
            server = await httpd.serve(
                self._make_handler(service), host, ports.get(service, 0),
                error_responder=self._framing_error)
            self._servers[service] = server
            self.endpoints[service] = (host, httpd.bound_port(server))

    async def stop(self, *, grace_s: float = 5.0) -> None:
        """Stop accepting, then let in-flight requests finish."""
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
        deadline = time.monotonic() + grace_s
        while self.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self._flush_access_log()

    # -- request handling ---------------------------------------------------
    def _make_handler(self, service: str):
        async def handler(request: HttpRequest) -> HttpResponse:
            self.inflight += 1
            try:
                return await self.handle(service, request)
            finally:
                self.inflight -= 1
        return handler

    def _framing_error(self, exc: HttpError) -> HttpResponse:
        """Even malformed framing answers with a decodable error body."""
        return error_to_response(UnknownResourceError(str(exc)),
                                 request_id=f"sn{self.index}-malformed")

    async def handle(self, service: str,
                     request: HttpRequest) -> HttpResponse:
        request_id = f"sn{self.index}-{next(self._request_ids):08d}"
        account = request.path.strip("/").split("/", 1)[0]
        table = service == "table"
        try:
            version = request.header("x-ms-version")
            if version and version != WIRE_VERSION:
                raise UnsupportedVersionError(
                    f"x-ms-version {version!r} is not supported; this "
                    f"endpoint speaks {WIRE_VERSION}")
            tenant = self.tenants.get(account)
            decoded = decode_request(service, account, request)
        except StorageError as exc:
            response = error_to_response(exc, table=table,
                                         request_id=request_id)
            self._log(account, service, request, response)
            return response
        try:
            if decoded.descriptor is None:
                # Registry-local bookkeeping read: no pipeline admission
                # (matching the emulator), but the signature still gates.
                tenant.authorize_request(service, request)
                result = await self._route(account, decoded)
            else:
                result = await self._admitted(
                    tenant, service, request, account, decoded)
        except StorageError as exc:
            response = error_to_response(exc, table=table,
                                         request_id=request_id)
            self._log(account, service, request, response)
            return response
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # A handler bug must not tear the connection down with a raw
            # traceback: answer 500 InternalError like the real front
            # door (the client's retry policy treats it as transient).
            response = error_to_response(
                StorageError(f"{type(exc).__name__}: {exc}"),
                table=table, request_id=request_id)
            self._log(account, service, request, response)
            return response
        response = decoded.encode(result)
        response.headers += (("x-ms-request-id", request_id),
                             _VERSION_HEADER,
                             ("Date", _http_date(time.time())))
        self._log(account, service, request, response)
        return response

    async def _admitted(self, tenant, service: str, request: HttpRequest,
                        account: str, decoded: DecodedOp):
        """Run one data op through the tenant pipeline around the DN hop."""
        ctx = OpContext(op=decoded.descriptor, backend="service",
                        worker=f"sn{self.index}",
                        started_at=self.clock.now())
        ctx.extras["wire"] = (service, request)
        try:
            tenant.pipeline.run_before(ctx)
            result = await self._route(account, decoded)
        except BaseException as exc:
            ctx.finished_at = self.clock.now()
            tenant.pipeline.run_failed(ctx, exc)
            raise
        if decoded.result_nbytes is not None:
            # Reads are admitted before their size is known; patch the
            # descriptor so analytics charge actual egress bytes.
            op = ctx.op
            ctx.op = OpDescriptor(op.service, op.kind, op.partition,
                                  decoded.result_nbytes(result), op.units,
                                  op.block_count)
        ctx.finished_at = self.clock.now()
        tenant.pipeline.run_after(ctx)
        return result

    # -- routing ------------------------------------------------------------
    def route_label(self, account: str, client: str, key: str) -> str:
        """The partition label placement hashes (== rebalance manifests)."""
        return f"{account}/{client}/{key}"

    def _no_owner(self, what: str) -> ServerBusyError:
        membership = self.membership
        membership.counters["no_owner_503s"] += 1
        return ServerBusyError(
            f"no live data node owns {what}; retry after rebalance",
            retry_after=membership.config.retry_after)

    async def _attempt(self, node: int, account: str, decoded: DecodedOp):
        """One breaker-gated, deadlined call to one replica."""
        membership = self.membership
        breaker = membership.breaker(node)
        breaker.before_attempt(time.monotonic())  # CircuitOpenError if open
        try:
            result = await _within(
                membership.config.dn_timeout,
                self.data_nodes[node].call(
                    account, decoded.client, decoded.op,
                    decoded.args, decoded.kwargs))
        except StorageError:
            # The link worked; the *storage* answered.  Healthy node.
            breaker.record_success(time.monotonic())
            raise
        except _REPLICA_FAILURES:
            breaker.record_failure(time.monotonic())
            membership.note_replica_error()
            raise
        breaker.record_success(time.monotonic())
        return result

    async def _route(self, account: str, decoded: DecodedOp):
        if decoded.route != "one":
            return await self._scatter(account, decoded)
        label = self.route_label(account, decoded.client, decoded.route_key)
        owners = self.membership.owners(label)
        if not owners:
            raise self._no_owner(f"partition {label!r}")
        if decoded.op in PRIMARY_ONLY_OPS:
            return await self._read(account, decoded, owners, hedge=False)
        if decoded.descriptor is not None and decoded.descriptor.is_write:
            return await self._write(account, decoded, owners)
        return await self._read(account, decoded, owners, hedge=True)

    async def _settle(self, nodes: Sequence[int], account: str,
                      decoded: DecodedOp) -> list:
        """Every node's outcome, failures as values, in ``nodes`` order.

        A single node is awaited in the calling task; only a real
        fan-out pays for tasks.
        """
        if len(nodes) == 1:
            try:
                return [await self._attempt(nodes[0], account, decoded)]
            except Exception as exc:
                return [exc]
        return await asyncio.gather(
            *(self._attempt(node, account, decoded) for node in nodes),
            return_exceptions=True)

    async def _write(self, account: str, decoded: DecodedOp,
                     owners: Tuple[int, ...]):
        """Fan a mutation to every routable owner of its label.

        The primary's outcome is the client's outcome; backups exist so
        the write survives the primary dying before detection.  If the
        primary fails at the *transport* level, any acknowledged backup
        carries the write and answers for it (at-least-once: the client
        may retry a write a backup already holds, which every op here
        tolerates — uploads overwrite, puts re-deliver, upserts upsert).
        """
        results = await self._settle(owners, account, decoded)
        primary = results[0]
        for secondary in results[1:]:
            if isinstance(secondary, StorageError):
                # E.g. a delete_message receipt minted by the primary:
                # the backup cannot match it.  The primary's answer is
                # definitive; record the divergence and move on.
                self.membership.note_replica_error()
        if not isinstance(primary, BaseException):
            return primary
        if isinstance(primary, StorageError):
            raise primary
        for secondary in results[1:]:
            if not isinstance(secondary, BaseException):
                return secondary
        for secondary in results[1:]:
            if isinstance(secondary, StorageError):
                raise secondary
        raise self._no_owner(f"any replica of {decoded.op}")

    async def _read(self, account: str, decoded: DecodedOp,
                    owners: Tuple[int, ...], *, hedge: bool):
        """Serve from any healthy replica: primary first, hedged second.

        The primary gets ``hedge_delay`` to answer before a budget-gated
        second request races it on the next replica; transport failures
        fail over through the replica set immediately.  A NotFound from
        one replica is only provisional — it may still be importing
        after a rebalance — and is surfaced only once every replica
        agrees (or is unreachable).
        """
        membership = self.membership
        remaining = list(owners)
        tasks: Dict[asyncio.Task, int] = {}
        not_found: Optional[ResourceNotFoundError] = None

        def launch() -> None:
            node = remaining.pop(0)
            task = asyncio.ensure_future(
                self._attempt(node, account, decoded))
            tasks[task] = node

        hedged = not hedge
        try:
            while remaining or tasks:
                if not tasks and (hedged or len(remaining) == 1):
                    # Nothing to race this replica against: no task.
                    outcomes = await self._settle(
                        [remaining.pop(0)], account, decoded)
                else:
                    if not tasks:
                        launch()
                    timeout = (membership.config.hedge_delay
                               if not hedged and remaining else None)
                    done, _ = await asyncio.wait(
                        set(tasks), timeout=timeout,
                        return_when=asyncio.FIRST_COMPLETED)
                    if not done:
                        # Primary is slow: race one backup against it.
                        hedged = True
                        if membership.allow_hedge(time.monotonic()):
                            launch()
                        continue
                    outcomes = []
                    for task in done:
                        del tasks[task]
                        exc = task.exception()
                        outcomes.append(
                            exc if exc is not None else task.result())
                for outcome in outcomes:
                    if isinstance(outcome, ResourceNotFoundError):
                        not_found = not_found or outcome
                    elif isinstance(outcome, StorageError):
                        raise outcome
                    elif not isinstance(outcome, BaseException):
                        return outcome
                    # else a transport failure: on to the next replica
        finally:
            for task in tasks:
                task.cancel()
                # A loser that already failed must not warn "exception
                # was never retrieved" when collected.
                task.add_done_callback(
                    lambda t: t.cancelled() or t.exception())
        if not_found is not None:
            raise not_found  # every replica agreed
        raise self._no_owner(f"any replica for {decoded.op}")

    async def _scatter(self, account: str, decoded: DecodedOp):
        """Namespace ops and listings touch every live shard."""
        targets = self.membership.live_indices()
        if not targets:
            raise self._no_owner("the namespace (no live data nodes)")
        results = await self._settle(targets, account, decoded)
        transport_failure = None
        for result in results:
            if isinstance(result, StorageError):
                raise result
            if isinstance(result, BaseException):
                transport_failure = result
        if transport_failure is not None:
            # A partial namespace op or listing must not pass for a full
            # one; 503 tells the client to retry once the ring settles.
            raise ServerBusyError(
                f"a data node failed during {decoded.op}: "
                f"{transport_failure}",
                retry_after=self.membership.config.retry_after)
        if decoded.route == "broadcast":
            return None
        return decoded.merge(results)

    # -- observability ------------------------------------------------------
    def _log(self, account: str, service: str, request: HttpRequest,
             response: HttpResponse) -> None:
        self.access_log.append(AccessLogEntry(
            self.clock.now(), account, service, request.method,
            request.target, response.status,
            len(request.body) + len(response.body)))
        if self.access_log_path:
            self._unwritten += 1
            if self._unwritten >= ACCESS_LOG_BATCH:
                self._flush_access_log()

    def _flush_access_log(self) -> None:
        """Append the entries the file does not hold yet, in one write."""
        if not self._unwritten:
            return
        first = len(self.access_log) - self._unwritten
        with open(self.access_log_path, "a", encoding="utf-8") as fh:
            fh.writelines(entry.format() + "\n" for entry in
                          itertools.islice(self.access_log, first, None))
        self._unwritten = 0
