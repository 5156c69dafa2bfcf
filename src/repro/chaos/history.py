"""Operation-history capture: the ground truth the invariants check.

The harness records history at the *client* boundary — the same surface
the paper's algorithms program against — by shadowing an account's client
factories with auditing proxies (:func:`audit_account`).  Every audited
call appends one :class:`OpRecord` carrying a semantic summary (message
ids, pop receipts, dequeue counts, payload digests, ETags) that spans do
not carry.

Determinism contract: the audit computes digests and appends records —
it never yields, sleeps, or draws randomness — so a seeded sim run with
auditing installed is bit-identical to one without (pinned by the golden
regression in ``tests/chaos/test_runner.py``).

Fault attribution: the history subscribes to the
:class:`~repro.faults.plan.FaultPlan` event stream.  Injected data-plane
faults (message loss, duplicate delivery) fire *inside* the audited call
they hit, so pending fault kinds are drained onto the very next record —
which is that call's own record, because the DES executes one operation
at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["OpRecord", "History", "AuditedClient", "audit_account"]

#: Per-write byte cap for blob-content tracking; larger payloads degrade
#: blob integrity checks to size-only (noted on the verdict, not a
#: violation).  Chaos scales stay far below this.
BLOB_TRACK_CAP = 4 * 1024 * 1024

#: Client methods whose calls are recorded, per service.
AUDITED_METHODS: Dict[str, frozenset] = {
    "queue": frozenset({
        "create_queue", "delete_queue", "put_message", "get_message",
        "get_messages", "peek_message", "delete_message", "update_message",
        "get_message_count",
    }),
    "blob": frozenset({
        "create_container", "create_page_blob", "put_block",
        "put_block_list", "upload_blob", "put_page", "get_block",
        "get_page", "download_block_blob", "download_page_blob",
        "delete_blob",
    }),
    "table": frozenset({
        "create_table", "delete_table", "insert", "update", "merge",
        "insert_or_replace", "insert_or_merge", "get", "query_partition",
        "query", "delete",
    }),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass(frozen=True)
class OpRecord:
    """One audited client call, summarized."""

    seq: int
    time: float
    service: str
    op: str
    #: Queue name / "container/blob" / table name.
    target: str
    #: Semantic request summary (sizes, digests, keys, etag_in, ...).
    request: Dict[str, Any]
    #: Semantic result summary (message_id, receipt, digest, ...);
    #: empty on failure.
    result: Dict[str, Any]
    #: Error class name when the call raised, else "".
    error: str = ""
    #: Injected fault kinds attributed to this call.
    faults: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error == ""


class History:
    """Append-only operation history plus end-of-run snapshots."""

    def __init__(self, *, default_visibility: float = 30.0) -> None:
        self.records: List[OpRecord] = []
        #: Raw injected-fault events, as ``(time, kind, service, partition)``.
        self.fault_events: List[Tuple] = []
        #: Worker crash/restart events: ``(time, kind, role)`` with kind in
        #: {"crash", "restart"} — filled by the chaos runner.
        self.crash_events: List[Tuple] = []
        #: ``("remaining", queue, msg_id)`` from the final state snapshot.
        self.remaining: List[Tuple[str, str]] = []
        #: table name -> final entity count (final state snapshot).
        self.final_entity_counts: Dict[str, int] = {}
        self.default_visibility = default_visibility
        self._seq = 0
        self._pending_faults: List[str] = []
        #: Keeps payload objects alive so the digest cache stays valid.
        self._digest_cache: Dict[int, Tuple[Any, str]] = {}

    # -- fault-plan subscription -------------------------------------------
    def on_fault(self, event) -> None:
        """FaultPlan listener: park kinds for the in-flight record."""
        self.fault_events.append(event.as_tuple())
        self._pending_faults.append(event.kind.value)

    # -- recording ---------------------------------------------------------
    def _content_digest(self, data) -> Tuple[str, int]:
        key = id(data)
        cached = self._digest_cache.get(key)
        if cached is not None and cached[0] is data:
            return cached[1], getattr(data, "size", len(cached[1]))
        raw = data.to_bytes() if hasattr(data, "to_bytes") else bytes(data)
        dig = _digest(raw)
        self._digest_cache[key] = (data, dig)
        return dig, len(raw)

    def _content_bytes(self, data) -> bytes:
        return data.to_bytes() if hasattr(data, "to_bytes") else bytes(data)

    def record(self, now: float, service: str, op: str, target: str,
               request: Dict[str, Any], result: Dict[str, Any],
               error: str = "") -> OpRecord:
        rec = OpRecord(
            seq=self._seq, time=now, service=service, op=op, target=target,
            request=request, result=result, error=error,
            faults=tuple(self._pending_faults),
        )
        self._pending_faults.clear()
        self._seq += 1
        self.records.append(rec)
        return rec

    # -- snapshots ---------------------------------------------------------
    def snapshot_final_state(self, state) -> None:
        """Record what survived the run (queues + table entity counts)."""
        for name, queue in state.queues.queues.items():
            for msg in queue._messages:
                self.remaining.append((name, msg.message_id))
        for name in state.tables.list_tables():
            table = state.tables.get_table(name)
            self.final_entity_counts[name] = sum(
                len(table.query_partition(pk)) for pk in table.partitions())

    # -- ledger-event projection -------------------------------------------
    def queue_events(self) -> List[Tuple]:
        """Project queue records into :mod:`.ledger` events.

        Repeat deliveries are explained here, where the timing lives: a
        redelivery is ``"dup"`` when the *previous* delivery of the same
        message carried an injected duplicate-delivery grant, else
        ``"timeout"`` when that delivery's visibility window had expired
        by the redelivery instant, else unexplained (``""``).
        """
        events: List[Tuple] = []
        #: (queue, msg_id) -> (last delivery time, visibility, dup_grant).
        last: Dict[Tuple[str, str], Tuple[float, float, bool]] = {}
        for rec in self.records:
            if rec.service != "queue":
                continue
            queue = rec.target
            if rec.op == "put_message":
                if not rec.ok:
                    continue
                msg_id = rec.result.get("message_id")
                if msg_id is None:
                    # A lost put is *explained* when loss was injected or
                    # the record was rewound by a forced geo failover.
                    events.append(("put_lost", queue,
                                   any(f in rec.faults for f in
                                       ("message_loss", "geo_failover"))))
                else:
                    events.append(("put", queue, msg_id))
            elif rec.op in ("get_message", "get_messages"):
                if not rec.ok:
                    continue
                visibility = rec.request.get("visibility_timeout")
                if visibility is None:
                    visibility = self.default_visibility
                dup_grants = rec.faults.count("duplicate_delivery")
                for msg in rec.result.get("messages", ()):
                    key = (queue, msg["message_id"])
                    explained = ""
                    if msg["dequeue_count"] > 1:
                        prev = last.get(key)
                        if prev is not None and prev[2]:
                            explained = "dup"
                        elif prev is not None and rec.time >= prev[0] + prev[1]:
                            explained = "timeout"
                    events.append(("deliver", queue, msg["message_id"],
                                   msg["dequeue_count"], explained))
                    granted = dup_grants > 0
                    if granted:
                        dup_grants -= 1
                    last[key] = (rec.time, visibility, granted)
            elif rec.op == "update_message":
                if rec.ok:
                    key = (queue, rec.request["message_id"])
                    prev = last.get(key)
                    if prev is not None:
                        last[key] = (rec.time,
                                     rec.request.get("visibility_timeout",
                                                     0.0), prev[2])
            elif rec.op == "delete_message":
                msg_id = rec.request["message_id"]
                if rec.ok:
                    events.append(("delete", queue, msg_id, True))
                elif rec.error == "MessageNotFoundError":
                    events.append(("delete", queue, msg_id, False))
            elif rec.op == "delete_queue":
                if rec.ok:
                    events.append(("purge", queue))
        for queue, msg_id in self.remaining:
            events.append(("remaining", queue, msg_id))
        return events

    # -- self-test helpers -------------------------------------------------
    def splice_drop(self, queue: Optional[str] = None) -> str:
        """Rewrite one landed put as a silent drop (checker self-test).

        Picks the first successful ``put_message`` (optionally against
        ``queue``), erases its landing and any downstream records of the
        dropped message, leaving an acked put with no landed message and
        no injected-loss attribution — exactly the anomaly the
        conservation checker must flag.  Returns the spliced message id.
        """
        for i, rec in enumerate(self.records):
            if (rec.service == "queue" and rec.op == "put_message" and rec.ok
                    and rec.result.get("message_id") is not None
                    and (queue is None or rec.target == queue)):
                msg_id = rec.result["message_id"]
                self.records[i] = OpRecord(
                    seq=rec.seq, time=rec.time, service=rec.service,
                    op=rec.op, target=rec.target, request=rec.request,
                    result={"message_id": None}, error=rec.error,
                    faults=rec.faults)
                self._erase_message(rec.target, msg_id)
                return msg_id
        raise ValueError("no successful put_message record to splice")

    def _erase_message(self, queue: str, msg_id: str) -> None:
        """Drop downstream deliveries/deletes of a spliced-away message."""
        kept = []
        for rec in self.records:
            if rec.service == "queue" and rec.target == queue:
                if (rec.op == "delete_message"
                        and rec.request.get("message_id") == msg_id):
                    continue
                if rec.op in ("get_message", "get_messages") and rec.ok:
                    messages = [m for m in rec.result.get("messages", ())
                                if m["message_id"] != msg_id]
                    if len(messages) != len(rec.result.get("messages", ())):
                        result = dict(rec.result)
                        result["messages"] = tuple(messages)
                        rec = OpRecord(
                            seq=rec.seq, time=rec.time, service=rec.service,
                            op=rec.op, target=rec.target,
                            request=rec.request, result=result,
                            error=rec.error, faults=rec.faults)
            kept.append(rec)
        self.records = kept
        self.remaining = [(q, m) for q, m in self.remaining
                          if not (q == queue and m == msg_id)]


# -- request/result summarizers ---------------------------------------------

def _msg_summary(msg) -> Dict[str, Any]:
    return {
        "message_id": msg.message_id,
        "dequeue_count": msg.dequeue_count,
        "pop_receipt": msg.pop_receipt,
        "digest": _digest(msg.content.to_bytes()),
        "size": msg.content.size,
    }


class AuditedClient:
    """Proxy recording every audited data-plane call on one client."""

    def __init__(self, inner, history: History, service: str,
                 now_fn) -> None:
        self._inner = inner
        self._history = history
        self._service = service
        self._now = now_fn

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name not in AUDITED_METHODS.get(self._service, frozenset()):
            return attr

        def audited(*args, **kwargs):
            # Sim/shim clients return lazy generators; plain emulator
            # clients execute (and may raise) right here.
            try:
                result = attr(*args, **kwargs)
            except BaseException as exc:
                self._summarize(name, args, kwargs, None,
                                type(exc).__name__)
                raise
            if isinstance(result, GeneratorType):
                return self._drive(name, args, kwargs, result)
            self._summarize(name, args, kwargs, result, "")
            return result

        audited.__name__ = name
        return audited

    def _drive(self, name: str, args, kwargs, gen):
        """Run a client-op generator, recording at its completion instant."""
        try:
            result = yield from gen
        except BaseException as exc:
            self._summarize(name, args, kwargs, None, type(exc).__name__)
            raise
        self._summarize(name, args, kwargs, result, "")
        return result

    # -- summaries ----------------------------------------------------------
    def _summarize(self, op: str, args, kwargs, result, error: str) -> None:
        h = self._history
        service = self._service
        now = self._now()
        request: Dict[str, Any] = {}
        summary: Dict[str, Any] = {}
        target = str(args[0]) if args else ""
        if service == "queue":
            target, request, summary = self._queue_summary(
                op, args, kwargs, result, error)
        elif service == "blob":
            target, request, summary = self._blob_summary(
                op, args, kwargs, result, error)
        elif service == "table":
            target, request, summary = self._table_summary(
                op, args, kwargs, result, error)
        h.record(now, service, op, target, request, summary, error)

    def _queue_summary(self, op, args, kwargs, result, error):
        h = self._history
        queue = str(args[0]) if args else ""
        request: Dict[str, Any] = {}
        summary: Dict[str, Any] = {}
        if op == "put_message":
            dig, size = h._content_digest(args[1])
            request = {"digest": dig, "size": size}
            if not error:
                summary = {"message_id":
                           result.message_id if result is not None else None}
        elif op in ("get_message", "get_messages"):
            request = {"visibility_timeout":
                       kwargs.get("visibility_timeout")}
            if not error:
                if op == "get_message":
                    messages = () if result is None else (result,)
                else:
                    messages = tuple(result or ())
                summary = {"messages":
                           tuple(_msg_summary(m) for m in messages)}
        elif op == "peek_message":
            if not error and result is not None:
                summary = {"message_id": result.message_id}
        elif op in ("delete_message", "update_message"):
            request = {"message_id": str(args[1]) if len(args) > 1 else "",
                       "pop_receipt": str(args[2]) if len(args) > 2 else ""}
            if op == "update_message":
                request["visibility_timeout"] = kwargs.get(
                    "visibility_timeout", 0.0)
        elif op == "get_message_count":
            if not error:
                summary = {"count": result}
        return queue, request, summary

    def _blob_summary(self, op, args, kwargs, result, error):
        h = self._history
        request: Dict[str, Any] = {}
        summary: Dict[str, Any] = {}
        if op in ("create_container", "delete_container"):
            return str(args[0]), request, summary
        container = str(args[0]) if args else ""
        blob = str(args[1]) if len(args) > 1 else ""
        target = f"{container}/{blob}"
        if op == "put_block":
            data = args[3]
            raw = h._content_bytes(data)
            request = {"block_id": str(args[2]), "digest": _digest(raw),
                       "size": len(raw)}
            if len(raw) <= BLOB_TRACK_CAP:
                request["bytes"] = raw
        elif op == "put_block_list":
            request = {"block_ids": tuple(str(b) for b in args[2]),
                       "merge": bool(kwargs.get("merge", False))}
        elif op == "upload_blob":
            raw = h._content_bytes(args[2])
            request = {"digest": _digest(raw), "size": len(raw)}
            if len(raw) <= BLOB_TRACK_CAP:
                request["bytes"] = raw
        elif op == "create_page_blob":
            request = {"max_size": int(args[2])}
        elif op == "put_page":
            raw = h._content_bytes(args[3])
            request = {"offset": int(args[2]), "digest": _digest(raw),
                       "size": len(raw)}
            if len(raw) <= BLOB_TRACK_CAP:
                request["bytes"] = raw
        elif op == "get_block":
            request = {"index": int(args[2])}
            if not error:
                raw = h._content_bytes(result)
                summary = {"digest": _digest(raw), "size": len(raw)}
        elif op == "get_page":
            request = {"offset": int(args[2]), "length": int(args[3])}
            if not error:
                raw = h._content_bytes(result)
                summary = {"digest": _digest(raw), "size": len(raw)}
        elif op in ("download_block_blob", "download_page_blob"):
            if not error:
                raw = h._content_bytes(result)
                summary = {"digest": _digest(raw), "size": len(raw)}
        return target, request, summary

    def _table_summary(self, op, args, kwargs, result, error):
        table = str(args[0]) if args else ""
        request: Dict[str, Any] = {}
        summary: Dict[str, Any] = {}
        if op in ("insert", "update", "merge", "insert_or_replace",
                  "insert_or_merge", "get", "delete"):
            request = {"partition_key": str(args[1]) if len(args) > 1 else "",
                       "row_key": str(args[2]) if len(args) > 2 else ""}
            if op in ("update", "merge", "delete"):
                request["etag"] = kwargs.get("etag", "*")
            if not error and result is not None:
                etag = getattr(result, "etag", None)
                if etag is not None:
                    summary = {"etag": etag}
        elif op == "query_partition":
            request = {"partition_key": str(args[1]) if len(args) > 1 else ""}
            if not error:
                summary = {"count": len(result)}
        elif op == "query":
            if not error:
                summary = {"count": len(result.entities)}
        return table, request, summary


def audit_account(account, history: History) -> None:
    """Shadow ``account``'s client factories with auditing proxies.

    Works on any account whose clients come from ``<kind>_client()``
    factory methods (sim and emulator alike).  The cache service carries
    no conformance invariants and is left unaudited.
    """
    clock = account.state.clock  # SimClock wraps the DES env; same API

    def now_fn() -> float:
        return clock.now()

    limits = account.state.limits
    history.default_visibility = limits.default_visibility_timeout_seconds
    for kind in ("queue", "blob", "table"):
        factory = getattr(account, f"{kind}_client")

        def make(f=factory, k=kind):
            return AuditedClient(f(), history, k, now_fn)

        setattr(account, f"{kind}_client", make)
