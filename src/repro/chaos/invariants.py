"""Conformance checkers over a recorded operation history.

Each checker takes the evidence it needs — the :class:`~.history.History`
audit, the Tracer span stream, the Storage Analytics aggregate — and
returns a list of :class:`Violation`.  An empty list means the run
conformed.  :func:`check_history` bundles every applicable checker.

The checkers judge *conformance under chaos*: injected anomalies are
expected (the fault plan attributed them on the records they hit), so a
violation means the platform mis-handled an operation — a message
vanished with no injected loss, a download's bytes differ from the
writes, two conditional writes on one ETag both won, the analytics
meters drifted from the traffic, or the workload burned through its
retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.ops import WRITE_KINDS
from .history import History
from .ledger import ledger_from_events

__all__ = [
    "Violation",
    "check_queue_conservation",
    "check_blob_integrity",
    "check_table_conformance",
    "check_analytics_conservation",
    "check_termination",
    "check_history",
]

#: ``span.operation`` values that count as ingress for billing purposes.
_WRITE_OPS = frozenset(kind.value for kind in WRITE_KINDS)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributable to a checker."""

    checker: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"checker": self.checker, "message": self.message}


def _violations(checker: str, messages) -> List[Violation]:
    return [Violation(checker, m) for m in messages]


# -- queue message conservation ----------------------------------------------

def check_queue_conservation(history: History) -> List[Violation]:
    """Every acked put consumed exactly once, modulo injected anomalies."""
    ledger = ledger_from_events(history.queue_events())
    return _violations("queue-conservation", ledger.violations())


# -- blob integrity -----------------------------------------------------------

class _BlockBlobReplay:
    def __init__(self) -> None:
        self.staged: Dict[str, bytes] = {}
        self.committed: List[str] = []
        self.tracked = True


class _PageBlobReplay:
    def __init__(self, max_size: int) -> None:
        self.buffer = bytearray(max_size)
        self.tracked = True


def check_blob_integrity(history: History) -> List[Violation]:
    """Reads return exactly the bytes prior writes put there.

    Replays the successful blob writes into a shadow model (block
    contents by id + committed list; page-blob byte buffer) and compares
    every successful read's digest against the replay.  Blobs that saw a
    write above the byte-tracking cap are skipped (size-only evidence).
    """
    out: List[Violation] = []
    blobs: Dict[str, Any] = {}

    def fail(rec, what: str) -> None:
        out.append(Violation(
            "blob-integrity",
            f"blob {rec.target!r}: {what} (op {rec.op} at t={rec.time:.3f})"))

    import hashlib

    def digest(raw: bytes) -> str:
        return hashlib.sha256(raw).hexdigest()[:16]

    for rec in history.records:
        if rec.service != "blob" or not rec.ok:
            continue
        if rec.op == "put_block":
            replay = blobs.setdefault(rec.target, _BlockBlobReplay())
            raw = rec.request.get("bytes")
            if raw is None:
                replay.tracked = False
            else:
                replay.staged[rec.request["block_id"]] = raw
        elif rec.op == "put_block_list":
            replay = blobs.setdefault(rec.target, _BlockBlobReplay())
            ids = list(rec.request["block_ids"])
            if any(b not in replay.staged for b in ids):
                replay.tracked = False
            elif rec.request["merge"]:
                replay.committed.extend(ids)
            else:
                replay.committed = ids
        elif rec.op == "upload_blob":
            raw = rec.request.get("bytes")
            replay = _BlockBlobReplay()
            if raw is None:
                replay.tracked = False
            else:
                replay.staged = {"": raw}
                replay.committed = [""]
            blobs[rec.target] = replay
        elif rec.op == "create_page_blob":
            blobs[rec.target] = _PageBlobReplay(rec.request["max_size"])
        elif rec.op == "put_page":
            replay = blobs.get(rec.target)
            if not isinstance(replay, _PageBlobReplay):
                continue
            raw = rec.request.get("bytes")
            if raw is None:
                replay.tracked = False
            else:
                offset = rec.request["offset"]
                replay.buffer[offset:offset + len(raw)] = raw
        elif rec.op == "get_block":
            replay = blobs.get(rec.target)
            if not isinstance(replay, _BlockBlobReplay) or not replay.tracked:
                continue
            index = rec.request["index"]
            if index >= len(replay.committed):
                fail(rec, f"read of uncommitted block index {index}")
                continue
            expected = replay.staged[replay.committed[index]]
            if rec.result["digest"] != digest(expected):
                fail(rec, f"block {index} bytes differ from the staged write")
        elif rec.op == "download_block_blob":
            replay = blobs.get(rec.target)
            if not isinstance(replay, _BlockBlobReplay) or not replay.tracked:
                continue
            expected = b"".join(replay.staged[b] for b in replay.committed)
            if rec.result["size"] != len(expected):
                fail(rec, f"downloaded {rec.result['size']} B where the "
                          f"committed blocks total {len(expected)} B")
            elif rec.result["digest"] != digest(expected):
                fail(rec, "downloaded bytes differ from the committed "
                          "blocks (chunked reassembly mismatch)")
        elif rec.op == "get_page":
            replay = blobs.get(rec.target)
            if not isinstance(replay, _PageBlobReplay) or not replay.tracked:
                continue
            offset, length = rec.request["offset"], rec.request["length"]
            expected = bytes(replay.buffer[offset:offset + length])
            if rec.result["digest"] != digest(expected):
                fail(rec, f"page range [{offset}, {offset + length}) differs "
                          f"from the written pages")
        elif rec.op == "download_page_blob":
            replay = blobs.get(rec.target)
            if not isinstance(replay, _PageBlobReplay) or not replay.tracked:
                continue
            expected = bytes(replay.buffer)
            if rec.result["size"] != len(expected):
                fail(rec, f"downloaded {rec.result['size']} B of a "
                          f"{len(expected)} B page blob")
            elif rec.result["digest"] != digest(expected):
                fail(rec, "downloaded page blob differs from the written "
                          "pages")
        elif rec.op == "delete_blob":
            blobs.pop(rec.target, None)
    return out


# -- table conformance --------------------------------------------------------

def check_table_conformance(history: History) -> List[Violation]:
    """ETag-conditional writes are exclusive; the entity ledger balances.

    Two successful conditional writes (a concrete ``etag`` argument, not
    the wildcard) against the same ``(table, pk, rk, etag)`` can never
    both win — the first bumps the ETag, so the second must see a
    precondition failure.  Separately, successful inserts minus
    successful deletes must equal the final entity count, per table,
    unless upserts/batches muddy the ledger (then it is skipped) or the
    table itself was deleted.
    """
    out: List[Violation] = []
    cond_wins: Dict[Tuple[str, str, str, str], int] = {}
    inserts: Dict[str, int] = {}
    deletes: Dict[str, int] = {}
    unbalanced: set = set()
    dropped: set = set()
    for rec in history.records:
        if rec.service != "table":
            continue
        if rec.op in ("update", "merge", "delete") and rec.ok:
            etag = rec.request.get("etag")
            if etag not in (None, "*"):
                key = (rec.target, rec.request["partition_key"],
                       rec.request["row_key"], etag)
                cond_wins[key] = cond_wins.get(key, 0) + 1
        if not rec.ok:
            continue
        if rec.op == "insert":
            inserts[rec.target] = inserts.get(rec.target, 0) + 1
        elif rec.op == "delete":
            deletes[rec.target] = deletes.get(rec.target, 0) + 1
        elif rec.op in ("insert_or_replace", "insert_or_merge"):
            unbalanced.add(rec.target)  # upsert: insert-vs-replace unknown
        elif rec.op == "delete_table":
            dropped.add(rec.target)
    for key, wins in sorted(cond_wins.items()):
        if wins > 1:
            table, pk, rk, etag = key
            out.append(Violation(
                "table-conformance",
                f"table {table!r}: {wins} conditional writes against "
                f"({pk!r}, {rk!r}) etag {etag!r} all succeeded (optimistic "
                f"concurrency broken)"))
    for table in sorted(set(inserts) | set(deletes)):
        if table in unbalanced or table in dropped:
            continue
        expected = inserts.get(table, 0) - deletes.get(table, 0)
        actual = history.final_entity_counts.get(table, 0)
        if expected != actual:
            out.append(Violation(
                "table-conformance",
                f"table {table!r}: entity ledger expects {expected} "
                f"entities (inserts - deletes) but {actual} remain"))
    return out


# -- analytics / billing conservation -----------------------------------------

def check_analytics_conservation(spans, metrics) -> List[Violation]:
    """Storage Analytics meters reconcile with the traced span stream.

    Both sides observe every round trip that crosses the interceptor
    pipeline, so per service: request counts match, and the
    ingress/egress byte split (by :data:`~repro.cluster.ops.WRITE_KINDS`)
    matches the meters the billing pipeline would charge from.

    Spans that failed with a *non-protocol* error (empty ``error_code``:
    a role crash interrupting the round trip mid-flight) are excluded —
    Storage Analytics never wrote a $logs line for those by design, so
    they are not a conservation leak.
    """
    out: List[Violation] = []
    per_service: Dict[str, Dict[str, int]] = {}
    for span in spans:
        if span.status != "ok" and not span.error_code:
            continue  # interrupted mid-flight; analytics never saw it
        side = per_service.setdefault(
            span.service, {"requests": 0, "ingress": 0, "egress": 0})
        side["requests"] += 1
        direction = "ingress" if span.operation in _WRITE_OPS else "egress"
        side[direction] += span.nbytes
    services = set(per_service) | set(metrics.services())
    for service in sorted(services):
        side = per_service.get(
            service, {"requests": 0, "ingress": 0, "egress": 0})
        totals = metrics.service_totals(service)
        if totals.total_requests != side["requests"]:
            out.append(Violation(
                "analytics-conservation",
                f"service {service!r}: analytics metered "
                f"{totals.total_requests} requests but the trace recorded "
                f"{side['requests']}"))
        if totals.total_ingress != side["ingress"]:
            out.append(Violation(
                "analytics-conservation",
                f"service {service!r}: metered ingress "
                f"{totals.total_ingress} B != traced write bytes "
                f"{side['ingress']} B"))
        if totals.total_egress != side["egress"]:
            out.append(Violation(
                "analytics-conservation",
                f"service {service!r}: metered egress "
                f"{totals.total_egress} B != traced read bytes "
                f"{side['egress']} B"))
    return out


# -- termination --------------------------------------------------------------

def check_termination(spans, *, retry_budget: int,
                      completed: bool = True) -> List[Violation]:
    """The workload finished, within a bounded retry budget per op."""
    out: List[Violation] = []
    if not completed:
        out.append(Violation(
            "termination", "the workload did not run to completion"))
    worst = 0
    for span in spans:
        worst = max(worst, span.retries)
    if worst > retry_budget:
        out.append(Violation(
            "termination",
            f"an operation took {worst} retries against a budget of "
            f"{retry_budget}"))
    return out


# -- the bundle ---------------------------------------------------------------

def check_history(history: History, *, spans=None, metrics=None,
                  retry_budget: Optional[int] = None,
                  completed: bool = True) -> List[Violation]:
    """Run every checker the supplied evidence makes possible."""
    out: List[Violation] = []
    out.extend(check_queue_conservation(history))
    out.extend(check_blob_integrity(history))
    out.extend(check_table_conformance(history))
    if spans is not None and metrics is not None:
        out.extend(check_analytics_conservation(spans, metrics))
    if spans is not None and retry_budget is not None:
        out.extend(check_termination(spans, retry_budget=retry_budget,
                                     completed=completed))
    return out
