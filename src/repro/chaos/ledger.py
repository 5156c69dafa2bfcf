"""The queue-conservation ledger: message accounting for a run.

A :class:`QueueLedger` counts what happened to every queue message over a
run, built by folding *ledger events* — plain tuples, so tests can
generate synthetic histories without the harness:

* ``("put", queue, msg_id)`` — an acked ``PutMessage`` whose message
  landed (the service returned the id);
* ``("put_lost", queue, injected)`` — an acked put whose payload never
  landed; ``injected`` says whether a message-loss fault was attributed;
* ``("deliver", queue, msg_id, dequeue_count, explained)`` — one
  ``GetMessage`` delivery; ``explained`` is ``""`` for a first delivery,
  ``"dup"`` when an injected duplicate-delivery fault accounts for a
  repeat, ``"timeout"`` when a genuine visibility-timeout expiry does;
* ``("delete", queue, msg_id, found)`` — a ``DeleteMessage`` attempt;
* ``("remaining", queue, msg_id)`` — a message still in the queue when
  the run ended (from the final state snapshot);
* ``("purge", queue)`` — the queue itself was deleted, taking any
  leftover messages with it (``DeleteQueue`` clears the queue).

The hypothesis tests in ``tests/chaos/test_ledger.py`` check the laws
below over generated histories.

:meth:`QueueLedger.violations` evaluates the conservation laws:

1. a put acked without a landing and without injected loss is a silent
   message drop;
2. a delivered id must have been put (no phantom messages);
3. per message, deliveries beyond the first need an explanation
   (injected duplicate delivery or an expired visibility timeout);
4. deletes never exceed deliveries (a receipt proves a delivery);
5. every landed put is deleted, still remaining, or covered by a queue
   purge — otherwise the message vanished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["QueueLedger", "ledger_from_events"]


@dataclass(frozen=True)
class QueueLedger:
    """Message-conservation accounting for any number of queues."""

    #: (queue, msg_id) -> acked puts that landed (normally exactly 1).
    puts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: queue -> acked puts lost to an *injected* message-loss fault.
    lost_injected: Dict[str, int] = field(default_factory=dict)
    #: queue -> acked puts lost with no fault attributed (a real bug).
    lost_silent: Dict[str, int] = field(default_factory=dict)
    #: (queue, msg_id) -> delivery count.
    deliveries: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (queue, msg_id) -> deliveries explained by injected duplicate
    #: delivery or by a genuine visibility-timeout expiry.
    explained: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (queue, msg_id) -> successful deletes.
    deletes: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (queue, msg_id) -> delete attempts that found nothing (stale
    #: receipts after redelivery; tolerated, counted for diagnostics).
    deletes_missing: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (queue, msg_id) -> messages still present at the end of the run.
    remaining: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Queues that were deleted (leftover messages were purged with them).
    purged: Tuple[str, ...] = ()

    # -- derived -----------------------------------------------------------
    def queues(self) -> List[str]:
        names: Set[str] = set(self.purged)
        for source in (self.puts, self.deliveries, self.deletes,
                       self.remaining):
            names.update(q for q, _ in source)
        names.update(self.lost_injected)
        names.update(self.lost_silent)
        return sorted(names)

    def acked_puts(self, queue: str) -> int:
        landed = sum(n for (q, _), n in self.puts.items() if q == queue)
        return (landed + self.lost_injected.get(queue, 0)
                + self.lost_silent.get(queue, 0))

    # -- the laws ----------------------------------------------------------
    def violations(self) -> List[str]:
        """Every conservation-law breach, as human-readable strings."""
        out: List[str] = []
        for queue, n in sorted(self.lost_silent.items()):
            if n > 0:
                out.append(
                    f"queue {queue!r}: {n} acked put(s) vanished without an "
                    f"injected message-loss fault")
        put_keys = set(self.puts)
        for key in sorted(set(self.deliveries) - put_keys):
            out.append(
                f"queue {key[0]!r}: delivery of message {key[1]!r} that was "
                f"never put (phantom message)")
        for key, n in sorted(self.deliveries.items()):
            allowed = 1 + self.explained.get(key, 0)
            if n > allowed:
                out.append(
                    f"queue {key[0]!r}: message {key[1]!r} delivered {n} "
                    f"times with only {allowed - 1} explained repeat(s) "
                    f"(unexplained duplicate delivery)")
        for key, n in sorted(self.deletes.items()):
            if n > self.deliveries.get(key, 0):
                out.append(
                    f"queue {key[0]!r}: message {key[1]!r} deleted {n} "
                    f"time(s) against {self.deliveries.get(key, 0)} "
                    f"deliveries (delete without delivery)")
        purged = set(self.purged)
        for key in sorted(put_keys):
            queue, msg_id = key
            terminated = (self.deletes.get(key, 0) > 0
                          or self.remaining.get(key, 0) > 0
                          or queue in purged)
            if not terminated:
                out.append(
                    f"queue {queue!r}: message {msg_id!r} was put but is "
                    f"neither deleted, remaining, nor purged (message "
                    f"vanished)")
        for key in sorted(set(self.remaining) - put_keys):
            out.append(
                f"queue {key[0]!r}: remaining message {key[1]!r} has no "
                f"recorded put (phantom remainder)")
        return out


def ledger_from_events(events: Iterable[Tuple]) -> QueueLedger:
    """Fold plain ledger events into one :class:`QueueLedger`."""
    puts: Dict[Tuple[str, str], int] = {}
    lost_injected: Dict[str, int] = {}
    lost_silent: Dict[str, int] = {}
    deliveries: Dict[Tuple[str, str], int] = {}
    explained: Dict[Tuple[str, str], int] = {}
    deletes: Dict[Tuple[str, str], int] = {}
    deletes_missing: Dict[Tuple[str, str], int] = {}
    remaining: Dict[Tuple[str, str], int] = {}
    purged: Set[str] = set()

    def bump(counter: Dict, key) -> None:
        counter[key] = counter.get(key, 0) + 1

    for event in events:
        kind = event[0]
        if kind == "put":
            bump(puts, (event[1], event[2]))
        elif kind == "put_lost":
            bump(lost_injected if event[2] else lost_silent, event[1])
        elif kind == "deliver":
            key = (event[1], event[2])
            bump(deliveries, key)
            if event[4]:
                bump(explained, key)
        elif kind == "delete":
            key = (event[1], event[2])
            bump(deletes if event[3] else deletes_missing, key)
        elif kind == "remaining":
            bump(remaining, (event[1], event[2]))
        elif kind == "purge":
            purged.add(event[1])
        else:
            raise ValueError(f"unknown ledger event kind {kind!r}")
    return QueueLedger(
        puts=puts, lost_injected=lost_injected, lost_silent=lost_silent,
        deliveries=deliveries, explained=explained, deletes=deletes,
        deletes_missing=deletes_missing, remaining=remaining,
        purged=tuple(sorted(purged)),
    )
