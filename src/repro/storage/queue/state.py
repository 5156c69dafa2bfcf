"""Data plane of the Windows Azure Queue service (2012 semantics).

Implements the behaviours the paper's Algorithms 2-4 depend on:

* ``PutMessage`` / ``GetMessage`` / ``PeekMessage`` / ``DeleteMessage``;
* **visibility timeouts** — a gotten message becomes invisible to other
  consumers and *reappears* unless deleted in time ("if the consumer does
  not delete the message after its consumption, it reappears in the queue
  after a certain time") — this is the platform's built-in fault tolerance;
* **TTL expiry** — messages left longer than 7 days (2 hours in the 2010-era
  limits) vanish;
* **no FIFO guarantee** — retrieval is approximately FIFO; an optional
  seeded shuffle models the observable reordering the paper warns about;
* the 64 KB message limit with only 48 KB of usable payload;
* ``approximate_message_count``, which Algorithm 2's barrier polls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional

from ..clock import Clock
from ..content import Content, as_content
from ..errors import (
    InvalidOperationError,
    MessageNotFoundError,
    MessageTooLargeError,
    QueueNotFoundError,
    ResourceExistsError,
)
from ..limits import LIMITS_2012, ServiceLimits
from ..naming import validate_queue_name

__all__ = ["QueueServiceState", "QueueState", "QueueMessage"]

#: Metadata overhead per message: of the 64 KB wire limit only 48 KB carry
#: payload ("rest of the message content is metadata", paper IV.B).
_MESSAGE_OVERHEAD_FACTOR = 4 / 3


@dataclass
class QueueMessage:
    """One queue message, including its server-side bookkeeping."""

    message_id: str
    content: Content
    insertion_time: float
    expiration_time: float
    #: Time before which the message is invisible to consumers.
    next_visible_time: float
    dequeue_count: int = 0
    #: Receipt returned by the last ``get``; required to delete/update.
    pop_receipt: Optional[str] = None

    def snapshot(self) -> "QueueMessage":
        """A copy a caller may keep: later gets/updates do not reach it."""
        return QueueMessage(
            self.message_id, self.content, self.insertion_time,
            self.expiration_time, self.next_visible_time,
            self.dequeue_count, self.pop_receipt)

    def visible(self, now: float) -> bool:
        return now >= self.next_visible_time

    def expired(self, now: float) -> bool:
        return now >= self.expiration_time

    @property
    def size(self) -> int:
        return self.content.size


class QueueState:
    """One named queue: an (approximately FIFO) list of messages."""

    def __init__(self, service: "QueueServiceState", name: str) -> None:
        self._service = service
        self.name = validate_queue_name(name)
        self._messages: List[QueueMessage] = []
        self._ids = count(1)
        self._receipts = count(1)
        self.created_at = service._clock.now()
        #: Earliest expiration among stored messages; a full purge scan only
        #: runs once the clock passes it (keeps per-op cost O(1) while the
        #: 7-day TTL is far away, which is every benchmark).
        self._next_expiry = float("inf")
        #: The FIFO scan's cursor: the first ``_hidden`` messages are known
        #: to be invisible until ``_hidden_until`` (a lower bound on their
        #: visibility times), so a scan before then starts behind them —
        #: gets keep a run of in-flight messages at the head of a busy
        #: queue.  Visibility only grows with time, so the bound holds
        #: while a clock steps back too.
        self._hidden = 0
        self._hidden_until = float("inf")

    # -- internal ---------------------------------------------------------
    # Each public method asks the clock once and hands the reading to the
    # helpers below: one call per op on any clock.
    def _purge_expired(self, now: float) -> None:
        if now < self._next_expiry:
            return
        kept = []
        next_expiry = float("inf")
        for m in self._messages:
            if m.expired(now):
                self._service._account_delta(-m.size)
            else:
                kept.append(m)
                if m.expiration_time < next_expiry:
                    next_expiry = m.expiration_time
        self._messages = kept
        self._next_expiry = next_expiry
        self._hidden, self._hidden_until = 0, float("inf")

    def _visible_indices(self, now: float,
                         limit: Optional[int] = None) -> List[int]:
        rng = self._service._reorder_rng
        if rng is None and limit is not None:
            # FIFO fast path: only the first ``limit`` visible messages are
            # needed; stop scanning as soon as they are found.  The scan
            # starts behind the known-invisible head and re-derives it.
            messages = self._messages
            if now < self._hidden_until:
                hidden, until = self._hidden, self._hidden_until
            else:
                hidden, until = 0, float("inf")
            idx: List[int] = []
            for i in range(hidden, len(messages)):
                visible_at = messages[i].next_visible_time
                if now >= visible_at:
                    idx.append(i)
                    if len(idx) >= limit:
                        break
                elif not idx:
                    hidden = i + 1
                    if visible_at < until:
                        until = visible_at
            self._hidden, self._hidden_until = hidden, until
            return idx
        idx = [i for i, m in enumerate(self._messages) if m.visible(now)]
        if rng is not None and len(idx) > 1:
            # Model the lack of a FIFO guarantee: the storage front-ends may
            # serve any visible message. A light shuffle keeps it almost-FIFO
            # like the real service while exercising the non-FIFO code paths.
            perm = rng.permutation(len(idx))
            idx = [idx[i] for i in perm]
        return idx

    # -- producer API -------------------------------------------------------
    def put_message(self, data, *, ttl: Optional[float] = None,
                    visibility_delay: float = 0.0) -> QueueMessage:
        """Add a message (``PutMessage``).

        ``ttl`` defaults to (and is capped at) the era's maximum; payload is
        limited to 48 KB usable bytes (64 KB wire size).
        """
        content = as_content(data)
        limits = self._service.limits
        if content.size > limits.max_message_payload_bytes:
            raise MessageTooLargeError(
                f"payload of {content.size} B exceeds usable maximum "
                f"{limits.max_message_payload_bytes} B "
                f"(wire limit {limits.max_message_bytes} B incl. metadata)"
            )
        if visibility_delay < 0:
            raise InvalidOperationError("visibility_delay must be >= 0")
        now = self._service._clock.now()
        max_ttl = limits.max_message_ttl_seconds
        if ttl is None or ttl > max_ttl:
            ttl = max_ttl
        if ttl <= 0:
            raise InvalidOperationError(f"ttl must be positive, got {ttl}")
        msg = QueueMessage(
            message_id=f"{self.name}-{next(self._ids)}",
            content=content,
            insertion_time=now,
            expiration_time=now + ttl,
            next_visible_time=now + visibility_delay,
        )
        # Charge capacity first: a rejected put must not leave the message
        # behind.
        self._service._account_delta(msg.size)
        self._messages.append(msg)
        if msg.expiration_time < self._next_expiry:
            self._next_expiry = msg.expiration_time
        return msg.snapshot()

    # -- consumer API ---------------------------------------------------------
    def get_messages(self, n: int = 1, *,
                     visibility_timeout: Optional[float] = None) -> List[QueueMessage]:
        """Retrieve up to ``n`` visible messages (``GetMessage``).

        Each returned message becomes invisible for ``visibility_timeout``
        seconds and carries a fresh pop receipt; its dequeue count is
        incremented.  Unless deleted before the timeout elapses, the message
        reappears for other consumers (at-least-once delivery).
        """
        if n < 1:
            raise InvalidOperationError("n must be >= 1")
        now = self._service._clock.now()
        self._purge_expired(now)
        if visibility_timeout is None:
            visibility_timeout = self._service.limits.default_visibility_timeout_seconds
        if visibility_timeout <= 0:
            raise InvalidOperationError("visibility_timeout must be > 0")
        got: List[QueueMessage] = []
        for i in self._visible_indices(now, limit=n):
            if len(got) >= n:
                break
            m = self._messages[i]
            m.next_visible_time = now + visibility_timeout
            m.dequeue_count += 1
            m.pop_receipt = f"rcpt-{next(self._receipts)}"
            # Hand out a snapshot: the receipt a consumer holds must not
            # change when another consumer later re-gets the message.
            got.append(m.snapshot())
        return got

    def get_message(self, *, visibility_timeout: Optional[float] = None
                    ) -> Optional[QueueMessage]:
        """Retrieve one message, or ``None`` if none is visible."""
        got = self.get_messages(1, visibility_timeout=visibility_timeout)
        return got[0] if got else None

    def peek_messages(self, n: int = 1) -> List[QueueMessage]:
        """Look at up to ``n`` visible messages without any state change."""
        if n < 1:
            raise InvalidOperationError("n must be >= 1")
        now = self._service._clock.now()
        self._purge_expired(now)
        return [self._messages[i].snapshot()
                for i in self._visible_indices(now, limit=n)[:n]]

    def next_visible_size(self) -> int:
        """Payload size of the message a get or peek would return now (0
        if none is visible): ``peek_messages(1)``'s, without the copy."""
        now = self._service._clock.now()
        self._purge_expired(now)
        idx = self._visible_indices(now, limit=1)
        return self._messages[idx[0]].content.size if idx else 0

    def peek_message(self) -> Optional[QueueMessage]:
        peeked = self.peek_messages(1)
        return peeked[0] if peeked else None

    def delete_message(self, message_id: str, pop_receipt: str) -> None:
        """Delete a previously-gotten message (receipt must match)."""
        self._purge_expired(self._service._clock.now())
        for i, m in enumerate(self._messages):
            if m.message_id == message_id:
                if m.pop_receipt != pop_receipt or pop_receipt is None:
                    raise MessageNotFoundError(
                        f"pop receipt {pop_receipt!r} no longer valid for "
                        f"message {message_id!r}"
                    )
                self._service._account_delta(-m.size)
                del self._messages[i]
                if i < self._hidden:
                    self._hidden -= 1
                return
        raise MessageNotFoundError(f"message {message_id!r} not found")

    def update_message(self, message_id: str, pop_receipt: str, data=None, *,
                       visibility_timeout: float = 0.0) -> QueueMessage:
        """Update content and/or extend invisibility of a gotten message."""
        now = self._service._clock.now()
        self._purge_expired(now)
        for i, m in enumerate(self._messages):
            if m.message_id == message_id:
                if m.pop_receipt != pop_receipt or pop_receipt is None:
                    raise MessageNotFoundError(
                        f"pop receipt {pop_receipt!r} no longer valid"
                    )
                if data is not None:
                    content = as_content(data)
                    limits = self._service.limits
                    if content.size > limits.max_message_payload_bytes:
                        raise MessageTooLargeError(
                            f"payload of {content.size} B exceeds "
                            f"{limits.max_message_payload_bytes} B"
                        )
                    self._service._account_delta(content.size - m.size)
                    m.content = content
                m.next_visible_time = now + max(0.0, visibility_timeout)
                self._lowered(i, m.next_visible_time)
                m.pop_receipt = f"rcpt-{next(self._receipts)}"
                return m.snapshot()
        raise MessageNotFoundError(f"message {message_id!r} not found")

    def make_visible(self, message_id: str) -> bool:
        """Force a message visible *now*, ignoring its visibility timeout.

        Fault-injection/test helper: models duplicate delivery — the
        at-least-once anomaly where a gotten message is served to another
        consumer as well.  Returns False if the message no longer exists.
        """
        for i, m in enumerate(self._messages):
            if m.message_id == message_id:
                m.next_visible_time = self._service._clock.now()
                self._lowered(i, m.next_visible_time)
                return True
        return False

    def _lowered(self, i: int, visible_at: float) -> None:
        """Message ``i`` may now be visible from ``visible_at`` on."""
        if i < self._hidden and visible_at < self._hidden_until:
            self._hidden_until = visible_at

    def clear(self) -> None:
        """Delete all messages."""
        for m in self._messages:
            self._service._account_delta(-m.size)
        self._messages = []
        self._hidden, self._hidden_until = 0, float("inf")

    # -- introspection --------------------------------------------------------
    def approximate_message_count(self) -> int:
        """Count of non-expired messages (visible or not).

        This is what Algorithm 2's barrier polls via ``GetMsgCount``; like
        the real service it counts invisible messages too.
        """
        self._purge_expired(self._service._clock.now())
        return len(self._messages)

    def visible_message_count(self) -> int:
        """Count of currently visible messages (test/diagnostic helper)."""
        now = self._service._clock.now()
        self._purge_expired(now)
        return sum(1 for m in self._messages if m.visible(now))

    def partition_key(self) -> str:
        """Queues are partitioned on the queue name alone (paper IV.B)."""
        return self.name

    def __len__(self) -> int:
        return self.approximate_message_count()


class QueueServiceState:
    """Root state of the queue service of one storage account."""

    def __init__(self, clock: Clock, limits: ServiceLimits = LIMITS_2012,
                 account=None, *, fifo_jitter_seed: Optional[int] = None) -> None:
        self._clock = clock
        self.limits = limits
        self._account = account
        self.queues: Dict[str, QueueState] = {}
        #: When set, visible-message selection is shuffled (non-FIFO model).
        self._reorder_rng = None
        if fifo_jitter_seed is not None:
            import numpy as np

            self._reorder_rng = np.random.default_rng(fifo_jitter_seed)

    def _account_delta(self, delta: int) -> None:
        if self._account is not None:
            self._account.adjust_usage(delta)

    def create_queue(self, name: str, *, fail_on_exist: bool = False) -> QueueState:
        """Create a queue (idempotent unless ``fail_on_exist``)."""
        if name in self.queues:
            if fail_on_exist:
                raise ResourceExistsError(f"queue {name!r} already exists")
            return self.queues[name]
        queue = QueueState(self, name)
        self.queues[name] = queue
        return queue

    def get_queue(self, name: str) -> QueueState:
        try:
            return self.queues[name]
        except KeyError:
            raise QueueNotFoundError(f"queue {name!r} not found") from None

    def delete_queue(self, name: str) -> None:
        queue = self.get_queue(name)
        queue.clear()
        del self.queues[name]

    def list_queues(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self.queues if n.startswith(prefix))

    def total_bytes(self) -> int:
        return sum(
            m.size for q in self.queues.values() for m in q._messages
        )
