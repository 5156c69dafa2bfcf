"""Shared-resource primitives for :mod:`repro.simkit`.

Two classic primitives, mirroring SimPy's semantics:

* :class:`Resource` — a semaphore with ``capacity`` slots and a FIFO
  wait queue.  Models servers, NICs, connection pools.
* :class:`Store` — a queue of discrete Python objects.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .events import PENDING, Event

__all__ = [
    "Request",
    "Resource",
    "Store",
]


class Request(Event):
    """Grant event for one slot of a :class:`Resource`.

    Usable as a context manager: the slot is released on exit. ::

        with resource.request() as req:
            yield req
            ... hold the resource ...

    A request that found a free slot is *born processed*: yielding it
    continues the process at once, without a trip through the scheduler.
    """

    __slots__ = ("resource", "_held")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: True from the grant decision until the slot is released.
        self._held = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if granted, or withdraw from the wait queue."""
        self.resource.release(self)


class Resource:
    """A semaphore with ``capacity`` slots and a FIFO wait queue.

    The slot protocol costs a kernel event only when somebody has to
    wait.  :meth:`try_acquire` takes a free slot on the spot — no event,
    no object; :meth:`release` hands the slot straight to the oldest
    waiter (one grant event, delivered at the current instant) or frees
    it.  :meth:`request` is the event-shaped face of the same two calls.

    **Interrupt rule:** whoever holds a :class:`Request` must pass it to
    :meth:`release` when it stops waiting or holding, however it stops
    (``with`` does so).  A queued request is withdrawn; a granted one —
    delivered or still in the scheduler — passes its slot on.
    """

    __slots__ = ("env", "_capacity", "count", "queue", "_last_grant")

    def __init__(self, env, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        #: Number of slots currently in use (granted, delivered or not).
        self.count = 0
        #: Requests waiting for a slot, in grant order.
        self.queue: Deque[Request] = deque()
        # The newest grant sent through the scheduler.  Grants are
        # delivered in order, so while this one is undelivered a newcomer
        # must not overtake it (see try_acquire).
        self._last_grant: Optional[Request] = None

    @property
    def capacity(self) -> int:
        return self._capacity

    def try_acquire(self) -> bool:
        """Take a free slot on the spot; False if the caller must wait.

        Also False while an earlier grant is still on its way through the
        scheduler, so that grants are delivered in decision order.
        Pair a True with a bare :meth:`release`.
        """
        if self.count < self._capacity:
            last = self._last_grant
            if last is None or last.callbacks is None:
                self.count += 1
                return True
        return False

    def request(self) -> Request:
        """Request a slot; the returned event fires once granted."""
        request = Request(self)
        if self.try_acquire():
            request._held = True
            request._value = None
            request.callbacks = None
        elif self.count < self._capacity:
            self.count += 1
            self._grant(request)
        else:
            self.queue.append(request)
        return request

    def release(self, request: Optional[Request] = None) -> None:
        """Give back a slot: ``request``'s, or one from :meth:`try_acquire`.

        A still-queued ``request`` is withdrawn instead; releasing one
        twice is a no-op, which makes the context-manager protocol safe
        to nest with explicit releases.
        """
        if request is not None:
            if not request._held:
                if request._value is PENDING:
                    try:
                        self.queue.remove(request)
                    except ValueError:
                        pass  # withdrawn before
                return
            request._held = False
        if self.queue:
            self._grant(self.queue.popleft())
        else:
            self.count -= 1

    def _grant(self, request: Request) -> None:
        request._held = True
        request._value = None
        self.env.schedule(request)
        self._last_grant = request

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} capacity={self._capacity} "
                f"count={self.count} queued={len(self.queue)}>")


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class _StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_waiters.append(self)
        store._trigger()


class Store:
    """A FIFO queue of Python objects with optional capacity bound."""

    __slots__ = ("env", "_capacity", "items", "_put_waiters", "_get_waiters")

    def __init__(self, env, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[_StorePut] = []
        self._get_waiters: List[_StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, item: Any) -> _StorePut:
        return _StorePut(self, item)

    def get(self) -> _StoreGet:
        return _StoreGet(self)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit puts while there is room.
            while self._put_waiters and len(self.items) < self._capacity:
                put = self._put_waiters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Serve gets in FIFO order.
            while self._get_waiters and self.items:
                self._get_waiters.pop(0).succeed(self.items.pop(0))
                progressed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} items={len(self.items)}>"
