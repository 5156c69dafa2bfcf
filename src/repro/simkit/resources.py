"""Shared-resource primitives for :mod:`repro.simkit`.

Two classic primitives, mirroring SimPy's semantics:

* :class:`Resource` — a semaphore with ``capacity`` slots and a FIFO
  wait queue.  Models servers, NICs, connection pools.
* :class:`Store` — a queue of discrete Python objects.
"""

from __future__ import annotations

from typing import Any, List

from .events import Event

__all__ = [
    "Request",
    "Release",
    "Resource",
    "Store",
]


class Request(Event):
    """Request event for one slot of a :class:`Resource`.

    Usable as a context manager: the slot is released on exit. ::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if granted, or withdraw from the wait queue."""
        self.resource.release(self)


class Release(Event):
    """Immediate event confirming the release of a request's slot."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        resource._do_release(self)
        self.succeed()


class Resource:
    """A semaphore with ``capacity`` slots and a FIFO wait queue."""

    __slots__ = ("env", "_capacity", "users", "queue")

    def __init__(self, env, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        #: Requests currently holding a slot.
        self.users: List[Request] = []
        #: Requests waiting for a slot, in grant order.
        self.queue: List[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Request a slot; the returned event fires once granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release the slot held by ``request`` (or cancel a pending one)."""
        return Release(self, request)

    # -- internal ------------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _do_release(self, release: Release) -> None:
        request = release.request
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif request in self.queue:
            self.queue.remove(request)
        # Releasing an unknown/already-released request is a no-op, which
        # makes the context-manager protocol safe to nest with explicit
        # releases.

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            nxt.succeed()

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
