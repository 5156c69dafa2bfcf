"""Partition servers: the contended resources of the storage fabric.

"Windows Azure storage services partition the stored data across several
servers to provide enhanced scalability." (paper Section IV)

A :class:`PartitionServer` models one storage node: a bounded number of
concurrent request slots plus counters.  Requests are served first come,
first served when all slots are busy — that queueing is what turns rising
worker counts into rising per-operation times in Figures 4b, 6-8.

A request books its slot when it arrives: the occupancy is known by then,
so the instant its hold starts and ends follows from the instants the
server's slots free (:meth:`PartitionServer.book`), and its round trip
needs no kernel event for the grant or for the end of the hold.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappush, heapreplace
from typing import Deque, Dict, List, Optional

from ..simkit import Environment, Timeout
from ..simkit.events import NORMAL

__all__ = ["Booking", "PartitionServer", "ServerPool"]


class Booking(Timeout):
    """One request's hold of a slot, ``[start, end)``, and the kernel
    event that completes its round trip ``response`` seconds later: a
    round trip in flight holds this one object."""

    __slots__ = ("start", "end", "occupancy", "response")

    @property
    def event(self) -> "Booking":
        """What the round trip waits for: the booking itself."""
        return self


class PartitionServer:
    """One storage node serving a set of partitions."""

    def __init__(self, env: Environment, name: str, slots: int) -> None:
        if slots <= 0:
            raise ValueError("slots must be > 0")
        self.env = env
        self.name = name
        self.slots = slots
        #: For each slot, the instant its last booking ends (a min-heap).
        self._ends: List[float] = [float("-inf")] * slots
        #: Bookings that had to queue, in arrival order, kept until they
        #: end: the only ones an interrupt can move (see :meth:`cancel`).
        self._queued: Deque[Booking] = deque()
        self.ops_served = 0
        self.bytes_served = 0

    def book(self, occupancy: float, response: float) -> Booking:
        """Book the slot that frees first for ``occupancy`` seconds.

        The first-come-first-served multi-server recursion: the hold
        starts at ``max(now, earliest end)``, which is where the FIFO
        semaphore this replaces granted it, in the same order and to the
        same float.  The booking, itself a :class:`Timeout`, fires
        ``response`` seconds after the hold ends: the round trip's one
        kernel event after its request leg, whether it queued or not.  It
        is built and queued field by field, as ``Environment.timeout_at``
        would, without the calls.
        """
        env = self.env
        now = env._now
        ends = self._ends
        start = ends[0]
        if start < now:
            start = now
        end = start + occupancy
        heapreplace(ends, end)
        when = end + response
        booking = Booking.__new__(Booking)
        booking.env = env
        booking.callbacks = []
        booking._value = None
        booking._ok = True
        booking._defused = False
        booking._delay = when - now
        booking.start = start
        booking.end = end
        booking.occupancy = occupancy
        booking.response = response
        heappush(env._queue, (when, NORMAL, next(env._eid), booking))
        queued = self._queued
        while queued and queued[0].end <= now:
            queued.popleft()
        if start > now:
            queued.append(booking)
        return booking

    def cancel(self, booking: Booking, nbytes: int = 0) -> None:
        """Cut ``booking`` at the current instant (its role was recycled).

        The booking is taken off the kernel's queue.  A hold in progress
        ends now and its slot goes to the next booking; a booking still
        queued leaves the queue.  Either way the bookings behind it that
        had not started are booked again in arrival order, as the
        semaphore's early release and waiter withdrawal granted them, and
        move to their new instants on the kernel's queue.  A hold that had
        already ended is counted as served; one that ends at this very
        instant is cut, as the semaphore's was when the interrupt came
        first.
        """
        env = self.env
        now = env._now
        env.cancel(booking)
        if booking.end <= now:
            if booking.end < now:
                self.ops_served += 1
                self.bytes_served += nbytes
            return
        ends = self._ends
        queued = self._queued
        # A queued booking due to start now has not: the interrupt comes
        # before the hand-over of the instant, as it did to the semaphore.
        waiting = [b for b in queued if b.start >= now]
        # Undo the waiting bookings, newest first: each took the slot that
        # freed first, at the instant it freed (its start).
        for b in reversed(waiting):
            ends.remove(b.end)
            ends.append(b.start)
        if booking in waiting:
            waiting.remove(booking)
            queued.remove(booking)
        else:
            ends.remove(booking.end)
            ends.append(now)
            booking.end = now
        heapify(ends)
        for b in waiting:
            start = max(now, ends[0])
            end = start + b.occupancy
            heapreplace(ends, end)
            if end != b.end:
                env.reschedule(b, end + b.response)
            b.start, b.end = start, end

    @property
    def queue_length(self) -> int:
        """Bookings still waiting for their hold to start."""
        now = self.env._now
        return sum(1 for b in self._queued if b.start > now)


class ServerPool:
    """Lazily-created servers addressed by partition key.

    ``shards=None`` gives every distinct partition its own server (blob and
    queue placement: "each individual blob can be stored at a different
    server"; "a single queue and all the messages stored in it are stored at
    a single server").  With ``shards=k`` partitions hash onto ``k`` servers
    (table range servers).
    """

    def __init__(self, env: Environment, name: str, slots_per_server: int,
                 shards: Optional[int] = None) -> None:
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1 or None")
        self.env = env
        self.name = name
        self.slots_per_server = slots_per_server
        self.shards = shards
        self._servers: Dict[str, PartitionServer] = {}
        # partition -> server, so the shard hash runs once per partition
        # rather than once per op.  An unsharded pool's server keys *are*
        # its partitions: there the memo is ``_servers`` itself.
        self._placed: Dict[str, PartitionServer] = (
            self._servers if shards is None else {})

    def _server_key(self, partition: str) -> str:
        if self.shards is None:
            return partition
        # Stable, platform-independent hash (Python's str hash is salted).
        h = 0
        for ch in partition:
            h = (h * 131 + ord(ch)) & 0x7FFFFFFF
        return f"shard-{h % self.shards}"

    def server_key(self, partition: str) -> str:
        """Public placement lookup: which server key hosts ``partition``."""
        return self._server_key(partition)

    def server_for(self, partition: str) -> PartitionServer:
        server = self._placed.get(partition)
        if server is None:
            key = self._server_key(partition)
            server = self._servers.get(key)
            if server is None:
                server = PartitionServer(
                    self.env, f"{self.name}/{key}", self.slots_per_server
                )
                self._servers[key] = server
            self._placed[partition] = server
        return server

    def evict(self, partition: str) -> Optional[PartitionServer]:
        """Drop the server hosting ``partition`` (fault injection).

        Models a partition-range reassignment after a server crash: the
        next operation against the range lands on a fresh server (empty
        queue, cold counters).  Returns the evicted server, or ``None``
        if the range had no server yet.
        """
        server = self._servers.pop(self._server_key(partition), None)
        if self.shards is not None:
            self._placed.clear()  # other partitions shared that shard
        return server

    @property
    def servers(self) -> Dict[str, PartitionServer]:
        return dict(self._servers)

    def __len__(self) -> int:
        return len(self._servers)
