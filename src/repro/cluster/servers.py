"""Partition servers: the contended resources of the storage fabric.

"Windows Azure storage services partition the stored data across several
servers to provide enhanced scalability." (paper Section IV)

A :class:`PartitionServer` models one storage node: a bounded number of
concurrent request slots (a :class:`repro.simkit.Resource`) plus counters.
Requests queue FIFO when all slots are busy — that queueing is what turns
rising worker counts into rising per-operation times in Figures 4b, 6-8.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..simkit import Environment, Resource

__all__ = ["PartitionServer", "ServerPool"]


class PartitionServer:
    """One storage node serving a set of partitions."""

    def __init__(self, env: Environment, name: str, slots: int) -> None:
        self.env = env
        self.name = name
        self.slots = Resource(env, capacity=slots)
        self.ops_served = 0
        self.bytes_served = 0

    def serve(self, occupancy: float, nbytes: int = 0):
        """Process generator: hold one slot for ``occupancy`` seconds.

        A free slot is taken on the spot, so an uncontended hold costs one
        kernel event (its occupancy timeout); a request that has to queue
        adds one grant event.  The counters record *completed* holds: one
        cut short by an :class:`~repro.simkit.Interrupt` (a recycled role)
        gives its slot back — or, if it was still waiting, leaves the
        queue — and is not counted as served.
        """
        slots = self.slots
        if not slots.try_acquire():
            request = slots.request()
            try:
                yield request
            except BaseException:
                slots.release(request)
                raise
        try:
            yield self.env.timeout(occupancy)
            self.ops_served += 1
            self.bytes_served += nbytes
        finally:
            slots.release()

    @property
    def queue_length(self) -> int:
        return len(self.slots.queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PartitionServer {self.name} busy={self.slots.count}/{self.slots.capacity}>"


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
