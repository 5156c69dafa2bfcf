"""Consistent-hash ring: replicated shard placement for the DN tier.

The service nodes used to route with a static ``crc32(label) mod M``
map, which has two production-fatal properties: a dead data node takes
1/M of the keyspace hard-down forever, and any change of M remaps
almost every key.  :class:`HashRing` replaces it with the classic
consistent-hashing construction (Karger et al.; the placement scheme
Dynamo-style stores and the real storage fabric's partition map both
descend from):

* each data node projects ``vnodes`` virtual points onto a 64-bit ring
  (BLAKE2b keyed by node id and replica index — stable across
  processes, unlike :func:`hash`);
* a partition label hashes to a point and is owned by the next
  ``replicas`` *distinct* nodes clockwise — the label's replica set;
* adding or removing a node moves only the arc between it and its ring
  predecessors (minimal movement), which is what makes failover and
  rebalancing cheap.

The ring is pure placement arithmetic: no health, no I/O.  Liveness
filtering lives in :class:`repro.service.membership.Membership`.

With one node — or ``replicas=1`` and a full ring — every lookup
returns exactly one owner, and the service tier reduces to the old
single-owner routing (pinned by ``tests/service/test_ring.py``).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List, Tuple

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual points per node; 64 keeps ownership within a few percent of
#: uniform for single-digit node counts while the ring stays tiny.
DEFAULT_VNODES = 64


def _hash64(data: str) -> int:
    """Stable 64-bit ring position (process- and version-independent)."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(),
        "big")


class HashRing:
    """Virtual-node consistent-hash ring with R-way replica sets."""

    def __init__(self, nodes: Iterable[int] = (), *,
                 vnodes: int = DEFAULT_VNODES, replicas: int = 1) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.vnodes = vnodes
        self.replicas = replicas
        self._nodes: set = set()
        #: Sorted ring positions and their owning node, kept in lockstep.
        self._points: List[int] = []
        self._owners: List[int] = []
        for node in nodes:
            self.add(node)

    # -- membership of the ring itself --------------------------------------
    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, node: int) -> None:
        """Project ``node``'s virtual points onto the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self.vnodes):
            point = _hash64(f"dn{node}:{v}")
            at = bisect.bisect_left(self._points, point)
            # 64-bit collisions across distinct labels are ~impossible;
            # break ties by node id so the ring stays order-independent.
            while (at < len(self._points) and self._points[at] == point
                   and self._owners[at] < node):
                at += 1
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove(self, node: int) -> None:
        """Take ``node`` off the ring; its arcs fall to the successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- placement -----------------------------------------------------------
    def owners(self, label: str, replicas: int = 0) -> Tuple[int, ...]:
        """The first min(R, N) *distinct* nodes clockwise of ``label``.

        Element 0 is the label's primary; the rest are its backups in
        ring order.  ``replicas`` overrides the ring's R for callers
        that need a wider set (the rebalancer asking "who should hold
        this after the ring healed?").
        """
        if not self._points:
            return ()
        want = min(replicas or self.replicas, len(self._nodes))
        start = bisect.bisect_right(self._points, _hash64(label))
        found: List[int] = []
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in found:
                found.append(owner)
                if len(found) == want:
                    break
        return tuple(found)
