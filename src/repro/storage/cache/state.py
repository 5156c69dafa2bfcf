"""Data plane of the Windows Azure (AppFabric) Caching service, 2012 era.

The paper (II.B): "Azure platform also provides a caching service to
temporarily hold data in memory across different servers", and lists caches
among the services to explore as future work (Section V).  This module
implements that substrate so the cache-vs-blob ablation benchmark can
quantify what the paper deferred.

Semantics modeled after the 2011 AppFabric Caching API:

* **named caches** holding key → item entries;
* **absolute or sliding expiration** per item (sliding items renew their
  lifetime on every read);
* **LRU eviction** when a cache exceeds its memory quota;
* ``add`` (fail if present) / ``put`` (upsert) / ``get`` / ``get_and_lock``
  style versioning via monotonically increasing item versions;
* hit/miss/eviction statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..clock import Clock
from ..content import Content, as_content
from ..errors import (
    InvalidOperationError,
    ResourceExistsError,
    ResourceNotFoundError,
)

__all__ = ["CacheServiceState", "CacheState", "CacheItem", "CacheStats"]


class CacheNotFoundError(ResourceNotFoundError):
    error_code = "NamedCacheNotFound"


@dataclass
class CacheItem:
    """One cached entry (value + expiry bookkeeping)."""

    key: str
    value: Content
    version: int
    expires_at: float
    sliding_ttl: Optional[float] = None

    @property
    def size(self) -> int:
        return self.value.size

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one named cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class CacheState:
    """One named cache: an LRU-ordered, size-bounded key/value store."""

    def __init__(self, service: "CacheServiceState", name: str,
                 capacity_bytes: int, default_ttl: float) -> None:
        if capacity_bytes <= 0:
            raise InvalidOperationError("capacity_bytes must be > 0")
        if default_ttl <= 0:
            raise InvalidOperationError("default_ttl must be > 0")
        self._service = service
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.default_ttl = default_ttl
        #: LRU order: most-recently-used at the end.
        self._items: "OrderedDict[str, CacheItem]" = OrderedDict()
        self._bytes = 0
        self._version = 0
        self.stats = CacheStats()

    # -- internals -----------------------------------------------------------
    def _now(self) -> float:
        return self._service._clock.now()

    def _expire(self, key: str) -> None:
        item = self._items.pop(key, None)
        if item is not None:
            self._bytes -= item.size
            self.stats.expirations += 1

    def _evict_to_fit(self, incoming: int) -> None:
        while self._items and self._bytes + incoming > self.capacity_bytes:
            _, item = self._items.popitem(last=False)  # LRU victim
            self._bytes -= item.size
            self.stats.evictions += 1

    # -- API --------------------------------------------------------------
    def put(self, key: str, value, *, ttl: Optional[float] = None,
            sliding: bool = False) -> CacheItem:
        """Upsert an item.  ``sliding=True`` renews the TTL on every get."""
        content = as_content(value)
        if content.size > self.capacity_bytes:
            raise InvalidOperationError(
                f"item of {content.size} B exceeds cache capacity "
                f"{self.capacity_bytes} B"
            )
        ttl = self.default_ttl if ttl is None else ttl
        if ttl <= 0:
            raise InvalidOperationError("ttl must be > 0")
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= old.size
        self._evict_to_fit(content.size)
        self._version += 1
        item = CacheItem(
            key=key, value=content, version=self._version,
            expires_at=self._now() + ttl,
            sliding_ttl=ttl if sliding else None,
        )
        self._items[key] = item
        self._bytes += content.size
        return replace(item)  # a sliding get renews the stored item only

    def add(self, key: str, value, *, ttl: Optional[float] = None,
            sliding: bool = False) -> CacheItem:
        """Insert only if absent (the AppFabric ``Add``)."""
        existing = self._items.get(key)
        if existing is not None and not existing.expired(self._now()):
            raise ResourceExistsError(f"key {key!r} already cached")
        return self.put(key, value, ttl=ttl, sliding=sliding)

    def get(self, key: str) -> Optional[CacheItem]:
        """Fetch an item, or None on miss (expired counts as a miss)."""
        item = self._items.get(key)
        now = self._now()
        if item is None:
            self.stats.misses += 1
            return None
        if item.expired(now):
            self._expire(key)
            self.stats.misses += 1
            return None
        # LRU touch + sliding renewal.
        self._items.move_to_end(key)
        if item.sliding_ttl is not None:
            item.expires_at = now + item.sliding_ttl
        self.stats.hits += 1
        return item

    def contains(self, key: str) -> bool:
        """Presence check without disturbing LRU order or stats."""
        item = self._items.get(key)
        return item is not None and not item.expired(self._now())

    def remove(self, key: str) -> bool:
        """Remove an item; returns whether it was present."""
        item = self._items.pop(key, None)
        if item is None:
            return False
        self._bytes -= item.size
        return True

    def clear(self) -> None:
        self._items.clear()
        self._bytes = 0

    @property
    def item_count(self) -> int:
        return len(self._items)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def keys(self) -> List[str]:
        """Keys in LRU order (least recent first), unexpired only."""
        now = self._now()
        return [k for k, item in self._items.items() if not item.expired(now)]


class CacheServiceState:
    """Root state of the caching service (named caches)."""

    #: Default quota of a named cache (the 2012 service sold 128 MB tiers).
    DEFAULT_CAPACITY = 128 * 1024 * 1024
    #: Default item lifetime (AppFabric default was 10 minutes).
    DEFAULT_TTL = 600.0

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self.caches: Dict[str, CacheState] = {}

    def create_cache(self, name: str, *,
                     capacity_bytes: int = DEFAULT_CAPACITY,
                     default_ttl: float = DEFAULT_TTL,
                     fail_on_exist: bool = False) -> CacheState:
        if name in self.caches:
            if fail_on_exist:
                raise ResourceExistsError(f"cache {name!r} already exists")
            return self.caches[name]
        cache = CacheState(self, name, capacity_bytes, default_ttl)
        self.caches[name] = cache
        return cache

    def get_cache(self, name: str) -> CacheState:
        try:
            return self.caches[name]
        except KeyError:
            raise CacheNotFoundError(f"cache {name!r} not found") from None

    def delete_cache(self, name: str) -> None:
        self.get_cache(name)
        del self.caches[name]

    def list_caches(self) -> List[str]:
        return sorted(self.caches)
