"""Online query-serving primitives (library extension).

The paper's whole pitch is that summarization turns PIT-Search into an
*online* operation; serving it to many users needs the memory story that
the paper leaves implicit. This module supplies the bounded, byte-accounted
LRU cache behind every serving tier, which a lookup falls through in order:

* **answers** - full top-k results per ``(user, normalized query, k)``,
  held by :class:`~repro.core.serve_facade.ServingEngine` (optional);
* **plans** - compiled per-query candidate arrays (topic summaries'
  representatives and weights), held by
  :class:`~repro.core.search.PersonalizedSearcher` (always on);
* **shard pages** - the mapped ``Γ(v)`` shard segments a query touches,
  held by :class:`~repro.core.shards.MmapShardBackend` under its own
  budget; a served engine reads Γ from nowhere else.

Eviction is least-recently-used under a byte budget. Hit/miss/eviction
counters snapshot into :class:`~repro.core.diagnostics.CacheStats`, which
``tier_stats()`` returns per tier and ``ServingEngine.metrics_snapshot``
publishes as the ``cache.tier.<tier>.*`` gauges. The optional
``on_evict`` callback is the demotion seam between tiers (an answer
displaced by the byte budget is downgraded to its compiled plan rather
than recomputed from scratch).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, Optional, Tuple, TypeVar

from .._utils import require_in_range
from .diagnostics import CacheStats

__all__ = ["ByteLRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class ByteLRUCache(Generic[K, V]):
    """LRU cache bounded by the total byte size of its payloads.

    Parameters
    ----------
    max_bytes:
        Byte budget. Inserting past it evicts least-recently-used items
        until the new item fits. An item larger than the whole budget is
        not cached at all (it would displace everything and still thrash).
    name:
        Label used in the :class:`CacheStats` snapshot.
    on_evict:
        Optional ``callback(key, value)`` invoked for every item the
        *byte budget* displaces (the tier-demotion hook). It fires only
        for LRU evictions: not for :meth:`clear` (an intentional drop),
        not when a re-``put`` replaces a key's value, and not for
        oversize items that were never admitted. The callback runs after
        the item has left the cache, so it may safely re-``put``.
    """

    __slots__ = ("_name", "_max_bytes", "_items", "_bytes", "_on_evict",
                 "hits", "misses", "evictions")

    def __init__(
        self,
        max_bytes: int,
        *,
        name: str = "cache",
        on_evict: Optional[Callable[[K, V], None]] = None,
    ):
        require_in_range("max_bytes", max_bytes, 1)
        self._name = str(name)
        self._max_bytes = int(max_bytes)
        self._on_evict = on_evict
        # key -> (value, nbytes); insertion end = most recently used.
        self._items: "OrderedDict[K, tuple]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: K, *, record_miss: bool = True) -> Optional[V]:
        """The cached value (bumped to most-recent), or ``None``.

        With ``record_miss=False`` a miss is not counted: a probe whose
        caller falls back to a lookup that counts it.
        """
        item = self._items.get(key)
        if item is None:
            if record_miss:
                self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return item[0]

    def put(self, key: K, value: V, nbytes: int) -> None:
        """Insert *value* charged at *nbytes*, evicting LRU items to fit."""
        nbytes = int(nbytes)
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        if nbytes > self._max_bytes:
            return
        while self._bytes + nbytes > self._max_bytes and self._items:
            evicted_key, (evicted_value, evicted_bytes) = self._items.popitem(
                last=False
            )
            self._bytes -= evicted_bytes
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(evicted_key, evicted_value)
        self._items[key] = (value, nbytes)
        self._bytes += nbytes

    def clear(self) -> None:
        """Drop every item (counters are kept; they are cumulative).

        An intentional drop, not a capacity eviction: ``on_evict`` does
        not fire (invalidation must not demote stale values anywhere).
        """
        self._items.clear()
        self._bytes = 0

    def pop(self, key: K) -> Optional[V]:
        """Remove *key* and return its value (``None`` when absent).

        Like :meth:`clear`, an intentional removal: no ``on_evict``, no
        hit/miss accounting (this is maintenance, not a lookup).
        """
        item = self._items.pop(key, None)
        if item is None:
            return None
        self._bytes -= item[1]
        return item[0]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: K) -> bool:
        return key in self._items

    def keys(self) -> Tuple[K, ...]:
        """Resident keys, least-recently-used first (a stable copy)."""
        return tuple(self._items.keys())

    def values(self) -> Iterator[V]:
        """Iterate resident values, least-recently-used first."""
        for value, _ in self._items.values():
            yield value

    @property
    def max_bytes(self) -> int:
        """The configured byte budget."""
        return self._max_bytes

    def memory_bytes(self) -> int:
        """Bytes currently charged to resident items."""
        return self._bytes

    def stats(self) -> CacheStats:
        """A :class:`CacheStats` snapshot of the cache's counters."""
        return CacheStats(
            name=self._name,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            n_items=len(self._items),
            current_bytes=self._bytes,
            max_bytes=self._max_bytes,
        )
