"""Key-to-cache index (§4.2).

Each Cloudburst cache periodically publishes a snapshot of its cached key set
to Anna.  Anna ingests these snapshots and incrementally builds an index that
maps every key to the set of caches holding it.  The index serves two
purposes:

* Anna uses it to propagate key updates to the caches that store the key, so
  caches stay fresh without polling.
* The schedulers read it to make locality-aware placement decisions (§4.3).

The index is partitioned across storage nodes using the same consistent-hash
scheme as the key space itself; this module tracks the per-key overhead that
§6.1.4 reports (median 24 bytes, 99th percentile 1.3 KB in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Set

_NO_HOLDERS: FrozenSet[str] = frozenset()


@dataclass
class IndexOverhead:
    """Per-key index size statistics (the §6.1.4 measurement)."""

    median_bytes: float
    p99_bytes: float
    max_bytes: float
    total_bytes: int
    tracked_keys: int


class KeyCacheIndex:
    """Maps each key to the set of cache ids that currently store it."""

    #: Approximate serialized size of one cache address in the index.
    BYTES_PER_CACHE_ENTRY = 24

    def __init__(self):
        self._key_to_caches: Dict[str, Set[str]] = {}
        self._cache_to_keys: Dict[str, Set[str]] = {}

    # -- snapshot ingestion -----------------------------------------------------
    def ingest_snapshot(self, cache_id: str, cached_keys: Iterable[str]) -> None:
        """Replace the index's view of one cache with a fresh key-set snapshot."""
        new_keys = set(cached_keys)
        old_keys = self._cache_to_keys.get(cache_id, set())
        for key in old_keys - new_keys:
            holders = self._key_to_caches.get(key)
            if holders is not None:
                holders.discard(cache_id)
                if not holders:
                    del self._key_to_caches[key]
        for key in new_keys - old_keys:
            self._key_to_caches.setdefault(key, set()).add(cache_id)
        self._cache_to_keys[cache_id] = new_keys

    def add_entry(self, cache_id: str, key: str) -> None:
        """Incrementally record that ``cache_id`` now holds ``key``.

        Caches call this as they fetch keys, between full key-set snapshots,
        so the schedulers' locality view stays reasonably fresh.
        """
        self._key_to_caches.setdefault(key, set()).add(cache_id)
        self._cache_to_keys.setdefault(cache_id, set()).add(key)

    def remove_entry(self, cache_id: str, key: str) -> None:
        """Record that ``cache_id`` evicted ``key``."""
        holders = self._key_to_caches.get(key)
        if holders is not None:
            holders.discard(cache_id)
            if not holders:
                del self._key_to_caches[key]
        keys = self._cache_to_keys.get(cache_id)
        if keys is not None:
            keys.discard(key)

    def drop_cache(self, cache_id: str) -> None:
        """Forget a cache entirely (its VM was deallocated or failed)."""
        self.ingest_snapshot(cache_id, [])
        self._cache_to_keys.pop(cache_id, None)

    # -- lookups -------------------------------------------------------------------
    def caches_for(self, key: str) -> AbstractSet[str]:
        """The caches holding ``key``, without copying: read it, never keep it.

        The returned set is the index's live state (it changes on the next
        snapshot or entry update).  Locality scoring walks every referenced
        key's holders per placement, so a copy here would be paid once per
        thread per reference.
        """
        return self._key_to_caches.get(key, _NO_HOLDERS)

    def keys_for(self, cache_id: str) -> FrozenSet[str]:
        return frozenset(self._cache_to_keys.get(cache_id, frozenset()))

    def replication_factor(self, key: str) -> int:
        return len(self._key_to_caches.get(key, ()))

    def tracked_keys(self) -> List[str]:
        return list(self._key_to_caches)

    def tracked_caches(self) -> List[str]:
        return list(self._cache_to_keys)

    def __contains__(self, key: str) -> bool:
        return key in self._key_to_caches

    # -- update propagation targets ---------------------------------------------
    def propagation_targets(self, key: str, exclude: str = "") -> FrozenSet[str]:
        """Caches that should receive an update for ``key``.

        ``exclude`` is typically the cache that originated the write (it
        already has the new value locally).
        """
        holders = self._key_to_caches.get(key, set())
        return frozenset(cache for cache in holders if cache != exclude)

    # -- overhead accounting (§6.1.4) ----------------------------------------------
    def key_overhead_bytes(self, key: str) -> int:
        return self.BYTES_PER_CACHE_ENTRY * len(self._key_to_caches.get(key, ()))

    def overhead(self) -> IndexOverhead:
        from ..sim.stats import median, percentile

        sizes = [self.key_overhead_bytes(key) for key in self._key_to_caches]
        if not sizes:
            return IndexOverhead(0.0, 0.0, 0.0, 0, 0)
        return IndexOverhead(
            median_bytes=median(sizes),
            p99_bytes=percentile(sizes, 99.0),
            max_bytes=float(max(sizes)),
            total_bytes=int(sum(sizes)),
            tracked_keys=len(sizes),
        )
