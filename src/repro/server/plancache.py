"""A thread-safe LRU plan cache with per-relation invalidation and a
statement-text front.

Entries are keyed on the canonical block signature of the bound query
(plus optimizer level and options fingerprint — see ``signature.py``).
Each holds the set of relations its plan depends on
(``Catalog.plan_relations``: the tables the query reads, plus every
materialized view over a subset of them and its backing table) and the
catalog ``change_epoch`` at which it was last known valid. A plan is
valid as long as nothing it reads changed since then: every catalog
mutation — DDL, INSERT, ANALYZE, matview create/refresh/drop — advances
the epoch and stamps the relations it touched (or, for a change to
name binding, the whole schema; ``Catalog.bump_epoch``).

Validation is lazy and costs nothing while nothing was written: at the
entry's own epoch a lookup is one integer comparison. Only when the
epoch has moved are the stamps of the entry's relations compared
(``Catalog.changed_since``); the entry is then either re-stamped with
the current epoch (counted as ``revalidated``) or dropped (counted as an
invalidation, not a miss-with-prejudice: the counters distinguish
"never seen" from "seen but outdated"). A write never walks the cache.

In front of the signature keys sits a *text front*: statement text
verbatim (plus optimizer level and options fingerprint) → the signature
key it bound to, stamped with the epoch it was bound at. A repeat of
the same text is answered by :meth:`PlanCache.get_text` with two
dictionary lookups — the caller neither parses nor binds nor signs it.
The front's stamp is checked by the same rule, against the relations
of the plan entry it points at (a text reads the tables of the
signature it binds to): binding reads the catalog, and after ``drop
view v; create view v as …`` (a schema-wide change) the same text may
bind to another signature. The front lives under the same lock, capacity and
LRU discipline as the plans; it only ever *points at* a plan entry, so
a text whose plan was evicted or invalidated is simply dropped and the
caller falls back to :meth:`PlanCache.get` — which is also where misses
and invalidations are counted, once per statement. Literals stay in the
text on purpose: two texts differing in a constant bind to two
signatures and may deserve two plans.

The lock makes every operation atomic; the critical sections are
dict/OrderedDict operations and stamp comparisons only — optimization
itself always happens outside the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, Hashable, Optional, Tuple

DEFAULT_CAPACITY = 128


@dataclass
class CacheEntry:
    """One cached optimization result, the relations it depends on and
    the last epoch it was known valid at."""

    value: Any
    epoch: int
    relations: AbstractSet[str]


class PlanCache:
    """LRU cache of optimized plans, validated against the catalog's
    per-relation change stamps."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        # text key -> (signature key, epoch the text was bound at or last
        # revalidated at)
        self._texts: "OrderedDict[Hashable, Tuple[Hashable, int]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.text_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.revalidated = 0
        self.evictions = 0

    def get(self, key: Hashable, catalog) -> Optional[Any]:
        """The cached value for *key* if present and nothing it reads
        changed in *catalog* since it was last validated; else ``None``
        (recording a miss or an invalidation)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            epoch = catalog.change_epoch
            if entry.epoch != epoch:
                if catalog.changed_since(entry.relations, entry.epoch):
                    del self._entries[key]
                    self.invalidations += 1
                    return None
                entry.epoch = epoch
                self.revalidated += 1
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def get_text(self, text_key: Hashable, catalog) -> Optional[Any]:
        """The cached value the front maps *text_key* to, if neither the
        text's binding nor its plan read anything that changed in
        *catalog* since they were stamped; counted as a hit. Otherwise
        ``None``, counting nothing: the caller's fall-back :meth:`get`
        records the miss or invalidation."""
        with self._lock:
            front = self._texts.get(text_key)
            if front is None:
                return None
            key, bound_epoch = front
            entry = self._entries.get(key)
            if entry is None:
                del self._texts[text_key]
                return None
            epoch = catalog.change_epoch
            if bound_epoch != epoch or entry.epoch != epoch:
                # A text reads what the signature it binds to reads.
                if catalog.changed_since(
                    entry.relations, min(bound_epoch, entry.epoch)
                ):
                    del self._texts[text_key]
                    return None
                self._texts[text_key] = (key, epoch)
                entry.epoch = epoch
                self.revalidated += 1
            self._texts.move_to_end(text_key)
            self._entries.move_to_end(key)
            self.hits += 1
            self.text_hits += 1
            return entry.value

    def put_text(self, text_key: Hashable, key: Hashable, epoch: int) -> None:
        """Point *text_key* at the plan under *key*: the text bound to
        that signature at *epoch*."""
        with self._lock:
            if text_key in self._texts:
                self._texts.move_to_end(text_key)
            self._texts[text_key] = (key, epoch)
            while len(self._texts) > self.capacity:
                self._texts.popitem(last=False)

    def put(
        self,
        key: Hashable,
        epoch: int,
        value: Any,
        relations: AbstractSet[str],
    ) -> None:
        """Cache *value*, valid at *epoch* for as long as none of
        *relations* (nor the schema) changes."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = CacheEntry(value, epoch, relations)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._texts.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "texts": len(self._texts),
                "capacity": self.capacity,
                "hits": self.hits,
                "text_hits": self.text_hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "revalidated": self.revalidated,
                "evictions": self.evictions,
            }
