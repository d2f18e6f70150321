"""A thread-safe LRU plan cache with epoch-based invalidation and a
statement-text front.

Entries are keyed on the canonical block signature of the bound query
(plus optimizer level and options fingerprint — see ``signature.py``)
and stamped with the catalog ``change_epoch`` current when the plan was
built. Any catalog mutation — DDL, INSERT, ANALYZE, matview
create/refresh/drop, stats-staleness bumps — advances the epoch, so a
stale entry is detected on its next lookup and dropped (counted as an
invalidation, not a miss-with-prejudice: the counters distinguish
"never seen" from "seen but outdated").

In front of the signature keys sits a *text front*: statement text
verbatim (plus optimizer level and options fingerprint) → the signature
key it bound to, stamped with the epoch it was bound at. A repeat of
the same text at the same epoch is answered by :meth:`PlanCache.get_text`
with two dictionary lookups — the caller neither parses nor binds nor
signs it. The front lives under the same lock, capacity and LRU
discipline as the plans; it only ever *points at* a plan entry, so a
text whose plan was evicted, invalidated or re-stamped is simply absent
and the caller falls back to :meth:`PlanCache.get` — which is also where
misses and invalidations are counted, once per statement. Literals stay
in the text on purpose: two texts differing in a constant bind to two
signatures and may deserve two plans.

The lock makes every operation atomic; the critical sections are
dict/OrderedDict operations only — optimization itself always happens
outside the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

DEFAULT_CAPACITY = 128


@dataclass
class CacheEntry:
    """One cached optimization result and its validity stamp."""

    value: Any
    epoch: int


class PlanCache:
    """LRU cache of optimized plans, validated by catalog epoch."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        # text key -> (signature key, epoch the text was bound at)
        self._texts: "OrderedDict[Hashable, Tuple[Hashable, int]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.text_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def get(self, key: Hashable, epoch: int) -> Optional[Any]:
        """The cached value for *key* if present and built at *epoch*;
        else ``None`` (recording a miss or an invalidation)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.epoch != epoch:
                del self._entries[key]
                self.invalidations += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def get_text(self, text_key: Hashable, epoch: int) -> Optional[Any]:
        """The cached value the front maps *text_key* to, if the text
        was bound at *epoch* and its plan was built at *epoch*; counted
        as a hit. Otherwise ``None``, counting nothing: the caller's
        fall-back :meth:`get` records the miss or invalidation."""
        with self._lock:
            front = self._texts.get(text_key)
            if front is None:
                return None
            key, bound_epoch = front
            entry = self._entries.get(key)
            if entry is None or bound_epoch != epoch or entry.epoch != epoch:
                del self._texts[text_key]
                return None
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

    def put(self, key: Hashable, epoch: int, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = CacheEntry(value=value, epoch=epoch)
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
                "evictions": self.evictions,
            }
