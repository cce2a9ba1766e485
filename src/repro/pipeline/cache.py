"""Content-hash stage caching.

Cache keys are *chained fingerprints*: the key of stage ``n`` is the hash
of (stage name, canonicalized parameters, key of stage ``n-1``), with the
chain rooted in the hash of the source text.  Two compiles of the same
kernel through the same stages with the same parameters therefore share
every key — and every cached result — without the session ever having to
hash arbitrary intermediate objects (ASTs, IR modules, reports).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


def _canonical(part: Any) -> str:
    """A deterministic textual form of one fingerprint component."""
    if part is None or isinstance(part, (str, int, float, bool, bytes)):
        return repr(part)
    if isinstance(part, (list, tuple)):
        return "[" + ",".join(_canonical(p) for p in part) + "]"
    if isinstance(part, dict):
        items = sorted((str(k), _canonical(v)) for k, v in part.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    # Fall back to the type plus str() — number formats, devices and other
    # SDK value objects all print their configuration.  Objects with only
    # the default str/repr would canonicalize to their memory address:
    # never a valid cache key (misses at best, address-reuse collisions
    # at worst), so reject them.
    cls = type(part)
    if cls.__str__ is object.__str__ and cls.__repr__ is object.__repr__:
        raise TypeError(
            f"cannot fingerprint {cls.__name__} (no deterministic "
            "__str__/__repr__); pass a value type or a spec string instead"
        )
    return f"{cls.__name__}({part})"


def fingerprint(*parts: Any) -> str:
    """A stable SHA-256 hex digest of the given components."""
    payload = "\x1f".join(_canonical(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one session cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class StageCache:
    """Thread-safe key -> stage-result store with hit/miss accounting.

    Cached values are returned by reference: callers must treat cached
    payloads (IR modules, reports) as immutable, exactly as they would the
    result of a repeated compile.
    """

    _entries: Dict[str, Any] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def lookup(self, key: str) -> Tuple[bool, Optional[Any]]:
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                return True, self._entries[key]
            self.stats.misses += 1
            return False, None

    def store(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value

    def peek(self, key: str) -> Tuple[bool, Optional[Any]]:
        """Like :meth:`lookup` but without touching the counters.

        Used by the session's single-flight leader to re-check the cache
        after winning the in-flight slot — that probe is an internal
        consistency check, not a user-visible lookup.
        """
        with self._lock:
            if key in self._entries:
                return True, self._entries[key]
            return False, None

    def __len__(self) -> int:
        return len(self._entries)
