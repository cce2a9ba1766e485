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

from repro.telemetry.trace import get_tracer


#: Exact classes whose ``repr`` is their canonical text; a subclass
#: (``np.float64``) takes :func:`_canonical` and its own ``repr``.
_PLAIN = frozenset({str, int, float, bool, bytes, type(None)})


def _canonical(part: Any) -> str:
    """A deterministic textual form of one fingerprint component."""
    if part is None or isinstance(part, (str, int, float, bool, bytes)):
        return repr(part)
    if isinstance(part, (list, tuple)):
        return "[" + ",".join(_canonical(p) for p in part) + "]"
    if isinstance(part, dict):
        return _canonical_dict(part)
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


def _canonical_dict(part: Dict[Any, Any]) -> str:
    """:func:`_canonical` of a dict: its items sorted by ``str(key)``.
    When every key is an exact ``str`` the keys are unique, so
    ``sorted(items)`` orders by key alone and a plain value needs no
    call."""
    if {*map(type, part)} <= {str}:
        return "{" + ",".join([
            f"{k}:{v!r}" if type(v) in _PLAIN else f"{k}:{_canonical(v)}"
            for k, v in sorted(part.items())]) + "}"
    items = sorted((str(k), _canonical(v)) for k, v in part.items())
    return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"


def fingerprint(*parts: Any) -> str:
    """A stable SHA-256 hex digest of the given components, canonicalized
    in one flat pass (a stage key's scalars and parameter dict)."""
    payload = "\x1f".join([
        f"{part!r}" if type(part) in _PLAIN
        else _canonical_dict(part) if type(part) is dict
        else _canonical(part) for part in parts])
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
    result of a repeated compile.  The *warm index* maps a finished
    flow's request to the values and key its chain returned, each value
    also an entry here, so that a warm request is one lookup.
    """

    _entries: Dict[str, Any] = field(default_factory=dict)
    _warm: Dict[tuple, tuple] = field(default_factory=dict)
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

    def warm(self, request: tuple, epoch: int, hits: int) -> Optional[tuple]:
        """The values a chain that started at registry ``epoch`` stored
        for ``request``, counted as its ``hits`` stage hits and traced as
        one ``stage:warm`` span; None if there are none."""
        entry = self._warm.get(request)  # one atomic read: no lock
        if entry is None or entry[0] != epoch:
            return None
        with self._lock:
            self.stats.hits += hits
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("stage:warm", category="stage",
                             attrs={"cached": True, "detail": request[0]}):
                pass
        return entry[1:]

    def remember(self, request: tuple, epoch: int, *values: Any) -> None:
        """Index a finished chain's ``values`` under ``request``."""
        with self._lock:
            self._warm[request] = (epoch, *values)

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
