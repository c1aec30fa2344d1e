"""Content-addressed result cache for tree-construction jobs.

The cache key is *what was asked*, not *who asked*: the sha256 digest of
the input matrix (:meth:`DistanceMatrix.digest` -- shape, labels and raw
values) combined with the canonical JSON of the solver parameters
(method name plus sorted engine options).  Two requests with the same
matrix and parameters therefore address the same entry, across threads,
processes and restarts.

Storage is two-level:

* an in-memory LRU front (``capacity`` entries, O(1) lookup), and
* an optional on-disk JSON store (one ``<key>.json`` file per entry,
  written atomically via rename), so a restarted server warms up from
  previous runs.

Values are JSON-serializable *payload* dicts (``newick``, ``cost``,
``method``, ...), not live tree objects -- exactly what the serving
layer returns to clients, which is what makes warm hits byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.matrix.distance_matrix import DistanceMatrix

__all__ = [
    "CACHE_KEY_VERSION",
    "canonical_params",
    "cache_key",
    "cached_solve",
    "result_payload",
    "ResultCache",
]

#: In-progress atomic-write files look like ``<key>.tmp.<pid>.<tid>``.
_TMP_NAME = re.compile(r"\.tmp\.(\d+)\.\d+$")

#: A tmp file older than this is stale even if a process with the
#: embedded pid is running (pids get recycled); younger ones are only
#: swept when that pid is gone.  Real writes last milliseconds.
_TMP_GRACE_SECONDS = 300.0

#: Bumped whenever the key derivation or payload layout changes, so a
#: stale on-disk store from an older scheme can never serve wrong data.
#: v2: payload Newick precision went 6 -> 12 decimals (the ``verify``
#: cost oracle checks the reported cost against the reconstruction).
#: v3: ``construct_tree_cached`` still wrote 6-decimal v2 entries; both
#: writers now go through :func:`result_payload`.
CACHE_KEY_VERSION = 3


def canonical_params(method: str, options: Optional[Mapping] = None) -> str:
    """Deterministic JSON for the solver-parameter half of the cache key.

    Keys are sorted so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}``
    canonicalise identically; non-JSON values (e.g. a ``ClusterConfig``)
    fall back to ``repr``, which is stable for our frozen config types.
    """
    return json.dumps(
        {"method": method, "options": dict(options or {})},
        sort_keys=True,
        default=repr,
    )


def cache_key(
    matrix: DistanceMatrix,
    method: str = "compact",
    options: Optional[Mapping] = None,
) -> str:
    """The content address of one solve: matrix digest + canonical params."""
    h = hashlib.sha256()
    h.update(f"repro.cache.v{CACHE_KEY_VERSION}\x00".encode("ascii"))
    h.update(matrix.digest().encode("ascii"))
    h.update(b"\x00")
    h.update(canonical_params(method, options).encode("utf-8"))
    return h.hexdigest()


def result_payload(result, n_species: int) -> dict:
    """The JSON payload of one construction result, as cached and served.

    The single shape every cache writer stores.  Ultrametric trees are
    written at 12 fixed decimals: ``verify`` checks the reported cost
    against the tree reparsed from this payload, so serialization must
    not round it outside the cost oracle's 1e-9 tolerance.  ``nj`` trees
    are additive and use their own Newick writer.
    """
    return {
        "method": result.method,
        "n_species": n_species,
        "cost": float(result.cost),
        "newick": result.newick(precision=12),
    }


#: Help text of the hit/miss counters :func:`cached_solve` bumps.
_OUTCOME_HELP = {
    "cache.hit": "Content-addressed result-cache hits.",
    "cache.miss": "Content-addressed result-cache misses.",
}


def cached_solve(
    cache,
    key: str,
    solve: Optional[Callable[[], dict]],
    *,
    recorder,
    metrics,
) -> Tuple[Optional[dict], bool]:
    """The payload stored under ``key``, or ``solve()``'s, stored there.

    The one read/write path of the result cache: a get, then a
    ``cache.hit`` or ``cache.miss`` counter on ``recorder`` (with the
    ``key[:12]`` attribute) and on the ``metrics`` registry, then -- on
    a miss -- ``solve()`` and a put of the payload it returns.  Returns
    ``(payload, hit)``.  ``cache`` is a :class:`ResultCache` or anything
    with its ``get``/``put`` protocol.

    ``solve=None`` serves hits only: a miss returns ``(None, False)``
    and counts nothing, so the caller can hand the solve on to a later
    call that reads and counts it once.  That mode needs a
    :class:`ResultCache`, whose ``get`` can count a hit alone.
    """
    if solve is None:
        payload = cache.get(key, count_miss=False)
        if payload is None:
            return None, False
    else:
        payload = cache.get(key)
    outcome = "cache.miss" if payload is None else "cache.hit"
    recorder.counter(outcome, key=key[:12])
    metrics.counter(outcome, _OUTCOME_HELP[outcome]).inc()
    if payload is not None:
        return payload, True
    payload = solve()
    cache.put(key, payload)
    return payload, False


class ResultCache:
    """Thread-safe LRU + optional disk store of solve payloads.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; least-recently-*used* entries are
        evicted first.  Disk entries are never evicted by this class.
    directory:
        When given, every ``put`` also writes ``<key>.json`` here and
        ``get`` falls back to disk on a memory miss (promoting the entry
        back into memory).  The directory is created on first use.
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: Optional[Union[str, Path]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_write_errors = 0
        self._tmp_swept = 0
        if self.directory is not None:
            self._tmp_swept = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Remove abandoned atomic-write droppings from the directory.

        A writer that dies between ``tmp.write_text`` and ``os.replace``
        leaks a ``<key>.tmp.<pid>.<tid>`` file; with N stateless
        replicas sharing one cache directory these accumulate forever
        unless someone sweeps.  A tmp file is stale when its writing
        process is gone, or when it is older than the grace period
        (writes last milliseconds; pids get recycled).  Racing a *live*
        writer is safe either way: its ``os.replace`` simply fails and
        the entry is rewritten on the next miss.
        """
        if not self.directory.is_dir():
            return 0
        swept = 0
        now = time.time()
        for tmp in self.directory.glob("*.tmp.*"):
            match = _TMP_NAME.search(tmp.name)
            if match is None:
                continue
            try:
                age = now - tmp.stat().st_mtime
                if age < _TMP_GRACE_SECONDS and _pid_alive(int(match.group(1))):
                    continue
                tmp.unlink()
                swept += 1
            except OSError:
                continue  # vanished concurrently, or not ours to remove
        return swept

    # ------------------------------------------------------------------
    key = staticmethod(cache_key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return self.get(key, count=False) is not None

    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def get(
        self, key: str, *, count: bool = True, count_miss: bool = True
    ) -> Optional[dict]:
        """The payload stored under ``key``, or ``None``.

        ``count=False`` peeks without touching the hit/miss statistics
        (the LRU recency is still updated); ``count_miss=False`` counts
        a hit but not a miss.
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                if count:
                    self._hits += 1
                return payload
        payload = self._disk_get(key)
        if payload is not None:
            self._memory_put(key, payload, count_hit=count)
            return payload
        if count and count_miss:
            with self._lock:
                self._misses += 1
        return None

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` (a JSON-serializable dict) under ``key``."""
        self._memory_put(key, payload, count_hit=False)
        if self.directory is not None:
            self._disk_put(key, payload)

    def clear(self) -> None:
        """Drop every in-memory entry (disk entries are left alone)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, object]:
        """Snapshot of the counters the ``/stats`` endpoint exposes."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "directory": str(self.directory) if self.directory else None,
                "disk_write_errors": self._disk_write_errors,
                "tmp_swept": self._tmp_swept,
            }

    # ------------------------------------------------------------------
    def _memory_put(self, key: str, payload: dict, *, count_hit: bool) -> None:
        with self._lock:
            if count_hit:
                self._hits += 1
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def _disk_get(self, key: str) -> Optional[dict]:
        if self.directory is None:
            return None
        path = self._path_for(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            # Missing file is a plain miss; a torn/corrupt file (e.g. a
            # crash mid-write outside our atomic path) is treated as one
            # too rather than poisoning every future request.
            return None
        if record.get("version") != CACHE_KEY_VERSION:
            return None
        payload = record.get("payload")
        return payload if isinstance(payload, dict) else None

    def _disk_put(self, key: str, payload: dict) -> None:
        assert self.directory is not None
        path = self._path_for(key)
        record = {"version": CACHE_KEY_VERSION, "key": key, "payload": payload}
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except OSError:
            # Disk persistence is best-effort: a full disk or a swept
            # tmp file must not fail the job (the entry is already in
            # memory), only cost a future warm start.
            with self._lock:
                self._disk_write_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass


def _pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True
