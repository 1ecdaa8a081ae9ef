"""On-disk content-addressed result cache.

Layout (all JSON, human-inspectable)::

    <root>/
      objects/<key[:2]>/<key>.json   one record per completed job

Each record carries the full spec, the code fingerprint that produced it,
the payload, and timing provenance. Lookup is by the spec's content key;
a record whose fingerprint no longer matches the current code is treated
as a miss (and counted as *stale*), which is how a code change invalidates
the whole cache without a sweep ever reading a wrong result.

Writes are atomic (tmp file + ``os.replace``) so a killed sweep never
leaves a truncated record — that is what makes sweeps resumable: the next
invocation simply gets cache hits for everything that finished.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.obs.tracer import get_tracer
from repro.service.fingerprint import code_fingerprint
from repro.service.jobs import JobSpec

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``results/cache`` under the cwd."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.cwd() / "results" / "cache"


@dataclass
class CachedResult:
    """A cache hit: the stored payload plus its provenance."""

    key: str
    payload: Dict[str, Any]
    fingerprint: str
    created_unix: float
    elapsed_s: float
    spec: Dict[str, Any]


@dataclass
class StoreStats:
    entries: int
    stale_entries: int
    total_bytes: int


class ResultStore:
    """Content-addressed JSON store for completed job payloads."""

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()

    # -- paths ------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def path_for(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    @staticmethod
    def _key_of(spec_or_key: Union[JobSpec, str]) -> str:
        return spec_or_key.key if isinstance(spec_or_key, JobSpec) else spec_or_key

    # -- read path --------------------------------------------------------

    def _load(self, key: str) -> Tuple[Optional[Dict[str, Any]], int]:
        """``(record, bytes read)``; ``(None, 0)`` if missing or corrupt."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as f:
                return json.load(f), os.fstat(f.fileno()).st_size
        except FileNotFoundError:
            return None, 0
        except (json.JSONDecodeError, OSError):
            # A corrupt record is worthless; drop it so it re-runs.
            path.unlink(missing_ok=True)
            return None, 0

    def get(
        self, spec_or_key: Union[JobSpec, str], check_fingerprint: bool = True
    ) -> Optional[CachedResult]:
        """The cached result for a spec, or ``None`` on miss/stale."""
        key = self._key_of(spec_or_key)
        with get_tracer().span("store.get", cat="store") as span:
            record, size = self._load(key)
            hit = record is not None and (
                not check_fingerprint
                or record.get("fingerprint") == self.fingerprint
            )
            span.set(hit=hit, bytes=size)
        if not hit:
            return None
        return CachedResult(
            key=key,
            payload=record.get("payload", {}),
            fingerprint=record.get("fingerprint", ""),
            created_unix=record.get("created_unix", 0.0),
            elapsed_s=record.get("elapsed_s", 0.0),
            spec=record.get("spec", {}),
        )

    def contains(
        self, spec_or_key: Union[JobSpec, str], check_fingerprint: bool = True
    ) -> bool:
        return self.get(spec_or_key, check_fingerprint=check_fingerprint) is not None

    # -- write path -------------------------------------------------------

    def put(
        self,
        spec: JobSpec,
        payload: Dict[str, Any],
        elapsed_s: float = 0.0,
    ) -> Path:
        """Atomically persist a completed job's payload."""
        key = spec.key
        record = {
            "key": key,
            "spec": spec.to_dict(),
            "fingerprint": self.fingerprint,
            "created_unix": time.time(),
            "elapsed_s": elapsed_s,
            "payload": payload,
        }
        path = self.path_for(key)
        with get_tracer().span("store.put", cat="store") as span:
            text = json.dumps(record, separators=(",", ":"))
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            span.set(bytes=len(text))
        return path

    # -- maintenance ------------------------------------------------------

    def invalidate(self, spec_or_key: Union[JobSpec, str]) -> bool:
        """Drop one record. Returns whether anything was deleted."""
        path = self.path_for(self._key_of(spec_or_key))
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Drop every record. Returns the number deleted."""
        count = 0
        for path in self._record_paths():
            path.unlink(missing_ok=True)
            count += 1
        return count

    def prune_stale(self) -> int:
        """Drop records written by a different code fingerprint."""
        count = 0
        for path in self._record_paths():
            try:
                with open(path, "r", encoding="utf-8") as f:
                    record = json.load(f)
            except (json.JSONDecodeError, OSError):
                record = {}
            if record.get("fingerprint") != self.fingerprint:
                path.unlink(missing_ok=True)
                count += 1
        return count

    def _record_paths(self) -> Iterator[Path]:
        if not self.objects_dir.is_dir():
            return iter(())
        return self.objects_dir.glob("*/*.json")

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Every readable record (fresh and stale alike)."""
        for path in self._record_paths():
            record, _ = self._load(path.stem)
            if record is not None:
                yield record

    def stats(self) -> StoreStats:
        entries = stale = total = 0
        for path in self._record_paths():
            try:
                total += path.stat().st_size
                with open(path, "r", encoding="utf-8") as f:
                    record = json.load(f)
            except (json.JSONDecodeError, OSError):
                continue
            entries += 1
            if record.get("fingerprint") != self.fingerprint:
                stale += 1
        return StoreStats(entries=entries, stale_entries=stale, total_bytes=total)


def store_stats_payload(
    store: ResultStore, journal_path: Optional[Union[str, Path]] = None
) -> Dict[str, Any]:
    """Machine-readable cache/journal stats.

    One JSON-ready dict shared by ``repro cache --json`` and the HTTP
    service's ``GET /admin/cache`` endpoint, so scripts and dashboards
    read the same shape from both.
    """
    from repro.service.journal import JobJournal

    stats = store.stats()
    payload: Dict[str, Any] = {
        "cache_dir": str(store.root),
        "fingerprint": store.fingerprint,
        "entries": stats.entries,
        "stale_entries": stats.stale_entries,
        "total_bytes": stats.total_bytes,
    }
    if journal_path is None:
        journal_path = store.root / "journal.jsonl"
    counts = JobJournal.summary(journal_path)
    payload["journal"] = {
        "path": str(journal_path),
        "events": dict(sorted(counts.items())),
    }
    return payload
