"""Append-only JSONL journal — the job service's observability layer.

Every lifecycle transition (submitted, cache hit, completed, retrying,
failed, sweep start/end) is one JSON line with a wall-clock timestamp.
The journal is append-only across invocations, so it doubles as the audit
trail for resumability: after a killed sweep, the second run's
``cache_hit`` entries prove which jobs were served from the store.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union


class JobJournal:
    """Line-buffered JSONL event log.

    Usable as a context manager; safe to leave open for the lifetime of a
    scheduler. Durability contract: every event is written and flushed
    to the OS as it is appended, so a killed process keeps every event up
    to the kill; the file is fsynced after each ``sweep_end`` event (once
    per scheduler sweep: an API job, a whole ``repro batch``) and on
    :meth:`close`, so a power loss can drop only the events since
    the last of those. Appends are serialized with a lock, so one journal
    may be shared by the HTTP service loop and its executor threads.

    With ``max_bytes`` set, the journal is size-bounded: when an append
    would push the current file past the limit, the file rotates to
    ``<name>.1`` (shifting ``.1 → .2`` … up to ``keep`` generations, the
    oldest dropped) and a fresh file starts. Readers see the current
    generation by default; :meth:`iter_events` with
    ``include_rotated=True`` walks oldest → newest.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_bytes: Optional[int] = None,
        keep: int = 3,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.keep = keep
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, event: str, **fields: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {"ts": time.time(), "event": event}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if (
                self.max_bytes is not None
                and self._fh.tell() > 0
                and self._fh.tell() + len(line) > self.max_bytes
            ):
                self._rotate_locked()
            self._fh.write(line)
            self._fh.flush()
            if event == "sweep_end":
                os.fsync(self._fh.fileno())
        return record

    def _rotate_locked(self) -> None:
        """Shift generations and reopen a fresh current file."""
        self._fh.close()
        self.rotated_path(self.keep).unlink(missing_ok=True)
        for i in range(self.keep - 1, 0, -1):
            src = self.rotated_path(i)
            if src.exists():
                os.replace(src, self.rotated_path(i + 1))
        if self.path.exists():
            os.replace(self.path, self.rotated_path(1))
        self._fh = open(self.path, "a", encoding="utf-8")

    def rotated_path(self, generation: int) -> Path:
        """Path of the ``generation``-th rotated file (1 = newest)."""
        return self.path.with_name(f"{self.path.name}.{generation}")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                os.fsync(self._fh.fileno())
                self._fh.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ----------------------------------------------------------

    @staticmethod
    def read(
        path: Union[str, Path], include_rotated: bool = False
    ) -> List[Dict[str, Any]]:
        """All parseable events in ``path`` (missing file → empty list)."""
        return list(JobJournal.iter_events(path, include_rotated=include_rotated))

    @staticmethod
    def iter_events(
        path: Union[str, Path], include_rotated: bool = False
    ) -> Iterator[Dict[str, Any]]:
        path = Path(path)
        files: List[Path] = []
        if include_rotated:
            # Rotated generations, oldest first (.N ... .1), then current.
            rotated = sorted(
                (
                    p
                    for p in path.parent.glob(f"{path.name}.*")
                    if p.suffix.lstrip(".").isdigit()
                ),
                key=lambda p: int(p.suffix.lstrip(".")),
                reverse=True,
            )
            files.extend(rotated)
        files.append(path)
        for file in files:
            try:
                fh = open(file, "r", encoding="utf-8")
            except FileNotFoundError:
                continue
            with fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except json.JSONDecodeError:
                        continue  # a torn final line from a killed process

    @staticmethod
    def summary(
        path: Union[str, Path], since_ts: Optional[float] = None
    ) -> Counter:
        """Event-type counts, optionally restricted to ``ts >= since_ts``."""
        counts: Counter = Counter()
        for record in JobJournal.iter_events(path):
            if since_ts is not None and record.get("ts", 0.0) < since_ts:
                continue
            counts[record.get("event", "?")] += 1
        return counts

    @staticmethod
    def time_report(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
        """Where the sweep's time went, per job name.

        Aggregates ``completed``/``failed`` events into
        ``{name: {"duration_s": total, "attempts": n, "runs": k}}``.
        Journals written before the ``duration_s``/``attempt`` fields
        existed are handled via the legacy ``elapsed_s``/``attempts``
        keys, so old journals still load.
        """
        report: Dict[str, Dict[str, Any]] = {}
        for record in JobJournal.iter_events(path):
            event = record.get("event")
            if event not in ("completed", "failed"):
                continue
            name = record.get("name", "?")
            row = report.setdefault(
                name, {"duration_s": 0.0, "attempts": 0, "runs": 0, "failed": 0}
            )
            duration = record.get("duration_s", record.get("elapsed_s", 0.0))
            row["duration_s"] += float(duration or 0.0)
            row["attempts"] += int(
                record.get("attempt", record.get("attempts", 1)) or 1
            )
            row["runs"] += 1
            if event == "failed":
                row["failed"] += 1
        return report
