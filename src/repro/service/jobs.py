"""Declarative simulation jobs with content-addressed identity.

Every unit of work the job service runs — a figure experiment, a single
(workload, policy, dataset, cooling) simulation, a test fixture — is
described by an immutable :class:`JobSpec`. The spec's *identity fields*
(kind, name, params, seed) are hashed into a canonical content key, which
is the job's address in the on-disk :class:`~repro.service.store.ResultStore`
and in the :class:`~repro.service.journal.JobJournal`. Execution knobs
(timeout, retry budget) deliberately do **not** enter the key: changing
how patiently we run a job must not invalidate its cached result.

Outcomes are plain dataclasses (:class:`JobResult` / :class:`JobFailure`)
whose payloads are JSON-serializable dictionaries, so they cross process
boundaries and land in the cache without custom pickling.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: Bumped when job execution semantics change incompatibly; part of every
#: cache key so stale payload layouts never resurface from the store.
SPEC_VERSION = 1

JobHandler = Callable[["JobSpec"], Dict[str, Any]]


class JobTimeoutError(Exception):
    """Raised inside a worker when a job exceeds its per-job timeout."""


class UnknownJobKindError(KeyError):
    """Raised when a spec's ``kind`` cannot be resolved to a handler."""


#: Handler kinds registered at runtime (tests, plugins). Worker processes
#: inherit this registry through fork-start process pools; spawn-start
#: workers only see the built-in and ``module:function`` kinds.
_HANDLER_REGISTRY: Dict[str, JobHandler] = {}

#: Built-in kinds resolve lazily to keep import cycles out of this module.
_BUILTIN_KINDS: Dict[str, str] = {
    "experiment": "repro.service.handlers:run_experiment_job",
    "simulation": "repro.service.handlers:run_simulation_job",
}


def register_handler(kind: str, handler: JobHandler) -> None:
    """Register (or replace) a job kind. Later registrations win."""
    _HANDLER_REGISTRY[kind] = handler


def unregister_handler(kind: str) -> None:
    _HANDLER_REGISTRY.pop(kind, None)


def resolve_handler(kind: str) -> JobHandler:
    """Map a spec kind to its executable handler.

    Resolution order: runtime registry, built-in kinds, then a
    ``"module:function"`` import path (the fully picklable spelling that
    works under any multiprocessing start method).
    """
    if kind in _HANDLER_REGISTRY:
        return _HANDLER_REGISTRY[kind]
    path = _BUILTIN_KINDS.get(kind, kind)
    if ":" in path:
        mod_name, _, func_name = path.partition(":")
        try:
            module = importlib.import_module(mod_name)
            return getattr(module, func_name)
        except (ImportError, AttributeError) as exc:
            raise UnknownJobKindError(
                f"cannot import handler {path!r} for job kind {kind!r}: {exc}"
            ) from exc
    raise UnknownJobKindError(
        f"unknown job kind {kind!r} (registered: "
        f"{sorted(_HANDLER_REGISTRY) + sorted(_BUILTIN_KINDS)})"
    )


def _canonical(obj: Any) -> Any:
    """Recursively normalize ``obj`` for stable JSON hashing."""
    if isinstance(obj, Mapping):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "to_dict"):
        return _canonical(obj.to_dict())
    raise TypeError(f"job params must be JSON-like, got {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """One declarative unit of work.

    Identity = (kind, name, params, seed); execution knobs (timeout,
    retries) are carried along but excluded from :attr:`key`.
    Construction keeps a canonical copy of ``params`` and hashes it once,
    so later changes to the caller's mapping reach neither.
    """

    kind: str
    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    timeout_s: Optional[float] = None
    max_retries: int = 0
    tags: Tuple[str, ...] = ()
    #: Canonical content hash — the job's cache/journal address.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _canonical(self.params))
        blob = canonical_json(self.identity()).encode("utf-8")
        object.__setattr__(self, "key", hashlib.sha256(blob).hexdigest())

    def identity(self) -> Dict[str, Any]:
        """The hashed portion of the spec."""
        return {
            "version": SPEC_VERSION,
            "kind": self.kind,
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "params": _canonical(self.params),
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "JobSpec":
        return cls(
            kind=d["kind"],
            name=d["name"],
            params=dict(d.get("params", {})),
            seed=d.get("seed", 0),
            timeout_s=d.get("timeout_s"),
            max_retries=d.get("max_retries", 0),
            tags=tuple(d.get("tags", ())),
        )


@dataclass
class JobResult:
    """A completed job: its payload plus execution provenance."""

    key: str
    name: str
    payload: Dict[str, Any]
    elapsed_s: float
    attempts: int = 1
    cached: bool = False
    worker_pid: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "name": self.name,
            "payload": self.payload,
            "elapsed_s": self.elapsed_s,
            "attempts": self.attempts,
            "cached": self.cached,
            "worker_pid": self.worker_pid,
        }


@dataclass
class JobFailure:
    """A job that exhausted its retry budget.

    ``reason`` is one of ``"error"`` (handler raised), ``"timeout"``
    (per-job deadline fired), or ``"crash"`` (the worker process died).
    A failure is a *record*, not an exception: one bad job never kills
    the surrounding sweep.
    """

    key: str
    name: str
    reason: str
    message: str
    attempts: int
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "name": self.name,
            "reason": self.reason,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }
