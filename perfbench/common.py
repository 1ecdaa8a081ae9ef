"""Shared helpers: statistics, output digests, program processes.

Nothing here imports ``repro``: the untraced workloads drive the program
only through separate processes, so the benchmark process never shares
an interpreter (or a BLAS pool) with the code it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Reference digests exist for these simulation seeds; the ``--seed``
#: maps onto them with ``seed % SIM_SEEDS``.
SIM_SEEDS = 4

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10
#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.5, 99.9)

#: Keys that carry host time or bulk traces, not simulated outcomes.
_VOLATILE_KEYS = frozenset({
    "timeline", "ts", "elapsed_s", "wall_s", "wall_duration_s", "pid",
})
#: Floats are compared to this many significant digits, so a different
#: BLAS kernel on another CPU model does not flip a digest.
_DIGITS = 9


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond
    it among ``n`` (50 samples → p80); ``None`` when even p50 has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the run-to-run spread (q3 - q1) / median."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v, "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


# -- output digests ----------------------------------------------------------


def canonical(obj: Any) -> Any:
    """Drop host-time fields and timelines; round floats to ``_DIGITS``."""
    if isinstance(obj, dict):
        return {
            str(k): canonical(v)
            for k, v in obj.items()
            if k not in _VOLATILE_KEYS and not str(k).endswith("_unix")
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return float(f"{obj:.{_DIGITS}g}")
    return obj


def digest(obj: Any) -> str:
    """Short content hash of a run result or an experiment's text."""
    if isinstance(obj, str):
        text = obj.strip()
    else:
        text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sim_key(workload: str, policy: str, cooling: str, length: str) -> str:
    """Reference-table key of one simulation op."""
    return f"{workload}|{policy}|{cooling}|{length}"


def load_references(workload: str) -> Dict[str, Any]:
    path = REFERENCES / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- program processes -------------------------------------------------------


def program_env(tmp: Path) -> Dict[str, str]:
    """Environment of every program process.

    One BLAS thread: OpenBLAS otherwise starts one thread per core, so
    even a serial control loop would burn two cores per wall second.
    A fixed hash seed and a private TMPDIR/cache keep runs repeatable
    and inside the checkout.
    """
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
        "REPRO_CACHE_DIR": str(tmp / "cache"),
    })
    env.pop("REPRO_SWEEP_ENGINE", None)
    return env


def use_program_env(tmp: Path) -> None:
    """Give this process the program environment (traced runs, which
    load the program in-process; call before numpy is imported)."""
    env = program_env(tmp)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "TMPDIR", "REPRO_CACHE_DIR"):
        os.environ[var] = env[var]
    os.environ.pop("REPRO_SWEEP_ENGINE", None)
    tempfile.tempdir = None


def new_tmp(label: str) -> Path:
    path = TMP_ROOT / f"{label}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    return path


def remove_tmp(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass


def environment() -> Dict[str, Any]:
    """What the measurements depend on besides the code."""
    from importlib import metadata

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
    }


def now() -> float:
    return time.perf_counter()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

