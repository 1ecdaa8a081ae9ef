"""The three workloads: how each starts the program, drives it and checks it.

Every workload repeats a *unit*: start a fresh program process (fresh
cache directory, so the store starts cold), time its set-up, run the
measured phase, stop it. Per-unit figures (set-up, makespan, memory) are
reported as medians over units; per-op latencies are pooled.

Steadiness settings shared by all workloads (see BENCHMARK.json):
one job in flight on the service workload (``repro serve --workers 1``),
one BLAS thread per program process, the load generator in this process
with one connection open at a time, completion read from the JSONL event
stream rather than by polling, and no ``engine`` field in any request.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import common
import control_child
from common import ROOT, SRC, now

FIG10_WORKLOADS = (
    "dc", "bfs-ta", "bfs-dwc", "bfs-ttc", "bfs-twc", "kcore", "pagerank",
    "sssp-dtc", "sssp-dwc", "sssp-twc",
)
POLICIES = control_child.POLICIES
COOLINGS = control_child.COOLINGS

#: sweep-cold runs the whole Fig. 10 matrix on ``ldbc`` at this run
#: length, so one cold sweep fits a unit.
SWEEP_SCALE = 0.1
#: Extra kernel run during set-up so no measured trace is pre-built.
WARMUP_WORKLOAD = "cc"

TERMINAL = frozenset({"completed", "failed", "drained"})
EXPERIMENTS = (
    "tables", "fig1", "fig2", "fig3", "fig4", "fig5", "fig8", "fig10",
    "fig11", "fig12", "fig13", "fig14", "energy", "management",
    "sensitivity", "hotspot", "cooling-sweep",
)

#: Seconds of one unit, set-up included, on a 2-core host; a run makes
#: ``seconds // UNIT_SECONDS`` units, at least ``MIN_UNITS``.
UNIT_SECONDS = {
    "sweep-cold": 8.0,
    "control-loop": 8.0,
    "batch-quick": 4.0,
}
MIN_UNITS = 2


def units_for(workload: str, seconds: float) -> int:
    return max(MIN_UNITS, int(seconds // UNIT_SECONDS[workload]))


# -- outcome tally -------------------------------------------------------------


@dataclass
class Tally:
    """Samples and op outcomes of one benchmark run."""

    unit: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    run_latency: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    attempted: int = 0
    ok: int = 0
    known_defect: int = 0
    unexpected: int = 0
    refused: int = 0
    cached: int = 0
    coalesced: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, what: str, got: Optional[str], want: Optional[str],
              known: Optional[str] = None) -> bool:
        """Count one op: ok, a recorded known defect, or unexpected."""
        self.attempted += 1
        if got is not None and got == want:
            self.ok += 1
            return True
        if got is not None and known is not None and got == known:
            self.known_defect += 1
        else:
            self.unexpected += 1
            if len(self.notes) < 5:
                self.notes.append(f"{what}: digest {got} != reference {want}")
        return False

    def error(self, what: str, message: str) -> None:
        self.attempted += 1
        self.unexpected += 1
        if len(self.notes) < 5:
            self.notes.append(f"{what}: {message}")

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


# -- program processes ---------------------------------------------------------


class Program:
    """One program process, reaped with its resource usage."""

    def __init__(self, argv: List[str], tmp: Path, stdin: bool = False,
                 stdout: Optional[Path] = None) -> None:
        self.tmp = tmp
        self.stderr_path = tmp / f"stderr-{len(list(tmp.glob('stderr-*')))}.txt"
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self._stdout = open(stdout, "w", encoding="utf-8") if stdout else None
        self.t_spawn = now()
        self.t_spawn_unix = time.time()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=common.program_env(tmp),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=self._stdout if stdout else subprocess.PIPE,
            stderr=self._stderr, text=True,
        )

    def reap(self, timeout_s: float) -> Tuple[int, float]:
        """Wait for exit (killing it after ``timeout_s``); → (exit code,
        peak RSS in MiB of the process and its reaped children)."""
        timer = threading.Timer(timeout_s, self._kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._stderr.close()
        if self._stdout:
            self._stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def exited(self) -> bool:
        """Whether the process has ended, leaving it to :meth:`reap`."""
        info = os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return info is not None

    def _kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()

    def stop(self, timeout_s: float = 30.0) -> Tuple[int, float]:
        if self.proc.returncode is not None:
            return self.proc.returncode, 0.0
        if not self.exited():
            self.proc.send_signal(signal.SIGTERM)
        return self.reap(timeout_s)

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text(encoding="utf-8")[-2000:]
        except OSError:
            return ""


def load_api_client():
    """The program's own blocking HTTP client, loaded from its source file
    alone (stdlib imports only), so the load generator never imports the
    simulator and its BLAS."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_api_client", SRC / "repro" / "api" / "client.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ApiClient, module.ApiClientError


_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServerProcess:
    """``repro serve --workers 1`` on a free port with its own cache."""

    def __init__(self, tmp: Path, client_cls) -> None:
        out = tmp / "server-stdout.txt"
        self.program = Program(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(tmp / "cache")],
            tmp, stdout=out,
        )
        deadline = time.monotonic() + 90
        while True:
            match = _LISTENING.search(out.read_text(encoding="utf-8"))
            if match:
                break
            if self.program.exited() or time.monotonic() > deadline:
                tail = self.program.stderr_tail()
                self.program.stop()
                raise RuntimeError(f"server did not start: {tail}")
            time.sleep(0.005)
        self.client = client_cls(match.group(1), int(match.group(2)), timeout_s=120)

    @property
    def t_spawn(self) -> float:
        return self.program.t_spawn

    def stop(self) -> float:
        code, rss = self.program.stop()
        if code != 0:
            raise RuntimeError(
                f"server exited {code}: {self.program.stderr_tail()}"
            )
        return rss


class InProcessServer:
    """The same service on a thread of this process (traced runs only)."""

    def __init__(self, tmp: Path, client_cls) -> None:
        from repro.api import ApiService
        from repro.api.app import start_server_thread
        from repro.service import JobJournal, ResultStore

        self.t_spawn = now()
        store = ResultStore(root=tmp / "cache")
        self.journal = JobJournal(store.root / "journal.jsonl")
        self.handle = start_server_thread(
            ApiService(store=store, journal=self.journal, workers=1)
        )
        self.client = client_cls(self.handle.host, self.handle.port, timeout_s=120)

    def stop(self) -> float:
        self.handle.stop()
        self.journal.close()
        return 0.0


def follow(client, run_id: str) -> List[Dict[str, Any]]:
    """A run's events up to and including its terminal one."""
    events = []
    for event in client.stream_events(run_id):
        events.append(event)
        if event.get("event") in TERMINAL:
            break
    return events


def terminal_result(events: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    last = events[-1] if events else {}
    return last.get("result") if last.get("event") == "completed" else None


def queue_wait(events: List[Dict[str, Any]]) -> Optional[float]:
    ts = {e["event"]: e["ts"] for e in events if "ts" in e}
    if "queued" in ts and "started" in ts:
        return ts["started"] - ts["queued"]
    return None


# -- sweep-cold ----------------------------------------------------------------


def warm_up(client, dataset: str, scale: float, sim_seed: int) -> None:
    doc = client.submit_run(
        workload=WARMUP_WORKLOAD, dataset=dataset, workload_scale=scale,
        seed=sim_seed,
    )
    if terminal_result(follow(client, doc["run_id"])) is None:
        raise RuntimeError("warm-up run did not complete")


def sweep_measure(client, client_error, refs: Dict[str, str], sim_seed: int,
                  tally: Tally) -> float:
    """One default-body ``POST /sweeps`` of the Fig. 10 matrix; → makespan."""
    t0 = now()
    t0_unix = time.time()
    try:
        doc = client.submit_sweep(
            workloads=list(FIG10_WORKLOADS), workload_scale=SWEEP_SCALE,
            seed=sim_seed,
        )
    except client_error as exc:
        tally.refused += exc.status in (429, 503)
        for _ in range(len(refs)):
            tally.error("sweep", str(exc))
        return now() - t0
    seen = set()
    for run in doc["runs"]:
        workload, policy = run["name"].split("@")[0].split("/")
        what = f"{workload}/{policy}"
        key = common.sim_key(workload, policy, "commodity", "sweep")
        if key in seen or key not in refs:
            tally.error(what, "run not in the Fig. 10 matrix or returned twice")
            continue
        seen.add(key)
        tally.cached += bool(run.get("cached"))
        tally.coalesced += run.get("coalesced_into") is not None
        try:
            events = follow(client, run["run_id"])
        except (OSError, client_error) as exc:
            tally.error(what, str(exc))
            continue
        result = terminal_result(events)
        if result is None:
            tally.error(what, f"ended {events[-1].get('event') if events else 'silently'}")
            continue
        tally.run_latency.append(events[-1]["ts"] - t0_unix)
        wait = queue_wait(events)
        if wait is not None:
            tally.queue_waits.append(wait)
        tally.check(what, common.digest(result), refs[key])
    for key in sorted(set(refs) - seen):
        tally.error(key, "not run")
    return now() - t0


def sweep_unit(ctx: "Context", tally: Tally, server_cls, client_cls,
               client_error) -> None:
    """One server lifetime: start with an empty store, warm up on a
    kernel outside the measured keys, measure one sweep, stop."""
    server = server_cls(ctx.tmp_unit(), client_cls)
    try:
        warm_up(server.client, "ldbc", SWEEP_SCALE, ctx.sim_seed)
        tally.unit["setup_s"].append(now() - server.t_spawn)
        ctx.on_measured()
        tally.unit["wall_s"].append(sweep_measure(
            server.client, client_error, ctx.refs, ctx.sim_seed, tally
        ))
    finally:
        rss = server.stop()
    if rss:
        tally.unit["peak_rss_mb"].append(rss)


# -- control-loop --------------------------------------------------------------


def control_ops(seed: int) -> List[List[str]]:
    ops = control_child.all_ops()
    random.Random(seed).shuffle(ops)
    return ops


def control_check(ctx: "Context", tally: Tally, results: List[Dict[str, Any]]) -> None:
    steps = 0
    busy = 0.0
    for item in results:
        w, p, c, length = item["op"]
        key = common.sim_key(w, p, c, length)
        tally.run_latency.append(item["latency_s"])
        steps += item["steps"]
        busy += item["latency_s"]
        tally.check(f"{w}/{p}/{c}/{length}", common.digest(item["result"]),
                    ctx.refs.get(key), ctx.known.get(key))
    tally.unit["sim_steps_per_s"].append(steps / busy if busy else 0.0)


def control_unit(ctx: "Context", tally: Tally) -> None:
    program = Program(
        [sys.executable, str(Path(control_child.__file__)), "--seed", str(ctx.sim_seed)],
        ctx.tmp_unit(), stdin=True,
    )
    try:
        line = program.proc.stdout.readline()
        if not line.startswith("{"):
            raise RuntimeError(f"control-loop process failed: {program.stderr_tail()}")
        tally.unit["setup_s"].append(now() - program.t_spawn)
        program.proc.stdin.write(json.dumps(control_ops(ctx.seed)) + "\n")
        program.proc.stdin.flush()
        doc = json.loads(program.proc.stdout.readline() or "null")
        code, rss = program.reap(timeout_s=60)
    except BaseException:
        program.stop()
        raise
    if code != 0 or not doc:
        raise RuntimeError(f"control-loop process exited {code}: {program.stderr_tail()}")
    tally.unit["wall_s"].append(doc["wall_s"])
    tally.unit["peak_rss_mb"].append(rss)
    control_check(ctx, tally, doc["ops"])


def control_traced(ctx: "Context", tally: Tally, recorder) -> None:
    t0 = now()
    systems, graph = control_child.setup(ctx.sim_seed)
    tally.unit["setup_s"].append(now() - t0)
    ctx.on_measured()
    t0 = now()
    results = control_child.measure(
        systems, graph, control_ops(ctx.seed), ctx.sim_seed, recorder
    )
    tally.unit["wall_s"].append(now() - t0)
    control_check(ctx, tally, results)


# -- batch-quick ---------------------------------------------------------------


def batch_argv(ctx: "Context", tmp: Path) -> List[str]:
    return ["batch", "--quick", "--seed", str(ctx.sim_seed),
            "--cache-dir", str(tmp / "cache"), "--out", str(tmp / "out")]


def batch_check(ctx: "Context", tally: Tally, tmp: Path) -> None:
    for name in EXPERIMENTS:
        path = tmp / "out" / f"{name}.txt"
        if not path.exists():
            tally.error(name, "no output")
            continue
        tally.check(name, common.digest(path.read_text(encoding="utf-8")),
                    ctx.refs.get(name))


def journal_times(tmp: Path) -> Tuple[float, List[float]]:
    """Host time of the batch's ``sweep_start`` and of each job completion."""
    start = None
    completed = []
    with open(tmp / "cache" / "journal.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("event") == "sweep_start" and start is None:
                start = record["ts"]
            elif record.get("event") == "completed":
                completed.append(record["ts"])
    if start is None:
        raise RuntimeError("batch journal has no sweep_start record")
    return start, completed


def batch_unit(ctx: "Context", tally: Tally) -> None:
    """One cold ``repro batch --quick``. Set-up ends at the journal's
    ``sweep_start``; a job's latency runs from there to its completion."""
    tmp = ctx.tmp_unit()
    program = Program([sys.executable, "-m", "repro", *batch_argv(ctx, tmp)],
                      tmp, stdout=tmp / "batch-stdout.txt")
    code, rss = program.reap(timeout_s=150)
    end_unix = time.time()
    if code != 0:
        raise RuntimeError(f"repro batch exited {code}: {program.stderr_tail()}")
    ready, completed = journal_times(tmp)
    tally.unit["setup_s"].append(ready - program.t_spawn_unix)
    tally.unit["wall_s"].append(end_unix - ready)
    tally.unit["peak_rss_mb"].append(rss)
    tally.run_latency.extend(ts - ready for ts in completed)
    batch_check(ctx, tally, tmp)


def batch_traced(ctx: "Context", tally: Tally) -> None:
    import contextlib
    import multiprocessing

    from repro import cli

    tmp = ctx.tmp_unit()
    ctx.on_measured()
    with open(tmp / "batch-stdout.txt", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        code = cli.main(batch_argv(ctx, tmp))
    # Pool workers exit after the executor shuts down; wait for them so
    # their spans are spilled before the parent merges them.
    for child in multiprocessing.active_children():
        child.join(30)
    end_unix = time.time()
    if code != 0:
        raise RuntimeError(f"repro batch exited {code}")
    ready, _ = journal_times(tmp)
    tally.unit["wall_s"].append(end_unix - ready)
    batch_check(ctx, tally, tmp)


# -- run context -----------------------------------------------------------------


@dataclass
class Context:
    workload: str
    seed: int
    tmp: Path
    refs: Dict[str, str]
    known: Dict[str, str]
    expected_ok: float = 1.0
    on_measured: Callable[[], None] = lambda: None
    _units: int = 0

    @property
    def sim_seed(self) -> int:
        return self.seed % common.SIM_SEEDS

    def tmp_unit(self) -> Path:
        self._units += 1
        path = self.tmp / f"unit{self._units}"
        path.mkdir()
        return path


def make_context(workload: str, seed: int, tmp: Path) -> Context:
    doc = common.load_references(workload)
    sim_seed = str(seed % common.SIM_SEEDS)
    return Context(
        workload=workload, seed=seed, tmp=tmp,
        refs=doc["seeds"][sim_seed],
        known=doc.get("known_defects", {}).get(sim_seed, {}),
        expected_ok=doc.get("expected_ok_fraction", 1.0),
    )


def run_unit(ctx: Context, tally: Tally) -> None:
    """One untraced unit of ``ctx.workload``."""
    if ctx.workload == "control-loop":
        control_unit(ctx, tally)
    elif ctx.workload == "batch-quick":
        batch_unit(ctx, tally)
    else:
        client_cls, client_error = load_api_client()
        sweep_unit(ctx, tally, ServerProcess, client_cls, client_error)


def run_traced_unit(ctx: Context, tally: Tally, recorder) -> None:
    """One unit with the program in this process and spans recorded."""
    if ctx.workload == "control-loop":
        control_traced(ctx, tally, recorder)
    elif ctx.workload == "batch-quick":
        batch_traced(ctx, tally)
    else:
        from repro.api.client import ApiClient, ApiClientError

        sweep_unit(ctx, tally, InProcessServer, ApiClient, ApiClientError)
