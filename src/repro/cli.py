"""Command-line interface.

    python -m repro list
    python -m repro run pagerank --policy coolpim-hw --dataset ldbc
    python -m repro compare bfs-dwc
    python -m repro experiments --only fig5,fig10
    python -m repro batch --quick
    python -m repro cache stats
    python -m repro serve --port 8177

``run`` simulates one (workload, policy) pair, ``compare`` runs the full
policy matrix for one workload, and ``experiments`` delegates to
:mod:`repro.experiments.runner` (serial). ``batch`` runs the figure
sweep as jobs on the :mod:`repro.service` process pool with the
content-addressed result cache (re-running a sweep skips completed
jobs), ``cache`` inspects or clears that store (``--json`` for the
machine-readable shape the API's admin endpoint serves), and ``serve``
runs the async HTTP API (:mod:`repro.api`, see ``docs/SERVICE.md``).

Observability (see ``docs/OBSERVABILITY.md``)::

    python -m repro trace pagerank --dataset ldbc-small --quick -o trace.json
    python -m repro report trace.json --require engine,core,thermal,scheduler
    python -m repro report trace.metrics.json
    python -m repro report trace.manifest.json

``trace`` runs one instrumented simulation through the job scheduler and
writes a Perfetto-loadable Chrome trace plus a metrics JSON and a run
manifest; ``report`` validates/renders any of the three artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.coolpim import CoolPimSystem
from repro.core.policies import POLICY_NAMES, is_policy_name
from repro.graph.datasets import get_dataset, list_datasets
from repro.scenarios import SCENARIO_NAMES
from repro.thermal.cooling import COOLING_SOLUTIONS
from repro.workloads.registry import get_workload, list_workloads


def _build_system(args) -> CoolPimSystem:
    return CoolPimSystem(
        cooling=COOLING_SOLUTIONS[args.cooling],
        engine=getattr(args, "engine", "macro"),
    )


def _policy_name(value: str) -> str:
    """argparse type for --policy: registry names plus static-<fraction>."""
    if not is_policy_name(value):
        raise argparse.ArgumentTypeError(
            f"unknown policy {value!r}; choose from {', '.join(POLICY_NAMES)} "
            "or static-<fraction> (e.g. static-0.25)"
        )
    return value


def _scenario_from(args):
    """Compile the --scenario/--scenario-seed flags (None when unset)."""
    name = getattr(args, "scenario", None)
    if not name:
        return None
    from repro.scenarios import make_scenario

    return make_scenario(name, seed=getattr(args, "scenario_seed", 0))


def _result_line(res) -> str:
    return (
        f"  runtime        : {res.runtime_s * 1e3:.3f} ms\n"
        f"  peak DRAM temp : {res.peak_dram_temp_c:.1f} C\n"
        f"  PIM rate       : {res.avg_pim_rate_ops_ns:.2f} op/ns\n"
        f"  offloaded      : {res.offload_fraction:.0%} of "
        f"{res.total_atomics:,} atomics\n"
        f"  link bandwidth : {res.avg_link_bandwidth_gbs:.0f} GB/s\n"
        f"  energy         : {res.total_energy_j * 1e3:.1f} mJ "
        f"({res.avg_power_w:.1f} W avg)\n"
        f"  thermal events : {res.thermal_warnings} warnings, "
        f"{res.shutdowns} shutdowns"
    )


def cmd_list(_args) -> int:
    print("workloads:", ", ".join(list_workloads(include_extras=True)))
    print("datasets: ", ", ".join(list_datasets()))
    print("policies: ", ", ".join(POLICY_NAMES) + ", static-<fraction>")
    print("cooling:  ", ", ".join(COOLING_SOLUTIONS))
    print("scenarios:", ", ".join(SCENARIO_NAMES))
    return 0


def cmd_run(args) -> int:
    system = _build_system(args)
    graph = get_dataset(args.dataset)
    workload = get_workload(args.workload, seed=args.seed)
    scenario = _scenario_from(args)
    res = system.run(workload, graph, args.policy, scenario=scenario)
    if args.json:
        import json

        print(json.dumps(res.to_dict(), indent=2))
        return 0
    injected = (
        f", scenario {scenario.name} (seed {scenario.seed})"
        if scenario is not None else ""
    )
    print(f"{args.workload} on {args.dataset} "
          f"({graph.num_vertices:,} vertices, {graph.num_edges:,} edges) "
          f"under {args.policy}, {args.cooling} cooling{injected}")
    print(_result_line(res))
    return 0


def cmd_compare(args) -> int:
    system = _build_system(args)
    graph = get_dataset(args.dataset)
    workload = get_workload(args.workload, seed=args.seed)
    scenario = _scenario_from(args)
    results = system.run_all_policies(workload, graph, scenario=scenario)
    if args.json:
        import json

        print(json.dumps(
            {name: res.to_dict() for name, res in results.items()}, indent=2
        ))
        return 0
    injected = (
        f", scenario {scenario.name} (seed {scenario.seed})"
        if scenario is not None else ""
    )
    print(f"{args.workload} on {args.dataset} under all policies "
          f"({args.cooling} cooling{injected})\n")
    base = results["non-offloading"]
    print(f"{'policy':18s} {'speedup':>8s} {'peak T':>7s} {'op/ns':>6s} "
          f"{'energy':>7s}")
    for name, res in results.items():
        print(
            f"{name:18s} {res.speedup_over(base):8.2f} "
            f"{res.peak_dram_temp_c:6.1f}C {res.avg_pim_rate_ops_ns:6.2f} "
            f"{res.energy_ratio(base):6.2f}x"
        )
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import runner

    argv = []
    if args.quick:
        argv.append("--quick")
    if args.only:
        argv.extend(["--only", args.only])
    if args.seed:
        argv.extend(["--seed", str(args.seed)])
    return runner.main(argv)


def cmd_batch(args) -> int:
    """Parallel figure sweep through the job service (cached, resumable)."""
    from repro.experiments import runner

    argv = ["--jobs", str(args.jobs if args.jobs is not None else 0)]
    if args.quick:
        argv.append("--quick")
    if args.only:
        argv.extend(["--only", args.only])
    if args.seed:
        argv.extend(["--seed", str(args.seed)])
    if args.cache_dir:
        argv.extend(["--cache-dir", args.cache_dir])
    if args.no_cache:
        argv.append("--no-cache")
    if args.out:
        argv.extend(["--out", args.out])
    return runner.main(argv)


def cmd_cache(args) -> int:
    from repro.service import JobJournal, ResultStore, store_stats_payload

    store = ResultStore(root=args.cache_dir) if args.cache_dir else ResultStore()
    action = args.action
    if getattr(args, "json", False):
        if action != "stats":
            print("--json only applies to the stats action", file=sys.stderr)
            return 2
        import json

        print(json.dumps(store_stats_payload(store), indent=2, sort_keys=True))
        return 0
    if action == "clear":
        print(f"removed {store.clear()} cached result(s) from {store.root}")
        return 0
    if action == "prune":
        print(f"pruned {store.prune_stale()} stale result(s) from {store.root}")
        return 0
    if action == "ls":
        for record in sorted(
            store.entries(), key=lambda r: r.get("created_unix", 0.0)
        ):
            spec = record.get("spec", {})
            stale = "" if record.get("fingerprint") == store.fingerprint else " [stale]"
            print(
                f"{record.get('key', '?')[:12]}  "
                f"{spec.get('kind', '?'):10s}  {spec.get('name', '?'):24s}  "
                f"seed={spec.get('seed', 0)}  "
                f"{record.get('elapsed_s', 0.0):8.2f}s{stale}"
            )
        return 0
    # default: stats
    stats = store.stats()
    print(f"cache dir : {store.root}")
    print(f"entries   : {stats.entries} ({stats.stale_entries} stale)")
    print(f"size      : {stats.total_bytes / 1024:.1f} KiB")
    journal_path = store.root / "journal.jsonl"
    counts = JobJournal.summary(journal_path)
    if counts:
        events = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"journal   : {journal_path} ({events})")
    return 0


def cmd_serve(args) -> int:
    """Run the simulation-as-a-service HTTP API (see docs/SERVICE.md)."""
    import asyncio
    import signal as signal_mod

    from repro.api import ApiServer, ApiService
    from repro.api.fairness import FairQueue, TenantPolicy
    from repro.service import JobJournal, ResultStore

    store = None
    journal = None
    if not args.no_cache:
        store = (
            ResultStore(root=args.cache_dir) if args.cache_dir else ResultStore()
        )
        journal = JobJournal(
            store.root / "journal.jsonl",
            max_bytes=args.journal_max_bytes,
        )
    service = ApiService(
        store=store,
        journal=journal,
        queue=FairQueue(
            default_policy=TenantPolicy(max_queued=args.tenant_quota)
        ),
        workers=args.workers,
        pool=args.pool,
        use_cache=not args.no_cache,
    )
    server = ApiServer(service, host=args.host, port=args.port)

    async def _main() -> int:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal_mod.SIGINT, signal_mod.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover — non-Unix
                pass

        def _ready(s: ApiServer) -> None:
            print(f"repro api listening on http://{s.host}:{s.port} "
                  f"({args.workers} worker(s), "
                  f"{'process-pool' if args.pool else 'serial'} jobs, "
                  f"cache {'off' if args.no_cache else store.root})",
                  flush=True)

        await server.serve_until(
            stop, drain_timeout_s=args.drain_timeout, on_ready=_ready
        )
        print("repro api stopped (queue drained to journal)", flush=True)
        return 0

    try:
        return asyncio.run(_main())
    finally:
        if journal is not None:
            journal.close()


def cmd_trace(args) -> int:
    """One instrumented run → Chrome trace + metrics JSON + run manifest."""
    import time
    from pathlib import Path

    from repro.obs import (
        RunManifest,
        export_chrome_trace,
        export_metrics,
        validate_chrome_trace,
    )
    from repro.obs.replay import replay_timeline
    from repro.obs.tracer import tracing
    from repro.service.handlers import simulation_spec
    from repro.service.scheduler import JobScheduler
    from repro.thermal import operators

    out = Path(args.output)
    spec = simulation_spec(
        workload=args.workload,
        dataset=args.dataset,
        policy=args.policy,
        cooling=args.cooling,
        seed=args.seed,
        workload_scale=0.25 if args.quick else 1.0,
        engine=args.engine,
        scenario=getattr(args, "scenario", None),
        scenario_seed=getattr(args, "scenario_seed", 0),
    )
    wall0 = time.perf_counter()
    with tracing(sink=args.jsonl) as tracer:
        # Serial scheduler with no store/journal: the job always executes
        # in this process, so simulation spans and scheduler spans land in
        # one tracer.
        report = JobScheduler(serial=True).run([spec])
        if not report.ok:
            for failure in report.failures.values():
                print(f"trace run failed: {failure.name}: {failure.message}",
                      file=sys.stderr)
            return 1
        payload = next(iter(report.results.values())).payload
        timeline = payload["result"].get("timeline") or []
        # The sampled timeline becomes the sim-clock counter tracks.
        replay_timeline(timeline, tracer=tracer)
        records = tracer.records
    wall_s = time.perf_counter() - wall0

    doc = export_chrome_trace(
        records, out,
        other_data={"workload": args.workload, "policy": args.policy},
    )
    summary = validate_chrome_trace(doc)

    metrics_path = out.parent / (out.stem + ".metrics.json")
    manifest_path = out.parent / (out.stem + ".manifest.json")
    stats = dict(payload.get("metrics") or {})
    for key, value in operators.cache_stats().items():
        stats[f"thermal.operator_cache.{key}"] = {
            "type": "counter", "value": value,
        }
    config = {
        "workload": args.workload,
        "dataset": args.dataset,
        "policy": args.policy,
        "cooling": args.cooling,
        "engine": args.engine,
        "quick": bool(args.quick),
    }
    export_metrics(stats, metrics_path, meta=dict(config, seed=args.seed))
    manifest = RunManifest.collect(
        command="repro trace",
        config=config,
        seed=args.seed,
        wall_duration_s=wall_s,
        sim_duration_s=payload["result"].get("runtime_s"),
        outputs=[out, metrics_path, manifest_path],
        trace_events=summary["events"],
    )
    manifest.write(manifest_path)

    cats = ", ".join(sorted(summary["categories"]))
    print(f"trace    : {out} ({summary['events']} events; layers: {cats})")
    print(f"metrics  : {metrics_path}")
    print(f"manifest : {manifest_path}")
    print("open the trace at https://ui.perfetto.dev (Open trace file)")
    return 0


def cmd_report(args) -> int:
    """Render/validate a trace, metrics, or manifest artifact."""
    import json
    from pathlib import Path

    from repro.obs import (
        MANIFEST_SCHEMA_ID,
        METRICS_SCHEMA_ID,
        RunManifest,
        TraceValidationError,
        diff_metrics,
        format_report,
        load_metrics,
        render_report,
        validate_chrome_trace,
    )

    path = Path(args.file)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"report: cannot read {path}: {exc}", file=sys.stderr)
        return 2

    if "traceEvents" in doc:
        try:
            summary = validate_chrome_trace(doc)
        except TraceValidationError as exc:
            print(f"{path}: INVALID Chrome trace: {exc}", file=sys.stderr)
            return 1
        print(f"{path}: valid Chrome trace, {summary['events']} events")
        phases = ", ".join(
            f"{k}={v}" for k, v in sorted(summary["phases"].items())
        )
        print(f"  phases    : {phases}")
        for cat, n in sorted(summary["categories"].items()):
            print(f"  {cat:10s}: {n} events")
        if args.require:
            want = {c.strip() for c in args.require.split(",") if c.strip()}
            missing = want - set(summary["categories"])
            if missing:
                print(
                    f"{path}: missing required layers: {', '.join(sorted(missing))}",
                    file=sys.stderr,
                )
                return 1
            print(f"  all required layers present: {', '.join(sorted(want))}")
        return 0

    schema = doc.get("schema")
    if schema == METRICS_SCHEMA_ID:
        if args.diff:
            # Diff contract: 0 = identical, 1 = differences, 2 = error
            # (bad/missing file) — scriptable like diff(1).
            try:
                delta = diff_metrics(load_metrics(path), load_metrics(args.diff))
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"report --diff: {exc}", file=sys.stderr)
                return 2
            print(delta or "no metric differences\n", end="")
            return 1 if delta else 0
        print(render_report(doc), end="")
        return 0
    if schema == MANIFEST_SCHEMA_ID:
        print(format_report(RunManifest.load(path)), end="")
        return 0

    print(
        f"{path}: unrecognized document (no traceEvents, schema={schema!r})",
        file=sys.stderr,
    )
    return 1


def cmd_bench_trend(args) -> int:
    """Compare BENCH_*.json artifacts against committed baselines."""
    from pathlib import Path

    from repro.telemetry.trend import run_trend

    code, report = run_trend(
        bench_dir=Path(args.dir),
        baselines_path=Path(args.baselines),
        report_path=Path(args.report) if args.report else None,
        check=args.check,
    )
    print(report, end="", file=sys.stderr if code == 2 else sys.stdout)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CoolPIM reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available workloads/datasets/policies")

    def common(p):
        p.add_argument("workload", help="benchmark name (see `repro list`)")
        p.add_argument("--dataset", default="ldbc")
        p.add_argument("--cooling", default="commodity",
                       choices=list(COOLING_SOLUTIONS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--engine", default="macro",
                       choices=["macro", "stepped"],
                       help="simulation engine (macro: vectorized burst "
                            "fast path; stepped: scalar reference loop)")
        p.add_argument("--scenario", default=None, choices=SCENARIO_NAMES,
                       help="inject a seeded fault scenario (degraded "
                            "cooling, sensor faults, ...; see repro list)")
        p.add_argument("--scenario-seed", type=int, default=0, metavar="N",
                       help="seed for the scenario's event stream")

    run_p = sub.add_parser("run", help="simulate one workload+policy")
    common(run_p)
    run_p.add_argument("--policy", default="coolpim-hw",
                       type=_policy_name, metavar="POLICY",
                       help=f"one of {', '.join(POLICY_NAMES)}, or "
                            "static-<fraction> (e.g. static-0.25)")
    run_p.add_argument("--json", action="store_true",
                       help="emit the result as JSON")

    cmp_p = sub.add_parser("compare", help="run the full policy matrix")
    common(cmp_p)
    cmp_p.add_argument("--json", action="store_true",
                       help="emit {policy: result} as JSON, at full precision")

    exp_p = sub.add_parser("experiments", help="regenerate tables/figures")
    exp_p.add_argument("--quick", action="store_true")
    exp_p.add_argument("--only", default=None)
    exp_p.add_argument("--seed", type=int, default=0)

    batch_p = sub.add_parser(
        "batch",
        help="parallel figure sweep via the job service (cached, resumable)",
    )
    batch_p.add_argument("--quick", action="store_true")
    batch_p.add_argument("--only", default=None)
    batch_p.add_argument("--seed", type=int, default=0)
    batch_p.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="pool size (default: one per CPU)")
    batch_p.add_argument("--cache-dir", default=None, metavar="DIR")
    batch_p.add_argument("--no-cache", action="store_true",
                         help="re-execute everything, ignoring cached results")
    batch_p.add_argument("--out", default=None, metavar="DIR",
                         help="also write each experiment's output to DIR")

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument(
        "action", nargs="?", default="stats",
        choices=["stats", "ls", "clear", "prune"],
    )
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR")
    cache_p.add_argument("--json", action="store_true",
                         help="emit stats as JSON (machine-readable; same "
                              "shape as the API's GET /admin/cache)")

    serve_p = sub.add_parser(
        "serve",
        help="run the async simulation-as-a-service HTTP API",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8177,
                         help="listen port (0 picks a free one)")
    serve_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="concurrent jobs (worker threads)")
    serve_p.add_argument("--pool", action="store_true",
                         help="run each job on a process pool instead of "
                              "serially in its worker thread")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="no result store: every submission executes")
    serve_p.add_argument("--tenant-quota", type=int, default=64,
                         metavar="N", help="max queued jobs per tenant")
    serve_p.add_argument("--journal-max-bytes", type=int, default=8_000_000,
                         metavar="BYTES",
                         help="rotate the job journal past this size")
    serve_p.add_argument("--drain-timeout", type=float, default=10.0,
                         metavar="S",
                         help="seconds to wait for running jobs on shutdown")

    trace_p = sub.add_parser(
        "trace",
        help="run one instrumented simulation; write Chrome trace + "
             "metrics + manifest",
    )
    common(trace_p)
    trace_p.add_argument("--policy", default="coolpim-hw",
                         type=_policy_name, metavar="POLICY",
                         help=f"one of {', '.join(POLICY_NAMES)}, or "
                              "static-<fraction>")
    trace_p.add_argument("--quick", action="store_true",
                         help="quarter-length run (smoke/CI)")
    trace_p.add_argument("-o", "--output", default="trace.json",
                         metavar="FILE",
                         help="Chrome trace output path (metrics/manifest "
                              "are written next to it)")
    trace_p.add_argument("--jsonl", default=None, metavar="FILE",
                         help="also stream raw tracer records as JSONL")

    report_p = sub.add_parser(
        "report",
        help="render/validate a trace, metrics, or manifest JSON",
    )
    report_p.add_argument("file", help="trace.json, *.metrics.json, or "
                                       "*.manifest.json")
    report_p.add_argument("--require", default=None, metavar="CATS",
                          help="comma-separated trace layers that must be "
                               "present (exit 1 otherwise)")
    report_p.add_argument("--diff", default=None, metavar="FILE2",
                          help="diff a second metrics JSON against the first "
                               "(exit 0 equal, 1 changed, 2 error)")

    trend_p = sub.add_parser(
        "bench-trend",
        help="compare BENCH_*.json against benchmarks/baselines.json",
    )
    trend_p.add_argument("--dir", default=".", metavar="DIR",
                         help="directory holding BENCH_*.json artifacts "
                              "(default: .)")
    trend_p.add_argument("--baselines", default="benchmarks/baselines.json",
                         metavar="FILE",
                         help="committed baselines document")
    trend_p.add_argument("--report", default=None, metavar="FILE",
                         help="also write the trend report to FILE")
    trend_p.add_argument("--check", action="store_true",
                         help="exit 1 on any out-of-tolerance metric "
                              "(the CI gate); without it the report is "
                              "informational")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "experiments": cmd_experiments,
        "batch": cmd_batch,
        "cache": cmd_cache,
        "serve": cmd_serve,
        "trace": cmd_trace,
        "report": cmd_report,
        "bench-trend": cmd_bench_trend,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
