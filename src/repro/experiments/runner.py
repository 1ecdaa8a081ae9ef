"""Run every experiment and print the paper-style outputs.

Usage::

    python -m repro.experiments.runner [--quick] [--seed N] [--jobs N]

``--quick`` shrinks the evaluation graph and query counts (CI-scale).
``--seed`` makes the whole sweep reproducible end to end. ``--jobs N``
runs the selected experiments as jobs on the :mod:`repro.service`
process pool (with result caching when ``--cache-dir`` points at a
store); the default remains the classic serial in-process sweep.
EXPERIMENTS.md records one full run of this script.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.obs.tracer import get_tracer

from repro.experiments import (
    energy,
    fig1_prototype,
    fig2_validation,
    fig3_heatmap,
    fig4_bandwidth,
    fig5_pim_rate,
    fig8_delays,
    fig10_speedup,
    fig11_bandwidth_savings,
    fig12_pim_rate_avg,
    fig13_peak_temp,
    cooling_sweep,
    fig14_time_series,
    hotspot,
    management,
    sensitivity,
    tables,
)
from repro.experiments.common import RunScale


def experiment_catalog(scale: RunScale) -> Dict[str, Callable[[], str]]:
    """Every experiment id mapped to a thunk producing its formatted text."""
    return {
        "tables": lambda: tables.all_tables(),
        "fig1": lambda: fig1_prototype.format_result(fig1_prototype.run()),
        "fig2": lambda: fig2_validation.format_result(fig2_validation.run()),
        "fig3": lambda: fig3_heatmap.format_result(fig3_heatmap.run()),
        "fig4": lambda: fig4_bandwidth.format_result(fig4_bandwidth.run()),
        "fig5": lambda: fig5_pim_rate.format_result(fig5_pim_rate.run()),
        "fig8": lambda: fig8_delays.format_result(fig8_delays.run(scale=scale)),
        "fig10": lambda: fig10_speedup.format_result(fig10_speedup.run(scale)),
        "fig11": lambda: fig11_bandwidth_savings.format_result(
            fig11_bandwidth_savings.run(scale)),
        "fig12": lambda: fig12_pim_rate_avg.format_result(
            fig12_pim_rate_avg.run(scale)),
        "fig13": lambda: fig13_peak_temp.format_result(fig13_peak_temp.run(scale)),
        "fig14": lambda: fig14_time_series.format_result(
            fig14_time_series.run(scale=scale)),
        # Extensions beyond the paper's figures (DESIGN.md §6):
        "energy": lambda: energy.format_result(energy.run(scale)),
        "management": lambda: management.format_result(
            management.run(scale=scale)),
        "sensitivity": lambda: sensitivity.format_result(
            sensitivity.run(scale=scale)),
        "hotspot": lambda: hotspot.format_result(hotspot.run()),
        "cooling-sweep": lambda: cooling_sweep.format_result(
            cooling_sweep.run(scale=scale)),
    }


#: Stable list of experiment ids (sweep order).
EXPERIMENT_IDS: List[str] = list(experiment_catalog(RunScale.quick()))


def run_experiment(name: str, scale: Optional[RunScale] = None) -> str:
    """Execute one experiment by id and return its formatted text.

    This is the entry point the ``experiment`` job kind calls inside
    pool workers (:func:`repro.service.handlers.run_experiment_job`).
    """
    scale = scale or RunScale.full()
    catalog = experiment_catalog(scale)
    if name not in catalog:
        raise KeyError(
            f"unknown experiment {name!r}; available: {list(catalog)}"
        )
    with get_tracer().span(
        f"experiment.{name}", cat="experiment", dataset=scale.dataset,
        workload_scale=scale.workload_scale, seed=scale.seed,
    ):
        return catalog[name]()


def sweep_texts_parallel(
    selected: List[str],
    scale: RunScale,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
):
    """Run experiments as pool jobs; returns ``(texts, report)``.

    ``texts`` maps experiment id → formatted output (or an error note for
    failed jobs) in the requested order.
    """
    from repro.service import (
        JobJournal,
        JobScheduler,
        ResultStore,
        experiment_spec,
    )
    from repro.service.handlers import prewarm_worker
    from repro.service.store import default_cache_dir

    specs = [
        experiment_spec(
            name, scale=scale, timeout_s=timeout_s, max_retries=max_retries,
        )
        for name in selected
    ]
    root = cache_dir if cache_dir is not None else default_cache_dir()
    store = ResultStore(root=root)
    with JobJournal(store.root / "journal.jsonl") as journal:
        scheduler = JobScheduler(
            store=store, journal=journal, max_workers=jobs, use_cache=use_cache,
            worker_initializer=prewarm_worker,
        )
        report = scheduler.run(specs)

    texts: Dict[str, str] = {}
    for name, spec in zip(selected, specs):
        result = report.result_for(spec)
        if result is not None:
            texts[name] = result.payload.get("text", "")
        else:
            failure = report.failure_for(spec)
            texts[name] = (
                f"[job failed: {failure.reason} after {failure.attempts} "
                f"attempt(s) — {failure.message}]"
                if failure is not None
                else "[job produced no result]"
            )
    return texts, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small graph / short runs (smoke-test scale)",
    )
    parser.add_argument(
        "--only", default=None,
        help="comma-separated experiment ids (e.g. 'fig5,fig10,tables')",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write each experiment's output to DIR/<id>.txt",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload RNG seed threaded through every experiment",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run experiments on an N-worker process pool via the job "
             "service (default: serial in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory for --jobs mode "
             "(default: results/cache, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="with --jobs: re-execute everything, ignoring cached results",
    )
    args = parser.parse_args(argv)
    scale = (
        RunScale.quick(seed=args.seed) if args.quick
        else RunScale.full(seed=args.seed)
    )

    experiments = experiment_catalog(scale)
    selected = (
        [e.strip() for e in args.only.split(",")] if args.only else list(experiments)
    )
    unknown = [e for e in selected if e not in experiments]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(experiments)}")
        return 2

    out_dir = None
    if args.out:
        import pathlib

        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    sweep_start = time.time()

    def write_manifest(ok: bool) -> None:
        """Provenance record for the sweep (``--out DIR/manifest.json``)."""
        if out_dir is None:
            return
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.collect(
            command="repro.experiments.runner",
            config={
                "experiments": selected,
                "scale": scale.to_dict(),
                "jobs": args.jobs,
                "quick": args.quick,
            },
            seed=args.seed,
            wall_duration_s=time.time() - sweep_start,
            outputs=sorted(
                str(out_dir / f"{name}.txt") for name in selected
            ),
            ok=ok,
        )
        manifest.write(out_dir / "manifest.json")

    if args.jobs is not None:
        texts, report = sweep_texts_parallel(
            selected, scale,
            jobs=args.jobs or None,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
        for name in selected:
            print(f"\n{'=' * 72}\n== {name}\n{'=' * 72}")
            print(texts[name])
            if out_dir is not None:
                (out_dir / f"{name}.txt").write_text(texts[name] + "\n")
        print(f"\n[sweep: {report.summary_line()}]")
        write_manifest(report.ok)
        return 0 if report.ok else 1

    for name in selected:
        start = time.time()
        print(f"\n{'=' * 72}\n== {name}\n{'=' * 72}")
        text = run_experiment(name, scale)
        print(text)
        print(f"[{name} took {time.time() - start:.1f} s]")
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(text + "\n")
    write_manifest(True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
