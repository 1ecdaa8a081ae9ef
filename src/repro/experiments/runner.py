"""Run every experiment and print the paper-style outputs.

Usage::

    python -m repro.experiments.runner [--quick] [--seed N] [--jobs N]

``--quick`` shrinks the evaluation graph and query counts (CI-scale).
``--seed`` makes the whole sweep reproducible end to end. ``--jobs N``
runs the selected experiments as jobs on the :mod:`repro.service`
process pool (with result caching when ``--cache-dir`` points at a
store; the figures that read the evaluation matrix share one job); the
default remains the classic serial in-process sweep.
EXPERIMENTS.md records one full run of this script.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

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


#: What an experiment module's ``run`` reads: the evaluation ``scale``,
#: or the scale and the Sec. V-B matrix ``run_matrix(scale)``, which
#: each process builds once and caches.
SCALE, MATRIX = "scale", "matrix"

#: Experiment id → ``(module, what its run reads)``, in sweep order
#: (``None``: a fixed set-up). A pooled sweep runs the selected
#: ``MATRIX`` experiments as one job, so it builds the matrix once.
_MODULES = {
    "fig1": (fig1_prototype, None),
    "fig2": (fig2_validation, None),
    "fig3": (fig3_heatmap, None),
    "fig4": (fig4_bandwidth, None),
    "fig5": (fig5_pim_rate, None),
    "fig8": (fig8_delays, SCALE),
    "fig10": (fig10_speedup, MATRIX),
    "fig11": (fig11_bandwidth_savings, MATRIX),
    "fig12": (fig12_pim_rate_avg, MATRIX),
    "fig13": (fig13_peak_temp, MATRIX),
    "fig14": (fig14_time_series, SCALE),
    # Extensions beyond the paper's figures (DESIGN.md §6):
    "energy": (energy, MATRIX),
    "management": (management, SCALE),
    "sensitivity": (sensitivity, SCALE),
    "hotspot": (hotspot, None),
    "cooling-sweep": (cooling_sweep, SCALE),
}


def experiment_catalog(
    scale: RunScale,
) -> Dict[str, Tuple[Callable[[], Any], Callable[[Any], str]]]:
    """Every experiment id mapped to ``(run, format_result)``: ``run()``
    computes it at ``scale``, and ``format_result`` renders the text the
    runner prints and writes to ``results/<id>.txt``."""
    catalog = {"tables": (tables.all_tables, str)}
    for name, (module, reads) in _MODULES.items():
        run = partial(module.run, scale=scale) if reads else module.run
        catalog[name] = (run, module.format_result)
    return catalog


#: Stable list of experiment ids (sweep order).
EXPERIMENT_IDS: List[str] = list(experiment_catalog(RunScale.quick()))


def run_experiment(name: str, scale: Optional[RunScale] = None) -> str:
    """Execute one experiment by id and return its formatted text.

    The ``experiment`` job kind calls it inside pool workers, once per
    id of the job (:func:`repro.service.handlers.run_experiment_job`).
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
        run, format_result = catalog[name]
        return format_result(run())


def job_groups(selected: List[str]) -> List[List[str]]:
    """The pool jobs a sweep of ``selected`` runs, as lists of ids.

    The selected ``MATRIX`` experiments form one job, so one worker
    builds the evaluation matrix and each of them reads it from that
    process's cache; every other experiment is a job of its own. Jobs
    and their members follow catalog order (of a job's first member).
    """
    groups: Dict[str, List[str]] = {}
    for name in EXPERIMENT_IDS:
        if name in selected:
            shared = _MODULES.get(name, (None, None))[1] == MATRIX
            groups.setdefault(MATRIX if shared else name, []).append(name)
    return list(groups.values())


def sweep_texts_parallel(
    selected: List[str],
    scale: RunScale,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
):
    """Run experiments as pool jobs (:func:`job_groups`); returns
    ``(texts, report)``.

    ``texts`` maps each experiment id to its formatted output, or to
    the failure note of the job that ran it.
    """
    from repro.service import (
        JobJournal,
        JobScheduler,
        ResultStore,
        experiment_spec,
    )
    from repro.service.store import default_cache_dir

    groups = job_groups(selected)
    specs = [experiment_spec(group, scale=scale) for group in groups]
    root = cache_dir if cache_dir is not None else default_cache_dir()
    store = ResultStore(root=root)
    with JobJournal(store.root / "journal.jsonl") as journal:
        scheduler = JobScheduler(
            store=store, journal=journal, max_workers=jobs, use_cache=use_cache,
        )
        report = scheduler.run(specs)

    texts: Dict[str, str] = {}
    for group, spec in zip(groups, specs):
        result = report.result_for(spec)
        if result is not None:
            texts.update(result.payload["texts"])
            continue
        failure = report.failure_for(spec)
        note = (
            f"[job failed: {failure.reason} — {failure.message}]"
            if failure is not None
            else "[job produced no result]"
        )
        texts.update((name, note) for name in group)
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
        print(
            f"\n[sweep: {len(texts)} experiments in "
            f"{len(report.results) + len(report.failures)} jobs: "
            f"{report.summary_line()}]"
        )
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
