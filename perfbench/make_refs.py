"""Regenerate the committed reference digests in ``perfbench/references``.

Each simulation reference comes from a fresh system per run, through
``run_simulation_job`` (the path a service job takes); each batch
reference is the text of one experiment from ``run_experiment_job``.
The work runs in a child process with the benchmark's program
environment (one BLAS thread, fixed hash seed), as the measured runs do.

    python3 perfbench/make_refs.py                 # every workload, seeds 0-3
    python3 perfbench/make_refs.py --workloads batch-quick
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict

import common
import control_child
import workloads as wl


def sweep_refs(seed: int) -> Dict[str, str]:
    from repro.service.handlers import run_simulation_job, simulation_spec

    return {
        common.sim_key(w, p, "commodity", "sweep"): common.digest(
            run_simulation_job(simulation_spec(
                w, policy=p, seed=seed, workload_scale=wl.SWEEP_SCALE,
            ))["result"]
        )
        for w in wl.FIG10_WORKLOADS for p in wl.POLICIES
    }


def control_refs(seed: int):
    """References, plus the digest each quick run returns when handed
    its full-length trace (the known trace-cache defect)."""
    from repro.service.handlers import run_simulation_job, simulation_spec

    refs = {}
    for w, p, c, length in control_child.all_ops():
        refs[common.sim_key(w, p, c, length)] = common.digest(
            run_simulation_job(simulation_spec(
                w, dataset=control_child.DATASET, policy=p, cooling=c,
                seed=seed, workload_scale=control_child.LENGTHS[length],
            ))["result"]
        )
    known = {}
    for w, p, c, length in control_child.all_ops():
        if length == "quick":
            full = refs[common.sim_key(w, p, c, "full")]
            if full != refs[common.sim_key(w, p, c, "quick")]:
                known[common.sim_key(w, p, c, "quick")] = full
    return refs, known


def batch_refs(seed: int) -> Dict[str, str]:
    from repro.service.handlers import experiment_spec, run_experiment_job

    return {
        name: common.digest(
            run_experiment_job(experiment_spec(name, quick=True, seed=seed))["text"]
        )
        for name in wl.EXPERIMENTS
    }


def build(workload: str, seeds) -> dict:
    doc: dict = {"seeds": {}}
    for seed in seeds:
        common.log(f"{workload}: seed {seed}")
        if workload == "control-loop":
            refs, known = control_refs(seed)
            doc["seeds"][str(seed)] = refs
            doc.setdefault("known_defects", {})[str(seed)] = known
            doc["expected_ok_fraction"] = 1 - len(known) / len(refs)
        else:
            doc["seeds"][str(seed)] = {
                "sweep-cold": sweep_refs,
                "batch-quick": batch_refs,
            }[workload](seed)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", default=",".join(wl.UNIT_SECONDS))
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(common.SIM_SEEDS)))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    names = args.workloads.split(",")
    if not args.child:
        tmp = common.new_tmp("refs")
        try:
            return subprocess.call(
                [sys.executable, __file__, "--child", "--workloads", args.workloads,
                 "--seeds", *map(str, args.seeds)],
                env=common.program_env(tmp),
            )
        finally:
            common.remove_tmp(tmp)
    sys.path.insert(0, str(common.SRC))
    common.REFERENCES.mkdir(exist_ok=True)
    for name in names:
        doc = build(name, args.seeds)
        path = common.REFERENCES / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        common.log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
