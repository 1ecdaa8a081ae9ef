"""Steadiness report: repeated runs of each workload, spread against bounds.

    python3 perfbench/run.py --report --runs 10 [--sets 2] [--workloads a,b]

For each workload × metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound. With ``--sets 2`` the same seeds run twice
and the report adds how far the second set's median moved, in either
direction, as a share of the first. A metric is OVER when its spread or
its drift exceeds its bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict, List

import common
import run as bench_run


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    detail = next(l for l in lines if l.startswith("perfbench-detail "))
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {
            k: v["value"]
            for k, v in json.loads(detail[len("perfbench-detail "):]).items()
        },
    }


def bounds(bench: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    out = {m["name"]: m for m in bench["end_to_end"]}
    for name, (unit, better, bound) in bench_run.TABLE_ONLY.items():
        out[name] = {"name": name, "unit": unit, "better": better, "bound": bound}
    return out


def main(args, bench: Dict[str, Any]) -> int:
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    limits = bounds(bench)
    print("perfbench-env " + json.dumps(common.environment(), sort_keys=True))
    report: Dict[str, Any] = {}
    status = 0
    for workload in names:
        sets: List[List[Dict[str, Any]]] = []
        for set_index in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed + i
                runs.append(one_run(workload, seed, args.seconds))
                common.log(f"{workload} set {set_index + 1} seed {seed}: "
                           f"{json.dumps(runs[-1]['metrics'])}")
            sets.append(runs)
        report[workload] = {}
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds:g} s each")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'drift':>8s}")
        for metric in sets[0][0]["metrics"]:
            limit = limits[metric]
            stats = [
                common.quartile_spread([r["metrics"][metric] for r in runs])
                for runs in sets
            ]
            first = stats[0]
            drift = 0.0
            for other in stats[1:]:
                change = (other["median"] - first["median"]) / abs(first["median"])
                drift = max(drift, abs(change))
            spread = max(s["spread"] for s in stats)
            bad = spread > limit["bound"] or drift > limit["bound"]
            status |= bad
            print(f"  {metric:22s} {first['median']:12.6g} {first['q1']:12.6g} "
                  f"{first['q3']:12.6g} {spread:8.3f} {limit['bound']:6.2f} "
                  f"{drift:8.3f}{'  OVER' if bad else ''}")
            report[workload][metric] = {"sets": stats, "bound": limit["bound"],
                                        "spread": spread, "drift": drift}
        failed = {r["failed"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  correct={correct} failed ops per run={sorted(failed)}")
        status |= not correct
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return int(status)
