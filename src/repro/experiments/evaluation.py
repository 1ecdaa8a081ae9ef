"""Shared evaluation matrix for Figs. 10–14.

Runs every (benchmark × policy) combination once and caches the results so
the five evaluation figures don't re-simulate. The matrix is the Sec. V-B
experiment: ten GraphBIG benchmarks on the LDBC-like graph under
non-offloading, naïve offloading, CoolPIM (SW), CoolPIM (HW), and the
ideal-thermal bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core import CoolPimSystem
from repro.core.policies import POLICY_NAMES
from repro.experiments.common import RunScale, scaled_workload
from repro.gpu.simulator import SimulationResult
from repro.graph import get_dataset
from repro.workloads import list_workloads


@dataclass
class EvaluationMatrix:
    """Results keyed by ``[workload][policy]``."""

    scale: RunScale
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)

    @property
    def workloads(self) -> List[str]:
        return list(self.results)

    def baseline(self, workload: str) -> SimulationResult:
        return self.results[workload]["non-offloading"]

    def speedup(self, workload: str, policy: str) -> float:
        return self.results[workload][policy].speedup_over(self.baseline(workload))

    def geo_mean_speedup(self, policy: str) -> float:
        prod = 1.0
        n = 0
        for wl in self.workloads:
            prod *= self.speedup(wl, policy)
            n += 1
        return prod ** (1.0 / n) if n else 0.0


_CACHE: Dict[tuple, EvaluationMatrix] = {}


def run_matrix(
    scale: Optional[RunScale] = None,
    workloads: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    use_cache: bool = True,
) -> EvaluationMatrix:
    """Run (and cache) the evaluation matrix at the requested scale."""
    scale = scale or RunScale.full()
    wl_names = list(workloads) if workloads is not None else list_workloads()
    pol_names = list(policies) if policies is not None else list(POLICY_NAMES)
    key = (scale, tuple(wl_names), tuple(pol_names))
    if use_cache and key in _CACHE:
        return _CACHE[key]

    graph = get_dataset(scale.dataset)
    system = CoolPimSystem()
    matrix = EvaluationMatrix(scale=scale)
    for name in wl_names:
        workload = scaled_workload(name, scale)
        matrix.results[name] = system.run_all_policies(
            workload, graph, policies=pol_names
        )
    if use_cache:
        _CACHE[key] = matrix
    return matrix


def clear_cache() -> None:
    _CACHE.clear()
