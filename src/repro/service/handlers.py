"""Built-in job handlers: figure experiments and single simulations.

These are the two production job kinds the CLI and the experiment runner
submit. Handlers are plain module-level functions (picklable under any
multiprocessing start method) that take a :class:`JobSpec` and return a
JSON-serializable payload dict.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.experiments.common import RunScale
from repro.service.jobs import JobSpec


def prewarm_worker() -> None:
    """Warm process-level caches a sweep worker will need.

    Assembles the shared thermal operators (RC network + steady LU +
    control-quantum step LU, :mod:`repro.thermal.operators`) for the
    default HMC 2.0 package under every Table II cooling solution, so
    the first job on each worker skips network assembly and
    factorization entirely. Passed to
    :class:`~repro.service.scheduler.JobScheduler` as
    ``worker_initializer``; under a fork start method the scheduler runs
    it once in the parent and workers inherit the warm cache.
    """
    from repro.hmc.config import HMC_2_0
    from repro.thermal.cooling import COOLING_SOLUTIONS
    from repro.thermal.operators import prewarm

    for cooling in COOLING_SOLUTIONS.values():
        prewarm(HMC_2_0, cooling)


def experiment_spec(
    name: str,
    scale: Optional[RunScale] = None,
    quick: bool = False,
    seed: int = 0,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
) -> JobSpec:
    """Spec for one figure/table experiment (see ``repro.experiments``).

    The full :class:`RunScale` enters the params (and therefore the cache
    key), so sweeps at different datasets, scales, or seeds never collide
    in the result store.
    """
    if scale is None:
        scale = RunScale.quick(seed=seed) if quick else RunScale.full(seed=seed)
    return JobSpec(
        kind="experiment",
        name=name,
        params={"experiment": name, "scale": scale.to_dict()},
        seed=scale.seed,
        timeout_s=timeout_s,
        max_retries=max_retries,
        tags=("experiment",),
    )


def simulation_spec(
    workload: str,
    dataset: str = "ldbc",
    policy: str = "coolpim-hw",
    cooling: str = "commodity",
    seed: int = 0,
    workload_scale: float = 1.0,
    engine: str = "macro",
    trace: bool = False,
    scenario: Optional[str] = None,
    scenario_seed: int = 0,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
) -> JobSpec:
    """Spec for one (workload × policy × dataset × cooling) simulation.

    ``workload_scale`` shrinks the run length (``repro trace --quick``
    and smoke runs); it only enters the params — and therefore the cache
    key — when it differs from 1.0, so existing full-scale cache entries
    keep their keys. Likewise ``engine`` enters the params only when it
    is not the default ``macro`` (the stepped oracle reproduces the same
    aggregates but keys separately for A/B auditing), and
    ``trace`` — which makes the payload carry the sampled timeline so
    trace artifacts can be rendered later — only when set. A fault
    injection ``scenario`` (preset name + ``scenario_seed``, see
    :mod:`repro.scenarios`) follows the same rule: clean runs keep
    their existing keys, injected runs dedupe on the (name, seed) pair
    that fully determines the event stream.
    """
    params = {
        "workload": workload,
        "dataset": dataset,
        "policy": policy,
        "cooling": cooling,
    }
    if workload_scale != 1.0:
        params["workload_scale"] = workload_scale
    if engine != "macro":
        params["engine"] = engine
    if trace:
        params["trace"] = True
    if scenario:
        params["scenario"] = scenario
        if scenario_seed != 0:
            params["scenario_seed"] = scenario_seed
    return JobSpec(
        kind="simulation",
        name=f"{workload}/{policy}@{dataset}",
        params=params,
        seed=seed,
        timeout_s=timeout_s,
        max_retries=max_retries,
        tags=("simulation",),
    )


def run_experiment_job(spec: JobSpec) -> Dict[str, Any]:
    """Execute one experiment module and return its formatted output."""
    from repro.experiments import runner

    scale = RunScale.from_dict(spec.params["scale"])
    name = spec.params["experiment"]
    text = runner.run_experiment(name, scale)
    return {"experiment": name, "scale": scale.to_dict(), "text": text}


def run_simulation_job(spec: JobSpec) -> Dict[str, Any]:
    """Execute one CoolPIM system run and return its aggregate metrics.

    Alongside the result aggregates the payload carries a structured
    metrics snapshot (``sim.*`` counters/histograms, see
    :mod:`repro.obs.metrics`); when tracing is enabled the sampled
    timeline rides along too, so ``repro trace`` can emit it as sim-clock
    tracks. The system is fresh per job, but the epoch trace
    comes from the process-wide memo
    (:func:`repro.workloads.base.launch_for`): jobs in one process that
    differ only in policy or cooling generate it once.
    """
    from repro.core.coolpim import CoolPimSystem
    from repro.experiments.common import apply_workload_scale
    from repro.graph.datasets import get_dataset
    from repro.obs.tracer import get_tracer
    from repro.thermal.cooling import COOLING_SOLUTIONS
    from repro.workloads.registry import get_workload

    params = spec.params
    system = CoolPimSystem(
        cooling=COOLING_SOLUTIONS[params.get("cooling", "commodity")],
        engine=params.get("engine", "macro"),
    )
    graph = get_dataset(params.get("dataset", "ldbc"))
    workload = get_workload(params["workload"], seed=spec.seed)
    apply_workload_scale(workload, params.get("workload_scale", 1.0))
    scenario = None
    if params.get("scenario"):
        from repro.scenarios import make_scenario

        scenario = make_scenario(
            params["scenario"], seed=int(params.get("scenario_seed", 0))
        )
    result = system.run(
        workload, graph, params.get("policy", "coolpim-hw"), scenario=scenario
    )
    payload = {
        "workload": params["workload"],
        "dataset": params.get("dataset", "ldbc"),
        "policy": params.get("policy", "coolpim-hw"),
        "cooling": params.get("cooling", "commodity"),
        "seed": spec.seed,
        "result": result.to_dict(
            include_timeline=get_tracer().enabled or bool(params.get("trace"))
        ),
    }
    if scenario is not None:
        payload["scenario"] = scenario.name
        payload["scenario_seed"] = scenario.seed
    if system.last_stats is not None:
        payload["metrics"] = system.last_stats.snapshot(structured=True)
    return payload
