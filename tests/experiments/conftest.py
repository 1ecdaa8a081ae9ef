"""The paper-claim suite's shared full-scale results.

``paper`` runs every experiment of the runner's catalog once per session
at ``RunScale.full()``; Figs. 10–13 and the energy experiment share one
evaluation matrix of all ten benchmarks × five policies. The claim tests
read their results from it, and ``test_results_drift.py`` checks the
committed ``results/`` texts against it.
"""

import pytest

from repro.experiments.common import RunScale
from repro.experiments.runner import experiment_catalog


@pytest.fixture(scope="session")
def paper():
    """Experiment id → its ``run()`` result at full scale."""
    catalog = experiment_catalog(RunScale.full())
    return {name: run() for name, (run, _fmt) in catalog.items()}
