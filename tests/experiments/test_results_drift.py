"""``results/`` holds what the runner writes today.

Each committed ``results/<id>.txt`` must equal, byte for byte, the file
``python -m repro.experiments.runner --out DIR`` writes for that id: the
experiment's formatted full-scale result and a newline. Regenerate with
``python -m repro.experiments.runner --out results``.
"""

from pathlib import Path

import pytest

from repro.experiments.common import RunScale
from repro.experiments.runner import EXPERIMENT_IDS, experiment_catalog

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_one_result_file_per_experiment():
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) == sorted(EXPERIMENT_IDS)


@pytest.mark.parametrize("name", EXPERIMENT_IDS)
def test_result_file_matches_a_fresh_run(paper, name):
    _run, format_result = experiment_catalog(RunScale.full())[name]
    committed = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    assert format_result(paper[name]) + "\n" == committed
