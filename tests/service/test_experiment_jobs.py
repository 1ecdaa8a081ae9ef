"""Experiment jobs through the pool: the matrix-reading experiments share
one job, and the serial runner is the oracle for every text."""

import pytest

from repro.cli import main
from repro.experiments import evaluation, runner
from repro.experiments.common import RunScale
from repro.service.handlers import experiment_spec
from repro.service.journal import JobJournal

MATRIX_IDS = ["fig10", "fig11", "fig12", "fig13", "energy"]


@pytest.fixture
def empty_matrix_cache(monkeypatch):
    """A fresh evaluation-matrix cache, so the pool worker (forked from
    this process) builds the matrix itself; the session's cache is put
    back afterwards."""
    monkeypatch.setattr(evaluation, "_CACHE", {})


def batch(tmp_path, only, capsys):
    """One ``repro batch --quick --only ...`` run: its exit code, its
    closing ``[sweep: ...]`` line and the journal's event counts."""
    code = main(["batch", "--quick", "--only", only, "--jobs", "2",
                 "--cache-dir", str(tmp_path)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, last, JobJournal.summary(tmp_path / "journal.jsonl")


class TestGroups:
    def test_matrix_experiments_form_one_job_in_catalog_order(self):
        assert runner.job_groups(runner.EXPERIMENT_IDS) == [
            ["tables"], ["fig1"], ["fig2"], ["fig3"], ["fig4"], ["fig5"],
            ["fig8"], MATRIX_IDS, ["fig14"], ["management"],
            ["sensitivity"], ["hotspot"], ["cooling-sweep"],
        ]

    def test_selection_order_does_not_change_the_jobs(self):
        assert runner.job_groups(["energy", "fig5", "fig11"]) == [
            ["fig5"], ["fig11", "energy"],
        ]

    def test_spec_takes_a_list_of_ids(self):
        spec = experiment_spec(["fig10", "fig11"], quick=True)
        assert spec.params["experiments"] == ["fig10", "fig11"]
        assert spec.name == "fig10+fig11"
        assert spec.key != experiment_spec(["fig10"], quick=True).key
        with pytest.raises(TypeError):
            experiment_spec("fig10", quick=True)


class TestPooledSweep:
    def test_group_texts_equal_the_serial_runner(self, tmp_path,
                                                 empty_matrix_cache):
        scale = RunScale.quick()
        texts, report = runner.sweep_texts_parallel(
            MATRIX_IDS, scale, jobs=2, cache_dir=str(tmp_path)
        )
        assert report.ok and report.executed == 1
        assert texts == {
            name: runner.run_experiment(name, scale) for name in MATRIX_IDS
        }

    def test_only_submits_one_job_per_group(self, tmp_path, capsys):
        code, last, counts = batch(tmp_path / "a", "fig12,fig5", capsys)
        assert code == 0
        assert last.startswith("[sweep: 2 experiments in 2 jobs: 2 ok")
        assert counts["submitted"] == 2
        code, last, counts = batch(tmp_path / "b", "fig11", capsys)
        assert code == 0
        assert last.startswith("[sweep: 1 experiments in 1 jobs: 1 ok")
        assert counts["submitted"] == 1

    def test_rerun_is_served_from_the_cache(self, tmp_path, capsys):
        only = "fig5,fig10,fig13,energy"
        assert batch(tmp_path, only, capsys)[0] == 0
        code, last, counts = batch(tmp_path, only, capsys)
        assert code == 0
        assert "4 experiments in 2 jobs: 2 ok (2 cached, 0 executed)" in last
        assert counts["cache_hit"] == 2 and counts["completed"] == 2

    def test_failing_group_job_marks_every_member(self, tmp_path,
                                                  monkeypatch):
        serial = runner.run_experiment

        def run_experiment(name, scale=None):
            if name == "fig12":
                raise RuntimeError("fig12 exploded")
            return serial(name, scale)

        # The pool's workers are forked after this, so they inherit it.
        monkeypatch.setattr(runner, "run_experiment", run_experiment)
        texts, report = runner.sweep_texts_parallel(
            ["fig5", "fig11", "fig12", "fig13"], RunScale.quick(),
            jobs=2, cache_dir=str(tmp_path),
        )
        assert not report.ok and len(report.failures) == 1
        (failure,) = report.failures.values()
        note = f"[job failed: {failure.reason} — {failure.message}]"
        assert "fig12 exploded" in note
        assert texts["fig5"] == serial("fig5", RunScale.quick())
        assert [texts[n] for n in ("fig11", "fig12", "fig13")] == [note] * 3
