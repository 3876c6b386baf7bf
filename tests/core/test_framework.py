"""Tests for running paper artifacts by identifier through ``CampaignRunner``.

``build_plan`` plus :class:`~repro.runtime.runner.CampaignRunner` is the
FRL-FI framework's one in-process entry point: every paper artifact runs by
its identifier and its result lands in the runner's report.
"""

import pytest

from repro.core import DroneScale, GridWorldScale
from repro.runtime import CampaignRunner


@pytest.fixture()
def runner(policy_cache):
    return CampaignRunner(
        gridworld_scale=GridWorldScale.tiny(),
        drone_scale=DroneScale.tiny(),
        cache=policy_cache,
    )


class TestFramework:
    def test_experiment_ids_cover_paper_artifacts(self, runner):
        ids = runner.experiment_ids
        for required in ("fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "table1", "fig4",
                         "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig7a", "fig7b",
                         "fig8a", "fig8b", "fig9", "datatypes"):
            assert required in ids

    def test_unknown_experiment(self, runner):
        with pytest.raises(KeyError):
            runner.run("fig99")

    def test_run_fig9_and_report(self, runner):
        result = runner.run("fig9")
        assert "fig9" in runner.results
        report = runner.report()
        assert "fig9" in report and "DJI Spark" in report
        assert hasattr(result, "rows")

    def test_run_fig3d_uses_cache(self, runner):
        result = runner.run("fig3d")
        labels = [row[0] for row in result.rows]
        assert "0 bits (%)" in labels

    def test_run_all_subset(self, runner):
        results = runner.run_all(["fig9", "fig3d"])
        assert set(results) == {"fig9", "fig3d"}
