"""Tests for multi-machine shard execution and merge-only folding.

The central guarantees: shard runs journal a disjoint strided subset of cell
indices and refuse to merge; ``merge_shards`` validates every shard journal
against the (machine-independent) plan fingerprint, reports exactly which
cells or shards are missing, and otherwise reproduces the unsharded payload
byte for byte — without executing a single cell.
"""

import json
import shutil

import pytest

from repro.runtime.cells import CampaignPlan, CellTask, shard_cell_indices
from repro.runtime.journal import CampaignJournal
from repro.runtime.runner import CampaignError, CampaignRunner
from repro.runtime.sharding import (
    ShardMergeError,
    ShardRunReport,
    ShardSpec,
    discover_shard_journals,
    load_shard_outputs,
)


def _payload(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def _double(value: float) -> float:
    return value * 2.0


def _boom(value: float) -> float:
    raise AssertionError("merge-only must never execute a cell")


def _plan(count: int = 7, fn=_double) -> CampaignPlan:
    cells = [
        CellTask(
            experiment_id="sharded",
            key=("cell", index),
            fn=fn,
            kwargs={"value": float(index)},
        )
        for index in range(count)
    ]
    return CampaignPlan(experiment_id="sharded", cells=cells, merge=list)


def _run_shards(journal_dir, shard_count: int, plan_factory=_plan, **runner_kwargs):
    reports = []
    for index in range(1, shard_count + 1):
        runner = CampaignRunner(
            journal_dir=journal_dir, shard=f"{index}/{shard_count}", **runner_kwargs
        )
        plan = plan_factory()
        reports.append(runner.run_plan(plan, journal=runner.journal_for(plan)))
    return reports


class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("2/4") == ShardSpec(index=2, count=4)
        assert ShardSpec.parse(" 1/1 ") == ShardSpec(index=1, count=1)

    @pytest.mark.parametrize("text", ["", "0/2", "3/2", "a/b", "1/0", "1-2", "1/2/3", "-1/2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_journal_name(self):
        assert ShardSpec(2, 4).journal_name("fig6a@r1") == "fig6a@r1.shard-2-of-4.jsonl"

    def test_strided_partition_spreads_heavy_rows(self):
        # Consecutive (typically similar-cost) cells land on different shards.
        assert shard_cell_indices(1, 3, 7) == [0, 3, 6]
        assert shard_cell_indices(2, 3, 7) == [1, 4]
        assert shard_cell_indices(3, 3, 7) == [2, 5]

    def test_partition_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            shard_cell_indices(0, 3, 7)
        with pytest.raises(ValueError):
            shard_cell_indices(4, 3, 7)
        with pytest.raises(ValueError):
            shard_cell_indices(1, 0, 7)


class TestShardRuns:
    def test_shard_run_refuses_to_merge(self, tmp_path):
        reports = _run_shards(tmp_path, 2)
        assert all(isinstance(report, ShardRunReport) for report in reports)
        assert [report.assigned for report in reports] == [4, 3]
        assert all("merge" in report.render() for report in reports)

    def test_shard_journals_are_disjoint_and_cover_plan(self, tmp_path):
        _run_shards(tmp_path, 3)
        seen = {}
        for spec, path in discover_shard_journals(tmp_path, "sharded"):
            journal = CampaignJournal(path, _plan(), shard=(spec.index, spec.count))
            for index in journal.load():
                assert index not in seen, f"cell {index} journaled by two shards"
                seen[index] = spec.index
        assert sorted(seen) == list(range(7))

    def test_shard_without_journal_refused(self, tmp_path):
        runner = CampaignRunner(shard="1/2")
        with pytest.raises(CampaignError, match="requires a streaming journal"):
            runner.run_plan(_plan())

    def test_shard_resume_skips_journaled_cells(self, tmp_path):
        first = CampaignRunner(journal_dir=tmp_path, shard="1/2")
        plan = _plan()
        first.run_plan(plan, journal=first.journal_for(plan))
        again = CampaignRunner(journal_dir=tmp_path, shard="1/2", resume=True)
        report = again.run_plan(_plan(), journal=again.journal_for(_plan()))
        assert report.executed == 0
        assert report.resumed == 4


class TestMergeOnly:
    def test_merge_matches_serial(self, tmp_path):
        _run_shards(tmp_path, 3)
        merged = CampaignRunner(journal_dir=tmp_path).merge_shards(_plan())
        assert merged == _plan().run_serial()

    def test_merge_never_executes_cells(self, tmp_path):
        _run_shards(tmp_path, 2)
        # A plan whose cells all raise: merge must still succeed because it
        # only reads journals.
        merged = CampaignRunner(journal_dir=tmp_path).merge_shards(_plan(fn=_boom))
        assert merged == _plan().run_serial()

    def test_merge_requires_journal_dir(self):
        with pytest.raises(CampaignError, match="journal_dir"):
            CampaignRunner().merge_shards(_plan())

    def test_missing_shard_file_reported(self, tmp_path):
        _run_shards(tmp_path, 3)
        (tmp_path / "sharded.shard-2-of-3.jsonl").unlink()
        with pytest.raises(ShardMergeError, match=r"missing shard journal\(s\).*2/3"):
            CampaignRunner(journal_dir=tmp_path).merge_shards(_plan())

    def test_no_shard_journals_reported(self, tmp_path):
        with pytest.raises(ShardMergeError, match="no shard journals"):
            CampaignRunner(journal_dir=tmp_path).merge_shards(_plan())

    def test_undecodable_shard_name_rejected(self, tmp_path):
        # Matches the discovery glob but decodes to no valid ShardSpec.
        (tmp_path / "fig6a.shard-0-of-2.jsonl").write_text("")
        with pytest.raises(ShardMergeError, match="has an invalid name"):
            discover_shard_journals(tmp_path, "fig6a")

    def test_incomplete_shard_names_missing_cells(self, tmp_path):
        _run_shards(tmp_path, 2)
        path = tmp_path / "sharded.shard-2-of-2.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop shard 2's last cell
        with pytest.raises(ShardMergeError, match=r"shard 2/2 is missing cells \[5\]"):
            CampaignRunner(journal_dir=tmp_path).merge_shards(_plan())

    def test_mixed_partitions_rejected(self, tmp_path):
        _run_shards(tmp_path, 2)
        _run_shards(tmp_path, 3)
        with pytest.raises(ShardMergeError, match="disagree on the shard count"):
            CampaignRunner(journal_dir=tmp_path).merge_shards(_plan())

    def test_wrong_plan_journal_rejected(self, tmp_path):
        _run_shards(tmp_path, 2)
        other = CampaignPlan(
            experiment_id="sharded",
            cells=[
                CellTask("sharded", ("cell", index), _double, {"value": float(index + 100)})
                for index in range(7)
            ],
            merge=list,
        )
        with pytest.raises(ShardMergeError, match="fingerprint mismatch"):
            CampaignRunner(journal_dir=tmp_path).merge_shards(other)

    def test_foreign_index_in_shard_journal_rejected(self, tmp_path):
        _run_shards(tmp_path, 2)
        # Disguise shard 1's journal (cells 0,2,4,6) as shard 2's.
        source = tmp_path / "sharded.shard-1-of-2.jsonl"
        target = tmp_path / "sharded.shard-2-of-2.jsonl"
        header = json.loads(source.read_text().splitlines()[0])
        header["shard"] = [2, 2]
        body = source.read_text().splitlines()[1:]
        target.write_text("\n".join([json.dumps(header), *body]) + "\n")
        with pytest.raises(ShardMergeError, match="belongs to shard 1/2"):
            load_shard_outputs(_plan(), tmp_path)

    def test_single_shard_partition_round_trips(self, tmp_path):
        _run_shards(tmp_path, 1)
        merged = CampaignRunner(journal_dir=tmp_path).merge_shards(_plan())
        assert merged == _plan().run_serial()


class TestArtifactShardIdentity:
    def test_fig6a_two_shard_merge_byte_identical(self, tmp_path, tiny_drone_scale, policy_cache):
        """The acceptance criterion at tiny scale: two --shard runs with
        *different* cache directories plus --merge-only reproduce the
        unsharded fig6a payload byte for byte.  The second cache dir is a
        copy, exercising the portable-fingerprint fix (a PolicyRef cache
        move must not invalidate the journal)."""
        from repro.core.experiments.drone_training import drone_count_plan
        from repro.core.pretrained import PolicyCache

        def plan(cache):
            return drone_count_plan(
                scale=tiny_drone_scale,
                drone_counts=(2,),
                ber_values=(0.0, 1e-2),
                cache=cache,
            )

        reference = _payload(plan(policy_cache).run_serial())

        # Shard 1 journals under the session cache; shard 2 under a copied
        # cache at a different absolute path (as a second machine would see).
        plan(policy_cache)  # ensure the baseline entry exists before copying
        cache_b_dir = tmp_path / "cache-b"
        shutil.copytree(policy_cache.cache_dir, cache_b_dir)
        cache_b = PolicyCache(cache_b_dir)

        journal_dir = tmp_path / "journals"
        for shard, cache in (("1/2", policy_cache), ("2/2", cache_b)):
            runner = CampaignRunner(journal_dir=journal_dir, shard=shard)
            sharded = plan(cache)
            report = runner.run_plan(sharded, journal=runner.journal_for(sharded))
            assert isinstance(report, ShardRunReport)

        merged = CampaignRunner(journal_dir=journal_dir).merge_shards(plan(policy_cache))
        assert _payload(merged) == reference
