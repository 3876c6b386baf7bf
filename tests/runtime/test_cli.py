"""Argument validation tests for the ``repro-campaign`` CLI.

These exercise the parser layer only — campaign execution is covered by
``test_campaign_runner.py``/``test_sharding.py`` and the CI jobs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime import cli
from repro.runtime.cli import SUBCOMMANDS, main


def _error_text(capsys) -> str:
    return capsys.readouterr().err


class TestWorkerValidation:
    @pytest.mark.parametrize("workers", ["-1", "-3"])
    def test_negative_workers_rejected(self, capsys, workers):
        """Regression: CampaignRunner silently clamps negative workers to 1;
        the CLI must reject them like it rejects bad --replicates."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3a", "--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers must be >= 0" in _error_text(capsys)

    def test_zero_workers_means_machine_default(self, capsys):
        # 0 is valid (machine-sized pool); prove it passes the parser by
        # failing later, on the unknown-experiment check instead.
        with pytest.raises(SystemExit):
            main(["not-an-artifact", "--workers", "0"])
        assert "unknown experiments" in _error_text(capsys)


class TestShardValidation:
    @pytest.mark.parametrize("spec", ["0/2", "3/2", "a/b", "1-2", "1/0", ""])
    def test_malformed_shard_rejected(self, capsys, spec, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6a", "--shard", spec, "--journal-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid --shard" in _error_text(capsys)

    def test_shard_requires_journal_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6a", "--shard", "1/2"])
        assert "journal store" in _error_text(capsys)

    def test_merge_only_requires_journal_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6a", "--merge-only"])
        assert "journal store" in _error_text(capsys)

    def test_shard_and_merge_only_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig6a", "--shard", "1/2", "--merge-only", "--journal-dir", str(tmp_path)])
        assert "mutually exclusive" in _error_text(capsys)

    def test_sharded_replicates_need_explicit_seed(self, capsys, tmp_path):
        """Unseeded replicates derive from OS entropy, so each machine would
        build a different plan and shard journals could never merge."""
        with pytest.raises(SystemExit):
            main(
                ["fig6a", "--shard", "1/2", "--replicates", "2",
                 "--journal-dir", str(tmp_path)]
            )
        assert "--seed" in _error_text(capsys)

    def test_sharded_replicates_allowed_with_seed(self, capsys, tmp_path):
        # With an explicit seed the combination is valid; it passes the
        # parser and fails later only on the unknown-experiment check.
        with pytest.raises(SystemExit):
            main(
                ["nope", "--shard", "1/2", "--replicates", "2", "--seed", "7",
                 "--journal-dir", str(tmp_path)]
            )
        assert "unknown experiments" in _error_text(capsys)


class TestOrchestrateValidation:
    def test_orchestrate_requires_journal_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["orchestrate", "fig6a", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "journal store" in _error_text(capsys)

    def test_orchestrate_requires_shards(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["orchestrate", "fig6a"])
        assert excinfo.value.code == 2
        assert "--shards" in _error_text(capsys)

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--shards", "0", "--shards must be >= 1"),
            ("--workers-per-shard", "0", "--workers-per-shard must be >= 1"),
            ("--max-retries", "-1", "--max-retries must be >= 0"),
            ("--batch-cells", "0", "--batch-cells must be >= 1"),
            ("--poll-interval", "0", "--poll-interval must be > 0"),
            ("--stall-timeout", "0", "--stall-timeout must be > 0"),
        ],
    )
    def test_orchestrate_rejects_bad_knobs(self, capsys, tmp_path, flag, value, message):
        argv = ["orchestrate", "fig6a", "--journal-dir", str(tmp_path)]
        if flag != "--shards":
            argv += ["--shards", "2"]
        argv += [flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in _error_text(capsys)

    @pytest.mark.parametrize("kill_shard", ["0", "3", "-1"])
    def test_orchestrate_rejects_out_of_range_inject_kill(self, capsys, tmp_path, kill_shard):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["orchestrate", "fig6a", "--shards", "2", "--journal-dir", str(tmp_path),
                 "--inject-kill-shard", kill_shard]
            )
        assert excinfo.value.code == 2
        assert "--inject-kill-shard must name a shard in 1..2" in _error_text(capsys)

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            ("teleport", "unknown backend"),
            ("local:0", "slots must be >= 1"),
            ("ssh:2", "requires a host"),
            ("slurm:1,flavor=fast", "does not accept option"),
        ],
    )
    def test_orchestrate_rejects_bad_backend_specs(self, capsys, tmp_path, spec, message):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["orchestrate", "fig6a", "--shards", "2", "--journal-dir", str(tmp_path),
                 "--backend", spec]
            )
        assert excinfo.value.code == 2
        error = _error_text(capsys)
        assert "invalid --backend" in error
        assert message in error

    def test_orchestrate_rejects_single_cell_artifacts(self, capsys, tmp_path):
        """fig9 has one cell — nothing to shard, so orchestration must fail
        loudly (exit 1) instead of spawning useless subprocesses."""
        exit_code = main(
            ["orchestrate", "fig9", "--shards", "2", "--journal-dir", str(tmp_path)]
        )
        assert exit_code == 1
        assert "single-cell" in _error_text(capsys)

    def test_orchestrate_unknown_experiment_fails(self, capsys, tmp_path):
        exit_code = main(
            ["orchestrate", "nope", "--shards", "2", "--journal-dir", str(tmp_path)]
        )
        assert exit_code == 1
        assert "unknown experiment" in _error_text(capsys)

    def test_dry_run_prints_assignment_without_launching(self, capsys, tmp_path):
        """--dry-run resolves backend specs and prints shard->backend lines
        plus exact commands; nothing runs, no plan is built, no dirs appear."""
        journal_dir = tmp_path / "journals"
        exit_code = main(
            [
                "orchestrate", "fig6a", "--shards", "3", "--scale", "tiny",
                "--journal-dir", str(journal_dir), "--dry-run",
                "--backend", "local:1", "--backend", "slurm:2,bin_dir=/opt/slurm/bin",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "local[slots=1], slurm[slots=2]" in out
        assert "shard 1/3 -> slurm" in out  # most free slots wins
        assert "shard 2/3 -> local" in out
        assert "--shard 1/3" in out and "--scale tiny" in out
        assert "nothing launched" in out
        assert not journal_dir.exists()

    def test_dry_run_with_default_backend(self, capsys, tmp_path):
        exit_code = main(
            ["orchestrate", "fig6a", "--shards", "2",
             "--journal-dir", str(tmp_path / "j"), "--dry-run"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "local[slots=unbounded]" in out
        assert "shard 1/2 -> local" in out and "shard 2/2 -> local" in out

    def test_main_help_mentions_shard_merge_resume_workflow(self, capsys):
        """Regression for the help-text satellite: the epilog shows worked
        shard / merge / resume / orchestrate examples."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "--shard 1/2 --journal-dir" in text
        assert "--merge-only --journal-dir" in text
        assert "--resume" in text
        assert "orchestrate fig6a --shards" in text


class TestExistingValidation:
    def test_resume_requires_journal(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3a", "--resume"])
        assert "--resume needs a journal" in _error_text(capsys)

    def test_replicates_floor(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3a", "--replicates", "0"])
        assert "--replicates" in _error_text(capsys)

    def test_merge_only_without_shard_journals_fails_per_artifact(self, capsys, tmp_path):
        """--merge-only with an empty journal store fails the artifact (exit 1)
        with the ShardMergeError surfaced, rather than silently running cells."""
        exit_code = main(["fig3a", "--merge-only", "--journal-dir", str(tmp_path)])
        assert exit_code == 1
        assert "no shard journals" in _error_text(capsys)

    def test_single_cell_plans_skipped_under_shard(self, capsys, tmp_path):
        """`all --shard k/n` must stay usable: single-cell artifacts are
        skipped with a notice, not failed on every machine (exit 0)."""
        exit_code = main(["fig9", "--shard", "1/2", "--journal-dir", str(tmp_path)])
        assert exit_code == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_single_cell_plans_skipped_under_merge_only(self, capsys, tmp_path):
        exit_code = main(["fig9", "--merge-only", "--journal-dir", str(tmp_path)])
        assert exit_code == 0
        assert "SKIPPED" in capsys.readouterr().out


def _value(x):
    return float(x)


class TestStoreSubcommands:
    @staticmethod
    def _journal(tmp_path):
        """One tiny two-cell journal directory, written via the journal layer."""
        import json as _json

        from repro.runtime.cells import CampaignPlan, CellTask
        from repro.runtime.journal import CampaignJournal

        plan = CampaignPlan(
            experiment_id="demo",
            cells=[
                CellTask(experiment_id="demo", key=("ber", i), fn=_value, kwargs={"x": i})
                for i in range(2)
            ],
            merge=list,
        )
        journal = CampaignJournal(tmp_path / "demo.jsonl", plan)
        journal.start({})
        for index in range(2):
            journal.record(index, plan.cells[index].run())
        journal.close()
        return _json

    def test_ingest_then_query_round_trip(self, capsys, tmp_path):
        json = self._journal(tmp_path)
        assert main(["ingest", str(tmp_path)]) == 0
        assert "+2 cell row(s)" in capsys.readouterr().out
        assert (tmp_path / "store.sqlite").exists()
        exit_code = main(
            ["query", "cells", "demo", "--journal-dir", str(tmp_path), "--format", "ndjson"]
        )
        assert exit_code == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert [json.loads(line)["output"] for line in lines] == [0.0, 1.0]

    def test_second_ingest_reports_zero_rows(self, capsys, tmp_path):
        self._journal(tmp_path)
        assert main(["ingest", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["ingest", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "+0 cell row(s)" in out
        assert "0 ingested" in out

    def test_query_without_store_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "campaigns"])
        assert excinfo.value.code == 2
        assert "--store" in _error_text(capsys)
        with pytest.raises(SystemExit):
            main(["query", "campaigns", "--journal-dir", str(tmp_path)])
        assert "ingest" in _error_text(capsys)

    def test_query_requires_a_canned_query_or_sql(self, capsys, tmp_path):
        self._journal(tmp_path)
        main(["ingest", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["query", "--journal-dir", str(tmp_path)])
        assert "canned query" in _error_text(capsys)
        with pytest.raises(SystemExit):
            main(["query", "cells", "demo", "--sql", "SELECT 1", "--journal-dir", str(tmp_path)])
        assert "one or the other" in _error_text(capsys)
        with pytest.raises(SystemExit):
            main(["query", "teleport", "--journal-dir", str(tmp_path)])
        assert "unknown query" in _error_text(capsys)

    def test_sql_escape_hatch(self, capsys, tmp_path):
        self._journal(tmp_path)
        main(["ingest", str(tmp_path)])
        capsys.readouterr()
        exit_code = main(
            [
                "query",
                "--sql",
                "SELECT COUNT(*) AS cells FROM cells",
                "--journal-dir",
                str(tmp_path),
                "--format",
                "json",
            ]
        )
        assert exit_code == 0
        assert '"cells": 2' in capsys.readouterr().out

    def test_unknown_label_is_a_runtime_failure(self, capsys, tmp_path):
        self._journal(tmp_path)
        main(["ingest", str(tmp_path)])
        assert main(["query", "cells", "fig6a", "--journal-dir", str(tmp_path)]) == 1
        assert "no ingested campaign" in _error_text(capsys)

    def test_mixed_fingerprints_fail_ingest_loudly(self, capsys, tmp_path):
        import json as _json

        self._journal(tmp_path)
        header = _json.loads(
            (tmp_path / "demo.jsonl").read_text(encoding="utf8").splitlines()[0]
        )
        stale = dict(header, fingerprint="f" * 64, shard=[1, 2])
        (tmp_path / "demo.shard-1-of-2.jsonl").write_text(
            _json.dumps(stale) + "\n", encoding="utf8"
        )
        assert main(["ingest", str(tmp_path)]) == 1
        assert "mixed plan fingerprints" in _error_text(capsys)


class TestServeValidation:
    def test_dry_run_prints_roster_and_quotas_binding_nothing(self, capsys, tmp_path):
        journal_dir = tmp_path / "journals"
        exit_code = main(
            [
                "serve",
                "--journal-dir", str(journal_dir),
                "--backend", "local:2",
                "--backend", "local:1",
                "--quota", "alice=2",
                "--default-quota", "4",
                "--dry-run",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "campaign service (dry run)" in out
        assert "local[slots=2], local#2[slots=1]" in out
        assert "total slots: 3" in out
        assert "alice" in out and "*" in out
        assert "dry run: nothing started" in out
        # Truly offline: no socket bound, no journal store touched.
        assert not journal_dir.exists()

    def test_dry_run_default_socket_under_journal_dir(self, capsys, tmp_path):
        assert main(["serve", "--journal-dir", str(tmp_path), "--dry-run"]) == 0
        assert f"socket: {tmp_path / 'service.sock'}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--quota", "alice"], "--quota must be TENANT=N"),
            (["--quota", "=3"], "--quota must be TENANT=N"),
            (["--quota", "alice=lots"], "N must be an integer"),
            (["--quota", "alice=0"], "--quota caps must be >= 1"),
            (["--default-quota", "0"], "--default-quota must be >= 1"),
            (["--max-retries", "-1"], "--max-retries must be >= 0"),
            (["--poll-interval", "0"], "--poll-interval must be > 0"),
            (["--stall-timeout", "0"], "--stall-timeout must be > 0"),
            (["--inject-kill-shard", "0"], "--inject-kill-shard must be >= 1"),
            (["--backend", "warp:1"], "invalid --backend"),
        ],
    )
    def test_bad_serve_arguments_rejected(self, capsys, tmp_path, extra, message):
        with pytest.raises(SystemExit):
            main(["serve", "--journal-dir", str(tmp_path), "--dry-run"] + extra)
        assert message in _error_text(capsys)


class TestSubcommandTable:
    @pytest.mark.parametrize("subcommand", [None, *SUBCOMMANDS])
    def test_every_entry_has_help(self, capsys, subcommand):
        argv = [subcommand, "--help"] if subcommand else ["--help"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        prog = f"repro-campaign {subcommand}" if subcommand else "repro-campaign"
        assert capsys.readouterr().out.startswith(f"usage: {prog} ")

    def test_main_dispatches_through_the_table(self, monkeypatch):
        """Registering a table entry is all it takes to add a subcommand, and
        the bare run form's help lists exactly the table's names."""
        calls = []

        def handler(parser, args):
            """Record the word."""
            calls.append(args.word)
            return 7

        monkeypatch.setitem(
            SUBCOMMANDS, "probe", (lambda parser: parser.add_argument("word"), handler)
        )
        assert main(["probe", "hello"]) == 7
        assert calls == ["hello"]
        help_text = cli.build_parser().format_help()
        assert ", ".join(SUBCOMMANDS) in " ".join(help_text.split())


class TestSubmitValidation:
    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--shards", "0", "--shards must be >= 1"),
            ("--workers-per-shard", "0", "--workers-per-shard must be >= 1"),
            ("--batch-cells", "0", "--batch-cells must be >= 1"),
        ],
    )
    def test_submit_rejects_bad_knobs_before_connecting(
        self, capsys, tmp_path, flag, value, message
    ):
        """Regression: these used to reach the daemon, which refused them, and
        the client exited 1 as a runtime failure; they are usage errors (exit
        2) raised before the socket is opened, as for orchestrate."""
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "fig6a", "--socket", str(tmp_path / "nope.sock"), flag, value])
        assert excinfo.value.code == 2
        error = _error_text(capsys)
        assert message in error
        assert "FAILED" not in error


class TestClientSocketResolution:
    @pytest.mark.parametrize("command", [["status"], ["tail", "x"], ["cancel", "x"], ["submit", "fig6a"]])
    def test_client_commands_need_a_socket_or_journal_dir(self, capsys, command):
        with pytest.raises(SystemExit):
            main(command)
        assert "give --socket PATH or --journal-dir DIR" in _error_text(capsys)

    def test_journal_dir_shorthand_resolves_and_unreachable_daemon_fails_cleanly(
        self, capsys, tmp_path
    ):
        assert main(["status", "--journal-dir", str(tmp_path)]) == 1
        err = _error_text(capsys)
        assert "[status] FAILED" in err
        assert str(tmp_path / "service.sock") in err

    def test_unreachable_socket_is_an_error_not_a_crash(self, capsys, tmp_path):
        assert main(["cancel", "ghost", "--socket", str(tmp_path / "nope.sock")]) == 1
        assert "[cancel] FAILED" in _error_text(capsys)


class TestClosedStdout:
    """A reader that closes stdout early (``... | head``) ends the command
    quietly: no ``BrokenPipeError`` traceback on stderr."""

    @staticmethod
    def _run_with_closed_stdout(arguments):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child can write a byte
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.runtime.cli", *arguments],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        return completed

    def test_list(self):
        completed = self._run_with_closed_stdout(["--list"])
        stderr = completed.stderr.decode()
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
        assert completed.returncode == 1

    def test_query(self, tmp_path):
        TestStoreSubcommands._journal(tmp_path)
        assert main(["ingest", str(tmp_path)]) == 0
        completed = self._run_with_closed_stdout(
            ["query", "cells", "demo", "--journal-dir", str(tmp_path), "--format", "ndjson"]
        )
        stderr = completed.stderr.decode()
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
        assert completed.returncode == 1
