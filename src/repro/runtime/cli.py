"""``repro-campaign`` — run paper artifacts from the command line.

``repro-campaign EXP ...`` runs artifacts in this process: serially or on a
process pool, as one ``--shard`` of a multi-machine campaign, or merging
shard journals with ``--merge-only``.  The subcommands in :data:`SUBCOMMANDS`
drive a sharded campaign end to end (``orchestrate``), compact and query
results (``ingest``, ``query``), and run or talk to the resident campaign
service (``serve``, ``submit``, ``status``, ``tail``, ``cancel``).
``repro-campaign --help`` and ``repro-campaign <subcommand> --help`` show
worked examples.

Replicate seeds are derived with ``numpy.random.SeedSequence.spawn`` (see
:func:`repro.runtime.cells.derive_cell_seeds`), so adding replicates never
perturbs existing ones.

With ``--output`` (or an explicit ``--journal-dir``), completed cell outputs
stream to a per-artifact JSONL journal as the campaign runs; ``--resume``
skips already-journaled cells after an interruption and produces a payload
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import logging
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core.config import SCALE_PRESETS, preset_scales
from repro.core.pretrained import PolicyCache
from repro.runtime.cells import derive_cell_seeds
from repro.runtime.plans import decomposed_experiment_ids, plannable_experiment_ids
from repro.runtime.runner import CampaignRunner, default_worker_count
from repro.runtime.sharding import ShardRunReport, ShardSpec
from repro.utils.serialization import save_result

_EPILOG = """\
examples:
  repro-campaign --list
  repro-campaign fig3a fig4 --scale tiny --workers 4 --output results/
  repro-campaign fig3a --replicates 3 --seed 7                      # 3 independent seeds
  repro-campaign fig5a --workers 4 --output results/                # ... killed partway
  repro-campaign fig5a --workers 4 --output results/ --resume       # finish the rest

  # sharded multi-machine campaign, driven end to end (launch, watch, retry
  # failed shards with --resume, merge) by the orchestrator:
  repro-campaign orchestrate fig6a --shards 4 --workers-per-shard 2 --output results/

  # under the hood (or from a real scheduler): one --shard run per machine
  # into a shared journal store, then any machine merges
  repro-campaign fig6a --shard 1/2 --journal-dir /shared/journals   # machine A
  repro-campaign fig6a --shard 2/2 --journal-dir /shared/journals   # machine B
  repro-campaign fig6a --merge-only --journal-dir /shared/journals --output results/

  # compact the journals + orchestrator reports into a queryable sqlite store
  repro-campaign ingest /shared/journals
  repro-campaign query cells fig6a --store /shared/journals/store.sqlite
  repro-campaign query slice fig6a --by ber --format json --store /shared/journals/store.sqlite

  # resident campaign service (daemon + thin clients over a unix socket)
  repro-campaign serve --journal-dir /shared/journals --backend local:4 \\
      --quota alice=2 --resume
  repro-campaign submit fig6a --journal-dir /shared/journals \\
      --label nightly --tenant alice --priority 5 --shards 2
  repro-campaign status --journal-dir /shared/journals
  repro-campaign tail nightly --journal-dir /shared/journals
  repro-campaign cancel nightly --journal-dir /shared/journals

`repro-campaign <subcommand> --help` documents each subcommand's own options;
the result store's schemas are in docs/RESULTS.md.
"""

_ORCHESTRATE_EPILOG = """\
examples:
  # 4 concurrent shard subprocesses, 2 pool workers each, retry a failed or
  # stalled shard (resuming from its journal) up to 2 times, then merge:
  repro-campaign orchestrate fig6a --shards 4 --workers-per-shard 2 --output results/

  # mixed execution backends with capacity-aware scheduling: 2 shard slots on
  # this machine, 4 over ssh, 16 as Slurm jobs; a failed shard retries on a
  # *different* backend (--resume keeps its journaled cells either way):
  repro-campaign orchestrate fig6a --shards 22 --journal-dir /shared/journals \\
      --backend local:2 --backend ssh:4,host=node7 --backend slurm:16

  # 16 shards as Slurm array jobs (each wave of launches is one sbatch --array):
  repro-campaign orchestrate fig6a --shards 16 --journal-dir /shared/journals \\
      --backend slurm:16,array=on

  # print the shard->backend assignment and the exact per-shard commands (to
  # wrap in any other scheduler's job format), launch nothing:
  repro-campaign orchestrate fig6a --shards 4 --journal-dir /shared/journals \\
      --backend local:1 --backend slurm:3 --dry-run

The merged payload is byte-identical to an unsharded single-machine run; the
per-shard attempt log (including which backend ran each attempt) lands in
<journal-dir>/<label>.orchestrator.json.
"""

_QUERY_EPILOG = """\
canned queries:
  campaigns             every ingested campaign with its cell coverage
  cells LABEL           per-cell outcomes of one campaign, in plan order
  slice LABEL [--by C]  outcome statistics grouped by one key coordinate
                        (default: ber — the failure-rate-vs-BER slices)
  attempts [LABEL]      every orchestrator shard attempt, in order
  timings [LABEL]       per-backend attempt counts, success rates and durations

examples:
  repro-campaign ingest /shared/journals
  repro-campaign query campaigns --store /shared/journals/store.sqlite
  repro-campaign query cells fig6a --journal-dir /shared/journals --format ndjson
  repro-campaign query slice fig6a --by ber --journal-dir /shared/journals
  repro-campaign query timings --journal-dir /shared/journals
  repro-campaign query --sql "SELECT COUNT(*) FROM cells" --journal-dir /shared/journals

Schemas and more worked examples: docs/RESULTS.md.
"""

_SERVE_EPILOG = """\
examples:
  # daemonize a shared roster: 4 local shard slots + a Slurm partition, with
  # per-tenant concurrency quotas and crash-safe re-adoption of campaigns
  # that were in flight when the previous daemon died:
  repro-campaign serve --journal-dir /shared/journals \\
      --backend local:4 --backend slurm:16 \\
      --quota alice=2 --quota bob=2 --default-quota 4 --resume

  # print the resolved roster and quota table, bind nothing:
  repro-campaign serve --journal-dir /shared/journals --backend local:2 --dry-run

Submissions journal into <journal-dir>/<label>/ and the merged payload lands
there as <artifact>.json/.txt — byte-identical to a one-shot run of the same
artifact.  The daemon's own submission/state journal is
<journal-dir>/service.campaigns.jsonl (records documented in docs/RESULTS.md).
"""


class _AtLeast(argparse.Action):
    """Store a number, rejecting one below ``floor`` (or equal to it, if ``strict``).

    The rejection is a usage error (exit 2) raised while parsing, before any
    handler runs: a client command never opens its socket for a bad value.
    """

    def __init__(self, option_strings, dest, *, floor, strict=False, **kwargs) -> None:
        super().__init__(option_strings, dest, **kwargs)
        self.floor = floor
        self.strict = strict

    def __call__(self, parser, namespace, value, option_string=None) -> None:
        if value < self.floor or (self.strict and value == self.floor):
            relation = ">" if self.strict else ">="
            parser.error(f"{option_string} must be {relation} {self.floor}")
        setattr(namespace, self.dest, value)


#: Every option more than one command takes, defined once as
#: ``flag -> add_argument keywords``; see :func:`_add_option`.
_SHARED_OPTIONS = {
    "--scale": dict(
        choices=sorted(SCALE_PRESETS),
        default="fast",
        help="workload scale preset (default: fast)",
    ),
    "--seed": dict(type=int, default=None, help="root seed of the workload scales"),
    "--cache-dir": dict(
        type=Path,
        default=None,
        help="policy cache directory shared by planning, pool workers and shards "
        "(default: $FRLFI_CACHE_DIR or ./.frlfi_cache)",
    ),
    "--vectorize": dict(
        choices=("auto", "on", "off"),
        default="auto",
        help="lockstep (vectorized) evaluation of cell groups: 'auto' uses it "
        "where a vectorized runner exists, 'on' fails if one is missing, "
        "'off' forces the serial per-cell path; payloads are byte-identical "
        "either way (default: auto)",
    ),
    "--batch-cells": dict(
        type=int,
        action=_AtLeast,
        floor=1,
        default=1,
        metavar="N",
        help="group up to N cells into one pool submission to amortize "
        "process round-trips (default: 1)",
    ),
    "--shards": dict(
        type=int,
        action=_AtLeast,
        floor=1,
        metavar="N",
        help="number of --shard k/N runs the campaign is split into",
    ),
    "--workers-per-shard": dict(
        type=int,
        action=_AtLeast,
        floor=1,
        default=1,
        metavar="M",
        help="process-pool size inside each shard run (default: 1)",
    ),
    "--output": dict(
        type=Path,
        default=None,
        help="directory for the per-artifact .json/.txt result files",
    ),
    "--journal-dir": dict(
        type=Path,
        default=None,
        metavar="DIR",
        help="journal store for the per-artifact JSONL cell journals, shard "
        "journals and orchestrator reports (default: <output>/journals when "
        "--output is given)",
    ),
    "--store": dict(
        type=Path,
        default=None,
        metavar="FILE",
        help="sqlite result store file (default: <journal dir>/store.sqlite)",
    ),
    "--socket": dict(
        type=Path,
        default=None,
        metavar="PATH",
        help="the campaign service's Unix socket (default: <journal-dir>/service.sock)",
    ),
    "--max-retries": dict(
        type=int,
        action=_AtLeast,
        floor=0,
        default=2,
        metavar="R",
        help="retry a failed or stalled shard up to R times, resuming from its "
        "journal with --resume (default: 2)",
    ),
    "--stall-timeout": dict(
        type=float,
        action=_AtLeast,
        floor=0,
        strict=True,
        default=None,
        metavar="SECONDS",
        help="kill and retry a shard whose journal shows no new cell for this "
        "many seconds (default: disabled)",
    ),
    "--poll-interval": dict(
        type=float,
        action=_AtLeast,
        floor=0,
        strict=True,
        default=0.5,
        metavar="SECONDS",
        help="how often shard journals are polled for progress (default: 0.5)",
    ),
    "--backend": dict(
        action="append",
        dest="backends",
        default=None,
        metavar="NAME[:SLOTS][,KEY=VALUE...]",
        help="execution backend for shard attempts, repeatable: local[:slots], "
        "ssh[:slots],host=NODE, or slurm[:slots][,bin_dir=DIR][,poll=SECONDS]"
        "[,array=on]; add workers=M to override --workers-per-shard for that "
        "backend's attempts; the scheduler assigns shards by free slots and a "
        "retry prefers a different backend than the one that just failed "
        "(default: one unbounded local backend)",
    ),
    "--inject-kill-shard": dict(
        type=int,
        default=None,
        metavar="K",
        help="chaos-testing hook: SIGKILL shard K's first attempt once it has "
        "journaled a cell, forcing the retry+--resume path (CI uses this to "
        "prove the merged payload survives a mid-run kill)",
    ),
    "--dry-run": dict(
        action="store_true",
        help="print the resolved backend roster and what would run on it, then "
        "exit without launching, binding or writing anything",
    ),
}


def _add_option(parser: argparse.ArgumentParser, flag: str, **overrides) -> None:
    """Add the shared option ``flag``, with some of its keywords replaced."""
    parser.add_argument(flag, **{**_SHARED_OPTIONS[flag], **overrides})


def _add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the shared options ``flags`` as defined."""
    for flag in flags:
        _add_option(parser, flag)


def _journal_dir(args) -> Optional[Path]:
    """``--journal-dir``, defaulting to ``<output>/journals`` when ``--output`` is given."""
    if args.journal_dir is None and args.output is not None:
        return args.output / "journals"
    return args.journal_dir


def _build_backends(parser: argparse.ArgumentParser, specs):
    """The backend roster of the ``--backend`` specs (one local backend if none)."""
    from repro.runtime.backends import BackendError, build_backends

    try:
        return build_backends(specs or ["local"])
    except BackendError as error:
        parser.error(f"invalid --backend: {error}")


# ------------------------------------------------------------ one-shot runs
def _run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.epilog = _EPILOG
    parser.add_argument(
        "experiments",
        nargs="*",
        help="artifact identifiers (fig3a ... fig9, table1) or 'all'; in first "
        f"place, a subcommand instead: {', '.join(SUBCOMMANDS)}",
    )
    parser.add_argument("--list", action="store_true", help="list runnable artifacts and exit")
    parser.add_argument(
        "--workers",
        type=int,
        action=_AtLeast,
        floor=0,
        default=1,
        help="process-pool size; 0 picks a machine-sized default "
        f"(currently {default_worker_count()} here); 1 runs serially",
    )
    _add_options(parser, "--scale", "--seed")
    parser.add_argument(
        "--replicates",
        type=int,
        action=_AtLeast,
        floor=1,
        default=1,
        help="run each artifact N times under independently derived seeds",
    )
    _add_options(parser, "--batch-cells", "--vectorize", "--output", "--journal-dir")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in the journal of a previous "
        "(interrupted) run of the same campaign, e.g.: repro-campaign fig5a "
        "--output results/ --resume",
    )
    parser.add_argument(
        "--shard",
        metavar="K/N",
        default=None,
        help="run only shard K of an N-way strided partition of each "
        "artifact's cells, journaling to <label>.shard-K-of-N.jsonl; shard "
        "runs never merge (use --merge-only once every shard has run), "
        "e.g.: repro-campaign fig6a --shard 1/2 --journal-dir /shared/journals",
    )
    parser.add_argument(
        "--merge-only",
        action="store_true",
        help="merge previously journaled shard runs into the final payload "
        "without executing any cell; fails loudly if any shard or cell is "
        "missing or any journal does not match the plan, e.g.: repro-campaign "
        "fig6a --merge-only --journal-dir /shared/journals --output results/",
    )
    _add_options(parser, "--cache-dir")


def _run(parser: argparse.ArgumentParser, args) -> int:
    """Run FRL-FI fault-injection campaigns, optionally on a process pool.

    The 'orchestrate' subcommand drives a whole sharded campaign (launch,
    watch, retry, merge) from one terminal.
    """
    if args.list:
        decomposed = set(decomposed_experiment_ids())
        for experiment_id in plannable_experiment_ids():
            kind = "parallel" if experiment_id in decomposed else "single-cell"
            print(f"{experiment_id:12s} {kind}")
        return 0

    if not args.experiments:
        parser.error("no experiments given (or use --list)")
    shard = None
    if args.shard is not None:
        if args.merge_only:
            parser.error(
                "--shard and --merge-only are mutually exclusive: shards run cells, "
                "merge-only folds finished shard journals together"
            )
        try:
            shard = ShardSpec.parse(args.shard)
        except ValueError as error:
            parser.error(f"invalid --shard: {error}")
    journal_dir = _journal_dir(args)
    if args.resume and journal_dir is None:
        parser.error("--resume needs a journal (give --journal-dir or --output)")
    if (shard is not None or args.merge_only) and journal_dir is None:
        parser.error(
            "--shard/--merge-only need the shared journal store "
            "(give --journal-dir or --output)"
        )
    if (shard is not None or args.merge_only) and args.replicates > 1 and args.seed is None:
        # Replicate seeds derive from OS entropy when no root seed is given,
        # so every machine (and the merging run) would build a different plan
        # and the shard journals could never fingerprint-match.
        parser.error(
            "--shard/--merge-only with --replicates > 1 needs an explicit --seed "
            "so every machine derives the same replicate plans"
        )

    workers = args.workers if args.workers != 0 else default_worker_count()
    cache = PolicyCache(args.cache_dir) if args.cache_dir is not None else None

    known = plannable_experiment_ids()
    if args.experiments == ["all"]:
        experiment_ids = known
    else:
        experiment_ids = args.experiments
        unknown = sorted(set(experiment_ids) - set(known))
        if unknown:
            parser.error(f"unknown experiments {unknown}; available: {known}")

    base_seed = args.seed
    replicate_seeds = (
        derive_cell_seeds(base_seed, args.replicates) if args.replicates > 1 else [base_seed]
    )

    exit_code = 0
    for replicate, seed in enumerate(replicate_seeds):
        gridworld_scale, drone_scale = preset_scales(args.scale, seed)
        runner = CampaignRunner(
            gridworld_scale=gridworld_scale,
            drone_scale=drone_scale,
            cache=cache,
            workers=workers,
            batch_size=args.batch_cells,
            journal_dir=journal_dir,
            resume=args.resume,
            shard=shard,
            vectorize=args.vectorize,
        )
        suffix = f"@r{replicate}" if args.replicates > 1 else ""
        if args.replicates > 1:
            # Record the derived seed so any single replicate can be rerun
            # exactly with --replicates 1 --seed <seed>.
            print(f"[repro-campaign] replicate {replicate}: seed={seed}", flush=True)
        for experiment_id in experiment_ids:
            label = f"{experiment_id}{suffix}"
            start = time.perf_counter()
            try:
                # Plan building can fail too (corrupt cache entries, baseline
                # training errors), so it sits inside the per-artifact guard.
                plan = runner.plan(experiment_id)
                if (shard is not None or args.merge_only) and plan.cell_count <= 1:
                    # Single-cell plans (fig3e, fig9) have no journal and
                    # nothing to partition; skip them so `all --shard k/n`
                    # stays usable, instead of failing every machine.
                    print(
                        f"[repro-campaign] {label}: SKIPPED — single-cell plans "
                        "cannot be sharded or shard-merged; run this artifact "
                        "without --shard/--merge-only",
                        flush=True,
                    )
                    continue
                if args.merge_only:
                    print(
                        f"[repro-campaign] {label}: merging shard journals "
                        f"({plan.cell_count} cells, no execution)...",
                        flush=True,
                    )
                    result = runner.merge_shards(plan, name=label)
                else:
                    # Journals are per label, so each replicate resumes its own.
                    journal = runner.journal_for(plan, name=label)
                    journaled = len(journal.load()) if journal is not None and args.resume else 0
                    if shard is not None:
                        assigned = len(shard.cell_indices(plan.cell_count))
                        progress = (
                            f"shard {shard.describe()}: {assigned}/{plan.cell_count} "
                            f"cells on {workers} worker(s)"
                        )
                    else:
                        progress = f"{plan.cell_count} cells on {workers} worker(s)"
                    if args.batch_cells > 1:
                        progress += f", batches of {args.batch_cells}"
                    if journaled:
                        progress += f", {journaled} already journaled"
                    print(f"[repro-campaign] {label}: {progress}...", flush=True)
                    result = runner.run_plan(plan, journal=journal)
            except KeyboardInterrupt:
                raise
            except Exception as error:
                # Keep going so a multi-artifact run reports every failure.
                print(f"[repro-campaign] {label}: FAILED — {error}", file=sys.stderr, flush=True)
                exit_code = 1
                continue
            elapsed = time.perf_counter() - start
            if isinstance(result, ShardRunReport):
                # A shard run has no merged payload to store or save — its
                # deliverable is the shard journal.
                print(f"[repro-campaign] {label}: {result.render()}", flush=True)
                print(f"[repro-campaign] {label}: done in {elapsed:.1f}s", flush=True)
                continue
            runner.results[experiment_id] = result
            print(f"[repro-campaign] {label}: done in {elapsed:.1f}s", flush=True)
            if args.output is not None:
                save_result(args.output, label, result)
        print(runner.report())
    return exit_code


# -------------------------------------------------------------- orchestrate
def _orchestrate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.epilog = _ORCHESTRATE_EPILOG
    parser.add_argument(
        "experiment",
        help="artifact identifier to orchestrate (must decompose into >1 cell, "
        "e.g. fig6a)",
    )
    _add_option(parser, "--shards", required=True)
    _add_options(
        parser,
        "--workers-per-shard",
        "--batch-cells",
        "--vectorize",
        "--max-retries",
        "--stall-timeout",
        "--poll-interval",
        "--scale",
        "--seed",
        "--cache-dir",
        "--output",
        "--journal-dir",
        "--inject-kill-shard",
        "--backend",
        "--dry-run",
    )


def _orchestrate(parser: argparse.ArgumentParser, args) -> int:
    """Drive a whole sharded campaign from one terminal.

    Launch each --shard k/n run as a subprocess (or on the --backend roster),
    tail the shard journals for live progress, retry failed or stalled shards
    with --resume, and merge the shard journals into the final payload.
    """
    from repro.runtime.backends import shard_forwarded_args
    from repro.runtime.orchestrator import OrchestratorError, ShardOrchestrator

    if args.inject_kill_shard is not None and not 1 <= args.inject_kill_shard <= args.shards:
        parser.error(
            f"--inject-kill-shard must name a shard in 1..{args.shards}, "
            f"got {args.inject_kill_shard}"
        )
    backends = _build_backends(parser, args.backends)
    journal_dir = _journal_dir(args)
    if journal_dir is None:
        parser.error(
            "orchestration needs the shared journal store "
            "(give --journal-dir or --output)"
        )
    gridworld_scale, drone_scale = preset_scales(args.scale, args.seed)
    runner = CampaignRunner(
        gridworld_scale=gridworld_scale,
        drone_scale=drone_scale,
        cache=PolicyCache(args.cache_dir) if args.cache_dir is not None else None,
        journal_dir=journal_dir,
        vectorize=args.vectorize,
    )
    orchestrator = ShardOrchestrator(
        args.experiment,
        args.shards,
        runner,
        backends=backends,
        shard_args=shard_forwarded_args(
            scale=args.scale,
            workers=args.workers_per_shard,
            batch_cells=args.batch_cells,
            vectorize=args.vectorize,
            seed=args.seed,
            cache_dir=args.cache_dir,
        ),
        max_retries=args.max_retries,
        stall_timeout=args.stall_timeout,
        poll_interval=args.poll_interval,
        inject_kill_shard=args.inject_kill_shard,
        on_event=lambda message: print(f"[orchestrate] {message}", flush=True),
    )
    if args.dry_run:
        # The dry run builds no plan (so trains no baselines) and touches no
        # disk: it previews the scheduler's assignment and prints the exact
        # argv each shard would launch.
        print(orchestrator.render_dry_run(), flush=True)
        return 0
    start = time.perf_counter()
    try:
        report = orchestrator.run()
    except KeyboardInterrupt:
        raise
    except OrchestratorError as error:
        print(f"[orchestrate] FAILED — {error}", file=sys.stderr, flush=True)
        if error.report is not None:
            print(error.report.render(), file=sys.stderr, flush=True)
        return 1
    except Exception as error:
        print(f"[orchestrate] FAILED — {error}", file=sys.stderr, flush=True)
        return 1
    elapsed = time.perf_counter() - start
    print(report.render(), flush=True)
    print(f"[orchestrate] {args.experiment}: done in {elapsed:.1f}s", flush=True)
    if args.output is not None and report.result is not None:
        save_result(args.output, args.experiment, report.result)
    return 0


# ------------------------------------------------------------ result store
def _ingest_arguments(parser: argparse.ArgumentParser) -> None:
    parser.epilog = "Schemas: docs/RESULTS.md."
    parser.add_argument(
        "journal_dirs",
        nargs="+",
        type=Path,
        metavar="JOURNAL_DIR",
        help="journal director(ies) to ingest",
    )
    _add_options(parser, "--store")


def _ingest(parser: argparse.ArgumentParser, args) -> int:
    """Compact journal directories into a schema-versioned sqlite store.

    Folds merged journals, shard journals and orchestrator reports in.
    Incremental and idempotent: unchanged files are skipped, so re-running
    over the same directory inserts zero rows.
    """
    from repro.runtime.store import ResultStore, StoreError

    store_path = args.store
    if store_path is None:
        store_path = args.journal_dirs[0] / "store.sqlite"
    try:
        with ResultStore(store_path) as store:
            for journal_dir in args.journal_dirs:
                report = store.ingest(journal_dir)
                print(f"[ingest] {journal_dir}: {report.render()}", flush=True)
    except StoreError as error:
        print(f"[ingest] FAILED — {error}", file=sys.stderr, flush=True)
        return 1
    print(f"[ingest] store: {store_path}", flush=True)
    return 0


def _query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.epilog = _QUERY_EPILOG
    parser.add_argument(
        "what",
        nargs="*",
        metavar="QUERY [LABEL]",
        help="canned query name plus its arguments (see below), or nothing "
        "with --sql",
    )
    _add_options(parser, "--store")
    _add_option(parser, "--journal-dir", help="shorthand for --store DIR/store.sqlite")
    parser.add_argument(
        "--by",
        default="ber",
        metavar="COORD",
        help="cell-key coordinate for 'slice' grouping (default: ber)",
    )
    parser.add_argument(
        "--fingerprint",
        default=None,
        metavar="PREFIX",
        help="pin 'cells'/'slice' to the campaign whose plan fingerprint "
        "starts with PREFIX (default: the newest campaign for the label)",
    )
    parser.add_argument(
        "--sql",
        default=None,
        metavar="SQL",
        help="raw SQL escape hatch, instead of a canned query",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json", "ndjson"),
        default="table",
        help="output format (default: table)",
    )


def _query(parser: argparse.ArgumentParser, args) -> int:
    """Query an ingested result store.

    Canned queries over campaigns, cells, slices, attempts and backend
    timings, or raw SQL with --sql.
    """
    from repro.runtime.store import ResultStore, StoreError, format_rows

    store_path = args.store
    if store_path is None and args.journal_dir is not None:
        store_path = args.journal_dir / "store.sqlite"
    if store_path is None:
        parser.error("give --store FILE or --journal-dir DIR")
    if not store_path.exists():
        parser.error(f"no store at {store_path} (run 'repro-campaign ingest' first)")
    if args.sql is not None and args.what:
        parser.error("--sql replaces the canned query; give one or the other")
    if args.sql is None and not args.what:
        parser.error(
            "give a canned query (campaigns, cells LABEL, slice LABEL, "
            "attempts [LABEL], timings [LABEL]) or --sql"
        )
    try:
        with ResultStore(store_path) as store:
            if args.sql is not None:
                columns, rows = store.sql(args.sql)
            else:
                columns, rows = _run_canned_query(parser, store, args)
            print(format_rows(columns, rows, args.format), flush=True)
    except StoreError as error:
        print(f"[query] FAILED — {error}", file=sys.stderr, flush=True)
        return 1
    return 0


def _run_canned_query(parser, store, args):
    """Dispatch ``args.what`` to the store's canned query methods."""
    name, rest = args.what[0], args.what[1:]
    if name == "campaigns":
        if rest:
            parser.error("'campaigns' takes no arguments")
        return store.query_campaigns()
    if name in ("cells", "slice"):
        if len(rest) != 1:
            parser.error(f"'{name}' needs exactly one LABEL argument")
        if name == "cells":
            return store.query_cells(rest[0], fingerprint=args.fingerprint)
        return store.query_slice(rest[0], coordinate=args.by, fingerprint=args.fingerprint)
    if name in ("attempts", "timings"):
        if len(rest) > 1:
            parser.error(f"'{name}' takes at most one LABEL argument")
        label = rest[0] if rest else None
        if name == "attempts":
            return store.query_attempts(label)
        return store.query_timings(label)
    parser.error(
        f"unknown query {name!r}; use campaigns, cells LABEL, slice LABEL, "
        "attempts [LABEL], timings [LABEL], or --sql"
    )


# --------------------------------------------------------- campaign service
def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.epilog = _SERVE_EPILOG
    _add_option(
        parser,
        "--journal-dir",
        required=True,
        help="shared journal store: per-campaign journals, merged payloads, "
        "and the service's own submission/state journal live here",
    )
    _add_options(parser, "--socket", "--backend")
    parser.add_argument(
        "--quota",
        action="append",
        dest="quotas",
        default=None,
        metavar="TENANT=N",
        help="cap TENANT at N concurrently running shard attempts, repeatable",
    )
    parser.add_argument(
        "--default-quota",
        type=int,
        action=_AtLeast,
        floor=1,
        default=None,
        metavar="N",
        help="concurrency cap for tenants without an explicit --quota "
        "(default: unbounded)",
    )
    _add_option(
        parser,
        "--scale",
        help="workload scale for submissions that do not name one (default: fast)",
    )
    _add_options(parser, "--cache-dir", "--max-retries", "--stall-timeout", "--poll-interval")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="re-adopt campaigns that were submitted but unfinished when the "
        "previous daemon stopped; their orchestrators resume from the shard "
        "journals, recomputing no completed cell",
    )
    _add_option(parser, "--inject-kill-shard", action=_AtLeast, floor=1)
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="after each merge, ingest the campaign's journals into "
        "<journal-dir>/store.sqlite (the queryable result store)",
    )
    _add_options(parser, "--dry-run")


def _parse_quotas(parser: argparse.ArgumentParser, texts) -> dict:
    """Parse repeated ``--quota TENANT=N`` options."""
    quotas = {}
    for text in texts or []:
        tenant, separator, value = str(text).partition("=")
        if not separator or not tenant.strip() or not value.strip():
            parser.error(f"--quota must be TENANT=N, got {text!r}")
        try:
            quotas[tenant.strip()] = int(value)
        except ValueError:
            parser.error(f"--quota {text!r}: N must be an integer")
    return quotas


def _serve(parser: argparse.ArgumentParser, args) -> int:
    """Run the resident campaign service.

    Accept campaign submissions over a Unix socket, multiplex them over one
    shared backend roster through a priority queue with per-tenant quotas,
    stream live progress, and survive restarts via the journal store.
    """
    import asyncio

    from repro.runtime.service import CampaignService, ServiceError
    from repro.runtime.service_api import ServiceAPI

    quotas = _parse_quotas(parser, args.quotas)
    if any(quota < 1 for quota in quotas.values()):
        parser.error("--quota caps must be >= 1")
    backends = _build_backends(parser, args.backends)
    socket_path = args.socket if args.socket is not None else args.journal_dir / "service.sock"
    try:
        service = CampaignService(
            args.journal_dir,
            backends=backends,
            quotas=quotas,
            default_quota=args.default_quota,
            scale=args.scale,
            cache_dir=args.cache_dir,
            max_retries=args.max_retries,
            stall_timeout=args.stall_timeout,
            poll_interval=args.poll_interval,
            resume=args.resume,
            inject_kill_shard=args.inject_kill_shard,
            ingest_on_completion=args.ingest,
            on_event=lambda message: print(f"[serve] {message}", flush=True),
        )
    except ServiceError as error:
        parser.error(str(error))
    if args.dry_run:
        print(f"campaign service (dry run)\nsocket: {socket_path}", flush=True)
        print(service.render_dry_run(), flush=True)
        return 0

    async def _serve_forever() -> int:
        await service.start()
        api = ServiceAPI(service, socket_path)
        await api.start()
        print(f"[serve] listening on {socket_path}", flush=True)
        try:
            await api.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await api.close()
            await service.close()
        return 0

    try:
        return asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("[serve] stopped", flush=True)
        return 0


def _client_socket_arguments(parser: argparse.ArgumentParser) -> None:
    """The two ways every client command can name the daemon's socket."""
    _add_options(parser, "--socket")
    _add_option(parser, "--journal-dir", help="shorthand for --socket DIR/service.sock")


def _target_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("target", help="campaign label or id")
    _client_socket_arguments(parser)


def _client_command(call):
    """A subcommand handler running ``call(client, args)`` against the daemon."""

    @functools.wraps(call)
    def handler(parser: argparse.ArgumentParser, args) -> int:
        from repro.runtime.service_api import ServiceClient, ServiceClientError

        if args.socket is not None:
            socket_path = args.socket
        elif args.journal_dir is not None:
            socket_path = args.journal_dir / "service.sock"
        else:
            parser.error("give --socket PATH or --journal-dir DIR")
        try:
            return call(ServiceClient(socket_path), args)
        except (ServiceClientError, OSError) as error:
            print(f"[{parser.prog.split()[-1]}] FAILED — {error}", file=sys.stderr, flush=True)
            return 1

    return handler


def _submit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="artifact identifier to run (e.g. fig6a)")
    _client_socket_arguments(parser)
    parser.add_argument(
        "--label",
        default=None,
        help="campaign label, also its journal subdirectory name "
        "(default: the artifact id); a label already in flight is refused",
    )
    parser.add_argument("--tenant", default="default", help="tenant the quota applies to")
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="dispatch priority (higher dispatches first; default: 0)",
    )
    _add_option(
        parser, "--shards", default=2, help="number of --shard k/N runs (default: 2)"
    )
    _add_option(
        parser, "--scale", default=None, help="workload scale (default: the daemon's --scale)"
    )
    _add_options(parser, "--seed", "--workers-per-shard", "--batch-cells", "--vectorize")


@_client_command
def _submit(client, args) -> int:
    """Submit one campaign to a running campaign service.

    Returns immediately with the campaign id; follow progress with
    'repro-campaign tail LABEL'.
    """
    payload = {
        "experiment_id": args.experiment,
        "label": args.label or args.experiment,
        "tenant": args.tenant,
        "priority": args.priority,
        "shards": args.shards,
        "scale": args.scale,
        "seed": args.seed,
        "workers_per_shard": args.workers_per_shard,
        "batch_cells": args.batch_cells,
        "vectorize": args.vectorize,
    }
    status = client.submit(payload)
    print(
        f"[submit] {status['id']} {status['label']}: {status['state']} "
        f"(tenant {status['tenant']}, priority {status['priority']})",
        flush=True,
    )
    return 0


def _status_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "target", nargs="?", default=None, help="campaign label or id (optional)"
    )
    _client_socket_arguments(parser)


@_client_command
def _status(client, args) -> int:
    """Show a running campaign service's campaigns.

    With no argument, one line per campaign; with a label or id, that
    campaign's full status as JSON.
    """
    import json

    if args.target is not None:
        print(json.dumps(client.status(args.target), indent=2, sort_keys=True), flush=True)
        return 0
    campaigns = client.campaigns()
    if not campaigns:
        print("[status] no campaigns", flush=True)
    for status in campaigns:
        cells = sum((status.get("shards") or {}).values())
        print(
            f"{status['id']}  {status['label']:20s} {status['state']:10s} "
            f"tenant={status['tenant']} priority={status['priority']} "
            f"cells={cells}",
            flush=True,
        )
    return 0


@_client_command
def _tail(client, args) -> int:
    """Stream one campaign's live per-shard progress as NDJSON.

    Follows the campaign until it reaches a terminal state; the exit code is
    0 iff the campaign merged.
    """
    import json

    final_state = None
    for event in client.tail(args.target):
        print(json.dumps(event, sort_keys=True), flush=True)
        if event.get("event") == "state":
            final_state = event.get("state")
    return 0 if final_state == "merged" else 1


@_client_command
def _cancel(client, args) -> int:
    """Cancel an in-flight campaign.

    The daemon group-kills its running shard attempts and journals the
    cancellation; the shard journals keep every completed cell for a later
    resume.
    """
    status = client.cancel(args.target)
    shards = status.get("shards") or {}
    print(
        f"[cancel] {status['id']} {status['label']}: {status['state']} — "
        f"{sum(shards.values())} journaled cell(s) kept for a future resume",
        flush=True,
    )
    return 0


#: Every subcommand: ``name -> (argument builder, handler)``.  The handler's
#: docstring is the subcommand's ``--help`` description.  Any other first
#: argument is the bare ``repro-campaign EXP ...`` run form.
SUBCOMMANDS = {
    "orchestrate": (_orchestrate_arguments, _orchestrate),
    "ingest": (_ingest_arguments, _ingest),
    "query": (_query_arguments, _query),
    "serve": (_serve_arguments, _serve),
    "submit": (_submit_arguments, _submit),
    "status": (_status_arguments, _status),
    "tail": (_target_arguments, _tail),
    "cancel": (_target_arguments, _cancel),
}


def build_parser(subcommand: Optional[str] = None) -> argparse.ArgumentParser:
    """The argparse parser of ``subcommand``, or of the bare run form for ``None``."""
    add_arguments, handler = SUBCOMMANDS[subcommand] if subcommand else (_run_arguments, _run)
    parser = argparse.ArgumentParser(
        prog=f"repro-campaign {subcommand}" if subcommand else "repro-campaign",
        description=inspect.cleandoc(handler.__doc__),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_arguments(parser)
    parser.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the ``repro-campaign`` CLI; returns the process exit code."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    # Journal-invalidation warnings (stale fingerprints, shard mismatches)
    # come through the logging module; make them visible on stderr.
    logging.basicConfig(
        level=logging.WARNING, format="[repro-campaign] %(levelname)s: %(message)s"
    )
    subcommand = arguments[0] if arguments and arguments[0] in SUBCOMMANDS else None
    parser = build_parser(subcommand)
    args = parser.parse_args(arguments[1:] if subcommand else arguments)
    try:
        exit_code = args.handler(parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``repro-campaign query ... | head``).
        # Point stdout at devnull so the interpreter's exit-time flush cannot
        # raise again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
