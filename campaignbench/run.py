"""FRL-FI campaign benchmark: one command, three workloads, payload-gated.

Usage (from the repository root)::

    python3 campaignbench/run.py --workload drone-lockstep --seed 3 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics (see ``workloads.py`` for why
each workload exists and which layer metric should move which end-to-end
metric).  A readable report, with the environment stamp, goes to stderr and
to ``campaignbench/.work/results/``; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every run first computes a reference payload digest on the reference path
(``--workers 1 --vectorize off``, no journal): the sha256 of the JSON files
``repro-campaign --output`` would write.  Every timed pass and the traced pass
must reproduce it byte for byte; on a mismatch the run exits non-zero and
prints no numbers.  A failed cell aborts its artifact and the run the same
way, so a run that prints numbers reports ``failed`` 0 of ``attempted``
cells (the cell error rate, also shown in the report).  Set-up timings and
reference payloads are computed in child interpreters, so the process that
runs the timed passes does the same work before them on every run.

Host-speed normalisation.  On a shared host the CPU's speed drifts: a fixed
slice of work runs up to 1.8x slower for seconds to minutes at a time, while
no CPU time is stolen, so CPU time drifts with it.  No number of passes
averages that out of a run.  Every timing of ``--trace 0`` is therefore taken
between two runs of a calibration that shares no code with the program, and
scaled by the calibration's nominal seconds over the mean of the two, so it
reads as seconds on the host running at the calibration's nominal speed:

* computation (cells, plan builds) between runs of ``calibration_slice``, a
  fixed piece of interpreter and small-array numpy work in the same process,
  nominally ``CALIBRATION_NOMINAL_S``;
* the import of ``repro.runtime.cli`` in a fresh interpreter between fresh
  interpreters importing numpy (``import_calibration``), nominally
  ``IMPORT_NOMINAL_S``.  An import reads files and maps libraries, and its
  speed follows the host's differently from computation's.

A change to the program moves these numbers as it moves wall time; a change
of host speed mostly does not.  The raw timings are in the readable report.

End-to-end metrics (``--trace 0``).  A run starts passes until ``--seconds``
have passed, and runs at least ``MIN_PASSES``.  Each plan (one artifact of
one replicate) of a pass is timed on its own, in segments between
calibration slices (see ``PlanClock``):

* ``campaign_wall_s`` / ``campaign_cpu_s`` — one pass over every replicate and
  artifact: the sum over plans of each plan's median normalised time over the
  passes.  CPU is self plus children, so pool workers and BLAS threads count.
* ``cells_per_s`` — cells of one pass per ``campaign_wall_s`` second.
* ``setup_s`` — a fresh interpreter importing ``repro.runtime.cli`` and building
  every plan on the warm cache, import and builds normalised each by its own
  calibration; the median of ``SETUP_SAMPLES``.
* ``pretrain_s`` — a fresh interpreter importing the CLI and building the plans
  of the run's first replicate (the panel's first, where the workload has a
  panel) against an empty policy cache, so it includes training the baselines
  they need, normalised as ``setup_s`` is; the median of at least
  ``PRETRAIN_SAMPLES``, taken until they add up to ``PRETRAIN_SECONDS`` as
  measured.
* ``peak_rss_mb`` — the peak resident set of the benchmark process once it
  has built the plans and run the panel's replicates in the first pass (the
  whole first pass where a workload has no panel).  The seeded replicate is
  left out because its peak moves with the seed: 98–140 MB for single
  drone-lockstep replicates.  ``campaign-io``'s cells run in forked pool
  workers, whose memory is not in it.

``campaign-io`` also times the results round trip (resume-merge, ingest,
query).  It is reported in the readable report and, from the untraced pass of
the traced run, as the per-layer metric ``runtime.results_roundtrip_s``; it
is not an end-to-end metric because the other workloads have no round trip.
The BLAS thread setting is recorded, never overridden: the program's own
choice is part of what is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

from spans import PASS_SPANS, Tracer, install_pass_spans, install_setup_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORK = BENCH_DIR / ".work"

#: Fewest timed passes a run makes, however long they take.
MIN_PASSES = 1
#: Fresh-interpreter set-ups timed per run on the warm cache; ``setup_s`` is
#: their median.  An import-bound ~0.3 s timing needs several samples.
SETUP_SAMPLES = 3
#: Seconds ``calibration_slice`` and ``import_calibration`` take at the host
#: speed that normalised timings refer to: about their medians on a 2-vCPU
#: Xeon cloud host.
CALIBRATION_NOMINAL_S = 0.03
#: Seconds of cells after which a calibrated plan's timing segment ends.
SEGMENT_S = 0.25
IMPORT_NOMINAL_S = 0.08
IMPORT_PROBE = "import time; start = time.perf_counter(); import numpy; print(time.perf_counter() - start)"
#: ``pretrain_s`` is the median of at least this many empty-cache set-ups,
#: taken until they add up to ``PRETRAIN_SECONDS``: a drone set-up trains
#: baselines for 1-2 s, a GridWorld one is import-bound (~0.3 s).
PRETRAIN_SAMPLES = 5
PRETRAIN_SECONDS = 2.0

END_TO_END_UNITS = {
    "campaign_wall_s": "s",
    "campaign_cpu_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "pretrain_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for span in PASS_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(
        {
            "runtime.plans.build_plan.calls": "count",
            "runtime.plans.build_plan.self_s": "s",
            "core.pretrained.hits": "count",
            "core.pretrained.misses": "count",
            "core.pretrained.train_s": "s",
            "runtime.runner.pool_wait_s": "s",
            "runtime.runner.batches": "count",
            "runtime.vectorize.lane_share": "ratio",
            "runtime.vectorize.lanes_per_group": "count",
            "runtime.journal.bytes": "bytes",
            "runtime.store.ingest.rows": "count",
            "runtime.results_roundtrip_s": "s",
            "faults.injected_bits": "count",
            "mitigation.anomaly.repaired": "count",
            "other.self_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


class BenchmarkFailure(RuntimeError):
    """A benchmark check on the program failed: payload, store rows or set-up."""


# ------------------------------------------------------------------ campaign
def calibration_slice() -> float:
    """Wall seconds of a fixed slice of interpreter and small-array numpy work.

    It shares no code with the program and calls no BLAS routine, so neither
    a change to the program nor its BLAS thread setting moves it: only the
    host's speed does.
    """
    start = time.perf_counter()
    total = 0
    for number in range(250_000):
        total += number * number % 7
    values = numpy.linspace(-1.0, 1.0, 256)
    for _ in range(1_200):
        values = numpy.tanh(values * 0.5 + 0.1)
    return time.perf_counter() - start


def import_calibration() -> float:
    """Seconds a fresh interpreter takes to import numpy, as it measures them."""
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=60, check=True
    )
    return float(completed.stdout)


def normalise(seconds: float, before: float, after: float, nominal: float = CALIBRATION_NOMINAL_S) -> float:
    """``seconds`` timed between calibrations that took ``before`` and ``after``
    seconds, as seconds at the host speed where they take ``nominal``."""
    return seconds * 2 * nominal / (before + after)


class PlanClock:
    """Times a pass's plans in segments, each plan's wall and CPU seconds.

    A segment ends with every plan.  With ``calibrate``, a calibration slice
    runs at the start and after every segment, and each segment's times are
    also kept normalised between the slices around it.  A plan of a
    GridWorld replicate is 4-8 s of cells, longer than the host keeps one
    speed, so where a plan runs without a journal the clock also ends a
    segment at the first cell delivered after ``SEGMENT_S``: it stands in for
    the journal ``CampaignRunner.run_plan`` accepts (``start``, ``record``,
    ``close``) and hands every output back unchanged, as the runner's
    unjournaled path keeps it.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.calibration = calibration_slice() if calibrate else 0.0
        self.label = ""
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.normalised_wall: Dict[str, float] = {}
        self.normalised_cpu: Dict[str, float] = {}

    def begin(self, label: str) -> None:
        """Start timing the plan ``label``."""
        self.label = label
        for times in (self.wall, self.cpu, self.normalised_wall, self.normalised_cpu):
            times[label] = 0.0
        self._mark()

    def _mark(self) -> None:
        self.wall_mark = time.perf_counter()
        self.cpu_mark = _cpu_seconds()

    def segment(self) -> None:
        """End the current segment of the current plan."""
        wall = time.perf_counter() - self.wall_mark
        cpu = _cpu_seconds() - self.cpu_mark
        self.wall[self.label] += wall
        self.cpu[self.label] += cpu
        if self.calibrate:
            after = calibration_slice()
            self.normalised_wall[self.label] += normalise(wall, self.calibration, after)
            self.normalised_cpu[self.label] += normalise(cpu, self.calibration, after)
            self.calibration = after
        self._mark()

    # The journal interface ``CampaignRunner.run_plan`` drives.
    def start(self, completed) -> None:
        """Nothing to open: no cell is on disk."""

    def record(self, index: int, output: object) -> object:
        """End a segment if it has lasted ``SEGMENT_S``; ``output`` unchanged."""
        if time.perf_counter() - self.wall_mark >= SEGMENT_S:
            self.segment()
        return output

    def close(self) -> None:
        """Nothing to close."""


@dataclass
class PassResult:
    """What one pass measured and produced.

    ``wall_s`` and ``cpu_s`` are as measured, summed over plans; the
    ``plan_*`` dicts hold each plan's normalised times when the pass was
    calibrated.
    """

    cells: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    digest: str = ""
    plan_wall_s: Dict[str, float] = field(default_factory=dict)
    plan_cpu_s: Dict[str, float] = field(default_factory=dict)
    roundtrip_s: Optional[float] = None
    journal_bytes: int = 0
    peak_rss_mb: float = 0.0


@dataclass
class Replicate:
    """One replicate's scales and its built plans, keyed by CLI-style label."""

    gridworld_scale: object
    drone_scale: object
    plans: Dict[str, object] = field(default_factory=dict)


def combine_digests(digests: Dict[str, str]) -> str:
    """One sha256 over per-label payload digests, independent of their order."""
    combined = hashlib.sha256()
    for label in sorted(digests):
        combined.update(f"{label} {digests[label]}\n".encode())
    return combined.hexdigest()


def tree_digest(directory: Path, pattern: str) -> str:
    """sha256 over the relative paths and bytes of ``directory``'s matching files."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)):
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """Identity of the program and benchmark code that produced a payload."""
    return hashlib.sha256(
        (tree_digest(SOURCE, "*.py") + tree_digest(BENCH_DIR, "[!.]*.py")).encode()
    ).hexdigest()[:32]


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Campaign:
    """A workload's plans on a warm cache, runnable as reference or timed passes."""

    def __init__(self, workload, seeds: List[int], cache_dir: Path, work: Path) -> None:
        from repro.core.pretrained import PolicyCache
        from repro.runtime import plans as plans_module
        from workloads import scales_for

        self.workload = workload
        self.seeds = seeds
        self.work = work
        self.cache = PolicyCache(cache_dir)
        self.replicates: List[Replicate] = []
        for index, seed in enumerate(seeds):
            gridworld_scale, drone_scale = scales_for(seed)
            replicate = Replicate(gridworld_scale, drone_scale)
            context = plans_module.CampaignContext.create(gridworld_scale, drone_scale, self.cache)
            for artifact in workload.artifacts:
                # Looked up at call time so a traced set-up sees its wrapper.
                plan = plans_module.build_plan(artifact, context)
                if workload.journaled and plan.cell_count <= 1:
                    raise BenchmarkFailure(f"{artifact} has a single-cell plan; it cannot be journaled")
                replicate.plans[f"{artifact}@r{index}"] = plan
            self.replicates.append(replicate)

    @property
    def cells(self) -> int:
        """Cells one pass executes."""
        return sum(plan.cell_count for rep in self.replicates for plan in rep.plans.values())

    def plans(self) -> list:
        """Every plan object of the campaign."""
        return [plan for rep in self.replicates for plan in rep.plans.values()]

    def _runner(self, replicate: Replicate, **options):
        from repro.runtime.runner import CampaignRunner

        return CampaignRunner(
            gridworld_scale=replicate.gridworld_scale,
            drone_scale=replicate.drone_scale,
            cache=self.cache,
            **options,
        )

    def digests(self, results: Dict[str, object]) -> Dict[str, str]:
        """sha256 of each JSON file ``repro-campaign --output`` writes, by label."""
        from repro.utils.serialization import save_json

        digests = {}
        for label, result in results.items():
            path = save_json(self.work / "payload" / f"{label}.json", result.as_dict())
            digests[label] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    def digest(self, results: Dict[str, object]) -> str:
        """One digest over every artifact payload of a pass."""
        return combine_digests(self.digests(results))

    def reference_digests(self, first: int = 0) -> Dict[str, str]:
        """Payload digests, by label, of the replicates from ``first`` on.

        They run on the reference path: one worker, no vectorize, no journal.
        """
        from repro.runtime.residency import clear_residency

        clear_residency()
        results = {}
        for replicate in self.replicates[first:]:
            runner = self._runner(replicate, workers=1, vectorize="off")
            results.update({label: runner.run_plan(plan) for label, plan in replicate.plans.items()})
        return self.digests(results)

    def run_pass(self, index: int, tracer=None, calibrate: bool = False) -> PassResult:
        """One pass, each plan timed on its own by a ``PlanClock``.

        With ``calibrate``, every plan's times are also kept normalised.
        With ``tracer``, the campaign part is the root span.
        """
        from repro.runtime.residency import clear_residency

        workload = self.workload
        journal_dir = self.work / "journals" / f"pass-{index}" if workload.journaled else None
        # Each pass starts like a fresh repro-campaign process: no policy is
        # resident yet, so pool workers and the serial path decode it again.
        clear_residency()
        results = {}
        outcome = PassResult(cells=self.cells)
        clock = PlanClock(calibrate)
        if tracer is not None:
            tracer.enter("campaign")
        for position, replicate in enumerate(self.replicates, start=1):
            runner = None
            for label, plan in replicate.plans.items():
                clock.begin(label)
                if runner is None:
                    runner = self._runner(
                        replicate, workers=workload.workers, journal_dir=journal_dir, vectorize="auto"
                    )
                journal = runner.journal_for(plan, name=label)
                if journal is None and calibrate:
                    journal = clock
                results[label] = runner.run_plan(plan, journal=journal)
                clock.segment()
            if position == (workload.panel_size or len(self.replicates)):
                outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.exit()
        outcome.wall_s = sum(clock.wall.values())
        outcome.cpu_s = sum(clock.cpu.values())
        if calibrate:
            outcome.plan_wall_s = clock.normalised_wall
            outcome.plan_cpu_s = clock.normalised_cpu
        outcome.digest = digest = self.digest(results)
        if journal_dir is not None:
            outcome.journal_bytes = sum(path.stat().st_size for path in journal_dir.glob("*.jsonl"))
            outcome.roundtrip_s = self._roundtrip(journal_dir, digest)
            shutil.rmtree(journal_dir)
        return outcome

    def _roundtrip(self, journal_dir: Path, digest: str) -> float:
        """Resume-merge from the journals, ingest them, query every campaign."""
        from repro.runtime.store import ResultStore

        store_path = journal_dir.parent / f"{journal_dir.name}.sqlite"
        start = time.perf_counter()
        resumed = {}
        for replicate in self.replicates:
            runner = self._runner(
                replicate,
                workers=self.workload.workers,
                journal_dir=journal_dir,
                resume=True,
                vectorize="auto",
            )
            for label, plan in replicate.plans.items():
                resumed[label] = runner.run_plan(plan, journal=runner.journal_for(plan, name=label))
        with ResultStore(store_path) as store:
            store.ingest(journal_dir)
            rows = {label: store.query_cells(label)[1] for label in resumed}
        seconds = time.perf_counter() - start
        store_path.unlink()
        if self.digest(resumed) != digest:
            raise BenchmarkFailure("the payload merged on --resume differs from the run's")
        for replicate in self.replicates:
            for label, plan in replicate.plans.items():
                if len(rows[label]) != plan.cell_count:
                    raise BenchmarkFailure(
                        f"store holds {len(rows[label])} cells of {label}, expected {plan.cell_count}"
                    )
        return seconds


# ------------------------------------------------------------------ set-up
def run_child(*arguments) -> dict:
    """Run ``child.py`` with ``arguments`` in a fresh interpreter; its JSON result."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *map(str, arguments)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if completed.returncode != 0:
        raise BenchmarkFailure(f"{arguments[0]} child failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def setup_child(cache_dir: Path, workload, seeds: List[int]) -> dict:
    """A fresh interpreter importing the CLI and building every plan; its timings."""
    return run_child("setup", cache_dir, ",".join(workload.artifacts), *seeds)


class SetupTimer:
    """Times set-up children, each between two import calibrations.

    Neighbouring children share the calibration between them.
    """

    def __init__(self) -> None:
        self.calibration = import_calibration()

    def __call__(self, cache_dir: Path, workload, seeds: List[int]) -> Tuple[float, float]:
        """One set-up's seconds, normalised and as measured."""
        timings = setup_child(cache_dir, workload, seeds)
        after = import_calibration()
        normalised = normalise(timings["import_s"], self.calibration, after, IMPORT_NOMINAL_S)
        self.calibration = after
        return (
            normalised + timings["build_normalised_s"],
            timings["import_s"] + timings["build_s"],
        )


def prepare_panel(workload, seeds: List[int], work: Path) -> Path:
    """The directory holding the panel's policy cache and reference digests.

    Both depend on the code alone, so they are made on a checkout's first
    run of the workload and kept under ``.work/panels``, keyed by the digest
    of the program and benchmark sources.  Child interpreters make them, so
    that first run's measuring process is in the same state as every other's.
    """
    panel = seeds[: workload.panel_size]
    directory = WORK / "panels" / f"{code_digest()}-{workload.name}-{len(panel)}"
    references = directory / "references.json"
    if not references.is_file():
        shutil.rmtree(directory, ignore_errors=True)
        digests = {}
        if panel:
            setup_child(directory / "cache", workload, panel)
            digests = run_child(
                "reference", directory / "cache", workload.name, work / "reference", 0, *panel
            )["digests"]
        directory.mkdir(parents=True, exist_ok=True)
        references.write_text(json.dumps(digests), encoding="utf8")
    return directory


def reference_digest(workload, seeds: List[int], cache_dir: Path, work: Path) -> str:
    """The run's payload digest on the reference path.

    The panel's digests are the cached ones; the seeded replicate's are
    computed in a child interpreter on every run.
    """
    directory = prepare_panel(workload, seeds, work)
    digests = json.loads((directory / "references.json").read_text(encoding="utf8"))
    digests.update(
        run_child(
            "reference", cache_dir, workload.name, work / "reference", workload.panel_size, *seeds
        )["digests"]
    )
    return combine_digests(digests)


# ------------------------------------------------------------------ runs
def check_digest(outcome: PassResult, reference: str, what: str) -> None:
    """Refuse a pass whose payload differs from the reference path's."""
    if outcome.digest != reference:
        raise BenchmarkFailure(
            f"{what}: payload digest {outcome.digest[:16]} differs from reference {reference[:16]}"
        )


def plan_median_sum(passes: List[PassResult], attribute: str) -> float:
    """Sum over plans of each plan's median, over ``passes``, of a normalised time."""
    labels = getattr(passes[0], attribute)
    return sum(statistics.median(getattr(p, attribute)[label] for p in passes) for label in labels)


def timed_run(workload, seeds: List[int], seconds: float, work: Path) -> dict:
    """End-to-end metrics: set-up timings, then passes for ``seconds``."""
    cache_dir = work / "cache"
    panel_cache = prepare_panel(workload, seeds, work) / "cache"
    if panel_cache.is_dir():
        shutil.copytree(panel_cache, cache_dir)
    time_setup = SetupTimer()
    pretrains: List[Tuple[float, float]] = []
    while len(pretrains) < PRETRAIN_SAMPLES or sum(raw for _, raw in pretrains) < PRETRAIN_SECONDS:
        pretrains.append(time_setup(work / f"cold-cache-{len(pretrains)}", workload, seeds[:1]))
    # Also trains the seeded replicate's baselines, so the cache is warm below.
    reference = reference_digest(workload, seeds, cache_dir, work)
    time_setup = SetupTimer()
    setups = [time_setup(cache_dir, workload, seeds) for _ in range(SETUP_SAMPLES)]
    campaign = Campaign(workload, seeds, cache_dir, work)
    passes: List[PassResult] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        outcome = campaign.run_pass(len(passes), calibrate=True)
        check_digest(outcome, reference, f"pass {len(passes)}")
        passes.append(outcome)
    wall = plan_median_sum(passes, "plan_wall_s")
    metrics = {
        "campaign_wall_s": wall,
        "campaign_cpu_s": plan_median_sum(passes, "plan_cpu_s"),
        "cells_per_s": campaign.cells / wall,
        "setup_s": statistics.median(normalised for normalised, _ in setups),
        "pretrain_s": statistics.median(normalised for normalised, _ in pretrains),
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
    # Reported beside the end-to-end metrics, as (value, unit): a correct run
    # has no failed cell, only campaign-io has a results round trip, and the
    # raw medians show what the normalisation did.
    extra = {
        "cell_error_rate": (0.0, "ratio"),
        "raw campaign_wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "raw campaign_cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "raw setup_s": (statistics.median(raw for _, raw in setups), "s"),
        "raw pretrain_s": (statistics.median(raw for _, raw in pretrains), "s"),
    }
    if workload.journaled:
        extra["results_roundtrip_s"] = (statistics.median(p.roundtrip_s for p in passes), "s")
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "extra": extra,
        "reference_digest": reference,
        "passes": [vars(p) for p in passes],
        "setup_samples": setups,
        "pretrain_samples": pretrains,
        "attempted": sum(p.cells for p in passes),
    }


def traced_run(workload, seeds: List[int], work: Path) -> dict:
    """Per-layer metrics from one traced pass, beside one untraced pass."""
    cache_dir = work / "cache"
    prepare_panel(workload, seeds, work)
    cold = Tracer()
    install_setup_spans(cold)
    try:
        Campaign(workload, seeds, cache_dir, work)
    finally:
        cold.restore()
    warm = Tracer()
    install_setup_spans(warm)
    try:
        campaign = Campaign(workload, seeds, cache_dir, work)
    finally:
        warm.restore()
    reference = reference_digest(workload, seeds, cache_dir, work)
    untraced = campaign.run_pass(0)
    check_digest(untraced, reference, "untraced pass")
    tracer = Tracer()
    install_pass_spans(tracer, campaign.plans())
    try:
        if workload.workers > 1:
            tracer.collect_into(work / "worker-spans")
        traced = campaign.run_pass(1, tracer=tracer)
    finally:
        tracer.restore()
    worker_files = tracer.collect_workers()
    check_digest(traced, reference, "traced pass")

    counters = tracer.counters
    lanes = counters.get("runtime.vectorize.lanes", 0)
    groups = counters.get("runtime.vectorize.groups", 0)
    serial = counters.get("runtime.cells.serial", 0)
    metrics = {}
    for span in PASS_SPANS:
        metrics[f"{span}.calls"] = tracer.calls(span)
        metrics[f"{span}.self_s"] = tracer.self_seconds(span)
    metrics.update(
        {
            "runtime.plans.build_plan.calls": warm.calls("runtime.plans.build_plan"),
            "runtime.plans.build_plan.self_s": warm.self_seconds("runtime.plans.build_plan"),
            "core.pretrained.hits": warm.counters.get("core.pretrained.ref_lookups", 0)
            + warm.counters.get("core.pretrained.load_hits", 0),
            "core.pretrained.misses": cold.counters.get("core.pretrained.misses", 0),
            "core.pretrained.train_s": cold.total_seconds("core.pretrained.load_or_train"),
            "runtime.runner.pool_wait_s": tracer.self_seconds("runtime.runner.pool"),
            "runtime.runner.batches": counters.get("runtime.runner.batches", 0),
            "runtime.vectorize.lane_share": lanes / (lanes + serial) if lanes + serial else 0.0,
            "runtime.vectorize.lanes_per_group": lanes / groups if groups else 0.0,
            "runtime.journal.bytes": traced.journal_bytes,
            "runtime.store.ingest.rows": counters.get("runtime.store.ingest.rows", 0),
            "runtime.results_roundtrip_s": untraced.roundtrip_s or 0.0,
            "faults.injected_bits": counters.get("faults.injected_bits", 0),
            "mitigation.anomaly.repaired": counters.get("mitigation.anomaly.repaired", 0),
            "other.self_s": tracer.self_seconds("campaign"),
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        }
    )
    notes = [
        f"tracing overhead: traced campaign_wall_s {traced.wall_s:.4f} s - untraced "
        f"{untraced.wall_s:.4f} s = {traced.wall_s - untraced.wall_s:+.4f} s",
    ]
    if workload.workers > 1:
        notes.append(
            f"pool-worker spans collected from {worker_files} forked worker(s) and added to "
            "the parent's; per-layer seconds may exceed wall time"
            if worker_files
            else "no pool-worker spans were collected (workers not forked): compute-layer "
            "spans of this workload are missing"
        )
    return {
        "metrics": metrics,
        "units": per_layer_units(),
        "notes": notes,
        "reference_digest": reference,
        "passes": [vars(untraced), vars(traced)],
        "attempted": untraced.cells + traced.cells,
    }


# ------------------------------------------------------------------ environment
def _git_sha() -> Optional[str]:
    """The checkout's commit, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _blas_threads() -> Optional[int]:
    """OpenBLAS's thread count as numpy's own copy reports it, if findable."""
    import numpy

    libraries = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for library in libraries:
        handle = ctypes.CDLL(str(library))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    """The stamp every result carries: code, interpreter, numpy, BLAS, CPUs."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": tree_digest(SOURCE, "*.py"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "thread_env": {
                name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


# ------------------------------------------------------------------ report
def render_report(args, seeds, result, stamp) -> str:
    """The readable report: stamp, then every metric by name and unit."""
    lines = [
        f"[campaignbench] workload={args.workload} seed={args.seed} trace={args.trace} "
        f"replicate seeds={seeds}",
        f"[campaignbench] environment: {json.dumps(stamp, sort_keys=True)}",
        f"[campaignbench] reference payload sha256 {result['reference_digest']} "
        f"matched by every pass ({len(result['passes'])})",
    ]
    if args.trace:
        lines += [f"[campaignbench] {note}" for note in result["notes"]]
    else:
        lines.append(
            f"[campaignbench] pass timings are per-plan medians of {len(result['passes'])} "
            "pass(es), too few for a tail percentile; setup_s and pretrain_s are medians of "
            f"{len(result['setup_samples'])} and {len(result['pretrain_samples'])} fresh "
            "interpreters"
        )
        lines.append(
            "[campaignbench] times are normalised to host speed: seconds at the speed where "
            f"the calibration slice takes {CALIBRATION_NOMINAL_S} s and a fresh interpreter "
            f"imports numpy in {IMPORT_NOMINAL_S} s; raw medians follow them"
        )
    rows = {name: (value, result["units"][name]) for name, value in result["metrics"].items()}
    rows.update(result.get("extra", {}))
    for name, (value, unit) in rows.items():
        lines.append(f"  {name:<44} {value:>14.6f} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run one workload and print its JSON result line; non-zero on any failure."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "runtime" / "cli.py").is_file():
        print(f"campaignbench: no program source at {SOURCE}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from repro.runtime.runner import CampaignError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seeds = workload.replicate_seeds(args.seed)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # Keep stdout for the result line alone.
        with contextlib.redirect_stdout(sys.stderr):
            if args.trace:
                result = traced_run(workload, seeds, work)
            else:
                result = timed_run(workload, seeds, args.seconds, work)
            stamp = environment()
    except (BenchmarkFailure, CampaignError) as failure:
        print(f"campaignbench: FAILED — {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = render_report(args, seeds, result, stamp)
    print(report, file=sys.stderr)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "replicate_seeds": seeds, "environment": stamp, **result}
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str), encoding="utf8"
    )
    line = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
