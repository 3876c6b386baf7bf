"""Work the benchmark runs in a fresh interpreter, so the measuring process stays clean.

Usage::

    python child.py setup <cache-dir> <artifacts,...> <seed> [<seed>...]
    python child.py reference <cache-dir> <workload> <work-dir> <first> <seed> [<seed>...]

``setup`` times one campaign set-up as a CLI invocation pays it: import
``repro.runtime.cli`` and build every artifact's plan for each seed against
the policy cache in ``<cache-dir>``.  Warm, that is the set-up a
``repro-campaign`` run pays before its first cell; empty, it also trains the
baselines.  Prints ``{"import_s", "build_s", "build_normalised_s"}``: the
import's seconds, the builds' seconds, and the builds' seconds normalised
between calibration slices (see ``run.py``), one per artifact.

``reference`` runs the replicates from index ``<first>`` on of ``<workload>``
on the reference path (``--workers 1 --vectorize off``, no journal) and prints
``{"digests": {label: sha256}}`` of their ``--output`` JSON payloads.
"""

import contextlib
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def setup(cache_dir: str, artifacts: str, *seeds: str) -> dict:
    """Seconds to import the CLI, then to build every plan of every seed."""
    start = time.perf_counter()
    import repro.runtime.cli  # noqa: F401  (the import is part of what is timed)
    from repro.core.pretrained import PolicyCache
    from repro.runtime.plans import CampaignContext, build_plan
    from workloads import scales_for

    cache = PolicyCache(cache_dir)
    contexts = [CampaignContext.create(*scales_for(int(seed)), cache) for seed in seeds]
    imported = time.perf_counter() - start
    # Imported only now: it would take numpy's import out of the timed one.
    from run import calibration_slice, normalise

    build = normalised = 0.0
    calibration = calibration_slice()
    for artifact in artifacts.split(","):
        start = time.perf_counter()
        for context in contexts:
            build_plan(artifact, context)
        seconds = time.perf_counter() - start
        after = calibration_slice()
        build += seconds
        normalised += normalise(seconds, calibration, after)
        calibration = after
    return {"import_s": imported, "build_s": build, "build_normalised_s": normalised}


def reference(cache_dir: str, workload: str, work: str, first: str, *seeds: str) -> dict:
    """Reference-path payload digests of the replicates from ``first`` on."""
    from run import Campaign
    from workloads import WORKLOADS

    campaign = Campaign(WORKLOADS[workload], [int(seed) for seed in seeds], Path(cache_dir), Path(work))
    return {"digests": campaign.reference_digests(int(first))}


def main(argv) -> int:
    command, *arguments = argv
    # Keep stdout for the one JSON line: the program may print progress.
    with contextlib.redirect_stdout(sys.stderr):
        result = {"setup": setup, "reference": reference}[command](*arguments)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
