"""Self-tests of the campaign benchmark.

Run from the repository root with ``python -m pytest campaignbench -q``
(about three minutes: the last tests run minimal passes of every workload).
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer, install_pass_spans, install_setup_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_child_coverage():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 6];  root > c [7, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 7, 9, 10))
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("a")
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    assert tracer.spans["root"] == [1, 10, 10 - (3 + 1 + 2)]
    assert tracer.spans["a"] == [2, 4, (3 - 1) + 1]
    assert tracer.spans["b"] == [1, 1, 1]
    assert tracer.spans["c"] == [1, 2, 2]
    # Self times partition the root's wall exactly.
    assert sum(entry[2] for entry in tracer.spans.values()) == 10


def test_recursive_spans_of_one_name_are_not_double_counted_as_self():
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4))
    tracer.enter("x")
    tracer.enter("x")
    tracer.exit()
    tracer.exit()
    assert tracer.spans["x"] == [2, 4 + 2, 4]


def test_normalise_scales_seconds_by_the_calibration():
    assert run.normalise(2.0, 0.02, 0.04, nominal=0.03) == pytest.approx(2.0)
    assert run.normalise(2.0, 0.06, 0.06, nominal=0.03) == pytest.approx(1.0)


def test_plan_clock_hands_outputs_back_and_ends_long_segments(monkeypatch):
    monkeypatch.setattr(run, "calibration_slice", lambda: run.CALIBRATION_NOMINAL_S)
    clock = run.PlanClock(calibrate=True)
    clock.begin("plan")
    output = object()
    assert clock.record(0, output) is output
    assert clock.wall["plan"] == 0.0
    clock.wall_mark -= run.SEGMENT_S  # as if a segment's worth of cells had run
    assert clock.record(1, output) is output
    assert clock.wall["plan"] >= run.SEGMENT_S
    clock.segment()
    assert clock.normalised_wall["plan"] == pytest.approx(clock.wall["plan"])


def _patch_targets():
    from repro.nn.layers import Linear
    from repro.quant.datatypes import DATATYPE_REGISTRY
    from repro.runtime import runner, vectorize
    from repro.utils import bitops
    from repro.faults import injector, models

    return {
        "Linear.forward": Linear.__dict__["forward"],
        "corrupt_lanes": injector.FaultInjector.__dict__["corrupt_lanes"],
        "injector.corrupt_lanes": injector.corrupt_lanes,
        "bitops.flip_bits": bitops.flip_bits,
        "models.flip_bits": models.flip_bits,
        "injector.random_bit_positions": injector.random_bit_positions,
        "runner._run_cell_batch": runner._run_cell_batch,
        "group runners": {fn: vectorize.group_runner_for(fn) for fn in vectorize.registered_functions()},
        "datatypes": {name: (dt.encode, dt.decode) for name, dt in DATATYPE_REGISTRY.items()},
    }


def test_wrappers_leave_no_trace_after_restore(tmp_path):
    import numpy as np
    from repro.nn.layers import Linear
    from repro.runtime import vectorize
    from repro.utils.bitops import flip_bits

    before = _patch_targets()
    assert vectorize.registered_functions(), "no group runner registered to exercise"
    tracer = Tracer()
    install_setup_spans(tracer)
    install_pass_spans(tracer, [])
    tracer.collect_into(tmp_path)
    assert _patch_targets() != before
    Linear(3, 2).forward(np.ones((1, 3)))
    assert tracer.calls("nn.linear.forward") == 1
    tracer.restore()
    assert _patch_targets() == before

    recorded = json.dumps([tracer.spans, tracer.counters], sort_keys=True)
    Linear(3, 2).forward(np.ones((1, 3)))
    flip_bits(np.zeros(4, dtype=np.uint8), np.array([1]), np.array([2]), 8)
    assert json.dumps([tracer.spans, tracer.counters], sort_keys=True) == recorded


def test_benchmark_json_matches_the_contract():
    assert SPEC["command"] == ["python3", "campaignbench/run.py"]
    assert SPEC["paths"] == ["campaignbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "campaignbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "campaignbench/run.py", "--workload", "campaign-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_payload_mismatch_exits_nonzero_without_numbers(monkeypatch):
    monkeypatch.setattr(run, "reference_digest", lambda *args: "0" * 64)
    monkeypatch.setitem(WORKLOADS, "campaign-io", dataclasses.replace(WORKLOADS["campaign-io"], panel_size=0))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", "campaign-io", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert stdout.getvalue() == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_minimal_pass_emits_every_metric_with_its_unit(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], panel_size=0)
    seeds = workload.replicate_seeds(5)

    timed = run.timed_run(workload, seeds, 0, tmp_path / "timed")
    assert {m: timed["units"][m] for m in timed["metrics"]} == run.END_TO_END_UNITS
    assert all(value > 0 for value in timed["metrics"].values())
    assert len(timed["passes"]) == run.MIN_PASSES
    assert all(set(p["plan_wall_s"]) == set(p["plan_cpu_s"]) for p in timed["passes"])

    traced = run.traced_run(workload, seeds, tmp_path / "traced")
    assert {m: traced["units"][m] for m in traced["metrics"]} == run.per_layer_units()
    assert traced["passes"][0]["digest"] == traced["passes"][1]["digest"] == traced["reference_digest"]
    assert traced["reference_digest"] == timed["reference_digest"]
    metrics = traced["metrics"]
    assert metrics["other.self_s"] >= 0
    if workload.workers > 1:
        assert metrics["runtime.residency.preload.calls"] > 0
        assert metrics["runtime.journal.record.calls"] == traced["passes"][1]["cells"]
        assert metrics["runtime.store.ingest.rows"] > 0
    else:
        assert metrics["runtime.runner.batches"] == 0
        assert metrics["runtime.journal.record.calls"] == 0
    if name == "drone-lockstep":
        assert metrics["runtime.vectorize.lane_share"] == 1.0
        assert metrics["nn.conv.im2col.calls"] > 0
    if name == "gridworld-train":
        assert metrics["runtime.vectorize.lane_share"] == 0.0
        assert metrics["nn.optim.step.calls"] > 0
