"""Wrapper spans around the public functions of each ``repro`` layer.

The benchmark's traced run installs a :class:`Tracer` for exactly one pass and
restores every original afterwards, so untraced passes run the program's own
code objects.  Spans are recorded from this directory's files, around the
calls into each layer; nothing inside ``src/`` knows about them.

A span's *self time* is its duration minus the part of it that its direct
child spans cover.  Calls are single-threaded within a process, so the
children of one span never overlap and their coverage is the sum of their
durations.  Spans are aggregated per name as they close (calls, total, self),
which keeps memory flat however many million times a hot layer is entered.

Pool workers of the ``campaign-io`` workload are forked from the traced
parent and inherit the installed wrappers.  Each worker resets the
aggregates it inherited at fork time and, after every batch of cells, writes
its running totals to ``worker_dir``; :meth:`Tracer.collect_workers` folds
those files into the parent's totals.  Worker self time therefore adds to
the parent's: per-layer seconds may sum to more than the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


#: Spans whose calls and self time are reported per layer (installed below).
PASS_SPANS = (
    "runtime.residency.preload",
    "runtime.residency.resolve",
    "runtime.journal.record",
    "runtime.journal.load",
    "runtime.cells.merge",
    "runtime.store.ingest",
    "runtime.store.query",
    "envs.gridworld.step",
    "envs.dronenav.step",
    "envs.dronenav.ray_depths",
    "envs.dronenav.step_batch",
    "nn.linear.forward",
    "nn.linear.backward",
    "nn.conv.im2col",
    "nn.conv.forward",
    "nn.conv.backward",
    "nn.batched.forward",
    "nn.optim.step",
    "rl.replay.sample",
    "rl.replay.sample_arrays",
    "faults.injector.corrupt_array",
    "faults.injector.corrupt_state_dict",
    "faults.injector.corrupt_lanes",
    "quant.encode",
    "quant.decode",
    "utils.bitops.flip_bits",
    "federated.communication_round",
    "federated.aggregation.average_states",
    "mitigation.checkpoint.save",
    "mitigation.checkpoint.restore",
    "mitigation.anomaly.detect",
    "mitigation.anomaly.repair",
)


class Tracer:
    """Per-name span aggregates and counters, plus the patches that feed them.

    ``clock`` is injectable so tests can drive spans with synthetic times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: span name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: counter name -> accumulated amount
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []
        self._restores: List[Callable[[], None]] = []
        self._active = False
        self._in_worker = False
        self._worker_dir: Optional[Path] = None
        self._worker_file: Optional[Path] = None
        self._fork_hook_registered = False

    # ----------------------------------------------------------------- spans
    def enter(self, name: str) -> None:
        """Open a span named ``name`` as a child of the innermost open span."""
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost open span and fold it into the aggregates."""
        name, start, child_seconds = self._stack.pop()
        duration = self.clock() - start
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_seconds
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        """How many spans named ``name`` closed."""
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans named ``name``."""
        return float(self.spans.get(name, (0, 0.0, 0.0))[2])

    def total_seconds(self, name: str) -> float:
        """Summed duration of the spans named ``name``."""
        return float(self.spans.get(name, (0, 0.0, 0.0))[1])

    def wrap(self, fn: Callable, name: Optional[str], hook: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` that records a span (unless ``name`` is None).

        ``hook(tracer, args, kwargs, result)`` runs after each call, inside
        the span, to record counts that only the arguments or result show.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is not None:
                self.enter(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                if name is not None:
                    self.exit()

        return wrapper

    # --------------------------------------------------------------- patching
    def patch_function(self, module_name: str, attribute: str, name, hook=None) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it by name.

        ``from module import fn`` copies the reference into the importing
        module, so every loaded ``repro`` module holding the same object is
        patched, not just the defining one.
        """
        original = getattr(importlib.import_module(module_name), attribute)
        wrapper = self.wrap(original, name, hook)
        for module_key, module in sorted(sys.modules.items()):
            if module is None or not module_key.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restores.append(functools.partial(setattr, module, key, original))

    def patch_method(self, cls: type, attribute: str, name, hook=None) -> None:
        """Wrap a method defined on ``cls`` (plain or static)."""
        raw = cls.__dict__[attribute]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, hook))
        else:
            replacement = self.wrap(raw, name, hook)
        setattr(cls, attribute, replacement)
        self._restores.append(functools.partial(setattr, cls, attribute, raw))

    def patch_instance(self, obj: object, attribute: str, name, hook=None) -> None:
        """Wrap a callable stored on one instance (frozen dataclasses too)."""
        original = getattr(obj, attribute)
        object.__setattr__(obj, attribute, self.wrap(original, name, hook))
        self._restores.append(functools.partial(object.__setattr__, obj, attribute, original))

    def patch_group_runners(self) -> None:
        """Count the cells each registered vectorized group runner evaluates."""
        from repro.runtime import vectorize

        def lanes(tracer, args, kwargs, result):
            tracer.count("runtime.vectorize.groups")
            tracer.count("runtime.vectorize.lanes", len(args[0]))

        for fn in vectorize.registered_functions():
            original = vectorize.group_runner_for(fn)
            vectorize.register_group_runner(fn, self.wrap(original, None, lanes))
            self._restores.append(
                functools.partial(vectorize.register_group_runner, fn, original)
            )

    def restore(self) -> None:
        """Undo every patch, newest first, and stop worker collection."""
        while self._restores:
            self._restores.pop()()
        self._active = False

    # ---------------------------------------------------------------- workers
    def collect_into(self, worker_dir: Path) -> None:
        """Make forked pool workers write their totals under ``worker_dir``.

        Patches ``repro.runtime.runner._run_cell_batch`` (the function every
        pool submission names) so a worker dumps its running totals after
        each batch, before the batch's result travels back to the parent.
        """
        self._worker_dir = Path(worker_dir)
        self._worker_dir.mkdir(parents=True, exist_ok=True)
        self._active = True
        if not self._fork_hook_registered:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook_registered = True

        def dump(tracer, args, kwargs, result):
            if tracer._in_worker:
                tracer._dump_worker()

        self.patch_function("repro.runtime.runner", "_run_cell_batch", None, dump)

    def _after_fork(self) -> None:
        if not self._active:
            return
        self.spans = {}
        self.counters = {}
        self._stack = []
        self._in_worker = True
        self._worker_file = self._worker_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"

    def _dump_worker(self) -> None:
        payload = {"spans": self.spans, "counters": self.counters}
        temporary = self._worker_file.with_suffix(".tmp")
        temporary.write_text(json.dumps(payload), encoding="utf8")
        os.replace(temporary, self._worker_file)

    def collect_workers(self) -> int:
        """Fold every worker's totals into this tracer; returns the file count."""
        if self._worker_dir is None:
            return 0
        files = sorted(self._worker_dir.glob("worker-*.json"))
        for path in files:
            payload = json.loads(path.read_text(encoding="utf8"))
            for name, (calls, total, own) in payload["spans"].items():
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, amount in payload["counters"].items():
                self.count(name, amount)
            path.unlink()
        return len(files)


# ------------------------------------------------------------------ hooks
def _count_result(counter: str, extract: Callable) -> Callable:
    def hook(tracer, args, kwargs, result):
        tracer.count(counter, extract(args, kwargs, result))

    return hook


def _injected_bits(args, kwargs, result):
    # random_bit_positions(rng, count, bit_width): one position per upset bit.
    return int(kwargs["count"] if "count" in kwargs else args[1])


def _cache_hit(args, kwargs, result):
    return 0 if result is None else 1


def install_pass_spans(tracer: Tracer, plans) -> None:
    """Wrap every per-layer boundary a campaign pass crosses.

    ``plans`` are the pass's :class:`~repro.runtime.cells.CampaignPlan`
    objects, whose per-plan ``merge`` callables are wrapped in place.
    """
    from repro.envs.dronenav import DroneNavEnv, DroneNavVecEnv, DroneWorld
    from repro.envs.gridworld import GridWorldEnv
    from repro.faults.injector import FaultInjector
    from repro.federated.system import FRLSystem
    from repro.mitigation.anomaly import RangeAnomalyDetector
    from repro.mitigation.checkpointing import CheckpointStore
    from repro.nn.batched import StackedPolicy
    from repro.nn.conv import Conv2d
    from repro.nn.layers import Linear
    from repro.nn.optim import SGD, Adam
    from repro.quant.datatypes import DATATYPE_REGISTRY
    from repro.rl.replay import ReplayBuffer
    from repro.runtime.cells import CellTask
    from repro.runtime.journal import CampaignJournal
    from repro.runtime.runner import CampaignRunner
    from repro.runtime.store import ResultStore

    # runtime
    tracer.patch_function("repro.runtime.residency", "preload_policy_refs", "runtime.residency.preload")
    tracer.patch_function("repro.runtime.residency", "resolve_policy_ref", "runtime.residency.resolve")
    # The pool boundary: its self time (pool start, submission, waiting for
    # workers, shutdown; not the journal writes it calls) is the pool wait.
    tracer.patch_method(
        CampaignRunner,
        "_map_batches",
        "runtime.runner.pool",
        _count_result("runtime.runner.batches", lambda args, kwargs, result: len(args[2])),
    )
    tracer.patch_method(
        CellTask, "run", None, _count_result("runtime.cells.serial", lambda *_: 1)
    )
    tracer.patch_group_runners()
    tracer.patch_method(CampaignJournal, "record", "runtime.journal.record")
    tracer.patch_method(CampaignJournal, "load", "runtime.journal.load")
    for plan in plans:
        tracer.patch_instance(plan, "merge", "runtime.cells.merge")
    tracer.patch_method(
        ResultStore,
        "ingest",
        "runtime.store.ingest",
        _count_result("runtime.store.ingest.rows", lambda args, kwargs, result: result.rows_added),
    )
    tracer.patch_method(ResultStore, "query_cells", "runtime.store.query")
    # envs
    tracer.patch_method(GridWorldEnv, "step", "envs.gridworld.step")
    tracer.patch_method(DroneNavEnv, "step", "envs.dronenav.step")
    tracer.patch_method(DroneWorld, "ray_depths", "envs.dronenav.ray_depths")
    tracer.patch_method(DroneNavVecEnv, "step_batch", "envs.dronenav.step_batch")
    # nn
    tracer.patch_method(Linear, "forward", "nn.linear.forward")
    tracer.patch_method(Linear, "backward", "nn.linear.backward")
    tracer.patch_function("repro.nn.conv", "im2col", "nn.conv.im2col")
    tracer.patch_method(Conv2d, "forward", "nn.conv.forward")
    tracer.patch_method(Conv2d, "backward", "nn.conv.backward")
    tracer.patch_method(StackedPolicy, "forward", "nn.batched.forward")
    tracer.patch_method(Adam, "step", "nn.optim.step")
    tracer.patch_method(SGD, "step", "nn.optim.step")
    # rl
    tracer.patch_method(ReplayBuffer, "sample", "rl.replay.sample")
    tracer.patch_method(ReplayBuffer, "sample_arrays", "rl.replay.sample_arrays")
    # faults, quant, utils
    tracer.patch_method(FaultInjector, "corrupt_array", "faults.injector.corrupt_array")
    tracer.patch_method(FaultInjector, "corrupt_state_dict", "faults.injector.corrupt_state_dict")
    tracer.patch_method(FaultInjector, "corrupt_lanes", "faults.injector.corrupt_lanes")
    # ``injector.corrupt_lanes`` is also a module-level alias of the function.
    tracer.patch_function("repro.faults.injector", "corrupt_lanes", "faults.injector.corrupt_lanes")
    tracer.patch_function(
        "repro.utils.bitops",
        "random_bit_positions",
        None,
        _count_result("faults.injected_bits", _injected_bits),
    )
    for datatype in {id(dt): dt for dt in DATATYPE_REGISTRY.values()}.values():
        tracer.patch_instance(datatype, "encode", "quant.encode")
        tracer.patch_instance(datatype, "decode", "quant.decode")
    tracer.patch_function("repro.utils.bitops", "flip_bits", "utils.bitops.flip_bits")
    # federated
    tracer.patch_method(FRLSystem, "communication_round", "federated.communication_round")
    tracer.patch_function(
        "repro.federated.aggregation", "average_states", "federated.aggregation.average_states"
    )
    # mitigation
    tracer.patch_method(CheckpointStore, "save", "mitigation.checkpoint.save")
    tracer.patch_method(CheckpointStore, "restore", "mitigation.checkpoint.restore")
    tracer.patch_method(RangeAnomalyDetector, "detect", "mitigation.anomaly.detect")
    tracer.patch_method(
        RangeAnomalyDetector,
        "repair",
        "mitigation.anomaly.repair",
        _count_result("mitigation.anomaly.repaired", lambda args, kwargs, result: result[1]),
    )


def install_setup_spans(tracer: Tracer) -> None:
    """Wrap plan building and the policy cache (the set-up layers)."""
    from repro.core.pretrained import PolicyCache

    tracer.patch_function("repro.runtime.plans", "build_plan", "runtime.plans.build_plan")
    tracer.patch_method(
        PolicyCache, "load", None, _count_result("core.pretrained.load_hits", _cache_hit)
    )
    tracer.patch_method(
        PolicyCache, "store", None, _count_result("core.pretrained.misses", lambda *_: 1)
    )
    for attribute in ("gridworld_consensus_ref", "gridworld_single_policy_ref", "drone_policy_ref"):
        tracer.patch_method(
            PolicyCache, attribute, None, _count_result("core.pretrained.ref_lookups", lambda *_: 1)
        )
    for attribute in ("gridworld_policies", "gridworld_single_policy", "drone_policy"):
        tracer.patch_method(PolicyCache, attribute, "core.pretrained.load_or_train")
