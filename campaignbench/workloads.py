"""The benchmark's workloads, and which layer metric should move which number.

Every workload runs paper artifacts at ``--scale tiny`` from one process
against a warm, benchmark-owned policy cache.  A pass runs each artifact once
per *replicate*.  A replicate is one pair of scales: the tiny presets with
their root seed replaced.  A run's replicates are a fixed panel plus one
replicate derived from ``--seed`` with the CLI's own ``--replicates``
derivation.  The per-cell work of these RL cells (episode lengths, crash
points, how fast a policy learns) depends on the seed: one replicate's pass
time ranges over about +-25% across seeds, and whether a drone replicate's
batches are large enough for OpenBLAS to use its threads, which moves its CPU
time by 1.5x.  The panel is common to every run, so runs with different seeds
compare like with like; the seeded replicate keeps every run's inputs
distinct.  The program only ever receives scales.

Panels are as large as the measuring budget allows, so that the seeded
replicate is a third of a ``gridworld-train`` pass (one GridWorld replicate
takes 7-19 s) and a seventh of a ``drone-lockstep`` one; a run may then hold
a single pass.  Host speed drifts by more than the seed moves a pass, which
``run.py`` takes out by normalising every timing to host speed.

Why each workload exists
------------------------
``gridworld-train``
    fig3a + fig7a, ``--workers 1 --vectorize auto``; 24 cells per replicate.
    No group runner is registered for these cells, so they take the serial
    path: ``nn`` (Linear, ``Adam.step``), ``rl`` (Q-learning, replay
    sampling), ``envs.gridworld``, agent-weight ``faults``, ``federated``
    rounds and ``mitigation.checkpointing``.  No conv, drone env, pool or
    journal.  Lockstep GridWorld training, flat-buffer Adam and replay ring
    arrays show here.
``drone-lockstep``
    fig5a + fig6a + fig6b, ``--workers 1 --vectorize auto``; 29 cells per
    replicate, every one with a registered group runner: ``runtime.vectorize``
    into ``federated.lockstep``/``rl.lockstep``, ``nn.batched.StackedPolicy``,
    ``nn.conv``, ``DroneNavVecEnv.step_batch``; faults reach the lanes through
    ``FaultInjector.corrupt_state_dict``.  A GridWorld-only change must leave
    it unmoved.
``campaign-io``
    fig4 + fig8a + fig3d, ``--workers 2`` journaled to disk, then a
    ``--resume`` pass that executes no cell and merges from the journals,
    then ``ResultStore.ingest`` of those journals and ``query_cells``.  Cells
    are cheap, so time goes to pool start, residency preload, pickling,
    journal append + fsync, journal load, merge and sqlite.  The only
    workload that uses the pool and where ``runtime`` writes and reads
    dominate.  Its cells run in forked pool workers, so its ``peak_rss_mb``
    is the parent's alone: the workers' memory is not in it.

Dropped: ``drone-serial-eval`` (datatypes + fig8b, the scalar drone inference
path: ``nn.conv.im2col`` outside the stacked policy, scalar
``DroneWorld.ray_depths``, ``quant`` across data types).  Four workloads did
not fit the measuring budget with runs long enough to be steady on a shared
host.  Every layer it measured is still measured on a kept workload:
``nn.conv.im2col`` and ``envs`` on ``drone-lockstep``, ``quant`` and
``mitigation.anomaly`` on ``campaign-io``; only the scalar drone env spans
``envs.dronenav.step`` and ``envs.dronenav.ray_depths`` now read 0.

Layer metric -> end-to-end metric -> workload
---------------------------------------------
Per-layer metrics come from the traced run (``--trace 1``) and are named
``<module>.<function>.<stat>``; each should move the end-to-end metric of
the workload given here, and stay near zero where noted.

=====================================================  ====================  ===========================
layer metrics                                          end-to-end metric     workload (near 0 on)
=====================================================  ====================  ===========================
nn.optim.step, nn.linear.forward/backward,             campaign_wall_s       gridworld-train
rl.replay.sample, envs.gridworld.step                                        (optim, replay 0 on
                                                                             campaign-io)
runtime.vectorize.lane_share, .lanes_per_group         campaign_wall_s       gridworld-train (share 0
                                                                             today); ~1 on drone-lockstep
nn.conv.im2col, nn.conv.forward/backward,              cells_per_s           drone-lockstep
nn.batched.forward, envs.dronenav.step_batch
faults.injector.corrupt_array/_state_dict,             campaign_wall_s       campaign-io,
faults.injected_bits, quant.encode/decode,                                   drone-lockstep
utils.bitops.flip_bits
federated.communication_round,                         campaign_wall_s       the workload running them
federated.aggregation.average_states,                                        (host time, not the paper's
mitigation.checkpoint.save/restore (a restore                                <2.7% hardware overhead)
is a recovery),
mitigation.anomaly.detect/repair/repaired
runtime.plans.build_plan, core.pretrained.hits/        setup_s, pretrain_s   all
misses/train_s
runtime.residency.preload, runtime.runner.pool_wait_s  campaign_wall_s,      campaign-io (0 on the
/.batches, runtime.journal.record/.bytes/load,         runtime.results_      other two)
runtime.cells.merge, runtime.store.ingest/.rows,       roundtrip_s
runtime.store.query
other.self_s                                           campaign_wall_s       all: wall no span covers
faults.injector.corrupt_lanes                          none                  0 on every workload: no
                                                                             campaign path calls it
envs.dronenav.ray_depths, envs.dronenav.step           none                  0 on every kept workload:
                                                                             scalar drone path, measured
                                                                             by drone-serial-eval (dropped)
=====================================================  ====================  ===========================

``analysis``, ``droneperf`` and ``lint`` are on no campaign's hot path and
are not measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Root of the fixed replicate panel shared by every run of every workload.
PANEL_ROOT_SEED = 20220314


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which artifacts, how they run, how many panel replicates.

    Why each exists is in this module's docstring and in ``BENCHMARK.json``.
    """

    name: str
    artifacts: Tuple[str, ...]
    workers: int
    journaled: bool
    panel_size: int

    def replicate_seeds(self, seed: int) -> List[int]:
        """The panel's seeds followed by the one derived from ``seed``."""
        from repro.runtime.cells import derive_cell_seeds

        panel = derive_cell_seeds(PANEL_ROOT_SEED, self.panel_size) if self.panel_size else []
        return panel + derive_cell_seeds(seed, 1)


def scales_for(seed: int):
    """The (GridWorld, Drone) tiny scales of one replicate."""
    from repro.core.config import DroneScale, GridWorldScale

    return GridWorldScale.tiny().with_seed(seed), DroneScale.tiny().with_seed(seed)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="gridworld-train",
            artifacts=("fig3a", "fig7a"),
            workers=1,
            journaled=False,
            panel_size=2,
        ),
        Workload(
            name="drone-lockstep",
            artifacts=("fig5a", "fig6a", "fig6b"),
            workers=1,
            journaled=False,
            panel_size=6,
        ),
        Workload(
            name="campaign-io",
            artifacts=("fig4", "fig8a", "fig3d"),
            workers=2,
            journaled=True,
            panel_size=3,
        ),
    )
}
