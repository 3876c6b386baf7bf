"""Per-figure experiments: one campaign-plan builder per paper figure/table.

Each ``*_plan`` builder decomposes an artifact into independent cells; run
the plan in-process with :meth:`~repro.runtime.cells.CampaignPlan.run_serial`
or on a pool with :class:`repro.runtime.CampaignRunner`.
:func:`repro.runtime.plans.build_plan` maps each paper identifier to its
builder at the canonical parameters.
"""

from repro.core.experiments.gridworld_training import (
    convergence_after_fault,
    gridworld_training_plan,
    policy_std_plan,
    weight_distribution,
    weight_distribution_plan,
)
from repro.core.experiments.gridworld_inference import (
    evaluate_gridworld_policy,
    gridworld_inference_plan,
)
from repro.core.experiments.drone_training import (
    communication_interval_plan,
    drone_count_plan,
    drone_training_plan,
)
from repro.core.experiments.drone_inference import datatype_study_plan, evaluate_drone_policy
from repro.core.experiments.mitigation_experiments import (
    inference_mitigation_plan,
    training_mitigation_plan,
)
from repro.core.experiments.overhead import overhead_comparison

__all__ = [
    "gridworld_training_plan",
    "convergence_after_fault",
    "policy_std_plan",
    "weight_distribution",
    "weight_distribution_plan",
    "gridworld_inference_plan",
    "evaluate_gridworld_policy",
    "drone_training_plan",
    "drone_count_plan",
    "communication_interval_plan",
    "datatype_study_plan",
    "evaluate_drone_policy",
    "training_mitigation_plan",
    "inference_mitigation_plan",
    "overhead_comparison",
]
