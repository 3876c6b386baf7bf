"""Programmatic checks of the paper's qualitative observations.

The paper's claims are about *shapes*: higher BER hurts more, later faults
hurt more, server faults hurt more than agent faults, multi-agent beats
single-agent, mitigation recovers the baseline.  These helpers turn those
claims into boolean checks over the experiment results so the benchmarks
can state which observations the reproduction confirms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import HeatmapResult, SweepResult


@dataclass(frozen=True)
class ObservationCheck:
    """Outcome of one qualitative check."""

    name: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        status = "CONFIRMED" if self.holds else "NOT CONFIRMED"
        return f"[{status}] {self.name}: {self.detail}"


def check_heatmap_trend(
    result: HeatmapResult,
    name: str = "higher BER degrades the metric",
    tolerance: float = 0.05,
) -> ObservationCheck:
    """Check that the last (highest-BER) row is no better than the first row.

    ``tolerance`` is the fraction of the first-row mean by which the last row
    may exceed it before the check fails (noise allowance).
    """
    first_row = result.values[0]
    last_row = result.values[-1]
    first_mean = float(np.mean(first_row))
    last_mean = float(np.mean(last_row))
    holds = last_mean <= first_mean * (1.0 + tolerance)
    detail = f"baseline row mean {first_mean:.2f}, highest-BER row mean {last_mean:.2f}"
    return ObservationCheck(name=name, holds=holds, detail=detail)


def check_series_order(
    result: SweepResult,
    better: str,
    worse: str,
    name: str = "",
    at: str = "mean",
) -> ObservationCheck:
    """Check that series ``better`` dominates series ``worse``.

    ``at`` chooses the comparison point: ``"mean"`` compares the averages over
    the sweep, ``"last"`` compares the final (highest-stress) point.
    """
    better_values = np.asarray(result.series[better], dtype=np.float64)
    worse_values = np.asarray(result.series[worse], dtype=np.float64)
    if at == "mean":
        better_point, worse_point = float(better_values.mean()), float(worse_values.mean())
    elif at == "last":
        better_point, worse_point = float(better_values[-1]), float(worse_values[-1])
    else:
        raise ValueError(f"at must be 'mean' or 'last', got {at!r}")
    holds = better_point >= worse_point
    label = name or f"{better} outperforms {worse}"
    detail = f"{better}={better_point:.2f} vs {worse}={worse_point:.2f} ({at})"
    return ObservationCheck(name=label, holds=holds, detail=detail)


def check_improvement(
    result: SweepResult,
    baseline: str = "no_mitigation",
    improved: str = "mitigation",
    minimum_factor: float = 1.0,
    name: str = "mitigation improves resilience",
) -> ObservationCheck:
    """Check that the mitigation series improves on the baseline series."""
    factor = result.metadata.get("max_improvement_factor")
    if factor is None:
        baseline_values = np.asarray(result.series[baseline], dtype=np.float64)
        improved_values = np.asarray(result.series[improved], dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(baseline_values > 0, improved_values / baseline_values, 1.0)
        factor = float(np.max(ratios))
    holds = factor >= minimum_factor
    detail = f"max improvement factor {factor:.2f}x (threshold {minimum_factor:.2f}x)"
    return ObservationCheck(name=name, holds=holds, detail=detail)
