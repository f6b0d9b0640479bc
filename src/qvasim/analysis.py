"""Performance metrics, the restricted-depth Grover baseline, and scaling fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .grid import ObjectiveTable, SolutionGrid
from .states import StateVector, expectation


@dataclass(frozen=True)
class MetricsRecord:
    mean_error: float
    statistical_distance: float
    max_amplification: float
    max_amplified_index: int
    max_amplified_rank: int


def mean_error(q_expectation: float, table: ObjectiveTable) -> float:
    """(<Q> - min f) / (max f - min f), in [0, 1]."""
    span = table.max_value - table.min_value
    if span <= 0:
        raise ValueError("mean error is undefined for a constant objective")
    return (q_expectation - table.min_value) / span


def statistical_distance(
    probabilities: np.ndarray, grid: SolutionGrid, table: ObjectiveTable
) -> float:
    """Probability-weighted Euclidean distance from the grid minimiser.

    ``probabilities`` are a state's K probabilities. Normalised by the
    distance of the farthest grid point, so a delta at the minimiser scores
    0 and a delta at the farthest point scores 1.
    """
    deltas = grid.coordinate_columns()
    deltas -= deltas[:, [table.argmin_index]]  # the list index copies the minimiser's column
    distances = np.sqrt(np.sum(deltas**2, axis=0))
    return float(np.dot(distances, probabilities) / np.max(distances))


def max_amplification(probabilities: np.ndarray) -> tuple[float, int]:
    """Largest of a state's K probabilities relative to the uniform 1/K, with its index."""
    idx = int(np.argmax(probabilities))
    return float(probabilities[idx] * probabilities.size), idx


def metrics_for_state(
    state: StateVector,
    grid: SolutionGrid,
    table: ObjectiveTable,
    q_expectation: float | None = None,
) -> MetricsRecord:
    if q_expectation is None:
        q_expectation = expectation(state, table)
    probabilities = state.probabilities()
    amplification, idx = max_amplification(probabilities)
    return MetricsRecord(
        mean_error=mean_error(q_expectation, table),
        statistical_distance=statistical_distance(probabilities, grid, table),
        max_amplification=amplification,
        max_amplified_index=idx,
        max_amplified_rank=int(table.level_index[idx]) + 1,
    )


def rdgs_probability(p: int, k_total: int) -> float:
    """Marked-state probability of a restricted-depth Grover search.

    G(p, K) = sin^2[(p + 1/2) * 2 * arcsin(sqrt(1/K))].
    """
    if p < 0 or k_total < 1:
        raise ValueError("need p >= 0 and K >= 1")
    angle = (p + 0.5) * 2.0 * np.arcsin(np.sqrt(1.0 / k_total))
    return float(np.sin(angle) ** 2)


def rdgs_amplification(p: int, k_total: int) -> float:
    """Unstructured-search amplification baseline, K * G(p, K)."""
    return k_total * rdgs_probability(p, k_total)


@dataclass(frozen=True)
class ScalingFit:
    """Coefficients of: maximum amplification = C * p^(alpha * D)."""

    alpha: float
    c: float
    alpha_stddev: float

    def predict(self, p: np.ndarray, dims: int) -> np.ndarray:
        return self.c * np.asarray(p, dtype=float) ** (self.alpha * dims)


def fit_scaling(points: Iterable[Sequence[float]]) -> ScalingFit:
    """Least-squares fit of log2(amplification) = log2(C) + alpha * D * log2(p).

    ``points`` holds (p, D, amplification) triples with p >= 1 and positive
    amplification. The reported uncertainty is the standard deviation of the
    alpha estimate from the fit covariance.
    """
    data = np.asarray(list(points), dtype=float)
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 3:
        raise ValueError("need at least three (p, D, amplification) points")
    p, dims, amp = data.T
    if np.any(p < 1) or np.any(amp <= 0):
        raise ValueError("depths must be >= 1 and amplifications positive")
    x = dims * np.log2(p)
    if np.allclose(x, x[0]):
        raise ValueError("degenerate fit: all depths equal")
    y = np.log2(amp)
    design = np.column_stack([np.ones_like(x), x])
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    log2_c, alpha = coeffs
    residuals = y - design @ coeffs
    dof = x.size - 2
    sigma_sq = float(residuals @ residuals) / dof
    covariance = sigma_sq * np.linalg.inv(design.T @ design)
    return ScalingFit(
        alpha=float(alpha),
        c=float(2.0**log2_c),
        alpha_stddev=float(np.sqrt(covariance[1, 1])),
    )
