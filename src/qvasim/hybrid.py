"""Sampling-based hybrid optimisation and its function-evaluation accounting.

The hybrid scheme tunes the complete-graph walk ansatz against an expectation
value *estimated* from measurement samples, then launches one continuous
simplex run from the best point of each sample set until the true minimum is
located to within epsilon. Costs are compared against plain random-restart
simplex search through the accounting identity

    fev_assisted = sample_size * (p + 1) * fev_qmoa + fev_nelder_mead

which ``HybridAccounting.fev_assisted`` computes from the four counts it
holds; fev_qmoa is the number of expectation estimations. Sample minima are
grid points, so most launches repeat an earlier start. Every launch is counted
in ``fev_nelder_mead``, but the deterministic simplex run from a repeated
start is not re-run: its evaluation count is reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import Algorithm, AnsatzSpec, ParameterVector, Propagator
from .engine import (
    GAMMA_RANGE,
    WALK_TIME_RANGE,
    NelderMeadResult,
    OptimiserOptions,
    nelder_mead,
)
from .functions import TestFunction, get_function
from .grid import ObjectiveTable, SolutionGrid, build_objective, make_grid
from .mixers import CirculantGraph
from .states import sample

# Importable from this module for the benchmark's tracer (bench/tracing.py),
# which rebinds it here; the sampled objective evaluates through a Propagator.
from .ansatz import apply_ansatz  # noqa: F401

DEFAULT_SAMPLE_SIZE = 30
DEFAULT_EPSILON = 1e-4


@dataclass(frozen=True)
class HybridAccounting:
    """Evaluation counts for one assisted run; ``fev_assisted`` follows from them."""

    fev_qmoa: int
    fev_nelder_mead: int
    sample_size: int
    depth: int

    @property
    def fev_assisted(self) -> int:
        return self.sample_size * (self.depth + 1) * self.fev_qmoa + self.fev_nelder_mead


@dataclass
class HybridRunResult:
    found_x: np.ndarray | None
    found_value: float | None
    success: bool
    accounting: HybridAccounting
    seeds_tried: int
    # simplex runs actually made; repeated starts reuse an earlier run
    distinct_starts: int


def speedup(baseline_fev: int, accounting: HybridAccounting) -> float:
    """Classical-only evaluations per assisted evaluation."""
    if baseline_fev <= 0 or accounting.fev_assisted <= 0:
        raise ValueError("evaluation counts must be positive")
    return baseline_fev / accounting.fev_assisted


def _scipy_default_options(n_params: int) -> OptimiserOptions:
    # the cited simplex implementation's out-of-the-box settings
    return OptimiserOptions(
        max_iterations=200 * n_params,
        max_evaluations=200 * n_params,
        adaptive=False,
    )


def _classical_search(f: TestFunction, start: np.ndarray) -> NelderMeadResult:
    """One plain simplex run on ``f`` from ``start`` with the default settings."""
    return nelder_mead(lambda x: float(f.fn(x)), start, _scipy_default_options(len(start)))


def hybrid_optimise(
    function: str | TestFunction,
    dims: int,
    n_points: int,
    depth: int,
    epsilon: float = DEFAULT_EPSILON,
    seed: int = 0,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    grid: SolutionGrid | None = None,
    table: ObjectiveTable | None = None,
) -> HybridRunResult:
    """One assisted run: sampled-objective tuning, then seeded continuous search.

    Every expectation estimation draws ``sample_size`` indices from the
    prepared state, scores their mean objective value (one fev_qmoa), and
    records the sample minimum. After the variational optimisation converges,
    the recorded minima seed continuous Nelder-Mead runs in the order they
    were collected; the procedure stops at the first run reaching
    f <= f_min + epsilon.

    Every launch counts towards ``seeds_tried`` and ``fev_nelder_mead``, but
    a start reached again is not re-run: the run is deterministic, and a
    repeated start has always failed before (success ends the loop), so its
    earlier evaluation count is added again. ``distinct_starts`` counts the
    runs actually made.
    """
    f = get_function(function) if isinstance(function, str) else function
    if grid is None:
        lower, upper = f.domain(dims)
        grid = make_grid(lower, upper, n_points)
    if table is None:
        table = build_objective(grid, f.fn)
    rng = np.random.default_rng(seed)
    spec = AnsatzSpec(
        Algorithm.QMOA,
        depth,
        graphs=tuple(CirculantGraph.complete(n_points) for _ in range(dims)),
    )
    times_per_layer = spec.walk_times_per_layer(dims)
    coords = grid.coordinate_columns()
    propagator = Propagator(spec, table, grid)

    sample_minima: list[int] = []  # one entry per estimation

    def sampled_objective(flat: np.ndarray) -> float:
        ks = sample(propagator.state(flat), rng, sample_size)
        values = table.values[ks]
        sample_minima.append(int(ks[np.argmin(values)]))
        return float(np.mean(values))

    x0 = ParameterVector(
        rng.uniform(*GAMMA_RANGE, size=depth),
        rng.uniform(*WALK_TIME_RANGE, size=(depth, times_per_layer)),
    ).flatten()
    nelder_mead(sampled_objective, x0, _scipy_default_options(propagator.n_params))

    threshold = f.known_minimum(dims) + epsilon
    fev_nm = 0
    found_x = None
    found_value = None
    seeds_tried = 0
    failed: dict[int, int] = {}  # grid index of a failed start -> its evaluations
    for k in sample_minima:
        seeds_tried += 1
        if k in failed:
            fev_nm += failed[k]
            continue
        result = _classical_search(f, coords[:, k])
        fev_nm += result.evaluations
        if result.value <= threshold:
            found_x = result.x
            found_value = result.value
            break
        failed[k] = result.evaluations
    accounting = HybridAccounting(
        fev_qmoa=len(sample_minima),
        fev_nelder_mead=fev_nm,
        sample_size=sample_size,
        depth=depth,
    )
    return HybridRunResult(
        found_x=found_x,
        found_value=found_value,
        success=found_x is not None,
        accounting=accounting,
        seeds_tried=seeds_tried,
        distinct_starts=len(failed) + (found_x is not None),
    )


@dataclass
class BaselineResult:
    evaluations: int
    success: bool
    restarts: int
    found_x: np.ndarray | None


def classical_baseline(
    function: str | TestFunction,
    dims: int,
    epsilon: float = DEFAULT_EPSILON,
    seed: int = 0,
    max_evaluations: int = 50_000_000,
) -> BaselineResult:
    """Repeated Nelder-Mead from uniform random starts until epsilon-success."""
    f = get_function(function) if isinstance(function, str) else function
    lower, upper = f.domain(dims)
    rng = np.random.default_rng(seed)
    threshold = f.known_minimum(dims) + epsilon
    fev = 0
    restarts = 0
    while fev < max_evaluations:
        restarts += 1
        x0 = rng.uniform(lower, upper)
        result = _classical_search(f, x0)
        fev += result.evaluations
        if result.value <= threshold:
            return BaselineResult(fev, True, restarts, result.x)
    return BaselineResult(fev, False, restarts, None)
