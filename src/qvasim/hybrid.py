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

The sampled simplex hands each block of points it knows in advance (its
start with its initial vertices, a shrink's vertices) to one ``samples``
call of the evaluator that ``ansatz.evaluator`` builds (a
``ProductPropagator`` on the additive test functions, else the full
``Propagator``), which evolves it a workspace at a time and draws for each
row, so the start and the vertex that repeats it both count as
estimations. The classical simplex runs, the baseline's restarts and the
launches from distinct sample minima alike, run ``CLASSICAL_SLOTS`` at a
time in lockstep (``engine.nelder_mead_runs``), with the test function
evaluated once per round on a block of columns.
Their results are read in start order, so the counts are those of running
them one after another: runs started past the first success, or past the
baseline's evaluation budget, are discarded and not counted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .ansatz import Algorithm, AnsatzSpec, ParameterVector, evaluator
from .engine import (
    GAMMA_RANGE,
    WALK_TIME_RANGE,
    NelderMeadResult,
    OptimiserOptions,
    nelder_mead_blocks,
    nelder_mead_runs,
)
from .functions import TestFunction, get_function
from .grid import (
    ObjectiveTable, SolutionGrid, build_objective, columnwise, index_to_coords, make_grid
)
from .mixers import CirculantGraph

# Importable from this module for the benchmark's tracer (bench/tracing.py),
# which rebinds them here; the sampled objective samples through
# ``ansatz.evaluator``, and the classical runs go through nelder_mead_runs.
from .ansatz import apply_ansatz  # noqa: F401
from .engine import nelder_mead  # noqa: F401
from .states import sample  # noqa: F401

DEFAULT_SAMPLE_SIZE = 30
DEFAULT_EPSILON = 1e-4

# Classical simplex runs kept in lockstep. More slots share numpy's per-call
# cost between more runs but start more runs past the decisive one, which
# are discarded; README, "Evaluation cost", has the measurements.
CLASSICAL_SLOTS = 64


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


def _classical_searches(
    f: TestFunction, dims: int, starts: Iterable[np.ndarray]
) -> Iterator[NelderMeadResult]:
    """Plain simplex runs on ``f`` from each start with the default settings, in start order.

    Each run equals ``nelder_mead`` on ``f`` evaluated at one point as a
    (D, 1) column; ``f`` is evaluated through one ``columnwise`` map, so
    the search decides once whether it is vectorised.
    """
    options = _scipy_default_options(dims)
    return nelder_mead_runs(columnwise(f.fn), starts, options, CLASSICAL_SLOTS)


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
    n_params = spec.total_params(dims)
    propagator = evaluator(spec, table, grid)

    sample_minima: list[int] = []  # one entry per estimation

    def sampled_objective(block: np.ndarray) -> list[float]:
        estimates = []
        for ks in propagator.samples(block, rng, sample_size):
            values = table.values[ks]
            sample_minima.append(int(ks[values.argmin()]))
            estimates.append(float(values.sum() / sample_size))
        return estimates

    x0 = ParameterVector(
        rng.uniform(*GAMMA_RANGE, size=depth),
        rng.uniform(*WALK_TIME_RANGE, size=(depth, times_per_layer)),
    ).flatten()
    nelder_mead_blocks(sampled_objective, x0, _scipy_default_options(n_params))

    threshold = f.known_minimum(dims) + epsilon
    fev_nm = 0
    seeds_tried = 0
    found = None
    launched: dict[int, NelderMeadResult] = {}  # grid index of a start -> its run
    starts = (index_to_coords(grid, k) for k in dict.fromkeys(sample_minima))
    runs = _classical_searches(f, dims, starts)
    for k in sample_minima:
        seeds_tried += 1
        if k not in launched:
            launched[k] = next(runs)  # distinct starts run in first-appearance order
        fev_nm += launched[k].evaluations
        if launched[k].value <= threshold:
            found = launched[k]
            break
    accounting = HybridAccounting(
        fev_qmoa=len(sample_minima),
        fev_nelder_mead=fev_nm,
        sample_size=sample_size,
        depth=depth,
    )
    return HybridRunResult(
        found_x=None if found is None else found.x,
        found_value=None if found is None else found.value,
        success=found is not None,
        accounting=accounting,
        seeds_tried=seeds_tried,
        distinct_starts=len(launched),
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
    """Repeated Nelder-Mead from uniform random starts until epsilon-success.

    Restart j draws its start with ``rng.uniform(lower, upper)``, in restart
    order. The counts are those of running the restarts one after another
    until the first success, or until ``max_evaluations`` is reached.
    """
    f = get_function(function) if isinstance(function, str) else function
    lower, upper = f.domain(dims)
    rng = np.random.default_rng(seed)
    threshold = f.known_minimum(dims) + epsilon
    fev = 0
    restarts = 0
    runs = _classical_searches(f, dims, (rng.uniform(lower, upper) for _ in itertools.count()))
    while fev < max_evaluations:
        restarts += 1
        result = next(runs)
        fev += result.evaluations
        if result.value <= threshold:
            return BaselineResult(fev, True, restarts, result.x)
    return BaselineResult(fev, False, restarts, None)
