"""Classical outer optimisation: seeded repeats, warm starts, depth sweeps.

Protocol implemented here:

* each depth runs ``repeats`` independent Nelder-Mead optimisations;
* fresh walk times are drawn from U[0, 2*pi) and phase parameters from
  U[-2*pi, 2*pi); a warm start copies the previous depth's best parameters
  into the first p-1 layers;
* when a warm start is given, repeat 0 extends it with an identity layer
  (t = 0, gamma = 0) instead of a random draw, which makes the best value
  non-increasing in depth;
* the wavepacket-evolution algorithm is optimised inside expanding parameter
  bounds, growing by a factor of 1.2 whenever the optimum pins against a
  bound, up to a half-width of 2*pi;
* a "gaussian" initial state gets wavepacket centres drawn per repeat (the
  identity-extension repeat keeps the warm start's), with width 1/sqrt(2); a
  supplied WavepacketSpec is used as given. Either way the centres are
  reported with the repeat;
* the simplex is a generator of blocks: it yields the points it knows
  before the first of them is evaluated as one (m, n) array (the start
  with the n + 1 initial vertices, a shrink's n vertices, or one point)
  and is sent their m values in order. ``nelder_mead`` evaluates a block's
  rows one by one; ``nelder_mead_blocks`` hands a caller the whole block;
* a depth's repeats run in lockstep: each simplex round takes the pending
  block of every active repeat, and the points that share an evaluator are
  evaluated in one ``expectations`` call, which sizes its own batches. Each
  repeat sees the points and values it would see alone, so the results, bit
  for bit, do not depend on which repeats run together, nor on how they are
  split over worker processes;
* evaluators are built by ``ansatz.evaluator``: a ``ProductPropagator``
  for QMOA and QOWE on an additive table, the full ``Propagator`` otherwise;
* ``nelder_mead_runs`` runs many simplices of one objective in lockstep in
  one set of arrays, each round evaluating all their points as one block of
  columns, for the hybrid study's thousands of short classical runs.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ansatz import Algorithm, AnsatzSpec, ParameterVector, evaluator
from .grid import ObjectiveTable, SolutionGrid
from .states import StateVector, WavepacketSpec

# Importable from this module for the benchmark's tracer (bench/tracing.py),
# which rebinds them here; the engine evaluates through ``ansatz.evaluator``.
from .ansatz import apply_ansatz  # noqa: F401
from .states import expectation  # noqa: F401

WALK_TIME_RANGE = (0.0, 2.0 * np.pi)
GAMMA_RANGE = (-2.0 * np.pi, 2.0 * np.pi)

# Wavepacket-evolution constants: hand-selected starting values, initial bound
# half-width, growth factor, terminal half-width, and the default width.
QOWE_T0 = 0.1
QOWE_GAMMA0 = 0.1
QOWE_INITIAL_HALFWIDTH = 0.1
QOWE_GROWTH = 1.2
QOWE_MAX_HALFWIDTH = 2.0 * np.pi
QOWE_SIGMA = 1.0 / np.sqrt(2.0)
BOUND_HIT_TOL = 1e-9

@dataclass
class OptimiserOptions:
    """Nelder-Mead settings.

    ``max_iterations`` caps the simplex iterations, and the initial simplex
    counts as the first: a run stopped by this cap reports
    ``NelderMeadResult.iterations == max_iterations - 1`` simplex steps.
    ``max_evaluations`` caps the simplex's own objective calls, the initial
    simplex's included; the call that would pass it is not made and ends the
    step it falls in. The starting-point check adds one more evaluation.
    """

    max_iterations: int = 1_000_000
    simplex_tolerance: float = 1e-4
    value_tolerance: float = 1e-4
    adaptive: bool = True
    bounds: np.ndarray | None = None
    max_evaluations: int | None = None

    def __post_init__(self) -> None:
        if self.simplex_tolerance <= 0 or self.value_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class NelderMeadResult:
    """Outcome of one ``nelder_mead`` call.

    ``evaluations`` counts every objective call, the starting-point check
    included. ``iterations`` counts the simplex steps; the initial simplex
    is not counted, and a step cut short by the evaluation cap is counted.
    It always equals the number of lines one call appends to ``trace_path``.
    """

    x: np.ndarray
    value: float
    evaluations: int
    iterations: int


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    options: OptimiserOptions | None = None,
    trace_path=None,
) -> NelderMeadResult:
    """Simplex minimisation with the dimension-adaptive coefficient scheme.

    The simplex follows scipy 1.17.1's Nelder-Mead expression for
    expression, so it takes the same points and returns the same bits.
    ``adaptive`` selects the coefficients of Gao & Han (Comput. Optim. Appl.
    51, 259-277, 2012) over the standard 1, 2, 1/2, 1/2. Terminates when both
    the simplex spread and the value spread fall below their tolerances, at
    the iteration cap or at the evaluation cap. With bounds set, the start
    and every evaluation point are clipped onto the box, and initial-simplex
    vertices above an upper bound are first reflected below it.
    ``objective`` receives a copy of each point. ``trace_path`` appends one
    JSON line per simplex step, numbered from 1: iteration index, best
    value, parameter vector.
    """
    return nelder_mead_blocks(lambda block: [objective(x) for x in block], x0, options, trace_path)


def nelder_mead_blocks(
    objective_rows: Callable[[np.ndarray], Sequence[float]],
    x0: Sequence[float],
    options: OptimiserOptions | None = None,
    trace_path=None,
) -> NelderMeadResult:
    """``nelder_mead`` with the points the simplex knows in advance passed as one block.

    ``objective_rows`` receives each block as an (m, n) array of its own and
    returns the m values in row order. A block is the starting point with
    the initial vertices, a shrink's vertices or one point (see
    ``_nelder_mead``). Evaluating the rows one by one in order is
    ``nelder_mead``.
    """
    steps = _nelder_mead(x0, options, trace_path)
    try:
        block = next(steps)
        while True:
            block = steps.send(objective_rows(block))
    except StopIteration as stop:
        return stop.value


def _check_start(x0: Sequence[float]) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"starting point must be a non-empty vector, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("starting point must be finite")
    return x0


def _bound_arrays(bounds: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(bounds, dtype=float)
    if b.shape != (n, 2):
        raise ValueError(f"bounds must have shape ({n}, 2), got {b.shape}")
    if np.any(b[:, 1] < b[:, 0]):
        raise ValueError("an upper bound is less than the corresponding lower bound")
    return b[:, 0], b[:, 1]


def _coefficients(n: int, adaptive: bool) -> tuple:
    """Reflection and shrink coefficients (rho, sigma), and the second points' table.

    A step's second point is a * xbar - b * worst, with (a, b) from row 0
    for the expansion, 1 for the outside contraction and 2 for the inside
    contraction. The inside row's b = -psi gives (1 - psi) * xbar + psi *
    worst exactly.
    """
    if adaptive:
        dim = float(n)
        rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    return rho, sigma, ((1 + rho * chi, rho * chi), (1 + psi * rho, psi * rho), (1 - psi, -psi))


def _initial_simplices(starts: np.ndarray, lo=None, hi=None) -> np.ndarray:
    """The initial simplex of each row of ``starts``, as (runs, n + 1, n).

    Vertex 0 is the start; vertex k + 1 steps coordinate k by 5%, or to
    0.00025 from zero. With bounds, vertices pushed past an upper bound are
    reflected back inside, so that clipping cannot collapse the simplex
    onto the bound.
    """
    n = starts.shape[1]
    sim = np.repeat(starts[:, None], n + 1, axis=1)
    sim[:, np.arange(1, n + 1), np.arange(n)] = np.where(starts != 0, (1 + 0.05) * starts, 0.00025)
    if lo is not None:
        sim = np.where(sim > hi, 2 * hi - sim, sim).clip(lo, hi)
    return sim


def _order(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplex and its values, best vertex first."""
    ind = fsim.argsort()
    return sim[ind], fsim[ind]


def _spread(a: np.ndarray) -> float:
    """max |a|, without ``np.max``'s Python-level wrapper."""
    return np.maximum.reduce(np.absolute(a), axis=None)


def _nelder_mead(x0: Sequence[float], options: OptimiserOptions | None, trace_path=None):
    """``nelder_mead`` as a generator of blocks; returns the ``NelderMeadResult``.

    It yields each block of points that it knows before the first of them
    is evaluated, as a fresh (m, n) array, and is sent their m values in
    row order. The first block is the start, clipped onto the bounds if
    any, followed by the initial simplex's n + 1 vertices; the start's value
    is the starting-point check. Later blocks are a shrink's n vertices or
    one point. The evaluation cap cuts a block where a loop over its points
    would stop. The arguments are checked before the first block is yielded.
    """
    options = options or OptimiserOptions()
    x0 = _check_start(x0)
    n = x0.size
    lo = hi = None
    if options.bounds is not None:
        lo, hi = _bound_arrays(options.bounds, n)
        x0 = x0.clip(lo, hi)
    bounded = lo is not None
    rho, sigma, second = _coefficients(n, options.adaptive)
    max_calls = np.inf if options.max_evaluations is None else options.max_evaluations
    xatol, fatol = options.simplex_tolerance, options.value_tolerance

    sim = _initial_simplices(x0[None], lo, hi)[0]
    fsim = np.full(n + 1, np.inf)
    calls = int(min(n + 1, max_calls))
    values = yield np.concatenate([x0[None], sim[:calls]])
    f0 = float(values[0])
    if not np.isfinite(f0):
        raise ValueError(f"objective is not finite at the starting point ({f0})")
    fsim[:calls] = values[1:]
    # sorted twice as scipy sorts it; argsort is not stable, so the second
    # pass may still reorder tied vertices
    sim, fsim = _order(*_order(sim, fsim))

    # The initial simplex counts towards max_iterations. A step cut short by
    # the evaluation cap ends the loop, so the loop head sees steps + 1
    # iterations.
    steps = 0
    trace_file = open(trace_path, "a") if trace_path is not None else None
    try:
        while calls < max_calls and steps + 1 < options.max_iterations:
            if _spread(sim[1:] - sim[0]) <= xatol and _spread(fsim[0] - fsim[1:]) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            if bounded:
                xr = xr.clip(lo, hi)
            calls += 1
            (fxr,) = yield xr.reshape(1, -1).copy()
            expand = fxr < fsim[0]
            if not expand and fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif calls < max_calls:  # else the cap ends the step here
                kind = 0 if expand else 1 if fxr < fsim[-1] else 2
                a, b = second[kind]
                x2 = a * xbar - b * sim[-1]
                if bounded:
                    x2 = x2.clip(lo, hi)
                calls += 1
                (f2,) = yield x2.reshape(1, -1).copy()
                if (f2 < fxr, f2 <= fxr, f2 < fsim[-1])[kind]:
                    sim[-1], fsim[-1] = x2, f2
                elif expand:
                    sim[-1], fsim[-1] = xr, fxr
                else:  # shrink towards the best vertex
                    moved = sim[0] + sigma * (sim[1:] - sim[0])
                    if bounded:
                        moved = moved.clip(lo, hi)
                    # a cap inside the shrink moves one vertex more than it evaluates
                    m = int(min(n, max_calls - calls))
                    sim[1 : m + 2] = moved[: m + 1]
                    if m:
                        calls += m
                        fsim[1 : m + 1] = yield moved[:m]
            sim, fsim = _order(sim, fsim)
            steps += 1
            if trace_file is not None:
                record = {
                    "iteration": steps,
                    "expectation": float(fsim[0]),
                    "params": [float(v) for v in sim[0]],
                }
                trace_file.write(json.dumps(record) + "\n")
    finally:
        if trace_file is not None:
            trace_file.close()
    return NelderMeadResult(
        x=sim[0],
        value=float(fsim.min()),
        evaluations=calls + 1,  # +1 for the starting-point check
        iterations=steps,
    )


def nelder_mead_runs(
    objective_columns: Callable[[np.ndarray], np.ndarray],
    starts: Iterable[Sequence[float]],
    options: OptimiserOptions | None,
    slots: int,
) -> Iterator[NelderMeadResult]:
    """``nelder_mead`` from each start, up to ``slots`` runs at once; yields results in start order.

    The runs advance in lockstep. Each round evaluates the points of every
    running run in one call of ``objective_columns``, which takes an
    (n, M) C-ordered block of points as columns and returns their M values.
    A point's value must not depend on the other columns (``columnwise``
    catalogue functions qualify). Each phase of a simplex step is one numpy
    call over the runs that take it, with ``_nelder_mead``'s expressions, so
    a run's result equals, bit for bit, that of ``nelder_mead`` on the
    objective that evaluates one point as a column. A start is drawn from
    ``starts`` only when a slot is free, and a result is yielded as soon as
    every earlier run's has been: a consumer that stops iterating stops the
    draws, and runs already started past that point are dropped. Bounds are
    not supported. The starting-point check is the value of the first
    vertex, which is the start itself.
    """
    options = options or OptimiserOptions()
    if options.bounds is not None:
        raise ValueError("nelder_mead_runs does not support bounds")
    if slots < 1:
        raise ValueError(f"need at least one slot, got {slots}")
    return _lockstep_runs(objective_columns, iter(starts), options, slots)


def _order_rows(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_order`` applied to each run's simplex: (runs, n + 1, n) and (runs, n + 1)."""
    ind = fsim.argsort(axis=1)
    return np.take_along_axis(sim, ind[:, :, None], 1), np.take_along_axis(fsim, ind, 1)


def _lockstep_runs(objective_columns, starts, options, slots):
    """The generator behind ``nelder_mead_runs``.

    The running runs' state lives in arrays with one entry per run:
    simplices, values, calls, steps and run index. Every round stops the
    runs that the loop head of ``_nelder_mead`` would stop, yields what it
    can, fills the free slots, then evaluates the new runs' initial
    vertices with the others' reflections, the second points from
    ``_coefficients``' table, and the shrinks' vertices, in at most three
    calls.
    """
    first = next(starts, None)
    if first is None:
        return
    n = _check_start(first).size
    starts = itertools.chain([first], starts)
    rho, sigma, second_points = _coefficients(n, options.adaptive)
    second_points = np.array(second_points)
    max_calls = np.inf if options.max_evaluations is None else options.max_evaluations
    xatol, fatol = options.simplex_tolerance, options.value_tolerance
    vertices = int(min(n + 1, max_calls))
    later = np.arange(1, n + 1)  # the vertices a shrink moves

    def evaluate(points):
        if not len(points):
            return np.empty(0)
        return objective_columns(np.ascontiguousarray(points.T))

    sim, fsim = np.empty((0, n + 1, n)), np.empty((0, n + 1))
    calls, steps, ids = (np.empty(0, np.int64) for _ in range(3))
    finished: dict[int, NelderMeadResult] = {}
    drawn = yielded = 0
    while True:
        # the loop head: the two caps, then the convergence test
        stop = (calls >= max_calls) | (steps + 1 >= options.max_iterations)
        go = np.flatnonzero(~stop)
        s, f = sim[go], fsim[go]
        stop[go] = (np.absolute(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.absolute(f[:, :1] - f[:, 1:]).max(axis=1) <= fatol
        )
        if stop.any():
            best = fsim[stop].min(axis=1)
            for j, i in enumerate(np.flatnonzero(stop)):
                finished[int(ids[i])] = NelderMeadResult(
                    sim[i, 0].copy(), float(best[j]), int(calls[i]) + 1, int(steps[i])
                )
            keep = ~stop
            sim, fsim, calls, steps, ids = (a[keep] for a in (sim, fsim, calls, steps, ids))
        while yielded in finished:
            yield finished.pop(yielded)
            yielded += 1

        fresh = []
        while len(ids) + len(fresh) < slots:
            x0 = next(starts, None)
            if x0 is None:
                break
            x0 = _check_start(x0)
            if x0.shape != (n,):
                raise ValueError(f"every start needs {n} coordinates, got shape {x0.shape}")
            fresh.append(x0)
            drawn += 1
        if not fresh and not len(ids):
            return

        # new runs' initial simplices, evaluated with the reflections
        points = []
        if fresh:
            new_sim = _initial_simplices(np.array(fresh))
            points.append(new_sim[:, : max(vertices, 1)].reshape(-1, n))
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        points.append(xr)
        values = evaluate(np.concatenate(points))
        fxr = values[len(values) - len(xr) :]
        if fresh:
            init = values[: len(values) - len(xr)].reshape(len(fresh), -1)
            bad = np.flatnonzero(~np.isfinite(init[:, 0]))
            if bad.size:
                raise ValueError(
                    f"objective is not finite at the starting point ({float(init[bad[0], 0])})"
                )
            new_f = np.full((len(fresh), n + 1), np.inf)
            new_f[:, :vertices] = init[:, :vertices]
            new_sim, new_f = _order_rows(*_order_rows(new_sim, new_f))

        # the second point, one per run that takes it
        calls += 1
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = fxr < fsim[:, -1]
        second = np.flatnonzero(~accept & (calls < max_calls))
        e, o = expand[second], outside[second]
        ab = second_points[np.where(e, 0, np.where(o, 1, 2))]
        x2 = ab[:, :1] * xbar[second] - ab[:, 1:] * worst[second]
        f2 = evaluate(x2)
        calls[second] += 1
        # the second point replaces the worst vertex, as does the reflection
        # when it is accepted or beats a failed expansion
        taken = np.where(e, f2 < fxr[second], np.where(o, f2 <= fxr[second], f2 < fsim[second, -1]))
        reflected = accept.copy()
        reflected[second[e & ~taken]] = True
        into = second[taken]
        sim[reflected, -1], fsim[reflected, -1] = xr[reflected], fxr[reflected]
        sim[into, -1], fsim[into, -1] = x2[taken], f2[taken]

        shrink = second[~e & ~taken]
        if shrink.size:
            s = sim[shrink]
            moved = s[:, :1] + sigma * (s[:, 1:] - s[:, :1])
            left = (max_calls - calls[shrink])[:, None]
            s[:, 1:] = np.where((later <= left + 1)[:, :, None], moved, s[:, 1:])
            sim[shrink] = s
            scored = later <= left
            fs = fsim[shrink]
            fs[:, 1:][scored] = evaluate(moved[scored])
            fsim[shrink] = fs
            calls[shrink] += scored.sum(axis=1)
        sim, fsim = _order_rows(sim, fsim)
        steps += 1

        if fresh:
            k = len(fresh)
            sim, fsim = np.concatenate([sim, new_sim]), np.concatenate([fsim, new_f])
            calls = np.concatenate([calls, np.full(k, vertices)])
            steps = np.concatenate([steps, np.zeros(k, np.int64)])
            ids = np.concatenate([ids, np.arange(drawn - k, drawn)])


@dataclass
class RepeatResult:
    """One optimisation's outcome; ``state`` is None once dropped or if restored from a log."""

    params: ParameterVector
    expectation: float
    evaluations: int
    seed: int
    state: StateVector | None = field(repr=False)
    wall_time: float
    wavepacket_centres: np.ndarray | None = None
    bound_halfwidth: float | None = None
    identity_extension: bool = False


@dataclass
class DepthResult:
    depth: int
    repeats: list[RepeatResult]

    @property
    def best_index(self) -> int:
        values = [r.expectation for r in self.repeats]
        return int(np.argmin(values))

    @property
    def best(self) -> RepeatResult:
        return self.repeats[self.best_index]


def _resolve_seeds(seeds, repeats: int) -> list[int]:
    if np.isscalar(seeds):
        return [int(seeds) + j for j in range(repeats)]
    seeds = [int(s) for s in seeds]
    if len(seeds) != repeats:
        raise ValueError(f"need {repeats} seeds, got {len(seeds)}")
    return seeds


def _initial_params(
    spec: AnsatzSpec,
    dims: int,
    warm: ParameterVector | None,
    rng: np.random.Generator,
    identity_extension: bool,
) -> ParameterVector:
    p = spec.depth
    m = spec.walk_times_per_layer(dims)
    gammas = np.empty(p)
    times = np.empty((p, m))
    start = 0
    if warm is not None:
        if warm.depth != p - 1 or warm.walk_times.shape[1] != m:
            raise ValueError(
                f"warm start layout {warm.walk_times.shape} does not fit depth {p}"
            )
        gammas[: p - 1] = warm.gammas
        times[: p - 1] = warm.walk_times
        start = p - 1
    for layer in range(start, p):
        if identity_extension:
            gammas[layer], times[layer] = 0.0, np.zeros(m)
        elif spec.algorithm is Algorithm.QOWE:
            gammas[layer], times[layer] = QOWE_GAMMA0, np.full(m, QOWE_T0)
        else:
            gammas[layer] = rng.uniform(*GAMMA_RANGE)
            times[layer] = rng.uniform(*WALK_TIME_RANGE, size=m)
    return ParameterVector(gammas, times)


def _qowe_bounds(p: int, times_per_layer: int, halfwidth: float) -> np.ndarray:
    """(lower, upper) rows in ``ParameterVector.flatten()``'s layer-major order."""
    times = np.full((p, times_per_layer), QOWE_T0 + halfwidth)
    lower = ParameterVector(np.full(p, QOWE_GAMMA0 - halfwidth), np.zeros_like(times))
    upper = ParameterVector(np.full(p, QOWE_GAMMA0 + halfwidth), times)
    return np.stack([lower.flatten(), upper.flatten()], axis=1)


def draw_wavepacket_centres(grid: SolutionGrid, rng: np.random.Generator) -> np.ndarray:
    """Uniform centres over the domain shrunk by one eighth of its span per side."""
    span = grid.upper - grid.lower
    return rng.uniform(grid.lower + span / 8.0, grid.upper - span / 8.0)


def run_single_repeat(
    spec: AnsatzSpec,
    grid: SolutionGrid,
    warm: RepeatResult | None,
    seed: int,
    options: OptimiserOptions,
    identity_extension: bool,
):
    """One repeat at depth ``spec.depth``, as a generator that ``_run_group`` builds and drives.

    It draws its start, then yields its start spec (``spec``, or for a
    "gaussian" start ``spec`` with the drawn wavepacket) and is sent the
    ``ansatz.evaluator`` of that spec on the driver's table and ``grid``. From
    then on it yields each block of parameter vectors its optimisation tries
    (see ``_nelder_mead``) and is sent their <Q> values. It returns its
    ``RepeatResult``, whose ``wall_time`` the driver fills in. A task of one
    seed runs one repeat alone.

    Every family runs one loop of simplex passes from the same start, whose
    ``evaluations`` add up. Only QOWE goes round again, with its bounds 1.2x
    wider, while its optimum pins against them below a half-width of 2*pi.
    """
    rng = np.random.default_rng(seed)
    centres = None
    if isinstance(spec.initial_state, WavepacketSpec):
        centres = spec.initial_state.centres
    elif spec.initial_state == "gaussian":
        if identity_extension and warm is not None and warm.wavepacket_centres is not None:
            centres = warm.wavepacket_centres
        else:
            centres = draw_wavepacket_centres(grid, rng)
        spec = spec.with_initial_state(
            WavepacketSpec(centres, np.full(grid.dims, QOWE_SIGMA))
        )
    params0 = _initial_params(
        spec, grid.dims, warm.params if warm is not None else None, rng, identity_extension
    )
    propagator = yield spec

    m = spec.walk_times_per_layer(grid.dims)
    bounds, halfwidth = options.bounds, None
    if spec.algorithm is Algorithm.QOWE:
        halfwidth = QOWE_INITIAL_HALFWIDTH
        if warm is not None and warm.bound_halfwidth is not None:
            halfwidth = warm.bound_halfwidth
        # widen until the warm parameters fit, so that a warm-started run
        # never clamps its own start
        needed = max(
            np.max(np.abs(params0.gammas - QOWE_GAMMA0)), np.max(params0.walk_times - QOWE_T0)
        )
        while halfwidth < needed and halfwidth < QOWE_MAX_HALFWIDTH:
            halfwidth *= QOWE_GROWTH
        halfwidth = min(halfwidth, QOWE_MAX_HALFWIDTH)
    evaluations = 0
    while True:
        if halfwidth is not None:
            bounds = _qowe_bounds(spec.depth, m, halfwidth)
        result = yield from _nelder_mead(params0.flatten(), replace(options, bounds=bounds))
        evaluations += result.evaluations
        if halfwidth is None or halfwidth >= QOWE_MAX_HALFWIDTH:
            break
        pinned = np.any(
            (np.abs(result.x - bounds[:, 0]) <= BOUND_HIT_TOL)
            | (np.abs(result.x - bounds[:, 1]) <= BOUND_HIT_TOL)
        )
        if not pinned:
            break
        halfwidth = min(halfwidth * QOWE_GROWTH, QOWE_MAX_HALFWIDTH)

    best_params = ParameterVector.unflatten(result.x, spec.depth, m)
    return RepeatResult(
        params=best_params,
        expectation=float(result.value),
        evaluations=evaluations,
        seed=seed,
        state=propagator.state(result.x),
        wall_time=0.0,
        wavepacket_centres=centres,
        bound_halfwidth=halfwidth,
        identity_extension=identity_extension,
    )


def _run_group(task: tuple) -> list[RepeatResult]:
    """One ``parallel_map`` task: a group of a depth's repeats, run in lockstep.

    ``task`` is ``(spec, table, grid, warm, seeds, options, firsts)``. One
    ``run_single_repeat`` generator is built per seed, and ``firsts`` marks
    the group's repeat 0, which extends a warm start by an identity layer.
    Returns their results in seed order. Repeats that yield the same start spec
    object form a cohort and share one ``ansatz.evaluator`` of it on ``table``
    and ``grid``; cohorts run one after another, so at most one workspace is
    alive. Each round takes the pending block of every active repeat in the
    cohort, evaluates all their points in one ``expectations`` call, and
    sends each repeat its values. Each repeat's points and values are those
    it would see alone, so the results do not depend on the grouping. A
    repeat's ``wall_time`` is the time spent in its own generator plus an
    equal share of the evaluator's construction and, per point, of every
    call it was evaluated in.
    """
    spec, table, grid, warm, seeds, options, firsts = task
    repeats = [
        run_single_repeat(spec, grid, warm, seed, options, warm is not None and first)
        for seed, first in zip(seeds, firsts)
    ]
    clock = time.perf_counter
    seconds = [0.0] * len(repeats)
    results: list[RepeatResult | None] = [None] * len(repeats)
    pending: dict[int, np.ndarray] = {}

    def advance(i, values):
        started = clock()
        try:
            pending[i] = repeats[i].send(values)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value
        seconds[i] += clock() - started

    cohorts: dict[int, list[int]] = {}
    specs = []
    for i in range(len(repeats)):
        advance(i, None)
        specs.append(pending.pop(i))
        cohorts.setdefault(id(specs[i]), []).append(i)
    for members in cohorts.values():
        started = clock()
        propagator = evaluator(specs[members[0]], table, grid)
        share = (clock() - started) / len(members)
        for i in members:
            seconds[i] += share
            advance(i, propagator)
        while pending:
            active = list(pending)
            points = np.concatenate([pending[i] for i in active])
            started = clock()
            values = propagator.expectations(points)
            share = (clock() - started) / len(points)
            at = 0
            for i in active:
                count = len(pending[i])
                seconds[i] += share * count
                advance(i, values[at : at + count])
                at += count
    for result, spent in zip(results, seconds):
        result.wall_time = spent
    return results


def resolve_workers(workers: int | None = None) -> int:
    """``workers``, else ``QVASIM_WORKERS``, else 1; a bad count raises ``ValueError``."""
    source = "workers"
    if workers is None:
        source, raw = "QVASIM_WORKERS", os.environ.get("QVASIM_WORKERS") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"QVASIM_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{source} must be at least 1, got {workers}")
    return workers


# Read by BLAS and OpenMP when they load; a pool worker gets 1 for each the caller leaves unset.
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parallel_map(fn: Callable, tasks: Sequence, workers: int | None = None) -> Iterator:
    """An iterator over ``fn(t) for t in tasks``: the results in task order, each once ready.

    ``workers`` is resolved by ``resolve_workers`` at the call. With one
    worker or one task this is ``map(fn, tasks)``, run in this process as it
    is iterated. Otherwise the first ``next`` submits every task to a
    process pool: ``fn``, the tasks and the results are pickled, and each
    worker is a fresh interpreter (``spawn``) whose environment sets every
    ``_THREAD_VARIABLES`` entry that this process's leaves unset to 1. The
    pool shuts down once the iterator is drained or closed.
    """
    workers = resolve_workers(workers)
    if workers < 2 or len(tasks) < 2:
        return map(fn, tasks)
    return _pool_map(fn, tasks, min(workers, len(tasks)))


def _pool_map(fn: Callable, tasks: Sequence, workers: int) -> Iterator:
    """``parallel_map``'s pool path, a generator so that the pool lives in one ``with``."""
    import multiprocessing  # loaded only for a pool
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        unset = [name for name in _THREAD_VARIABLES if name not in os.environ]
        os.environ.update(dict.fromkeys(unset, "1"))  # inherited by the workers as they start
        try:
            results = pool.map(fn, tasks)  # submits every task, which starts every worker
        finally:
            for name in unset:
                os.environ.pop(name, None)
        yield from results


def optimise_at_depth(
    spec: AnsatzSpec,
    table: ObjectiveTable,
    grid: SolutionGrid,
    p: int,
    warm_start: RepeatResult | None = None,
    repeats: int = 10,
    seeds: int | Sequence[int] = 0,
    options: OptimiserOptions | None = None,
    workers: int | None = None,
    done: Mapping[int, RepeatResult] | None = None,
) -> DepthResult:
    """Best of ``repeats`` independent optimisations at depth ``p``.

    ``warm_start`` is a depth ``p - 1`` repeat, usually the previous depth's
    best; the repeats receive a copy without its state. Ties between repeats
    resolve to the lowest repeat index. ``seeds`` is either one base seed
    (repeat j uses base + j) or one seed per repeat. ``done`` maps repeat
    indices to results already known, for example restored from a record
    log; only the other repeats are run, and the known results take their
    places in repeat order. The repeats to run are split into ``workers``
    groups of consecutive repeats, one ``parallel_map`` task of
    ``_run_group`` each, which runs its group in lockstep; the results do
    not depend on the split.
    """
    warm = warm_start
    if warm is not None:
        if not isinstance(warm, RepeatResult):
            raise TypeError(f"warm start must be a RepeatResult or None, got {type(warm)}")
        warm = replace(warm, state=None)  # the workers need no K-sized state
    spec = spec.at_depth(p)
    options = options or OptimiserOptions()
    seed_list = _resolve_seeds(seeds, repeats)
    done = done or {}
    todo = [j for j in range(repeats) if j not in done]
    groups = np.array_split(todo, min(resolve_workers(workers), len(todo))) if todo else []
    tasks = [
        (spec, table, grid, warm, [seed_list[j] for j in group], options, (group == 0).tolist())
        for group in groups
    ]
    fresh = iter([r for group in parallel_map(_run_group, tasks, workers) for r in group])
    results = [done[j] if j in done else next(fresh) for j in range(repeats)]
    return DepthResult(depth=p, repeats=results)


def depth_sweep(
    spec: AnsatzSpec,
    table: ObjectiveTable,
    grid: SolutionGrid,
    depths: Sequence[int],
    repeats: int = 10,
    seed_fn: Callable[[int, int], int] | None = None,
    options: OptimiserOptions | None = None,
    workers: int | None = None,
    on_depth: Callable[[DepthResult], None] | None = None,
    done: Callable[[int], Mapping[int, RepeatResult]] | None = None,
) -> list[DepthResult]:
    """Warm-start-chained sweep over ascending depths.

    ``seed_fn(p, repeat)`` supplies per-repeat seeds (defaults to
    ``1000 * p + repeat``); ``on_depth`` fires after each completed depth.
    ``done(p)`` returns the repeats of depth ``p`` that are already known
    (see ``optimise_at_depth``); the warm start chains from the best of the
    merged repeats.
    """
    depths = list(depths)
    if depths != sorted(depths) or len(set(depths)) != len(depths):
        raise ValueError("depths must be strictly ascending")
    seed_fn = seed_fn or (lambda p, j: 1000 * p + j)
    results = []
    warm = None
    for p in depths:
        seeds = [seed_fn(p, j) for j in range(repeats)]
        if warm is not None and warm.params.depth != p - 1:
            warm = None  # chain only links consecutive depths
        dr = optimise_at_depth(
            spec, table, grid, p, warm, repeats, seeds, options, workers,
            done(p) if done is not None else None,
        )
        results.append(dr)
        warm = dr.best
        if on_depth is not None:
            on_depth(dr)
    return results
