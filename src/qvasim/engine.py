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
  reported with the repeat.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import optimize as sciopt

from .ansatz import Algorithm, AnsatzSpec, ParameterVector, Propagator
from .grid import ObjectiveTable, SolutionGrid
from .states import StateVector, WavepacketSpec

# Importable from this module for the benchmark's tracer (bench/tracing.py),
# which rebinds them here; the engine evaluates through a Propagator.
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

    ``max_iterations`` is passed to scipy's ``maxiter``, and scipy counts the
    initial simplex as its first iteration: a run stopped by this cap reports
    ``NelderMeadResult.iterations == max_iterations - 1`` simplex steps.
    ``max_evaluations`` is passed to ``maxfev`` and bounds scipy's own calls;
    the starting-point check adds one more evaluation.
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
    included. ``iterations`` counts the simplex steps reported to the
    iteration callback; the initial simplex is not counted, and a step cut
    short by the evaluation cap is counted. It always equals the number of
    lines one call appends to ``trace_path``.
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

    Terminates when both the simplex spread and the value spread fall below
    their tolerances, at the iteration cap or at the evaluation cap. With
    bounds set, evaluation points are clamped onto the boundary.
    ``trace_path`` appends one JSON line per simplex step, numbered from 1:
    iteration index, best value, parameter vector. Steps are counted by the
    callback whether or not a trace is written, so the trace and the
    reported ``iterations`` agree on every exit.
    """
    options = options or OptimiserOptions()
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("starting point must be finite")
    bounds = None
    start = x0
    if options.bounds is not None:
        lo, hi = _bound_arrays(options.bounds)
        bounds = sciopt.Bounds(lo, hi)
        start = np.clip(x0, lo, hi)
    f0 = float(objective(start))
    if not np.isfinite(f0):
        raise ValueError(f"objective is not finite at the starting point ({f0})")
    scipy_options = {
        "maxiter": options.max_iterations,
        "xatol": options.simplex_tolerance,
        "fatol": options.value_tolerance,
        "adaptive": options.adaptive,
    }
    if options.max_evaluations is not None:
        scipy_options["maxfev"] = options.max_evaluations
    # scipy's nit counts the initial simplex but the callback fires once per
    # step, except that a step cut by maxfev is reported without raising nit;
    # counting here keeps iterations and the trace in step on every exit.
    trace_file = open(trace_path, "a") if trace_path is not None else None
    counter = [0]

    def callback(intermediate_result):
        counter[0] += 1
        if trace_file is not None:
            trace_file.write(
                json.dumps(
                    {
                        "iteration": counter[0],
                        "expectation": float(intermediate_result.fun),
                        "params": [float(v) for v in intermediate_result.x],
                    }
                )
                + "\n"
            )

    try:
        res = sciopt.minimize(
            objective,
            start,
            method="Nelder-Mead",
            bounds=bounds,
            options=scipy_options,
            callback=callback,
        )
    finally:
        if trace_file is not None:
            trace_file.close()
    return NelderMeadResult(
        x=np.asarray(res.x, dtype=float),
        value=float(res.fun),
        evaluations=int(res.nfev) + 1,  # +1 for the starting-point check above
        iterations=counter[0],
    )


def _bound_arrays(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(bounds, dtype=float)
    return b[:, 0], b[:, 1]


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


def _draw_layer(rng: np.random.Generator, times_per_layer: int) -> tuple[float, np.ndarray]:
    gamma = rng.uniform(*GAMMA_RANGE)
    times = rng.uniform(*WALK_TIME_RANGE, size=times_per_layer)
    return gamma, times


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
            gammas[layer], times[layer] = _draw_layer(rng, m)
    return ParameterVector(gammas, times)


def _qowe_bounds(p: int, times_per_layer: int, halfwidth: float) -> np.ndarray:
    """Layer-major bounds matching ParameterVector.flatten()."""
    rows = []
    for _ in range(p):
        rows.append((QOWE_GAMMA0 - halfwidth, QOWE_GAMMA0 + halfwidth))
        rows.extend([(0.0, QOWE_T0 + halfwidth)] * times_per_layer)
    return np.asarray(rows)


def _expand_halfwidth_to_cover(halfwidth: float, params: ParameterVector) -> float:
    """Smallest halfwidth in the 0.1 * 1.2^n ladder covering the warm params."""
    needed_gamma = float(np.max(np.abs(params.gammas - QOWE_GAMMA0))) if params.depth else 0.0
    needed_t = float(np.max(params.walk_times - QOWE_T0)) if params.walk_times.size else 0.0
    needed = max(needed_gamma, needed_t)
    while halfwidth < needed and halfwidth < QOWE_MAX_HALFWIDTH:
        halfwidth *= QOWE_GROWTH
    return min(halfwidth, QOWE_MAX_HALFWIDTH)


def draw_wavepacket_centres(grid: SolutionGrid, rng: np.random.Generator) -> np.ndarray:
    """Uniform centres over the domain shrunk by one eighth of its span per side."""
    span = grid.upper - grid.lower
    return rng.uniform(grid.lower + span / 8.0, grid.upper - span / 8.0)


def run_single_repeat(
    spec: AnsatzSpec,
    table: ObjectiveTable,
    grid: SolutionGrid,
    warm: RepeatResult | None,
    seed: int,
    options: OptimiserOptions,
    identity_extension: bool,
) -> RepeatResult:
    started = time.perf_counter()
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
    propagator = Propagator(spec, table, grid)

    if spec.algorithm is Algorithm.QOWE:
        result, halfwidth, evaluations = _qowe_expansion_loop(
            propagator.expectation, params0, spec, grid.dims, warm, options
        )
    else:
        result = nelder_mead(propagator.expectation, params0.flatten(), options)
        halfwidth = None
        evaluations = result.evaluations

    best_params = ParameterVector.unflatten(
        result.x, spec.depth, spec.walk_times_per_layer(grid.dims)
    )
    state = propagator.state(result.x)
    return RepeatResult(
        params=best_params,
        expectation=float(result.value),
        evaluations=evaluations,
        seed=seed,
        state=state,
        wall_time=time.perf_counter() - started,
        wavepacket_centres=centres,
        bound_halfwidth=halfwidth,
        identity_extension=identity_extension,
    )


def _qowe_expansion_loop(
    fn: Callable[[np.ndarray], float],
    params0: ParameterVector,
    spec: AnsatzSpec,
    dims: int,
    warm: RepeatResult | None,
    options: OptimiserOptions,
) -> tuple[NelderMeadResult, float, int]:
    """Re-run the optimisation with 1.2x wider bounds while the optimum pins.

    The starting half-width carries over from the warm start (and is widened,
    if necessary, until the warm parameters are feasible) so a warm-started
    optimisation never clamps its own starting point.
    """
    m = spec.walk_times_per_layer(dims)
    halfwidth = QOWE_INITIAL_HALFWIDTH
    if warm is not None and warm.bound_halfwidth is not None:
        halfwidth = warm.bound_halfwidth
    halfwidth = _expand_halfwidth_to_cover(halfwidth, params0)
    x0 = params0.flatten()
    evaluations = 0
    while True:
        bounds = _qowe_bounds(spec.depth, m, halfwidth)
        result = nelder_mead(fn, x0, replace(options, bounds=bounds))
        evaluations += result.evaluations
        pinned = np.any(
            (np.abs(result.x - bounds[:, 0]) <= BOUND_HIT_TOL)
            | (np.abs(result.x - bounds[:, 1]) <= BOUND_HIT_TOL)
        )
        if not pinned or halfwidth >= QOWE_MAX_HALFWIDTH:
            return result, halfwidth, evaluations
        halfwidth = min(halfwidth * QOWE_GROWTH, QOWE_MAX_HALFWIDTH)


def _repeat_task(args):
    return run_single_repeat(*args)


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


def parallel_map(fn: Callable, tasks: Sequence, workers: int | None = None) -> list:
    """``[fn(t) for t in tasks]``, in a process pool when workers and tasks exceed one.

    ``workers`` is resolved by ``resolve_workers``. In a pool, ``fn``, the
    tasks and the results are pickled; otherwise everything runs in this process.
    """
    workers = resolve_workers(workers)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


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
    places in repeat order.
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
    tasks = [
        (spec, table, grid, warm, seed_list[j], options, warm is not None and j == 0)
        for j in range(repeats)
        if j not in done
    ]
    fresh = iter(parallel_map(_repeat_task, tasks, workers))
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
