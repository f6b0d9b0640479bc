"""Ansatz composition: alternating phase-shift and mixer layers.

Two evaluators prepare the ansatz state: the full ``Propagator``, over all
K amplitudes, and the ``ProductPropagator``, over D vectors of N entries,
for QMOA and QOWE on an additive objective. Each holds two prepared
``(factors, step)`` pairs of ``qvasim.mixers``, its phase shift and its
walk, and both run one layer loop, ``_Evaluator._evolve``, on a block of
parameter vectors, one per row of the state block and ``spare`` that
``_Evaluator`` owns: rows of ``(K,)`` amplitudes on the full path, of
``(D, N)`` vectors on the product path. ``evaluator`` picks between them
from the spec's family and the table alone. ``apply_ansatz`` and
``objective_value`` always take the full path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import states
from .grid import ObjectiveTable, SolutionGrid, additive_parts
from .mixers import (
    CirculantGraph,
    MomentumGrid,
    prepare_axis_phase,
    prepare_axis_qmoa,
    prepare_axis_qowe,
    prepare_complete,
    prepare_hypercube,
    prepare_phase,
    prepare_qmoa,
    prepare_qowe,
)

# The public kernels stay importable from this module: the benchmark's tracer
# (bench/tracing.py) rebinds them here.
from .mixers import (  # noqa: F401
    hypercube_mixer,
    phase_shift,
    qaoa_complete_mixer,
    qmoa_mixer,
    qowe_mixer,
)
from .states import (
    StateVector,
    WavepacketSpec,
    gaussian_wavepacket,
    grid_superposition,
    probabilities_of,
    renormalise,
    sample_of,
    wavepacket_axes,
)


# Cap on rows x K of one Propagator's workspace, and on rows x D x N of a
# ProductPropagator's; either has at least one row. Batching shares numpy's
# per-call cost between rows, which pays at small K only: measured per-row
# times (README, "Evaluation cost") fall with rows at K = 2^8 and rise at 2^15.
BATCH_POINTS = 4096


class Algorithm(enum.Enum):
    QMOA = "qmoa"
    QAOA_COMPLETE = "qaoa_complete"
    QAOA_HYPERCUBE = "qaoa_hypercube"
    QOWE = "qowe"


@dataclass(frozen=True)
class AnsatzSpec:
    """One variational algorithm configuration.

    ``graphs`` supplies the per-dimension circulant graphs (QMOA only).
    ``shared_walk_time`` collapses the QMOA walk times to one parameter per
    layer instead of one per dimension. ``initial_state`` is one of:

    * "equal": the equal superposition over the grid;
    * a WavepacketSpec: that Gaussian wavepacket, used as given;
    * "gaussian" (QOWE only): a wavepacket whose centres the optimiser draws
      per repeat, with width 1/sqrt(2).
    """

    algorithm: Algorithm
    depth: int
    graphs: tuple[CirculantGraph, ...] | None = None
    shared_walk_time: bool = False
    initial_state: str | WavepacketSpec = "equal"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("ansatz depth must be >= 1")
        if self.algorithm is Algorithm.QMOA and self.graphs is None:
            raise ValueError("QMOA needs one circulant graph per dimension")
        if self.algorithm is not Algorithm.QMOA and self.graphs is not None:
            raise ValueError("only QMOA takes mixing graphs")
        mode = self.initial_state
        if isinstance(mode, str) and mode not in ("equal", "gaussian"):
            raise ValueError(
                "initial_state must be 'equal', 'gaussian' or a WavepacketSpec, "
                f"got {mode!r}"
            )
        if mode == "gaussian" and self.algorithm is not Algorithm.QOWE:
            raise ValueError("only QOWE takes a 'gaussian' initial state")

    def walk_times_per_layer(self, dims: int) -> int:
        if self.algorithm in (Algorithm.QAOA_COMPLETE, Algorithm.QAOA_HYPERCUBE):
            return 1
        if self.algorithm is Algorithm.QMOA and self.shared_walk_time:
            return 1
        return dims

    def params_per_layer(self, dims: int) -> int:
        return 1 + self.walk_times_per_layer(dims)

    def total_params(self, dims: int) -> int:
        return self.depth * self.params_per_layer(dims)

    def at_depth(self, depth: int) -> "AnsatzSpec":
        return replace(self, depth=depth)

    def with_initial_state(self, initial_state) -> "AnsatzSpec":
        return replace(self, initial_state=initial_state)


@dataclass
class ParameterVector:
    """Layer-major variational parameters: gamma then walk time(s) per layer."""

    gammas: np.ndarray
    walk_times: np.ndarray

    def __post_init__(self) -> None:
        self.gammas = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        self.walk_times = np.atleast_2d(np.asarray(self.walk_times, dtype=float))
        if self.walk_times.shape[0] != self.gammas.size:
            raise ValueError("one walk-time row per layer required")
        if not (np.all(np.isfinite(self.gammas)) and np.all(np.isfinite(self.walk_times))):
            raise ValueError("parameters must be finite")

    @property
    def depth(self) -> int:
        return self.gammas.size

    def flatten(self) -> np.ndarray:
        return np.hstack([self.gammas[:, None], self.walk_times]).ravel()

    @classmethod
    def unflatten(cls, flat: np.ndarray, depth: int, times_per_layer: int) -> "ParameterVector":
        flat = np.asarray(flat, dtype=float)
        expected = depth * (1 + times_per_layer)
        if flat.size != expected:
            raise ValueError(f"expected {expected} parameters, got {flat.size}")
        table = flat.reshape(depth, 1 + times_per_layer)
        return cls(table[:, 0].copy(), table[:, 1:].copy())

    def matches(self, spec: AnsatzSpec, dims: int) -> bool:
        return (
            self.depth == spec.depth
            and self.walk_times.shape[1] == spec.walk_times_per_layer(dims)
        )


def initial_state(spec: AnsatzSpec, grid: SolutionGrid) -> StateVector:
    if isinstance(spec.initial_state, WavepacketSpec):
        return gaussian_wavepacket(grid, spec.initial_state)
    _check_drawn(spec)
    return grid_superposition(grid)


def _initial_axes(spec: AnsatzSpec, grid: SolutionGrid) -> np.ndarray:
    """``initial_state`` as a product state: a (D, N) block of per-dimension vectors."""
    if isinstance(spec.initial_state, WavepacketSpec):
        return wavepacket_axes(grid, spec.initial_state).astype(np.complex128)
    _check_drawn(spec)
    n = grid.points_per_dim
    return np.full((grid.dims, n), 1.0 / np.sqrt(n), dtype=np.complex128)


def _check_drawn(spec: AnsatzSpec) -> None:
    if spec.initial_state == "gaussian":
        raise ValueError(
            "a 'gaussian' initial state has no centres yet; the optimiser draws "
            "them, or pass a WavepacketSpec"
        )


def _outer(axes: np.ndarray) -> np.ndarray:
    """The flat outer product of a row viewed as ``(vectors, entries)``, vector 0 fastest.

    A new array: a ``(K,)`` row is one vector, and its product is a copy with the same bits.
    """
    axes = axes.reshape(-1, axes.shape[-1])
    flat = axes[-1].copy()
    for vector in axes[-2::-1]:
        flat = np.multiply.outer(flat, vector).ravel()
    return flat


class _Evaluator:
    """What both evaluators share: the workspace, the layer loop, the measurements and ``state``.

    ``initial``, which every evaluation starts from, is one row: ``(K,)``
    amplitudes on the full path, ``(D, N)`` vectors on the product path.
    The workspace, allocated once, is two complex blocks of ``(rows,) +
    initial.shape`` with ``rows = max(1, BATCH_POINTS // initial.size)``:
    the state block, which every step updates in place, and ``spare``, the
    steps' only scratch, whose ``float64`` halves hold a chunk's
    probabilities. ``_layers`` splits parameters layer-major, ``_evolve``
    runs the layers and ``_check_norms`` is the norm check after each layer;
    ``samples`` and ``state`` take a row's K entries from ``_outer``, and
    ``_expectations`` each row's <Q>: ``_offset`` plus one ``np.vecdot`` of
    its probabilities, flattened, with ``_values``. A subclass defines only
    its constructor, which supplies ``_initial``, ``_values``, ``_offset``,
    and ``_phase`` and ``_walk``, its ``(factors, step)`` pairs of ``qvasim.mixers``.
    """

    def __init__(self, spec: AnsatzSpec, grid: SolutionGrid, initial: np.ndarray):
        self._initial = initial
        self.rows = max(1, BATCH_POINTS // initial.size)
        self.n_params = spec.total_params(grid.dims)
        self._width = spec.params_per_layer(grid.dims)
        self._shape = grid.tensor_shape
        shared = spec.algorithm is Algorithm.QMOA and spec.shared_walk_time
        self._shared_dims = grid.dims if shared else None  # one walk time drives every dimension
        shape = (self.rows,) + initial.shape
        self._states = (np.empty(shape, np.complex128), np.empty(shape, np.complex128))
        self._views: dict[int, tuple] = {}

    def _workspace(self, count: int) -> tuple:
        """The ``count``-row views: state block, ``spare``, the state block as a
        ``(count, vectors, entries)`` block for ``_check_norms``, and the two
        halves of ``spare``'s ``float64`` view, each shaped as the state block.
        """
        state, spare = (b[:count] for b in self._states)
        halves = spare.reshape(-1).view(np.float64).reshape((2,) + state.shape)
        return state, spare, state.reshape(count, -1, state.shape[-1]), *halves

    def _layers(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gammas, ``(p, count, 1)``, and walk times, ``(p, count, times)``, layer-major."""
        layers = points.reshape(len(points), -1, self._width).swapaxes(0, 1)
        times = layers[:, :, 1:]
        if self._shared_dims is not None:
            times = times.repeat(self._shared_dims, axis=-1)
        return layers[:, :, :1], times

    def _evolve(self, points: np.ndarray, drift_logs: list[list[float]] | None) -> tuple:
        """Run every layer for each row of a checked block of at most ``rows`` rows.

        Each pair's factors are formed once, for all layers, with the layer
        on axis 0, so zipping them yields each layer's arguments; a layer is
        the phase step, the walk step and the norm check. Returns the state
        block and the two float halves of ``spare``. ``drift_logs``, one list
        per row, collects each row's per-layer drifts seen before any
        correction. A vector past the threshold is rescaled in place.
        """
        count = len(points)
        views = self._views.get(count)
        if views is None:  # built on a row count's first use
            views = self._views[count] = self._workspace(count)
        state, spare, norm_block, *buffers = views
        gammas, times = self._layers(points)
        (phase_factors, phase), (walk_factors, walk) = self._phase, self._walk
        np.copyto(state, self._initial)
        for phase_args, walk_args in zip(zip(*phase_factors(gammas)), zip(*walk_factors(times))):
            phase(state, spare, *phase_args)
            walk(state, spare, *walk_args)
            self._check_norms(norm_block, drift_logs)
        return (state, *buffers)

    @staticmethod
    def _check_norms(block: np.ndarray, drift_logs: list[list[float]] | None) -> None:
        """The norm check of a ``(rows, vectors, entries)`` block, one ``np.vecdot`` over its pairs.

        ``drift_logs``, one list per row, collects |1 - prod of the row's
        squared norms|; a vector past the 1e-12 threshold is rescaled in place.
        """
        pairs = block.view(np.float64)
        norms = np.vecdot(pairs, pairs)
        drifts = np.abs(norms - 1.0)
        if drift_logs is not None:
            for log, row in zip(drift_logs, norms):
                log.append(abs(1.0 - float(np.prod(row))))
        if drifts.max() > states.RENORM_THRESHOLD:  # seldom: one reduction decides
            for r, v in zip(*np.nonzero(drifts > states.RENORM_THRESHOLD)):
                renormalise(block[r, v], drifts[r, v], block[r, v])

    def _block(self, points: np.ndarray) -> np.ndarray:
        """A 2-D block of parameter vectors, one per row, checked."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got shape {points.shape}")
        if not np.logical_and.reduce(np.isfinite(points), axis=None):
            raise ValueError("parameters must be finite")
        return points

    def _chunk_probabilities(self, points: np.ndarray) -> Iterator[np.ndarray]:
        """The probabilities of each chunk of ``rows`` rows, in row order, one row per state.

        A block is a view of the workspace, valid until the next is drawn.
        """
        for at in range(0, len(points), self.rows):
            yield probabilities_of(*self._evolve(points[at : at + self.rows], None))

    def _expectations(self, points: np.ndarray) -> Iterator[float]:
        for probs in self._chunk_probabilities(points):
            values = self._offset + np.vecdot(probs.reshape(len(probs), -1), self._values)
            yield from values.tolist()

    def expectations(self, points: np.ndarray) -> list[float]:
        """<Q> of the state prepared by each row of ``points``, in row order.

        <Q> is the quantity the optimiser minimises. Rows with equal bytes are
        evolved once, at the first of them.
        """
        points = self._block(points)
        keys = [row.tobytes() for row in points]
        distinct = dict(zip(keys, points))
        values = dict(zip(distinct, self._expectations(np.array(list(distinct.values())))))
        return [values[key] for key in keys]

    def samples(self, points: np.ndarray, rng: np.random.Generator, shots: int) -> list:
        """``shots`` basis-state draws from the state prepared by each row of ``points``.

        The draws are made row by row, in row order, with the one ``rng``;
        equal rows draw again. Each row's draws are ``states.sample_of`` on
        its K probabilities, as ``states.sample`` of ``state(row)`` draws.
        """
        chunks = self._chunk_probabilities(self._block(points))
        return [sample_of(_outer(p), rng, shots) for probs in chunks for p in probs]

    def state(self, flat: np.ndarray, drift_log: list[float] | None = None) -> StateVector:
        """The state prepared by one parameter vector, in a new array.

        ``drift_log`` collects the per-layer drifts seen before any correction.
        """
        logs = None if drift_log is None else [drift_log]
        block = self._evolve(self._block(np.asarray(flat, dtype=float)[None]), logs)[0]
        return StateVector(_outer(block[0]), self._shape)


class Propagator(_Evaluator):
    """Prepares |t, gamma> for one ansatz on one objective table and grid: the full path.

    Built once per (spec at a fixed depth, table, grid) and then called for
    every parameter vector an optimiser tries. Construction validates the
    inputs once and caches what they fix:

    * the initial amplitudes;
    * the phase shift's pair, ``qvasim.mixers.prepare_phase``, which keeps
      the table's distinct values and each point's index into them, so a
      phase shift exponentiates each distinct value once and gathers;
    * the mixer's pair, from ``qvasim.mixers.prepare_qmoa`` and its
      siblings, which keeps only what the mixer fixes.

    It evolves up to ``rows = max(1, BATCH_POINTS // K)`` parameter vectors
    at a time, each in its own row of the workspace, which holds every
    buffer an evaluation writes: ``_Evaluator``'s ``(rows, K)`` state block
    and ``spare``, and one complex entry per objective level and row, the
    phase step's buffer for its level exponentials.

    An evaluation of ``count`` parameter vectors runs on the first ``count``
    rows of each buffer, a ``(count, K)`` block even for one vector; the
    views of each row count are built on its first use. It takes the flat,
    layer-major parameter vectors of ``ParameterVector.flatten``, forms each
    pair's factors for all layers at once and runs the layer loop of
    ``_Evaluator._evolve``. Its steps are those behind ``phase_shift`` and
    the public mixers, on the same operands in the same order, and it checks
    the norm drift of every row after every layer under the 1e-12
    renormalise policy, with ``_check_norms`` on the block viewed as
    ``(count, 1, K)``, so each row's amplitudes equal, bit for bit, those of
    composing ``phase_shift``, the mixer and ``StateVector.renormalised``
    layer by layer, whatever else shares the call. Its ``_values`` are the
    table's values and its ``_offset`` 0.0, so each row's <Q> has the bits
    of ``states.expectation`` of its ``state``.

    Nothing a caller receives aliases the workspace: ``state`` copies its
    row out, so it survives later evaluations.
    The workspace makes a Propagator unsafe to share between threads.
    """

    def __init__(self, spec: AnsatzSpec, table: ObjectiveTable, grid: SolutionGrid):
        if table.values.size != grid.total_points:
            raise ValueError("objective table does not match the grid")
        k = grid.total_points
        super().__init__(spec, grid, initial_state(spec, grid).amplitudes)
        algorithm = spec.algorithm
        if algorithm is Algorithm.QMOA:
            self._walk = prepare_qmoa(spec.graphs, self._shape)
        elif algorithm is Algorithm.QOWE:
            self._walk = prepare_qowe(MomentumGrid.from_grid(grid), self._shape)
        elif algorithm is Algorithm.QAOA_COMPLETE:
            self._walk = prepare_complete((k,))
        else:
            self._walk = prepare_hypercube(k)
        self._level_phases = np.empty((self.rows, table.n_unique), np.complex128)
        self._phase = prepare_phase(table, self._level_phases)
        self._values, self._offset = table.values, 0.0


class ProductPropagator(_Evaluator):
    """A ``Propagator`` for an additive objective, evolving one N-vector per grid dimension.

    For f = c + sum_d a_d(x_d) (``grid.additive_parts``) the phase shift
    exp(-i gamma f) is the product of the per-dimension phases
    exp(-i gamma a_d) and the global phase exp(-i gamma c). QMOA's walk on
    any circulant graphs and QOWE's kinetic walk act on each dimension
    alone, and the equal superposition and the Gaussian wavepacket are
    products too. So the state stays the outer product of D vectors of N
    entries, and an evaluation costs O(p D N) instead of O(p K).

    Its workspace is ``_Evaluator``'s: a ``(rows, D, N)`` complex block of
    ``rows = max(1, BATCH_POINTS // (D N))`` product states, entry (r, d)
    dimension d's vector of row r, and ``spare``, whose ``float64`` halves
    hold a chunk's per-dimension probabilities. Its phase pair
    (``qvasim.mixers.prepare_axis_phase``) multiplies each vector by its
    phases; dimension 0's also carry exp(-i gamma c), so that the outer
    product is the state itself, global phase included. Its walk pair
    (``prepare_axis_qmoa`` or ``prepare_axis_qowe``) walks each vector.
    ``_Evaluator._evolve`` forms both pairs' factors for all layers at once
    and checks each vector's norm drift after every layer under the 1e-12
    renormalise policy. Every operation acts on each vector alone, so a
    row's bits do not depend on what else shares the call.

    Its ``_values`` are the terms a, flattened, and its ``_offset`` c, so
    <Q> is c + sum_d <|phi_d|^2, a_d>. ``samples`` draws with
    ``states.sample_of`` from the outer product of the per-dimension
    probabilities, so for one ``rng`` its draws are the full path's on the
    same state; ``state`` builds the K amplitudes once, as an outer product.
    The results agree with ``Propagator``'s to rounding, not bit for bit.
    """

    def __init__(self, spec: AnsatzSpec, grid: SolutionGrid, parts: tuple[float, np.ndarray]):
        """``parts`` is the table's (c, a) from ``grid.additive_parts``."""
        offset, terms = parts
        super().__init__(spec, grid, _initial_axes(spec, grid))
        if spec.algorithm is Algorithm.QMOA:
            self._walk = prepare_axis_qmoa(spec.graphs, self._shape)
        elif spec.algorithm is Algorithm.QOWE:
            self._walk = prepare_axis_qowe(MomentumGrid.from_grid(grid), self._shape)
        else:
            raise ValueError(f"{spec.algorithm.value} does not keep a product state")
        self._values, self._offset = terms.reshape(-1), offset
        levels = terms.astype(np.complex128)
        levels[0] += offset
        self._phase = prepare_axis_phase(levels)


def evaluator(
    spec: AnsatzSpec, table: ObjectiveTable, grid: SolutionGrid
) -> Propagator | ProductPropagator:
    """The evaluator of ``spec`` on ``table`` and ``grid``; the engine and hybrid build through it.

    QMOA and QOWE from the equal superposition or a given wavepacket keep a
    product state when ``grid.additive_parts`` finds the table additive, and
    get a ``ProductPropagator``. Every other cell gets the full
    ``Propagator``: QAOA on the complete graph or the hypercube, and any
    table that is not a sum of one-coordinate terms.
    """
    if spec.algorithm in (Algorithm.QMOA, Algorithm.QOWE):
        parts = additive_parts(table, grid)
        if parts is not None:
            return ProductPropagator(spec, grid, parts)
    return Propagator(spec, table, grid)


def apply_ansatz(
    spec: AnsatzSpec,
    params: ParameterVector,
    table: ObjectiveTable,
    grid: SolutionGrid,
    drift_log: list[float] | None = None,
) -> StateVector:
    """Prepare |t, gamma>: initial state, then p phase-shift/mixer layers.

    Norm drift is checked after every layer; drifts beyond the renormalise
    threshold are corrected (and logged by the state). Pass ``drift_log`` to
    collect the per-layer drifts seen before any correction. This is the
    full path; evaluating many parameter vectors is cheaper through one
    ``evaluator``.
    """
    _check_layout(spec, params, grid)
    return Propagator(spec, table, grid).state(params.flatten(), drift_log)


def _check_layout(spec: AnsatzSpec, params: ParameterVector, grid: SolutionGrid) -> None:
    if not params.matches(spec, grid.dims):
        raise ValueError(
            f"parameter layout {params.walk_times.shape} does not match "
            f"{spec.algorithm.value} at depth {spec.depth} in D={grid.dims}"
        )


def objective_value(
    spec: AnsatzSpec,
    params: ParameterVector,
    table: ObjectiveTable,
    grid: SolutionGrid,
) -> float:
    """<Q> of the prepared ansatz state; the quantity the optimiser minimises.

    This is the full path, a ``Propagator``, whatever the table. The
    engine's evaluator (``evaluator``) agrees with it to within 1e-12 of
    the table's range: bit for bit where it is a ``Propagator``, to
    rounding where it is a ``ProductPropagator``.
    """
    _check_layout(spec, params, grid)
    return Propagator(spec, table, grid).expectations(params.flatten()[None])[0]
