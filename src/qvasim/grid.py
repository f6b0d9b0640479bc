"""Discretised search domains and tabulated objective values.

A solution grid covers a rectangular domain with ``N`` points per dimension
(both endpoints on-grid) and addresses the ``K = N**D`` points with a single
vectorised index ``k`` in which dimension 0 varies fastest, so in the (N,)*D
tensor dimension d lies on tensor axis ``tensor_axis(d, D)`` = D-1-d.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_QUBIT_CAP = 26

# ``additive_parts`` accepts a per-axis decomposition that rebuilds the table
# to this fraction of its range.
ADDITIVE_RTOL = 1e-12


class GridError(ValueError):
    """Raised for invalid grid geometry or indexing requests."""


@dataclass(frozen=True)
class SolutionGrid:
    """Tensor grid over a rectangular domain, endpoints inclusive."""

    dims: int
    points_per_dim: int
    lower: np.ndarray
    upper: np.ndarray
    spacing: np.ndarray

    @property
    def total_points(self) -> int:
        return self.points_per_dim**self.dims

    @property
    def qubits(self) -> int:
        return self.dims * int(np.log2(self.points_per_dim))

    @property
    def tensor_shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.dims

    def axis_coords(self, dim: int) -> np.ndarray:
        """Coordinate values along one dimension, ``x_d = lower_d + n * dx_d``.

        The final point is pinned to the upper bound so both declared
        endpoints are on-grid bit-exactly.
        """
        if not 0 <= dim < self.dims:
            raise GridError(f"dimension {dim} out of range for D={self.dims}")
        coords = self.lower[dim] + np.arange(self.points_per_dim) * self.spacing[dim]
        coords[-1] = self.upper[dim]
        return coords

    def coordinate_columns(self) -> np.ndarray:
        """Per-dimension coordinate of every grid point, shape (D, K).

        Column k holds the coordinates of point k; dimension 0 occupies the
        least-significant base-N digits of k.
        """
        cols = np.empty((self.dims,) + self.tensor_shape)
        for d in range(self.dims):
            cols[d] = along_axis(self.axis_coords(d), d, self.dims)
        return cols.reshape(self.dims, self.total_points)


def tensor_axis(dim: int, dims: int) -> int:
    """Tensor axis of grid dimension ``dim`` in an (N,)*D tensor; its own inverse."""
    return dims - 1 - dim


def along_axis(vector: np.ndarray, dim: int, dims: int) -> np.ndarray:
    """A length-N vector of dimension ``dim``, shaped to broadcast along its tensor axis."""
    shape = [1] * dims
    shape[tensor_axis(dim, dims)] = -1
    return np.reshape(vector, shape)


def make_grid(
    lower: Sequence[float],
    upper: Sequence[float],
    n_points: int,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> SolutionGrid:
    """Build an inclusive-endpoint grid with ``n_points`` per dimension.

    ``n_points`` must be a power of two (the grid is addressed by qubits) and
    the total register size ``D * log2(N)`` must not exceed ``qubit_cap``.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
        raise GridError("lower and upper must be equal-length non-empty vectors")
    if np.any(upper <= lower):
        bad = int(np.argmax(upper <= lower))
        raise GridError(
            f"inverted bounds in dimension {bad}: "
            f"[{lower[bad]}, {upper[bad]}] has upper <= lower"
        )
    if n_points < 2 or n_points & (n_points - 1) != 0:
        raise GridError(f"points per dimension must be a power of two >= 2, got {n_points}")
    spacing = (upper - lower) / (n_points - 1)
    grid = SolutionGrid(lower.size, n_points, lower, upper, spacing)
    if grid.qubits > qubit_cap:
        raise GridError(
            f"grid needs {grid.qubits} qubits (D={grid.dims}, N={n_points}), "
            f"exceeding the cap of {qubit_cap}; raise qubit_cap to override"
        )
    return grid


def index_to_coords(grid: SolutionGrid, k: int) -> np.ndarray:
    """Coordinates of grid point ``k``; dimension 0 varies fastest."""
    if not 0 <= k < grid.total_points:
        raise GridError(f"index {k} out of range for K={grid.total_points}")
    digits = np.unravel_index(int(k), grid.tensor_shape)
    return np.array(
        [grid.axis_coords(d)[digits[tensor_axis(d, grid.dims)]] for d in range(grid.dims)]
    )


def coords_to_index(grid: SolutionGrid, coords: Sequence[float]) -> int:
    """Vectorised index of the grid point with the given coordinates."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (grid.dims,):
        raise GridError(f"expected {grid.dims} coordinates, got shape {coords.shape}")
    digits = np.rint((coords - grid.lower) / grid.spacing).astype(int)
    if np.any(digits < 0) or np.any(digits >= grid.points_per_dim):
        raise GridError(f"coordinates {coords} lie outside the grid")
    by_axis = [digits[tensor_axis(a, grid.dims)] for a in range(grid.dims)]
    return int(np.ravel_multi_index(by_axis, grid.tensor_shape))


@dataclass(frozen=True)
class ObjectiveTable:
    """Objective values over a grid plus ranking metadata.

    ``unique_sorted_values`` deduplicates with exact floating-point equality.
    ``level_index`` maps every grid point to its entry in
    ``unique_sorted_values``, so ``unique_sorted_values[level_index]`` equals
    ``values``; the phase shift exponentiates each distinct value once, and a
    point's 1-based rank among the unique values is its ``level_index + 1``.
    """

    values: np.ndarray
    min_value: float
    max_value: float
    argmin_index: int
    unique_sorted_values: np.ndarray = field(repr=False)
    level_index: np.ndarray = field(repr=False)

    @property
    def n_unique(self) -> int:
        return self.unique_sorted_values.size


def columnwise(fn: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """``fn`` as a map from a (D, M) block of coordinate columns to its M values.

    The first call decides how ``fn`` is evaluated, and every later call
    evaluates it the same way. ``fn`` is given the whole block and may
    return the (M,) value vector. A callable that returns another shape, or
    raises the ``TypeError`` or ``ValueError`` of a scalar-only function
    given arrays, is evaluated in a loop over single points of shape (D,).
    The loop costs one Python call per point, so falling back to it is
    logged once, as a warning. Any other exception propagates.
    """

    def blockwise(cols):
        return np.asarray(fn(cols), dtype=float)

    def pointwise(cols):
        m = cols.shape[1]
        return np.fromiter((float(fn(cols[:, j])) for j in range(m)), dtype=float, count=m)

    def first(cols):
        nonlocal evaluate
        m = cols.shape[1]
        try:
            values = blockwise(cols)
            reason = None if values.shape == (m,) else f"returned shape {values.shape}, not ({m},)"
        except (TypeError, ValueError) as exc:
            reason = f"raised {type(exc).__name__}"
        if reason is None:
            evaluate = blockwise
            return values
        logger.warning(
            "objective is not vectorised (%s); evaluating K=%d points one at a time", reason, m
        )
        evaluate = pointwise
        return pointwise(cols)

    evaluate = first
    return lambda cols: evaluate(cols)


def build_objective(grid: SolutionGrid, fn: Callable) -> ObjectiveTable:
    """Evaluate ``fn`` on every grid point and collect ranking metadata.

    ``fn`` is evaluated by ``columnwise`` on the (D, K) coordinate columns.
    """
    values = columnwise(fn)(grid.coordinate_columns())
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise ValueError(
            f"objective is not finite at grid point k={bad}, "
            f"x={index_to_coords(grid, bad)}"
        )
    return _table(values)


def table_from_values(values: Sequence[float]) -> ObjectiveTable:
    """Build a table directly from a value vector (oracle-style objectives)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty vector")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return _table(values)


def _table(values: np.ndarray) -> ObjectiveTable:
    argmin = int(np.argmin(values))  # np.argmin returns the smallest index on ties
    levels, level_index = np.unique(values, return_inverse=True)
    return ObjectiveTable(
        values=values,
        min_value=float(values[argmin]),
        max_value=float(np.max(values)),
        argmin_index=argmin,
        unique_sorted_values=levels,
        level_index=level_index,
    )


def additive_parts(table: ObjectiveTable, grid: SolutionGrid) -> tuple[float, np.ndarray] | None:
    """(c, a) with f = c + sum_d a_d(x_d) on the grid, or None if the table is not such a sum.

    c is the grand mean of the table and row d of the (D, N) array ``a``
    is dimension d's marginal mean less c. They are returned only if they
    rebuild every value to within ``ADDITIVE_RTOL`` of the table's range.
    """
    if table.values.size != grid.total_points:
        return None
    dims = grid.dims
    tensor = table.values.reshape(grid.tensor_shape)
    c = float(tensor.mean())
    a = np.empty((dims, grid.points_per_dim))
    error = np.full(grid.tensor_shape, c)  # the rebuilt table, then its error in place
    for d in range(dims):
        others = tuple(ax for ax in range(dims) if ax != tensor_axis(d, dims))
        a[d] = tensor.mean(axis=others) - c
        error += along_axis(a[d], d, dims)
    error -= tensor
    np.abs(error, out=error)
    return (c, a) if error.max() <= ADDITIVE_RTOL * (table.max_value - table.min_value) else None
