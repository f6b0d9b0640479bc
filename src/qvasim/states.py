"""Statevectors over the solution grid: constructors, expectation, sampling."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .grid import ObjectiveTable, SolutionGrid, along_axis

logger = logging.getLogger(__name__)

# Renormalise (and log) only past this drift; smaller deviations are left
# untouched so kernel bugs surface in the norm instead of being hidden.
RENORM_THRESHOLD = 1e-12


@dataclass
class StateVector:
    """K complex amplitudes with unit norm.

    ``tensor_shape`` records the (N, ..., N) layout used by dimension-wise
    transforms; grid dimension d is tensor axis ``grid.tensor_axis(d, D)``, so
    the flat index k has dimension 0 in its least-significant base-N digits.
    """

    amplitudes: np.ndarray
    tensor_shape: tuple[int, ...]

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if self.amplitudes.size != int(np.prod(self.tensor_shape)):
            raise ValueError(
                f"{self.amplitudes.size} amplitudes do not fill shape {self.tensor_shape}"
            )

    @property
    def total_points(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return probabilities_of(self.amplitudes)

    def norm_drift(self) -> float:
        """|1 - squared norm|, from one dot product of the ``float64`` view with itself."""
        pairs = self.amplitudes.view(np.float64)
        return abs(1.0 - float(pairs.dot(pairs)))

    def renormalised(self) -> "StateVector":
        """Rescale to unit norm if drift exceeds the threshold (logged)."""
        amps = renormalise(self.amplitudes, self.norm_drift())
        return self if amps is self.amplitudes else StateVector(amps, self.tensor_shape)


# Array-level helpers shared by StateVector and the ansatz propagator, which
# works on bare amplitude arrays.


def probabilities_of(
    amplitudes: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """re^2 + im^2 per amplitude, written into ``out`` when given.

    ``scratch`` is a second K-float buffer for the imaginary squares; with
    both given nothing state-sized is allocated.
    """
    probabilities = np.square(amplitudes.real, out=out)
    return np.add(probabilities, np.square(amplitudes.imag, out=scratch), out=probabilities)


def renormalise(amplitudes: np.ndarray, drift: float, out: np.ndarray | None = None) -> np.ndarray:
    """``amplitudes`` itself if ``drift`` is within the threshold, else rescaled (logged).

    The rescaled state is written into ``out`` when given, which may be
    ``amplitudes`` itself.
    """
    if drift <= RENORM_THRESHOLD:
        return amplitudes
    logger.warning("renormalising state with norm drift %.3e", drift)
    return np.divide(amplitudes, np.sqrt(np.sum(probabilities_of(amplitudes))), out=out)


@dataclass(frozen=True)
class WavepacketSpec:
    """Centres and widths of a separable Gaussian initial state."""

    centres: np.ndarray
    widths: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "centres", np.atleast_1d(np.asarray(self.centres, float)))
        object.__setattr__(self, "widths", np.atleast_1d(np.asarray(self.widths, float)))
        if self.centres.shape != self.widths.shape:
            raise ValueError("centres and widths must have matching shapes")
        if np.any(self.widths <= 0):
            raise ValueError("wavepacket widths must be positive")


def equal_superposition(total_points: int, tensor_shape: tuple[int, ...] | None = None) -> StateVector:
    """Uniform real amplitudes 1/sqrt(K) over all K states."""
    if total_points < 1:
        raise ValueError("need at least one basis state")
    amps = np.full(total_points, 1.0 / np.sqrt(total_points), dtype=np.complex128)
    return StateVector(amps, tensor_shape or (total_points,))


def grid_superposition(grid: SolutionGrid) -> StateVector:
    return equal_superposition(grid.total_points, grid.tensor_shape)


def _wavepacket_profiles(grid: SolutionGrid, spec: WavepacketSpec) -> np.ndarray:
    """Each dimension's unnormalised Gaussian over its axis, as a (D, N) array."""
    if spec.centres.shape != (grid.dims,):
        raise ValueError(
            f"wavepacket has {spec.centres.size} dimensions, grid has {grid.dims}"
        )
    profiles = np.empty((grid.dims, grid.points_per_dim))
    for d in range(grid.dims):
        x = grid.axis_coords(d)
        profiles[d] = np.exp(-((x - spec.centres[d]) ** 2) / (2.0 * spec.widths[d] ** 2))
    return profiles


def _normalised(values: np.ndarray, norm) -> np.ndarray:
    if np.any(norm == 0.0):
        raise ValueError("wavepacket underflowed to zero on this grid; widen sigma")
    return values / norm


def gaussian_wavepacket(grid: SolutionGrid, spec: WavepacketSpec) -> StateVector:
    """Normalised separable Gaussian over the grid, real positive amplitudes."""
    amps = np.ones(grid.tensor_shape)
    for d, profile in enumerate(_wavepacket_profiles(grid, spec)):
        amps = amps * along_axis(profile, d, grid.dims)
    flat = amps.ravel()
    return StateVector(_normalised(flat, np.sqrt(np.sum(flat**2))), grid.tensor_shape)


def wavepacket_axes(grid: SolutionGrid, spec: WavepacketSpec) -> np.ndarray:
    """The wavepacket as D normalised per-dimension vectors, a (D, N) array.

    Their outer product is ``gaussian_wavepacket`` up to rounding.
    """
    profiles = _wavepacket_profiles(grid, spec)
    return _normalised(profiles, np.sqrt(np.sum(profiles**2, axis=1, keepdims=True)))


def expectation(state: StateVector, table: ObjectiveTable) -> float:
    """<Q> = sum_k f_k |amplitude_k|^2."""
    if table.values.size != state.total_points:
        raise ValueError(
            f"table has {table.values.size} values, state has {state.total_points}"
        )
    return float(table.values.dot(state.probabilities()))


def sample(state: StateVector, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Draw ``shots`` i.i.d. basis-state indices from |amplitude|^2.

    Inverse-CDF sampling on the cumulative probability array: O(K) setup and
    O(log K) per shot, exact for the stored distribution.
    """
    return sample_of(state.probabilities(), rng, shots)


def sample_of(probabilities: np.ndarray, rng: np.random.Generator, shots: int) -> np.ndarray:
    """``sample`` on a bare probability array, which it leaves untouched."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    drift = abs(1.0 - float(probabilities.sum()))
    if drift > 1e-8:
        raise ValueError(f"state is not normalised (norm drift {drift:.3e})")
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    draws = rng.random(shots)
    return np.searchsorted(cdf, draws, side="right").astype(np.int64)
