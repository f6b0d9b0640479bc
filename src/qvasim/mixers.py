"""Phase-shift and mixing unitaries.

Conventions fixed here and relied on everywhere else:

* The discrete Fourier transform is the unitary one, kernel
  ``exp(-2j*pi*m*n/N) / sqrt(N)`` (``numpy.fft`` with ``norm="ortho"``).
* Grid dimension d lives on tensor axis ``grid.tensor_axis(d, D)`` = D-1-d
  (flat index k carries dimension 0 in its least-significant base-N digits);
  per-dimension factors are placed there by ``grid.along_axis``.
* The public mixers are pure: they return a new state, leave their input
  unchanged and never renormalise.

Each unitary has one implementation, an array-level kernel (``apply_phase``,
``qmoa_walk``, ``complete_walk``, ``hypercube_walk``, ``qowe_walk``) that
takes its precomputed factors and the buffers it writes into as arguments
and allocates no state-sized array of its own. ``apply_phase`` writes into
an output buffer; the walks overwrite the array they are given, using a
scratch buffer (and, for the hypercube, a spare state buffer), and return
the array that holds the result. The public functions taking a
``StateVector`` validate their inputs, build the factors, allocate fresh
buffers and call the kernel; ``qvasim.ansatz.Propagator`` builds the factors
and a workspace of buffers once and calls the same kernels, with the same
operands in the same order, for every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.fft as sfft

from .grid import ObjectiveTable, SolutionGrid, along_axis, tensor_axis
from .states import StateVector


def phase_shift(state: StateVector, gamma: float, table: ObjectiveTable) -> StateVector:
    """Multiply amplitude_k by exp(-i*gamma*f_k)."""
    if table.values.size != state.total_points:
        raise ValueError(
            f"table has {table.values.size} values, state has {state.total_points}"
        )
    amps = apply_phase(
        state.amplitudes,
        gamma,
        table.unique_sorted_values,
        table.level_index,
        np.empty_like(state.amplitudes),
        np.empty(table.n_unique, dtype=np.complex128),
    )
    return StateVector(amps, state.tensor_shape)


def apply_phase(
    amplitudes: np.ndarray,
    gamma: float,
    levels: np.ndarray,
    level_index: np.ndarray,
    out: np.ndarray,
    level_phases: np.ndarray,
) -> np.ndarray:
    """Write exp(-i*gamma*f_k) * amplitude_k into ``out`` and return it.

    ``levels[level_index]`` are the objective values f_k (see
    ``ObjectiveTable``). Each distinct value is exponentiated once, into
    ``level_phases`` (one complex entry per level), and gathered; the
    exponential is elementwise, so the result is the same as exponentiating
    all K values. ``out`` must not overlap ``amplitudes``.
    """
    np.multiply(levels, -1j * gamma, out=level_phases)
    np.exp(level_phases, out=level_phases)
    # mode="raise" would gather into a temporary and copy; level_index is in range
    level_phases.take(level_index, out=out, mode="clip")
    np.multiply(out, amplitudes, out=out)
    return out


# --------------------------------------------------------------------------
# Circulant graphs and the QMOA walk
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CirculantGraph:
    """Symmetric circulant graph on ``size`` vertices with 0/1 weights.

    ``connection_set`` holds offsets j in {1, ..., size // 2}; offset j
    couples vertex n to n +/- j (mod size). The offset size/2, when present,
    contributes a single edge per vertex.
    """

    size: int
    connection_set: frozenset[int] = field(repr=False)

    def __post_init__(self) -> None:
        offsets = frozenset(int(j) for j in self.connection_set)
        if not offsets:
            raise ValueError("connection set must not be empty")
        if any(j < 1 or j > self.size // 2 for j in offsets):
            raise ValueError(
                f"offsets must lie in [1, {self.size // 2}] for size {self.size}"
            )
        object.__setattr__(self, "connection_set", offsets)

    @property
    def degree(self) -> int:
        half = self.size // 2 if self.size % 2 == 0 else None
        return sum(1 if j == half else 2 for j in self.connection_set)

    @classmethod
    def complete(cls, size: int) -> "CirculantGraph":
        return cls(size, frozenset(range(1, size // 2 + 1)))

    @classmethod
    def cycle(cls, size: int) -> "CirculantGraph":
        return cls(size, frozenset({1}))

    @classmethod
    def banded(cls, size: int, bandwidth: int) -> "CirculantGraph":
        return cls(size, frozenset(range(1, bandwidth + 1)))


def circulant_eigenvalues(graph: CirculantGraph) -> np.ndarray:
    """Closed-form real spectrum; entry n pairs with DFT frequency n."""
    n = np.arange(graph.size)
    eig = np.zeros(graph.size)
    for j in graph.connection_set:
        if graph.size % 2 == 0 and j == graph.size // 2:
            eig = eig + np.cos(np.pi * n)
        else:
            eig = eig + 2.0 * np.cos(2.0 * np.pi * n * j / graph.size)
    return eig


def qmoa_spectra(
    graphs: tuple[CirculantGraph, ...], shape: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Each dimension's graph spectrum, shaped to broadcast along its tensor axis."""
    dims = len(shape)
    if len(graphs) != dims:
        raise ValueError(f"need one graph per dimension (D={dims}), got {len(graphs)}")
    for d, g in enumerate(graphs):
        n = shape[tensor_axis(d, dims)]
        if g.size != n:
            raise ValueError(f"graph for dimension {d} has {g.size} vertices, grid has {n}")
    return tuple(along_axis(circulant_eigenvalues(g), d, dims) for d, g in enumerate(graphs))


def qmoa_mixer(
    state: StateVector, times: np.ndarray, graphs: tuple[CirculantGraph, ...]
) -> StateVector:
    """Separable continuous-time walk: one circulant graph per dimension.

    Realised spectrally: forward DFT along every dimension, multiply by
    exp(-i * sum_d t_d * eigenvalue_d), inverse DFT along every dimension.
    """
    shape = state.tensor_shape
    dims = len(shape)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 1 and dims > 1:
        times = np.repeat(times, dims)
    if times.size != dims or len(graphs) != dims:
        raise ValueError(f"need one walk time and one graph per dimension (D={dims})")
    tensor = state.as_tensor().copy()
    out = qmoa_walk(tensor, times, qmoa_spectra(graphs, shape), np.empty_like(tensor))
    return StateVector(out.ravel(), shape)


def qmoa_walk(
    tensor: np.ndarray,
    times: Sequence[float],
    spectra: tuple[np.ndarray, ...],
    scratch: np.ndarray,
) -> np.ndarray:
    """exp(-i sum_d t_d L_d) applied to a contiguous (N,)*D tensor, which it overwrites.

    Both transforms run with ``overwrite_x=True``, so scipy writes them into
    ``tensor``'s memory; the diagonal phase goes into ``scratch``, a
    K-complex array of the tensor's shape.
    """
    _diagonal_phase(times, spectra, scratch)
    spectrum = sfft.fftn(tensor, norm="ortho", overwrite_x=True)
    spectrum *= scratch
    return sfft.ifftn(spectrum, norm="ortho", overwrite_x=True)


def _diagonal_phase(
    times: Sequence[float], vectors: tuple[np.ndarray, ...], out: np.ndarray
) -> np.ndarray:
    """prod_d exp(-i t_d v_d) into ``out``, from D small per-dimension exponentials.

    Each v_d broadcasts along its own tensor axis, so only the last product
    is K-sized. The product starts from 1+0j rather than from the first
    factor; where some t_d = 0, that multiplication sets the signs of the
    zero parts.
    """
    phase = 1 + 0j
    for t, v in zip(times[:-1], vectors[:-1]):
        phase = phase * np.exp(-1j * t * v)
    return np.multiply(phase, np.exp(-1j * times[-1] * vectors[-1]), out=out)


def qaoa_complete_mixer(state: StateVector, t: float) -> StateVector:
    """Walk on the complete graph over all K states, O(K) via the global mean.

    The leading global phase exp(i*t) of the closed form is kept so the
    operator matches exp(-i*t*A) for the complete-graph adjacency exactly.
    """
    amps = state.amplitudes.copy()
    return StateVector(complete_walk(amps, t), state.tensor_shape)


def complete_walk(amplitudes: np.ndarray, t: float) -> np.ndarray:
    """The complete-graph walk on a flat amplitude array, which it overwrites; returns it."""
    mean = amplitudes.mean()
    np.add(amplitudes, (np.exp(-1j * t * amplitudes.size) - 1.0) * mean, out=amplitudes)
    np.multiply(np.exp(1j * t), amplitudes, out=amplitudes)
    return amplitudes


def hypercube_mixer(state: StateVector, t: float) -> StateVector:
    """Walk on the M-qubit hypercube as M pairwise butterfly passes.

    Equivalent to the product of commuting single-qubit rotations
    cos(t)*I - i*sin(t)*X applied to each of the M = log2(K) qubits.
    """
    amps = state.amplitudes.copy()
    out = hypercube_walk(amps, t, np.empty_like(amps), np.empty_like(amps))
    return StateVector(out, state.tensor_shape)


def hypercube_walk(
    amplitudes: np.ndarray, t: float, spare: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """The hypercube walk on a flat contiguous array; returns the array holding the result.

    Pass i pairs index k with its partner across qubit i. Viewed as
    ``x.reshape(-1, 2, 2**i)``, the partners are the same view with its middle
    axis reversed, so a pass is three whole-array ufuncs: ``scratch`` gets
    i*sin(t) times the swapped view, and the other state buffer gets
    cos(t)*x minus ``scratch``. The passes alternate between ``amplitudes``
    and ``spare``, overwriting both, and the result ends in ``amplitudes``
    when M is even and in ``spare`` when M is odd.
    """
    k_total = amplitudes.size
    m = k_total.bit_length() - 1
    if 1 << m != k_total:
        raise ValueError(f"hypercube mixer needs K = 2^M states, got K={k_total}")
    c = np.cos(t)
    js = 1j * np.sin(t)
    x, y = amplitudes, spare
    for i in range(m):
        pairs = (-1, 2, 1 << i)
        np.multiply(js, x.reshape(pairs)[:, ::-1, :], out=scratch.reshape(pairs))
        np.multiply(c, x, out=y)
        np.subtract(y, scratch, out=y)
        x, y = y, x
    return x


# --------------------------------------------------------------------------
# Momentum-space machinery for the wavepacket-evolution mixer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumGrid:
    """Centred momentum-space grid conjugate to a solution grid.

    Per dimension: dk = 2*pi / (N * dx), kappa_0 = dk * (-N + 1 + (N-1)//2),
    kappa_n = kappa_0 + n * dk, which places kappa = 0 on-grid and spans
    [-N*dk/2, N*dk/2).
    """

    kappa_0: np.ndarray
    delta_kappa: np.ndarray
    values: np.ndarray

    @classmethod
    def from_grid(cls, grid: SolutionGrid) -> "MomentumGrid":
        n = grid.points_per_dim
        dk = 2.0 * np.pi / (n * grid.spacing)
        k0 = dk * (-n + 1 + (n - 1) // 2)
        values = k0[:, None] + np.arange(n)[None, :] * dk[:, None]
        return cls(k0, dk, values)

    @property
    def dims(self) -> int:
        return self.kappa_0.size


class CentredFactors(NamedTuple):
    """Diagonal factors of the centred transform along one tensor axis.

    The transform is ``post * scalar * DFT(pre * psi)``; the conjugates give
    its inverse.
    """

    axis: int
    pre: np.ndarray
    post: np.ndarray
    scalar: complex
    pre_conj: np.ndarray
    post_conj: np.ndarray
    scalar_conj: complex


def centred_factors(
    dim: int, dims: int, grid: SolutionGrid, momentum: MomentumGrid
) -> CentredFactors:
    """Factors of the centred transform along grid dimension ``dim`` of a D-tensor."""
    x0 = grid.lower[dim]
    dx = grid.spacing[dim]
    k0 = momentum.kappa_0[dim]
    dk = momentum.delta_kappa[dim]
    idx = np.arange(grid.points_per_dim)
    pre = along_axis(np.exp(-1j * k0 * dx * idx), dim, dims)
    post = along_axis(np.exp(-1j * dk * x0 * idx), dim, dims)
    scalar = np.exp(-1j * k0 * x0)
    return CentredFactors(
        tensor_axis(dim, dims), pre, post, scalar, pre.conj(), post.conj(), scalar.conj()
    )


# The centred transforms overwrite ``psi``; ``scratch`` (same shape) holds
# the phased input of the FFT, which numpy writes into ``psi`` with ``out=``.


def _centred_forward(psi: np.ndarray, f: CentredFactors, scratch: np.ndarray) -> np.ndarray:
    np.multiply(psi, f.pre, out=scratch)
    np.fft.fft(scratch, axis=f.axis, norm="ortho", out=psi)
    np.multiply(psi, f.post, out=psi)
    np.multiply(psi, f.scalar, out=psi)
    return psi


def _centred_inverse(psi: np.ndarray, f: CentredFactors, scratch: np.ndarray) -> np.ndarray:
    np.multiply(psi, f.post_conj, out=scratch)
    np.multiply(scratch, f.scalar_conj, out=scratch)
    np.fft.ifft(scratch, axis=f.axis, norm="ortho", out=psi)
    np.multiply(psi, f.pre_conj, out=psi)
    return psi


def centred_fourier(
    state: StateVector,
    dim: int,
    grid: SolutionGrid,
    momentum: MomentumGrid,
    direction: str = "forward",
) -> StateVector:
    """Unitary with elements exp(-i*kappa_m*x_n)/sqrt(N) along one dimension.

    Factors exactly as diagonal-phase o unitary DFT o diagonal-phase using
    dk*dx = 2*pi/N; ``direction="inverse"`` applies the conjugate transpose.
    """
    dims = len(state.tensor_shape)
    if not 0 <= dim < dims:
        raise ValueError(f"dimension {dim} out of range for D={dims}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    factors = centred_factors(dim, dims, grid, momentum)
    transform = _centred_forward if direction == "forward" else _centred_inverse
    psi = state.as_tensor().copy()
    transform(psi, factors, np.empty_like(psi))
    return StateVector(psi.ravel(), state.tensor_shape)


def qowe_factors(
    grid: SolutionGrid, momentum: MomentumGrid, dims: int
) -> tuple[tuple[CentredFactors, ...], tuple[np.ndarray, ...]]:
    """Per-dimension centred-transform factors and broadcast kappa^2 vectors."""
    factors = tuple(centred_factors(d, dims, grid, momentum) for d in range(dims))
    kappa_squared = tuple(along_axis(momentum.values[d] ** 2, d, dims) for d in range(dims))
    return factors, kappa_squared


def qowe_mixer(
    state: StateVector,
    times: np.ndarray,
    momentum: MomentumGrid,
    grid: SolutionGrid,
) -> StateVector:
    """Kinetic-energy evolution: F^-1 exp(-i sum_d t_d kappa_d^2) F.

    Walk times are per-dimension; ``grid`` is the position grid that
    ``momentum`` was built from.
    """
    dims = len(state.tensor_shape)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 1 and dims > 1:
        times = np.repeat(times, dims)
    if times.size != dims or momentum.dims != dims:
        raise ValueError(f"need one walk time per dimension (D={dims})")
    factors, kappa_squared = qowe_factors(grid, momentum, dims)
    psi = state.as_tensor().copy()
    qowe_walk(psi, times, factors, kappa_squared, np.empty_like(psi))
    return StateVector(psi.ravel(), state.tensor_shape)


def qowe_walk(
    psi: np.ndarray,
    times: Sequence[float],
    factors: tuple[CentredFactors, ...],
    kappa_squared: tuple[np.ndarray, ...],
    scratch: np.ndarray,
) -> np.ndarray:
    """Centred transforms on every axis, kinetic phase, inverse transforms.

    Overwrites the (N,)*D tensor ``psi`` and returns it; ``scratch`` is a
    K-complex array of the same shape.
    """
    for f in factors:
        _centred_forward(psi, f, scratch)
    np.multiply(psi, _diagonal_phase(times, kappa_squared, scratch), out=psi)
    for f in factors:
        _centred_inverse(psi, f, scratch)
    return psi
