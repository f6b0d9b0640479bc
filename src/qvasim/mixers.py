"""Phase-shift and mixing unitaries.

Conventions fixed here and relied on everywhere else:

* The discrete Fourier transform is the unitary one, kernel
  ``exp(-2j*pi*m*n/N) / sqrt(N)`` (``numpy.fft`` with ``norm="ortho"``).
* Grid dimension d lives on tensor axis ``grid.tensor_axis(d, D)`` = D-1-d
  (flat index k carries dimension 0 in its least-significant base-N digits);
  per-dimension factors are placed there by ``grid.along_axis``.
* The public mixers are pure: they return a new state, leave their input
  unchanged and never renormalise.

Each unitary has one implementation, an array-level kernel that takes its
precomputed factors and the buffers it writes into as arguments and
allocates no state-sized array of its own:

* ``apply_phase`` writes the phased amplitudes into an output buffer;
* ``qmoa_walk`` is the spectral walk ``DFT^-1 exp(-i sum_d t_d v_d) DFT``
  for per-dimension spectra v_d in DFT frequency order;
* ``complete_walk`` is the complete-graph walk in closed form, axis by axis;
* ``hypercube_walk`` runs M butterfly passes.

The walks overwrite the array they are given and return the array that
holds the result. Their one scratch is the caller's second flat K-complex
state buffer ``spare``, which they overwrite too.

Each mixer is decided once, by its ``prepare_*`` function, which validates
its arguments, picks the kernel and builds its factors (spectra, a shape).
It allocates no buffer: ``walk(amps, times, spare)`` runs the mixer on the
flat state buffer ``amps`` and returns the array holding the result,
overwriting ``amps`` and ``spare`` as it goes. QMOA on complete
graphs takes ``complete_walk``, as QAOA does over one flat axis of K; QMOA
on other graphs, and QOWE, take ``qmoa_walk``.

QOWE is a circulant walk. The centred transform ``exp(-i kappa_m x_n) / sqrt(N)``
is ``scalar * post_m * DFT[m, n] * pre_n`` with ``pre_n = exp(-i kappa_0 dx n)``.
As ``dk * dx = 2 pi / N`` and ``kappa_0 = s * dk`` for the integer
``s = -N + 1 + (N - 1) // 2``, ``pre`` only rotates the DFT output (momentum
index m lands on frequency ``(m + s) % N``), and the diagonal ``post`` and
``scalar`` commute with the kinetic phase and cancel against their conjugates.
So the QOWE mixer is ``qmoa_walk`` with the spectra ``kappa_d[(j - s) % N] ** 2``
of ``MomentumGrid.kinetic_spectra``: the kinetic step of the split-operator
Fourier method (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)).

The public mixers taking a ``StateVector`` check the walk times, prepare
the walk and run it on a copy of the state's amplitudes;
``qvasim.ansatz.Propagator`` prepares its walk once and runs it in its
workspace for every evaluation. Both therefore call the same kernels with
the same operands in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import ObjectiveTable, SolutionGrid, along_axis, tensor_axis
from .states import StateVector

# Bumped whenever a kernel's floating-point results change; the harness folds
# it into the config hash, so a resumed run never mixes records across kernels.
KERNEL_VERSION = 2

Walk = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def phase_shift(state: StateVector, gamma: float, table: ObjectiveTable) -> StateVector:
    """Multiply amplitude_k by exp(-i*gamma*f_k)."""
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
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


def _per_dimension(times, dims: int) -> np.ndarray:
    """Walk times as a finite float vector of ``dims`` entries; one time is broadcast to all."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    times = np.repeat(times, dims) if times.size == 1 else times
    if times.shape != (dims,):
        raise ValueError(f"need one walk time per dimension (D={dims}), got {times.size}")
    if not np.isfinite(times).all():
        raise ValueError(f"walk times must be finite, got {times}")
    return times


def _mixed(state: StateVector, walk: Walk, times: np.ndarray) -> StateVector:
    """A new state: ``walk`` run on a copy of ``state``'s amplitudes."""
    amps = state.amplitudes.copy()
    return StateVector(walk(amps, times, np.empty_like(amps)), state.tensor_shape)


def qmoa_mixer(
    state: StateVector, times: np.ndarray, graphs: tuple[CirculantGraph, ...]
) -> StateVector:
    """Separable continuous-time walk: one circulant graph per dimension."""
    times = _per_dimension(times, len(state.tensor_shape))
    return _mixed(state, prepare_qmoa(graphs, state.tensor_shape), times)


def prepare_qmoa(graphs: tuple[CirculantGraph, ...], shape: tuple[int, ...]) -> Walk:
    """QMOA's walk on states of ``shape``, one circulant graph per dimension.

    Complete graphs on every dimension take ``complete_walk``'s closed form;
    any other choice runs spectrally: forward DFT along every dimension,
    multiply by exp(-i * sum_d t_d * eigenvalue_d), inverse DFT.
    """
    dims = len(shape)
    if len(graphs) != dims:
        raise ValueError(f"need one graph per dimension (D={dims}), got {len(graphs)}")
    for d, g in enumerate(graphs):
        n = shape[tensor_axis(d, dims)]
        if g.size != n:
            raise ValueError(f"graph for dimension {d} has {g.size} vertices, grid has {n}")
    if all(len(g.connection_set) == g.size // 2 for g in graphs):  # every offset
        return prepare_complete(shape)
    spectra = tuple(along_axis(circulant_eigenvalues(g), d, dims) for d, g in enumerate(graphs))
    return _prepare_spectral(spectra, shape)


def _prepare_spectral(spectra: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> Walk:
    scale = float(1 / np.sqrt(np.longdouble(np.prod(shape))))

    def walk(amps, times, spare):
        return qmoa_walk(amps.reshape(shape), times, spectra, scale, spare).ravel()

    return walk


def qmoa_walk(
    tensor: np.ndarray,
    times: Sequence[float],
    spectra: tuple[np.ndarray, ...],
    scale: float,
    spare: np.ndarray,
) -> np.ndarray:
    """DFT^-1 exp(-i sum_d t_d spectra_d) DFT on a contiguous (N,)*D tensor it overwrites.

    With circulant eigenvalues as spectra this is exp(-i sum_d t_d L_d); with
    ``MomentumGrid.kinetic_spectra`` it is the QOWE mixer. ``scale`` is
    1/sqrt(K) rounded from long double, each transform's unitary factor.
    Both transforms run in place in ``tensor``'s memory; the diagonal phase
    goes into ``spare``, a contiguous K-complex buffer that is reshaped to
    the tensor.
    """
    phase = _diagonal_phase(times, spectra, spare.reshape(tensor.shape))
    spectrum = _unitary_dft(tensor, scale, inverse=False)
    spectrum *= phase
    return _unitary_dft(spectrum, scale, inverse=True)


def _unitary_dft(tensor: np.ndarray, scale: float, inverse: bool) -> np.ndarray:
    """The D-dimensional unitary DFT of ``tensor`` (or its inverse), in place.

    The unscaled 1-D transform runs along axes 0, 1, ..., D-1, and ``scale``
    multiplies the real and imaginary parts once, right after axis 0. That
    is where ``scipy.fft.fftn`` with ``norm="ortho"`` applies its factor, so
    the bits are the same as scipy's; numpy's own ``norm="ortho"`` scales
    every axis and rounds differently. Returns ``tensor``.
    """
    transform, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    for axis in range(tensor.ndim):
        transform(tensor, axis=axis, norm=norm, out=tensor)
        if axis == 0:
            parts = tensor.view(np.float64)
            np.multiply(parts, scale, out=parts)
    return tensor


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
    return _mixed(state, prepare_complete((state.total_points,)), _per_dimension(t, 1))


def prepare_complete(shape: tuple[int, ...]) -> Walk:
    """``complete_walk`` over the axes of ``shape``: the grid's for QMOA, ``(K,)`` for QAOA."""

    def walk(amps, times, spare):
        return complete_walk(amps.reshape(shape), times, spare).ravel()

    return walk


def complete_walk(tensor: np.ndarray, times: Sequence[float], spare: np.ndarray) -> np.ndarray:
    """exp(-i sum_d t_d A_d) for complete graphs A_d, on a contiguous tensor it overwrites.

    Time t_d walks grid dimension d, on tensor axis ``tensor_axis(d, ndim)``;
    a flat (K,) array with one time is the complete graph on all K states.
    On N vertices exp(-i t (J - I)) = e^{it} (I + (e^{-itN} - 1) J/N), and J/N
    replaces each entry by the mean along its axis. So each axis adds
    (e^{-itN} - 1) times its mean, formed from the axis sums in the first
    K/N entries of the contiguous buffer ``spare``, and one global phase
    e^{i sum_d t_d} follows. Returns ``tensor``.
    """
    shape, dims = tensor.shape, tensor.ndim
    total = 0.0
    for d, t in enumerate(times):
        axis = tensor_axis(d, dims)
        n = shape[axis]
        term = spare[: tensor.size // n].reshape(shape[:axis] + (1,) + shape[axis + 1 :])
        np.add.reduce(tensor, axis=axis, keepdims=True, out=term)
        # Scalar first, in place, N a power of two: this keeps QAOA bit for bit the
        # scalar-mean closed form (numpy's out-of-place product fuses multiply-adds).
        np.multiply((np.exp(-1j * t * n) - 1.0) / n, term, out=term)
        np.add(tensor, term, out=tensor)
        total += t
    np.multiply(np.exp(1j * total), tensor, out=tensor)
    return tensor


def hypercube_mixer(state: StateVector, t: float) -> StateVector:
    """Walk on the M-qubit hypercube as M pairwise butterfly passes.

    Equivalent to the product of commuting single-qubit rotations
    cos(t)*I - i*sin(t)*X applied to each of the M = log2(K) qubits.
    """
    return _mixed(state, prepare_hypercube(state.total_points), _per_dimension(t, 1))


def prepare_hypercube(k: int) -> Walk:
    """``hypercube_walk`` on K = 2^M states."""
    if k & (k - 1) or k < 1:
        raise ValueError(f"hypercube mixer needs K = 2^M states, got K={k}")

    def walk(amps, times, spare):
        return hypercube_walk(amps, float(times[0]), spare)

    return walk


def hypercube_walk(amplitudes: np.ndarray, t: float, spare: np.ndarray) -> np.ndarray:
    """The hypercube walk on a flat contiguous array of 2^M entries.

    Pass i pairs index k with its partner across qubit i. Viewed as
    ``x.reshape(-1, 2, 2**i)``, the partners are the same view with its middle
    axis reversed, so a pass is three whole-array ufuncs on two buffers: the
    other buffer y gets i*sin(t) times the swapped view, x is scaled by
    cos(t) in place, and y becomes x minus y. The passes alternate between
    ``amplitudes`` and ``spare``, overwriting both, and the result ends in
    ``amplitudes`` when M is even and in ``spare`` when M is odd; the array
    holding it is returned.
    """
    c = np.cos(t)
    js = 1j * np.sin(t)
    x, y = amplitudes, spare
    for i in range(amplitudes.size.bit_length() - 1):
        pairs = (-1, 2, 1 << i)
        np.multiply(js, x.reshape(pairs)[:, ::-1, :], out=y.reshape(pairs))
        np.multiply(c, x, out=x)
        np.subtract(x, y, out=y)
        x, y = y, x
    return x


# --------------------------------------------------------------------------
# Momentum space for the wavepacket-evolution mixer
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

    def kinetic_spectra(self) -> tuple[np.ndarray, ...]:
        """Each dimension's kappa^2 in DFT frequency order, shaped for its tensor axis.

        kappa_0 = s * dk for an integer s, so frequency j carries
        kappa_{(j - s) % N} (see the module docstring).
        """
        dims, n = self.values.shape
        shifts = np.rint(self.kappa_0 / self.delta_kappa).astype(int)
        j = np.arange(n)
        return tuple(
            along_axis(self.values[d][(j - shifts[d]) % n] ** 2, d, dims) for d in range(dims)
        )


def qowe_mixer(
    state: StateVector,
    times: np.ndarray,
    momentum: MomentumGrid,
    grid: SolutionGrid,
) -> StateVector:
    """Kinetic-energy evolution F^-1 exp(-i sum_d t_d kappa_d^2) F, F the centred transform.

    Walk times are per-dimension; ``grid`` is the position grid that
    ``momentum`` was built from, and must have the state's shape.
    """
    shape = state.tensor_shape
    if grid.tensor_shape != shape:
        raise ValueError(f"grid has shape {grid.tensor_shape}, state has {shape}")
    return _mixed(state, prepare_qowe(momentum, shape), _per_dimension(times, len(shape)))


def prepare_qowe(momentum: MomentumGrid, shape: tuple[int, ...]) -> Walk:
    """QOWE's kinetic walk: ``qmoa_walk`` over ``momentum.kinetic_spectra()``."""
    if momentum.values.shape != (len(shape), shape[0]):
        raise ValueError(f"momentum grid of shape {momentum.values.shape} does not fit {shape}")
    return _prepare_spectral(momentum.kinetic_spectra(), shape)
