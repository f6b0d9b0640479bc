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
  for per-dimension spectra v_d in DFT frequency order. It runs QMOA on
  cycle and banded graphs, and QOWE;
* ``complete_walk`` is the complete-graph walk in closed form, axis by
  axis. It runs QAOA on the complete graph (one flat axis of K) and QMOA
  whose graphs are all complete; ``all_complete`` makes that choice for
  ``qmoa_mixer`` and ``qvasim.ansatz.Propagator`` alike;
* ``hypercube_walk`` runs M butterfly passes.

The walks overwrite the array they are given, using the scratch buffers
passed in, and return the array that holds the result.

QOWE is a circulant walk. The centred transform ``exp(-i kappa_m x_n) / sqrt(N)``
is ``scalar * post_m * DFT[m, n] * pre_n`` with ``pre_n = exp(-i kappa_0 dx n)``.
As ``dk * dx = 2 pi / N`` and ``kappa_0 = s * dk`` for the integer
``s = -N + 1 + (N - 1) // 2``, ``pre`` only rotates the DFT output (momentum
index m lands on frequency ``(m + s) % N``), and the diagonal ``post`` and
``scalar`` commute with the kinetic phase and cancel against their conjugates.
So the QOWE mixer is ``qmoa_walk`` with the spectra ``kappa_d[(j - s) % N] ** 2``
of ``MomentumGrid.kinetic_spectra``: the kinetic step of the split-operator
Fourier method (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)).

The public functions taking a ``StateVector`` validate their inputs, build
the factors, allocate fresh buffers and call the kernel;
``qvasim.ansatz.Propagator`` builds the factors and a workspace of buffers
once and calls the same kernels, with the same operands in the same order,
for every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.fft as sfft

from .grid import ObjectiveTable, SolutionGrid, along_axis, tensor_axis
from .states import StateVector

# Bumped whenever a kernel's floating-point results change; the harness folds
# it into the config hash, so a resumed run never mixes records across kernels.
KERNEL_VERSION = 2


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
    _check_graphs(graphs, shape)
    dims = len(shape)
    return tuple(along_axis(circulant_eigenvalues(g), d, dims) for d, g in enumerate(graphs))


def _check_graphs(graphs: tuple[CirculantGraph, ...], shape: tuple[int, ...]) -> None:
    dims = len(shape)
    if len(graphs) != dims:
        raise ValueError(f"need one graph per dimension (D={dims}), got {len(graphs)}")
    for d, g in enumerate(graphs):
        n = shape[tensor_axis(d, dims)]
        if g.size != n:
            raise ValueError(f"graph for dimension {d} has {g.size} vertices, grid has {n}")


def all_complete(graphs: Sequence[CirculantGraph]) -> bool:
    """Whether QMOA on ``graphs`` takes ``complete_walk``'s closed form."""
    return all(len(g.connection_set) == g.size // 2 for g in graphs)  # every offset


def _per_dimension(times, dims: int) -> np.ndarray:
    """Walk times as a float vector, one time broadcast to every dimension."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.repeat(times, dims) if times.size == 1 and dims > 1 else times


def qmoa_mixer(
    state: StateVector, times: np.ndarray, graphs: tuple[CirculantGraph, ...]
) -> StateVector:
    """Separable continuous-time walk: one circulant graph per dimension.

    Complete graphs on every dimension take ``complete_walk``'s closed form;
    any other choice runs spectrally: forward DFT along every dimension,
    multiply by exp(-i * sum_d t_d * eigenvalue_d), inverse DFT.
    """
    shape = state.tensor_shape
    dims = len(shape)
    times = _per_dimension(times, dims)
    if times.size != dims or len(graphs) != dims:
        raise ValueError(f"need one walk time and one graph per dimension (D={dims})")
    _check_graphs(graphs, shape)
    tensor = state.as_tensor().copy()
    if all_complete(graphs):
        out = complete_walk(tensor, times, np.empty(tensor.size // shape[0], np.complex128))
    else:
        out = qmoa_walk(tensor, times, qmoa_spectra(graphs, shape), np.empty_like(tensor))
    return StateVector(out.ravel(), shape)


def qmoa_walk(
    tensor: np.ndarray,
    times: Sequence[float],
    spectra: tuple[np.ndarray, ...],
    scratch: np.ndarray,
) -> np.ndarray:
    """DFT^-1 exp(-i sum_d t_d spectra_d) DFT on a contiguous (N,)*D tensor it overwrites.

    With circulant eigenvalues as spectra this is exp(-i sum_d t_d L_d); with
    ``MomentumGrid.kinetic_spectra`` it is the QOWE mixer. Both transforms
    run with ``overwrite_x=True``, so scipy writes them into ``tensor``'s
    memory; the diagonal phase goes into ``scratch``, a K-complex array of
    the tensor's shape.
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
    amps = complete_walk(state.amplitudes.copy(), (t,), np.empty(1, np.complex128))
    return StateVector(amps, state.tensor_shape)


def complete_walk(
    tensor: np.ndarray, times: Sequence[float], reduced: np.ndarray
) -> np.ndarray:
    """exp(-i sum_d t_d A_d) for complete graphs A_d, on a contiguous tensor it overwrites.

    Time t_d walks grid dimension d, on tensor axis ``tensor_axis(d, ndim)``;
    a flat (K,) array with one time is the complete graph on all K states.
    On N vertices exp(-i t (J - I)) = e^{it} (I + (e^{-itN} - 1) J/N), and J/N
    replaces each entry by the mean along its axis. So each axis adds
    (e^{-itN} - 1) times its mean, formed from the axis sums in ``reduced``
    (a contiguous buffer of K/N complex entries), and one global phase
    e^{i sum_d t_d} follows. Returns ``tensor``.
    """
    shape, dims = tensor.shape, tensor.ndim
    total = 0.0
    for d, t in enumerate(times):
        axis = tensor_axis(d, dims)
        n = shape[axis]
        term = reduced.reshape(shape[:axis] + (1,) + shape[axis + 1 :])
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

    Runs as ``qmoa_walk`` over ``momentum.kinetic_spectra()``. Walk times are
    per-dimension; ``grid`` is the position grid that ``momentum`` was built
    from, and must have the state's shape.
    """
    shape = state.tensor_shape
    dims = len(shape)
    times = _per_dimension(times, dims)
    if times.size != dims or momentum.dims != dims:
        raise ValueError(f"need one walk time per dimension (D={dims})")
    if grid.tensor_shape != shape:
        raise ValueError(f"grid has shape {grid.tensor_shape}, state has {shape}")
    tensor = state.as_tensor().copy()
    out = qmoa_walk(tensor, times, momentum.kinetic_spectra(), np.empty_like(tensor))
    return StateVector(out.ravel(), shape)
