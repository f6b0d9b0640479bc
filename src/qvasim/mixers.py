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
allocates no state-sized array of its own. Every kernel takes a block of
states with a leading row axis, row r with its own gamma or walk times.
Each row's scalar factors are formed as array expressions over the rows
and enter the block's array operations as a ``(rows, 1, ...)`` column,
for any row count, so each row's amplitudes are the same, bit for bit,
whatever rows share the block:

* ``apply_phase`` multiplies the phases into the amplitudes;
* ``qmoa_walk`` is the spectral walk ``DFT^-1 exp(-i sum_d t_d v_d) DFT``
  for per-dimension spectra v_d in DFT frequency order;
* ``complete_walk`` is the complete-graph walk in closed form, axis by axis;
* ``hypercube_walk`` runs M butterfly passes.

Every kernel leaves its result in the array it is given. Its one scratch
is the caller's second state buffer ``spare``, of the same shape, which it
overwrites.

Each mixer is decided once, by its ``prepare_*`` function, which validates
its arguments, picks the kernel and builds its factors (spectra, a shape).
It allocates no buffer: ``walk(amps, times, spare)`` runs the mixer in
place on the ``(rows, K)`` state buffer ``amps``, with one row of times
per state. A flat state with one vector of times is walked as a block of
one row. QMOA on complete graphs takes ``complete_walk``, as QAOA does
over one axis of K; QMOA on other graphs, and QOWE, take ``qmoa_walk``.

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

A product state (``qvasim.ansatz.ProductPropagator``) holds one N-vector per
grid dimension. ``prepare_axis_qmoa`` and ``prepare_axis_qowe`` walk each
vector with the same closed form or spectrum that the full kernels apply
along its axis: ``complete_axis_walk`` for complete graphs,
``spectral_axis_walk`` over the circulant eigenvalues or kappa^2 otherwise.
They agree with the full kernels to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import ObjectiveTable, SolutionGrid, along_axis, tensor_axis
from .states import StateVector

# Bumped whenever a kernel's floating-point results change; the harness folds
# it into the config hash, so a resumed run never mixes records across kernels.
KERNEL_VERSION = 3

Walk = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def phase_shift(state: StateVector, gamma: float, table: ObjectiveTable) -> StateVector:
    """Multiply amplitude_k by exp(-i*gamma*f_k)."""
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if table.values.size != state.total_points:
        raise ValueError(
            f"table has {table.values.size} values, state has {state.total_points}"
        )
    amps = state.amplitudes.copy()
    level_phases = np.empty(table.n_unique, dtype=np.complex128)
    levels, level_index = table.phase_levels, table.level_index
    apply_phase(amps, (gamma,), levels, level_index, np.empty_like(amps), level_phases)
    return StateVector(amps, state.tensor_shape)


def apply_phase(
    amplitudes: np.ndarray,
    gammas: Sequence[float],
    levels: np.ndarray,
    level_index: np.ndarray,
    spare: np.ndarray,
    level_phases: np.ndarray,
) -> None:
    """Multiply amplitude_rk by exp(-i*gamma_r*f_k) in place.

    ``amplitudes`` is a ``(rows, K)`` block with one gamma per row (a flat
    state takes one gamma), and ``spare`` is a scratch buffer of its shape.
    ``levels[level_index]`` are the objective values f_k, given as complex
    numbers (``ObjectiveTable.phase_levels``; a real array gives the same
    bits, cast on every call). Each distinct value is exponentiated once per
    row, into ``level_phases`` (one complex entry per level and row), and
    gathered into ``spare``; the exponential is elementwise, so the result
    is the same as exponentiating all K values.
    """
    np.multiply(levels, _per_row(-1j * np.asarray(gammas), level_phases.ndim), out=level_phases)
    np.exp(level_phases, out=level_phases)
    # mode="raise" would gather into a temporary and copy; level_index is in range
    level_phases.take(level_index, axis=-1, out=spare, mode="clip")
    # phases first: numpy's complex loops round differently with the operands swapped
    np.multiply(spare, amplitudes, out=amplitudes)


def _per_row(factors: np.ndarray, ndim: int) -> np.ndarray:
    """One scalar factor per row, as a ``(rows, 1, ..., 1)`` column of ``ndim`` axes.

    numpy multiplies each row by its constant as one state by a scalar, so a
    row's bits do not depend on its neighbours, unless each row has one entry.
    """
    return factors.reshape((-1,) + (1,) * (ndim - 1))


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
    walk(amps, times, np.empty_like(amps))
    return StateVector(amps, state.tensor_shape)


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
    if _all_complete(graphs, shape):
        return prepare_complete(shape)
    dims = len(shape)
    spectra = tuple(along_axis(circulant_eigenvalues(g), d, dims) for d, g in enumerate(graphs))
    return _prepare_spectral(spectra, shape)


def _all_complete(graphs: tuple[CirculantGraph, ...], shape: tuple[int, ...]) -> bool:
    """Whether every graph is complete, once each is checked against its dimension of ``shape``."""
    dims = len(shape)
    if len(graphs) != dims:
        raise ValueError(f"need one graph per dimension (D={dims}), got {len(graphs)}")
    for d, g in enumerate(graphs):
        n = shape[tensor_axis(d, dims)]
        if g.size != n:
            raise ValueError(f"graph for dimension {d} has {g.size} vertices, grid has {n}")
    return all(len(g.connection_set) == g.size // 2 for g in graphs)  # every offset


def _prepare_spectral(spectra: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> Walk:
    scale = float(1 / np.sqrt(np.longdouble(np.prod(shape))))

    def walk(amps, times, spare):
        qmoa_walk(amps.reshape((-1,) + shape), times, spectra, scale, spare)

    return walk


def qmoa_walk(
    tensor: np.ndarray,
    times: np.ndarray,
    spectra: tuple[np.ndarray, ...],
    scale: float,
    spare: np.ndarray,
) -> None:
    """DFT^-1 exp(-i sum_d t_d spectra_d) DFT, in place, on a contiguous (rows,) + (N,)*D block.

    ``times`` holds one row of D times per state. With circulant
    eigenvalues as spectra this is exp(-i sum_d t_d L_d); with
    ``MomentumGrid.kinetic_spectra`` it is the QOWE mixer. ``scale`` is
    1/sqrt(K) rounded from long double, each transform's unitary factor.
    The diagonal phase goes into ``spare``, a contiguous buffer of
    ``tensor``'s size that is reshaped to the tensor.
    """
    phase = _diagonal_phase(times, spectra, spare.reshape(tensor.shape))
    _unitary_dft(tensor, scale, inverse=False)
    tensor *= phase
    _unitary_dft(tensor, scale, inverse=True)


def _unitary_dft(tensor: np.ndarray, scale: float, inverse: bool) -> None:
    """The unitary DFT over every axis of ``tensor`` after its row axis (or its inverse), in place.

    The unscaled 1-D transform runs along those axes in order, and ``scale``
    multiplies the real and imaginary parts once, right after the first.
    That is where ``scipy.fft.fftn`` with ``norm="ortho"`` applies its
    factor, so the bits are the same as scipy's; numpy's own ``norm="ortho"``
    scales every axis and rounds differently. Each 1-D line is transformed
    on its own, so the rows do not mix.
    """
    transform, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    for axis in range(1, tensor.ndim):
        transform(tensor, axis=axis, norm=norm, out=tensor)
        if axis == 1:
            parts = tensor.view(np.float64)
            np.multiply(parts, scale, out=parts)


def _diagonal_phase(times, vectors: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """prod_d exp(-i t_d v_d) into ``out``, from D small per-dimension exponentials per state.

    ``out`` is a block with a leading row axis before the tensor shape, and
    ``times`` one row of D times per state; one row may also come as D times
    and a bare tensor, so the columns take their rank from ``out``. Each v_d
    broadcasts along its own tensor axis, so only the last product is
    state-sized. The product starts from 1+0j rather than from the first
    factor; where some t_d = 0, that multiplication sets the signs of the
    zero parts.
    """
    exponents = -1j * np.asarray(times).reshape(-1, len(vectors))
    *factors, last = (np.exp(_per_row(e, out.ndim) * v) for e, v in zip(exponents.T, vectors))
    phase = 1 + 0j
    for factor in factors:
        phase = phase * factor
    return np.multiply(phase, last, out=out)


def qaoa_complete_mixer(state: StateVector, t: float) -> StateVector:
    """Walk on the complete graph over all K states, O(K) via the global mean.

    The leading global phase exp(i*t) of the closed form is kept so the
    operator matches exp(-i*t*A) for the complete-graph adjacency exactly.
    """
    return _mixed(state, prepare_complete((state.total_points,)), _per_dimension(t, 1))


def prepare_complete(shape: tuple[int, ...]) -> Walk:
    """``complete_walk`` over the axes of ``shape``: the grid's for QMOA, ``(K,)`` for QAOA."""
    dims = len(shape)
    axes = []
    for d in range(dims):
        axis = tensor_axis(d, dims)
        axes.append((axis, shape[axis], shape[:axis] + (1,) + shape[axis + 1 :]))

    def walk(amps, times, spare):
        complete_walk(amps.reshape((-1,) + shape), times, axes, spare)

    return walk


def complete_walk(
    tensor: np.ndarray, times: np.ndarray, axes: Sequence[tuple], spare: np.ndarray
) -> None:
    """exp(-i sum_d t_d A_d) for complete graphs A_d, in place, on a contiguous block of tensors.

    ``tensor`` has a leading row axis, with ``times`` one row of D times per
    state. Time t_d walks grid dimension d; ``axes[d]`` is (its tensor axis
    after the row axis, its size N, the shape of a state's sums along it),
    as ``prepare_complete`` lays them out. One axis of K with one time is
    the complete graph on all K states. On N vertices
    exp(-i t (J - I)) = e^{it} (I + (e^{-itN} - 1) J/N), and J/N replaces
    each entry by the mean along its axis. So each axis adds (e^{-itN} - 1)
    times its mean, formed from the axis sums in the first K/N entries per
    state of the contiguous buffer ``spare``, and one global phase
    e^{i sum_d t_d} per state follows.
    """
    rows = times.reshape(-1, len(axes))
    scratch = spare.reshape(-1)
    totals = np.zeros(len(rows))
    for d, (axis, n, sums_shape) in enumerate(axes):
        term = scratch[: tensor.size // n].reshape(tensor.shape[:1] + sums_shape)
        np.add.reduce(tensor, axis=1 + axis, keepdims=True, out=term)
        totals += rows[:, d]
        # Scalar first, in place, N a power of two: this keeps QAOA bit for bit the
        # scalar-mean closed form (numpy's out-of-place product fuses multiply-adds).
        # Rows go one by one: where a state has a single sum, a column of factors
        # would take the array-by-array product, which fuses too.
        for factor, sums in zip((np.exp(-1j * rows[:, d] * n) - 1.0) / n, term):
            np.multiply(factor, sums, out=sums)
        np.add(tensor, term, out=tensor)
    np.multiply(_per_row(np.exp(1j * totals), tensor.ndim), tensor, out=tensor)


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
    return hypercube_walk


def hypercube_walk(amplitudes: np.ndarray, times: np.ndarray, spare: np.ndarray) -> None:
    """The hypercube walk, in place, on a contiguous (rows, 2^M) block (a flat state is one row).

    State r walks for time ``times.flat[r]``. Pass i pairs index k with its
    partner across qubit i. Viewed as ``x.reshape(-1, 2, 2**i)`` per state,
    the partners are the same view with its middle axis reversed, so a pass
    is three whole-array ufuncs on the amplitudes x: ``spare`` gets i*sin(t)
    times x, x is scaled by cos(t), and x less the swapped ``spare`` goes into x.
    """
    lead = amplitudes.shape[:-1]
    c = _per_row(np.cos(times), amplitudes.ndim)
    js = _per_row(1j * np.sin(times), amplitudes.ndim)
    y = spare.reshape(amplitudes.shape)
    for i in range(amplitudes.shape[-1].bit_length() - 1):
        pairs = lead + (-1, 2, 1 << i)
        np.multiply(js, amplitudes, out=y)
        np.multiply(c, amplitudes, out=amplitudes)
        x = amplitudes.reshape(pairs)
        np.subtract(x, y.reshape(pairs)[..., ::-1, :], out=x)


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


# --------------------------------------------------------------------------
# Product states: one N-vector per grid dimension
# --------------------------------------------------------------------------
#
# A product state is a (rows, D, N) block, entry (r, d) dimension d's vector
# of state r. Its walks are prepared as a pair (factors, walk): ``factors``
# maps the walk times of every layer, shape (rows, p, D), to the arrays one
# layer's ``walk(block, *layer_factors)`` takes, each with a layer axis at
# position 1, so that the exponentials of all layers are formed in one call.


def prepare_axis_qmoa(graphs: tuple[CirculantGraph, ...], shape: tuple[int, ...]) -> tuple:
    """QMOA's walk on product states of the grid ``shape``: each dimension walks its own graph.

    As in ``prepare_qmoa``, complete graphs on every dimension take
    ``complete_axis_walk`` and any other choice ``spectral_axis_walk`` over
    the circulant eigenvalues.
    """
    if _all_complete(graphs, shape):
        n = shape[0]
        return (lambda times: complete_axis_factors(times, n)), complete_axis_walk
    spectra = np.array([circulant_eigenvalues(g) for g in graphs])
    return (lambda times: spectral_axis_factors(times, spectra)), spectral_axis_walk


def prepare_axis_qowe(momentum: MomentumGrid, shape: tuple[int, ...]) -> tuple:
    """QOWE's kinetic walk on product states: ``spectral_axis_walk`` over each kappa_d^2."""
    if momentum.values.shape != (len(shape), shape[0]):
        raise ValueError(f"momentum grid of shape {momentum.values.shape} does not fit {shape}")
    spectra = np.array([v.ravel() for v in momentum.kinetic_spectra()])
    return (lambda times: spectral_axis_factors(times, spectra)), spectral_axis_walk


def complete_axis_factors(times: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-itN} - 1) / N and e^{it} of every walk time t, each with a trailing axis of one."""
    times = times[..., None]
    return (np.exp(-1j * n * times) - 1.0) / n, np.exp(1j * times)


def complete_axis_walk(block: np.ndarray, factors: np.ndarray, phases: np.ndarray) -> None:
    """``complete_walk``'s closed form on every vector of a (rows, D, N) block, in place.

    Each vector gains its factor (e^{-itN} - 1) / N times its sum, then
    takes its phase e^{it}. The product of the factors and the sums goes
    into a new array: numpy rounds an in-place product of single entries
    differently, which would give a row alone other bits, at D = 1, than
    in a block.
    """
    sums = np.add.reduce(block, axis=-1, keepdims=True)
    np.add(block, factors * sums, out=block)
    np.multiply(phases, block, out=block)


def spectral_axis_factors(times: np.ndarray, spectra: np.ndarray) -> tuple[np.ndarray]:
    """exp(-i t_d v_d) for every row of D walk times, over the (D, N) ``spectra``."""
    return (np.exp((-1j * times)[..., None] * spectra),)


def spectral_axis_walk(block: np.ndarray, phases: np.ndarray) -> None:
    """DFT^-1 diag(phases) DFT on every vector of a (rows, D, N) block, in place.

    Row d of ``spectra`` in ``spectral_axis_factors`` is the spectrum
    ``qmoa_walk`` takes for dimension d, in DFT frequency order. Each vector
    is transformed by the unitary DFT along the last axis.
    """
    np.fft.fft(block, axis=-1, norm="ortho", out=block)
    np.multiply(phases, block, out=block)
    np.fft.ifft(block, axis=-1, norm="ortho", out=block)
