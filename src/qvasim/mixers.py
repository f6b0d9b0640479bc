"""Phase-shift and mixing unitaries.

Conventions fixed here and relied on everywhere else:

* The discrete Fourier transform is the unitary one, kernel
  ``exp(-2j*pi*m*n/N) / sqrt(N)`` (``numpy.fft`` with ``norm="ortho"``).
* Grid dimension d lives on tensor axis ``grid.tensor_axis(d, D)`` = D-1-d
  (flat index k carries dimension 0 in its least-significant base-N digits);
  per-dimension factors are placed there by ``grid.along_axis``.
* The public mixers are pure: they return a new state, leave their input
  unchanged and never renormalise.

Every operator, the two phase shifts and the six walks, is prepared once by
its ``prepare_*`` function, which validates its arguments and keeps what the
operator fixes (levels, spectra, a shape) but no state-sized buffer. It
returns a pair ``(factors, step)``:

* ``factors(params)`` takes the ``(p, rows, ·)`` gammas or walk times of
  every layer of a block of states at once and returns the arrays a step
  takes, each with the layer on axis 0, so ``zip(*factors(params))`` yields
  one argument tuple per layer;
* ``step(state, spare, *layer_factors)`` applies one layer in place to the
  block ``state``, given ``f[layer]`` of each array ``f``.

So an evaluation forms the exponentials of all its layers in one call per
operator. Each row's scalar factors enter as a ``(rows, 1, ...)`` column,
so each row's amplitudes are the same, bit for bit, whatever rows share
the block. A full state is a ``(rows, K)`` block, and each step's one
scratch is ``spare``, a second buffer of its shape. The full steps are
``apply_phase``; ``complete_walk``, the complete-graph walk in closed form,
which QMOA on complete graphs takes as QAOA does over one axis of K;
``qmoa_walk``, the spectral walk ``DFT^-1 exp(-i sum_d t_d v_d) DFT`` for
per-dimension spectra v_d in DFT frequency order, which QMOA on other
graphs and QOWE take; and ``hypercube_walk``, M butterfly passes.

QOWE is a circulant walk. The centred transform ``exp(-i kappa_m x_n) / sqrt(N)``
is ``scalar * post_m * DFT[m, n] * pre_n`` with ``pre_n = exp(-i kappa_0 dx n)``.
As ``dk * dx = 2 pi / N`` and ``kappa_0 = s * dk`` for the integer
``s = -N + 1 + (N - 1) // 2``, ``pre`` only rotates the DFT output (momentum
index m lands on frequency ``(m + s) % N``), and the diagonal ``post`` and
``scalar`` commute with the kinetic phase and cancel against their conjugates.
So the QOWE mixer is ``qmoa_walk`` with the spectra ``kappa_d[(j - s) % N] ** 2``
of ``MomentumGrid.kinetic_spectra``: the kinetic step of the split-operator
Fourier method (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)).

``phase_shift`` and the public mixers take a ``StateVector``, check their
parameters and run one step of the prepared pair on a ``(1, K)`` copy of
its amplitudes, so they and ``qvasim.ansatz.Propagator`` call the same
steps with the same operands in the same order.

A product state (``qvasim.ansatz.ProductPropagator``) is a ``(rows, D, N)``
block, one N-vector per grid dimension and row. The pairs of
``prepare_axis_phase``, ``prepare_axis_qmoa`` and ``prepare_axis_qowe``
act on each vector alone and leave ``spare`` unused. The walks apply the
closed form (``complete_axis_walk``) or the spectrum (``spectral_axis_walk``)
that the full walks apply along each axis, and agree with them to
rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import ObjectiveTable, SolutionGrid, along_axis, tensor_axis
from .states import StateVector

# Bumped whenever a kernel's floating-point results change; the harness folds
# it into the config hash, so a resumed run never mixes records across kernels.
KERNEL_VERSION = 3


def _stepped(state: StateVector, pair: tuple, params: np.ndarray) -> StateVector:
    """A new state: one step of ``pair``, given one layer's ``params``, on a copy of ``state``."""
    factors, step = pair
    amps = state.amplitudes[None].copy()
    step(amps, np.empty_like(amps), *(f[0] for f in factors(params[None, None])))
    return StateVector(amps[0], state.tensor_shape)


def phase_shift(state: StateVector, gamma: float, table: ObjectiveTable) -> StateVector:
    """Multiply amplitude_k by exp(-i*gamma*f_k)."""
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if table.values.size != state.total_points:
        raise ValueError(
            f"table has {table.values.size} values, state has {state.total_points}"
        )
    pair = prepare_phase(table, np.empty((1, table.n_unique), np.complex128))
    return _stepped(state, pair, np.array([gamma], dtype=float))


def prepare_phase(table: ObjectiveTable, level_phases: np.ndarray) -> tuple:
    """The phase shift over ``table`` on ``(rows, K)`` blocks; its factors are the columns -i gamma.

    ``levels[level_index]`` are the objective values f_k, as complex numbers
    (``ObjectiveTable.phase_levels``). The step ``apply_phase`` exponentiates
    each distinct value once per row, into the first rows of
    ``level_phases``, a buffer of ``table.n_unique`` columns that the
    caller owns, and gathers them into ``spare``; the exponential is
    elementwise, so the result is the same as exponentiating all K values.
    """
    levels, level_index = table.phase_levels, table.level_index

    def apply_phase(amplitudes, spare, exponents):
        phases = level_phases[: len(amplitudes)]
        np.multiply(levels, exponents, out=phases)
        np.exp(phases, out=phases)
        # mode="raise" would gather into a temporary and copy; level_index is in range
        phases.take(level_index, axis=-1, out=spare, mode="clip")
        # phases first: numpy's complex loops round differently with the operands swapped
        np.multiply(spare, amplitudes, out=amplitudes)

    return (lambda gammas: (-1j * gammas,)), apply_phase


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


def qmoa_mixer(
    state: StateVector, times: np.ndarray, graphs: tuple[CirculantGraph, ...]
) -> StateVector:
    """Separable continuous-time walk: one circulant graph per dimension."""
    times = _per_dimension(times, len(state.tensor_shape))
    return _stepped(state, prepare_qmoa(graphs, state.tensor_shape), times)


def prepare_qmoa(graphs: tuple[CirculantGraph, ...], shape: tuple[int, ...]) -> tuple:
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


def _prepare_spectral(spectra: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> tuple:
    """``qmoa_walk``, DFT^-1 exp(-i sum_d t_d v_d) DFT, over per-dimension spectra v_d.

    With circulant eigenvalues as the v_d this is exp(-i sum_d t_d L_d);
    with ``MomentumGrid.kinetic_spectra`` it is the QOWE mixer. The factors
    are exp(-i t_d v_d) for each dimension d, each 1 on every tensor axis
    but d's. A step multiplies them into ``spare`` from 1+0j rather than
    from the first factor (where some t_d = 0, that multiplication sets the
    signs of the zero parts), so only the last product is state-sized.
    ``scale`` is 1/sqrt(K) rounded from long double, each transform's
    unitary factor.
    """
    scale = float(1 / np.sqrt(np.longdouble(np.prod(shape))))
    dims = len(shape)

    def factors(times):
        columns = (-1j * times).reshape(times.shape + (1,) * dims)
        return tuple(np.exp(columns[:, :, d] * v) for d, v in enumerate(spectra))

    def qmoa_walk(amps, spare, *phases):
        tensor, product = amps.reshape((-1,) + shape), spare.reshape((-1,) + shape)
        *leading, last = phases
        phase = 1 + 0j
        for factor in leading:
            phase = phase * factor
        np.multiply(phase, last, out=product)
        _unitary_dft(tensor, scale, inverse=False)
        tensor *= product
        _unitary_dft(tensor, scale, inverse=True)

    return factors, qmoa_walk


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


def qaoa_complete_mixer(state: StateVector, t: float) -> StateVector:
    """Walk on the complete graph over all K states, O(K) via the global mean.

    The leading global phase exp(i*t) of the closed form is kept so the
    operator matches exp(-i*t*A) for the complete-graph adjacency exactly.
    """
    return _stepped(state, prepare_complete((state.total_points,)), _per_dimension(t, 1))


def prepare_complete(shape: tuple[int, ...]) -> tuple:
    """``complete_walk`` over the axes of ``shape``: the grid's for QMOA, ``(K,)`` for QAOA.

    On N vertices exp(-i t (J - I)) = e^{it} (I + (e^{-itN} - 1) J/N), and
    J/N replaces each entry by the mean along its axis. The factors are
    (e^{-i t_d N} - 1) / N for the walk time t_d of each axis, and the global
    phase e^{i sum_d t_d} as a column over the tensor, its sum started from
    +0.0. A step adds to each axis its factor times its sums, formed in the
    first K/N entries per state of ``spare``, and then takes the phase.
    """
    dims = len(shape)
    axes = []  # (tensor axis, its size, the shape of a state's sums along it)
    for d in range(dims):
        axis = tensor_axis(d, dims)
        axes.append((axis, shape[axis], shape[:axis] + (1,) + shape[axis + 1 :]))
    sizes = np.array([n for _, n, _ in axes])

    def factors(times):
        totals = np.zeros(times.shape[:-1])
        for d in range(dims):
            totals += times[..., d]
        phases = np.exp(1j * totals).reshape(totals.shape + (1,) * dims)
        return (np.exp(-1j * times * sizes) - 1.0) / sizes, phases

    def complete_walk(amps, spare, scales, phases):
        tensor, scratch = amps.reshape((-1,) + shape), spare.reshape(-1)
        for d, (axis, n, sums_shape) in enumerate(axes):
            term = scratch[: tensor.size // n].reshape(tensor.shape[:1] + sums_shape)
            np.add.reduce(tensor, axis=1 + axis, keepdims=True, out=term)
            # Scalar first, in place, N a power of two: this keeps QAOA bit for bit the
            # scalar-mean closed form (numpy's out-of-place product fuses multiply-adds).
            # Rows go one by one: where a state has a single sum, a column of factors
            # would take the array-by-array product, which fuses too.
            for factor, sums in zip(scales[:, d], term):
                np.multiply(factor, sums, out=sums)
            np.add(tensor, term, out=tensor)
        np.multiply(phases, tensor, out=tensor)

    return factors, complete_walk


def hypercube_mixer(state: StateVector, t: float) -> StateVector:
    """Walk on the M-qubit hypercube as M pairwise butterfly passes.

    Equivalent to the product of commuting single-qubit rotations
    cos(t)*I - i*sin(t)*X applied to each of the M = log2(K) qubits.
    """
    return _stepped(state, prepare_hypercube(state.total_points), _per_dimension(t, 1))


def prepare_hypercube(k: int) -> tuple:
    """``hypercube_walk`` on K = 2^M states; its factors are cos t and i sin t of each time t."""
    if k & (k - 1) or k < 1:
        raise ValueError(f"hypercube mixer needs K = 2^M states, got K={k}")
    return (lambda times: (np.cos(times), 1j * np.sin(times))), hypercube_walk


def hypercube_walk(
    amplitudes: np.ndarray, spare: np.ndarray, c: np.ndarray, js: np.ndarray
) -> None:
    """The hypercube walk, in place, on a contiguous (rows, 2^M) block.

    State r walks for a time t_r, given as the ``(rows, 1)`` columns ``c``
    of cos(t_r) and ``js`` of i*sin(t_r). Pass i pairs index k with its
    partner across qubit i. Viewed as ``x.reshape(-1, 2, 2**i)`` per state,
    the partners are the same view with its middle axis reversed, so a pass
    is three whole-array ufuncs on the amplitudes x: ``spare`` gets i*sin(t)
    times x, x is scaled by cos(t), and x less the swapped ``spare`` goes into x.
    """
    rows = len(amplitudes)
    for i in range(amplitudes.shape[-1].bit_length() - 1):
        pairs = (rows, -1, 2, 1 << i)
        np.multiply(js, amplitudes, out=spare)
        np.multiply(c, amplitudes, out=amplitudes)
        x = amplitudes.reshape(pairs)
        np.subtract(x, spare.reshape(pairs)[..., ::-1, :], out=x)


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
    return _stepped(state, prepare_qowe(momentum, shape), _per_dimension(times, len(shape)))


def prepare_qowe(momentum: MomentumGrid, shape: tuple[int, ...]) -> tuple:
    """QOWE's kinetic walk: ``qmoa_walk`` over ``momentum.kinetic_spectra()``."""
    if momentum.values.shape != (len(shape), shape[0]):
        raise ValueError(f"momentum grid of shape {momentum.values.shape} does not fit {shape}")
    return _prepare_spectral(momentum.kinetic_spectra(), shape)


# --------------------------------------------------------------------------
# Product states: one N-vector per grid dimension
# --------------------------------------------------------------------------


def prepare_axis_phase(levels: np.ndarray) -> tuple:
    """The phase shift on product states, over the ``(D, N)`` complex ``levels``.

    Row d of ``levels`` holds dimension d's objective terms; its factors are
    exp(-i gamma levels) for every row and layer, which a step multiplies
    into each vector.
    """

    def factors(gammas):
        return (np.exp((-1j * gammas[..., None]) * levels),)

    def apply_axis_phase(block, spare, phases):
        np.multiply(phases, block, out=block)

    return factors, apply_axis_phase


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


def complete_axis_walk(
    block: np.ndarray, spare: np.ndarray, factors: np.ndarray, phases: np.ndarray
) -> None:
    """``complete_walk``'s closed form on every vector of a (rows, D, N) block, in place.

    Each vector gains its factor (e^{-itN} - 1) / N times its sum, then
    takes its phase e^{it}; ``spare`` is not used. The product of the
    factors and the sums goes into a new array: numpy rounds an in-place
    product of single entries differently, which would give a row alone
    other bits, at D = 1, than in a block.
    """
    sums = np.add.reduce(block, axis=-1, keepdims=True)
    np.add(block, factors * sums, out=block)
    np.multiply(phases, block, out=block)


def spectral_axis_factors(times: np.ndarray, spectra: np.ndarray) -> tuple[np.ndarray]:
    """exp(-i t_d v_d) for every row of D walk times, over the (D, N) ``spectra``."""
    return (np.exp((-1j * times)[..., None] * spectra),)


def spectral_axis_walk(block: np.ndarray, spare: np.ndarray, phases: np.ndarray) -> None:
    """DFT^-1 diag(phases) DFT on every vector of a (rows, D, N) block, in place.

    Row d of ``spectra`` in ``spectral_axis_factors`` is the spectrum
    ``qmoa_walk`` takes for dimension d, in DFT frequency order. Each vector
    is transformed by the unitary DFT along the last axis; ``spare`` is not
    used.
    """
    np.fft.fft(block, axis=-1, norm="ortho", out=block)
    np.multiply(phases, block, out=block)
    np.fft.ifft(block, axis=-1, norm="ortho", out=block)
