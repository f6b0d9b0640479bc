"""Dense oracles for the mixer kernels, capped at K <= 4096, and a simplex oracle.

Each mixer oracle builds its operator from the definition (explicit
adjacency matrices, Kronecker lifts, an eigendecomposition, the centred
transform's matrix elements) rather than from the kernels' factorisations,
so the tests can check the fast kernels against an independent reference.
``centred_fourier`` is the centred transform factored about one DFT; the
library's QOWE mixer does without it, and the tests check it against
``centred_fourier_matrix``. ``scipy_nelder_mead`` is ``nelder_mead`` written
over ``scipy.optimize.minimize``, and ``scipy_qmoa_walk`` is ``qmoa_walk``
written over ``scipy.fft``; the library's own simplex and transforms must
match them bit for bit. ``sequential_baseline`` is ``classical_baseline`` as
a loop of one simplex run after another, which the lockstep restarts must
reproduce. ``ping_pong_hypercube_walk`` and ``out_of_place_phase`` are the
hypercube walk and the phase shift in an earlier form, which wrote each
pass or product into the other of two buffers; the in-place kernels must
give their bits.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.fft as sfft
from scipy import optimize as sciopt

from qvasim.engine import NelderMeadResult, OptimiserOptions, nelder_mead
from qvasim.functions import get_function
from qvasim.grid import SolutionGrid
from qvasim.hybrid import BaselineResult
from qvasim.mixers import CirculantGraph, MomentumGrid
from qvasim.states import StateVector

DENSE_ORACLE_CAP = 4096


def dense_walk_oracle(adjacency: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*A) via dense eigendecomposition of a symmetric adjacency."""
    adjacency = np.asarray(adjacency, dtype=float)
    k = adjacency.shape[0]
    if adjacency.shape != (k, k) or k > DENSE_ORACLE_CAP:
        raise ValueError(f"adjacency must be square with K <= {DENSE_ORACLE_CAP}")
    if not np.allclose(adjacency, adjacency.T, atol=1e-12):
        raise ValueError("adjacency must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(adjacency)
    return (eigvecs * np.exp(-1j * t * eigvals)) @ eigvecs.conj().T


def adjacency_matrix(graph: CirculantGraph) -> np.ndarray:
    """Dense adjacency of a circulant graph."""
    n = graph.size
    a = np.zeros((n, n))
    for j in graph.connection_set:
        for v in range(n):
            a[v, (v + j) % n] = 1.0
            a[v, (v - j) % n] = 1.0
    return a


def hypercube_adjacency(m: int) -> np.ndarray:
    """Dense adjacency of the M-dimensional hypercube on 2^M vertices."""
    k = 1 << m
    a = np.zeros((k, k))
    for v in range(k):
        for i in range(m):
            a[v, v ^ (1 << i)] = 1.0
    return a


def lifted_adjacency(
    graphs: tuple[CirculantGraph, ...], weights: tuple[float, ...] | None = None
) -> np.ndarray:
    """sum_d w_d I x ... x A_d x ... x I with dimension 0 least significant.

    The weights default to 1; with the walk times as weights,
    ``dense_walk_oracle(lifted_adjacency(graphs, times), 1.0)`` is the walk
    with one time per dimension.
    """
    dims = len(graphs)
    sizes = [g.size for g in graphs]
    k = int(np.prod(sizes))
    total = np.zeros((k, k))
    for d, g in enumerate(graphs):
        term = adjacency_matrix(g) * (1.0 if weights is None else weights[d])
        for lower in range(d):
            term = np.kron(term, np.eye(sizes[lower]))
        for upper in range(d + 1, dims):
            term = np.kron(np.eye(sizes[upper]), term)
        total += term
    return total


def apply_per_dimension(matrices: list[np.ndarray], amplitudes: np.ndarray) -> np.ndarray:
    """(M_{D-1} x ... x M_0) @ amplitudes, without forming the K x K product.

    Dimension 0 is least significant, so on the C-ordered (N,)*D tensor
    matrix M_d acts on axis D-1-d. Exact for any per-dimension matrices, so
    it lifts per-dimension dense oracles to K = 4096 without a 4096^2 matrix.
    """
    dims = len(matrices)
    tensor = amplitudes.reshape(tuple(m.shape[0] for m in reversed(matrices)))
    for d, matrix in enumerate(matrices):
        axis = dims - 1 - d
        tensor = np.moveaxis(np.tensordot(matrix, tensor, axes=([1], [axis])), 0, axis)
    return tensor.ravel()


def centred_fourier_matrix(
    grid: SolutionGrid, momentum: MomentumGrid, dim: int
) -> np.ndarray:
    """Dense one-dimensional centred transform, elements exp(-i*k_m*x_n)/sqrt(N)."""
    n = grid.points_per_dim
    x = grid.lower[dim] + np.arange(n) * grid.spacing[dim]
    kappa = momentum.values[dim]
    return np.exp(-1j * np.outer(kappa, x)) / np.sqrt(n)


def centred_fourier(
    state: StateVector,
    dim: int,
    grid: SolutionGrid,
    momentum: MomentumGrid,
    direction: str = "forward",
) -> StateVector:
    """Unitary with elements exp(-i*kappa_m*x_n)/sqrt(N) along one dimension.

    Factors exactly as diagonal phase o unitary DFT o diagonal phase using
    dk*dx = 2*pi/N; ``direction="inverse"`` applies the conjugate transpose.
    """
    dims = len(state.tensor_shape)
    if not 0 <= dim < dims:
        raise ValueError(f"dimension {dim} out of range for D={dims}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    x0, dx = grid.lower[dim], grid.spacing[dim]
    k0, dk = momentum.kappa_0[dim], momentum.delta_kappa[dim]
    n = grid.points_per_dim
    axis = dims - 1 - dim  # dimension 0 is least significant
    column = tuple(n if a == axis else 1 for a in range(dims))
    pre = np.exp(-1j * k0 * dx * np.arange(n)).reshape(column)
    post = np.exp(-1j * dk * x0 * np.arange(n)).reshape(column) * np.exp(-1j * k0 * x0)
    psi = state.amplitudes.reshape(state.tensor_shape)
    if direction == "forward":
        out = post * np.fft.fft(pre * psi, axis=axis, norm="ortho")
    else:
        out = pre.conj() * np.fft.ifft(post.conj() * psi, axis=axis, norm="ortho")
    return StateVector(out.ravel(), state.tensor_shape)


def scipy_nelder_mead(objective, x0, options=None, trace_path=None) -> NelderMeadResult:
    """``qvasim.engine.nelder_mead`` through ``scipy.optimize.minimize``.

    Same starting-point check, result and trace as the library's simplex;
    the steps are counted by scipy's per-step callback, which also fires for
    a step cut short by ``maxfev`` (scipy's ``nit`` does not count that one).
    """
    options = options or OptimiserOptions()
    x0 = np.asarray(x0, dtype=float)
    bounds = None
    start = x0
    if options.bounds is not None:
        b = np.asarray(options.bounds, dtype=float)
        bounds = sciopt.Bounds(b[:, 0], b[:, 1])
        start = np.clip(x0, b[:, 0], b[:, 1])
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
    trace_file = open(trace_path, "a") if trace_path is not None else None
    counter = [0]

    def callback(intermediate_result):
        counter[0] += 1
        if trace_file is not None:
            record = {
                "iteration": counter[0],
                "expectation": float(intermediate_result.fun),
                "params": [float(v) for v in intermediate_result.x],
            }
            trace_file.write(json.dumps(record) + "\n")

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
        evaluations=int(res.nfev) + 1,
        iterations=counter[0],
    )


def scipy_qmoa_walk(
    tensor: np.ndarray, times, spectra: tuple[np.ndarray, ...], spare: np.ndarray
) -> np.ndarray:
    """``qvasim.mixers.qmoa_walk`` through ``scipy.fft``'s unitary n-dimensional transforms.

    The diagonal phase ``diagonal_phase`` forms, between ``fftn`` and
    ``ifftn`` with ``norm="ortho"``; both overwrite ``tensor``, as the
    library's walk does.
    """
    phase = diagonal_phase(times, spectra, spare.reshape(tensor.shape))
    spectrum = sfft.fftn(tensor, norm="ortho", overwrite_x=True)
    spectrum *= phase
    return sfft.ifftn(spectrum, norm="ortho", overwrite_x=True)


def diagonal_phase(times, vectors: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """prod_d exp(-i t_d v_d) into ``out``: the spectral walk's diagonal phase, kept apart.

    The library forms the same product from its own factors; this copy
    fixes the arithmetic they must reproduce bit for bit. ``out`` has the tensor's shape, with or without a leading row axis, and
    ``times`` one row of D times per state. Each exponent -i t_d is a column
    over ``out``'s axes times v_d, which broadcasts along its own tensor
    axis. The product starts from 1+0j, multiplies the factors in order and
    writes the last product into ``out``.
    """
    exponents = -1j * np.asarray(times).reshape(-1, len(vectors))
    columns = (e.reshape((-1,) + (1,) * (out.ndim - 1)) for e in exponents.T)
    *factors, last = (np.exp(column * v) for column, v in zip(columns, vectors))
    phase = 1 + 0j
    for factor in factors:
        phase = phase * factor
    return np.multiply(phase, last, out=out)


def _column(factors: list, ndim: int):
    """One scalar per row, bare for one row and a column for several; the kernels now take columns."""
    if len(factors) == 1:
        return factors[0]
    return np.array(factors).reshape((-1,) + (1,) * (ndim - 1))


def ping_pong_hypercube_walk(amplitudes: np.ndarray, times, spare: np.ndarray) -> np.ndarray:
    """The hypercube walk with each pass written into the other buffer; returns the result's.

    Pass i writes i*sin(t) times the partners into the other buffer, scales
    the current one by cos(t) and writes their difference into the other.
    The result ends in ``amplitudes`` when M is even and in ``spare`` when odd.
    """
    lead = amplitudes.shape[:-1]
    c = _column([np.cos(t) for t in times], amplitudes.ndim)
    js = _column([1j * np.sin(t) for t in times], amplitudes.ndim + 2)
    x, y = amplitudes, spare.reshape(amplitudes.shape)
    for i in range(amplitudes.shape[-1].bit_length() - 1):
        pairs = lead + (-1, 2, 1 << i)
        np.multiply(js, x.reshape(pairs)[..., ::-1, :], out=y.reshape(pairs))
        np.multiply(c, x, out=x)
        np.subtract(x, y, out=y)
        x, y = y, x
    return x


def out_of_place_phase(
    amplitudes: np.ndarray, gammas, levels, level_index, out: np.ndarray, level_phases
) -> np.ndarray:
    """exp(-i*gamma_r*f_k) * amplitude_rk written into ``out``, which must not overlap the input."""
    np.multiply(levels, _column([-1j * gamma for gamma in gammas], 2), out=level_phases)
    np.exp(level_phases, out=level_phases)
    level_phases.take(level_index, axis=-1, out=out, mode="clip")
    np.multiply(out, amplitudes, out=out)
    return out


def sequential_baseline(
    function: str, dims: int, epsilon: float = 1e-4, seed: int = 0, max_evaluations: int = 50_000_000
) -> BaselineResult:
    """``qvasim.hybrid.classical_baseline`` as a loop of ``nelder_mead`` runs, one restart at a time.

    Each run evaluates the function at one point as a (D, 1) column, the
    arithmetic that a point gets inside the lockstep runs' blocks.
    """
    f = get_function(function)
    lower, upper = f.domain(dims)
    rng = np.random.default_rng(seed)
    threshold = f.known_minimum(dims) + epsilon
    options = OptimiserOptions(
        max_iterations=200 * dims, max_evaluations=200 * dims, adaptive=False
    )
    fev = 0
    restarts = 0
    while fev < max_evaluations:
        restarts += 1
        x0 = rng.uniform(lower, upper)
        result = nelder_mead(lambda x: float(f.fn(x[:, None])[0]), x0, options)
        fev += result.evaluations
        if result.value <= threshold:
            return BaselineResult(fev, True, restarts, result.x)
    return BaselineResult(fev, False, restarts, None)
