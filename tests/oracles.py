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
match them bit for bit.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.fft as sfft
from scipy import optimize as sciopt

from qvasim.engine import NelderMeadResult, OptimiserOptions
from qvasim.grid import SolutionGrid
from qvasim.mixers import CirculantGraph, MomentumGrid, _diagonal_phase
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
    psi = state.as_tensor()
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

    The same diagonal phase, between ``fftn`` and ``ifftn`` with
    ``norm="ortho"``; both overwrite ``tensor``, as the library's walk does.
    """
    phase = _diagonal_phase(times, spectra, spare.reshape(tensor.shape))
    spectrum = sfft.fftn(tensor, norm="ortho", overwrite_x=True)
    spectrum *= phase
    return sfft.ifftn(spectrum, norm="ortho", overwrite_x=True)
