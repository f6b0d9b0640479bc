"""Dense oracles for the mixer kernels, capped at K <= 4096.

Each builds its operator from the definition (explicit adjacency matrices,
Kronecker lifts, an eigendecomposition, the centred transform's matrix
elements) rather than from the kernels' factorisations, so the tests can
check the fast kernels against an independent reference.
"""

from __future__ import annotations

import numpy as np

from qvasim.grid import SolutionGrid
from qvasim.mixers import CirculantGraph, MomentumGrid

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


def lifted_adjacency(graphs: tuple[CirculantGraph, ...]) -> np.ndarray:
    """sum_d I x ... x A_d x ... x I with dimension 0 least significant."""
    dims = len(graphs)
    sizes = [g.size for g in graphs]
    k = int(np.prod(sizes))
    total = np.zeros((k, k))
    for d, g in enumerate(graphs):
        term = adjacency_matrix(g)
        for lower in range(d):
            term = np.kron(term, np.eye(sizes[lower]))
        for upper in range(d + 1, dims):
            term = np.kron(np.eye(sizes[upper]), term)
        total += term
    return total


def centred_fourier_matrix(
    grid: SolutionGrid, momentum: MomentumGrid, dim: int
) -> np.ndarray:
    """Dense one-dimensional centred transform, elements exp(-i*k_m*x_n)/sqrt(N)."""
    n = grid.points_per_dim
    x = grid.lower[dim] + np.arange(n) * grid.spacing[dim]
    kappa = momentum.values[dim]
    return np.exp(-1j * np.outer(kappa, x)) / np.sqrt(n)
