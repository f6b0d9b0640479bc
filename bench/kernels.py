"""Time per call of each kernel at the fixed cells K = 2^8, 2^15 and 2^20.

The bytes reported beside each time are computed from array sizes: every
operand array read once plus the result written once (complex128 states,
float64 objective tables). They are the compulsory traffic of one call, not a
bandwidth measurement: a 16 MiB state at K = 2^20 still fits in the 105 MiB
last-level cache of the reference machine, and an array four times that
cache is out of reach in its memory limit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from qvasim.mixers import (
    CirculantGraph,
    MomentumGrid,
    hypercube_mixer,
    phase_shift,
    qaoa_complete_mixer,
    qmoa_mixer,
    qowe_mixer,
)
from qvasim.states import StateVector, expectation

from workloads import build_table

# (log2 K, D, N)
CELLS = ((8, 2, 16), (15, 3, 32), (20, 4, 32))
MIN_CALLS = 3
MAX_CALLS = 2000
BUDGET_S = 0.2


def _time_calls(call) -> float:
    """Median seconds per call after one warm-up call."""
    call()
    times = []
    started = time.perf_counter()
    while len(times) < MIN_CALLS or (
        len(times) < MAX_CALLS and time.perf_counter() - started < BUDGET_S
    ):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_table(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for log2k, dims, n in CELLS:
        grid, table = build_table("styblinski_tang", dims, n)
        k = grid.total_points
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        state = StateVector(amps / np.linalg.norm(amps), grid.tensor_shape)
        graphs = tuple(CirculantGraph.complete(n) for _ in range(dims))
        momentum = MomentumGrid.from_grid(grid)
        times = rng.uniform(0.0, 2.0 * np.pi, size=dims)
        t, gamma = float(times[0]), float(rng.uniform(-np.pi, np.pi))
        state_bytes, table_bytes = 16 * k, 8 * k
        calls = {
            "phase_shift": (lambda: phase_shift(state, gamma, table), table_bytes + 2 * state_bytes),
            "qmoa_mixer": (lambda: qmoa_mixer(state, times, graphs), 2 * state_bytes),
            "qaoa_complete_mixer": (lambda: qaoa_complete_mixer(state, t), 2 * state_bytes),
            "hypercube_mixer": (lambda: hypercube_mixer(state, t), 2 * state_bytes),
            "qowe_mixer": (lambda: qowe_mixer(state, times, momentum, grid), 2 * state_bytes),
            "expectation": (lambda: expectation(state, table), table_bytes + state_bytes),
            "norm_drift": (state.norm_drift, state_bytes),
        }
        for name, (call, nbytes) in calls.items():
            out[f"kernel.{name}.k{log2k}.us_per_call"] = _time_calls(call) * 1e6
            out[f"kernel.{name}.k{log2k}.bytes_computed"] = nbytes
    return out
