"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Fast criteria always run. The stochastic reproductions (5 and 6, each
hour-scale, and 8, about 6 minutes) run when QVASIM_FULL_ACCEPTANCE=1; the
scaling-exponent check (7b, about 3 minutes) additionally needs
QVASIM_SCALING_ACCEPTANCE=1. The durations are serial runs with the BLAS
thread variables pinned to 1, on a 2-core x86-64 machine. Long runs persist
their records under QVASIM_ACCEPTANCE_DIR (default:
<tmp>/qvasim-acceptance) and resume from partial results after
interruption.

Criterion 9's exact unique-solution counts are known-red in this
environment: no grid/evaluation formulation reproduces the published counts
bit-for-bit (see the analysis in the repository notes). Criteria 7b and 8
fail as well when run (see the README). The assertions are kept faithful
rather than loosened.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import qvasim as q
from qvasim.ansatz import Algorithm
from qvasim.harness import ExperimentConfig, run_experiment, summarise
from qvasim.harness.runner import build_ansatz_spec

from oracles import (
    adjacency_matrix,
    centred_fourier_matrix,
    dense_walk_oracle,
    hypercube_adjacency,
)

FULL = os.environ.get("QVASIM_FULL_ACCEPTANCE") == "1"
SCALING = os.environ.get("QVASIM_SCALING_ACCEPTANCE") == "1"
needs_full = pytest.mark.skipif(
    not FULL,
    reason="stochastic run of minutes (8) to hours (5, 6); set QVASIM_FULL_ACCEPTANCE=1",
)
needs_scaling = pytest.mark.skipif(
    not (FULL and SCALING),
    reason="run of about 3 minutes; set QVASIM_FULL_ACCEPTANCE=1 and QVASIM_SCALING_ACCEPTANCE=1",
)


def _workdir() -> Path:
    root = os.environ.get(
        "QVASIM_ACCEPTANCE_DIR", os.path.join(tempfile.gettempdir(), "qvasim-acceptance")
    )
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _report(num: int, name: str, ok: bool = True) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_rdgs_baseline():
    amplification = q.rdgs_amplification(8, 32768)
    assert abs(amplification - 288.0) <= 1.0, amplification
    _report(1, "restricted-depth Grover baseline at p=8, K=32768")


# -- 2 ----------------------------------------------------------------------


def _random_state(rng, k, shape):
    amps = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps /= np.linalg.norm(amps)
    return q.StateVector(amps, shape)


def _qmoa_cases():
    for n, dims_list in ((4, (1, 2, 3, 6)), (8, (1, 2, 4)), (16, (1, 2, 3)), (64, (1, 2))):
        for d in dims_list:
            if n**d <= 4096:
                yield n, d


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20)
    worst = 0.0

    for n, d in _qmoa_cases():
        families = {"complete": q.CirculantGraph.complete(n), "cycle": q.CirculantGraph.cycle(n)}
        if n >= 4:
            families["banded2"] = q.CirculantGraph.banded(n, 2)
        k = n**d
        shape = (n,) * d
        for graph in families.values():
            graphs = (graph,) * d
            adjacency = adjacency_matrix(graph)
            for _ in range(20):
                times = rng.uniform(0, 2 * np.pi, size=d)
                state = _random_state(rng, k, shape)
                fast = q.qmoa_mixer(state, times, graphs).amplitudes
                # exp(-i sum_d t_d T_d) with commuting Kronecker lifts equals
                # the Kronecker product of the per-dimension dense walks
                # (dimension 0 in the least-significant slot)
                dense_op = dense_walk_oracle(adjacency, float(times[0]))
                for dim in range(1, d):
                    dense_op = np.kron(
                        dense_walk_oracle(adjacency, float(times[dim])), dense_op
                    )
                dense = dense_op @ state.amplitudes
                del dense_op
                worst = max(worst, float(np.max(np.abs(fast - dense))))
    assert worst < 1e-9, f"QMOA deviation {worst}"

    worst_qaoa = 0.0
    for k in (2, 4, 8, 16, 64):
        adj = np.ones((k, k)) - np.eye(k)
        w, v = np.linalg.eigh(adj)
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi)
            state = _random_state(rng, k, (k,))
            fast = q.qaoa_complete_mixer(state, t).amplitudes
            dense = (v * np.exp(-1j * t * w)) @ (v.conj().T @ state.amplitudes)
            worst_qaoa = max(worst_qaoa, float(np.max(np.abs(fast - dense))))
    assert worst_qaoa < 1e-9, f"complete-graph deviation {worst_qaoa}"

    worst_hyp = 0.0
    for m in (1, 2, 3, 4):
        k = 1 << m
        w, v = np.linalg.eigh(hypercube_adjacency(m))
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi)
            state = _random_state(rng, k, (k,))
            fast = q.hypercube_mixer(state, t).amplitudes
            dense = (v * np.exp(-1j * t * w)) @ (v.conj().T @ state.amplitudes)
            worst_hyp = max(worst_hyp, float(np.max(np.abs(fast - dense))))
    assert worst_hyp < 1e-9, f"hypercube deviation {worst_hyp}"

    worst_qowe = 0.0
    for n in (4, 8, 16):
        for d in (1, 2):
            grid = q.make_grid([-2.0] * d, [3.0] * d, n)
            momentum = q.MomentumGrid.from_grid(grid)
            f1 = centred_fourier_matrix(grid, momentum, 0)
            big_f = f1
            for _ in range(d - 1):
                big_f = np.kron(f1, big_f)
            k = n**d
            for _ in range(20):
                times = rng.uniform(0, 2 * np.pi, size=d)
                state = _random_state(rng, k, (n,) * d)
                fast = q.qowe_mixer(state, times, momentum, grid).amplitudes
                phase = np.zeros(k)
                for dim in range(d):
                    kappa_sq = momentum.values[dim] ** 2
                    reps_inner = n**dim
                    reps_outer = k // (reps_inner * n)
                    phase = phase + times[dim] * np.tile(
                        np.repeat(kappa_sq, reps_inner), reps_outer
                    )
                dense = big_f.conj().T @ (np.exp(-1j * phase) * (big_f @ state.amplitudes))
                worst_qowe = max(worst_qowe, float(np.max(np.abs(fast - dense))))
    assert worst_qowe < 1e-9, f"momentum-mixer deviation {worst_qowe}"
    _report(2, "mixer kernels match dense operators (< 1e-9)")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_unitarity_full_depth():
    rng = np.random.default_rng(3)
    fn = q.get_function("styblinski_tang")
    lower, upper = fn.domain(3)
    grid = q.make_grid(lower, upper, 32)
    table = q.build_objective(grid, fn.fn)
    momentum = q.MomentumGrid.from_grid(grid)
    graphs = tuple(q.CirculantGraph.complete(32) for _ in range(3))

    for label in ("qmoa", "qaoa_complete", "qaoa_hypercube", "qowe"):
        state = q.grid_superposition(grid)
        for _ in range(8):
            state = q.phase_shift(state, rng.uniform(-2 * np.pi, 2 * np.pi), table)
            t = rng.uniform(0, 2 * np.pi, size=3)
            if label == "qmoa":
                state = q.qmoa_mixer(state, t, graphs)
            elif label == "qaoa_complete":
                state = q.qaoa_complete_mixer(state, float(t[0]))
            elif label == "qaoa_hypercube":
                state = q.hypercube_mixer(state, float(t[0]))
            else:
                state = q.qowe_mixer(state, t, momentum, grid)
        drift = state.norm_drift()
        assert drift < 1e-10, f"{label}: norm drift {drift}"
    _report(3, "norm drift < 1e-10 after p=8 ansatz at D=3, N=32 (all algorithms)")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_grover_equivalence():
    from qvasim.grid import table_from_values

    worst = 0.0
    for k in (64, 1024):
        marked = k // 3
        values = np.zeros(k)
        values[marked] = 1.0
        table = table_from_values(values)
        grid = q.make_grid([0.0], [1.0], k)
        for p in range(1, 9):
            spec = q.AnsatzSpec(Algorithm.QAOA_COMPLETE, p)
            params = q.ParameterVector(
                np.full(p, np.pi), np.full((p, 1), np.pi / k)
            )
            state = q.apply_ansatz(spec, params, table, grid)
            prob = float(state.probabilities()[marked])
            worst = max(worst, abs(prob - q.rdgs_probability(p, k)))
    assert worst < 1e-6, f"max |P(marked) - G(p, K)| = {worst}"
    _report(4, "fixed-parameter complete-graph ansatz reproduces Grover curve")


# -- 5 / 6: hour-scale reproductions via the harness ------------------------


def _depth_sweep_config(name, algorithms, function, out):
    return ExperimentConfig(
        kind="mixer_comparison",
        algorithms=algorithms,
        functions=[function],
        dims=3,
        n_points=32,
        depth_range=(1, 8),
        repeats=10,
        base_seed=2025,
        output_dir=str(out / name),
    )


@needs_full
@pytest.mark.slow
def test_criterion_5_depth_sweep_reproduction():
    config = _depth_sweep_config(
        "criterion5", ["qmoa_complete", "qaoa_complete"], "styblinski_tang", _workdir()
    )
    records = run_experiment(config)
    rows = summarise(records, ["algorithm", "depth"])
    by = {(r["algorithm"], r["depth"]): r for r in rows}
    best_final = by[("qmoa_complete", 8)]["best_mean_error"]
    assert best_final <= 0.06, f"best mean error at p=8: {best_final}"
    for p in range(4, 9):
        qmoa = by[("qmoa_complete", p)]["mean_error_mean"]
        qaoa = by[("qaoa_complete", p)]["mean_error_mean"]
        assert qmoa < qaoa, f"ordering violated at p={p}: {qmoa} !< {qaoa}"
    _report(5, "depth-sweep mean-error reproduction (STF, D=3, N=32)")


@needs_full
@pytest.mark.slow
def test_criterion_6_structured_search_threshold():
    config = _depth_sweep_config(
        "criterion6", ["qmoa_complete"], "rastrigin", _workdir()
    )
    records = run_experiment(config)
    rows = summarise(records, ["algorithm", "depth"])
    best = next(
        r for r in rows if r["algorithm"] == "qmoa_complete" and r["depth"] == 8
    )["best_max_amplification"]
    threshold = 10.0 * q.rdgs_amplification(8, 32768)
    assert best >= threshold, f"best amplification {best} < {threshold}"
    _report(6, "amplification exceeds 10x the unstructured-search line (RF)")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_scaling_fit_exact_recovery():
    c_true, alpha_true, dims = 2.0, 1.5, 2
    points = [(p, dims, c_true * p ** (alpha_true * dims)) for p in range(1, 7)]
    fit = q.fit_scaling(points)
    assert abs(fit.alpha - alpha_true) < 1e-9
    assert abs(fit.c - c_true) < 1e-9
    _report(7, "scaling fit recovers synthetic exponents exactly")


@needs_scaling
@pytest.mark.slow
def test_criterion_7b_scaling_exponent_band():
    out = _workdir()
    config = ExperimentConfig(
        kind="scaling_study",
        algorithms=["qmoa_complete"],
        functions=["rastrigin"],
        dims=2,
        n_points=16,
        depth_range=(1, 6),
        repeats=60,
        base_seed=77,
        output_dir=str(out / "criterion7b"),
        dims_list=[2],
        grid_sizes=[16],
    )
    records = run_experiment(config)
    rows = summarise(records, ["depth"])
    points = [(r["depth"], 2, r["max_amplification_mean"]) for r in rows]
    fit = q.fit_scaling(points)
    assert abs(fit.alpha - 1.07) <= 0.21, f"alpha {fit.alpha} outside 1.07 +/- 0.21"
    _report(7, "scaling exponent inside the published 3-sigma band")


# -- 8 ----------------------------------------------------------------------


@needs_full
@pytest.mark.slow
def test_criterion_8_hybrid_speedup():
    """Mean assisted-vs-classical speedup at the stated operating point.

    Known-red: ``hybrid_optimise`` caps the sampled outer loop at
    200 * n_params + 1 = 4,001 fev_qmoa here (D=3, p=5, n_params = 20). A
    run that reaches the cap costs at least 30 * 6 * 4,001 = 720,180
    assisted evaluations before its first simplex launch. The recorded run
    read a mean assisted cost of 1,078,512 against a mean baseline of
    190,461; with every repeat at the cap, the mean speedup is at most
    190,461 / 720,180 = 0.26. That the inclusive grid convention causes
    this has not been shown. Kept faithful.
    """
    out = _workdir()
    config = ExperimentConfig(
        kind="hybrid_study",
        algorithms=[],
        functions=["rastrigin"],
        dims=3,
        n_points=16,
        depth_range=(5, 5),
        repeats=50,
        base_seed=99,
        output_dir=str(out / "criterion8"),
        epsilon=1e-4,
        sample_size=30,
    )
    records = run_experiment(config)
    speedups = [r.speedup for r in records]
    mean_speedup = float(np.mean(speedups))
    assert mean_speedup > 1.0, f"mean speedup {mean_speedup} over {len(speedups)} repeats"
    _report(8, f"hybrid optimisation speedup (mean {mean_speedup:.2f})")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_ground_truth_minima():
    from qvasim.functions import FUNCTIONS, ROUNDED_MINIMUM

    for name, f in FUNCTIONS.items():
        tol = 1e-2 if name in ROUNDED_MINIMUM else 1e-4
        dims_to_check = (f.dims,) if f.dims else (max(2, f.min_dims), 3)
        for dims in dims_to_check:
            expected = f.known_minimum(dims)
            for minimiser in f.known_minimisers(dims):
                value = q.evaluate_test_function(name, minimiser)
                assert abs(value - expected) <= tol, (
                    f"{name} at {minimiser}: {value} vs {expected}"
                )
    _report(9, "all catalogue minima validated at their tolerances")


def test_criterion_9_unique_solution_counts():
    """Exact reproduction of the published unique-value counts.

    Known-red: the published counts depend on the original pipeline's
    floating-point evaluation order and cannot be reproduced from the stated
    formulas (any exact-lattice evaluation is provably collision-stable at
    different counts). The faithful assertion is kept rather than loosened.
    """
    counts = {}
    for name, expected in (("styblinski_tang", 5887), ("rastrigin", 1382)):
        fn = q.get_function(name)
        lower, upper = fn.domain(3)
        grid = q.make_grid(lower, upper, 32)
        table = q.build_objective(grid, fn.fn)
        counts[name] = (table.n_unique, expected)
    ok = all(actual == expected for actual, expected in counts.values())
    _report(9, f"unique-solution counts {counts}", ok)
    for name, (actual, expected) in counts.items():
        assert actual == expected, f"{name}: {actual} unique values, published {expected}"


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_depth_monotonicity():
    fn = q.get_function("styblinski_tang")
    lower, upper = fn.domain(2)
    grid = q.make_grid(lower, upper, 16)
    table = q.build_objective(grid, fn.fn)
    for label in ("qmoa_complete", "qaoa_complete", "qaoa_hypercube", "qowe_gaussian"):
        spec = build_ansatz_spec(label, 2, 16)
        sweep = q.depth_sweep(
            spec, table, grid, [1, 2, 3, 4, 5], repeats=3,
            seed_fn=lambda p, j: 31 * p + j,
        )
        values = [d.best.expectation for d in sweep]
        for i in range(len(values) - 1):
            assert values[i + 1] <= values[i] + 1e-8, f"{label}: {values}"
    _report(10, "best expectation non-increasing across warm-started depths")
