import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvasim.engine as engine
from qvasim.ansatz import (
    Algorithm,
    AnsatzSpec,
    ParameterVector,
    ProductPropagator,
    apply_ansatz,
    evaluator,
    initial_state,
    objective_value,
)
from qvasim.engine import (
    OptimiserOptions,
    RepeatResult,
    _initial_params,
    depth_sweep,
    draw_wavepacket_centres,
    nelder_mead,
    nelder_mead_blocks,
    nelder_mead_runs,
    optimise_at_depth,
    parallel_map,
    resolve_workers,
)
from qvasim.grid import build_objective, make_grid, table_from_values
from qvasim.mixers import CirculantGraph
from qvasim.states import WavepacketSpec, expectation, grid_superposition
from qvasim.analysis import rdgs_probability
from qvasim.functions import get_function

from oracles import adjacency_matrix, dense_walk_oracle, scipy_nelder_mead


def small_problem(dims=2, n=4, name="styblinski_tang"):
    fn = get_function(name)
    lower, upper = fn.domain(dims)
    grid = make_grid(lower, upper, n)
    return grid, build_objective(grid, fn.fn)


def qmoa_spec(dims, n, depth=1, shared=False):
    return AnsatzSpec(
        Algorithm.QMOA,
        depth,
        graphs=tuple(CirculantGraph.complete(n) for _ in range(dims)),
        shared_walk_time=shared,
    )


class TestAnsatzSpec:
    def test_parameter_counts(self):
        assert qmoa_spec(3, 4, depth=2).params_per_layer(3) == 4
        assert qmoa_spec(3, 4, depth=2, shared=True).params_per_layer(3) == 2
        assert AnsatzSpec(Algorithm.QAOA_COMPLETE, 2).params_per_layer(3) == 2
        assert AnsatzSpec(Algorithm.QAOA_HYPERCUBE, 2).params_per_layer(3) == 2
        assert AnsatzSpec(Algorithm.QOWE, 5).params_per_layer(3) == 4
        assert AnsatzSpec(Algorithm.QOWE, 5).total_params(3) == 20

    def test_qmoa_requires_graphs(self):
        with pytest.raises(ValueError, match="graph"):
            AnsatzSpec(Algorithm.QMOA, 1)

    def test_flatten_roundtrip(self):
        params = ParameterVector([0.1, 0.2], [[1.0, 2.0], [3.0, 4.0]])
        flat = params.flatten()
        assert np.array_equal(flat, [0.1, 1.0, 2.0, 0.2, 3.0, 4.0])
        back = ParameterVector.unflatten(flat, 2, 2)
        assert np.array_equal(back.gammas, params.gammas)
        assert np.array_equal(back.walk_times, params.walk_times)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ParameterVector([np.nan], [[0.0]])


class TestApplyAnsatz:
    @pytest.mark.parametrize(
        "algorithm", [Algorithm.QMOA, Algorithm.QAOA_COMPLETE, Algorithm.QAOA_HYPERCUBE, Algorithm.QOWE]
    )
    def test_identity_layers_return_initial_state(self, algorithm):
        grid, table = small_problem()
        if algorithm is Algorithm.QMOA:
            spec = qmoa_spec(2, 4, depth=2)
        else:
            spec = AnsatzSpec(algorithm, 2)
        m = spec.walk_times_per_layer(2)
        params = ParameterVector(np.zeros(2), np.zeros((2, m)))
        out = apply_ansatz(spec, params, table, grid)
        start = initial_state(spec, grid)
        assert np.max(np.abs(out.amplitudes - start.amplitudes)) < 1e-13

    def test_single_grover_iteration(self):
        k = 16
        marked = 11
        values = np.zeros(k)
        values[marked] = 1.0
        table = table_from_values(values)
        grid = make_grid([0.0], [1.0], k)
        spec = AnsatzSpec(Algorithm.QAOA_COMPLETE, 1)
        params = ParameterVector([np.pi], [[np.pi / k]])
        state = apply_ansatz(spec, params, table, grid)
        assert state.probabilities()[marked] == pytest.approx(
            rdgs_probability(1, k), abs=1e-12
        )

    def test_qmoa_matches_dense_layer_product(self):
        # depth-3 ansatz vs explicit dense matrix chain
        rng = np.random.default_rng(21)
        grid, table = small_problem(dims=2, n=4)
        spec = qmoa_spec(2, 4, depth=3)
        params = ParameterVector(
            rng.uniform(-2 * np.pi, 2 * np.pi, 3), rng.uniform(0, 2 * np.pi, (3, 2))
        )
        state = apply_ansatz(spec, params, table, grid)

        adjacency = adjacency_matrix(CirculantGraph.complete(4))
        psi = grid_superposition(grid).amplitudes
        for layer in range(3):
            psi = np.exp(-1j * params.gammas[layer] * table.values) * psi
            walk = np.kron(
                dense_walk_oracle(adjacency, params.walk_times[layer, 1]),
                dense_walk_oracle(adjacency, params.walk_times[layer, 0]),
            )
            psi = walk @ psi
        assert np.max(np.abs(state.amplitudes - psi)) < 1e-9

    def test_shared_walk_time_broadcasts(self):
        grid, table = small_problem(dims=2, n=4)
        shared = qmoa_spec(2, 4, depth=1, shared=True)
        independent = qmoa_spec(2, 4, depth=1)
        p_shared = ParameterVector([0.7], [[0.4]])
        p_indep = ParameterVector([0.7], [[0.4, 0.4]])
        a = apply_ansatz(shared, p_shared, table, grid)
        b = apply_ansatz(independent, p_indep, table, grid)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_layout_mismatch_rejected(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4, depth=2)
        with pytest.raises(ValueError, match="layout"):
            apply_ansatz(spec, ParameterVector([0.1], [[0.1, 0.1]]), table, grid)

    def test_objective_value_is_expectation_of_ansatz(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4, depth=2)
        rng = np.random.default_rng(0)
        params = ParameterVector(rng.normal(size=2), rng.uniform(0, 1, (2, 2)))
        value = objective_value(spec, params, table, grid)
        state = apply_ansatz(spec, params, table, grid)
        assert value == expectation(state, table)

    def test_zero_parameters_give_mean(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4, depth=1)
        params = ParameterVector([0.0], [[0.0, 0.0]])
        value = objective_value(spec, params, table, grid)
        assert value == pytest.approx(np.mean(table.values), rel=1e-13)

    def test_drift_log_collects_per_layer(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4, depth=3)
        drift = []
        params = ParameterVector([0.2, 0.3, 0.1], np.full((3, 2), 0.5))
        apply_ansatz(spec, params, table, grid, drift_log=drift)
        assert len(drift) == 3
        assert all(d < 1e-12 for d in drift)


class TestNelderMead:
    def test_scalar_quadratic(self):
        result = nelder_mead(lambda x: (x[0] - 2.0) ** 2, [0.0])
        assert result.x[0] == pytest.approx(2.0, abs=1e-4)
        assert result.evaluations > 0

    def test_sphere_two_dim(self):
        result = nelder_mead(lambda x: x[0] ** 2 + x[1] ** 2, [1.0, 1.0])
        assert np.allclose(result.x, [0.0, 0.0], atol=1e-4)

    def test_rosenbrock_with_adaptive_scheme(self):
        result = nelder_mead(
            lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
            [-1.2, 1.0],
        )
        assert np.allclose(result.x, [1.0, 1.0], atol=1e-3)

    def test_never_worse_than_start(self):
        rastrigin = get_function("rastrigin").fn
        rng = np.random.default_rng(17)
        for _ in range(10):
            x0 = rng.uniform(-5.12, 5.12, size=2)
            result = nelder_mead(lambda x: float(rastrigin(x)), x0)
            assert result.value <= float(rastrigin(x0)) + 1e-12

    def test_bounds_clamp_solution(self):
        bounds = np.array([[0.0, 1.0]])
        result = nelder_mead(
            lambda x: (x[0] - 2.0) ** 2, [0.5], OptimiserOptions(bounds=bounds)
        )
        assert result.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_start_outside_bounds_is_clipped_before_scipy_sees_it(self):
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        options = OptimiserOptions(bounds=bounds)

        def objective(x):
            return float((x[0] - 0.3) ** 2 + (x[1] - 0.6) ** 2)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outside = nelder_mead(objective, [3.0, -2.0], options)
        clipped = nelder_mead(objective, [1.0, 0.0], options)
        assert np.array_equal(outside.x, clipped.x)
        assert outside.value == clipped.value
        assert outside.evaluations == clipped.evaluations
        assert outside.iterations == clipped.iterations

    def test_rejects_nonfinite_start(self):
        with pytest.raises(ValueError, match="finite"):
            nelder_mead(lambda x: x[0] ** 2, [np.inf])
        with pytest.raises(ValueError, match="not finite"):
            nelder_mead(lambda x: float("nan"), [0.0])

    def test_rejects_bad_shapes_before_evaluating(self):
        def objective(x):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match="non-empty vector"):
            nelder_mead(objective, [])
        with pytest.raises(ValueError, match="non-empty vector"):
            nelder_mead(objective, [[0.0, 1.0]])
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            nelder_mead(objective, [0.0, 1.0], OptimiserOptions(bounds=np.array([[0.0, 1.0]])))
        with pytest.raises(ValueError, match="upper bound is less"):
            nelder_mead(objective, [0.5], OptimiserOptions(bounds=np.array([[1.0, 0.0]])))


class TestInitialisation:
    def test_fresh_draws_use_stated_ranges(self):
        spec = qmoa_spec(3, 4, depth=4)
        rng = np.random.default_rng(0)
        gammas = []
        times = []
        for _ in range(200):
            params = _initial_params(spec, 3, None, rng, identity_extension=False)
            gammas.extend(params.gammas)
            times.extend(params.walk_times.ravel())
        gammas, times = np.array(gammas), np.array(times)
        assert np.all((gammas >= -2 * np.pi) & (gammas < 2 * np.pi))
        assert np.all((times >= 0.0) & (times < 2 * np.pi))
        assert gammas.min() < -np.pi and gammas.max() > np.pi  # spans the range

    def test_warm_start_copies_first_layers(self):
        spec = qmoa_spec(2, 4, depth=3)
        warm = ParameterVector([0.5, -0.4], [[1.0, 2.0], [3.0, 4.0]])
        rng = np.random.default_rng(1)
        params = _initial_params(spec, 2, warm, rng, identity_extension=False)
        assert np.array_equal(params.gammas[:2], warm.gammas)
        assert np.array_equal(params.walk_times[:2], warm.walk_times)

    def test_identity_extension_appends_zeros(self):
        spec = qmoa_spec(2, 4, depth=3)
        warm = ParameterVector([0.5, -0.4], [[1.0, 2.0], [3.0, 4.0]])
        rng = np.random.default_rng(2)
        params = _initial_params(spec, 2, warm, rng, identity_extension=True)
        assert params.gammas[2] == 0.0
        assert np.array_equal(params.walk_times[2], [0.0, 0.0])

    def test_warm_depth_mismatch_rejected(self):
        spec = qmoa_spec(2, 4, depth=4)
        warm = ParameterVector([0.5], [[1.0, 2.0]])
        with pytest.raises(ValueError, match="warm start"):
            _initial_params(spec, 2, warm, np.random.default_rng(0), False)

    def test_qowe_fresh_layers_start_at_hand_selected_values(self):
        spec = AnsatzSpec(Algorithm.QOWE, 2)
        params = _initial_params(spec, 2, None, np.random.default_rng(3), False)
        assert np.all(params.gammas == 0.1)
        assert np.all(params.walk_times == 0.1)

    def test_wavepacket_centre_range(self):
        grid = make_grid([-5.0, -5.0], [5.0, 5.0], 4)
        rng = np.random.default_rng(4)
        draws = np.array([draw_wavepacket_centres(grid, rng) for _ in range(500)])
        assert np.all(draws >= -3.75) and np.all(draws <= 3.75)
        assert draws.min() < -3.0 and draws.max() > 3.0


class TestOptimiseAtDepth:
    def test_seeded_reproducibility(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        a = optimise_at_depth(spec, table, grid, 1, repeats=3, seeds=5)
        b = optimise_at_depth(spec, table, grid, 1, repeats=3, seeds=5)
        assert [r.expectation for r in a.repeats] == [r.expectation for r in b.repeats]
        for ra, rb in zip(a.repeats, b.repeats):
            assert np.array_equal(ra.params.flatten(), rb.params.flatten())

    def test_best_breaks_ties_by_lowest_repeat(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        result = optimise_at_depth(spec, table, grid, 1, repeats=4, seeds=[9, 9, 2, 3])
        # repeats 0 and 1 share a seed, hence identical values; argmin -> 0
        assert result.repeats[0].expectation == result.repeats[1].expectation
        if result.best.expectation == result.repeats[0].expectation:
            assert result.best_index in (0, 2, 3)
            if result.repeats[0].expectation <= min(
                result.repeats[2].expectation, result.repeats[3].expectation
            ):
                assert result.best_index == 0

    def test_improves_on_from_start_mean(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        result = optimise_at_depth(spec, table, grid, 2, repeats=3, seeds=0)
        assert result.best.expectation < np.mean(table.values)

    def test_parallel_matches_serial(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        serial = optimise_at_depth(spec, table, grid, 1, repeats=3, seeds=1, workers=1)
        parallel = optimise_at_depth(spec, table, grid, 1, repeats=3, seeds=1, workers=2)
        assert [r.expectation for r in serial.repeats] == [
            r.expectation for r in parallel.repeats
        ]

    def test_worker_counts_below_one_are_rejected(self, monkeypatch):
        for workers in (0, -4):
            with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
                parallel_map(abs, [1, 2], workers)
        monkeypatch.setenv("QVASIM_WORKERS", "0")
        with pytest.raises(ValueError, match="QVASIM_WORKERS must be at least 1"):
            parallel_map(abs, [1, 2])
        monkeypatch.setenv("QVASIM_WORKERS", "two")
        with pytest.raises(ValueError, match="QVASIM_WORKERS must be an integer, got 'two'"):
            resolve_workers()
        assert resolve_workers(3) == 3
        monkeypatch.setenv("QVASIM_WORKERS", "")
        assert resolve_workers() == 1

    def test_pool_workers_pin_their_threads_unless_set(self, monkeypatch):
        names = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"]
        for name in names:
            monkeypatch.delenv(name, raising=False)
        assert list(parallel_map(os.getenv, names, 2)) == ["1", "1", "1"]
        assert not any(name in os.environ for name in names)  # this process's are left unset
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert list(parallel_map(os.getenv, names, 2)) == ["1", "3", "1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_done_repeats_are_kept_and_not_rerun(self, monkeypatch):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        known = RepeatResult(
            params=ParameterVector([0.0], [[0.0, 0.0]]),
            expectation=-1e9,
            evaluations=0,
            seed=-1,
            state=None,
            wall_time=0.0,
        )
        run_seeds = []
        real = engine.run_single_repeat

        def spy(spec, grid, warm, seed, options, identity):
            run_seeds.append(seed)
            return real(spec, grid, warm, seed, options, identity)

        monkeypatch.setattr(engine, "run_single_repeat", spy)
        result = optimise_at_depth(spec, table, grid, 1, repeats=3, seeds=5, done={1: known})
        assert run_seeds == [5, 7]
        assert result.repeats[1] is known
        assert [r.seed for r in result.repeats] == [5, -1, 7]
        assert result.best is known

    def test_repeat_reports_wall_time(self):
        grid, table = small_problem()
        result = optimise_at_depth(qmoa_spec(2, 4), table, grid, 1, repeats=1)
        assert result.repeats[0].wall_time > 0.0

    def test_warm_start_must_be_warm_start(self):
        grid, table = small_problem()
        bare = ParameterVector([0.5], [[1.0, 2.0]])
        with pytest.raises(TypeError, match="RepeatResult"):
            optimise_at_depth(qmoa_spec(2, 4), table, grid, 2, warm_start=bare, repeats=1)

    def test_warm_start_reaches_workers_without_state(self, monkeypatch):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        first = optimise_at_depth(spec, table, grid, 1, repeats=2, seeds=3)
        assert first.best.state is not None
        sent = []
        real = engine.parallel_map

        def spy(fn, tasks, workers=None):
            sent.extend(task[3] for task in tasks)
            return real(fn, tasks, workers)

        monkeypatch.setattr(engine, "parallel_map", spy)
        optimise_at_depth(spec, table, grid, 2, warm_start=first.best, repeats=2, workers=2)
        assert len(sent) == 2
        assert all(warm.state is None and warm.params is first.best.params for warm in sent)
        assert first.best.state is not None  # the caller's result keeps its state


class TestDepthSweep:
    def test_monotone_best_values(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        results = depth_sweep(spec, table, grid, [1, 2, 3], repeats=3)
        values = [r.best.expectation for r in results]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))

    def test_warm_start_layers_propagate(self):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        results = depth_sweep(spec, table, grid, [1, 2], repeats=2)
        assert results[1].repeats[0].identity_extension

    def test_done_hook_chains_warm_start_from_restored_best(self, monkeypatch):
        grid, table = small_problem()
        spec = qmoa_spec(2, 4)
        first = optimise_at_depth(spec, table, grid, 1, repeats=2, seeds=3)
        # make the worse repeat the restored best, so the chain must follow it
        worst = int(np.argmax([r.expectation for r in first.repeats]))
        restored = {
            j: replace(r, state=None, expectation=-1e9 if j == worst else r.expectation)
            for j, r in enumerate(first.repeats)
        }
        calls = []
        real = engine.run_single_repeat

        def spy(spec, grid, warm, seed, options, identity):
            calls.append((spec.depth, warm))
            return real(spec, grid, warm, seed, options, identity)

        monkeypatch.setattr(engine, "run_single_repeat", spy)
        results = depth_sweep(
            spec, table, grid, [1, 2], repeats=2, done=lambda p: restored if p == 1 else {}
        )
        assert [r is restored[j] for j, r in enumerate(results[0].repeats)] == [True, True]
        assert [depth for depth, _ in calls] == [2, 2]
        assert all(warm.params is restored[worst].params for _, warm in calls)
        assert results[1].repeats[0].identity_extension

    def test_rejects_unsorted_depths(self):
        grid, table = small_problem()
        with pytest.raises(ValueError, match="ascending"):
            depth_sweep(qmoa_spec(2, 4), table, grid, [2, 1])


class TestTraceLog:
    def test_trace_records_iterations(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        result = nelder_mead(lambda x: (x[0] - 2.0) ** 2, [0.0], trace_path=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == result.iterations
        assert lines[0]["iteration"] == 1
        assert set(lines[0]) == {"iteration", "expectation", "params"}
        values = [line["expectation"] for line in lines]
        assert values[-1] <= values[0]

    def test_trace_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        nelder_mead(lambda x: x[0] ** 2, [1.0], trace_path=path)
        first = path.read_text().count("\n")
        nelder_mead(lambda x: x[0] ** 2, [1.0], trace_path=path)
        assert path.read_text().count("\n") == 2 * first

    @staticmethod
    def _quadratic(x):
        return (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 0.5) ** 2

    def _assert_trace_matches(self, path, result):
        import json

        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == result.iterations
        assert [line["iteration"] for line in lines] == list(
            range(1, result.iterations + 1)
        )

    def test_trace_matches_iteration_cap(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        options = OptimiserOptions(max_iterations=5)
        result = nelder_mead(self._quadratic, [0.3, 0.7], options, trace_path=path)
        # scipy's maxiter counts the initial simplex, which is not a step
        assert result.iterations == 4
        self._assert_trace_matches(path, result)

    @pytest.mark.parametrize("max_evaluations", range(4, 16))
    def test_trace_matches_evaluation_cap(self, tmp_path, max_evaluations):
        # the cap falls alternately mid-step and at a step's end
        path = tmp_path / "trace.jsonl"
        options = OptimiserOptions(max_evaluations=max_evaluations)
        result = nelder_mead(self._quadratic, [0.3, 0.7], options, trace_path=path)
        assert result.evaluations == max_evaluations + 1
        assert result.iterations >= 1
        self._assert_trace_matches(path, result)

    @pytest.mark.parametrize(
        "options",
        [OptimiserOptions(), OptimiserOptions(max_iterations=5), OptimiserOptions(max_evaluations=9)],
        ids=["converged", "iteration_cap", "evaluation_cap"],
    )
    def test_tracing_does_not_change_optimisation(self, tmp_path, options):
        plain = nelder_mead(self._quadratic, [0.3, 0.7], options)
        traced = nelder_mead(
            self._quadratic, [0.3, 0.7], options, trace_path=tmp_path / "trace.jsonl"
        )
        assert np.array_equal(plain.x, traced.x)
        assert plain.value == traced.value
        assert plain.evaluations == traced.evaluations
        assert plain.iterations == traced.iterations


# Objectives bounded below, so no run diverges; a centre moves each minimum.
SIMPLEX_OBJECTIVES = {
    "quadratic": lambda c: lambda x: float(np.sum((x - c) ** 2)),
    "rosenbrock": lambda c: lambda x: float(
        np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2) + np.sum((x - c) ** 2)
    ),
    # piecewise constant: vertices tie, so the ordering's tie-breaks decide
    "plateau": lambda c: lambda x: float(np.floor(4.0 * np.abs(x - c)).sum()),
}


@st.composite
def simplex_runs(draw):
    """(objective, x0, options) over the simplex's branches and stopping rules."""
    dims = draw(st.integers(1, 8))

    def vector(elements):
        return draw(st.lists(elements, min_size=dims, max_size=dims).map(np.array))

    # zero components take the absolute initial step instead of the relative one
    x0 = vector(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    bounds = None
    if draw(st.booleans()):
        # an upper bound on or just above x0 pushes initial vertices past it
        above = vector(st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 2.0)))
        bounds = np.column_stack([x0 - vector(st.floats(0.0, 2.0)), x0 + above])
    options = OptimiserOptions(
        # most runs converge below 1,000 iterations; the cap ends those that
        # do not, such as one that a wrong tie-break sends around a plateau
        max_iterations=draw(st.one_of(st.integers(1, 200), st.just(1_000))),
        # at most N+1 evaluations cuts the initial simplex short
        max_evaluations=draw(
            st.one_of(st.none(), st.integers(0, dims + 1), st.integers(dims + 2, 40 * dims))
        ),
        adaptive=draw(st.booleans()),
        bounds=bounds,
    )
    centre = vector(st.floats(-2.0, 2.0))
    objective = SIMPLEX_OBJECTIVES[draw(st.sampled_from(sorted(SIMPLEX_OBJECTIVES)))](centre)
    return objective, x0, options


class TestSimplexMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(run=simplex_runs())
    def test_bit_for_bit(self, run):
        objective, x0, options = run
        with tempfile.TemporaryDirectory() as tmp:
            ours_trace, scipy_trace = Path(tmp, "ours.jsonl"), Path(tmp, "scipy.jsonl")
            ours = nelder_mead(objective, x0, options, trace_path=ours_trace)
            theirs = scipy_nelder_mead(objective, x0, options, trace_path=scipy_trace)
            # as lists of lines, so that a failure reports the first step that differs
            assert ours_trace.read_text().splitlines() == scipy_trace.read_text().splitlines()
        assert np.array_equal(ours.x, theirs.x)
        assert ours.value == theirs.value
        assert ours.evaluations == theirs.evaluations
        assert ours.iterations == theirs.iterations

    def test_package_and_cli_import_without_scipy_optimize(self):
        src = Path(engine.__file__).resolve().parents[1]
        code = (
            "import sys, qvasim, qvasim.harness.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "[]"


@st.composite
def simplex_cohorts(draw):
    """(objective, starts, options, slots): ``simplex_runs``' objectives and options, unbounded.

    1 to 20 starts share one objective and one set of options.
    """
    dims = draw(st.integers(1, 8))

    def vector(elements):
        return draw(st.lists(elements, min_size=dims, max_size=dims).map(np.array))

    starts = [
        vector(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
        for _ in range(draw(st.integers(1, 20)))
    ]
    options = OptimiserOptions(
        max_iterations=draw(st.one_of(st.integers(1, 200), st.just(1_000))),
        max_evaluations=draw(
            st.one_of(st.none(), st.integers(0, dims + 1), st.integers(dims + 2, 40 * dims))
        ),
        adaptive=draw(st.booleans()),
    )
    centre = vector(st.floats(-2.0, 2.0))
    objective = SIMPLEX_OBJECTIVES[draw(st.sampled_from(sorted(SIMPLEX_OBJECTIVES)))](centre)
    return objective, starts, options, draw(st.integers(1, 8))


def point_by_point(objective):
    """An ``objective_columns`` for ``nelder_mead_runs`` that calls ``objective`` per column."""
    return lambda block: np.array([objective(x) for x in block.T.copy()])


class TestLockstepSimplex:
    @settings(max_examples=60, deadline=None)
    @given(cohort=simplex_cohorts())
    def test_each_run_matches_scipy_bit_for_bit(self, cohort):
        """Every run of a lockstep cohort equals scipy's simplex from its start.

        The plateau objective ties vertices, so the ordering of a block of
        simplices must break ties as the ordering of each one alone does.
        """
        objective, starts, options, slots = cohort
        runs = list(nelder_mead_runs(point_by_point(objective), starts, options, slots))
        assert len(runs) == len(starts)
        for x0, ours in zip(starts, runs):
            theirs = scipy_nelder_mead(objective, x0, options)
            assert np.array_equal(ours.x, theirs.x)
            assert ours.value == theirs.value
            assert ours.evaluations == theirs.evaluations
            assert ours.iterations == theirs.iterations

    def test_a_start_is_drawn_when_a_slot_frees(self):
        """With one slot, run j + 1 is not drawn before run j's result is read."""
        drawn = []

        def starts():
            for j in range(100):
                drawn.append(j)
                yield [float(j), 1.0]

        runs = nelder_mead_runs(point_by_point(lambda x: float(x @ x)), starts(), None, 1)
        next(runs)
        assert drawn == [0]
        next(runs)
        assert drawn == [0, 1]

    def test_rejects_bounds_and_bad_starts(self):
        columns = point_by_point(lambda x: float(x @ x))
        with pytest.raises(ValueError, match="bounds"):
            nelder_mead_runs(columns, [[0.0]], OptimiserOptions(bounds=np.array([[0.0, 1.0]])), 2)
        with pytest.raises(ValueError, match="slot"):
            nelder_mead_runs(columns, [[0.0]], None, 0)
        with pytest.raises(ValueError, match="2 coordinates"):
            list(nelder_mead_runs(columns, [[0.0, 1.0], [0.0]], None, 2))
        with pytest.raises(ValueError, match="finite"):
            list(nelder_mead_runs(columns, [[0.0, np.nan]], None, 2))
        with pytest.raises(ValueError, match="not finite at the starting point"):
            list(nelder_mead_runs(lambda block: np.full(block.shape[1], np.nan), [[1.0]], None, 2))
        assert list(nelder_mead_runs(columns, [], None, 2)) == []


def _block_sizes(objective, x0, options):
    """``nelder_mead_blocks``' result and the size of each block it evaluated."""
    sizes = []

    def rows(block):
        sizes.append(len(block))
        return [objective(x) for x in block]

    return nelder_mead_blocks(rows, x0, options), sizes


class TestSimplexBlocks:
    # piecewise constant: tied values make contractions fail, so the simplex shrinks
    PLATEAU = staticmethod(SIMPLEX_OBJECTIVES["plateau"](np.array([0.5, -0.5, 0.2])))
    X0 = np.array([-1.2, 1.0, 0.3])

    def _matches_scipy(self, result, options):
        theirs = scipy_nelder_mead(self.PLATEAU, self.X0, options)
        assert np.array_equal(result.x, theirs.x)
        assert result.value == theirs.value
        assert result.evaluations == theirs.evaluations
        assert result.iterations == theirs.iterations

    def test_start_then_initial_vertices_then_single_points_and_shrinks(self):
        options = OptimiserOptions(adaptive=False)
        result, sizes = _block_sizes(self.PLATEAU, self.X0, options)
        assert sizes[0] == 5  # the start and the 4 initial vertices
        assert set(sizes[1:]) == {1, 3}  # the shrinks are the blocks of n = 3
        assert sum(sizes) == result.evaluations
        self._matches_scipy(result, options)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_cap_inside_the_initial_simplex(self, cap):
        options = OptimiserOptions(max_evaluations=cap)
        result, sizes = _block_sizes(self.PLATEAU, self.X0, options)
        assert sizes == [1 + cap]
        self._matches_scipy(result, options)

    @pytest.mark.parametrize("cut", [0, 1, 2])
    def test_cap_inside_a_shrink(self, cut):
        """The cap leaves ``cut`` of a shrink's 3 vertices evaluated and moves one more."""
        options = OptimiserOptions(adaptive=False)
        _, sizes = _block_sizes(self.PLATEAU, self.X0, options)
        first_shrink = sizes.index(3, 1)
        cap = sum(sizes[:first_shrink]) - 1 + cut  # the start is not capped
        options = OptimiserOptions(adaptive=False, max_evaluations=cap)
        result, capped = _block_sizes(self.PLATEAU, self.X0, options)
        assert capped == sizes[:first_shrink] + ([cut] if cut else [])
        self._matches_scipy(result, options)

    def test_nonfinite_start_value_raises_after_the_first_block(self):
        sizes = []

        def rows(block):
            sizes.append(len(block))
            return [np.nan] + [0.0] * (len(block) - 1)

        with pytest.raises(ValueError, match="not finite at the starting point"):
            nelder_mead_blocks(rows, self.X0)
        assert sizes == [5]

    @pytest.mark.parametrize("algorithm", [Algorithm.QMOA, Algorithm.QOWE])
    def test_a_lone_repeat_evolves_its_start_once(self, monkeypatch, algorithm):
        """A repeat's first block is its start and n + 1 vertices; vertex 0 is the start."""
        log = []  # [points, rows evolved] per expectations call
        expectations, evolve = ProductPropagator.expectations, ProductPropagator._evolve

        def recording_expectations(propagator, points):
            log.append([len(points), 0])
            return expectations(propagator, points)

        def counting_evolve(propagator, points, drift_logs):
            log[-1][1] += len(points)
            return evolve(propagator, points, drift_logs)

        monkeypatch.setattr(ProductPropagator, "expectations", recording_expectations)
        monkeypatch.setattr(ProductPropagator, "_evolve", counting_evolve)
        grid, table = small_problem()
        spec = qmoa_spec(2, 4) if algorithm is Algorithm.QMOA else AnsatzSpec(algorithm, 1)
        n = spec.at_depth(2).total_params(2)
        options = OptimiserOptions(max_iterations=5)
        optimise_at_depth(spec, table, grid, 2, repeats=1, options=options)
        assert log[0] == [n + 2, n + 1]


class TestExactPeriodicity:
    # only integer-spectrum mixers are asserted periodic; generic walk times
    # have irrational spectra and no 2*pi period
    def test_complete_graph_objective_period(self):
        grid, table = small_problem(dims=1, n=8)
        spec = AnsatzSpec(Algorithm.QAOA_COMPLETE, 1)
        base = objective_value(spec, ParameterVector([0.8], [[0.37]]), table, grid)
        shifted = objective_value(
            spec, ParameterVector([0.8], [[0.37 + 2 * np.pi]]), table, grid
        )
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_hypercube_objective_period(self):
        grid, table = small_problem(dims=2, n=4)
        spec = AnsatzSpec(Algorithm.QAOA_HYPERCUBE, 1)
        base = objective_value(spec, ParameterVector([0.8], [[0.37]]), table, grid)
        shifted = objective_value(
            spec, ParameterVector([0.8], [[0.37 + 2 * np.pi]]), table, grid
        )
        assert shifted == pytest.approx(base, abs=1e-12)


class TestQoweProtocol:
    @pytest.mark.parametrize(
        "p, times_per_layer, halfwidth",
        [(1, 1, 0.1), (2, 3, 0.12), (3, 2, 0.75), (8, 1, 2 * np.pi)],
    )
    def test_bounds_rows_are_layer_major(self, p, times_per_layer, halfwidth):
        """Per layer: (0.1 - h, 0.1 + h) for gamma, then (0, 0.1 + h) for each walk time."""
        bounds = engine._qowe_bounds(p, times_per_layer, halfwidth)
        gamma = [engine.QOWE_GAMMA0 - halfwidth, engine.QOWE_GAMMA0 + halfwidth]
        time = [0.0, engine.QOWE_T0 + halfwidth]
        assert bounds.dtype == np.float64
        assert bounds.tolist() == ([gamma] + [time] * times_per_layer) * p

    def test_interior_optimum_keeps_initial_halfwidth(self):
        # a constant objective terminates immediately at the interior start
        grid = make_grid([-1.0], [1.0], 8)
        table = table_from_values(np.full(8, 2.0))
        spec = AnsatzSpec(Algorithm.QOWE, 1, initial_state="equal")
        result = optimise_at_depth(spec, table, grid, 1, repeats=1, seeds=0)
        assert result.best.bound_halfwidth == pytest.approx(0.1)

    def test_halfwidth_stays_on_growth_ladder(self):
        grid, table = small_problem(dims=1, n=8, name="rastrigin")
        spec = AnsatzSpec(
            Algorithm.QOWE, 1, initial_state=WavepacketSpec([0.0], [1.0])
        )
        result = optimise_at_depth(spec, table, grid, 1, repeats=2, seeds=3)
        for repeat in result.repeats:
            b = repeat.bound_halfwidth
            assert b is not None
            if b < 2 * np.pi:
                steps = np.log(b / 0.1) / np.log(1.2)
                assert abs(steps - round(steps)) < 1e-9
            else:
                assert b == pytest.approx(2 * np.pi)

    @staticmethod
    def record_passes(monkeypatch):
        """Wrap ``engine._nelder_mead``; each pass appends [start, options, evaluations]."""
        passes = []
        simplex = engine._nelder_mead

        def recording(x0, options, trace_path=None):
            record = [np.array(x0, dtype=float), options]
            passes.append(record)
            result = yield from simplex(x0, options, trace_path)
            record.append(result.evaluations)
            return result

        monkeypatch.setattr(engine, "_nelder_mead", recording)
        return passes

    def test_each_pass_restarts_on_the_next_rung(self, monkeypatch):
        grid, table = small_problem(dims=1, n=8, name="rastrigin")
        spec = AnsatzSpec(Algorithm.QOWE, 1, initial_state=WavepacketSpec([0.0], [1.0]))
        for seed in (3, 4):
            passes = self.record_passes(monkeypatch)
            (repeat,) = optimise_at_depth(
                spec, table, grid, 1, repeats=1, seeds=seed, workers=1
            ).repeats
            assert len(passes) == 4
            halfwidth = engine.QOWE_INITIAL_HALFWIDTH
            for start, options, _ in passes:
                assert np.array_equal(start, passes[0][0])
                assert np.array_equal(options.bounds, engine._qowe_bounds(1, 1, halfwidth))
                last, halfwidth = halfwidth, halfwidth * engine.QOWE_GROWTH
            assert [o.bounds[0, 1] - engine.QOWE_GAMMA0 for _, o, _ in passes] == pytest.approx(
                [0.1, 0.12, 0.144, 0.1728]
            )
            assert repeat.evaluations == sum(count for _, _, count in passes)
            assert repeat.bound_halfwidth == last

    def test_warm_start_opens_on_its_rung_and_other_families_pass_once(self, monkeypatch):
        grid, table = small_problem(dims=1, n=8, name="rastrigin")
        spec = AnsatzSpec(Algorithm.QOWE, 1, initial_state=WavepacketSpec([0.0], [1.0]))
        warm_params = ParameterVector(np.array([0.1]), np.array([[0.9]]))
        warm = RepeatResult(warm_params, 0.0, 1, 0, None, 0.0, bound_halfwidth=0.1)
        assert warm_params.walk_times.max() > engine.QOWE_T0 + warm.bound_halfwidth
        needed = 0.9 - engine.QOWE_T0
        rung = warm.bound_halfwidth
        while rung < needed:
            rung *= engine.QOWE_GROWTH
        assert rung / engine.QOWE_GROWTH < needed
        for identity in (True, False):
            passes = self.record_passes(monkeypatch)
            engine._run_group(
                (spec.at_depth(2), table, grid, warm, [0], OptimiserOptions(), [identity])
            )
            start, options, _ = passes[0]
            last_layer = [0.0, 0.0] if identity else [engine.QOWE_GAMMA0, engine.QOWE_T0]
            assert np.array_equal(start, [0.1, 0.9, *last_layer])
            assert np.array_equal(options.bounds, engine._qowe_bounds(2, 1, rung))
            assert np.all((options.bounds[:, 0] <= start) & (start <= options.bounds[:, 1]))

        qmoa = qmoa_spec(1, 8)
        caller = OptimiserOptions(max_iterations=40, bounds=np.array([[-7.0, 7.0], [0.0, 7.0]]))
        passes = self.record_passes(monkeypatch)
        (repeat,) = optimise_at_depth(
            qmoa, table, grid, 1, repeats=1, seeds=5, options=caller, workers=1
        ).repeats
        assert len(passes) == 1
        (_, options, count) = passes[0]
        assert options.bounds is caller.bounds
        assert replace(options, bounds=None) == replace(caller, bounds=None)
        assert repeat.evaluations == count
        assert repeat.bound_halfwidth is None

    def test_wavepacket_repeats_redraw_centres(self):
        grid, table = small_problem(dims=2, n=8)
        spec = AnsatzSpec(Algorithm.QOWE, 1, initial_state="gaussian")
        result = optimise_at_depth(spec, table, grid, 1, repeats=2, seeds=11)
        c0 = result.repeats[0].wavepacket_centres
        c1 = result.repeats[1].wavepacket_centres
        assert c0 is not None and c1 is not None
        assert not np.array_equal(c0, c1)

    def test_warm_identity_repeat_reuses_centres(self):
        grid, table = small_problem(dims=2, n=8)
        spec = AnsatzSpec(Algorithm.QOWE, 1, initial_state="gaussian")
        first = optimise_at_depth(spec, table, grid, 1, repeats=2, seeds=11)
        second = optimise_at_depth(
            spec, table, grid, 2, warm_start=first.best, repeats=2, seeds=13
        )
        assert np.array_equal(
            second.repeats[0].wavepacket_centres, first.best.wavepacket_centres
        )

    def test_supplied_wavepacket_used_as_given(self):
        grid, table = small_problem(dims=2, n=8)
        packet = WavepacketSpec([1.5, -1.5], [0.3, 0.3])
        spec = AnsatzSpec(Algorithm.QOWE, 1, initial_state=packet)
        result = optimise_at_depth(spec, table, grid, 1, repeats=2, seeds=11)
        for repeat in result.repeats:
            assert np.array_equal(repeat.wavepacket_centres, [1.5, -1.5])
            replayed = evaluator(spec, table, grid).expectations(repeat.params.flatten()[None])[0]
            assert replayed == repeat.expectation

    def test_gaussian_mode_needs_drawn_centres(self):
        grid, _ = small_problem(dims=2, n=8)
        with pytest.raises(ValueError, match="centres"):
            initial_state(AnsatzSpec(Algorithm.QOWE, 1, initial_state="gaussian"), grid)
        with pytest.raises(ValueError, match="only QOWE"):
            AnsatzSpec(Algorithm.QAOA_COMPLETE, 1, initial_state="gaussian")
