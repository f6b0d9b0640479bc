import warnings
from dataclasses import replace

import numpy as np
import pytest

import qvasim.engine as engine
from qvasim.ansatz import (
    Algorithm,
    AnsatzSpec,
    ParameterVector,
    apply_ansatz,
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
    optimise_at_depth,
    parallel_map,
    resolve_workers,
)
from qvasim.grid import build_objective, make_grid, table_from_values
from qvasim.mixers import CirculantGraph
from qvasim.states import WavepacketSpec, expectation, grid_superposition
from qvasim.analysis import rdgs_probability
from qvasim.functions import get_function

from oracles import adjacency_matrix, dense_walk_oracle


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

        def spy(spec, table, grid, warm, seed, options, identity):
            run_seeds.append(seed)
            return real(spec, table, grid, warm, seed, options, identity)

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

        def spy(spec, table, grid, warm, seed, options, identity):
            calls.append((spec.depth, warm))
            return real(spec, table, grid, warm, seed, options, identity)

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
            replayed = objective_value(spec, repeat.params, table, grid)
            assert replayed == repeat.expectation

    def test_gaussian_mode_needs_drawn_centres(self):
        grid, _ = small_problem(dims=2, n=8)
        with pytest.raises(ValueError, match="centres"):
            initial_state(AnsatzSpec(Algorithm.QOWE, 1, initial_state="gaussian"), grid)
        with pytest.raises(ValueError, match="only QOWE"):
            AnsatzSpec(Algorithm.QAOA_COMPLETE, 1, initial_state="gaussian")
