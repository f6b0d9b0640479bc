import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvasim.analysis import (
    fit_scaling,
    max_amplification,
    mean_error,
    metrics_for_state,
    rdgs_amplification,
    rdgs_probability,
    statistical_distance,
)
from qvasim.grid import SolutionGrid, build_objective, make_grid, table_from_values
from qvasim.states import StateVector, equal_superposition


class TestMeanError:
    def test_endpoints(self):
        table = table_from_values([1.0, 3.0, 5.0])
        assert mean_error(1.0, table) == 0.0
        assert mean_error(5.0, table) == 1.0

    def test_uniform_state_example(self):
        table = table_from_values([0.0, 1.0, 2.0, 3.0])
        assert mean_error(1.5, table) == pytest.approx(0.5)

    def test_constant_objective_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            mean_error(2.0, table_from_values([2.0, 2.0]))


class TestStatisticalDistance:
    def test_delta_at_minimiser(self):
        grid = make_grid([0.0], [3.0], 4)
        table = build_objective(grid, lambda x: x[0])
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        assert statistical_distance(StateVector(amps, (4,)).probabilities(), grid, table) == 0.0

    def test_delta_at_farthest_point(self):
        grid = make_grid([0.0], [3.0], 4)
        table = build_objective(grid, lambda x: x[0])
        amps = np.zeros(4, dtype=complex)
        amps[3] = 1.0
        assert statistical_distance(StateVector(amps, (4,)).probabilities(), grid, table) == 1.0

    def test_uniform_state_hand_sum(self):
        # literal three-point example: distances (0, 1, 2) from the minimiser,
        # farthest distance 2 -> (0 + 1 + 2)/3 / 2 = 0.5
        grid = SolutionGrid(1, 3, np.array([0.0]), np.array([2.0]), np.array([1.0]))
        table = table_from_values([0.0, 1.0, 2.0])
        state = StateVector(np.full(3, 1 / np.sqrt(3), dtype=complex), (3,))
        assert statistical_distance(state.probabilities(), grid, table) == pytest.approx(0.5)

    def test_uniform_state_power_of_two_grid(self):
        grid = make_grid([0.0], [3.0], 4)
        table = build_objective(grid, lambda x: x[0])
        probabilities = equal_superposition(4).probabilities()
        assert statistical_distance(probabilities, grid, table) == pytest.approx(0.5)

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(0)
        grid = make_grid([-2.0, -2.0], [2.0, 2.0], 8)
        table = build_objective(grid, lambda x: x[0] ** 2 + x[1] ** 2)
        for _ in range(20):
            amps = rng.normal(size=64) + 1j * rng.normal(size=64)
            amps /= np.linalg.norm(amps)
            d = statistical_distance(StateVector(amps, (8, 8)).probabilities(), grid, table)
            assert 0.0 <= d <= 1.0


class TestMaxAmplification:
    def test_uniform_is_one(self):
        amplification, _ = max_amplification(equal_superposition(64).probabilities())
        assert amplification == pytest.approx(1.0)

    def test_delta_is_k(self):
        amps = np.zeros(8, dtype=complex)
        amps[2] = 1.0
        amplification, index = max_amplification(StateVector(amps, (8,)).probabilities())
        assert amplification == pytest.approx(8.0)
        assert index == 2

    def test_example_distribution(self):
        amps = np.sqrt([0.5, 0.25, 0.25, 0.0]).astype(complex)
        amplification, index = max_amplification(StateVector(amps, (4,)).probabilities())
        assert amplification == pytest.approx(2.0)
        assert index == 0

    def test_ties_take_smallest_index(self):
        amps = np.sqrt([0.25, 0.25, 0.25, 0.25]).astype(complex)
        _, index = max_amplification(StateVector(amps, (4,)).probabilities())
        assert index == 0


class TestMetricsRecord:
    def test_rank_of_most_amplified(self):
        grid = make_grid([0.0], [3.0], 4)
        table = table_from_values([7.0, 3.0, 3.0, 9.0])
        amps = np.sqrt([0.1, 0.2, 0.6, 0.1]).astype(complex)
        record = metrics_for_state(StateVector(amps, (4,)), grid, table)
        assert record.max_amplified_index == 2
        assert record.max_amplified_rank == 1  # value 3.0 is the lowest unique value
        assert 0.0 <= record.mean_error <= 1.0
        assert record.max_amplification == pytest.approx(2.4)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rank_is_the_searchsorted_rank_on_repeated_values(self, data):
        """The rank is the most amplified value's 1-based position among the unique values."""
        k = data.draw(st.sampled_from([4, 8, 16]))
        pool = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=k // 2, unique=True))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=k, max_size=k))
        table = table_from_values([pool[i] for i in picks])  # k > len(pool): values repeat
        assume(table.n_unique > 1)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        state = StateVector(amps / np.linalg.norm(amps), (k,))
        record = metrics_for_state(state, make_grid([0.0], [1.0], k), table)
        value = table.values[record.max_amplified_index]
        assert record.max_amplified_rank == np.searchsorted(table.unique_sorted_values, value) + 1


class TestRdgs:
    def test_zero_depth(self):
        for k in (2, 64, 32768):
            assert rdgs_probability(0, k) == pytest.approx(1.0 / k, rel=1e-12)
            assert rdgs_amplification(0, k) == pytest.approx(1.0, rel=1e-12)

    def test_single_iteration_four_states_is_exact(self):
        assert rdgs_probability(1, 4) == pytest.approx(1.0, abs=1e-12)

    def test_published_operating_point(self):
        assert rdgs_amplification(8, 32768) == pytest.approx(288.15, abs=0.01)

    def test_probability_range_below_optimal_depth(self):
        k = 1024
        max_p = int(np.pi * np.sqrt(k) / 4)
        for p in range(max_p + 1):
            assert 0.0 <= rdgs_probability(p, k) <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rdgs_probability(-1, 4)
        with pytest.raises(ValueError):
            rdgs_probability(1, 0)


class TestScalingFit:
    def test_exact_recovery(self):
        c, alpha, dims = 2.0, 1.5, 2
        points = [(p, dims, c * p ** (alpha * dims)) for p in range(1, 7)]
        fit = fit_scaling(points)
        assert fit.alpha == pytest.approx(alpha, abs=1e-9)
        assert fit.c == pytest.approx(c, abs=1e-9)
        assert fit.alpha_stddev == pytest.approx(0.0, abs=1e-6)

    def test_flat_data_gives_zero_exponent(self):
        points = [(p, 3, 7.0) for p in range(1, 7)]
        fit = fit_scaling(points)
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.c == pytest.approx(7.0)

    def test_matches_normal_equation_solution(self):
        rng = np.random.default_rng(1)
        dims = 2
        x = np.array([dims * np.log2(p) for p in range(1, 9)])
        y = 0.8 + 1.3 * x + rng.normal(scale=0.05, size=x.size)
        points = [(p, dims, float(2.0 ** y[i])) for i, p in enumerate(range(1, 9))]
        fit = fit_scaling(points)
        design = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert fit.alpha == pytest.approx(coef[1], abs=1e-9)
        assert np.log2(fit.c) == pytest.approx(coef[0], abs=1e-9)
        assert fit.alpha_stddev > 0.0

    def test_mixed_dimensions(self):
        points = [(p, d, 2.0 * p ** (1.1 * d)) for p in (2, 3, 4) for d in (2, 3)]
        fit = fit_scaling(points)
        assert fit.alpha == pytest.approx(1.1, abs=1e-9)

    def test_predict_inverts_fit(self):
        points = [(p, 2, 3.0 * p**2.4) for p in range(1, 7)]
        fit = fit_scaling(points)
        predicted = fit.predict(np.array([1, 2, 4]), 2)
        assert np.allclose(predicted, [3.0, 3.0 * 2**2.4, 3.0 * 4**2.4], rtol=1e-9)

    def test_degenerate_design_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_scaling([(2, 2, 4.0), (2, 2, 5.0), (2, 2, 6.0)])

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            fit_scaling([(1, 2, 3.0)])
        with pytest.raises(ValueError):
            fit_scaling([(0, 2, 3.0), (1, 2, 3.0), (2, 2, 3.0)])
        with pytest.raises(ValueError):
            fit_scaling([(1, 2, -3.0), (2, 2, 3.0), (3, 2, 3.0)])
