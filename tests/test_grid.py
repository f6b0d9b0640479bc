import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvasim.functions import FUNCTIONS
from qvasim.grid import (
    GridError,
    build_objective,
    coords_to_index,
    index_to_coords,
    make_grid,
    table_from_values,
)


class TestMakeGrid:
    def test_two_point_inclusive_grid(self):
        grid = make_grid([-5, -5], [5, 5], 2)
        assert np.array_equal(grid.spacing, [10.0, 10.0])
        assert np.array_equal(grid.axis_coords(0), [-5.0, 5.0])
        assert grid.total_points == 4

    def test_unit_spacing(self):
        grid = make_grid([0], [3], 4)
        assert np.array_equal(grid.axis_coords(0), [0.0, 1.0, 2.0, 3.0])

    def test_fig2_geometry(self):
        grid = make_grid([-5.12] * 3, [5.12] * 3, 32)
        assert grid.total_points == 32768
        assert grid.qubits == 15
        assert grid.spacing[0] == 10.24 / 31

    def test_endpoints_exactly_on_grid(self):
        grid = make_grid([-5.12, -1.0], [5.12, 7.3], 32)
        for d in range(2):
            coords = grid.axis_coords(d)
            assert coords[0] == grid.lower[d]
            assert coords[-1] == grid.upper[d]

    @pytest.mark.parametrize("n", [3, 5, 6, 12, 0, 1])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(GridError, match="power of two"):
            make_grid([0], [1], n)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(GridError, match="inverted bounds"):
            make_grid([0, 1], [1, 0], 4)

    def test_rejects_oversized_register(self):
        with pytest.raises(GridError, match="qubits"):
            make_grid([0] * 4, [1] * 4, 256, qubit_cap=26)
        make_grid([0] * 3, [1] * 3, 256, qubit_cap=26)  # 24 qubits fits


class TestIndexing:
    def test_base_n_digit_order(self):
        grid = make_grid([0, 0], [1, 1], 2)
        expected = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
        for k, coords in expected.items():
            assert tuple(index_to_coords(grid, k)) == coords

    def test_one_dimensional_identity(self):
        grid = make_grid([0], [7], 8)
        for k in range(8):
            assert index_to_coords(grid, k)[0] == float(k)

    def test_digit_decomposition_example(self):
        # k = 57 = 3*16 + 2*4 + 1 in base 4 -> digits (1, 2, 3)
        grid = make_grid([0] * 3, [3] * 3, 4)
        assert tuple(index_to_coords(grid, 57)) == (1.0, 2.0, 3.0)

    def test_bijection_brute_force(self):
        grid = make_grid([0] * 3, [3] * 3, 4)
        seen = set()
        for k in range(64):
            coords = index_to_coords(grid, k)
            seen.add(tuple(coords))
            assert coords_to_index(grid, coords) == k
        assert len(seen) == 64

    @pytest.mark.parametrize(
        "dims,n", [(1, 4096), (2, 64), (3, 16), (6, 4), (12, 2)]
    )
    def test_bijection_exhaustive_4096(self, dims, n):
        grid = make_grid([-1.7] * dims, [2.9] * dims, n)
        for k in range(grid.total_points):
            assert coords_to_index(grid, index_to_coords(grid, k)) == k

    def test_out_of_range_index(self):
        grid = make_grid([0], [1], 4)
        with pytest.raises(GridError):
            index_to_coords(grid, 4)
        with pytest.raises(GridError):
            index_to_coords(grid, -1)

    @given(st.integers(min_value=0, max_value=32**2 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, k):
        grid = make_grid([-5.12, -3.3], [5.12, 9.1], 32)
        assert coords_to_index(grid, index_to_coords(grid, k)) == k

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_layout_matches_tile_repeat_construction(self, dims, n):
        # dimension d repeats each coordinate N^d times, then tiles the block
        grid = make_grid(np.linspace(-3.1, 0.4, dims), np.linspace(1.7, 5.3, dims), n)
        k_total = grid.total_points
        expected = np.empty((dims, k_total))
        for d in range(dims):
            inner = n**d
            outer = k_total // (inner * n)
            expected[d] = np.tile(np.repeat(grid.axis_coords(d), inner), outer)
        assert np.array_equal(grid.coordinate_columns(), expected)
        for k in range(k_total):
            assert np.array_equal(index_to_coords(grid, k), expected[:, k])
            assert coords_to_index(grid, expected[:, k]) == k

    def test_columns_match_pointwise_coords(self):
        grid = make_grid([-2, 0, 1], [2, 8, 3], 8)
        cols = grid.coordinate_columns()
        for k in (0, 1, 17, 100, 511):
            assert np.array_equal(cols[:, k], index_to_coords(grid, k))


class TestObjectiveTable:
    def test_constant_objective(self):
        grid = make_grid([0, 0], [1, 1], 2)
        table = build_objective(grid, lambda x: np.broadcast_to(3.5, np.shape(x[0])))
        assert table.min_value == table.max_value == 3.5
        assert table.n_unique == 1
        assert np.array_equal(table.level_index + 1, [1, 1, 1, 1])

    def test_argmin_ties_take_smallest_index(self):
        table = table_from_values([2.0, 1.0, 1.0, 5.0])
        assert table.argmin_index == 1

    def test_rank_metadata(self):
        table = table_from_values([4.0, 1.0, 4.0, 9.0, 1.0])
        assert np.array_equal(table.level_index + 1, [2, 1, 2, 3, 1])

    def test_unique_count_against_sort_dedupe(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 40, size=512).astype(float)
        table = table_from_values(values)
        independent = 0
        for i, v in enumerate(sorted(values)):
            if i == 0 or v != previous:  # noqa: F821
                independent += 1
            previous = v
        assert table.n_unique == independent

    def test_nonfinite_rejected_with_index(self):
        grid = make_grid([0], [3], 4)

        def fn(x):
            with np.errstate(divide="ignore"):
                return np.asarray(1.0 / (x[0] - 2.0))

        with pytest.raises(ValueError, match="k=2"):
            build_objective(grid, fn)

    def test_scalar_only_callable_falls_back_to_loop(self):
        grid = make_grid([0, 0], [1, 1], 2)

        def scalar_fn(x):
            if np.ndim(x[0]) != 0:
                raise TypeError("scalar only")
            return float(x[0]) + 2.0 * float(x[1])

        table = build_objective(grid, scalar_fn)
        assert np.array_equal(table.values, [0.0, 1.0, 2.0, 3.0])

    def test_loop_fallback_names_exception_and_size(self, caplog):
        grid = make_grid([0, 0], [1, 1], 2)

        def scalar_fn(x):
            if np.ndim(x[0]) != 0:
                raise TypeError("scalar only")
            return float(x[0])

        with caplog.at_level(logging.WARNING, logger="qvasim.grid"):
            build_objective(grid, scalar_fn)
        assert [r.name for r in caplog.records] == ["qvasim.grid"]
        assert "TypeError" in caplog.text
        assert "K=4" in caplog.text

    def test_loop_fallback_names_wrong_shape(self, caplog):
        grid = make_grid([0, 0], [1, 1], 4)
        with caplog.at_level(logging.WARNING, logger="qvasim.grid"):
            table = build_objective(grid, lambda x: np.sum(x))
        assert "shape ()" in caplog.text
        assert "K=16" in caplog.text
        assert np.array_equal(table.values, grid.coordinate_columns().sum(axis=0))

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyError])
    def test_other_exceptions_propagate_without_fallback(self, caplog, error):
        grid = make_grid([0, 0], [1, 1], 2)
        calls = []

        def broken(x):
            calls.append(np.shape(x))
            raise error("objective bug")

        with caplog.at_level(logging.WARNING, logger="qvasim.grid"):
            with pytest.raises(error, match="objective bug"):
                build_objective(grid, broken)
        assert calls == [(2, 4)]
        assert caplog.records == []

    def test_math_module_objective_falls_back_with_warning(self, caplog):
        grid = make_grid([0, 0], [1, 1], 2)
        with caplog.at_level(logging.WARNING, logger="qvasim.grid"):
            table = build_objective(grid, lambda x: math.sin(x[0]) + x[1])
        assert "TypeError" in caplog.text
        expected = [math.sin(x0) + x1 for x0, x1 in grid.coordinate_columns().T]
        assert np.array_equal(table.values, expected)

    def test_catalogue_functions_are_vectorised(self, caplog):
        with caplog.at_level(logging.WARNING, logger="qvasim.grid"):
            for f in FUNCTIONS.values():
                for dims in (1, 2, 3):
                    if f.supports(dims):
                        build_objective(make_grid(*f.domain(dims), 4), f.fn)
        assert caplog.records == []

    def test_level_index_rebuilds_values(self):
        grid = make_grid([-1, -1], [1, 1], 8)
        table = build_objective(grid, lambda x: x[0] ** 2 + x[1] ** 2)
        assert table.n_unique < table.values.size
        assert np.array_equal(table.unique_sorted_values[table.level_index], table.values)
        flat = table_from_values([3.0, 1.0, 3.0, 2.0])
        assert np.array_equal(flat.unique_sorted_values, [1.0, 2.0, 3.0])
        assert np.array_equal(flat.level_index, [2, 0, 2, 1])

    def test_min_max_argmin_consistent(self):
        grid = make_grid([-1, -1], [1, 1], 8)
        table = build_objective(grid, lambda x: x[0] ** 2 + x[1] ** 2)
        assert table.values[table.argmin_index] == table.min_value
        assert table.min_value == np.min(table.values)
        assert table.max_value == np.max(table.values)
