import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qvasim.functions import FUNCTIONS, ROUNDED_MINIMUM, evaluate_test_function, get_function
from qvasim.grid import build_objective, make_grid


def test_catalogue_has_twenty_functions():
    assert len(FUNCTIONS) == 20


def test_styblinski_tang_two_dim_value():
    value = evaluate_test_function("styblinski_tang", [-2.903534, -2.903534])
    assert value == pytest.approx(-78.33234, abs=1e-3)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_rastrigin_origin(dims):
    assert evaluate_test_function("rastrigin", [0.0] * dims) == 0.0


def test_easom_minimum():
    assert evaluate_test_function("easom", [np.pi, np.pi]) == pytest.approx(-1.0, abs=1e-12)


def test_sphere_origin():
    assert evaluate_test_function("sphere", [0.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_listed_minima(name):
    f = FUNCTIONS[name]
    tol = 1e-2 if name in ROUNDED_MINIMUM else 1e-4
    dims_to_check = (f.dims,) if f.dims else (max(2, f.min_dims), 3)
    for dims in dims_to_check:
        for minimiser in f.known_minimisers(dims):
            value = evaluate_test_function(name, minimiser)
            assert value == pytest.approx(f.known_minimum(dims), abs=tol), minimiser


def test_unknown_name():
    with pytest.raises(KeyError, match="catalogue"):
        evaluate_test_function("not_a_function", [0.0])


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="not defined"):
        evaluate_test_function("beale", [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="not defined"):
        evaluate_test_function("rosenbrock", [1.0])


def test_domains():
    lower, upper = get_function("bukin_n6").domain(2)
    assert np.array_equal(lower, [-15.0, -3.0])
    assert np.array_equal(upper, [-5.0, 3.0])
    lower, upper = get_function("rastrigin").domain(3)
    assert np.array_equal(lower, [-5.12] * 3)
    assert np.array_equal(upper, [5.12] * 3)
    with pytest.raises(ValueError):
        get_function("mccormick").domain(3)


def test_ackley_matches_two_variable_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, size=2)
        direct = (
            -20.0 * np.exp(-0.2 * np.sqrt(0.5 * (x**2 + y**2)))
            - np.exp(0.5 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)))
            + np.e
            + 20.0
        )
        assert evaluate_test_function("ackley", [x, y]) == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("name", ["rastrigin", "eggholder", "goldstein_price", "ackley"])
def test_vectorised_evaluation_matches_scalar(name):
    f = FUNCTIONS[name]
    dims = f.dims or 3
    rng = np.random.default_rng(7)
    lower, upper = f.domain(dims)
    points = rng.uniform(lower[:, None], upper[:, None], size=(dims, 40))
    vectorised = np.asarray(f.fn(points))
    for j in range(points.shape[1]):
        assert vectorised[j] == f.fn(points[:, j])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_block_equals_each_column(name, data):
    """``fn`` on a (D, M) block equals ``fn`` on each (D, 1) column, bit for bit.

    The lockstep classical simplex evaluates many runs' points as one block,
    and its results equal those of runs evaluated one point at a time only
    if a column's value does not depend on the block around it. A (D,) point
    need not agree: numpy's scalar ``**`` calls libm ``pow``, its array
    ``**`` does not.
    """
    f = FUNCTIONS[name]
    dims = f.dims or data.draw(st.integers(f.min_dims, 4), label="dims")
    count = data.draw(st.integers(1, 40), label="count")
    unit = data.draw(arrays(np.float64, (dims, count), elements=st.floats(0.0, 1.0)), label="unit")
    lower, upper = f.domain(dims)
    points = lower[:, None] + unit * (upper - lower)[:, None]
    block = np.asarray(f.fn(points))
    columns = np.concatenate([f.fn(points[:, [j]]) for j in range(count)])
    assert block.tobytes() == columns.tobytes()


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_point_value_equals_table_value(name):
    """``evaluate_test_function`` gives each grid point its table value, bit for bit."""
    f = FUNCTIONS[name]
    dims, n = (2, 16) if f.dims == 2 else (3, 8)
    grid = make_grid(*f.domain(dims), n)
    table = build_objective(grid, f.fn)
    columns = grid.coordinate_columns()
    values = [evaluate_test_function(name, columns[:, k]) for k in range(grid.total_points)]
    assert np.array(values).tobytes() == table.values.tobytes()


def test_minimum_scales_per_dimension():
    stf = get_function("styblinski_tang")
    assert stf.known_minimum(3) == pytest.approx(3 * -39.16617)
    assert get_function("rastrigin").known_minimum(5) == 0.0
