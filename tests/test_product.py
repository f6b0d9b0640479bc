"""The product evaluator against the full Propagator, and the factory that picks it.

For an additive objective f = c + sum_d a_d(x_d), QMOA and QOWE keep a
product state, and ``evaluator`` returns a ``ProductPropagator`` for them.
The full ``Propagator`` is the oracle. The two agree to within rounding, not
bit for bit: <Q> to 1e-12 of the table's range and every amplitude to 1e-12.
The product path's own rows are exact: a row has the same bits in a block
as alone.
"""

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qvasim.states
from qvasim.ansatz import (
    Algorithm,
    AnsatzSpec,
    ParameterVector,
    ProductPropagator,
    Propagator,
    evaluator,
)
from qvasim.engine import GAMMA_RANGE, WALK_TIME_RANGE
from qvasim.functions import get_function
from qvasim.grid import (
    ADDITIVE_RTOL,
    additive_parts,
    along_axis,
    build_objective,
    make_grid,
    table_from_values,
)
from qvasim.mixers import CirculantGraph
from qvasim.states import WavepacketSpec

LABELS = ("qmoa_complete", "qmoa_cycle", "qmoa_shared", "qowe_equal", "qowe_gaussian")
TOLERANCE = 1e-12


def problem(name, dims, n):
    fn = get_function(name)
    grid = make_grid(*fn.domain(dims), n)
    return grid, build_objective(grid, fn.fn)


def make_spec(label, grid, depth):
    n, dims = grid.points_per_dim, grid.dims
    if label.startswith("qmoa"):
        graph = CirculantGraph.cycle(n) if label == "qmoa_cycle" else CirculantGraph.complete(n)
        return AnsatzSpec(
            Algorithm.QMOA, depth, graphs=(graph,) * dims, shared_walk_time=label == "qmoa_shared"
        )
    if label == "qowe_gaussian":
        span = grid.upper - grid.lower
        packet = WavepacketSpec(grid.lower + 0.4 * span, span / 4)
        return AnsatzSpec(Algorithm.QOWE, depth, initial_state=packet)
    return AnsatzSpec(Algorithm.QOWE, depth)


def random_points(spec, dims, rng, rows):
    m = spec.walk_times_per_layer(dims)
    return np.array([
        ParameterVector(
            rng.uniform(*GAMMA_RANGE, size=spec.depth),
            rng.uniform(*WALK_TIME_RANGE, size=(spec.depth, m)),
        ).flatten()
        for _ in range(rows)
    ])


@st.composite
def additive_problems(draw):
    """A grid over [-2, 2]^D and the table of a constant plus one random vector per dimension.

    Values lie within about 20 of zero and their range is at least 1, so
    rounding in either path stays far below 1e-12 of the range.
    """
    dims = draw(st.integers(1, 3))
    n = draw(st.sampled_from([2, 4, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = make_grid([-2.0] * dims, [2.0] * dims, n)
    values = np.full(grid.tensor_shape, rng.uniform(-5, 5))
    for d in range(dims):
        values = values + along_axis(rng.uniform(-5, 5, size=n), d, dims)
    table = table_from_values(values.ravel())
    assume(table.max_value - table.min_value >= 1.0)
    return grid, table, rng


@pytest.mark.parametrize("label", LABELS)
@settings(max_examples=30, deadline=None)
@given(case=additive_problems(), depth=st.integers(1, 3))
def test_product_path_matches_the_full_propagator(label, case, depth):
    """<Q> to 1e-12 of the range and every amplitude to 1e-12; each row's bits as alone.

    Amplitudes a caller holds survive later evaluations of the workspace.
    """
    grid, table, rng = case
    spec = make_spec(label, grid, depth)
    product = evaluator(spec, table, grid)
    assert type(product) is ProductPropagator
    full = Propagator(spec, table, grid)
    points = random_points(spec, grid.dims, rng, 4)
    scale = table.max_value - table.min_value
    values = product.expectations(points)
    assert np.allclose(values, full.expectations(points), rtol=0, atol=TOLERANCE * scale)
    held = []
    for flat, value in zip(points, values):
        amps = product.state(flat).amplitudes
        held.append((amps, amps.copy()))
        assert np.max(np.abs(amps - full.state(flat).amplitudes)) <= TOLERANCE
        assert product.expectations(flat[None])[0].hex() == value.hex()
        alone = evaluator(spec, table, grid).state(flat).amplitudes
        assert np.array_equal(amps.view(np.uint64), alone.view(np.uint64))
    product.expectations(points[::-1])
    product.samples(points, rng, 3)
    for amps, kept in held:
        assert np.array_equal(amps.view(np.uint64), kept.view(np.uint64))


@pytest.mark.parametrize("label", LABELS)
def test_product_workspace_is_a_state_block_and_its_spare(label):
    """Two complex ``(rows, D, N)`` blocks besides the start, and no float block of their size."""
    grid, table = problem("rastrigin", 2, 16)
    spec = make_spec(label, grid, depth=2)
    product = evaluator(spec, table, grid)
    assert type(product) is ProductPropagator
    product.expectations(random_points(spec, grid.dims, np.random.default_rng(0), 3))
    fields = list(vars(product).values())
    fields += [item for v in fields if isinstance(v, tuple) for item in v]
    arrays = [v for v in fields if isinstance(v, np.ndarray)]
    shape = (product.rows, grid.dims, grid.points_per_dim)
    workspace = [a for a in arrays if a is not product._initial and a.dtype == np.complex128]
    assert [a.shape for a in workspace] == [shape, shape]
    assert not any(a.dtype == np.float64 and a.size == np.prod(shape) for a in arrays)


@pytest.mark.parametrize("label", LABELS)
def test_product_draws_equal_the_full_paths(label):
    """For one rng seed, ``samples`` draws the full path's indices, row after row."""
    grid, table = problem("rastrigin", 2, 16)
    spec = make_spec(label, grid, depth=2)
    points = random_points(spec, grid.dims, np.random.default_rng(LABELS.index(label)), 5)
    product = evaluator(spec, table, grid)
    assert type(product) is ProductPropagator
    for seed in (0, 1, 2):
        drawn = product.samples(points, np.random.default_rng(seed), 30)
        expected = Propagator(spec, table, grid).samples(points, np.random.default_rng(seed), 30)
        for ks, ks_full in zip(drawn, expected):
            assert np.array_equal(ks, ks_full)


@pytest.mark.parametrize("label", LABELS)
def test_product_state_renormalises_each_dimension(label, monkeypatch, caplog):
    """Past the threshold each vector is rescaled and logged; the state still matches."""
    grid, table = problem("styblinski_tang", 3, 8)
    spec = make_spec(label, grid, depth=3)
    flat = random_points(spec, grid.dims, np.random.default_rng(7), 1)[0]
    monkeypatch.setattr(qvasim.states, "RENORM_THRESHOLD", 0.0)
    log = []
    with caplog.at_level(logging.WARNING, logger="qvasim.states"):
        amps = evaluator(spec, table, grid).state(flat, log).amplitudes
    assert len(log) == spec.depth
    assert "renormalising state with norm drift" in caplog.text
    assert np.max(np.abs(amps - Propagator(spec, table, grid).state(flat).amplitudes)) <= TOLERANCE


@pytest.mark.parametrize(
    "spec",
    [
        AnsatzSpec(Algorithm.QAOA_COMPLETE, 2),
        AnsatzSpec(Algorithm.QAOA_HYPERCUBE, 2),
    ],
    ids=["qaoa_complete", "qaoa_hypercube"],
)
def test_qaoa_takes_the_full_path_on_an_additive_table(spec):
    grid, table = problem("styblinski_tang", 2, 8)
    parts = additive_parts(table, grid)
    assert parts is not None
    assert type(evaluator(spec, table, grid)) is Propagator
    with pytest.raises(ValueError, match="does not keep a product state"):
        ProductPropagator(spec, grid, parts)


@pytest.mark.parametrize("label", LABELS)
def test_tables_that_are_not_sums_take_the_full_path(label):
    grid, ackley = problem("ackley", 2, 8)
    spec = make_spec(label, grid, depth=1)
    assert type(evaluator(spec, ackley, grid)) is Propagator
    product = np.outer(np.arange(1.0, 9.0), np.arange(1.0, 9.0)).ravel()  # x * y
    assert type(evaluator(spec, table_from_values(product), grid)) is Propagator


def test_a_gaussian_start_without_centres_still_raises():
    grid, table = problem("rastrigin", 2, 8)
    with pytest.raises(ValueError, match="no centres yet"):
        evaluator(AnsatzSpec(Algorithm.QOWE, 1, initial_state="gaussian"), table, grid)


@pytest.mark.parametrize("name", ["styblinski_tang", "rastrigin", "sphere"])
@pytest.mark.parametrize("dims, n", [(1, 8), (2, 16), (3, 8)])
def test_separable_functions_are_additive(name, dims, n):
    """c is the grand mean, each a_d has zero mean, and they rebuild the table."""
    grid, table = problem(name, dims, n)
    c, a = additive_parts(table, grid)
    assert a.shape == (dims, n)
    assert c == pytest.approx(np.mean(table.values), abs=1e-12)
    assert np.allclose(a.mean(axis=1), 0.0, atol=1e-12)
    rebuilt = np.full(grid.tensor_shape, c)
    for d in range(dims):
        rebuilt = rebuilt + along_axis(a[d], d, dims)
    error = np.max(np.abs(rebuilt.ravel() - table.values))
    assert error <= ADDITIVE_RTOL * (table.max_value - table.min_value)


@pytest.mark.parametrize("name", ["ackley", "rosenbrock"])
def test_coupled_functions_are_not_additive(name):
    grid, table = problem(name, 2, 16)
    assert additive_parts(table, grid) is None


def test_a_table_of_another_size_is_not_additive():
    grid, _ = problem("sphere", 2, 4)
    assert additive_parts(table_from_values(np.arange(8.0)), grid) is None
