import numpy as np
import pytest

import qvasim.hybrid
from qvasim.engine import OptimiserOptions, nelder_mead
from qvasim.functions import get_function
from qvasim.grid import build_objective, make_grid
from qvasim.hybrid import (
    HybridAccounting,
    classical_baseline,
    hybrid_optimise,
    speedup,
)
from qvasim.states import sample


class TestAccounting:
    def test_identity_from_components(self):
        acc = HybridAccounting(fev_qmoa=10, fev_nelder_mead=400, sample_size=30, depth=2)
        assert acc.fev_assisted == 30 * 3 * 10 + 400 == 1300

    def test_speedup_formula_instantiation(self):
        acc = HybridAccounting(fev_qmoa=10, fev_nelder_mead=400, sample_size=30, depth=2)
        assert speedup(4000, acc) == pytest.approx(4000 / 1300)

    def test_speedup_edge_cases(self):
        acc = HybridAccounting(fev_qmoa=1, fev_nelder_mead=0, sample_size=30, depth=1)
        assert speedup(acc.fev_assisted, acc) == 1.0
        acc2 = HybridAccounting(fev_qmoa=0, fev_nelder_mead=1000, sample_size=30, depth=1)
        assert speedup(2000, acc2) == 2.0
        with pytest.raises(ValueError):
            speedup(0, acc)


class TestHybridOptimise:
    def test_sphere_run_succeeds(self):
        result = hybrid_optimise("sphere", dims=2, n_points=8, depth=1, seed=1)
        assert result.success
        assert result.found_value <= 1e-4
        assert np.allclose(result.found_x, [0.0, 0.0], atol=0.05)
        acc = result.accounting
        assert acc.fev_assisted == 30 * 2 * acc.fev_qmoa + acc.fev_nelder_mead
        assert result.seeds_tried >= 1

    def test_deterministic_given_seed(self):
        a = hybrid_optimise("sphere", dims=2, n_points=8, depth=1, seed=7)
        b = hybrid_optimise("sphere", dims=2, n_points=8, depth=1, seed=7)
        assert a.accounting == b.accounting
        assert np.array_equal(a.found_x, b.found_x)

    def test_accounting_counts_every_estimation(self):
        result = hybrid_optimise("rastrigin", dims=2, n_points=8, depth=1, seed=3)
        assert result.accounting.fev_qmoa > 0
        assert result.accounting.fev_nelder_mead >= 0
        # one sample-set minimum recorded per estimation; seeding never uses more
        assert result.seeds_tried <= result.accounting.fev_qmoa


def _traced_run(monkeypatch, function, n_points, seed, epsilon=1e-4):
    """``hybrid_optimise`` at D=2, p=1 with its sample draws and simplex starts recorded.

    Returns the result, the grid, the table, the sample-set minima (grid
    indices, in collection order) and the start of every simplex run made
    after the variational one.
    """
    f = get_function(function)
    grid = make_grid(*f.domain(2), n_points)
    table = build_objective(grid, f.fn)
    minima: list[int] = []
    starts: list[tuple] = []

    def recording_sample(state, rng, shots):
        ks = sample(state, rng, shots)
        minima.append(int(ks[np.argmin(table.values[ks])]))
        return ks

    def counting_nelder_mead(objective, x0, options=None, trace_path=None):
        starts.append(tuple(np.asarray(x0, dtype=float)))
        return nelder_mead(objective, x0, options, trace_path)

    monkeypatch.setattr(qvasim.hybrid, "sample", recording_sample)
    monkeypatch.setattr(qvasim.hybrid, "nelder_mead", counting_nelder_mead)
    result = hybrid_optimise(
        f, 2, n_points, depth=1, epsilon=epsilon, seed=seed, grid=grid, table=table
    )
    return result, grid, table, minima, starts[1:]


def _rerun_every_start(function, grid, minima, epsilon=1e-4):
    """The classical phase with no reuse: one fresh simplex run per launch."""
    f = get_function(function)
    # the simplex defaults at D=2: 200 * D iterations and evaluations
    options = OptimiserOptions(max_iterations=400, max_evaluations=400, adaptive=False)
    coords = grid.coordinate_columns()
    threshold = f.known_minimum(2) + epsilon
    fev = 0
    for tried, k in enumerate(minima, start=1):
        result = nelder_mead(lambda x: float(f.fn(x)), coords[:, k], options)
        fev += result.evaluations
        if result.value <= threshold:
            return fev, tried, result.x, result.value
    return fev, len(minima), None, None


_CASES = [
    # succeeds at the first launch
    ("sphere", 8, 1, 1e-4),
    # succeeds after 131 launches from 8 distinct starts
    ("rastrigin", 8, 1, 2.0),
    # exhaust every start
    *(("rastrigin", 8, seed, 1e-4) for seed in (0, 1, 2)),
    *(("rastrigin", 16, seed, 1e-4) for seed in (0, 1, 2)),
]


class TestRepeatedStarts:
    @pytest.mark.parametrize("function,n_points,seed,epsilon", _CASES)
    def test_equals_rerunning_every_start(self, monkeypatch, function, n_points, seed, epsilon):
        result, grid, table, minima, _ = _traced_run(
            monkeypatch, function, n_points, seed, epsilon
        )
        fev, tried, x, value = _rerun_every_start(function, grid, minima, epsilon)
        reference = HybridAccounting(
            fev_qmoa=len(minima), fev_nelder_mead=fev, sample_size=30, depth=1
        )
        assert result.accounting == reference
        assert result.seeds_tried == tried
        assert result.success == (x is not None)
        assert np.array_equal(result.found_x, x)
        assert result.found_value == value

    @pytest.mark.parametrize("function,n_points,seed,epsilon", _CASES)
    def test_one_run_per_distinct_start(self, monkeypatch, function, n_points, seed, epsilon):
        result, grid, _, minima, starts = _traced_run(
            monkeypatch, function, n_points, seed, epsilon
        )
        launched = minima[: result.seeds_tried]
        assert len(starts) == result.distinct_starts == len(set(launched))
        coords = grid.coordinate_columns()
        assert starts == [tuple(coords[:, k]) for k in dict.fromkeys(launched)]
        if function == "rastrigin":
            assert result.distinct_starts < result.seeds_tried


class TestClassicalBaseline:
    def test_sphere_restart_search(self):
        result = classical_baseline("sphere", dims=2, seed=5)
        assert result.success
        assert result.restarts >= 1
        assert result.evaluations > 0

    def test_deterministic_given_seed(self):
        a = classical_baseline("sphere", dims=2, seed=9)
        b = classical_baseline("sphere", dims=2, seed=9)
        assert (a.evaluations, a.restarts) == (b.evaluations, b.restarts)

    def test_gives_up_at_evaluation_cap(self):
        result = classical_baseline("rastrigin", dims=2, seed=1, max_evaluations=50)
        assert not result.success or result.evaluations <= 500
