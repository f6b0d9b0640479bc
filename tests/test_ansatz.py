"""The prepared propagator against the public kernels composed layer by layer.

The propagator calls the same array-level kernels as ``phase_shift`` and the
public mixers, on the same operands in the same order, so agreement here is
exact (``np.array_equal``, and equal sign bits where checked), not within a
tolerance.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvasim.mixers
import qvasim.states
from qvasim.ansatz import (
    Algorithm,
    AnsatzSpec,
    ParameterVector,
    Propagator,
    apply_ansatz,
    initial_state,
)
from qvasim.engine import GAMMA_RANGE, WALK_TIME_RANGE
from qvasim.functions import get_function
from qvasim.grid import build_objective, make_grid
from qvasim.mixers import (
    CirculantGraph,
    MomentumGrid,
    hypercube_mixer,
    phase_shift,
    qaoa_complete_mixer,
    qmoa_mixer,
    qowe_mixer,
)
from qvasim.states import WavepacketSpec, expectation, sample

LABELS = (
    "qmoa_complete",
    "qmoa_cycle",
    "qmoa_shared",
    "qaoa_complete",
    "qaoa_hypercube",
    "qowe_equal",
    "qowe_gaussian",
)


def problem(dims, n, name="rastrigin"):
    fn = get_function(name)
    lower, upper = fn.domain(dims)
    grid = make_grid(lower, upper, n)
    return grid, build_objective(grid, fn.fn)


def make_spec(label, dims, n, depth):
    if label.startswith("qmoa"):
        graph = CirculantGraph.cycle(n) if label == "qmoa_cycle" else CirculantGraph.complete(n)
        return AnsatzSpec(
            Algorithm.QMOA,
            depth,
            graphs=(graph,) * dims,
            shared_walk_time=label == "qmoa_shared",
        )
    if label == "qowe_gaussian":
        packet = WavepacketSpec(np.full(dims, 0.5), np.full(dims, 1.5))
        return AnsatzSpec(Algorithm.QOWE, depth, initial_state=packet)
    algorithm = {
        "qaoa_complete": Algorithm.QAOA_COMPLETE,
        "qaoa_hypercube": Algorithm.QAOA_HYPERCUBE,
        "qowe_equal": Algorithm.QOWE,
    }[label]
    return AnsatzSpec(algorithm, depth)


def random_params(spec, dims, rng):
    m = spec.walk_times_per_layer(dims)
    return ParameterVector(
        rng.uniform(*GAMMA_RANGE, size=spec.depth),
        rng.uniform(*WALK_TIME_RANGE, size=(spec.depth, m)),
    )


def assert_same_bits(actual, expected):
    """Equal values and equal sign bits, so -0.0 and 0.0 count as different."""
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual.real), np.signbit(expected.real))
    assert np.array_equal(np.signbit(actual.imag), np.signbit(expected.imag))


def unchanged(kernel, state, *args):
    """Call a public kernel and check that it left its input state as it was."""
    before = state.amplitudes.copy()
    out = kernel(state, *args)
    assert_same_bits(state.amplitudes, before)
    return out


def composed(spec, params, table, grid):
    """The layer loop from the public kernels; returns the state and per-layer drifts."""
    state = initial_state(spec, grid)
    momentum = MomentumGrid.from_grid(grid)
    drifts = []
    for gamma, times in zip(params.gammas, params.walk_times):
        state = unchanged(phase_shift, state, float(gamma), table)
        if spec.algorithm is Algorithm.QMOA:
            if spec.shared_walk_time:
                times = np.repeat(times, grid.dims)
            state = unchanged(qmoa_mixer, state, times, spec.graphs)
        elif spec.algorithm is Algorithm.QAOA_COMPLETE:
            state = unchanged(qaoa_complete_mixer, state, float(times[0]))
        elif spec.algorithm is Algorithm.QAOA_HYPERCUBE:
            state = unchanged(hypercube_mixer, state, float(times[0]))
        else:
            state = unchanged(qowe_mixer, state, times, momentum, grid)
        drifts.append(state.norm_drift())
        state = state.renormalised()
    return state, drifts


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("label", LABELS)
def test_propagator_equals_composed_public_kernels(label, dims):
    grid, table = problem(dims, 8)
    spec = make_spec(label, dims, 8, depth=3)
    rng = np.random.default_rng(100 * dims + LABELS.index(label))
    propagator = Propagator(spec, table, grid)
    for _ in range(2):
        params = random_params(spec, dims, rng)
        expected, expected_drifts = composed(spec, params, table, grid)
        drifts = []
        amps = propagator.amplitudes(params.flatten(), drifts)
        assert np.array_equal(amps, expected.amplitudes)
        assert drifts == expected_drifts
        assert np.array_equal(apply_ansatz(spec, params, table, grid).amplitudes, amps)
        assert propagator.expectation(params.flatten()) == float(
            np.dot(table.values, expected.probabilities())
        )


@settings(max_examples=80, deadline=None)
@given(
    dims=st.sampled_from([1, 2, 3]),
    n=st.sampled_from([2, 4, 8, 16]),
    depth=st.sampled_from([1, 2, 3]),
    label=st.sampled_from(LABELS),
    seed=st.integers(0, 2**32 - 1),
    zero_gammas=st.lists(st.booleans(), min_size=3, max_size=3),
    zero_times=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_propagator_property(dims, n, depth, label, seed, zero_gammas, zero_times):
    """Bit identity with the composed public kernels, identity layers included.

    Also: the expectation equals ``expectation`` of that state, the public
    kernels leave their inputs unchanged (checked in ``composed``), and
    amplitudes a caller holds survive later evaluations of the workspace.
    """
    grid, table = problem(dims, n, "styblinski_tang")
    spec = make_spec(label, dims, n, depth)
    rng = np.random.default_rng(seed)
    params = random_params(spec, dims, rng)
    params.gammas[np.array(zero_gammas[:depth])] = 0.0
    params.walk_times[np.array(zero_times[:depth])] = 0.0
    propagator = Propagator(spec, table, grid)
    drifts = []
    state = propagator.state(params.flatten(), drifts)
    expected, expected_drifts = composed(spec, params, table, grid)
    assert_same_bits(state.amplitudes, expected.amplitudes)
    assert drifts == expected_drifts
    assert len(drifts) == depth
    assert max(drifts) < 1e-12
    assert state.norm_drift() < 1e-12
    assert propagator.expectation(params.flatten()) == expectation(expected, table)

    kept = state.amplitudes.copy()
    amps = propagator.amplitudes(params.flatten())
    for _ in range(2):
        other = random_params(spec, dims, rng).flatten()
        propagator.expectation(other)
        propagator.amplitudes(other)
    assert_same_bits(state.amplitudes, kept)
    assert_same_bits(amps, kept)


@pytest.mark.parametrize("label", LABELS)
def test_renormalised_layers_match_composed_kernels(label, monkeypatch):
    """With every layer renormalised, the expectation uses the rescaled probabilities."""
    monkeypatch.setattr(qvasim.states, "RENORM_THRESHOLD", -1.0)
    grid, table = problem(2, 8)
    spec = make_spec(label, 2, 8, depth=3)
    propagator = Propagator(spec, table, grid)
    rng = np.random.default_rng(LABELS.index(label))
    for _ in range(3):
        params = random_params(spec, 2, rng)
        expected, _ = composed(spec, params, table, grid)
        assert_same_bits(propagator.amplitudes(params.flatten()), expected.amplitudes)
        assert propagator.expectation(params.flatten()) == expectation(expected, table)


@pytest.mark.parametrize("renormalised", [False, True], ids=["unit_norm", "renormalised"])
@pytest.mark.parametrize("label", ["qmoa_complete", "qaoa_hypercube", "qowe_equal"])
def test_sample_equals_sampling_the_copied_state(label, renormalised, monkeypatch):
    """Draws from the workspace probabilities equal ``sample`` of ``state``."""
    if renormalised:
        monkeypatch.setattr(qvasim.states, "RENORM_THRESHOLD", -1.0)
    grid, table = problem(2, 8)
    spec = make_spec(label, 2, 8, depth=3)
    propagator = Propagator(spec, table, grid)
    rng = np.random.default_rng(LABELS.index(label))
    for seed in range(3):
        flat = random_params(spec, 2, rng).flatten()
        draws = propagator.sample(flat, np.random.default_rng(seed), 200)
        expected = sample(propagator.state(flat), np.random.default_rng(seed), 200)
        assert np.array_equal(draws, expected)


@pytest.mark.parametrize(
    "label, limit",
    [
        ("qmoa_complete", 4),
        ("qmoa_cycle", 4),
        ("qaoa_complete", 2),
        ("qaoa_hypercube", 2),
        ("qowe_equal", 4),
    ],
)
def test_evaluation_allocates_less_than_a_few_states(label, limit):
    """The workspace holds every state-sized array an evaluation writes.

    What remains is the phase products' small factors, numpy's bounded
    iteration buffers and the line buffers of numpy's in-place FFT passes.
    """
    grid, table = problem(2, 64)
    spec = make_spec(label, 2, 64, depth=2)
    propagator = Propagator(spec, table, grid)
    flat = random_params(spec, 2, np.random.default_rng(9)).flatten()
    propagator.expectation(flat)
    tracemalloc.start()
    try:
        propagator.expectation(flat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit * 16 * grid.total_points


@pytest.mark.parametrize("label, calls_at_construction", [("qmoa_cycle", 3), ("qmoa_complete", 0)])
def test_circulant_eigenvalues_computed_once_per_propagator(
    monkeypatch, label, calls_at_construction
):
    """Spectral QMOA computes its eigenvalues once, at construction; the closed form never."""
    calls = []
    original = qvasim.mixers.circulant_eigenvalues

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(qvasim.mixers, "circulant_eigenvalues", counting)
    grid, table = problem(3, 4)
    spec = make_spec(label, 3, 4, depth=2)
    propagator = Propagator(spec, table, grid)
    assert len(calls) == calls_at_construction
    rng = np.random.default_rng(5)
    for _ in range(10):
        propagator.expectation(random_params(spec, 3, rng).flatten())
    assert len(calls) == calls_at_construction


def test_propagator_rejects_bad_parameters_and_tables():
    grid, table = problem(2, 4)
    spec = make_spec("qowe_equal", 2, 4, depth=2)
    propagator = Propagator(spec, table, grid)
    assert propagator.n_params == 6
    with pytest.raises(ValueError, match="expected 6 parameters"):
        propagator.expectation(np.zeros(5))
    with pytest.raises(ValueError, match="finite"):
        propagator.expectation(np.array([0.1, 0.1, np.nan, 0.1, 0.1, 0.1]))
    other_grid, _ = problem(2, 8)
    with pytest.raises(ValueError, match="does not match the grid"):
        Propagator(spec, table, other_grid)
