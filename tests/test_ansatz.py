"""The prepared propagator against the public kernels composed layer by layer.

The propagator calls the same array-level kernels as ``phase_shift`` and the
public mixers, on the same operands in the same order, so agreement here is
exact (``np.array_equal``, and equal sign bits where checked), not within a
tolerance.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qvasim.ansatz
import qvasim.mixers
import qvasim.states
from qvasim.ansatz import (
    Algorithm,
    AnsatzSpec,
    ParameterVector,
    ProductPropagator,
    Propagator,
    _Evaluator,
    apply_ansatz,
    evaluator,
    initial_state,
    objective_value,
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
from qvasim.states import WavepacketSpec, expectation, probabilities_of, sample

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
        amps = propagator.state(params.flatten(), drifts).amplitudes
        assert np.array_equal(amps, expected.amplitudes)
        assert drifts == expected_drifts
        assert np.array_equal(apply_ansatz(spec, params, table, grid).amplitudes, amps)
        assert propagator.expectations([params.flatten()])[0] == float(
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
    assert propagator.expectations([params.flatten()])[0] == expectation(expected, table)

    kept = state.amplitudes.copy()
    amps = propagator.state(params.flatten()).amplitudes
    for _ in range(2):
        other = random_params(spec, dims, rng).flatten()
        propagator.expectations([other])[0]
        propagator.state(other).amplitudes
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
        assert_same_bits(propagator.state(params.flatten()).amplitudes, expected.amplitudes)
        assert propagator.expectations([params.flatten()])[0] == expectation(expected, table)


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
        draws = propagator.samples([flat], np.random.default_rng(seed), 200)[0]
        expected = sample(propagator.state(flat), np.random.default_rng(seed), 200)
        assert np.array_equal(draws, expected)


@pytest.mark.parametrize("label", LABELS)
def test_probabilities_formed_once_per_evaluation(label, monkeypatch):
    """Each layer checks the norm on the amplitudes; only ⟨Q⟩ and sampling square the state."""
    counts = {"probabilities_of": 0, "_check_norms": 0}

    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(
        qvasim.ansatz, "probabilities_of", counting("probabilities_of", probabilities_of)
    )
    check = staticmethod(counting("_check_norms", _Evaluator._check_norms))
    monkeypatch.setattr(_Evaluator, "_check_norms", check)
    grid, table = problem(2, 8)
    spec = make_spec(label, 2, 8, depth=3)
    propagator = Propagator(spec, table, grid)
    flat = random_params(spec, 2, np.random.default_rng(LABELS.index(label))).flatten()
    for call, passes in [
        (lambda: propagator.expectations([flat])[0], 1),
        (lambda: propagator.samples([flat], np.random.default_rng(0), 10)[0], 1),
        (lambda: propagator.state(flat).amplitudes, 0),
    ]:
        counts.update(probabilities_of=0, _check_norms=0)
        call()
        assert counts == {"probabilities_of": passes, "_check_norms": 3}


def test_workspace_holds_only_the_states():
    """No K-float array: two K-complex state buffers and one entry per objective level."""
    grid, table = problem(2, 16)
    propagator = Propagator(make_spec("qmoa_cycle", 2, 16, depth=2), table, grid)
    fields = list(vars(propagator).values())
    fields += [item for v in fields if isinstance(v, tuple) for item in v]
    arrays = [v for v in fields if isinstance(v, np.ndarray)]
    workspace = [a for a in arrays if a is not propagator._initial and a.dtype == np.complex128]
    rows = propagator.rows
    assert sorted(a.size for a in workspace) == [table.n_unique * rows, 256 * rows, 256 * rows]
    assert not any(a.dtype == np.float64 and a.size >= grid.total_points for a in arrays)


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize(
    "label, path",
    [(label, Propagator) for label in ("qmoa_complete", "qmoa_cycle", "qaoa_complete")]
    + [(label, Propagator) for label in ("qaoa_hypercube", "qowe_equal")]
    + [(label, ProductPropagator) for label in ("qmoa_complete", "qmoa_cycle", "qowe_equal")],
)
def test_factors_are_formed_once_per_chunk(label, path, depth):
    """Each pair's ``factors`` is called once per one-chunk evaluation, whatever the depth."""
    grid, table = problem(2, 16)
    spec = make_spec(label, 2, 16, depth)
    full = path is Propagator
    propagator = Propagator(spec, table, grid) if full else evaluator(spec, table, grid)
    assert type(propagator) is path
    calls = []
    for name in ("_phase", "_walk"):
        factors, step = getattr(propagator, name)

        def counting(params, factors=factors, name=name):
            calls.append(name)
            return factors(params)

        setattr(propagator, name, (counting, step))
    rng = np.random.default_rng(depth)
    points = [random_params(spec, 2, rng).flatten() for _ in range(3)]
    assert len(points) <= propagator.rows
    propagator.expectations(points)
    assert sorted(calls) == ["_phase", "_walk"]


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
    propagator.expectations([flat])[0]
    tracemalloc.start()
    try:
        propagator.expectations([flat])[0]
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
        propagator.expectations([random_params(spec, 3, rng).flatten()])[0]
    assert len(calls) == calls_at_construction


def test_propagator_rejects_bad_parameters_and_tables():
    grid, table = problem(2, 4)
    spec = make_spec("qowe_equal", 2, 4, depth=2)
    propagator = Propagator(spec, table, grid)
    assert propagator.n_params == 6
    with pytest.raises(ValueError, match="expected 6 parameters"):
        propagator.expectations([np.zeros(5)])[0]
    with pytest.raises(ValueError, match="finite"):
        propagator.expectations([np.array([0.1, 0.1, np.nan, 0.1, 0.1, 0.1])])[0]
    other_grid, _ = problem(2, 8)
    with pytest.raises(ValueError, match="does not match the grid"):
        Propagator(spec, table, other_grid)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def batched_and_alone(spec, table, grid, points):
    """(amplitudes, drift logs, <Q>) of each row: from one batched call and from one-row calls."""
    batch = Propagator(spec, table, grid)
    logs = [[] for _ in points]
    amps = []
    for at in range(0, len(points), batch.rows):
        chunk = batch._block(points[at : at + batch.rows])
        states = batch._evolve(chunk, logs[at : at + batch.rows])[0]
        amps += list(states.reshape(len(chunk), -1).copy())
    values = batch.expectations(points)
    one = Propagator(spec, table, grid)
    alone = []
    for flat in points:
        log = []
        alone.append((one.state(flat, log).amplitudes, log, one.expectations([flat])[0]))
    return list(zip(amps, logs, values)), alone


@settings(max_examples=150, deadline=None)
@given(
    label=st.sampled_from(LABELS),
    dims=st.sampled_from([1, 2, 3]),
    n=st.sampled_from([2, 4, 8, 16, 64]),
    depth=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.lists(
        st.sampled_from(["none", "gammas", "times", "all", "negative_zero"]), min_size=1, max_size=5
    ),
)
def test_batched_rows_equal_one_row_evaluations(label, dims, n, depth, seed, zeros):
    """Each row of a batched evaluation has the bits of that row evaluated alone.

    Amplitudes, per-layer drift logs and <Q> are compared as raw bits, over
    1 to 5 rows, some with zero gammas, zero walk times or both, and some
    with every gamma and walk time -0.0.
    """
    assume(n**dims <= 2**12)
    grid, table = problem(dims, n, "styblinski_tang")
    spec = make_spec(label, dims, n, depth)
    rng = np.random.default_rng(seed)
    points = np.array([random_params(spec, dims, rng).flatten() for _ in zeros])
    width = spec.params_per_layer(dims)
    for row, zero in zip(points, zeros):
        if zero in ("gammas", "all"):
            row[::width] = 0.0
        if zero in ("times", "all"):
            row.reshape(depth, width)[:, 1:] = 0.0
        if zero == "negative_zero":
            row[:] = -0.0
    batched, alone = batched_and_alone(spec, table, grid, points)
    for (amps, log, value), (amps1, log1, value1) in zip(batched, alone):
        assert same_bits(amps, amps1)
        assert same_bits(log, log1)
        assert same_bits(value, value1)


@pytest.mark.parametrize("label", LABELS)
def test_batched_row_renormalises_alone(label, monkeypatch):
    """A row past the threshold is rescaled in place; the rows beside it keep their bits."""
    grid, table = problem(3, 4)
    spec = make_spec(label, 3, 4, depth=3)
    rng = np.random.default_rng(20 + LABELS.index(label))
    points = np.array([random_params(spec, 3, rng).flatten() for _ in range(4)])
    points[0] = 0.0
    first = []
    for flat in points:
        log = []
        Propagator(spec, table, grid).state(flat, log).amplitudes
        first.append(log[0])
    # between the rows' first-layer drifts: some rows renormalise, some do not
    threshold = (min(first) + max(first)) / 2
    assert min(first) < threshold < max(first)
    monkeypatch.setattr(qvasim.states, "RENORM_THRESHOLD", threshold)
    batched, alone = batched_and_alone(spec, table, grid, points)
    for (amps, log, value), (amps1, log1, value1) in zip(batched, alone):
        assert same_bits(amps, amps1)
        assert log == log1
        assert value == value1
    assert {log[0] > threshold for _, log, _ in batched} == {False, True}


def test_batched_evaluation_rejects_bad_blocks():
    grid, table = problem(2, 4)
    spec = make_spec("qaoa_complete", 2, 4, depth=2)
    propagator = Propagator(spec, table, grid)
    with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(2, 5\)"):
        propagator.expectations(np.zeros((2, 5)))
    with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(4,\)"):
        propagator.expectations(np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        propagator.expectations(np.array([[0.1] * 4, [0.1, np.inf, 0.1, 0.1]]))


@pytest.mark.parametrize("k", [2**2, 2**8, 2**12, 2**15])
def test_rows_fill_the_batch_cap(k):
    """A Propagator takes ``max(1, 4096 // K)`` rows and builds no views until it evaluates."""
    grid, table = problem(1, k)
    propagator = Propagator(make_spec("qaoa_hypercube", 1, k, depth=1), table, grid)
    assert propagator.rows == max(1, 4096 // k)
    assert propagator._views == {}


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("dims, n, count", [(2, 16, 40), (3, 32, 3)], ids=["k256", "k32k"])
def test_more_points_than_rows_equal_row_by_row_evaluation(label, dims, n, count):
    """A block longer than the workspace is evolved a workspace at a time, in row order."""
    grid, table = problem(dims, n, "styblinski_tang")
    spec = make_spec(label, dims, n, depth=2)
    propagator = Propagator(spec, table, grid)
    assert count > propagator.rows
    rng = np.random.default_rng(41 + LABELS.index(label))
    points = np.array([random_params(spec, dims, rng).flatten() for _ in range(count)])
    values = propagator.expectations(points)
    draws = propagator.samples(points, np.random.default_rng(3), 20)
    one = Propagator(spec, table, grid)
    rng = np.random.default_rng(3)
    for flat, value, ks in zip(points, values, draws, strict=True):
        assert same_bits(value, one.expectations([flat])[0])
        assert np.array_equal(ks, one.samples([flat], rng, 20)[0])


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("name", ["rastrigin", "styblinski_tang", "ackley"])
@pytest.mark.parametrize("label", LABELS)
def test_objective_value_has_the_bits_of_the_copied_state_expectation(label, name, depth):
    """``objective_value`` evaluates in the workspace; the copied state's <Q> has the same bits."""
    grid, table = problem(2, 16, name)
    spec = make_spec(label, 2, 16, depth)
    rng = np.random.default_rng(depth + LABELS.index(label))
    for _ in range(3):
        params = random_params(spec, 2, rng)
        value = objective_value(spec, params, table, grid)
        assert same_bits(value, expectation(apply_ansatz(spec, params, table, grid), table))


def test_objective_value_checks_the_layout():
    """Three layers of one walk time flatten as two of two do; the layout tells them apart."""
    grid, table = problem(2, 16)
    spec = make_spec("qmoa_complete", 2, 16, depth=2)
    params = ParameterVector([0.1, 0.2, 0.3], [[0.4], [0.5], [0.6]])
    assert params.flatten().size == spec.total_params(2)
    with pytest.raises(ValueError, match="layout"):
        objective_value(spec, params, table, grid)


def test_repeated_rows_are_evolved_once(monkeypatch):
    """Rows with equal bytes are evolved once and get the one-row value; samples draw for each."""
    evolved = []
    original = Propagator._evolve

    def counting(self, points, drift_logs):
        evolved.extend(row.tobytes() for row in points)
        return original(self, points, drift_logs)

    monkeypatch.setattr(Propagator, "_evolve", counting)
    grid, table = problem(2, 16)
    spec = make_spec("qowe_equal", 2, 16, depth=2)
    propagator = Propagator(spec, table, grid)
    rng = np.random.default_rng(8)
    distinct = np.array([random_params(spec, 2, rng).flatten() for _ in range(3)])
    points = distinct[[0, 1, 0, 2, 1, 0] * 4]  # 24 rows, more than the 16 of the workspace
    values = propagator.expectations(points)
    assert evolved == [row.tobytes() for row in distinct]
    alone = [Propagator(spec, table, grid).expectations([flat])[0] for flat in distinct]
    assert [v.hex() for v in values] == [alone[i].hex() for i in [0, 1, 0, 2, 1, 0] * 4]
    evolved.clear()
    propagator.samples(points, np.random.default_rng(0), 5)
    assert len(evolved) == len(points)


@pytest.mark.parametrize("label", LABELS)
def test_sixteen_rows_at_k256_equal_one_row_evaluations(label):
    """The engine's largest block at K = 2^8 (16 rows): each row's <Q> has its bits alone."""
    grid, table = problem(2, 16)
    spec = make_spec(label, 2, 16, depth=3)
    rng = np.random.default_rng(31 + LABELS.index(label))
    points = np.array([random_params(spec, 2, rng).flatten() for _ in range(16)])
    batched, alone = batched_and_alone(spec, table, grid, points)
    for (amps, _, value), (amps1, _, value1) in zip(batched, alone):
        assert same_bits(amps, amps1)
        assert same_bits(value, value1)


def test_samples_equal_sample_of_each_row_in_turn():
    """One batched evolution, then each row's draws from the one generator, in row order."""
    grid, table = problem(2, 8)
    spec = make_spec("qmoa_complete", 2, 8, depth=2)
    rng = np.random.default_rng(5)
    points = np.array([random_params(spec, 2, rng).flatten() for _ in range(7)])
    batched = Propagator(spec, table, grid).samples(points, np.random.default_rng(9), 30)
    one = Propagator(spec, table, grid)
    draws = np.random.default_rng(9)
    for ks, flat in zip(batched, points):
        assert np.array_equal(ks, one.samples([flat], draws, 30)[0])
