import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvasim.grid import make_grid, table_from_values
from qvasim.states import (
    StateVector,
    WavepacketSpec,
    equal_superposition,
    expectation,
    gaussian_wavepacket,
    grid_superposition,
    probabilities_of,
    sample,
)


class TestEqualSuperposition:
    def test_four_states(self):
        state = equal_superposition(4)
        assert np.allclose(state.amplitudes, 0.5)
        assert np.all(state.amplitudes.imag == 0)

    def test_single_state(self):
        assert equal_superposition(1).amplitudes[0] == 1.0

    def test_large_register_probabilities(self):
        state = equal_superposition(32768)
        probs = state.probabilities()
        assert np.allclose(probs, 1.0 / 32768)
        assert probs.max() * 32768 == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            equal_superposition(0)


class TestWavepacket:
    def test_symmetric_two_point_grid(self):
        grid = make_grid([0.0], [1.0], 2)
        state = gaussian_wavepacket(grid, WavepacketSpec([0.5], [0.7]))
        assert np.allclose(state.amplitudes, 1.0 / np.sqrt(2.0))

    def test_narrow_packet_concentrates(self):
        grid = make_grid([0.0], [7.0], 8)
        state = gaussian_wavepacket(grid, WavepacketSpec([3.0], [0.05]))
        assert state.probabilities()[3] > 0.999999

    def test_hand_evaluated_profile(self):
        # grid {0,1,2,3}, centre 1.5, sigma 1/sqrt(2): unnormalised amplitude
        # weights exp(-2.25), exp(-0.25), exp(-0.25), exp(-2.25), so the
        # probabilities are their squares normalised
        grid = make_grid([0.0], [3.0], 4)
        state = gaussian_wavepacket(grid, WavepacketSpec([1.5], [1.0 / np.sqrt(2.0)]))
        weights = np.exp([-2.25, -0.25, -0.25, -2.25])
        assert np.allclose(
            state.amplitudes.real, weights / np.linalg.norm(weights), atol=1e-15
        )
        expected = weights**2 / np.sum(weights**2)
        assert np.allclose(state.probabilities(), expected, atol=1e-14)
        assert np.allclose(
            state.probabilities(), [0.0089931, 0.4910069, 0.4910069, 0.0089931], atol=1e-7
        )

    def test_reflection_symmetry_about_centre(self):
        grid = make_grid([-3.0, -3.0], [3.0, 3.0], 8)
        state = gaussian_wavepacket(grid, WavepacketSpec([0.0, 0.0], [1.3, 0.4]))
        tensor = state.probabilities().reshape(8, 8)
        # grid is inclusive-symmetric about 0, so index n pairs with N-1-n
        assert np.allclose(tensor, tensor[::-1, ::-1], atol=1e-15)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="positive"):
            WavepacketSpec([0.0], [0.0])

    def test_rejects_dimension_mismatch(self):
        grid = make_grid([0.0], [1.0], 2)
        with pytest.raises(ValueError, match="dimensions"):
            gaussian_wavepacket(grid, WavepacketSpec([0.0, 0.0], [1.0, 1.0]))


class TestExpectation:
    def test_uniform_is_arithmetic_mean(self):
        table = table_from_values([0.0, 1.0, 2.0, 3.0])
        assert expectation(equal_superposition(4), table) == pytest.approx(1.5)

    def test_delta_state_projects(self):
        table = table_from_values([4.0, 7.0, 9.0])
        amps = np.zeros(3, dtype=complex)
        amps[1] = 1.0
        assert expectation(StateVector(amps, (3,)), table) == 7.0

    def test_weighted_sum(self):
        table = table_from_values([4.0, 8.0])
        amps = np.sqrt([0.25, 0.75]).astype(complex)
        assert expectation(StateVector(amps, (2,)), table) == pytest.approx(7.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation(equal_superposition(4), table_from_values([1.0, 2.0]))

    def test_uniform_mean_precision(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-1e6, 1e6, size=4096)
        table = table_from_values(values)
        got = expectation(equal_superposition(4096), table)
        assert abs(got - np.mean(values)) <= 1e-12 * np.max(np.abs(values))

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_expectation_bounded_by_extremes(self, k, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=k)
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        amps /= np.linalg.norm(amps)
        table = table_from_values(values)
        got = expectation(StateVector(amps, (k,)), table)
        assert table.min_value - 1e-12 <= got <= table.max_value + 1e-12


class TestSampling:
    def test_delta_state_is_deterministic(self):
        amps = np.zeros(8, dtype=complex)
        amps[5] = 1.0
        draws = sample(StateVector(amps, (8,)), np.random.default_rng(0), 100)
        assert np.all(draws == 5)

    def test_two_outcome_frequencies(self):
        draws = sample(equal_superposition(2), np.random.default_rng(11), 100_000)
        freq = np.mean(draws)
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_seed_reproducibility(self):
        state = equal_superposition(64)
        a = sample(state, np.random.default_rng(42), 1000)
        b = sample(state, np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    def test_rejects_unnormalised(self):
        state = StateVector(np.ones(4, dtype=complex), (4,))
        with pytest.raises(ValueError, match="normalised"):
            sample(state, np.random.default_rng(0), 1)

    def test_rejects_small_drift_above_threshold(self):
        amps = equal_superposition(16).amplitudes * np.sqrt(1 + 1e-7)
        with pytest.raises(ValueError, match="normalised"):
            sample(StateVector(amps, (16,)), np.random.default_rng(0), 1)
        within = equal_superposition(16).amplitudes * np.sqrt(1 + 1e-10)
        assert sample(StateVector(within, (16,)), np.random.default_rng(0), 1).shape == (1,)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(equal_superposition(2), np.random.default_rng(0), 0)


def test_grid_superposition_shape():
    grid = make_grid([0, 0, 0], [1, 1, 1], 4)
    state = grid_superposition(grid)
    assert state.tensor_shape == (4, 4, 4)
    assert state.total_points == 64


def test_renormalise_policy():
    drifted = StateVector(np.sqrt([0.5, 0.5 + 1e-13]).astype(complex), (2,))
    assert drifted.renormalised() is drifted  # below threshold: untouched
    worse = StateVector(np.sqrt([0.5, 0.5 + 1e-9]).astype(complex), (2,))
    fixed = worse.renormalised()
    assert fixed is not worse
    assert fixed.norm_drift() < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=2**12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta=st.one_of(st.just(0.0), st.floats(min_value=-1e-6, max_value=1e-6)),
)
def test_norm_drift_in_one_pass_matches_the_probability_sum(k, seed, delta):
    """One dot product of the float64 view gives the drift of summing |a_k|^2."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=k) + 1j * rng.normal(size=k)
    state = StateVector(amps / np.linalg.norm(amps) * (1.0 + delta), (k,))
    drift = state.norm_drift()
    assert abs(drift - abs(1.0 - probabilities_of(state.amplitudes).sum())) <= 1e-13
    assert state.norm_drift() == drift
