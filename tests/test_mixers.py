import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvasim
from qvasim.ansatz import Algorithm, AnsatzSpec, Propagator
from qvasim.grid import along_axis, make_grid, table_from_values
from qvasim.mixers import (
    CirculantGraph,
    MomentumGrid,
    circulant_eigenvalues,
    hypercube_mixer,
    phase_shift,
    prepare_complete,
    prepare_hypercube,
    prepare_qmoa,
    prepare_qowe,
    qaoa_complete_mixer,
    qmoa_mixer,
    qowe_mixer,
)
from qvasim.states import StateVector, equal_superposition, gaussian_wavepacket, WavepacketSpec

from oracles import (
    DENSE_ORACLE_CAP,
    adjacency_matrix,
    apply_per_dimension,
    centred_fourier,
    centred_fourier_matrix,
    dense_walk_oracle,
    hypercube_adjacency,
    lifted_adjacency,
    scipy_qmoa_walk,
)


def random_state(rng, k, shape=None):
    amps = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, shape or (k,))


class TestCirculantGraphs:
    def test_complete_spectrum(self):
        eig = circulant_eigenvalues(CirculantGraph.complete(4))
        assert np.allclose(eig, [3, -1, -1, -1])

    def test_cycle_spectrum(self):
        eig = circulant_eigenvalues(CirculantGraph.cycle(4))
        assert np.allclose(eig, [2, 0, -2, 0], atol=1e-15)

    def test_banded_saturates_to_complete(self):
        eig = circulant_eigenvalues(CirculantGraph.banded(5, 2))
        assert np.allclose(eig, [4, -1, -1, -1, -1])

    def test_degree_and_leading_eigenvalue(self):
        for graph in (
            CirculantGraph.complete(8),
            CirculantGraph.cycle(8),
            CirculantGraph.banded(8, 3),
            CirculantGraph.complete(7),
        ):
            eig = circulant_eigenvalues(graph)
            assert eig[0] == pytest.approx(graph.degree)
            assert np.sum(eig) == pytest.approx(0.0, abs=1e-12)  # traceless

    def test_complete_graph_degree(self):
        assert CirculantGraph.complete(8).degree == 7
        assert CirculantGraph.complete(7).degree == 6

    def test_spectrum_matches_dft_of_first_column(self):
        rng = np.random.default_rng(0)
        for n in (4, 7, 12, 16):
            offsets = set(rng.choice(range(1, n // 2 + 1), size=2, replace=False))
            graph = CirculantGraph(n, frozenset(int(j) for j in offsets))
            column = adjacency_matrix(graph)[:, 0]
            oracle = np.fft.fft(column)
            assert np.allclose(oracle.imag, 0, atol=1e-12)
            assert np.allclose(circulant_eigenvalues(graph), oracle.real, atol=1e-12)

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            CirculantGraph(4, frozenset())
        with pytest.raises(ValueError):
            CirculantGraph(4, frozenset({3}))
        with pytest.raises(ValueError):
            CirculantGraph.banded(4, 3)


class TestPhaseShift:
    def test_zero_angle_is_identity(self):
        state = equal_superposition(4)
        table = table_from_values([1.0, 2.0, 3.0, 4.0])
        out = phase_shift(state, 0.0, table)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_constant_objective_is_global_phase(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 8)
        table = table_from_values(np.full(8, 2.2))
        out = phase_shift(state, 0.9, table)
        assert np.allclose(out.probabilities(), state.probabilities())

    def test_pi_phase_flip(self):
        table = table_from_values([0.0, np.pi])
        state = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
        out = phase_shift(state, 1.0, table)
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            phase_shift(equal_superposition(4), 1.0, table_from_values([1.0]))


class TestQmoaMixer:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 16, (4, 4))
        graphs = (CirculantGraph.complete(4),) * 2
        out = qmoa_mixer(state, [0.0, 0.0], graphs)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_one_dim_complete_equals_complete_graph_mixer(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 16)
        out_walk = qmoa_mixer(state, [0.83], (CirculantGraph.complete(16),))
        out_mean = qaoa_complete_mixer(state, 0.83)
        assert np.max(np.abs(out_walk.amplitudes - out_mean.amplitudes)) < 1e-12

    def test_matches_dense_exponential_of_lifted_adjacency(self):
        rng = np.random.default_rng(4)
        graphs = (CirculantGraph.cycle(4), CirculantGraph.cycle(4))
        state = random_state(rng, 16, (4, 4))
        out = qmoa_mixer(state, [0.3, 0.7], graphs)
        dense = np.kron(
            dense_walk_oracle(adjacency_matrix(graphs[1]), 0.7),
            dense_walk_oracle(adjacency_matrix(graphs[0]), 0.3),
        )
        assert np.max(np.abs(out.amplitudes - dense @ state.amplitudes)) < 1e-10

    def test_equal_times_match_lifted_adjacency_walk(self):
        rng = np.random.default_rng(12)
        graphs = (CirculantGraph.banded(4, 2), CirculantGraph.cycle(4))
        state = random_state(rng, 16, (4, 4))
        out = qmoa_mixer(state, [0.45, 0.45], graphs)
        dense = dense_walk_oracle(lifted_adjacency(graphs), 0.45)
        assert np.max(np.abs(out.amplitudes - dense @ state.amplitudes)) < 1e-10

    def test_dimensions_commute(self):
        rng = np.random.default_rng(5)
        graphs = (CirculantGraph.complete(8), CirculantGraph.cycle(8))
        state = random_state(rng, 64, (8, 8))
        a = qmoa_mixer(qmoa_mixer(state, [0.4, 0.0], graphs), [0.0, 1.1], graphs)
        b = qmoa_mixer(qmoa_mixer(state, [0.0, 1.1], graphs), [0.4, 0.0], graphs)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_rejects_size_mismatch(self):
        state = equal_superposition(16, (4, 4))
        grid = make_grid([0.0, 0.0], [1.0, 1.0], 4)
        table = table_from_values(np.arange(16.0))
        for graph in (CirculantGraph.complete(8), CirculantGraph.cycle(8)):
            with pytest.raises(ValueError, match="vertices"):
                qmoa_mixer(state, [0.1, 0.1], (graph,) * 2)
            with pytest.raises(ValueError, match="vertices"):
                Propagator(AnsatzSpec(Algorithm.QMOA, 1, graphs=(graph,) * 2), table, grid)


class TestCompleteGraphMixer:
    def test_resonant_time_preserves_probabilities(self):
        rng = np.random.default_rng(6)
        state = random_state(rng, 8)
        out = qaoa_complete_mixer(state, 2 * np.pi / 8)
        assert np.allclose(out.probabilities(), state.probabilities(), atol=1e-14)

    def test_two_state_swap(self):
        state = StateVector(np.array([1.0, 0.0], dtype=complex), (2,))
        out = qaoa_complete_mixer(state, np.pi / 2)
        assert np.allclose(out.probabilities(), [0.0, 1.0], atol=1e-15)

    def test_matches_dense_walk(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 8)
        dense = dense_walk_oracle(np.ones((8, 8)) - np.eye(8), 0.37)
        out = qaoa_complete_mixer(state, 0.37)
        assert np.max(np.abs(out.amplitudes - dense @ state.amplitudes)) < 1e-10

    def test_bits_equal_the_scalar_closed_form(self):
        """QAOA keeps the bits of the closed form over the scalar global mean.

        A fused multiply-add or another operand order changes the last bits,
        and with them the optimiser's simplex path.
        """
        rng = np.random.default_rng(19)
        for k in (2, 64, 4096) * 8:
            state = random_state(rng, k)
            t = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            a = state.amplitudes
            expected = np.exp(1j * t) * (a + (np.exp(-1j * t * k) - 1.0) * a.mean())
            assert np.array_equal(qaoa_complete_mixer(state, t).amplitudes, expected)


class TestHypercubeMixer:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 16)
        out = hypercube_mixer(state, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_quarter_period_is_full_bit_flip(self):
        rng = np.random.default_rng(9)
        m = 4
        state = random_state(rng, 1 << m)
        out = hypercube_mixer(state, np.pi / 2)
        expected = (-1j) ** m * state.amplitudes[::-1]  # k XOR (2^M - 1) reverses
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_matches_dense_walk(self):
        rng = np.random.default_rng(10)
        state = random_state(rng, 8)
        dense = dense_walk_oracle(hypercube_adjacency(3), 0.61)
        out = hypercube_mixer(state, 0.61)
        assert np.max(np.abs(out.amplitudes - dense @ state.amplitudes)) < 1e-10

    def test_rejects_non_power_of_two(self):
        state = StateVector(np.ones(6, dtype=complex) / np.sqrt(6), (6,))
        with pytest.raises(ValueError, match="2\\^M"):
            hypercube_mixer(state, 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_kernels_reject_non_finite_parameters(bad):
    rng = np.random.default_rng(12)
    grid = make_grid([0.0, 0.0], [3.0, 3.0], 4)
    state = random_state(rng, 16, grid.tensor_shape)
    table = table_from_values(np.arange(16.0))
    graphs = (CirculantGraph.cycle(4),) * 2
    momentum = MomentumGrid.from_grid(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma must be finite"):
            phase_shift(state, bad, table)
        for call in (
            lambda: qmoa_mixer(state, [bad, 0.1], graphs),
            lambda: qmoa_mixer(state, bad, (CirculantGraph.complete(4),) * 2),
            lambda: qaoa_complete_mixer(state, bad),
            lambda: hypercube_mixer(state, bad),
            lambda: qowe_mixer(state, [0.1, bad], momentum, grid),
        ):
            with pytest.raises(ValueError, match="walk times must be finite"):
                call()


@pytest.mark.parametrize("mixer", ["qmoa_cycle", "qmoa_complete", "qowe", "qaoa_complete", "hypercube"])
def test_prepared_walks_keep_no_state_sized_buffer(mixer):
    """A prepared walk keeps its factors only; the caller's ``spare`` is its scratch."""
    n = 64
    shape, k = (n, n), n * n
    grid = make_grid([0.0, 0.0], [1.0, 1.0], n)
    momentum = MomentumGrid.from_grid(grid)
    prepare = {
        "qmoa_cycle": lambda: prepare_qmoa((CirculantGraph.cycle(n),) * 2, shape),
        "qmoa_complete": lambda: prepare_qmoa((CirculantGraph.complete(n),) * 2, shape),
        "qowe": lambda: prepare_qowe(momentum, shape),
        "qaoa_complete": lambda: prepare_complete((k,)),
        "hypercube": lambda: prepare_hypercube(k),
    }[mixer]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        walk = prepare()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained - before < 0.1 * 16 * k
    amps = random_state(np.random.default_rng(13), k).amplitudes.copy()
    times = np.array([0.4] if mixer in ("qaoa_complete", "hypercube") else [0.4, 0.7])
    out = walk(amps, times, np.empty_like(amps))
    assert np.linalg.norm(out) == pytest.approx(1.0)


class TestCentredFourier:
    def test_momentum_grid_values(self):
        grid = make_grid([0.0], [3.0], 4)
        momentum = MomentumGrid.from_grid(grid)
        assert np.allclose(momentum.values[0], [-np.pi, -np.pi / 2, 0.0, np.pi / 2])
        assert momentum.delta_kappa[0] == pytest.approx(np.pi / 2)

    def test_momentum_grid_is_centred(self):
        grid = make_grid([-5.0, -2.0], [5.0, 7.0], 32)
        momentum = MomentumGrid.from_grid(grid)
        for d in range(2):
            values = momentum.values[d]
            assert 0.0 in values
            n, dk = 32, momentum.delta_kappa[d]
            assert values[0] == pytest.approx(-n * dk / 2)
            assert values[-1] == pytest.approx(n * dk / 2 - dk)

    def test_matrix_elements_match_direct_evaluation(self):
        grid = make_grid([0.0], [3.0], 4)
        momentum = MomentumGrid.from_grid(grid)
        f_matrix = centred_fourier_matrix(grid, momentum, 0)
        x = grid.axis_coords(0)
        for m in range(4):
            for n in range(4):
                direct = np.exp(-1j * momentum.values[0][m] * x[n]) / 2.0
                assert f_matrix[m, n] == pytest.approx(direct, abs=1e-14)
        # transform application agrees with the dense matrix
        rng = np.random.default_rng(11)
        state = random_state(rng, 4)
        out = centred_fourier(state, 0, grid, momentum, "forward")
        assert np.max(np.abs(out.amplitudes - f_matrix @ state.amplitudes)) < 1e-14

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(12)
        grid = make_grid([-2.0, 1.0], [2.0, 4.0], 8)
        momentum = MomentumGrid.from_grid(grid)
        state = random_state(rng, 64, (8, 8))
        roundtrip = state
        for d in range(2):
            roundtrip = centred_fourier(roundtrip, d, grid, momentum, "forward")
        for d in range(2):
            roundtrip = centred_fourier(roundtrip, d, grid, momentum, "inverse")
        assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) < 1e-12

    def test_constant_input_concentrates_at_zero_momentum(self):
        grid = make_grid([-1.0], [1.0], 16)
        momentum = MomentumGrid.from_grid(grid)
        state = equal_superposition(16)
        out = centred_fourier(state, 0, grid, momentum, "forward")
        zero_index = int(np.argmin(np.abs(momentum.values[0])))
        assert out.probabilities()[zero_index] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_dimension(self):
        grid = make_grid([0.0], [1.0], 4)
        momentum = MomentumGrid.from_grid(grid)
        with pytest.raises(ValueError, match="out of range"):
            centred_fourier(equal_superposition(4), 1, grid, momentum)


class TestQoweMixer:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(13)
        grid = make_grid([-1.0, -1.0], [1.0, 1.0], 4)
        momentum = MomentumGrid.from_grid(grid)
        state = random_state(rng, 16, (4, 4))
        out = qowe_mixer(state, [0.0, 0.0], momentum, grid)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-13

    def test_matches_dense_composition(self):
        rng = np.random.default_rng(14)
        grid = make_grid([0.0], [3.0], 4)
        momentum = MomentumGrid.from_grid(grid)
        f_matrix = centred_fourier_matrix(grid, momentum, 0)
        t = 0.6
        dense = f_matrix.conj().T @ np.diag(np.exp(-1j * t * momentum.values[0] ** 2)) @ f_matrix
        state = random_state(rng, 4)
        out = qowe_mixer(state, [t], momentum, grid)
        assert np.max(np.abs(out.amplitudes - dense @ state.amplitudes)) < 1e-10

    def test_wavepacket_disperses(self):
        grid = make_grid([-8.0], [8.0], 64)
        momentum = MomentumGrid.from_grid(grid)
        state = gaussian_wavepacket(grid, WavepacketSpec([0.0], [1.0]))
        x = grid.axis_coords(0)

        def variance(s):
            probs = s.probabilities()
            mean = np.dot(x, probs)
            return np.dot((x - mean) ** 2, probs)

        variances = [variance(state)]
        for _ in range(5):
            state = qowe_mixer(state, [0.05], momentum, grid)
            variances.append(variance(state))
            assert state.norm_drift() < 1e-12
        assert all(b >= a - 1e-12 for a, b in zip(variances, variances[1:]))

    def test_rejects_dimension_mismatch(self):
        grid = make_grid([0.0], [1.0], 4)
        momentum = MomentumGrid.from_grid(grid)
        with pytest.raises(ValueError):
            qowe_mixer(equal_superposition(4), [0.1, 0.2], momentum, grid)
        wider = MomentumGrid.from_grid(make_grid([0.0], [1.0], 8))
        with pytest.raises(ValueError, match="does not fit"):
            qowe_mixer(equal_superposition(4), [0.1], wider, grid)

    def test_rejects_grid_of_another_shape(self):
        grid = make_grid([0.0], [1.0], 8)
        momentum = MomentumGrid.from_grid(grid)
        with pytest.raises(ValueError, match="grid has shape"):
            qowe_mixer(equal_superposition(4), [0.1], momentum, grid)


class TestDenseWalkOracle:
    def test_zero_time_is_identity(self):
        adj = hypercube_adjacency(2)
        assert np.allclose(dense_walk_oracle(adj, 0.0), np.eye(4), atol=1e-14)

    def test_two_vertex_complete_graph(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = dense_walk_oracle(adj, np.pi / 2)
        expected = np.array([[0.0, -1j], [-1j, 0.0]])
        assert np.allclose(out, expected, atol=1e-14)
        # closed form e^{it}[I + (e^{-itK}-1) J/K] agrees, global phase included
        t, k = np.pi / 2, 2
        closed = np.exp(1j * t) * (
            np.eye(2) + (np.exp(-1j * t * k) - 1.0) * np.ones((2, 2)) / k
        )
        assert np.allclose(out, closed, atol=1e-14)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(15)
        adj = hypercube_adjacency(3)
        for _ in range(5):
            u = dense_walk_oracle(adj, rng.uniform(0, 2 * np.pi))
            gram = u.conj().T @ u
            assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            dense_walk_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            dense_walk_oracle(np.zeros((5000, 5000)), 0.1)


def test_norm_preservation_100_random_draws():
    rng = np.random.default_rng(16)
    grid = make_grid([-2.0, -2.0], [2.0, 2.0], 8)
    momentum = MomentumGrid.from_grid(grid)
    graphs = (CirculantGraph.complete(8), CirculantGraph.banded(8, 2))
    table = table_from_values(rng.normal(size=64))
    for _ in range(100):
        state = random_state(rng, 64, (8, 8))
        t = rng.uniform(0, 2 * np.pi, size=2)
        gamma = rng.uniform(-2 * np.pi, 2 * np.pi)
        for out in (
            qmoa_mixer(state, t, graphs),
            qaoa_complete_mixer(state, t[0]),
            hypercube_mixer(state, t[0]),
            qowe_mixer(state, t, momentum, grid),
            phase_shift(state, gamma, table),
        ):
            assert out.norm_drift() < 1e-10


class TestClosedFormAndSpectralKernels:
    """The complete-graph closed form and QOWE's spectral walk against dense oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.sampled_from([1, 2, 3]),
        n=st.sampled_from([2, 4, 8, 16]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_match_dense_oracles(self, dims, n, data, seed):
        time = st.one_of(st.just(0.0), st.floats(-2 * np.pi, 2 * np.pi))
        times = data.draw(st.lists(time, min_size=dims, max_size=dims))
        k = n**dims
        assert k <= DENSE_ORACLE_CAP
        state = random_state(np.random.default_rng(seed), k, (n,) * dims)

        graphs = (CirculantGraph.complete(n),) * dims
        walks = [dense_walk_oracle(adjacency_matrix(g), t) for g, t in zip(graphs, times)]
        expected = apply_per_dimension(walks, state.amplitudes)
        out = qmoa_mixer(state, times, graphs)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

        grid = make_grid([-1.5] * dims, [2.0] * dims, n)
        momentum = MomentumGrid.from_grid(grid)
        kinetic = []
        for d, t in enumerate(times):
            f_matrix = centred_fourier_matrix(grid, momentum, d)
            phase = np.exp(-1j * t * momentum.values[d] ** 2)
            kinetic.append(f_matrix.conj().T @ (phase[:, None] * f_matrix))
        expected = apply_per_dimension(kinetic, state.amplitudes)
        out = qowe_mixer(state, times, momentum, grid)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

    def test_per_dimension_oracle_is_the_kronecker_product(self):
        rng = np.random.default_rng(17)
        mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        dense = np.kron(mats[2], np.kron(mats[1], mats[0]))
        assert np.allclose(apply_per_dimension(mats, amps), dense @ amps, atol=1e-12)

    @pytest.mark.parametrize("order", [1, -1])
    def test_complete_and_cycle_graphs_match_lifted_adjacency(self, order):
        rng = np.random.default_rng(18)
        graphs = (CirculantGraph.complete(8), CirculantGraph.cycle(8))[::order]
        times = (0.37, 1.21)
        state = random_state(rng, 64, (8, 8))
        out = qmoa_mixer(state, times, graphs)
        dense = dense_walk_oracle(lifted_adjacency(graphs, times), 1.0)
        assert np.max(np.abs(out.amplitudes - dense @ state.amplitudes)) < 1e-13

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("t", [0.0, 0.83, -2.5])
    def test_one_dim_complete_qmoa_is_the_qaoa_kernel_bit_for_bit(self, n, t):
        state = random_state(np.random.default_rng(n), n)
        walk = qmoa_mixer(state, [t], (CirculantGraph.complete(n),)).amplitudes
        flat = qaoa_complete_mixer(state, t).amplitudes
        assert np.array_equal(walk, flat)
        assert np.array_equal(np.signbit(walk.view(float)), np.signbit(flat.view(float)))


class TestSpectralWalkAgainstScipy:
    """The spectral walk's numpy transforms give ``scipy.fft``'s bits, zero signs included."""

    @settings(max_examples=200, deadline=None)
    @given(
        mixer=st.sampled_from(["qmoa_cycle", "qmoa_banded", "qowe"]),
        dims=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_for_bit(self, mixer, dims, data, seed):
        # every graph on N = 2 vertices is complete, and complete graphs take the closed form
        smallest = 2 if mixer == "qowe" else 4
        sizes = [n for n in (2, 4, 8, 16, 32) if n >= smallest and n**dims <= 2**15]
        n = data.draw(st.sampled_from(sizes))
        shape, k = (n,) * dims, n**dims
        time = st.one_of(st.just(0.0), st.floats(-2 * np.pi, 2 * np.pi))
        times = np.array(data.draw(st.lists(time, min_size=dims, max_size=dims)))
        if mixer == "qowe":
            momentum = MomentumGrid.from_grid(make_grid([-1.5] * dims, [2.0] * dims, n))
            walk, spectra = prepare_qowe(momentum, shape), momentum.kinetic_spectra()
        else:
            width = st.just(1) if mixer == "qmoa_cycle" else st.integers(1, n // 2 - 1)
            graphs = tuple(CirculantGraph.banded(n, data.draw(width)) for _ in range(dims))
            walk = prepare_qmoa(graphs, shape)
            spectra = tuple(
                along_axis(circulant_eigenvalues(g), d, dims) for d, g in enumerate(graphs)
            )
        kind = data.draw(st.sampled_from(["random", "equal", "one_hot"]))
        if kind == "random":
            amps = random_state(np.random.default_rng(seed), k).amplitudes
        elif kind == "equal":
            amps = equal_superposition(k).amplitudes
        else:
            amps = np.zeros(k, dtype=complex)
            amps[data.draw(st.integers(0, k - 1))] = 1.0
        ours = walk(amps.copy(), times, np.empty_like(amps))
        theirs = scipy_qmoa_walk(amps.copy().reshape(shape), times, spectra, np.empty_like(amps))
        assert np.array_equal(ours.view(np.uint64), theirs.ravel().view(np.uint64))


def test_package_and_cli_import_without_scipy():
    src = Path(qvasim.__file__).resolve().parents[1]
    code = (
        "import sys, qvasim, qvasim.harness.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
