"""The benchmark's workloads: their experiment configs, cells and output checks.

A workload is a series of ``run_experiment`` calls, each a complete
experiment on a config with its own base seed derived from the workload seed;
the benchmark times the whole series. The number of calls scales with the run
length so that on the reference machine (2-core Xeon, threads pinned to 1)
the series lasts about ``--seconds``. It depends only on ``--seconds``, never
on measured speed, so a faster program does the same work in less time.

Sweeps cap Nelder-Mead at ``MAX_ITERATIONS`` iterations per run. Uncapped,
a two-repeat Rastrigin sweep (D=2, N=16, depths 1-3) took from 10,237 to
15,736 evaluations between seeds, and one QOWE repeat from a Gaussian
wavepacket took 79,662 (65 s), which no fixed-length run can absorb. With
the cap, the evaluation count of a sweep varies by a few percent between
seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qvasim.ansatz import ParameterVector, objective_value
from qvasim.engine import QOWE_SIGMA
from qvasim.functions import get_function
from qvasim.grid import build_objective, make_grid
from qvasim.harness.config import ExperimentConfig, OptimiserConfig
from qvasim.harness.runner import ExperimentRecord, HybridRecord, build_ansatz_spec
from qvasim.states import WavepacketSpec

MAX_ITERATIONS = 50

# Recomputing a record's objective at its stored parameters runs the same
# code path as the optimiser did, so it should agree to the last bits; the
# tolerance only admits BLAS/FFT reordering between builds of the libraries.
RECOMPUTE_RTOL = 1e-9
# Reference fingerprints admit floating-point reordering inside the kernels.
FINGERPRINT_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    function: str
    dims: int
    n_points: int
    depth_range: tuple[int, int]
    repeats: int
    seconds_per_call: float
    algorithms: tuple[str, ...] = ()

    @property
    def is_hybrid(self) -> bool:
        return self.kind == "hybrid_study"

    def call_seeds(self, seed: int, seconds: float) -> list[int]:
        """Base seed of every run_experiment call in a run."""
        calls = max(1, math.floor(seconds / self.seconds_per_call + 0.5))
        return [1000 * seed + i for i in range(calls)]

    def config(self, base_seed: int, output_dir: str) -> ExperimentConfig:
        return ExperimentConfig(
            kind=self.kind,
            algorithms=list(self.algorithms),
            functions=[self.function],
            dims=self.dims,
            n_points=self.n_points,
            depth_range=self.depth_range,
            repeats=self.repeats,
            base_seed=base_seed,
            output_dir=output_dir,
            optimiser=OptimiserConfig(max_iterations=MAX_ITERATIONS),
        ).validate()

    def cells(self) -> list[tuple[str, int, int]]:
        """(function, D, N) of every grid one call builds before it optimises."""
        per_cell = (self.function, self.dims, self.n_points)
        return [per_cell] * max(1, len(self.algorithms))

    def expected_records(self, config: ExperimentConfig) -> int:
        if self.is_hybrid:
            return config.repeats
        return len(self.algorithms) * len(config.depths()) * config.repeats


WORKLOADS = {
    w.name: w
    for w in (
        # QOWE starts from the equal superposition in both sweeps. From a
        # Gaussian wavepacket its bound-expansion loop runs a seed-dependent
        # number of times: at K = 32768 about one repeat in sixteen ran it up
        # to 2*pi (2,240 evaluations, 15 s), and at K = 256 its evaluation
        # count varied by 6% between seeds where the other families varied by
        # 1.5%. From the equal superposition QOWE draws nothing from the seed,
        # and its mixer kernel is the same.
        #
        # K = 32768, 15 qubits: the paper's headline grid; kernel arithmetic
        # dominates every evaluation.
        Workload(
            "sweep_k32k", "mixer_comparison", "styblinski_tang", 3, 32, (1, 2), 1, 5.0,
            ("qmoa_complete", "qaoa_complete", "qaoa_hypercube", "qowe_equal"),
        ),
        # K = 256: per-evaluation Python overhead (state objects, validation,
        # eigenvalue recomputation, simplex bookkeeping) dominates.
        Workload(
            "sweep_k256", "mixer_comparison", "rastrigin", 2, 16, (1, 3), 3, 1.6,
            ("qmoa_complete", "qaoa_complete", "qaoa_hypercube", "qowe_equal"),
        ),
        # Thousands of short classical Nelder-Mead runs plus a sampled QMOA
        # objective: optimiser overhead dominates, mixer kernels barely show.
        Workload("hybrid_k256", "hybrid_study", "rastrigin", 2, 16, (3, 3), 1, 3.7),
    )
}


def build_table(function: str, dims: int, n_points: int):
    fn = get_function(function)
    lower, upper = fn.domain(dims)
    grid = make_grid(lower, upper, n_points)
    return grid, build_objective(grid, fn.fn)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _check_sweep_record(r: ExperimentRecord, grid, table) -> str | None:
    if not 0.0 <= r.mean_error <= 1.0:
        return f"mean_error {r.mean_error!r} outside [0, 1]"
    spec = build_ansatz_spec(r.algorithm, r.dims, r.n_points).at_depth(r.depth)
    if r.wavepacket_centres is not None:
        spec = spec.with_initial_state(
            WavepacketSpec(np.asarray(r.wavepacket_centres), np.full(r.dims, QOWE_SIGMA))
        )
    params = ParameterVector.unflatten(
        np.asarray(r.params), r.depth, spec.walk_times_per_layer(r.dims)
    )
    value = objective_value(spec, params, table, grid)
    if not _close(value, r.expectation, RECOMPUTE_RTOL):
        return f"objective at stored params is {value!r}, record says {r.expectation!r}"
    return None


def _check_hybrid_record(r: HybridRecord, sample_size: int) -> str | None:
    expected = sample_size * (r.depth + 1) * r.fev_qmoa + r.fev_nelder_mead
    if r.fev_assisted != expected:
        return f"fev_assisted {r.fev_assisted} != {expected} (accounting identity)"
    if not _close(r.speedup, r.baseline_fev / r.fev_assisted, 1e-12):
        return f"speedup {r.speedup!r} != baseline_fev / fev_assisted"
    if not 1 <= r.seeds_tried <= r.fev_qmoa:
        return f"seeds_tried {r.seeds_tried} outside [1, fev_qmoa={r.fev_qmoa}]"
    if not r.baseline_success:
        return "classical baseline exhausted its evaluation budget"
    # success=False is the documented known-red criterion 8, not a failure.
    return None


def check_records(workload: Workload, config: ExperimentConfig, records: list, on_disk: int):
    """Return (attempted, failed, problems) for one finished run_experiment call.

    An operation is one sweep record or one hybrid repeat. Missing records
    count as failed. The run writes to a fresh directory, so its log must
    hold exactly the records it returned; if not, every operation counts as
    failed (a run that resumed and skipped work cannot pass as a fast one).
    """
    attempted = workload.expected_records(config)
    problems = []
    if on_disk != attempted:
        problems.append(f"records.jsonl holds {on_disk} records, expected {attempted}")
    if len(records) != attempted:
        problems.append(f"run returned {len(records)} records, expected {attempted}")
    failed = abs(attempted - len(records))
    tables = {}
    for r in records:
        if workload.is_hybrid:
            problem = _check_hybrid_record(r, config.sample_size)
        else:
            key = (r.function, r.dims, r.n_points)
            if key not in tables:
                tables[key] = build_table(*key)
            problem = _check_sweep_record(r, *tables[key])
        if problem is not None:
            failed += 1
            problems.append(f"{r.key()}: {problem}")
    if on_disk != len(records):
        failed = attempted
    return attempted, min(failed, attempted), problems


def counts(workload: Workload, records: list) -> dict[str, int]:
    """Exact work counts; they repeat bit-for-bit at a fixed seed."""
    if workload.is_hybrid:
        return {
            "fev_qmoa": sum(r.fev_qmoa for r in records),
            "fev_nelder_mead": sum(r.fev_nelder_mead for r in records),
            "baseline_fev": sum(r.baseline_fev for r in records),
            "seeds_tried": sum(r.seeds_tried for r in records),
            "successes": sum(int(r.success) for r in records),
        }
    return {"evaluations": sum(r.evaluations for r in records)}


def evaluations(workload: Workload, records: list) -> int:
    """Ansatz evaluations done by the run: fev_qmoa for hybrid, else the sweep's."""
    key = "fev_qmoa" if workload.is_hybrid else "evaluations"
    return counts(workload, records)[key]


def fingerprint(workload: Workload, calls: list[list]) -> dict:
    """Outputs of every call, compared against the reference beside the benchmark."""
    if workload.is_hybrid:
        ordered = [r for records in calls for r in sorted(records, key=lambda r: r.key())]
        # Seeded runs start from sampled grid points, so these counts move
        # with a kernel bug but not with floating-point reordering.
        return {
            "fev_qmoa": [r.fev_qmoa for r in ordered],
            "fev_nelder_mead": [r.fev_nelder_mead for r in ordered],
            "seeds_tried": [r.seeds_tried for r in ordered],
            "baseline_fev": [r.baseline_fev for r in ordered],
        }
    best: dict[str, float] = {}
    for i, records in enumerate(calls):
        for r in records:
            key = f"call{i}/{r.algorithm}/depth{r.depth}"
            best[key] = min(best.get(key, math.inf), r.expectation)
    return {"best_expectation": dict(sorted(best.items()))}


def compare_fingerprint(actual: dict, reference: dict) -> list[str]:
    """Differences beyond FINGERPRINT_RTOL (floats) or any difference (counts)."""
    problems = []
    for key, ref in reference.items():
        got = actual.get(key)
        if isinstance(ref, dict):
            if got is None or set(got) != set(ref):
                problems.append(f"fingerprint {key}: groups {sorted(got or {})} != {sorted(ref)}")
                continue
            for group, value in ref.items():
                if not _close(got[group], value, FINGERPRINT_RTOL):
                    problems.append(f"fingerprint {key}/{group}: {got[group]!r} != {value!r}")
        elif got != ref:
            problems.append(f"fingerprint {key}: {got!r} != {ref!r}")
    return problems
