"""Spans around the calls into each qvasim layer, taken from outside the package.

``Tracer.install`` rebinds the module-level names through which qvasim's own
modules reach each other (``qvasim.ansatz.qmoa_mixer``,
``qvasim.engine.apply_ansatz``, ``qvasim.hybrid.sample``,
``qvasim.harness.runner.run_single_repeat``, ...) to wrappers that record a
span: name, start, end and parent. No source file is edited, and
``Tracer.restore`` puts the original functions back. Spans live in flat
arrays in memory and are written out once, after the traced run.

A span's self time is its duration minus the durations of its direct
children; everything runs in one thread, so children never overlap. Kernel
spans also record the minor page faults (``getrusage``) taken during the call.
"""

from __future__ import annotations

import resource
import time
from array import array
from pathlib import Path

import numpy as np

import qvasim.ansatz
import qvasim.engine
import qvasim.harness.runner
import qvasim.hybrid
import qvasim.mixers
from qvasim.ansatz import Algorithm

KERNELS = ("phase_shift", "qmoa_mixer", "qaoa_complete_mixer", "hypercube_mixer", "qowe_mixer")
ALGORITHMS = tuple(a.value for a in Algorithm)
NO_TAG = -1


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.minflt_col = array("q")
        self.tag_col = array("b")
        self.stack = [-1]
        self.current_tag = NO_TAG
        self.nm_iterations = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, faults=False, tag_from=None, tagged=False, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``tag_from(args)`` sets the algorithm tag that later ``tagged`` spans
        inherit, which attributes expectation and sampling calls to the
        ansatz evaluated just before them.
        """
        nid = self._name_id(name)
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        faults_col, tags, stack = self.minflt_col, self.tag_col, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            if tag_from is not None:
                self.current_tag = tag_from(args)
            tags.append(self.current_tag if (tagged or tag_from is not None) else NO_TAG)
            ends.append(0.0)
            faults_col.append(-1)
            stack.append(i)
            f0 = _minflt() if faults else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                if faults:
                    faults_col[i] = _minflt() - f0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, **kwargs) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, **kwargs))
        self._restore.append((module, attr, original))

    def install(self) -> None:
        """Rebind every traced name in the modules that look it up."""
        ansatz, engine, hybrid = qvasim.ansatz, qvasim.engine, qvasim.hybrid
        runner, mixers = qvasim.harness.runner, qvasim.mixers
        for kernel in KERNELS:
            self.patch(ansatz, kernel, f"mixers.{kernel}", faults=True)
        self.patch(mixers, "circulant_eigenvalues", "mixers.circulant_eigenvalues")
        self.patch(ansatz, "initial_state", "states.initial_state")

        def algorithm_of(args):
            return ALGORITHMS.index(args[0].algorithm.value)

        for module in (engine, hybrid):
            self.patch(module, "apply_ansatz", "ansatz.apply_ansatz", tag_from=algorithm_of)
            self.patch(module, "nelder_mead", "engine.nelder_mead", on_result=self._count_iterations)
        self.patch(engine, "expectation", "states.expectation", tagged=True)
        self.patch(hybrid, "sample", "states.sample", tagged=True)
        for module in (runner, hybrid):
            self.patch(module, "build_objective", "grid.build_objective")
        self.patch(runner, "run_single_repeat", "engine.run_single_repeat")
        self.patch(runner, "metrics_for_state", "analysis.metrics_for_state")
        self.patch(runner, "hybrid_optimise", "hybrid.hybrid_optimise")
        self.patch(runner, "classical_baseline", "hybrid.classical_baseline")

    def _count_iterations(self, result) -> None:
        self.nm_iterations += result.iterations

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64).copy(),
            "minflt": np.frombuffer(self.minflt_col, dtype=np.int64).copy(),
            "tag": np.frombuffer(self.tag_col, dtype=np.int8).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, minor faults."""
        c = self.columns()
        duration = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        child_time = np.zeros(duration.size)
        np.add.at(child_time, c["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        n = len(self.names)
        calls = np.bincount(c["name"], minlength=n)
        total = np.bincount(c["name"], weights=duration, minlength=n)
        own = np.bincount(c["name"], weights=self_time, minlength=n)
        faults = np.bincount(c["name"], weights=np.maximum(c["minflt"], 0), minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "minflt": int(faults[i]),
            }
            for i, name in enumerate(self.names)
        }

    def per_algorithm(self) -> dict[str, dict[str, float]]:
        """Evaluation time (prepare + measure) and apply_ansatz calls, by algorithm."""
        c = self.columns()
        duration = c["end"] - c["start"]
        apply_id = self.names.index("ansatz.apply_ansatz")
        measure_ids = [self.names.index(n) for n in ("states.expectation", "states.sample")]
        out = {}
        for t, algorithm in enumerate(ALGORITHMS):
            of_alg = c["tag"] == t
            applies = of_alg & (c["name"] == apply_id)
            measures = of_alg & np.isin(c["name"], measure_ids)
            calls = int(np.count_nonzero(applies))
            seconds = float(duration[applies].sum() + duration[measures].sum())
            out[algorithm] = {"calls": calls, "seconds": seconds}
        return out
