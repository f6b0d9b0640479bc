"""The benchmark runs end to end and reports the metrics BENCHMARK.json declares.

No timing is asserted: timings depend on the machine. With ``--seconds 1``
the benchmark skips its fingerprint comparison by design, but its other
output checks (objective recomputed at stored parameters, record counts,
metric ranges) still run and decide ``"correct"``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep_k32k", "sweep_k256", "hybrid_k256"])
def test_bench_runs_and_reports_declared_metrics(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--workload", workload,
            "--seconds", "1",
            "--seed", "2",
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_traced_bench_reports_declared_layer_metrics():
    """The ``--trace 1`` path runs the tracer, the kernel table and their checks."""
    proc = subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--workload", "sweep_k256",
            "--seconds", "1",
            "--seed", "2",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_tracer_rebinds_every_name_and_restores_it(monkeypatch):
    """``bench/tracing.py`` finds every name it rebinds and puts each original back.

    Some of those names (the public kernels in ``qvasim.ansatz``) are imported
    only for the tracer, so deleting one would break ``--trace 1`` runs alone.
    """
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()  # AttributeError if a rebound name is missing
        patched = list(tracer._restore)
        assert all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.restore()
    assert {(module.__name__, attr) for module, attr, _ in patched} >= {
        ("qvasim.ansatz", kernel) for kernel in tracing.KERNELS
    }
    for module, attr, original in patched:
        assert getattr(module, attr) is original
