"""The line format of ``tools/record_digest.py``, the bit-for-bit comparison of two trees' records."""

import importlib.util
import json
from pathlib import Path

import pytest

from qvasim.harness.runner import ExperimentRecord, HybridRecord

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_digest.py"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@pytest.fixture
def record_line(monkeypatch):
    """``record_line`` of the tool, loaded so that the thread variables it sets are restored."""
    for name in THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    spec = importlib.util.spec_from_file_location("record_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.record_line


EXPERIMENT = ExperimentRecord(
    config_hash="abc", kind="depth_sweep", algorithm="qowe_equal", function="rastrigin",
    dims=2, n_points=8, depth=1, repeat=0, seed=5, expectation=-1.25, mean_error=0.1,
    statistical_distance=0.3, max_amplification=2.5, max_amplified_index=3,
    max_amplified_rank=1, evaluations=40, wall_time=0.75, params=[0.1, -2.0],
    wavepacket_centres=[0.5, 1.0 / 3.0], bound_halfwidth=0.2,
)
HYBRID = HybridRecord(
    config_hash="abc", kind="hybrid_study", function="sphere", dims=2, n_points=8, depth=1,
    repeat=0, seed=5, success=True, fev_qmoa=10, fev_nelder_mead=400, fev_assisted=1000,
    seeds_tried=3, baseline_fev=4000, baseline_success=True, baseline_restarts=2,
    speedup=4.0, wall_time=0.75,
)


@pytest.mark.parametrize("record", [EXPERIMENT, HYBRID], ids=lambda r: type(r).__name__)
def test_record_line_names_the_type_and_writes_floats_as_hex(record_line, record):
    name, fields = json.loads(record_line(record))
    assert name == type(record).__name__
    expected = {}
    for key, value in vars(record).items():
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, list):
            value = [v.hex() for v in value]
        expected[key] = value
    del expected["wall_time"]
    assert "wall_time" not in fields
    assert fields == expected

