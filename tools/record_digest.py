"""Digest of every benchmark record a source tree produces at seed 1, to compare trees bit for bit.

    python3 tools/record_digest.py path/to/tree

For each workload of ``<tree>/bench/workloads.py`` it runs the seed-1
``run_experiment`` calls of a 25 s benchmark run, with threads pinned to 1,
the package imported from ``<tree>/src`` and the output in a temporary
directory. Each record is written as one JSON line of its dataclass fields,
``wall_time`` dropped and every float (also inside a list) as
``float.hex``. It prints each workload's record count and the sha256 of its
lines, then the total count and the sha256 of all lines. Two trees with the
same total digest produced the same records to the last bit; where they
differ, the workload digests name the workloads whose records moved.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def exact(value):
    """``value`` with every float, also inside a list, as its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [exact(v) for v in value]
    return value


def record_line(record) -> str:
    fields = dataclasses.asdict(record)
    fields.pop("wall_time")
    fields = {key: exact(value) for key, value in fields.items()}
    return json.dumps([type(record).__name__, fields], sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ and bench/ are run")
    tree = parser.parse_args().tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from qvasim.harness.runner import run_experiment
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    total = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, workload in WORKLOADS.items():
            count, own = 0, hashlib.sha256()
            for base_seed in workload.call_seeds(1, 25):  # seed 1, a 25 s run
                config = workload.config(base_seed, str(Path(scratch) / f"{name}-{base_seed}"))
                for record in run_experiment(config, workers=1):
                    line = record_line(record).encode() + b"\n"
                    digest.update(line)
                    own.update(line)
                    count += 1
            print(f"{name}: {count} records, sha256 {own.hexdigest()}", flush=True)
            total += count
    print(f"total: {total} records")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
