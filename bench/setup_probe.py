"""Set-up cost of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py <src-dir> '<json list of [function, D, N] cells>'

Times the import of the package and its experiment runner, then make_grid
and build_objective for every cell, and prints the times as one JSON line.
The caller pins the thread variables in the environment.
"""

import json
import sys
import time


def main() -> None:
    src, cells = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qvasim  # noqa: F401
    from qvasim.harness.runner import run_experiment  # noqa: F401

    t1 = time.perf_counter()
    for function, dims, n_points in cells:
        fn = qvasim.get_function(function)
        lower, upper = fn.domain(dims)
        qvasim.build_objective(qvasim.make_grid(lower, upper, n_points), fn.fn)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "grids_s": t2 - t1, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main()
