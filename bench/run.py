"""qvasim benchmark: seeded run_experiment workloads, checked outputs, layer spans.

    python3 bench/run.py --workload sweep_k256 --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file. With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics. With ``--trace 1`` the workload
runs once untraced and once traced, and the JSON holds the per-layer
metrics, the kernel table and the tracing overhead. Metric names and units
come from BENCHMARK.json at the checkout root. The exit code is 1 when any
output check fails and 2 when the checkout is unusable. Result files and
span dumps go to ``.bench_out/``.
"""

import os

# Pinned before numpy is imported anywhere, in this process and its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FINGERPRINT = BENCH / "fingerprint.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class RenormalisationCounter(logging.Handler):
    """Counts the warnings StateVector.renormalised logs when it rescales."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("renormalising"):
            self.count += 1


def environment() -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "QVASIM_WORKERS": os.environ.get("QVASIM_WORKERS"),
        "workers": 1,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


def measure_setup(workload) -> list[dict]:
    """Import plus grid set-up, each sample in a fresh interpreter."""
    cells = json.dumps(workload.cells())
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), cells],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_calls(workload, seed: int, seconds: int, label: str, tracer=None) -> list[dict]:
    """The workload's run_experiment calls, each timed into a fresh output directory."""
    from qvasim.harness.runner import RECORDS_NAME, load_records, run_experiment

    call = run_experiment
    if tracer is not None:
        call = tracer.wrap("harness.runner.run_experiment", run_experiment)
    calls = []
    for base_seed in workload.call_seeds(seed, seconds):
        outdir = OUT / "runs" / f"{workload.name}-{base_seed}-pid{os.getpid()}-{label}"
        if outdir.exists():
            shutil.rmtree(outdir)
        config = workload.config(base_seed, str(outdir))
        error = None
        started = time.perf_counter()
        try:
            records = call(config, workers=1)
        except Exception:  # a failed call is reported as failed operations
            records, error = [], traceback.format_exc()
        wall = time.perf_counter() - started
        try:
            on_disk = len(load_records(outdir / RECORDS_NAME))
        except (ValueError, TypeError) as exc:
            on_disk, error = -1, f"unreadable records.jsonl: {exc}"
        shutil.rmtree(outdir, ignore_errors=True)
        calls.append(
            {"config": config, "records": records, "wall_s": wall, "on_disk": on_disk, "error": error}
        )
    return calls


def check_runs(workload, runs: dict[str, list[dict]], args) -> tuple[int, int, list[str]]:
    """Output checks over every call made; returns (attempted, failed, problems)."""
    from workloads import check_records, counts

    attempted = failed = 0
    problems: list[str] = []
    for label, calls in runs.items():
        for c in calls:
            a, f, p = check_records(workload, c["config"], c["records"], c["on_disk"])
            if c["error"] is not None:
                p.insert(0, c["error"])
            attempted, failed = attempted + a, failed + f
            problems += [f"{label} base_seed {c['config'].base_seed}: {text}" for text in p]
    base = [c["records"] for c in runs["untraced"]]
    if not args.write_fingerprint:
        problems += check_fingerprint(workload, base, args.seed, args.seconds)
    if "traced" in runs:
        traced = [counts(workload, c["records"]) for c in runs["traced"]]
        if traced != [counts(workload, records) for records in base]:
            problems.append("traced and untraced runs did not repeat the same work counts")
    return attempted, failed, problems


def check_fingerprint(workload, calls: list[list], seed: int, seconds: int) -> list[str]:
    from workloads import compare_fingerprint, fingerprint

    if not FINGERPRINT.exists():
        return [f"reference fingerprint {FINGERPRINT.name} is missing"]
    reference = json.loads(FINGERPRINT.read_text())
    if seed != reference["seed"] or seconds != reference["seconds"]:
        return []
    expected = reference["workloads"].get(workload.name)
    if expected is None:
        return [f"no reference fingerprint for {workload.name}"]
    return compare_fingerprint(fingerprint(workload, calls), expected)


def write_fingerprint(workload, calls: list[list], seed: int, seconds: int) -> None:
    from workloads import fingerprint

    reference = {"seed": seed, "seconds": seconds, "workloads": {}}
    if FINGERPRINT.exists():
        reference = json.loads(FINGERPRINT.read_text())
        if (reference["seed"], reference["seconds"]) != (seed, seconds):
            raise SystemExit(f"{FINGERPRINT.name} was made at another seed or length")
    reference["workloads"][workload.name] = fingerprint(workload, calls)
    FINGERPRINT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def layer_metrics(workload, tracer, records, renormalisations: int) -> dict[str, float]:
    from tracing import ALGORITHMS, KERNELS
    from workloads import counts, evaluations

    spans = tracer.summary()

    def get(name: str, field: str):
        return spans.get(name, {}).get(field, 0)

    def per_call(total: float, calls: int, scale: float = 1.0) -> float:
        return total / calls * scale if calls else 0.0

    m = {"grid.build_objective.s": get("grid.build_objective", "total_s")}
    for kernel in KERNELS:
        name = f"mixers.{kernel}"
        calls = get(name, "calls")
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.us_per_call"] = per_call(get(name, "total_s"), calls, 1e6)
        m[f"{name}.minflt_per_call"] = per_call(get(name, "minflt"), calls)
    m["mixers.circulant_eigenvalues.calls"] = get("mixers.circulant_eigenvalues", "calls")
    m["ansatz.apply_ansatz.calls"] = get("ansatz.apply_ansatz", "calls")
    m["ansatz.apply_ansatz.self_s"] = get("ansatz.apply_ansatz", "self_s")
    by_algorithm = tracer.per_algorithm()
    for algorithm in ALGORITHMS:
        entry = by_algorithm[algorithm]
        m[f"ansatz.ms_per_eval.{algorithm}"] = per_call(entry["seconds"], entry["calls"], 1e3)
    m["ansatz.evaluations"] = evaluations(workload, records)
    m["ansatz.renormalisations"] = renormalisations
    for name in ("states.expectation", "states.sample", "states.initial_state"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["engine.nelder_mead.calls"] = get("engine.nelder_mead", "calls")
    m["engine.nelder_mead.iterations"] = tracer.nm_iterations
    m["engine.nelder_mead.self_s"] = get("engine.nelder_mead", "self_s")
    m["engine.run_single_repeat.self_s"] = get("engine.run_single_repeat", "self_s")
    m["analysis.metrics_for_state.calls"] = get("analysis.metrics_for_state", "calls")
    m["analysis.metrics_for_state.self_s"] = get("analysis.metrics_for_state", "self_s")
    m["harness.runner.run_experiment.self_s"] = get("harness.runner.run_experiment", "self_s")
    hybrid = counts(workload, records) if workload.is_hybrid else {}
    for key in ("fev_qmoa", "fev_nelder_mead", "baseline_fev"):
        m[f"hybrid.{key}"] = hybrid.get(key, 0)
    m["hybrid.seed_success_ratio"] = per_call(hybrid.get("successes", 0), hybrid.get("seeds_tried", 0))
    return m


def metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, counts, evaluations

    workload = WORKLOADS[args.workload]
    units = metric_units(args.trace)

    setup = [] if args.trace else measure_setup(workload)
    runs = {"untraced": run_calls(workload, args.seed, args.seconds, "untraced")}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        renorm = RenormalisationCounter()
        logging.getLogger("qvasim.states").addHandler(renorm)
        tracer = Tracer()
        tracer.install()
        try:
            runs["traced"] = run_calls(workload, args.seed, args.seconds, "traced", tracer)
        finally:
            tracer.restore()

    attempted, failed, problems = check_runs(workload, runs, args)
    correct = not problems and failed == 0
    calls = runs["untraced"]
    records = [r for c in calls for r in c["records"]]
    work = counts(workload, records)
    walls = [c["wall_s"] for c in calls]
    wall = sum(walls)
    extra = {
        "setup_samples": setup,
        "call_walls_s": walls,
        "call_counts": [counts(workload, c["records"]) for c in calls],
    }
    if args.trace:
        from kernels import kernel_table

        traced_wall = sum(c["wall_s"] for c in runs["traced"])
        traced_records = [r for c in runs["traced"] for r in c["records"]]
        metrics = layer_metrics(workload, tracer, traced_records, renorm.count)
        metrics.update({
            "trace.untraced_wall_s": wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - wall,
        })
        extra["spans"] = tracer.summary()
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.npz")
        metrics.update(kernel_table(args.seed))
    else:
        metrics = {
            "wall_s": wall,
            "evals_per_s": evaluations(workload, records) / wall,
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "peak_rss_mb": peak_rss_mb,
        }
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    if args.write_fingerprint and correct and not args.trace:
        write_fingerprint(workload, [c["records"] for c in calls], args.seed, args.seconds)

    env = environment()
    deciles = statistics.quantiles(walls, n=10, method="inclusive") if len(walls) > 1 else walls * 9
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"calls={len(calls)} repeats_per_call={workload.repeats}")
    print(f"# per-call wall_s: median {statistics.median(walls):.4g} p10 {deciles[0]:.4g} "
          f"p90 {deciles[-1]:.4g} min {min(walls):.4g} max {max(walls):.4g} over {len(walls)} calls")
    print(f"# counts {json.dumps(work)}")
    if workload.is_hybrid:
        print(f"# seed_success_ratio {work['successes']}/{work['seeds_tried']}")
    for text in problems:
        print(f"# CHECK FAILED {text}")
    print(f"# failed_share {failed}/{attempted} = {failed / attempted:.6g}")
    for name in sorted(metrics):
        beside = f"  (evaluations = {evaluations(workload, records)})" if name == "evals_per_s" else ""
        print(f"{name} = {metrics[name]:.6g} {units[name]}{beside}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "counts": work, "problems": problems, **extra},
                   indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak RSS stay per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-fingerprint", action="store_true",
        help="store this run's outputs as the reference (default seed and length only)",
    )
    args = parser.parse_args()
    if not (SRC / "qvasim" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a qvasim checkout (need src/qvasim and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
