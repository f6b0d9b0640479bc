"""Experiment execution: one loop over a config's cells, persistence, resumption.

``run_experiment`` hands each of ``config.cells()`` to its kind's cell
runner. A sweep cell runs through ``qvasim.engine.depth_sweep``, and its
records are appended to ``records.jsonl`` as each depth completes; a
hybrid-study cell appends each repeat's record as soon as it returns. An
interrupted run resumes from what is on disk: stored sweep records go back
to the engine through its ``done`` hook, so completed (algorithm, function,
depth, repeat) combinations are never recomputed and the next depth's warm
start chains from the best repeat, and stored hybrid repeats are skipped.
Each append is fsynced; a line torn by a run killed mid-write is cut off
before the next run appends. A run holds an exclusive lock on its
``output_dir``, so a second run on the same directory fails instead of
appending beside it. A consolidated ``records.csv`` (sorted, reproducible
modulo wall-time columns) is rewritten at the end of every run.

Hybrid-study repeats use the seed formula with the depth slot set to
``1000 * dims + depth``; their classical baselines use the repeat slot offset
by 10**6. Sweep and hybrid repeats alike are spread over ``workers`` processes.
"""

from __future__ import annotations

import csv
import fcntl
import functools
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from ..analysis import ScalingFit, fit_scaling, metrics_for_state
from ..ansatz import ParameterVector
from ..engine import (
    DepthResult,
    OptimiserOptions,
    RepeatResult,
    depth_sweep,
    parallel_map,
    resolve_workers,
)
from ..functions import get_function
from ..grid import build_objective
from ..hybrid import classical_baseline, hybrid_optimise, speedup
from .config import ConfigError, ExperimentConfig, build_ansatz_spec, config_hash, seed_for

# Importable from this module for the benchmark's tracer (bench/tracing.py),
# which rebinds it here; sweeps reach it through engine.depth_sweep.
from ..engine import run_single_repeat  # noqa: F401

logger = logging.getLogger(__name__)

RECORDS_NAME = "records.jsonl"
CSV_NAME = "records.csv"
LOCK_NAME = ".lock"  # flocked by the run that owns the directory
_JSON_FIELDS = ("params", "wavepacket_centres")  # JSON-encoded in records.csv


@dataclass
class ExperimentRecord:
    config_hash: str
    kind: str
    algorithm: str
    function: str
    dims: int
    n_points: int
    depth: int
    repeat: int
    seed: int
    expectation: float
    mean_error: float
    statistical_distance: float
    max_amplification: float
    max_amplified_index: int
    max_amplified_rank: int
    evaluations: int
    wall_time: float
    params: list[float]
    wavepacket_centres: list[float] | None = None
    bound_halfwidth: float | None = None

    def key(self) -> tuple:
        return (self.algorithm, self.function, self.dims, self.n_points, self.depth, self.repeat)


@dataclass
class HybridRecord:
    config_hash: str
    kind: str
    function: str
    dims: int
    n_points: int
    depth: int
    repeat: int
    seed: int
    success: bool
    fev_qmoa: int
    fev_nelder_mead: int
    fev_assisted: int
    seeds_tried: int
    baseline_fev: int
    baseline_success: bool
    baseline_restarts: int
    speedup: float
    wall_time: float

    def key(self) -> tuple:
        return (self.function, self.dims, self.n_points, self.depth, self.repeat)


def _records_path(config: ExperimentConfig) -> Path:
    return Path(config.output_dir) / RECORDS_NAME


def _append_records(path: Path, records) -> None:
    """Append records as JSON lines, flushed and fsynced before returning."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for record in records:
            payload = {"record": type(record).__name__, **asdict(record)}
            fh.write(json.dumps(payload) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_records(path) -> list:
    """Read the line-delimited record log (missing file reads as empty).

    A final line that lacks its newline and does not parse is the torn tail
    of a run killed mid-write: it is skipped with a warning. A line that does
    not parse anywhere else raises.
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_bytes().splitlines(keepends=True)
    out = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if i < len(lines) - 1 or line.endswith(b"\n"):
                raise
            logger.warning("skipping torn final line of %s (%d bytes)", path, len(line))
            break
        kind = payload.pop("record", "ExperimentRecord")
        cls = HybridRecord if kind == "HybridRecord" else ExperimentRecord
        out.append(cls(**payload))
    return out


def _truncate_torn_tail(path: Path) -> None:
    """Cut everything after the log's last newline, so appends start a fresh line.

    A final line without its newline was cut short by a killed run; if it was
    a whole record, that record is recomputed.
    """
    if not path.exists():
        return
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        logger.warning(
            "truncating %d bytes of torn final line from %s", len(data) - keep, path
        )
        with path.open("r+b") as fh:
            fh.truncate(keep)


def _repeat_from_record(record: ExperimentRecord, times_per_layer: int) -> RepeatResult:
    """A stored repeat as the engine's result, without its state."""
    return RepeatResult(
        params=ParameterVector.unflatten(record.params, record.depth, times_per_layer),
        expectation=record.expectation,
        evaluations=record.evaluations,
        seed=record.seed,
        state=None,
        wall_time=record.wall_time,
        wavepacket_centres=(
            np.asarray(record.wavepacket_centres)
            if record.wavepacket_centres is not None
            else None
        ),
        bound_halfwidth=record.bound_halfwidth,
    )


def _objective(config: ExperimentConfig, function_name: str, dims: int, n_points: int) -> tuple:
    """The grid and objective table of a (function, D, N) cell."""
    grid = config.cell_grid(function_name, dims, n_points)
    return grid, build_objective(grid, get_function(function_name).fn)


def _run_sweep_cell(
    config: ExperimentConfig, cell: tuple, existing: dict, workers: int, objective: Callable
) -> list[ExperimentRecord]:
    """The warm-start-chained depth sweep of one (algorithm, function, D, N) cell.

    Repeats stored in ``existing`` go back to the engine through its ``done``
    hook and are not rerun. Each depth's fresh records are appended to the
    log as that depth completes, and returned.
    """
    label, function_name, dims, n_points = cell
    grid, table = objective(function_name, dims, n_points)
    spec = build_ansatz_spec(label, dims, n_points, config.shared_walk_time)
    times_per_layer = spec.walk_times_per_layer(dims)
    options = OptimiserOptions(**asdict(config.optimiser))
    chash = config_hash(config)
    path = _records_path(config)
    new_records: list[ExperimentRecord] = []

    def done(depth: int) -> dict[int, RepeatResult]:
        return {
            repeat: _repeat_from_record(existing[cell + (depth, repeat)], times_per_layer)
            for repeat in range(config.repeats)
            if cell + (depth, repeat) in existing
        }

    def on_depth(dr: DepthResult) -> None:
        fresh = []
        for repeat, result in enumerate(dr.repeats):
            if cell + (dr.depth, repeat) in existing:
                continue
            metrics = metrics_for_state(result.state, grid, table, result.expectation)
            result.state = None  # the sweep's result list would keep every K-sized state
            fresh.append(
                ExperimentRecord(
                    config_hash=chash,
                    kind=config.kind,
                    algorithm=label,
                    function=function_name,
                    dims=dims,
                    n_points=n_points,
                    depth=dr.depth,
                    repeat=repeat,
                    seed=result.seed,
                    expectation=result.expectation,
                    **asdict(metrics),
                    evaluations=result.evaluations,
                    wall_time=result.wall_time,
                    params=[float(v) for v in result.params.flatten()],
                    wavepacket_centres=(
                        [float(v) for v in result.wavepacket_centres]
                        if result.wavepacket_centres is not None
                        else None
                    ),
                    bound_halfwidth=result.bound_halfwidth,
                )
            )
        if fresh:
            _append_records(path, fresh)
            new_records.extend(fresh)

    depth_sweep(
        spec,
        table,
        grid,
        config.depths(),
        repeats=config.repeats,
        seed_fn=lambda p, j: seed_for(config.base_seed, p, j),
        options=options,
        workers=workers,
        on_depth=on_depth,
        done=done,
    )
    return new_records


def scaling_fits(records: list[ExperimentRecord]) -> dict[tuple, ScalingFit]:
    """Amplification growth fit per (algorithm, function, D, N) cell, from per-depth means."""
    groups: dict[tuple, dict[int, list[float]]] = {}
    for r in records:
        cell = (r.algorithm, r.function, r.dims, r.n_points)
        groups.setdefault(cell, {}).setdefault(r.depth, []).append(r.max_amplification)
    return {
        cell: fit_scaling(
            (depth, cell[2], float(np.mean(values)))
            for depth, values in sorted(by_depth.items())
        )
        for cell, by_depth in groups.items()
    }


def _emit_scaling_fits(config: ExperimentConfig, records: list[ExperimentRecord]) -> None:
    path = Path(config.output_dir) / "scaling_fits.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["algorithm", "function", "dims", "n_points", "alpha", "alpha_stddev", "c"]
        )
        for cell, fit in sorted(scaling_fits(records).items()):
            writer.writerow(list(cell) + [fit.alpha, fit.alpha_stddev, fit.c])


def _hybrid_repeat(task: tuple) -> HybridRecord:
    """One assisted run and its classical baseline, as a record."""
    config, chash, function_name, grid, table, repeat = task
    dims = grid.dims
    depth = config.depth_range[0]
    seed = seed_for(config.base_seed, 1000 * dims + depth, repeat)
    baseline_seed = seed_for(config.base_seed, 1000 * dims + depth, repeat + 10**6)
    started = time.perf_counter()
    run = hybrid_optimise(
        function_name,
        dims,
        grid.points_per_dim,
        depth,
        epsilon=config.epsilon,
        seed=seed,
        sample_size=config.sample_size,
        grid=grid,
        table=table,
    )
    base = classical_baseline(
        function_name, dims, epsilon=config.epsilon, seed=baseline_seed
    )
    return HybridRecord(
        config_hash=chash,
        kind=config.kind,
        function=function_name,
        dims=dims,
        n_points=grid.points_per_dim,
        depth=depth,
        repeat=repeat,
        seed=seed,
        success=run.success,
        fev_qmoa=run.accounting.fev_qmoa,
        fev_nelder_mead=run.accounting.fev_nelder_mead,
        fev_assisted=run.accounting.fev_assisted,
        seeds_tried=run.seeds_tried,
        baseline_fev=base.evaluations,
        baseline_success=base.success,
        baseline_restarts=base.restarts,
        speedup=speedup(base.evaluations, run.accounting),
        wall_time=time.perf_counter() - started,
    )


def _run_hybrid_cell(
    config: ExperimentConfig, cell: tuple, existing: dict, workers: int, objective: Callable
) -> list[HybridRecord]:
    """The repeats of one hybrid-study (function, D, N) cell that ``existing`` lacks.

    The cell's objective table is built once for all of them. Each record is
    appended to the log as soon as it returns, in repeat order, and returned.
    """
    _, function_name, dims, n_points = cell
    depth = config.depth_range[0]
    todo = [j for j in range(config.repeats) if cell[1:] + (depth, j) not in existing]
    if not todo:
        return []
    grid, table = objective(function_name, dims, n_points)
    tasks = [(config, config_hash(config), function_name, grid, table, j) for j in todo]
    path, fresh = _records_path(config), []
    for record in parallel_map(_hybrid_repeat, tasks, workers):
        _append_records(path, [record])
        fresh.append(record)
    return fresh


def write_csv(records: list, path) -> None:
    """Consolidated CSV: one block per record class, headed by its field names.

    Rows are sorted by record key for reproducibility; list-valued fields are
    JSON-encoded.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        for cls in (ExperimentRecord, HybridRecord):
            block = sorted((r for r in records if isinstance(r, cls)), key=cls.key)
            if block:
                writer.writerow([f.name for f in fields(cls)])
            for r in block:
                writer.writerow(
                    json.dumps(v) if k in _JSON_FIELDS else v for k, v in asdict(r).items()
                )


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> list:
    """Execute a validated config cell by cell; returns every record (existing + new).

    The config and the worker count (``workers``, else ``QVASIM_WORKERS``) are
    checked before ``output_dir`` is created; either fails with ``ConfigError``.
    The run then holds an exclusive lock on ``output_dir`` until it returns or
    raises; a run that finds the directory locked by another raises
    ``ConfigError`` before it touches the log. Each of ``config.cells()`` goes
    to its kind's cell runner with the records stored under this config, and
    the scaling fits and ``records.csv`` are written after the last cell.
    """
    config.validate()
    try:
        workers = resolve_workers(workers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / LOCK_NAME).open("a") as lock:  # closing it releases the lock
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"output_dir {str(outdir)!r} is locked by another run") from None
        _truncate_torn_tail(outdir / RECORDS_NAME)
        cls = HybridRecord if config.kind == "hybrid_study" else ExperimentRecord
        run_cell = _run_hybrid_cell if cls is HybridRecord else _run_sweep_cell
        chash = config_hash(config)
        existing = {
            r.key(): r
            for r in load_records(outdir / RECORDS_NAME)
            if isinstance(r, cls) and r.config_hash == chash
        }
        records = list(existing.values())
        # consecutive cells on one (function, D, N), a sweep's algorithms, share one build
        objective = functools.lru_cache(maxsize=1)(functools.partial(_objective, config))
        for cell in config.cells():
            records.extend(run_cell(config, cell, existing, workers, objective))
        if config.kind == "scaling_study":
            _emit_scaling_fits(config, records)
        write_csv(records, outdir / CSV_NAME)
    return records
