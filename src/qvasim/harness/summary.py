"""Aggregation of experiment records and plot-ready CSV series."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..analysis import rdgs_amplification
from .runner import ExperimentRecord, HybridRecord, scaling_fits

_METRICS = {
    ExperimentRecord: ("expectation", "mean_error", "statistical_distance", "max_amplification"),
    HybridRecord: ("speedup", "fev_qmoa", "fev_nelder_mead", "fev_assisted", "baseline_fev"),
}
# the keys each record class is grouped by when the caller names none
_GROUP_BY = {
    ExperimentRecord: ("algorithm", "function", "depth"),
    HybridRecord: ("function", "dims", "depth"),
}


def summarise(records: list, group_by: list[str] | None = None) -> list[dict]:
    """Per-group mean and population standard deviation of every metric.

    ``group_by=None`` groups each record class by its own keys in ``_GROUP_BY``.
    Sweep records additionally get best-repeat columns (the repeat with the
    lowest expectation value, ties to the lowest repeat index).
    """
    if not records:
        raise ValueError("no records to summarise")
    rows: list[dict] = []
    for cls, metric_names in _METRICS.items():
        keys = _GROUP_BY[cls] if group_by is None else group_by
        groups: dict[tuple, list] = {}
        for r in records:
            if not isinstance(r, cls):
                continue
            try:
                key = tuple(getattr(r, k) for k in keys)
            except AttributeError as exc:
                raise ValueError(f"unknown group-by key: {exc}") from None
            groups.setdefault(key, []).append(r)
        # by value, with None (e.g. an unset bound_halfwidth) after every value
        for key in sorted(groups, key=lambda k: tuple((v is None, v) for v in k)):
            members = groups[key]
            row = dict(zip(keys, key))
            row["n"] = len(members)
            for metric in metric_names:
                values = np.array([float(getattr(r, metric)) for r in members])
                row[f"{metric}_mean"] = float(np.mean(values))
                row[f"{metric}_pstd"] = float(np.std(values, ddof=0))
            if cls is ExperimentRecord:
                best = min(members, key=lambda r: (r.expectation, r.repeat))
                row["best_repeat"] = best.repeat
                row["best_expectation"] = best.expectation
                row["best_mean_error"] = best.mean_error
                row["best_max_amplification"] = best.max_amplification
                row["best_max_amplified_rank"] = best.max_amplified_rank
            else:
                row["success_rate"] = float(np.mean([r.success for r in members]))
            rows.append(row)
    return rows


def write_summary_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValueError("no summary rows to write")
    fields = list(dict.fromkeys(name for row in rows for name in row))
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _write_series(path: Path, header, rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


@dataclass(frozen=True)
class _Plot:
    """One figure family: a file per ``series`` key, a row per ``x`` value.

    Rows are ``summarise`` groups over ``series + (x,)``; ``name`` is the file
    name's template over the series keys.
    """

    record: type
    series: tuple[str, ...]
    x: str
    y: tuple[str, ...]
    header: tuple[str, ...]
    name: str


_PLOTS = {
    "mean_error_vs_depth": _Plot(
        ExperimentRecord,
        ("algorithm", "function"),
        "depth",
        ("mean_error_mean", "mean_error_pstd"),
        ("x", "y", "y_err"),
        "{function}__{algorithm}",
    ),
    "amplification_vs_depth": _Plot(
        ExperimentRecord,
        ("algorithm", "function"),
        "depth",
        (
            "max_amplification_mean",
            "max_amplification_pstd",
            "best_max_amplification",
            "best_max_amplified_rank",
        ),
        ("x", "y", "y_err", "y_best", "best_rank"),
        "{function}__{algorithm}",
    ),
    # records are cut to the deepest layer first, so "depth" is one value
    "function_bars": _Plot(
        ExperimentRecord,
        ("algorithm", "depth"),
        "function",
        (
            "mean_error_mean",
            "mean_error_pstd",
            "statistical_distance_mean",
            "statistical_distance_pstd",
        ),
        (
            "function",
            "mean_error",
            "mean_error_err",
            "statistical_distance",
            "statistical_distance_err",
        ),
        "{algorithm}__p{depth}",
    ),
    # one more column, y_fit, is computed per file
    "scaling": _Plot(
        ExperimentRecord,
        ("algorithm", "function", "dims", "n_points"),
        "depth",
        ("max_amplification_mean", "max_amplification_pstd"),
        ("x", "y", "y_err", "y_fit"),
        "{function}__{algorithm}__D{dims}__N{n_points}",
    ),
    "speedup_vs_dimension": _Plot(
        HybridRecord,
        ("function",),
        "dims",
        ("speedup_mean", "speedup_pstd"),
        ("x", "y", "y_err"),
        "{function}",
    ),
}

PLOT_KINDS = tuple(_PLOTS)


def emit_plot_data(records: list, kind: str, outdir) -> list[Path]:
    """Write plain (x, y, y_err, ...) CSV series for one figure family."""
    if kind not in _PLOTS:
        raise ValueError(f"unknown plot kind {kind!r}; one of {PLOT_KINDS}")
    plot = _PLOTS[kind]
    outdir = Path(outdir)
    subset = [r for r in records if isinstance(r, plot.record)]
    if kind == "function_bars":
        max_depth = max((r.depth for r in subset), default=None)
        subset = [r for r in subset if r.depth == max_depth]
    by_series: dict[tuple, list[dict]] = {}
    for row in summarise(subset, [*plot.series, plot.x]):
        by_series.setdefault(tuple(row[k] for k in plot.series), []).append(row)
    fits = scaling_fits(subset) if kind == "scaling" else {}
    written: list[Path] = []
    for key in sorted(by_series):
        rows = sorted(by_series[key], key=lambda r: r[plot.x])
        series = [[r[plot.x], *(r[c] for c in plot.y)] for r in rows]
        if kind == "scaling":
            fit = fits[key]
            for line, r in zip(series, rows):
                line.append(float(fit.predict(np.array([r["depth"]]), r["dims"])[0]))
        name = f"{kind}__{plot.name.format(**rows[0])}.csv"
        written.append(_write_series(outdir / name, plot.header, series))
    if kind == "amplification_vs_depth":
        # one unstructured-search baseline per problem size
        for function, dims, n_points in sorted(
            {(r.function, r.dims, r.n_points) for r in subset}
        ):
            k_total = n_points**dims
            depths = sorted({r.depth for r in subset if r.function == function})
            series = [[p, rdgs_amplification(p, k_total), 0.0] for p in depths]
            written.append(
                _write_series(
                    outdir / f"rdgs_baseline__{function}__K{k_total}.csv",
                    ["x", "y", "y_err"],
                    series,
                )
            )
    return written
