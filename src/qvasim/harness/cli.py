"""Command-line experiment runner.

Subcommands: ``run`` executes a config, ``summarise`` aggregates a record
log, ``plot-data`` writes figure-ready CSV series, ``catalogue`` lists the
available functions, algorithms and graph families. Exit codes: 0 success,
2 configuration error, 3 runtime failure. Set QVASIM_WORKERS (or ``--workers``)
to parallelise the repeats of a sweep depth or of a hybrid study; a count below
1, or a QVASIM_WORKERS that is not an integer, is a configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ALGORITHM_LABELS, KINDS, ConfigError, load_config
from .runner import load_records, run_experiment
from .summary import PLOT_KINDS, emit_plot_data, summarise, write_summary_csv

EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvasim",
        description="Benchmark quantum variational algorithms on discretised "
        "continuous optimisation problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config", help="YAML experiment description")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )
    run.add_argument("--output-dir", help="override the config's output directory")
    run.add_argument(
        "--workers", type=int, help="parallel repeats per sweep depth or hybrid study"
    )

    summ = sub.add_parser("summarise", help="aggregate a record log")
    summ.add_argument("records", help="records.jsonl from a run")
    summ.add_argument(
        "--group-by",
        help="comma-separated record fields (default: algorithm,function,depth "
        "for sweep records, function,dims,depth for hybrid records)",
    )
    summ.add_argument("--out", help="summary CSV path (default: stdout)")

    plot = sub.add_parser("plot-data", help="write plot-ready CSV series")
    plot.add_argument("records", help="records.jsonl from a run")
    plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    plot.add_argument("--out", default="plot-data", help="output directory")

    sub.add_parser("catalogue", help="list functions, algorithms and graphs")
    return parser


def _cmd_run(args) -> int:
    overrides = list(args.overrides)
    if args.output_dir:
        overrides.append(f"output_dir={args.output_dir}")
    config = load_config(args.config, overrides)
    records = run_experiment(config, workers=args.workers)
    print(f"{len(records)} records in {config.output_dir}")
    return 0


def _load_nonempty(path) -> list:
    """The records logged at ``path``; a missing or empty log is a runtime failure."""
    records = load_records(path)
    if not records:
        raise RuntimeError(f"no records found in {path}")
    return records


def _cmd_summarise(args) -> int:
    records = _load_nonempty(args.records)
    group_by = args.group_by
    if group_by is not None:
        group_by = [k.strip() for k in group_by.split(",") if k.strip()]
    rows = summarise(records, group_by)
    if args.out:
        write_summary_csv(rows, args.out)
        print(f"{len(rows)} groups -> {args.out}")
    else:
        for row in rows:
            print(row)
    return 0


def _cmd_plot_data(args) -> int:
    paths = emit_plot_data(_load_nonempty(args.records), args.kind, Path(args.out))
    for path in paths:
        print(path)
    return 0


def _cmd_catalogue() -> int:
    from ..functions import FUNCTIONS

    print("functions:")
    for name, f in sorted(FUNCTIONS.items()):
        dims = "any-D" if f.dims is None else f"{f.dims}D"
        print(f"  {name:18s} {dims:6s} min={f.minimum}{' per dim' if f.minimum_per_dim else ''}")
    print("algorithms:")
    for label in ALGORITHM_LABELS:
        print(f"  {label}")
    print("  qmoa_banded_<s>    (circulant band of half-width s)")
    print("graphs: complete, cycle, banded(s)")
    print("experiment kinds: " + ", ".join(KINDS))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarise":
            return _cmd_summarise(args)
        if args.command == "plot-data":
            return _cmd_plot_data(args)
        return _cmd_catalogue()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # surfaced with context, non-zero for scripting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
