"""Command line front end: single runs, sweeps, and report tables.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad or
missing config files), 2 when the experiment itself fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from .harness import (
    BENCHMARK_ICS,
    ConfigError,
    run_experiment,
    run_metrics,
    run_monte_carlo,
    summary_from_rows,
)
from .io import (
    build_mc_meta,
    build_run_meta,
    load_config_file,
    read_summary_csv,
    write_meta,
    write_record_csv,
    write_summary_csv,
)

_FILTER_CHOICES = ("pf", "npf", "var-npf", "var_npf")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varnpf",
        description=(
            "Benchmark particle filters with feedback nudging and "
            "variational guidance on the stochastic Lorenz-63 system."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one filtering run from a config")
    p_run.add_argument("--config", required=True, help="YAML config file")
    p_run.add_argument(
        "--filter", choices=_FILTER_CHOICES,
        help="override the configured filter",
    )
    p_run.add_argument("--seed", type=int, help="override the base seed")
    p_run.add_argument(
        "--out", help="directory for record.csv and meta.json"
    )

    p_mc = sub.add_parser("mc", help="paired Monte Carlo sweep")
    p_mc.add_argument("--config", required=True, help="YAML config file")
    p_mc.add_argument(
        "--runs", type=int, required=True, help="repetitions per condition"
    )
    p_mc.add_argument(
        "--ics", default="star",
        help="'star', 'all', or comma-separated benchmark indices",
    )
    p_mc.add_argument(
        "--filters", default="pf,npf,var_npf",
        help="comma-separated filters to pair (default: all three)",
    )
    p_mc.add_argument(
        "--jobs", type=int, default=1, help="worker processes"
    )
    p_mc.add_argument(
        "--out", required=True,
        help="directory for summary.csv and meta.json",
    )

    p_rep = sub.add_parser("report", help="print tables from a sweep")
    p_rep.add_argument(
        "--in", dest="in_dir", required=True,
        help="directory holding summary.csv",
    )
    return parser


def _parse_ics(spec: str) -> dict:
    """The selected benchmark conditions, keyed by their index, so each
    runs as ``varnpf run`` with that ``ic_index`` and ``truth_init``."""
    spec = spec.strip().lower()
    if spec == "star":
        indices = [0]
    elif spec == "all":
        indices = range(len(BENCHMARK_ICS))
    else:
        try:
            indices = [int(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError as err:
            raise ConfigError(f"bad --ics value: {err}") from err
    if not indices:
        raise ConfigError("--ics selected no initial conditions")
    for idx in indices:
        if not 0 <= idx < len(BENCHMARK_ICS):
            raise ConfigError(
                f"--ics index {idx} outside 0..{len(BENCHMARK_ICS) - 1}"
            )
    if len(set(indices)) != len(indices):
        raise ConfigError(f"--ics repeats an index: {spec}")
    return {idx: BENCHMARK_ICS[idx] for idx in indices}


def _parse_filters(spec: str):
    names = [tok.strip().replace("-", "_") for tok in spec.split(",")]
    names = [tok for tok in names if tok]
    if not names:
        raise ConfigError("--filters selected no filters")
    return tuple(names)


def _cmd_run(args) -> int:
    config = load_config_file(args.config)
    if args.filter is not None:
        config = dataclasses.replace(
            config, filter_name=args.filter.replace("-", "_")
        )
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    record = run_experiment(config)
    metrics = run_metrics(record)
    print(
        f"filter={metrics.filter_name} seed={metrics.seed} "
        f"ic={metrics.ic_index} run={metrics.run_index}"
    )
    print(
        f"rmse={metrics.rmse:.6g} avg_ness={metrics.avg_ness:.4f} "
        f"bm_ratio={metrics.bm_ratio:.4g} "
        f"runtime={metrics.runtime_total:.3f}s"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_record_csv(record, out / "record.csv")
        write_meta(build_run_meta(record), out / "meta.json")
        print(f"wrote {out / 'record.csv'} and {out / 'meta.json'}")
    if record.failed:
        print(f"run failed: {record.failure_message}", file=sys.stderr)
        return 2
    return 0


def _aggregate_table(summary) -> str:
    lines = []
    header = (
        f"{'ic':>3} {'filter':>8} {'runs':>5} {'fail':>5} "
        f"{'rmse_med':>10} {'rmse_avg':>10} {'ness_med':>9} "
        f"{'ratio_med':>10} {'time_avg':>9}"
    )
    lines.append(header)
    for row in summary.aggregate():
        lines.append(
            f"{row['ic_index']:>3} {row['filter']:>8} {row['runs']:>5} "
            f"{row['failures']:>5} {row['median_rmse']:>10.4g} "
            f"{row['avg_rmse']:>10.4g} {row['median_ness']:>9.4f} "
            f"{row['median_bm_ratio']:>10.4g} {row['avg_runtime']:>9.3f}"
        )
    lines.append("")
    lines.append("pooled over initial conditions:")
    for name in summary.filters:
        done = summary.completed(name)
        if not done:
            lines.append(f"  {name:>8}: no completed runs")
            continue
        rmse = float(np.median([r.rmse for r in done]))
        ness = float(np.median([r.avg_ness for r in done]))
        ratios = [r.bm_ratio for r in done if np.isfinite(r.bm_ratio)]
        ratio = float(np.median(ratios)) if ratios else float("nan")
        runtime = float(np.mean([r.runtime_total for r in done]))
        lines.append(
            f"  {name:>8}: median rmse {rmse:.4g}, median ness "
            f"{ness:.4f}, median ratio {ratio:.4g}, mean time "
            f"{runtime:.3f}s over {len(done)} runs"
        )
    return "\n".join(lines)


def _cmd_mc(args) -> int:
    config = load_config_file(args.config)
    ics = _parse_ics(args.ics)
    filters = _parse_filters(args.filters)
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    started = time.perf_counter()

    def report_progress(rows, done, total):
        elapsed = time.perf_counter() - started
        eta = elapsed / done * (total - done)
        print(
            f"mc: pair {done}/{total} done (ic {rows[0].ic_index}, run "
            f"{rows[0].run_index}), {elapsed:.1f} s elapsed, eta "
            f"{eta:.1f} s",
            file=sys.stderr, flush=True,
        )

    summary = run_monte_carlo(
        config,
        initial_conditions=ics,
        runs_per_ic=args.runs,
        filters=filters,
        jobs=args.jobs,
        progress=report_progress,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(summary.runs, out / "summary.csv")
    write_meta(build_mc_meta(summary, config), out / "meta.json")
    print(_aggregate_table(summary))
    print(f"wrote {out / 'summary.csv'} and {out / 'meta.json'}")
    if summary.runs and all(r.failed for r in summary.runs):
        print("every run failed", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    path = Path(args.in_dir) / "summary.csv"
    if not path.exists():
        raise ConfigError(f"no summary.csv under {args.in_dir}")
    rows = read_summary_csv(path)
    summary = summary_from_rows(rows)
    print(_aggregate_table(summary))
    return 0


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage problems; those are config errors here
        return 0 if not err.code else 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "mc":
            return _cmd_mc(args)
        return _cmd_report(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # anything past config parsing is a run failure
        print(f"run failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
