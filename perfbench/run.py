#!/usr/bin/env python3
"""Paired-sweep benchmark for varnpf.

Runs one workload in a single process through the calls ``varnpf mc --out``
and ``varnpf run --out`` make, checks the outputs, and prints one JSON
object as its last line:

    python3 perfbench/run.py --workload star_paired --seed 0 --seconds 35 --trace 0

A unit is one ``mc`` sweep over one (condition, run) pair, or each
filter's ``run --out`` at that pair; a pass runs every unit once.  Inputs
come from ``--seed``.  ``--trace 0`` runs units round-robin until
``--seconds`` is spent and reports the end-to-end metrics.  ``--trace 1``
makes one untraced pass, then two passes with every layer wrapped at its
lookup site (see layertrace.py), and reports the per-layer metrics of the
first traced pass plus the tracing overhead.  ``--smoke`` runs every
workload at a tiny size through the traced checks only.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, in CPU time as well as wall time.  So the gated
times are put at quiet-host speed: while the units run, a fixed numpy
kernel is timed every 50 ms (see hostspeed.py), and each unit's time is
divided by the mean slowdown the kernel saw during that unit.

End-to-end metrics: ``setup_s``, the median of seven fresh-process
imports plus a tiny warm-up run of each filter, as measured;
``wall_ref_s``, one pass at quiet-host speed (the sum over units of each
unit's median); ``peak_rss_mb``; and ``run_ref_s.p50``, the median
per-run time (the package's ``runtime_total``) of the workload's subject
filter at quiet-host speed.  The same times as measured, every filter's
median run time, RMSE and normalized ESS, the failed share of runs and
the slowdown seen are printed by name above the JSON line; they are not
in it, because the raw times and the accuracy medians swing by more than
any allowed bound from seed to seed and the failed share is zero.

Exit code 0 when every check passes, 1 when a check fails, 2 when the
package cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_PROBES = 7
TRACED_PASSES = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    """A fixed set of paired runs, split into units that are repeated.

    A unit is one ``varnpf mc --out`` sweep over one (condition, run) pair
    with every filter; with ``record_io`` it runs each filter as
    ``varnpf run --out`` instead and reads the record back.  A pass runs
    every unit once.  ``subject`` is the filter whose per-run time the
    workload exists to measure.
    """

    why: str
    filters: tuple
    ics: tuple  # indices into BENCHMARK_ICS
    runs: int  # runs per condition
    particles: int
    subject: str
    record_io: bool = False
    t_final: float = 3.5

    def units(self) -> list:
        """(index into BENCHMARK_ICS, run index) of every unit, in order."""
        return [(i, r) for i in self.ics for r in range(self.runs)]


WORKLOADS = {
    "star_paired": Workload(
        why="pf/npf/var_npf paired at condition 0, default config; the only "
        "workload with long-horizon control solves; run_ref_s.p50 times "
        "npf",
        filters=("pf", "npf", "var_npf"),
        ics=(0,),
        runs=2,
        particles=10,
        subject="npf",
    ),
    "sweep_guided": Workload(
        why="pf plus var_npf over all 11 conditions; most variational work, "
        "across varied regimes, only short-horizon control solves; "
        "run_ref_s.p50 times var_npf",
        filters=("pf", "var_npf"),
        ics=tuple(range(11)),
        runs=1,
        particles=10,
        subject="var_npf",
    ),
    "pf_wide": Workload(
        why="bootstrap pf with 100 particles, each run written as "
        "record.csv/meta.json and read back; no nudging or variational "
        "work; run_ref_s.p50 times pf",
        filters=("pf",),
        ics=(0,),
        runs=3,
        particles=100,
        subject="pf",
        record_io=True,
    ),
}


def smoke_shape(workload: Workload) -> Workload:
    """The same workload shrunk to a couple of seconds."""
    return dataclasses.replace(
        workload,
        ics=workload.ics[:2],
        runs=1,
        particles=min(workload.particles, 4),
        t_final=1.0,
    )


# RunMetrics fields that depend on timing; every other field must repeat
TIMING_FIELDS = frozenset(
    ("runtime_total", "runtime_control", "runtime_variational",
     "variational_share")
)


def result_key(row) -> tuple:
    """Every non-timing field of a RunMetrics row; repr keeps nan equal."""
    return tuple(
        repr(getattr(row, f.name))
        for f in dataclasses.fields(row)
        if f.name not in TIMING_FIELDS
    )


def template_for(workload: Workload, seed: int = 0):
    from varnpf.harness import ExperimentConfig

    return ExperimentConfig(
        particles=workload.particles, t_final=workload.t_final, seed=seed
    )


def _round_trip_errors(record, back) -> list:
    import numpy as np

    expected = {
        "truth": record.truth,
        "ensemble_mean": record.ensemble_mean,
        "step_state": record.step_states,
        "step_weight": record.step_weights,
        "observation": record.observations,
        "posterior_ness": record.posterior_ness,
    }
    errors = []
    for name, arr in expected.items():
        got = back.get(name, {}).get("value")
        want = np.ascontiguousarray(arr, dtype=float).reshape(-1)
        if got is None or got.tobytes() != want.tobytes():
            errors.append(
                f"record series {name} does not round-trip bit for bit "
                f"(run {record.config.run_index})"
            )
    return errors


@dataclasses.dataclass
class Pass:
    wall: float  # seconds, checks excluded
    rows: list  # RunMetrics of every run
    errors: list


def unit_seed(seed: int, unit: int) -> int:
    """Base seed of one unit's sweep: distinct per unit and per seed."""
    return seed * 1000 + unit


def run_unit(workload: Workload, seed: int, unit: int, out: Path) -> Pass:
    """One unit: the sweep ``varnpf mc --out`` runs over one (condition,
    run) pair, or each filter's ``varnpf run --out`` at that pair.

    Checking a read-back record is not part of the workload, so its time
    is taken off the wall time.
    """
    from varnpf import cli, harness, io

    i, r = workload.units()[unit]
    template = template_for(workload, seed)
    ic = harness.BENCHMARK_ICS[i]
    tic = time.perf_counter()
    if not workload.record_io:
        summary = harness.run_monte_carlo(
            template, initial_conditions=[ic], runs_per_ic=1,
            base_seed=unit_seed(seed, unit), filters=workload.filters,
            jobs=1,
        )
        cli.write_summary_csv(summary.runs, out / "summary.csv")
        cli.write_meta(cli.build_mc_meta(summary, template), out / "meta.json")
        done = Pass(time.perf_counter() - tic, list(summary.runs), [])
        done.errors += _unit_errors(workload, done.rows)
        return done
    done = Pass(0.0, [], [])
    checking = 0.0
    for name in workload.filters:
        record = harness.run_experiment(dataclasses.replace(
            template, filter_name=name, truth_init=ic, ic_index=i,
            run_index=r,
        ))
        cli.write_record_csv(record, out / "record.csv")
        cli.write_meta(cli.build_run_meta(record), out / "meta.json")
        back = io.read_record_csv(out / "record.csv")
        done.rows.append(harness.run_metrics(record))
        tic_check = time.perf_counter()
        done.errors += _round_trip_errors(record, back)
        del record, back
        checking += time.perf_counter() - tic_check
    done.wall = time.perf_counter() - tic - checking
    done.errors += _unit_errors(workload, done.rows)
    return done


def run_pass(workload: Workload, seed: int, out: Path) -> Pass:
    """Every unit once, in order."""
    done = Pass(0.0, [], [])
    for unit in range(len(workload.units())):
        one = run_unit(workload, seed, unit, out)
        done.wall += one.wall
        done.rows += one.rows
        done.errors += one.errors
    return done


def _unit_errors(workload: Workload, rows) -> list:
    """Every filter of the unit ran, and all of them saw the same truth."""
    errors = []
    if len(rows) != len(workload.filters):
        errors.append(
            f"{len(rows)} result rows for {len(workload.filters)} filters"
        )
    seen = sorted({row.truth_digest for row in rows})
    if len(seen) > 1:
        errors.append(f"unpaired truths in one unit: {seen}")
    return errors


def warm_up(workload: Workload, out: Path) -> None:
    """Import-time and first-call costs: one tiny run per filter."""
    from varnpf import cli, harness, io

    template = template_for(workload)
    for name in workload.filters:
        config = dataclasses.replace(
            template, filter_name=name, particles=2, t_final=template.dt_obs
        )
        record = harness.run_experiment(config)
        if workload.record_io:
            cli.write_record_csv(record, out / "record.csv")
            io.read_record_csv(out / "record.csv")


def probe_setup(workload: Workload) -> None:
    """Child-process side of setup_s: time the import plus warm-up."""
    tic = time.perf_counter()
    import varnpf  # noqa: F401

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        warm_up(workload, Path(tmp))
    print(repr(time.perf_counter() - tic))


def measure_setup(name: str) -> list:
    """Seconds of SETUP_PROBES fresh-process set-ups."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def percentile_note(values) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for per_mille in (900, 990, 999):
        rank = -(-per_mille * n // 1000)  # samples at or below, rounded up
        if n - rank >= 10:
            best = per_mille, rank
    if best is None:
        return f"n={n}; no percentile above p50 has 10 samples beyond it"
    per_mille, rank = best
    return f"n={n}; p{per_mille / 10:g}={sorted(values)[rank - 1]:.4f} s"


def host_slowdown() -> float:
    """Median of 31 hostspeed kernel ticks over the quiet-host tick."""
    from hostspeed import QUIET_TICK_S, kernel

    return statistics.median(kernel() for _ in range(31)) / QUIET_TICK_S


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "slowdown_start": host_slowdown(),
    }


def filter_lines(workload: Workload, first, rows) -> list:
    """Per-filter run time and accuracy lines, for every filter.

    Run times are over ``rows``; accuracy is over ``first``, one row per
    run, since a repeated run repeats its accuracy exactly.
    """
    lines = []
    for name in workload.filters:
        times = [r.runtime_total for r in rows if r.filter_name == name]
        done = [r for r in first if r.filter_name == name and not r.failed]
        lines.append(
            f"{name}.run_s.p50 {statistics.median(times):.4f} s "
            f"({percentile_note(times)})"
        )
        if done:
            rmse = statistics.median(r.rmse for r in done)
            lines.append(f"{name}.rmse.p50 {rmse:.6g} state units")
        if done and name != "pf":
            ness = statistics.median(r.avg_ness for r in done)
            lines.append(f"{name}.ness.p50 {ness:.6g} fraction")
    return lines


def measure(workload: Workload, name: str, seed: int, seconds: float,
            out: Path):
    """Units round-robin until the time is spent: (metrics, lines, ...).

    Every unit runs at least once.  Each unit's time, and each run's time
    within it, is put at quiet-host speed by the host speed sampled while
    that unit ran (see hostspeed.py), less the time the sampling took.
    """
    from hostspeed import SpeedProbe

    setups = measure_setup(name)
    warm_up(workload, out)
    units = workload.units()
    samples = [[] for _ in units]  # per unit, a Pass per repeat
    slowdowns = []
    column = workload.filters.index(workload.subject)
    unit_ref = [[] for _ in units]
    run_ref = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        k = 0
        while True:
            unit = k % len(units)
            mark = probe.mark()
            done = run_unit(workload, seed, unit, out)
            slowdown, ticking = probe.since(mark)
            samples[unit].append(done)
            slowdowns.append(slowdown)
            own = max(done.wall - ticking, 0.0) / done.wall  # not ticking
            unit_ref[unit].append(done.wall * own / slowdown)
            run_ref.append(done.rows[column].runtime_total * own / slowdown)
            k += 1
            elapsed = time.perf_counter() - start
            if k >= len(units) and elapsed + elapsed / k > seconds:
                break
    errors = [e for repeats in samples for p in repeats for e in p.errors]
    for unit, repeats in enumerate(samples):
        reference_rows = [result_key(r) for r in repeats[0].rows]
        for j, p in enumerate(repeats[1:], start=2):
            if [result_key(r) for r in p.rows] != reference_rows:
                errors.append(
                    f"determinism failure: unit {unit} repeat {j} differs "
                    "from repeat 1"
                )
    rows = [r for repeats in samples for p in repeats for r in p.rows]
    first = [r for repeats in samples for r in repeats[0].rows]
    failed = sum(r.failed for r in rows)
    wall = sum(statistics.median(p.wall for p in repeats)
               for repeats in samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref_s": (sum(map(statistics.median, unit_ref)), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "run_ref_s.p50": (statistics.median(run_ref), "s"),
    }
    lines = [
        f"units {len(units)}, repeats {min(map(len, samples))}-"
        f"{max(map(len, samples))}, runs attempted {len(rows)}, "
        f"failed {failed}",
        f"failed_frac {failed / len(rows):.6g} fraction",
        f"slowdown.p50 {statistics.median(slowdowns):.4f} x quiet host "
        f"(min {min(slowdowns):.4f}, max {max(slowdowns):.4f})",
        f"wall_s {wall:.4f} s (one pass, sum of unit medians, as measured)",
        f"{workload.subject}.run_ref_s.p50 {statistics.median(run_ref):.4f} s "
        f"({percentile_note(run_ref)})",
    ] + filter_lines(workload, first, rows)
    return metrics, lines, errors, len(rows), failed


PER_LAYER_UNITS = {
    "nudging.adaptive_control.s": "s",
    "nudging.adaptive_control.self_s": "s",
    "nudging.adaptive_control.calls": "count",
    "nudging.adaptive_control.realizations": "count",
    "nudging.adaptive_control.unconverged": "count",
    "nudging.adaptive_control.floored": "count",
    "nudging.realization_steps": "count",
    "nudging.rollback_fraction": "fraction",
    "nudging.npf_assimilation_cycle.self_s": "s",
    "seeding.stream_generator.calls": "count",
    "seeding.stream_generator.s": "s",
    "variational.minimize_cost.s": "s",
    "variational.minimize_cost.calls": "count",
    "variational.minimize_cost.iterations": "count",
    "variational.minimize_cost.cost_evals": "count",
    "variational.minimize_cost.stalled": "count",
    "variational.build_pseudo_path.s": "s",
    "var_npf.var_npf_assimilation_cycle.self_s": "s",
    "bootstrap_pf.advect_particles.s": "s",
    "bootstrap_pf.advect_particles.calls": "count",
    "bootstrap_pf.advect_particles.failed_particles": "count",
    "bootstrap_pf.pf_assimilation_cycle.self_s": "s",
    "sde.integrate_path.s": "s",
    "sde.l63_drift.calls": "count",
    "sde.sample_brownian_path.s": "s",
    "harness.generate_truth_and_observations.calls": "count",
    "harness.generate_truth_and_observations.s": "s",
    "harness.run_experiment.self_s": "s",
    "ensemble.bayes_reweight.s": "s",
    "ensemble.bayes_reweight.calls": "count",
    "ensemble.bayes_reweight.collapsed": "count",
    "ensemble.systematic_resample.s": "s",
    "ensemble.systematic_resample.calls": "count",
    "ensemble.empirical_moments.s": "s",
    "io.write_record_csv.s": "s",
    "io.read_record_csv.s": "s",
    "io.record_bytes": "bytes",
    "io.write_summary_csv.s": "s",
    "io.write_meta.s": "s",
    "tracing.overhead_s": "s",
}

# counters that must repeat exactly between two runs of the same code and seed
EXACT_COUNTERS = (
    "sde.l63_drift.calls",
    "nudging.adaptive_control.calls",
    "nudging.adaptive_control.realizations",
    "nudging.realization_steps",
    "variational.minimize_cost.cost_evals",
    "variational.minimize_cost.iterations",
    "harness.generate_truth_and_observations.calls",
)


def traced_pass(workload: Workload, seed: int, out: Path):
    """One pass with every probe installed: (pass, tracer)."""
    import importlib

    from layertrace import PROBES, Tracer

    sites = [(importlib.import_module(p.site), p.attr) for p in PROBES]
    originals = [(m, a, getattr(m, a, None)) for m, a in sites]
    with Tracer() as tracer:
        done = run_pass(workload, seed, out)
    for module, attr, fn in originals:
        if getattr(module, attr, None) is not fn:
            done.errors.append(f"{module.__name__}.{attr} was not restored")
    done.errors += trace_errors(workload, done.rows, tracer)
    return done, tracer


# package total -> the counter that shows its layer was observed at all
OBSERVED_BY = {
    "nudging.realization_steps": "nudging.adaptive_control.calls",
    "nudging.rollbacks": "nudging.adaptive_control.calls",
    "ensemble.systematic_resample.calls": "ensemble.systematic_resample.calls",
    "ensemble.bayes_reweight.collapsed": "ensemble.bayes_reweight.calls",
    "harness.run_experiment.calls": "harness.run_experiment.calls",
}


def trace_errors(workload: Workload, rows, tracer) -> list:
    """Spans nest, self time fits, and layer counts match package totals.

    A layer seen at no call at all is noted rather than failed, since a
    refactor may have moved the call away from its probed lookup site.
    """
    errors = list(tracer.nesting_errors())
    for (layer, start, end, _), own in zip(tracer.spans, tracer.self_times()):
        if not -1e-9 <= own <= end - start + 1e-9:
            errors.append(
                f"{layer} self time {own} outside [0, {end - start}]"
            )
    totals = tracer.layer_totals()
    template = template_for(workload)
    cells = (template.n_intervals * template.nudging.subintervals
             * template.particles)
    expected = {
        "nudging.realization_steps": sum(r.realization_steps for r in rows),
        "nudging.rollbacks": sum(
            round(r.rollback_fraction * cells) for r in rows
        ),
        "ensemble.systematic_resample.calls": sum(
            r.resampled_cycles for r in rows
        ),
        "ensemble.bayes_reweight.collapsed": sum(
            r.collapsed_cycles for r in rows
        ),
        "harness.run_experiment.calls": len(rows),
    }
    totals["nudging.rollbacks"] = _discarded_solves(totals)
    for key, want in expected.items():
        if not totals.get(OBSERVED_BY[key], 0):
            if want:
                tracer.notes.add(f"{key} not observed at its lookup site")
        elif totals.get(key, 0) != want:
            errors.append(
                f"layer count {key} = {totals.get(key, 0)}, package "
                f"total {want}"
            )
    return errors


def _discarded_solves(totals: dict) -> int:
    """Control solves rolled back: floored, or rejected by the threshold."""
    return (totals.get("nudging.adaptive_control.floored", 0)
            + totals.get("nudging.rollback_test.rejected", 0))


def layer_metrics(tracer, overhead: float) -> dict:
    totals = tracer.layer_totals()
    solves = totals.get("nudging.adaptive_control.calls", 0)
    totals["nudging.rollback_fraction"] = (
        _discarded_solves(totals) / solves if solves else 0.0
    )
    totals["tracing.overhead_s"] = overhead
    return {
        name: (float(totals.get(name, 0)), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def measure_traced(workload: Workload, seed: int, out: Path):
    """Untraced reference pass, then traced passes: (metrics, lines, ...)."""
    warm_up(workload, out)
    untraced = run_pass(workload, seed, out)
    errors = list(untraced.errors)
    reference_rows = [result_key(r) for r in untraced.rows]
    traced = []
    counters = None
    for k in range(1, TRACED_PASSES + 1):
        done, tracer = traced_pass(workload, seed, out)
        traced.append((done, tracer))
        errors += done.errors
        if [result_key(r) for r in done.rows] != reference_rows:
            errors.append(
                f"determinism failure: traced pass {k} results differ "
                "from the untraced pass"
            )
        exact = {c: tracer.counts.get(c, 0) for c in EXACT_COUNTERS}
        if counters is not None and exact != counters:
            errors.append(
                f"determinism failure: traced pass {k} counters {exact} "
                f"differ from {counters}"
            )
        counters = exact
    first, tracer = traced[0]
    metrics = layer_metrics(tracer, first.wall - untraced.wall)
    failed = sum(r.failed for r in untraced.rows)
    lines = [f"trace note: {n}" for n in sorted(tracer.notes)] + [
        f"untraced pass wall_s {untraced.wall:.4f} s, traced pass wall_s "
        f"{first.wall:.4f} s",
        f"failed_frac {failed / len(untraced.rows):.6g} fraction",
    ] + filter_lines(workload, untraced.rows, untraced.rows)
    attempted = len(untraced.rows) + sum(len(d.rows) for d, _ in traced)
    failed += sum(r.failed for d, _ in traced for r in d.rows)
    return metrics, lines, errors, attempted, failed


def smoke() -> list:
    """Every workload at smoke size through the traced checks."""
    errors = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for name, workload in WORKLOADS.items():
            _, _, errs, _, _ = measure_traced(
                smoke_shape(workload), 0, Path(tmp)
            )
            errors += [f"{name}: {e}" for e in errs]
            print(f"smoke {name}: {'ok' if not errs else 'FAILED'}",
                  flush=True)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    if args.probe_setup:
        probe_setup(WORKLOADS[args.workload])
        return 0
    try:
        import varnpf
    except ImportError as err:
        print(f"cannot import varnpf from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    if Path(varnpf.__file__).resolve().parent.parent != ROOT / "src":
        print(f"varnpf imported from {varnpf.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        errors = smoke()
        for error in errors:
            print(f"check failed: {error}", file=sys.stderr)
        return 1 if errors else 0

    workload = WORKLOADS[args.workload]
    env = environment()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            result = measure_traced(workload, args.seed, Path(tmp))
        else:
            result = measure(workload, args.workload, args.seed,
                             args.seconds, Path(tmp))
    metrics, lines, errors, attempted, failed = result
    env["loadavg_end"] = list(os.getloadavg())
    env["slowdown_end"] = host_slowdown()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
