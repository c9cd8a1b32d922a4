"""Layer tracing from outside the package.

A :class:`Tracer` replaces a function at the module attribute where its
caller looks it up, records one span per call (name, start, end, parent)
plus per-layer counters, and puts every original back on exit.  The
package source is never edited, so an untraced run executes exactly the
shipped code.

Spans are kept in memory; self time is a span's duration minus the time
its direct children cover.  The program is single-threaded, so children
of one span never overlap and that difference is exact.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One wrapped lookup site.

    ``site`` is the module whose global the caller resolves at call time,
    ``attr`` the global's name, ``layer`` the reported name (the function's
    home module and name, so one function wrapped at two sites adds up in
    one layer).  ``timed`` False counts calls without a span, for functions
    called too often for a span each.  ``extract(counts, bound, result)``
    adds per-call counters from the bound arguments and the return value.
    """

    site: str
    attr: str
    layer: str
    timed: bool = True
    extract: Callable | None = None


def _control_counts(counts, bound, est):
    from varnpf.sde import whole_steps

    args = bound.arguments
    counts["nudging.adaptive_control.realizations"] += est.realizations_used
    counts["nudging.adaptive_control.unconverged"] += int(not est.converged)
    counts["nudging.adaptive_control.floored"] += int(est.phi_floored)
    counts["nudging.realization_steps"] += est.realizations_used * whole_steps(
        args["t"], args["horizon_end"], args["dt"]
    )


def _rollback_counts(counts, bound, rolled_back):
    counts["nudging.rollback_test.rejected"] += int(rolled_back)


def _advect_counts(counts, bound, result):
    counts["bootstrap_pf.advect_particles.failed_particles"] += len(result[1])


def _reweight_counts(counts, bound, result):
    counts["ensemble.bayes_reweight.collapsed"] += int(result[1])


def _minimize_counts(counts, bound, result):
    counts["variational.minimize_cost.iterations"] += result.iterations
    counts["variational.minimize_cost.cost_evals"] += result.cost_evals
    counts["variational.minimize_cost.stalled"] += int(
        result.status == "stalled"
    )


def _record_bytes(counts, bound, result):
    counts["io.record_bytes"] += os.path.getsize(bound.arguments["path"])


PROBES = (
    Probe("varnpf.harness", "run_experiment", "harness.run_experiment"),
    Probe(
        "varnpf.harness", "generate_truth_and_observations",
        "harness.generate_truth_and_observations",
    ),
    Probe(
        "varnpf.harness", "sample_brownian_path", "sde.sample_brownian_path"
    ),
    Probe(
        "varnpf.harness", "pf_assimilation_cycle",
        "bootstrap_pf.pf_assimilation_cycle",
    ),
    Probe(
        "varnpf.harness", "npf_assimilation_cycle",
        "nudging.npf_assimilation_cycle",
    ),
    Probe(
        "varnpf.harness", "var_npf_assimilation_cycle",
        "var_npf.var_npf_assimilation_cycle",
    ),
    Probe(
        "varnpf.nudging", "adaptive_control", "nudging.adaptive_control",
        extract=_control_counts,
    ),
    Probe(
        "varnpf.nudging", "rollback_test", "nudging.rollback_test",
        timed=False, extract=_rollback_counts,
    ),
    Probe(
        "varnpf.nudging", "advect_particles", "bootstrap_pf.advect_particles",
        extract=_advect_counts,
    ),
    Probe(
        "varnpf.nudging", "bayes_reweight", "ensemble.bayes_reweight",
        extract=_reweight_counts,
    ),
    Probe(
        "varnpf.nudging", "systematic_resample", "ensemble.systematic_resample"
    ),
    Probe("varnpf.nudging", "stream_generator", "seeding.stream_generator"),
    Probe(
        "varnpf.bootstrap_pf", "advect_particles",
        "bootstrap_pf.advect_particles", extract=_advect_counts,
    ),
    Probe("varnpf.bootstrap_pf", "integrate_path", "sde.integrate_path"),
    Probe(
        "varnpf.bootstrap_pf", "bayes_reweight", "ensemble.bayes_reweight",
        extract=_reweight_counts,
    ),
    Probe(
        "varnpf.bootstrap_pf", "systematic_resample",
        "ensemble.systematic_resample",
    ),
    Probe(
        "varnpf.var_npf", "minimize_cost", "variational.minimize_cost",
        extract=_minimize_counts,
    ),
    Probe(
        "varnpf.var_npf", "build_pseudo_path", "variational.build_pseudo_path"
    ),
    Probe(
        "varnpf.var_npf", "empirical_moments", "ensemble.empirical_moments"
    ),
    Probe(
        "varnpf.cli", "write_record_csv", "io.write_record_csv",
        extract=_record_bytes,
    ),
    Probe("varnpf.cli", "write_summary_csv", "io.write_summary_csv"),
    Probe("varnpf.cli", "write_meta", "io.write_meta"),
    Probe("varnpf.io", "read_record_csv", "io.read_record_csv"),
    # the lorenz63 drift lambda resolves l63_drift in sde at call time
    Probe("varnpf.sde", "l63_drift", "sde.l63_drift", timed=False),
)


class Tracer:
    """Context manager that installs the probes and restores them on exit.

    A probe whose site no longer has the attribute, or whose counters can no
    longer be read from the call, is listed in ``notes`` instead of failing
    the run: a refactor that moves a call leaves its layer unobserved.
    """

    def __init__(self, probes=PROBES):
        self.probes = tuple(probes)
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: defaultdict = defaultdict(int)
        self.originals: list[tuple] = []  # (module, attr, original)
        self.notes: set = set()
        self._stack: list[int] = []

    def __enter__(self):
        try:
            for probe in self.probes:
                module = importlib.import_module(probe.site)
                original = getattr(module, probe.attr, None)
                if original is None:
                    self.notes.add(f"{probe.site}.{probe.attr} not found")
                    continue
                setattr(module, probe.attr, self._wrap(probe, original))
                self.originals.append((module, probe.attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self.originals:
            module, attr, original = self.originals.pop()
            setattr(module, attr, original)

    def _wrap(self, probe: Probe, fn):
        counts = self.counts
        calls = probe.layer + ".calls"
        signature = inspect.signature(fn) if probe.extract else None

        def finish(args, kwargs, result):
            counts[calls] += 1
            if probe.extract is None:
                return
            try:
                probe.extract(counts, signature.bind(*args, **kwargs), result)
            except (TypeError, KeyError, AttributeError) as err:
                self.notes.add(f"{probe.layer} counters not read: {err!r}")

        if not probe.timed:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                finish(args, kwargs, result)
                return result

            return counted

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            record = [probe.layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            finish(args, kwargs, result)
            return result

        return timed

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict:
        """{layer.s, layer.self_s} summed over spans, plus every counter."""
        out: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            layer, start, end, _ = span
            out[layer + ".s"] += end - start
            out[layer + ".self_s"] += own
        out.update(self.counts)
        return dict(out)

    def nesting_errors(self) -> list[str]:
        """Spans ending before they start or outside their parent's span."""
        errors = []
        for i, (layer, start, end, parent) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {i} ({layer}) ends before it starts")
            if parent >= 0:
                p_layer, p_start, p_end, _ = self.spans[parent]
                if parent >= i or start < p_start or end > p_end:
                    errors.append(
                        f"span {i} ({layer}) is not inside its parent "
                        f"{parent} ({p_layer})"
                    )
        return errors
