"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The workloads run at smoke size, a few seconds in all.
"""

import dataclasses
import sys
import types

import pytest

import layertrace
import run
from layertrace import Probe, Tracer


@pytest.fixture
def toy_module():
    """A module whose outer() calls inner() through its own global."""
    module = types.ModuleType("perfbench_toy")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_spans_nest_and_self_time_subtracts_children(toy_module):
    probes = (
        Probe(toy_module.__name__, "outer", "toy.outer"),
        Probe(toy_module.__name__, "inner", "toy.inner"),
    )
    with Tracer(probes) as tracer:
        assert toy_module.outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["toy.outer", "toy.inner",
                                           "toy.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.nesting_errors() == []
    own = tracer.self_times()
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    children = sum(end - start for _, start, end, _ in tracer.spans[1:])
    assert own[0] == pytest.approx(outer - children, abs=1e-12)
    assert all(0.0 <= o <= end - start for o, (_, start, end, _) in
               zip(own, tracer.spans))
    totals = tracer.layer_totals()
    assert totals["toy.inner.calls"] == 2
    assert totals["toy.outer.calls"] == 1


def test_wrappers_restored_after_an_exception(toy_module):
    original = toy_module.inner
    probes = (Probe(toy_module.__name__, "inner", "toy.inner"),)
    with pytest.raises(TypeError):
        with Tracer(probes):
            assert toy_module.inner is not original
            toy_module.outer(None)
    assert toy_module.inner is original


def test_every_probe_site_exists():
    import importlib

    for probe in layertrace.PROBES:
        module = importlib.import_module(probe.site)
        assert callable(getattr(module, probe.attr)), probe


def test_missing_site_and_unreadable_counters_become_notes(toy_module):
    def extract(counts, bound, result):
        counts["toy.inner.y"] += bound.arguments["y"]

    probes = (
        Probe(toy_module.__name__, "gone", "toy.gone"),
        Probe(toy_module.__name__, "inner", "toy.inner", extract=extract),
    )
    with Tracer(probes) as tracer:
        assert toy_module.outer(1) == 4
    assert tracer.counts["toy.inner.calls"] == 2
    assert len(tracer.notes) == 2
    assert not hasattr(toy_module, "gone")


def test_unobserved_layer_is_a_note_not_an_error(tmp_path):
    workload = run.smoke_shape(run.WORKLOADS["star_paired"])
    done, tracer = run.traced_pass(workload, 0, tmp_path)
    assert done.errors == [] and tracer.notes == set()
    tracer.counts["nudging.adaptive_control.calls"] = 0
    assert run.trace_errors(workload, done.rows, tracer) == []
    assert any("realization_steps" in n for n in tracer.notes)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_workload_passes_every_traced_check(name, tmp_path):
    workload = run.smoke_shape(run.WORKLOADS[name])
    metrics, _, errors, attempted, failed = run.measure_traced(
        workload, 0, tmp_path
    )
    assert errors == []
    assert failed == 0
    assert attempted == (run.TRACED_PASSES + 1) * len(
        workload.units()
    ) * len(workload.filters)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    calls = metrics["harness.generate_truth_and_observations.calls"][0]
    assert len(workload.ics) <= calls <= attempted
    if "npf" in workload.filters or "var_npf" in workload.filters:
        assert metrics["nudging.realization_steps"][0] > 0
    else:
        assert metrics["nudging.adaptive_control.calls"][0] == 0
        assert metrics["io.record_bytes"][0] > 0


def test_layer_counts_must_match_package_totals(tmp_path):
    workload = run.smoke_shape(run.WORKLOADS["star_paired"])
    done, tracer = run.traced_pass(workload, 0, tmp_path)
    assert done.errors == []
    tracer.counts["nudging.realization_steps"] += 1
    errors = run.trace_errors(workload, done.rows, tracer)
    assert len(errors) == 1 and "nudging.realization_steps" in errors[0]


def test_unpaired_truths_are_reported(tmp_path):
    workload = run.smoke_shape(run.WORKLOADS["star_paired"])
    done = run.run_unit(workload, 0, 0, tmp_path)
    assert done.errors == []
    rows = done.rows
    rows[1] = dataclasses.replace(rows[1], truth_digest="0" * 16)
    assert any("unpaired" in e for e in run._unit_errors(workload, rows))
    assert any("result rows" in e
               for e in run._unit_errors(workload, rows[1:]))


def test_units_of_a_pass_get_distinct_inputs(tmp_path):
    workload = run.smoke_shape(run.WORKLOADS["sweep_guided"])
    done = run.run_pass(workload, 0, tmp_path)
    assert done.errors == []
    assert len(done.rows) == len(workload.units()) * len(workload.filters)
    assert len({r.truth_digest for r in done.rows}) == len(workload.units())


def test_percentile_note_needs_ten_samples_beyond():
    assert "no percentile" in run.percentile_note([1.0] * 19)
    assert "p90" in run.percentile_note([float(i) for i in range(100)])
    assert "p99" in run.percentile_note([float(i) for i in range(1000)])


def test_speed_probe_ticks_and_restores_the_alarm_handler():
    import signal
    import time

    from hostspeed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.01) as probe:
        mark = probe.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        slowdown, ticking = probe.since(mark)
    assert slowdown > 0.0
    assert 0.0 < ticking < 0.2
    assert len(probe.ticks) >= mark + 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
