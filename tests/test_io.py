"""Artifact round trips: tidy record CSV, summary CSV, meta, YAML configs."""

import csv
import dataclasses
import json
import math
from itertools import repeat

import numpy as np
import pytest

from varnpf.harness import (
    RECORD_AXES,
    RECORD_SERIES,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    run_experiment,
    run_metrics,
)
from varnpf.io import (
    SCHEMA,
    WRITE_BLOCK_ROWS,
    build_mc_meta,
    build_run_meta,
    load_config_file,
    read_record_csv,
    read_summary_csv,
    write_config_file,
    write_meta,
    write_record_csv,
    write_summary_csv,
)
from varnpf.harness import run_monte_carlo
from varnpf.nudging import NudgingConfig


def small_config(**kwargs):
    kwargs.setdefault("particles", 3)
    kwargs.setdefault("t_final", 0.5)
    return ExperimentConfig(**kwargs)


def series_matrix(data, name, shape):
    return data[name]["value"].reshape(shape)


class TestRecordCsv:
    def test_bootstrap_record_round_trips_bitwise(self, tmp_path):
        record = run_experiment(small_config(seed=60))
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        data = read_record_csv(path)
        assert np.array_equal(
            series_matrix(data, "truth", (51, 3)), record.truth
        )
        assert np.array_equal(
            series_matrix(data, "ensemble_mean", (51, 3)),
            record.ensemble_mean,
        )
        assert np.array_equal(
            series_matrix(data, "step_weight", (51, 3)),
            record.step_weights,
        )
        assert np.array_equal(
            data["posterior_ness"]["value"], record.posterior_ness
        )
        assert np.array_equal(
            data["observation"]["value"].reshape(1, 3),
            record.observations,
        )
        assert "step_ratio" not in data
        assert "pseudo_target" not in data

    def test_guided_record_round_trips_bitwise(self, tmp_path):
        record = run_experiment(
            small_config(filter_name="var_npf", seed=61)
        )
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        data = read_record_csv(path)
        got_ratio = series_matrix(data, "step_ratio", (50, 3))
        same = np.isfinite(record.step_ratio)
        assert np.array_equal(got_ratio[same], record.step_ratio[same])
        assert np.all(np.isnan(got_ratio[~same]))
        applied = data["control_applied_norm"]["value"].reshape(1, 5, 3)
        assert np.array_equal(applied, record.control_applied_norms)
        assert np.array_equal(
            data["log_rn"]["value"].reshape(1, 3), record.log_rn
        )
        assert np.array_equal(
            data["pseudo_target"]["value"].reshape(1, 5, 3),
            record.pseudo_targets,
        )
        assert np.array_equal(
            data["realization_steps"]["value"],
            record.realization_steps.astype(float),
        )

    @pytest.mark.parametrize("config", [
        small_config(filter_name="npf", seed=66),
        small_config(filter_name="var_npf", seed=67, t_final=1.0),
        small_config(seed=68, ensemble_mean=(1e8, 1e8, 1e8)),
        small_config(
            filter_name="var_npf", seed=69, ensemble_mean=(1e8, 1e8, 1e8)
        ),
    ], ids=["npf", "var_npf", "failed_pf", "failed_var_npf"])
    def test_every_series_round_trips(self, tmp_path, config):
        record = run_experiment(config)
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        data = read_record_csv(path)
        written = [
            s for s in RECORD_SERIES if getattr(record, s.attr) is not None
        ]
        assert list(data) == [s.name for s in written]
        for series in written:
            want = np.asarray(getattr(record, series.attr), dtype=float)
            got = data[series.name]["value"]
            assert got.size == want.size, series.name
            assert np.array_equal(
                got, want.reshape(-1), equal_nan=True
            ), series.name
        if record.failed:
            # the failing cycle and everything after it stay nan
            assert np.isnan(record.step_weights[1:]).all()
            tail = data["step_weight"]["value"].reshape(-1, 3)[1:]
            assert np.isnan(tail).all()
            assert np.isnan(data["posterior_ness"]["value"]).all()

    def test_index_columns_follow_the_axes(self, tmp_path):
        record = run_experiment(small_config(filter_name="var_npf", seed=70))
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        data = read_record_csv(path)
        state = data["step_state"]
        assert np.array_equal(state["time"], np.repeat(record.times, 9))
        assert np.array_equal(
            state["particle"], np.tile(np.repeat(np.arange(3.0), 3), 51)
        )
        assert np.array_equal(
            state["component"], np.tile(np.arange(3.0), 153)
        )
        assert np.isnan(state["cycle"]).all()
        ratio = data["step_ratio"]
        assert np.array_equal(ratio["time"], np.repeat(record.times[:-1], 3))
        applied = data["control_applied_norm"]
        assert np.array_equal(applied["cycle"], np.zeros(15))
        assert np.array_equal(
            applied["component"], np.repeat(np.arange(5.0), 3)
        )
        assert np.array_equal(applied["particle"], np.tile(np.arange(3.0), 5))
        # pseudo targets flatten (subinterval, component) to j * m + c
        target = data["pseudo_target"]
        assert np.array_equal(target["component"], np.arange(15.0))
        assert np.isnan(target["particle"]).all()
        assert np.array_equal(data["obs_time"]["cycle"], [0.0])

    def test_every_array_attribute_is_a_written_series(self, tmp_path):
        table = {s.attr for s in RECORD_SERIES}
        assert len(table) == len(RECORD_SERIES)
        assert len({s.name for s in RECORD_SERIES}) == len(RECORD_SERIES)
        for name in ("pf", "npf", "var_npf"):
            record = run_experiment(small_config(filter_name=name, seed=71))
            arrays = {
                f.name for f in dataclasses.fields(ExperimentRecord)
                if isinstance(getattr(record, f.name), np.ndarray)
            }
            # times labels the time column instead of being a series
            arrays.discard("times")
            if name == "var_npf":
                assert arrays == table
            assert arrays <= table
            path = tmp_path / f"{name}.csv"
            write_record_csv(record, path)
            data = read_record_csv(path)
            for series in RECORD_SERIES:
                present = getattr(record, series.attr) is not None
                assert (series.name in data) == present, series.name

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_record_csv(path)
        assert SCHEMA[0] == "series"

    @pytest.mark.parametrize("row", [
        "truth,0.01,,,1", "truth,0.01,,,1,2.5,7", "truth", "truth,x,,,1,2.5",
    ])
    def test_rejects_malformed_rows(self, tmp_path, row):
        path = tmp_path / "record.csv"
        path.write_text(
            ",".join(SCHEMA) + "\ntruth,0,,,0,1.5\n" + row + "\n"
        )
        with pytest.raises(ConfigError, match="line 3"):
            read_record_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "record.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="header"):
            read_record_csv(path)


def oracle_write_record_csv(record, path):
    """Reference writer: one csv.writer row per value, built by fancy
    indexing numpy object arrays."""
    def fmt(value):
        return format(float(value), ".17g")

    times = np.array([fmt(t) for t in record.times], dtype=object)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEMA)
        for series in RECORD_SERIES:
            values = getattr(record, series.attr)
            if values is None:
                continue
            columns = list(dict.fromkeys(
                RECORD_AXES[axis] for axis in series.axes
            ))
            values = np.asarray(values, dtype=float)
            values = values.reshape(values.shape[:len(columns) - 1] + (-1,))
            counts = np.array(
                [str(i) for i in range(max(values.shape))], dtype=object
            )
            cells = dict.fromkeys(SCHEMA[1:-1], repeat(""))
            index = np.indices(values.shape).reshape(len(columns), -1)
            for column, positions in zip(columns, index):
                labels = times if column == "time" else counts
                cells[column] = labels[positions].tolist()
            writer.writerows(zip(
                repeat(series.name),
                *cells.values(),
                map(fmt, values.ravel().tolist()),
            ))


def oracle_read_record_csv(path):
    """Reference reader: lists of Python floats per column."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == SCHEMA
        for row in reader:
            bucket = out.setdefault(
                row[0], {name: [] for name in SCHEMA[1:]}
            )
            for name, cell in zip(SCHEMA[1:], row[1:]):
                bucket[name].append(float(cell) if cell != "" else np.nan)
    return {
        name: {col: np.asarray(vals) for col, vals in bucket.items()}
        for name, bucket in out.items()
    }


def assert_same_read(got, want):
    assert list(got) == list(want)
    for name, columns in want.items():
        assert list(got[name]) == list(columns), name
        for col, expected in columns.items():
            array = got[name][col]
            assert array.dtype == expected.dtype == np.float64, (name, col)
            assert array.tobytes() == expected.tobytes(), (name, col)
            assert array.flags.owndata and array.flags.writeable


ORACLE_CONFIGS = {
    # 101 grid rows x 100 particles x 3 components: several write blocks
    "pf_100": small_config(particles=100, t_final=1.0, seed=80),
    "npf": small_config(filter_name="npf", seed=81),
    "var_npf": small_config(filter_name="var_npf", seed=82, t_final=1.0),
    "failed_pf": small_config(seed=83, ensemble_mean=(1e8, 1e8, 1e8)),
    "failed_var_npf": small_config(
        filter_name="var_npf", seed=84, ensemble_mean=(1e8, 1e8, 1e8)
    ),
}


@pytest.fixture(scope="module", params=list(ORACLE_CONFIGS))
def written_pair(request, tmp_path_factory):
    """(new writer's file, reference writer's file) for one record."""
    record = run_experiment(ORACLE_CONFIGS[request.param])
    folder = tmp_path_factory.mktemp(request.param)
    new, old = folder / "new.csv", folder / "old.csv"
    write_record_csv(record, new)
    oracle_write_record_csv(record, old)
    return new, old


class TestRecordCsvOracle:
    def test_writer_bytes_match_reference(self, written_pair):
        new, old = written_pair
        assert new.read_bytes() == old.read_bytes()

    def test_reader_matches_reference(self, written_pair):
        new, _ = written_pair
        assert_same_read(read_record_csv(new), oracle_read_record_csv(new))

    @pytest.mark.parametrize("body", [
        # series interleave; first appearance fixes the key order
        "b,0.5,,,0,2\r\na,,0,,,1.25\r\nb,1,,,1,-3e-300\r\na,,1,,,inf\r\n",
        # an empty value cell reads as nan
        "a,0,,,0,\r\na,0,,,1,4.5\r\n",
        # quoted cells, one with an embedded separator in the series name
        '"a",0,,"2",0,"1.5"\r\n"x,y",,,,,7\r\n',
    ], ids=["interleaved", "empty_value", "quoted"])
    def test_reader_matches_reference_on_hand_made_files(self, tmp_path, body):
        path = tmp_path / "record.csv"
        path.write_bytes((",".join(SCHEMA) + "\r\n" + body).encode())
        assert_same_read(read_record_csv(path), oracle_read_record_csv(path))

    @pytest.mark.parametrize("bad", [
        "step_state,0.01,,1,2", "step_state,0.01,,1,2,x1.5",
    ], ids=["short_row", "non_numeric"])
    def test_error_past_first_block_names_its_line(self, tmp_path, bad):
        record = run_experiment(ORACLE_CONFIGS["pf_100"])
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        lines = path.read_bytes().split(b"\r\n")
        line = WRITE_BLOCK_ROWS + 1000
        lines[line - 1] = bad.encode()
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ConfigError, match=f"line {line}:"):
            read_record_csv(path)


def rows_equal(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            if not (isinstance(y, float) and math.isnan(y)):
                return False
        elif x != y:
            return False
    return True


class TestSummaryCsv:
    def test_rows_round_trip(self, tmp_path):
        config = small_config(seed=62)
        summary = run_monte_carlo(
            config, runs_per_ic=2, filters=("pf", "npf", "var_npf"),
        )
        cells = (config.n_intervals * config.nudging.subintervals
                 * config.particles)
        path = tmp_path / "summary.csv"
        write_summary_csv(summary.runs, path)
        back = read_summary_csv(path)
        assert len(back) == len(summary.runs)
        for a, b in zip(summary.runs, back):
            assert rows_equal(a, b)
            # the variational counters are 0 unless the filter solves
            guided = b.filter_name == "var_npf"
            assert (b.variational_iterations > 0) == guided
            assert (b.variational_cost_evals > 0) == guided
            assert b.variational_cost_evals >= b.variational_iterations
            # so are the control counters unless the filter nudges, and the
            # two rollback causes add up to the rollback fraction
            nudged = b.filter_name != "pf"
            assert (b.control_solves > 0) == nudged
            assert b.control_solves <= cells
            assert b.floored_solves + b.threshold_rollbacks == round(
                b.rollback_fraction * cells
            )

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ConfigError):
            read_summary_csv(path)

    @pytest.mark.parametrize("cut", [
        lambda row: row.rsplit(",", 1)[0],
        lambda row: row + ",1",
        lambda row: row.replace(",", ",x,", 1).rsplit(",", 1)[0],
    ], ids=["short", "long", "non_numeric"])
    def test_rejects_malformed_rows(self, tmp_path, cut):
        summary = run_monte_carlo(small_config(seed=72), filters=("pf",))
        path = tmp_path / "summary.csv"
        write_summary_csv(summary.runs, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [cut(lines[1])]))
        with pytest.raises(ConfigError, match="line 3"):
            read_summary_csv(path)


class TestMeta:
    def test_run_meta_echoes_config(self, tmp_path):
        cfg = small_config(filter_name="npf", seed=63)
        record = run_experiment(cfg)
        meta = build_run_meta(record)
        path = tmp_path / "meta.json"
        write_meta(meta, path)
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "run"
        assert loaded["truth_digest"] == record.truth_digest
        assert not loaded["failed"]
        assert ExperimentConfig.from_dict(loaded["config"]) == cfg
        assert loaded["metrics"]["rmse"] == run_metrics(record).rmse

    def test_run_meta_sums_variational_counters(self, tmp_path):
        record = run_experiment(small_config(filter_name="var_npf", seed=65))
        path = tmp_path / "meta.json"
        write_meta(build_run_meta(record), path)
        metrics = json.loads(path.read_text())["metrics"]
        assert metrics["variational_iterations"] == int(
            record.variational_iterations.sum()
        )
        assert metrics["variational_cost_evals"] == int(
            record.variational_cost_evals.sum()
        )
        assert metrics["variational_iterations"] > 0

    @pytest.mark.parametrize("filter_name", ["pf", "npf"])
    def test_run_meta_sums_control_counters(self, tmp_path, filter_name):
        record = run_experiment(small_config(filter_name=filter_name, seed=66))
        path = tmp_path / "meta.json"
        write_meta(build_run_meta(record), path)
        metrics = json.loads(path.read_text())["metrics"]
        counters = (
            metrics["control_solves"], metrics["floored_solves"],
            metrics["threshold_rollbacks"],
        )
        if record.rollbacks is None:
            assert counters == (0, 0, 0)
            return
        assert counters == (
            np.count_nonzero(record.batches_used),
            np.sum(record.phi_floored),
            np.sum(record.rollbacks & ~record.phi_floored),
        )
        assert metrics["control_solves"] == record.batches_used.size

    def test_mc_meta_carries_aggregate(self, tmp_path):
        cfg = small_config(seed=64)
        summary = run_monte_carlo(cfg, runs_per_ic=1, filters=("pf",))
        meta = build_mc_meta(summary, cfg)
        path = tmp_path / "meta.json"
        write_meta(meta, path)
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "mc"
        assert loaded["runs_per_ic"] == 1
        assert loaded["filters"] == ["pf"]
        assert len(loaded["aggregate"]) == 1
        assert loaded["aggregate"][0]["runs"] == 1


class TestConfigFiles:
    def test_yaml_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            filter_name="var_npf",
            seed=65,
            nudging=NudgingConfig(subintervals=10, tolerance=0.05),
        )
        path = tmp_path / "config.yaml"
        write_config_file(cfg, path)
        assert load_config_file(path) == cfg

    def test_empty_file_means_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config_file(path) == ExperimentConfig()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("bogus_key: 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config_file(path)

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "nope.yaml")

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config_file(path)
