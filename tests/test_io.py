"""Artifact round trips: tidy record CSV, summary CSV, meta, YAML configs."""

import copy
import csv
import dataclasses
import json
import math
import os
import pickle
import re
import stat
from itertools import repeat
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from varnpf.harness import (
    RECORD_AXES,
    RECORD_SERIES,
    ConfigError,
    ExperimentConfig,
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
        assert len({s.attr for s in RECORD_SERIES}) == len(RECORD_SERIES)
        assert len({s.name for s in RECORD_SERIES}) == len(RECORD_SERIES)
        for name in ("pf", "npf", "var_npf"):
            record = run_experiment(small_config(filter_name=name, seed=71))
            # the series of the filter, each an array, and nothing else
            assert set(record.series) == {
                s.attr for s in RECORD_SERIES if name in s.filters
            }
            assert all(
                isinstance(values, np.ndarray)
                for values in record.series.values()
            )
            path = tmp_path / f"{name}.csv"
            write_record_csv(record, path)
            data = read_record_csv(path)
            for series in RECORD_SERIES:
                present = getattr(record, series.attr) is not None
                assert (series.name in data) == present, series.name

    def test_record_reads_series_as_attributes_and_copies(self):
        record = run_experiment(small_config(filter_name="npf", seed=71))
        assert record.rollbacks is record.series["rollbacks"]
        # a declared series npf never produces reads None, anything else
        # is missing
        assert record.pseudo_targets is None
        with pytest.raises(AttributeError, match="no_such_series"):
            record.no_such_series
        assert not hasattr(record, "no_such_series")
        for clone in (
            pickle.loads(pickle.dumps(record)), copy.deepcopy(record)
        ):
            assert clone.config == record.config
            assert clone.runtime == record.runtime
            assert clone.pseudo_targets is None
            assert set(clone.series) == set(record.series)
            for attr, values in record.series.items():
                assert np.array_equal(
                    getattr(clone, attr), values, equal_nan=True
                ), attr

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
    # the shape of a pf_wide benchmark record: 142,563 rows, about 7 MB
    "pf_wide": small_config(particles=100, t_final=3.5, seed=85),
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
        # a quoted series name spanning two lines
        '"a\nb",0,,,0,1.5\r\na,,1,,,2\r\n',
    ], ids=["interleaved", "empty_value", "quoted", "embedded_newline"])
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

    @pytest.mark.parametrize("eol", [b"\n", b"\r"], ids=["lf", "cr"])
    def test_reader_matches_reference_on_other_line_endings(
        self, written_pair, tmp_path, eol
    ):
        new, _ = written_pair
        path = tmp_path / "record.csv"
        path.write_bytes(new.read_bytes().replace(b"\r\n", eol))
        got = read_record_csv(path)
        assert_same_read(got, oracle_read_record_csv(path))
        assert_same_read(got, read_record_csv(new))

    def test_series_interleaving_across_block_edge(self, tmp_path):
        # a, then b and a alternating over the first block's last rows and
        # the second block's first rows, then a series new in block two
        names = ["a"] * (WRITE_BLOCK_ROWS - 3) + ["b", "a"] * 3 + ["c"] * 5
        body = "".join(
            f"{name},{k / 8},,{k % 7},{k % 3},{k * 1.5e-3!r}\r\n"
            for k, name in enumerate(names)
        )
        path = tmp_path / "record.csv"
        path.write_bytes((",".join(SCHEMA) + "\r\n" + body).encode())
        got = read_record_csv(path)
        assert list(got) == ["a", "b", "c"]
        assert_same_read(got, oracle_read_record_csv(path))

    # physical lines of the first and last rows of the first two blocks
    @pytest.mark.parametrize("line", [
        2, WRITE_BLOCK_ROWS + 1,
        WRITE_BLOCK_ROWS + 2, 2 * WRITE_BLOCK_ROWS + 1,
    ], ids=["first_of_first", "last_of_first", "first_of_second",
            "last_of_second"])
    @pytest.mark.parametrize("bad, problem", [
        ("step_state,0.01,,1,2", "5 cells, expected 6"),
        ("step_state,0.01,,1,2,x1.5",
         "could not convert string to float: 'x1.5'"),
        ("step_state,0.01,,one,2,1.5",
         "could not convert string to float: 'one'"),
    ], ids=["short_row", "bad_value", "bad_index"])
    def test_bad_row_at_block_edge_names_its_line(
        self, pf_100_lines, tmp_path, line, bad, problem
    ):
        lines = list(pf_100_lines)
        lines[line - 1] = bad.encode()
        # a later bad row must not be the one reported
        lines[line + 5] = b"step_state,0.01,,1,2,nope"
        path = tmp_path / "record.csv"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ConfigError) as caught:
            read_record_csv(path)
        assert str(caught.value) == f"{path}, line {line}: {problem}"

    @pytest.mark.parametrize("row", [5, WRITE_BLOCK_ROWS + 40])
    def test_quoted_newline_before_bad_row(self, pf_100_lines, tmp_path, row):
        # data row 2 holds a quoted name spanning two physical lines, so
        # data row ``row`` (0-based) sits on physical line row + 3
        lines = list(pf_100_lines)
        lines[3] = b'"step\nstate",0.01,,1,2,1.5'
        lines[row + 1] = b"step_state,0.01,,1,2,x1.5"
        path = tmp_path / "record.csv"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ConfigError) as caught:
            read_record_csv(path)
        assert str(caught.value) == (
            f"{path}, line {row + 3}: "
            "could not convert string to float: 'x1.5'"
        )

    # the tokenizer boundary: blocks in the writer's form are split with
    # str methods, the first other block and the rest go to csv.reader

    @staticmethod
    def _write_lines(tmp_path, lines, name="record.csv"):
        path = tmp_path / name
        path.write_bytes(b"\r\n".join(lines))
        return path

    def test_writer_output_never_reaches_csv_reader(
        self, pf_100_lines, tmp_path, monkeypatch
    ):
        rows = []
        reader = csv.reader

        def counting_reader(*args):
            for row in reader(*args):
                rows.append(row)
                yield row

        monkeypatch.setattr(csv, "reader", counting_reader)
        path = self._write_lines(tmp_path, pf_100_lines)
        got = read_record_csv(path)
        assert rows == [list(SCHEMA)]
        monkeypatch.undo()
        assert_same_read(got, oracle_read_record_csv(path))

    def test_quoted_cell_first_in_second_block(self, pf_100_lines, tmp_path):
        lines = list(pf_100_lines)
        row = WRITE_BLOCK_ROWS + 10  # data row, 0-based
        name, rest = lines[row + 1].split(b",", 1)
        lines[row + 1] = b'"' + name + b'",' + rest
        path = self._write_lines(tmp_path, lines)
        got = read_record_csv(path)
        assert_same_read(got, oracle_read_record_csv(path))
        plain = self._write_lines(tmp_path, pf_100_lines, "plain.csv")
        assert_same_read(got, read_record_csv(plain))

    @pytest.mark.parametrize("line", [40, WRITE_BLOCK_ROWS + 40])
    def test_short_and_long_row_with_right_comma_total(
        self, pf_100_lines, tmp_path, line
    ):
        lines = list(pf_100_lines)
        lines[line - 1] = b"step_state,0.01,,1,2"
        lines[line + 2] = lines[line + 2] + b",7"
        path = self._write_lines(tmp_path, lines)
        assert sum(map(bytes.count, lines, repeat(b","))) == sum(
            map(bytes.count, pf_100_lines, repeat(b","))
        )
        with pytest.raises(ConfigError) as caught:
            read_record_csv(path)
        assert str(caught.value) == (
            f"{path}, line {line}: 5 cells, expected 6"
        )

    def test_last_line_without_line_end(self, pf_100_lines, tmp_path):
        assert pf_100_lines[-1] == b""
        path = self._write_lines(tmp_path, pf_100_lines[:-1])
        assert not path.read_bytes().endswith(b"\n")
        got = read_record_csv(path)
        assert_same_read(got, oracle_read_record_csv(path))
        plain = self._write_lines(tmp_path, pf_100_lines, "plain.csv")
        assert_same_read(got, read_record_csv(plain))

    def test_crlf_and_lf_lines_in_one_block(self, pf_100_lines, tmp_path):
        # from the second block on, every third line ends in LF alone
        lines = [
            line + (b"\n" if k % 3 == 0 and k > WRITE_BLOCK_ROWS else b"")
            for k, line in enumerate(pf_100_lines)
        ]
        body = b"".join(
            line if line.endswith(b"\n") else line + b"\r\n"
            for line in lines[:-1]
        )
        path = tmp_path / "record.csv"
        path.write_bytes(body)
        assert body.count(b"\r\n") < body.count(b"\n")
        got = read_record_csv(path)
        assert_same_read(got, oracle_read_record_csv(path))
        plain = self._write_lines(tmp_path, pf_100_lines, "plain.csv")
        assert_same_read(got, read_record_csv(plain))

    def test_cycle_column_partly_empty(self, tmp_path):
        # the first block's cycle cells are all empty, the second's only
        # from its 50th row on
        body = "".join(
            f"a,{k / 8},{'' if k < WRITE_BLOCK_ROWS + 50 else k % 5},"
            f"{k % 7},{k % 3},{k * 1.5e-3!r}\r\n"
            for k in range(WRITE_BLOCK_ROWS + 100)
        )
        path = tmp_path / "record.csv"
        path.write_bytes((",".join(SCHEMA) + "\r\n" + body).encode())
        got = read_record_csv(path)
        assert_same_read(got, oracle_read_record_csv(path))
        cycle = got["a"]["cycle"]
        assert np.isnan(cycle[:WRITE_BLOCK_ROWS + 50]).all()
        assert not np.isnan(cycle[WRITE_BLOCK_ROWS + 50:]).any()

    def test_line_longer_than_field_limit(self, pf_100_lines, tmp_path):
        limit = csv.field_size_limit()
        lines = list(pf_100_lines)
        # two cells under the limit whose line is longer than it
        lines[20] = b"step_state,0.01,,1,%s,%s" % (
            b"0" * (limit // 2 + 5), b"1" * (limit // 2 + 5),
        )
        path = self._write_lines(tmp_path, lines)
        assert_same_read(read_record_csv(path), oracle_read_record_csv(path))
        # one cell over the limit: what csv.reader raises
        lines[WRITE_BLOCK_ROWS + 20] = (
            b"step_state,0.01,,1,2," + b"7" * (limit + 1)
        )
        path = self._write_lines(tmp_path, lines)
        with pytest.raises(csv.Error) as want:
            oracle_read_record_csv(path)
        with pytest.raises(csv.Error) as got:
            read_record_csv(path)
        assert str(got.value) == str(want.value)

    def test_rejects_undecodable_text(self, pf_100_lines, tmp_path):
        for line in (0, 20, WRITE_BLOCK_ROWS + 20):
            lines = list(pf_100_lines)
            lines[line] += b"\xff"
            path = self._write_lines(tmp_path, lines)
            with pytest.raises(ConfigError) as caught:
                read_record_csv(path)
            assert str(caught.value).startswith(f"{path} is not UTF-8 text")


@pytest.fixture(scope="module")
def pf_100_lines(tmp_path_factory):
    """The lines of the pf_100 record file, several read blocks long."""
    record = run_experiment(ORACLE_CONFIGS["pf_100"])
    path = tmp_path_factory.mktemp("pf_100") / "record.csv"
    write_record_csv(record, path)
    lines = path.read_bytes().split(b"\r\n")
    assert len(lines) > 2 * WRITE_BLOCK_ROWS + 10
    return tuple(lines)


class _Unwritable:
    """A series whose values cannot be read, ending a write part way."""

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("cut")


def _cut_record(path):
    # truth, ensemble_mean and the blocks of step_state go out first
    record = run_experiment(ORACLE_CONFIGS["pf_100"])
    record.series["step_weights"] = _Unwritable()
    write_record_csv(record, path)


def _cut_summary(path):
    done = run_metrics(run_experiment(small_config(seed=76)))
    write_summary_csv([done, done, object()], path)


def _cut_meta(path):
    write_meta({"a": list(range(5000)), "z": object()}, path)


def _cut_config(path):
    dump = {"seed": 1, "z": object()}
    write_config_file(SimpleNamespace(to_dict=lambda: dump), path)


class TestAtomicWrites:
    @pytest.mark.parametrize("cut", [
        _cut_record, _cut_summary, _cut_meta, _cut_config,
    ], ids=["record", "summary", "meta", "config"])
    def test_failed_write_leaves_old_file(self, tmp_path, cut):
        path = tmp_path / "artifact"
        path.write_bytes(b"old contents\r\n")
        with pytest.raises((RuntimeError, AttributeError, TypeError,
                            yaml.YAMLError)):
            cut(path)
        assert path.read_bytes() == b"old contents\r\n"
        assert os.listdir(tmp_path) == ["artifact"]

    def test_new_files_keep_umask_permissions(self, tmp_path):
        mask = os.umask(0o022)
        try:
            path = tmp_path / "meta.json"
            write_meta({"a": 1}, path)
        finally:
            os.umask(mask)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
        assert os.listdir(tmp_path) == ["meta.json"]


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
            assert (b.variational_flows > 0) == guided
            assert b.variational_cost_evals >= b.variational_iterations
            # so are the control counters unless the filter nudges, and the
            # two rollback causes add up to the rollback fraction
            nudged = b.filter_name != "pf"
            assert (b.control_solves > 0) == nudged
            assert b.control_solves <= cells
            assert b.floored_solves + b.threshold_rollbacks == round(
                b.rollback_fraction * cells
            )

    def test_failure_message_round_trips(self, tmp_path):
        failed = run_metrics(run_experiment(small_config(
            filter_name="npf", seed=76, ensemble_mean=(1e8, 1e8, 1e8)
        )))
        assert failed.failed
        assert failed.failure_message.startswith("cycle 0: ")
        done = run_metrics(run_experiment(small_config(seed=76)))
        assert not done.failed and done.failure_message == ""
        quoted = dataclasses.replace(
            failed, failure_message='cycle 3: "x, y", it said, "z"'
        )
        rows = [failed, done, quoted]
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        back = read_summary_csv(path)
        assert [r.failure_message for r in back] == [
            failed.failure_message, "", 'cycle 3: "x, y", it said, "z"',
        ]
        assert all(rows_equal(a, b) for a, b in zip(rows, back))

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ConfigError):
            read_summary_csv(path)

    def test_rejects_undecodable_text(self, tmp_path):
        path = tmp_path / "summary.csv"
        done = run_metrics(run_experiment(small_config(seed=76)))
        write_summary_csv([done], path)
        path.write_bytes(path.read_bytes().replace(b"pf", b"p\xff", 1))
        with pytest.raises(ConfigError) as caught:
            read_summary_csv(path)
        assert str(caught.value).startswith(f"{path} is not UTF-8 text")

    @staticmethod
    def _second_row_with(tmp_path, column, cell):
        """A two-row summary.csv whose second row has ``cell`` in
        ``column``."""
        done = run_metrics(run_experiment(small_config(seed=76)))
        path = tmp_path / "summary.csv"
        write_summary_csv([done, done], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][rows[0].index(column)] = cell
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    @pytest.mark.parametrize("cell", ["True", "2", "", "01", " 1"])
    def test_rejects_flag_cells_other_than_0_or_1(self, tmp_path, cell):
        path = self._second_row_with(tmp_path, "failed", cell)
        with pytest.raises(ConfigError, match=f"line 3: flag cell {cell!r}"):
            read_summary_csv(path)

    # the first six are accepted by int(): whitespace, underscores, a plus
    # sign, non-ASCII digits
    @pytest.mark.parametrize("cell", [
        " 7", "7 ", "\t7", "1_0", "+7", "\u0667", "7.0", "1e3", "0x7", "",
    ])
    @pytest.mark.parametrize("column", ["control_solves", "drift_evals"])
    def test_rejects_int_cells_the_writer_never_emits(
        self, tmp_path, column, cell
    ):
        path = self._second_row_with(tmp_path, column, cell)
        with pytest.raises(
            ConfigError, match=re.escape(f"line 3: int cell {cell!r}")
        ):
            read_summary_csv(path)

    # all but the last five are accepted by float()
    @pytest.mark.parametrize("cell", [
        "1_0.5", " 1.5", "1.5 ", "+1.5", "1.5E+00", "1e5", "1e+5", ".5",
        "5.", "NaN", "-nan", "+nan", "Infinity", "INF", "+inf", "\u0661.5",
        "", "1.5e", "e+05", "1..5", "inf5",
    ])
    @pytest.mark.parametrize("column", ["rmse", "runtime_total"])
    def test_rejects_float_cells_the_writer_never_emits(
        self, tmp_path, column, cell
    ):
        path = self._second_row_with(tmp_path, column, cell)
        with pytest.raises(
            ConfigError, match=re.escape(f"line 3: float cell {cell!r}")
        ):
            read_summary_csv(path)

    def test_every_written_number_reads_back(self, tmp_path):
        done = run_metrics(run_experiment(small_config(seed=76)))
        floats = [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-5, 0.1,
            1e16, 1e17, -1.7976931348623157e308,
        ]
        rows = [
            dataclasses.replace(
                done, rmse=x, runtime_total=-x, control_solves=-i,
                drift_evals=10**i,
            )
            for i, x in enumerate(floats)
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        back = read_summary_csv(path)
        assert all(rows_equal(a, b) for a, b in zip(rows, back))
        for a, b in zip(rows[1:], back[1:]):  # nan is written without sign
            for x, y in ((a.rmse, b.rmse), (a.runtime_total, b.runtime_total)):
                assert math.copysign(1.0, x) == math.copysign(1.0, y)

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
        assert loaded["metrics"]["failure_message"] == ""

    def test_failed_run_meta_carries_message(self, tmp_path):
        record = run_experiment(small_config(
            filter_name="npf", seed=77, ensemble_mean=(1e8, 1e8, 1e8)
        ))
        path = tmp_path / "meta.json"
        write_meta(build_run_meta(record), path)
        loaded = json.loads(path.read_text())
        assert loaded["failed"] and loaded["metrics"]["failed"]
        assert loaded["metrics"]["failure_message"] == record.failure_message
        assert record.failure_message.startswith("cycle 0: ")

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
        assert metrics["variational_flows"] == int(
            record.variational_flows.sum()
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
            metrics["threshold_rollbacks"], metrics["control_passes"],
        )
        assert metrics["drift_evals"] == np.sum(record.drift_evals) > 0
        if record.rollbacks is None:
            assert counters == (0, 0, 0, 0)
            return
        assert counters == (
            np.count_nonzero(record.batches_used),
            np.sum(record.phi_floored),
            np.sum(record.rollbacks & ~record.phi_floored),
            np.sum(record.control_passes),
        )
        # at least one pass per subinterval of every cycle
        cycles, subintervals = record.batches_used.shape[:2]
        assert metrics["control_passes"] >= cycles * subintervals
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

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"seed: 3\n# \xff\n")
        with pytest.raises(ConfigError, match="is not UTF-8 text"):
            load_config_file(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config_file(path)
