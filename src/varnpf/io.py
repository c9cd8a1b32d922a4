"""Artifact serialization: tidy series CSV, run summaries, manifests.

``record.csv`` is one tidy table with columns series, time, cycle,
particle, component, value; every numeric series of a run lands there.
``harness.RECORD_SERIES`` lists the series and the axes of each, and
``harness.RECORD_AXES`` the index column of each axis.  Values are
written with 17 significant digits, which round-trips IEEE doubles
exactly, so parse(write(record)) reproduces every number bit for bit.
Strings and provenance go to ``meta.json`` instead.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from datetime import datetime, timezone
from itertools import repeat

import numpy as np
import yaml

from .harness import (
    RECORD_AXES,
    RECORD_SERIES,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    McSummary,
    RunMetrics,
    run_metrics,
)

SCHEMA = ("series", "time", "cycle", "particle", "component", "value")


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _plain(value):
    """Nested tuples to lists, for YAML and JSON emitters."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _package_version() -> str:
    from varnpf import __version__

    return __version__


def write_record_csv(record: ExperimentRecord, path) -> None:
    """Write every series of ``RECORD_SERIES`` the record holds, one row
    per value in row-major order."""
    times = np.array([_fmt(t) for t in record.times], dtype=object)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEMA)
        for series in RECORD_SERIES:
            values = getattr(record, series.attr)
            if values is None:
                continue
            # axes sharing a column (pseudo targets) flatten into it
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
                map(_fmt, values.ravel().tolist()),
            ))


def _bad_row(path, reader, problem) -> ConfigError:
    return ConfigError(f"{path}, line {reader.line_num}: {problem}")


def _check_width(row, header, path, reader) -> None:
    """A short or long row would shift its cells against the header."""
    if len(row) != len(header):
        raise _bad_row(
            path, reader, f"{len(row)} cells, expected {len(header)}"
        )


def read_record_csv(path) -> dict:
    """Load a tidy record file as {series: {column: array}}.

    Index columns come back as float arrays with nan where the writer left
    the cell empty; values preserve the written doubles exactly.  A row
    of the wrong width or with a non-numeric cell raises ConfigError.
    """
    out: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != SCHEMA:
            raise ConfigError(f"unexpected record header {header!r}")
        for row in reader:
            _check_width(row, SCHEMA, path, reader)
            bucket = out.setdefault(
                row[0], {name: [] for name in SCHEMA[1:]}
            )
            try:
                for name, cell in zip(SCHEMA[1:], row[1:]):
                    bucket[name].append(float(cell) if cell != "" else np.nan)
            except ValueError as err:
                raise _bad_row(path, reader, err) from err
    return {
        name: {col: np.asarray(vals) for col, vals in bucket.items()}
        for name, bucket in out.items()
    }


_SUMMARY_FIELDS = [f.name for f in dataclasses.fields(RunMetrics)]
_SUMMARY_TYPES = {f.name: f.type for f in dataclasses.fields(RunMetrics)}


def write_summary_csv(rows, path) -> None:
    """Per-run metric rows; floats at full precision, bools as 0/1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_FIELDS)
        for row in rows:
            out = []
            for name in _SUMMARY_FIELDS:
                value = getattr(row, name)
                kind = _SUMMARY_TYPES[name]
                if kind == "float":
                    out.append(_fmt(value))
                elif kind == "bool":
                    out.append("1" if value else "0")
                else:
                    out.append(str(value))
            writer.writerow(out)


def read_summary_csv(path) -> list:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != _SUMMARY_FIELDS:
            raise ConfigError(f"unexpected summary header {header!r}")
        for raw in reader:
            _check_width(raw, header, path, reader)
            kwargs = {}
            try:
                for name, cell in zip(header, raw):
                    kind = _SUMMARY_TYPES[name]
                    if kind == "float":
                        kwargs[name] = float(cell)
                    elif kind == "int":
                        kwargs[name] = int(cell)
                    elif kind == "bool":
                        kwargs[name] = cell == "1"
                    else:
                        kwargs[name] = cell
            except ValueError as err:
                raise _bad_row(path, reader, err) from err
            rows.append(RunMetrics(**kwargs))
    return rows


def build_run_meta(record: ExperimentRecord) -> dict:
    return {
        "kind": "run",
        "created": datetime.now(timezone.utc).isoformat(),
        "package_version": _package_version(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "config": record.config.to_dict(),
        "runtime": record.runtime,
        "failed": record.failed,
        "failure_message": record.failure_message,
        "truth_digest": record.truth_digest,
        "variational_status": record.variational_status,
        "metrics": dataclasses.asdict(run_metrics(record)),
    }


def build_mc_meta(
    summary: McSummary, config_template: ExperimentConfig
) -> dict:
    return {
        "kind": "mc",
        "created": datetime.now(timezone.utc).isoformat(),
        "package_version": _package_version(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "config_template": config_template.to_dict(),
        "base_seed": summary.base_seed,
        "runs_per_ic": summary.runs_per_ic,
        "filters": list(summary.filters),
        "initial_conditions": _plain(summary.initial_conditions),
        "aggregate": summary.aggregate(),
    }


def write_meta(meta: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(_plain(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config_file(path) -> ExperimentConfig:
    """Parse a YAML experiment config, rejecting unknown keys."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"malformed config file: {err}") from err
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a key/value mapping")
    return ExperimentConfig.from_dict(data)


def write_config_file(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(_plain(config.to_dict()), fh, sort_keys=False)
