"""Artifact serialization: tidy series CSV, run summaries, manifests.

``record.csv`` is one tidy table with columns series, time, cycle,
particle, component, value; every numeric series of a run lands there.
``harness.RECORD_SERIES`` lists the series and the axes of each, and
``harness.RECORD_AXES`` the index column of each axis.  Values are
written with 17 significant digits, which round-trips IEEE doubles
exactly, so parse(write(record)) reproduces every number bit for bit.
The writer streams rows in blocks of ``WRITE_BLOCK_ROWS``, so the text of
a whole record is never held at once; the reader keeps one float64 per
cell.  Strings and provenance go to ``meta.json`` instead.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from array import array
from datetime import datetime, timezone
from itertools import islice, product, repeat, starmap

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
_EOL = "\r\n"  # the line terminator of csv.writer
WRITE_BLOCK_ROWS = 8192  # record.csv rows joined per write


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
    per value in row-major order, ``WRITE_BLOCK_ROWS`` rows at a time."""
    times = [_fmt(t) for t in record.times]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SCHEMA) + _EOL)
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
            labels = [
                times[:size] if column == "time"
                else [str(i) for i in range(size)]
                for column, size in zip(columns, values.shape)
            ]
            # the row's index cells, {k} standing for the label on axis k
            prefix = ",".join([series.name] + [
                f"{{{columns.index(column)}}}" if column in columns else ""
                for column in SCHEMA[1:-1]
            ] + [""]).format
            rows = map(
                str.__add__,
                starmap(prefix, product(*labels)),
                map(format, values.ravel().tolist(), repeat(".17g")),
            )
            while block := list(islice(rows, WRITE_BLOCK_ROWS)):
                fh.write(_EOL.join(block) + _EOL)


def _bad_row(path, reader, problem) -> ConfigError:
    return ConfigError(f"{path}, line {reader.line_num}: {problem}")


def _check_width(row, header, path, reader) -> None:
    """A short or long row would shift its cells against the header."""
    if len(row) != len(header):
        raise _bad_row(
            path, reader, f"{len(row)} cells, expected {len(header)}"
        )


def read_record_csv(path) -> dict:
    """Load a tidy record file as {series: {column: float64 array}}.

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
            name, t, cycle, particle, component, value = row
            buffers = out.get(name)
            if buffers is None:
                buffers = out[name] = [array("d") for _ in SCHEMA[1:]]
            # one line per column: a loop over the cells costs a third more
            try:
                buffers[0].append(float(t) if t else np.nan)
                buffers[1].append(float(cycle) if cycle else np.nan)
                buffers[2].append(float(particle) if particle else np.nan)
                buffers[3].append(float(component) if component else np.nan)
                buffers[4].append(float(value) if value else np.nan)
            except ValueError as err:
                raise _bad_row(path, reader, err) from err
    return {
        name: {col: np.array(buf) for col, buf in zip(SCHEMA[1:], buffers)}
        for name, buffers in out.items()
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
