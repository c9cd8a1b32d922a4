"""Artifact serialization: tidy series CSV, run summaries, manifests.

``record.csv`` is one tidy table with columns series, time, cycle,
particle, component, value; every numeric series of a run lands there.
``harness.RECORD_SERIES`` lists the series and the axes of each, and
``harness.RECORD_AXES`` the index column of each axis.  Values are
written with 17 significant digits, which round-trips IEEE doubles
exactly, so parse(write(record)) reproduces every number bit for bit.
Strings and provenance go to ``meta.json`` instead.

The writer emits a series in blocks of whole axis-0 rows, about
``WRITE_BLOCK_ROWS`` rows each.  A row's text is an outer part (series
name to axis-0 label, one string per axis-0 index), an inner part (the
other index cells, one string per inner index) and the value, so a block
is one ``%`` format of a repeated row template.

The reader takes the lines after the header ``WRITE_BLOCK_ROWS`` at a
time.  A block in the writer's own form (no ``"``, every line ended by
``\\r\\n``, five commas a line, no line longer than
``csv.field_size_limit()``) is split into cells with one ``str.split``;
on such text csv.reader would give the same cells.  The first block in
any other form (quoted cells, line breaks inside cells, LF or CR line
ends, rows of the wrong width) goes to ``csv.reader`` with the rest of
the file, so the errors and their ``line N`` stay csv.reader's.  Either
way the block's flat cells are parsed column by column (each distinct
index text once per file, an index column empty throughout the block in
one call) and split where the series column changes.  Neither side holds
the text of a whole record or series: the reader holds one block at a
time (its lines, text and cells peak at about 4.3 MB at 8192 rows) and
keeps one float64 per cell.

Every artifact is written to a temporary file beside its destination and
moved into place, so a write cut short leaves the old file, not a
truncated one that would read back without error.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import chain, groupby, islice, product, repeat, starmap
from pathlib import Path
from secrets import token_hex

import numpy as np

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


@contextmanager
def _replacing(path, **kwargs):
    """Open a sibling temporary file for writing and move it onto ``path``
    once the body succeeds; on any exception remove it, so ``path`` holds
    either its old contents or the whole new file, as UTF-8 text.
    ``kwargs`` go to ``open``, whose exclusive create keeps the umask's
    permissions."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _reading(path, **kwargs):
    """Open ``path`` as UTF-8 text; bytes that do not decode, wherever the
    body meets them, raise ConfigError naming the file.  ``kwargs`` go to
    ``open``."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err}") from err


def write_record_csv(record: ExperimentRecord, path) -> None:
    """Write every series of ``RECORD_SERIES`` the record holds, in that
    order, one row per value in row-major order.  A write takes as many
    whole axis-0 rows as fit in ``WRITE_BLOCK_ROWS`` rows, and at least
    one."""
    times = [_fmt(t) for t in record.times]
    with _replacing(path, newline="") as fh:
        fh.write(",".join(SCHEMA) + _EOL)
        for series in RECORD_SERIES:
            values = record.series.get(series.attr)
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
            # axis 0's column leads the series' columns in SCHEMA, so a row
            # is outer[i] (name to axis-0 cell) + inner[j] (the other index
            # cells, {k} standing for the label on axis k + 1) + value
            split = SCHEMA.index(columns[0])
            outer = [series.name + "," * split + label for label in labels[0]]
            template = ",".join([""] + [
                f"{{{columns.index(column) - 1}}}" if column in columns
                else "" for column in SCHEMA[split + 1:-1]
            ] + [""])
            inner = list(starmap(template.format, product(*labels[1:])))
            values = values.reshape(len(outer), len(inner))
            per_block = max(1, WRITE_BLOCK_ROWS // len(inner))
            for start in range(0, len(outer), per_block):
                heads = outer[start:start + per_block]
                rows = len(heads) * len(inner)
                args = [None] * (3 * rows)
                args[0::3] = chain.from_iterable(
                    map(repeat, heads, repeat(len(inner)))
                )
                args[1::3] = inner * len(heads)
                args[2::3] = values[start:start + per_block].ravel().tolist()
                fh.write(("%s%s%.17g" + _EOL) * rows % tuple(args))


def _bad_row(path, reader, problem) -> ConfigError:
    return ConfigError(f"{path}, line {reader.line_num}: {problem}")


def _check_width(row, header, path, reader) -> None:
    """A short or long row would shift its cells against the header."""
    if len(row) != len(header):
        raise _bad_row(
            path, reader, f"{len(row)} cells, expected {len(header)}"
        )


def _cell(text: str) -> float:
    return float(text) if text else np.nan


class _IndexCells(dict):
    """Index cell text to float, parsing each distinct text once."""

    def __missing__(self, text):
        value = self[text] = _cell(text)
        return value


def _cell_blocks(fh):
    """(rows, flat cells) of each block of up to ``WRITE_BLOCK_ROWS`` data
    rows of the open record ``fh``, split with str methods while the
    blocks are in the writer's own form and by csv.reader from the first
    that is not; the cells are empty if a row is not ``len(SCHEMA)``
    cells wide."""
    width, limit = len(SCHEMA), csv.field_size_limit()
    while lines := list(islice(fh, WRITE_BLOCK_ROWS)):
        rows, text = len(lines), ",".join(lines)
        if (
            '"' in text
            or text.count(_EOL) != rows  # a line ends in another way
            or max(map(len, lines)) > limit  # csv.reader raises on these
        ):
            break
        cells = text.split(",")
        # joined by commas, a line's last cell and no other holds an _EOL;
        # with five commas a line on average, the lines are six cells
        # wide exactly when every sixth cell holds one
        ends = "".join(cells[width - 1::width]).split(_EOL)
        if len(cells) != width * rows or len(ends) != rows + 1:
            break
        ends.pop()  # after the last line's _EOL
        cells[width - 1::width] = ends
        # drop every reference to this block's text before the next block
        # is read: a block kept alive beside the next one fragments the
        # heap (pf_wide's peak RSS read 59.6 MB instead of 57.0 MB)
        del lines, text, ends
        yield rows, cells
        del cells
    else:
        return
    reader = csv.reader(chain(lines, fh))
    del lines
    while block := list(islice(reader, WRITE_BLOCK_ROWS)):
        rows = len(block)
        cells = (
            list(chain.from_iterable(block))
            if set(map(len, block)) == {width} else []
        )
        del block
        yield rows, cells
        del cells


def _parse_block(rows: int, cells: list, index: _IndexCells):
    """(runs, five float64 columns) of ``rows`` record rows given as their
    flat cells, ``runs`` holding (series, rows) of each run of one series
    name; ValueError if the cells do not fill ``rows`` rows of the
    schema's width or a cell is not a number."""
    width = len(SCHEMA)
    if len(cells) != width * rows:
        raise ValueError("row width")
    # column k of the block is every width-th cell from k
    columns = []
    for k in range(1, width - 1):
        column = cells[k::width]
        columns.append(
            np.fromiter(map(index.__getitem__, column), float, rows)
            if any(column) else np.full(rows, np.nan)
        )
    values = cells[width - 1::width]
    try:
        columns.append(np.fromiter(map(float, values), float, rows))
    except ValueError:  # empty cells read as nan
        columns.append(np.fromiter(map(_cell, values), float, rows))
    runs = [(name, len(list(run))) for name, run in groupby(cells[0::width])]
    return runs, columns


def _first_bad_row(path, skipped: int) -> ConfigError:
    """The error of the first bad data row after the first ``skipped``,
    naming the line csv.reader counts for it."""
    # walk the file again with csv.reader: quoted cells may span lines
    with _reading(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in islice(reader, 1 + skipped, None):  # past the header
            try:
                if len(row) != len(SCHEMA):
                    raise ValueError(
                        f"{len(row)} cells, expected {len(SCHEMA)}"
                    )
                list(map(_cell, row[1:]))
            except ValueError as err:
                return _bad_row(path, reader, err)
    raise AssertionError("a block failed but none of its rows does")


def read_record_csv(path) -> dict:
    """Load a tidy record file as {series: {column: float64 array}}.

    Index columns come back as float arrays with nan where the writer left
    the cell empty; values preserve the written doubles exactly.  A row
    of the wrong width, a non-numeric cell or text that is not UTF-8
    raises ConfigError.
    """
    chunks: dict = {}  # series -> per-block lists of its column slices
    index = _IndexCells()
    with _reading(path, newline="") as fh:
        # csv.reader takes the header's lines alone, so the blocks start
        # on the first data row
        header = tuple(next(csv.reader(fh), ()))
        if header != SCHEMA:
            raise ConfigError(f"unexpected record header {header!r}")
        skipped = 0
        for rows, cells in _cell_blocks(fh):
            try:
                runs, columns = _parse_block(rows, cells, index)
            except ValueError:
                raise _first_bad_row(path, skipped) from None
            del cells  # before the next block is read
            start = 0
            for name, count in runs:
                chunks.setdefault(name, []).append(
                    [column[start:start + count] for column in columns]
                )
                start += count
            skipped += rows
    return {
        name: dict(zip(SCHEMA[1:], map(np.concatenate, zip(*parts))))
        for name, parts in chunks.items()
    }


_SUMMARY_FIELDS = [f.name for f in dataclasses.fields(RunMetrics)]
_SUMMARY_TYPES = {f.name: f.type for f in dataclasses.fields(RunMetrics)}


def write_summary_csv(rows, path) -> None:
    """Per-run metric rows; floats at full precision, bools as 0/1."""
    with _replacing(path, newline="") as fh:
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


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"flag cell {cell!r} is not 0 or 1")
    return cell == "1"


# the spellings write_summary_csv emits: str() of an int, and _fmt of a
# float ('%.17g': no spaces, underscores, plus signs or capitals)
_INT_CELL = re.compile(r"-?[0-9]+")
_FLOAT_CELL = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]{2,})?|nan|-?inf")


def _int(cell: str) -> int:
    if not _INT_CELL.fullmatch(cell):
        raise ValueError(f"int cell {cell!r} is not an optional - and digits")
    return int(cell)


def _float(cell: str) -> float:
    if not _FLOAT_CELL.fullmatch(cell):
        raise ValueError(f"float cell {cell!r} is not a %.17g number")
    return float(cell)


def read_summary_csv(path) -> list:
    rows = []
    with _reading(path, newline="") as fh:
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
                        kwargs[name] = _float(cell)
                    elif kind == "int":
                        kwargs[name] = _int(cell)
                    elif kind == "bool":
                        kwargs[name] = _flag(cell)
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
        "ic_indices": list(summary.initial_conditions),
        "initial_conditions": _plain(
            list(summary.initial_conditions.values())
        ),
        "aggregate": summary.aggregate(),
    }


def write_meta(meta: dict, path) -> None:
    with _replacing(path) as fh:
        json.dump(_plain(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config_file(path) -> ExperimentConfig:
    """Parse a YAML experiment config, rejecting unknown keys."""
    import yaml

    try:
        with _reading(path) as fh:
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
    import yaml

    with _replacing(path) as fh:
        yaml.safe_dump(_plain(config.to_dict()), fh, sort_keys=False)
