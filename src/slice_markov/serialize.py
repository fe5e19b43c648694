"""Writers for result documents.

Documents are the plain dicts produced by the experiment drivers. JSON
output is the document itself, sorted and indented, validating against the
bundled schema. CSV output carries the scalar metadata as leading comment
lines, then a header row, then data; floats are printed with 17 significant
digits so a reader parsing them back gets bit-identical doubles.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _comment_lines(doc: dict) -> list[str]:
    keys = sorted(k for k, v in doc.items()
                  if isinstance(v, (str, int, float, bool)) and k not in ("kind", "config_hash"))
    lines = [f"# {key}={format_value(doc[key])}" for key in ("kind", "config_hash", *keys)]
    for key in ("initial_state", "creation_rates", "mean_lifetimes", "resource_pool", "cost_matrix"):
        if key in doc:
            lines.append(f"# {key}={json.dumps(doc[key])}")
    return lines


class TraceRows(list):
    """Read-only ``[run, period, state_index, state_label]`` rows over a
    trajectory array of shape (runs, periods + 1), built one at a time.

    It subclasses ``list`` only so that the json module encodes it as an
    array, through ``__len__`` and ``__iter__``; the list's own storage
    stays empty. The view supports ``len`` and iteration only, both read
    from the array and giving plain Python ints; copy it with ``list()``
    for anything else. The CSV writer reads ``trajectories`` and ``labels``
    directly.
    """

    def __init__(self, trajectories, labels):
        super().__init__()
        self.trajectories = trajectories
        self.labels = labels

    def __len__(self):
        return self.trajectories.size

    def __iter__(self):
        labels = self.labels
        for run, states in enumerate(self.trajectories):
            for period, state in enumerate(states.tolist()):
                yield [run, period, state, labels[state]]


# Trace rows written at a time; also the most (period, state) texts made
# once per table, and the longest horizon whose period strings are.
_TRACE_SLICE = 1 << 14


def _write_trace_rows(out, rows: TraceRows) -> None:
    """Write trace rows at most ``_TRACE_SLICE`` at a time, run after run.

    csv.writer encodes each state's ``index,label`` suffix once, so that
    quoting matches a per-row ``writerow``. When the horizon's boundaries
    times the states are at most ``_TRACE_SLICE``, each (period, state)
    pair gets one text, ``,period,`` and the suffix, and a row is two
    strings: its run's and its cell's; a slice holds whole runs. Otherwise
    a row is three strings: its run, its period as ``,period,`` and the
    suffix. numpy gathers the strings of every row of a slice, and one
    ``join`` makes the slice's text. Beyond the trajectories this holds one
    suffix per state, at most ``_TRACE_SLICE`` cell or period strings (a
    longer horizon makes its period strings slice by slice) and the pieces
    of one slice, whatever the horizon or the region size.
    """
    encoded = io.StringIO()
    writer = csv.writer(encoded, lineterminator="\n")
    suffixes = np.empty(len(rows.labels), dtype=object)
    for state, label in enumerate(rows.labels):
        encoded.seek(0)
        encoded.truncate()
        writer.writerow([state, label])
        suffixes[state] = encoded.getvalue()
    trajectories = rows.trajectories
    runs, width = trajectories.shape
    size = len(suffixes)
    if width * size <= _TRACE_SLICE:
        cells = _cell_texts(width, suffixes)
        offsets = np.arange(0, width * size, size)
        step = _TRACE_SLICE // width
        for first in range(0, runs, step):
            states = trajectories[first:first + step]
            pieces = np.empty((len(states), width, 2), dtype=object)
            pieces[:, :, 0] = _run_names(first, first + len(states))[:, None]
            pieces[:, :, 1] = cells[states + offsets]
            out.write("".join(pieces.ravel().tolist()))
        return
    heads = _period_heads(range(width)) if width <= _TRACE_SLICE else None
    for first in range(0, trajectories.size, _TRACE_SLICE):
        run, period = np.divmod(np.arange(first, min(first + _TRACE_SLICE, trajectories.size)), width)
        pieces = np.empty((len(run), 3), dtype=object)
        pieces[:, 0] = _run_names(run[0], run[-1] + 1)[run - run[0]]
        pieces[:, 1] = _period_heads(period.tolist()) if heads is None else heads[period]
        pieces[:, 2] = suffixes[trajectories[run, period]]
        out.write("".join(pieces.ravel().tolist()))


def _cell_texts(width: int, suffixes: np.ndarray) -> np.ndarray:
    """The text of every (period, state) cell of a horizon of ``width``
    boundaries, ``,period,`` then the state's suffix, period after period."""
    return np.add.outer(_period_heads(range(width)), suffixes).ravel()


def _run_names(first: int, end: int) -> np.ndarray:
    return np.array([str(run) for run in range(first, end)], dtype=object)


def _period_heads(periods) -> np.ndarray:
    return np.array([f",{period}," for period in periods], dtype=object)


class LabelledRows(list):
    """Table rows of a label followed by one or more Python floats and ints,
    such as a matrix row's entries and deficit; the CSV writer joins their
    text itself instead of passing each cell through csv.writer."""


# printf-style conversions that give format_value's text of a float and an int.
_NUMBER_FORMATS = {float: ",%.17g", int: ",%d"}


def _write_labelled_rows(out, rows) -> None:
    """Write each ``[label, *numbers]`` row, with at least one number, as
    its label, encoded by csv.writer, then its numbers, formatted by one
    ``%`` of the row's conversions. Numbers need no quoting, so the text
    equals a ``writerow`` of every cell's ``format_value``."""
    encoded = io.StringIO()
    writer = csv.writer(encoded, lineterminator="\n")
    for label, *numbers in rows:
        encoded.seek(0)
        encoded.truncate()
        # The label as the first of several fields: alone, an empty one
        # would be quoted.
        writer.writerow([format_value(label), ""])
        formats = "".join(map(_NUMBER_FORMATS.__getitem__, map(type, numbers)))
        out.write(encoded.getvalue()[:-2] + formats % tuple(numbers) + "\n")


def _write_table(out, doc: dict, columns, rows) -> None:
    """Write the comment lines, the header and the rows of one table to a
    text stream."""
    for line in _comment_lines(doc):
        out.write(line + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    if isinstance(rows, TraceRows):
        _write_trace_rows(out, rows)
    elif isinstance(rows, LabelledRows):
        _write_labelled_rows(out, rows)
    else:
        writer.writerows([format_value(cell) for cell in row] for row in rows)


def _csv_tables(doc: dict) -> dict[str, tuple]:
    """The CSV tables of a document, keyed by filename suffix ("" for the
    main file), each as the ``(columns, rows)`` of ``_write_table``. A
    matrix row is its label, its entries, then its deficit; an empirical
    row ends with its visit count instead."""
    kind = doc["kind"]
    if kind in ("matrix", "empirical"):
        column, key = ("deficit", "row_deficits") if kind == "matrix" else ("visits", "visits")
        rows = LabelledRows(
            [label, *entries, last] for label, entries, last in zip(doc["labels"], doc["entries"], doc[key])
        )
        return {"": (["from", *doc["labels"], column], rows)}
    tables = {"": (doc["columns"], doc["rows"])}
    if kind == "figure3":
        tables["_summary"] = (doc["summary_columns"], doc["summary_rows"])
    return tables


def dump(doc: dict, out, out_format: str) -> None:
    """Write one document to an open text stream: JSON as the document
    itself, sorted and indented, then a newline; CSV as each of its tables
    in turn."""
    if out_format == "json":
        json.dump(doc, out, sort_keys=True, indent=2)
        out.write("\n")
        return
    for columns, rows in _csv_tables(doc).values():
        _write_table(out, doc, columns, rows)


def document_basename(doc: dict) -> str:
    kind = doc["kind"]
    if kind in ("matrix",):
        return f"matrix_{doc['scenario']}_q{doc['q_plus_max']}"
    if kind in ("empirical", "traces"):
        return f"{kind}_{doc['scenario']}"
    return kind


def write_document(doc: dict, out_dir: str, out_format: str) -> list[str]:
    """Write one document to out_dir in the requested format; returns the
    paths written."""
    os.makedirs(out_dir, exist_ok=True)
    base = document_basename(doc)
    if out_format == "json":
        path = os.path.join(out_dir, base + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            dump(doc, handle, out_format)
        return [path]
    paths = []
    for suffix, table in _csv_tables(doc).items():
        path = os.path.join(out_dir, base + suffix + ".csv")
        with open(path, "w", encoding="utf-8") as handle:
            _write_table(handle, doc, *table)
        paths.append(path)
    return paths
