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


def _write_trace_rows(out, rows: TraceRows) -> None:
    """Write trace rows one run per ``write``: each row is its run, its
    period and the state's ``index,label`` suffix, which csv.writer encodes
    once per state so that quoting matches a per-row ``writerow``."""
    encoded = io.StringIO()
    writer = csv.writer(encoded, lineterminator="\n")
    suffixes = []
    for state, label in enumerate(rows.labels):
        encoded.seek(0)
        encoded.truncate()
        writer.writerow([state, label])
        suffixes.append(encoded.getvalue())
    heads = [f",{period}," for period in range(rows.trajectories.shape[1])]
    for run, states in enumerate(rows.trajectories):
        out.write("".join([f"{run}{head}{suffixes[state]}" for head, state in zip(heads, states.tolist())]))


def _write_table(out, doc: dict, columns, rows) -> None:
    """Write the comment lines, the header and the rows of one table to a
    text stream."""
    for line in _comment_lines(doc):
        out.write(line + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    if isinstance(rows, TraceRows):
        _write_trace_rows(out, rows)
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
        rows = [[label, *entries, last] for label, entries, last in zip(doc["labels"], doc["entries"], doc[key])]
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
