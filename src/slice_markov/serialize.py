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

_TABLE_FIELDS = {"columns", "rows", "summary_columns", "summary_rows", "labels",
                 "state_labels", "entries", "counts", "visits", "row_deficits",
                 "zero_visit_rows"}


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _comment_lines(doc: dict) -> list[str]:
    keys = [k for k, v in doc.items()
            if k not in _TABLE_FIELDS and isinstance(v, (str, int, float, bool))]
    keys.remove("config_hash")
    keys.remove("kind")
    ordered = ["kind", "config_hash"] + sorted(keys)
    lines = [f"# {key}={format_value(doc[key])}" for key in ordered]
    for key in ("initial_state", "creation_rates", "mean_lifetimes", "resource_pool", "cost_matrix"):
        if key in doc:
            lines.append(f"# {key}={json.dumps(doc[key])}")
    return lines


def _write_table(out, doc: dict, columns, rows, plain: bool = False) -> None:
    """Write the comment lines, the header and the rows of one table to a
    text stream; ``plain`` rows hold only ints and strings, which the csv
    module writes as format_value would, so they go out without per-cell
    work."""
    for line in _comment_lines(doc):
        out.write(line + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows if plain else ([format_value(cell) for cell in row] for row in rows))


def _csv_tables(doc: dict) -> dict[str, tuple]:
    """The CSV tables of a document, keyed by filename suffix ("" for the
    main file), each as the ``(columns, rows, plain)`` of ``_write_table``."""
    kind = doc["kind"]
    if kind == "matrix":
        columns = ["from", *doc["labels"], "deficit"]
        rows = [
            [label, *entries, deficit]
            for label, entries, deficit in zip(doc["labels"], doc["entries"], doc["row_deficits"])
        ]
        return {"": (columns, rows, False)}
    if kind == "empirical":
        columns = ["from", *doc["labels"], "visits"]
        rows = [
            [label, *entries, visits]
            for label, entries, visits in zip(doc["labels"], doc["entries"], doc["visits"])
        ]
        return {"": (columns, rows, False)}
    if kind == "figure3":
        return {
            "": (doc["columns"], doc["rows"], False),
            "_summary": (doc["summary_columns"], doc["summary_rows"], False),
        }
    return {"": (doc["columns"], doc["rows"], kind == "traces")}


def render_csv(doc: dict) -> dict[str, str]:
    """Render a document to CSV text, one entry per output file.

    Keys are filename suffixes ("" for the main file); the writer joins
    them onto the document's base name.
    """
    texts = {}
    for suffix, table in _csv_tables(doc).items():
        out = io.StringIO()
        _write_table(out, doc, *table)
        texts[suffix] = out.getvalue()
    return texts


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    paths = []
    if out_format == "json":
        path = os.path.join(out_dir, base + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_json(doc))
        paths.append(path)
        return paths
    for suffix, table in _csv_tables(doc).items():
        path = os.path.join(out_dir, base + suffix + ".csv")
        with open(path, "w", encoding="utf-8") as handle:
            _write_table(handle, doc, *table)
        paths.append(path)
    return paths
