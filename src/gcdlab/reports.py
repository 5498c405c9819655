"""Structured report documents: canonical JSON and a flattened CSV mode.

Reports are plain dicts with a fixed shape ({"kind", "config", "summary",
"records"}).  Emission is canonical (sorted keys, fixed separators, one
trailing newline), so emit -> parse -> emit is byte-identical, and the same
seed and config always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

__all__ = ["jsonable", "make_report", "render", "to_canonical_json", "to_canonical_csv"]


def jsonable(value):
    """Recursively convert to JSON-native values.  Fractions become 'p/q'
    strings, non-finite floats become strings, records (NamedTuples) become
    dicts of their fields."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if value is None or isinstance(value, (int, float, str)):  # bool is an int
        return value
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: jsonable(v) for name, v in zip(value._fields, value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {value!r} into a report")


def make_report(kind: str, config: dict, summary: dict, records=()) -> dict:
    return {
        "kind": kind,
        "config": jsonable(config),
        "summary": jsonable(summary),
        "records": [jsonable(r) for r in records],
    }


def to_canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, list):
        out[prefix] = json.dumps(value, sort_keys=True, separators=(",", ":"))
    elif value is None:
        out[prefix] = ""
    elif isinstance(value, bool):
        out[prefix] = "true" if value else "false"
    elif isinstance(value, float):
        out[prefix] = repr(value)
    else:
        out[prefix] = str(value)


def to_canonical_csv(doc: dict) -> str:
    """One row for the summary and one per record; nested keys dotted."""
    import csv  # here, so that a JSON run does not load it
    import io

    rows = []
    head = {"record": "summary", "kind": doc["kind"]}
    _flatten("config", doc["config"], head)
    _flatten("", doc["summary"], head)
    rows.append(head)
    for n, rec in enumerate(doc["records"]):
        row = {"record": f"detail-{n}", "kind": doc["kind"]}
        _flatten("", rec, row)
        rows.append(row)
    columns = ["record", "kind"] + sorted(
        {k for row in rows for k in row} - {"record", "kind"}
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    return buf.getvalue()


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return to_canonical_json(doc)
    if fmt == "csv":
        return to_canonical_csv(doc)
    raise ValueError(f"unknown format {fmt!r}")
